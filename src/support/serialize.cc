#include "serialize.hh"

#include <cstdio>

#include "rng.hh"

namespace splab
{

namespace
{

u64
rawChecksum(const std::vector<u8> &buf)
{
    return hashBytes(buf.data(), buf.size());
}

/** Read a whole file into memory. @return false on I/O error. */
bool
slurp(const std::string &path, std::vector<u8> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 0) {
        std::fclose(f);
        return false;
    }
    out.resize(static_cast<std::size_t>(size));
    std::size_t got = size ? std::fread(out.data(), 1, out.size(), f) : 0;
    std::fclose(f);
    return got == out.size();
}

} // namespace

void
ByteWriter::putString(const std::string &s)
{
    put<u64>(s.size());
    const auto *p = reinterpret_cast<const u8 *>(s.data());
    buf.insert(buf.end(), p, p + s.size());
}

bool
ByteWriter::saveFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    u64 csum = rawChecksum(buf);
    bool ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size() &&
              std::fwrite(&csum, 1, sizeof(csum), f) == sizeof(csum);
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

ByteReader
ByteReader::loadFile(const std::string &path)
{
    std::optional<ByteReader> r = tryLoadFile(path);
    if (!r)
        SPLAB_FATAL("cannot read file or checksum mismatch: ", path);
    return std::move(*r);
}

std::optional<ByteReader>
ByteReader::tryLoadFile(const std::string &path)
{
    std::vector<u8> data;
    if (!slurp(path, data) || data.size() < sizeof(u64))
        return std::nullopt;
    u64 stored;
    std::memcpy(&stored, data.data() + data.size() - sizeof(u64),
                sizeof(u64));
    data.resize(data.size() - sizeof(u64));
    if (stored != rawChecksum(data))
        return std::nullopt;
    return ByteReader(std::move(data));
}

std::string
ByteReader::getString()
{
    u64 n = get<u64>();
    SPLAB_ASSERT(pos + n <= buf.size(), "serialized string truncated");
    std::string s(reinterpret_cast<const char *>(buf.data() + pos), n);
    pos += n;
    return s;
}

} // namespace splab
