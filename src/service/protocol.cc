#include "protocol.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace splab
{
namespace service
{

namespace
{

/**
 * Bounds-checked little reader over one frame.  Unlike ByteReader
 * (which asserts on truncation — correct for checksummed files we
 * wrote ourselves), every get here reports failure, because frames
 * arrive from another process that may be buggy or dying.
 */
class FrameReader
{
  public:
    explicit FrameReader(const std::vector<u8> &frame) : buf(frame) {}

    template <typename T>
    bool
    get(T &out)
    {
        if (buf.size() - pos < sizeof(T))
            return false;
        std::memcpy(&out, buf.data() + pos, sizeof(T));
        pos += sizeof(T);
        return true;
    }

    bool
    getString(std::string &out)
    {
        u32 n = 0;
        if (!get(n) || buf.size() - pos < n)
            return false;
        out.assign(reinterpret_cast<const char *>(buf.data() + pos),
                   n);
        pos += n;
        return true;
    }

    bool
    getBlob(std::vector<u8> &out)
    {
        u32 n = 0;
        if (!get(n) || buf.size() - pos < n)
            return false;
        out.assign(buf.begin() + pos, buf.begin() + pos + n);
        pos += n;
        return true;
    }

    bool exhausted() const { return pos == buf.size(); }

  private:
    const std::vector<u8> &buf;
    std::size_t pos = 0;
};

class FrameWriter
{
  public:
    template <typename T>
    void
    put(T v)
    {
        const u8 *p = reinterpret_cast<const u8 *>(&v);
        buf.insert(buf.end(), p, p + sizeof(T));
    }

    void
    putString(const std::string &s)
    {
        put<u32>(static_cast<u32>(s.size()));
        buf.insert(buf.end(), s.begin(), s.end());
    }

    void
    putBlob(const std::vector<u8> &b)
    {
        put<u32>(static_cast<u32>(b.size()));
        buf.insert(buf.end(), b.begin(), b.end());
    }

    std::vector<u8> take() { return std::move(buf); }

  private:
    std::vector<u8> buf;
};

bool
decodePreamble(FrameReader &r)
{
    u32 magic = 0;
    u16 version = 0;
    return r.get(magic) && magic == kMagic && r.get(version) &&
           version == kWireVersion;
}

void
encodePreamble(FrameWriter &w)
{
    w.put<u32>(kMagic);
    w.put<u16>(kWireVersion);
}

} // namespace

std::vector<u8>
encodeRequest(const Request &r)
{
    FrameWriter w;
    encodePreamble(w);
    w.put<u8>(static_cast<u8>(r.op));
    if (r.op == Op::Ensure) {
        w.putString(r.benchmark);
        w.put<u8>(r.kind);
        w.put<u64>(r.configHash);
        w.put<double>(r.scale);
        w.putBlob(r.config);
    } else if (r.op == Op::Evict) {
        w.put<u64>(r.evictBytes);
    }
    return w.take();
}

bool
decodeRequest(const std::vector<u8> &frame, Request &out)
{
    FrameReader r(frame);
    u8 op = 0;
    if (!decodePreamble(r) || !r.get(op))
        return false;
    switch (static_cast<Op>(op)) {
      case Op::Ping:
      case Op::Stats:
      case Op::Shutdown:
        out.op = static_cast<Op>(op);
        return r.exhausted();
      case Op::Ensure:
        out.op = Op::Ensure;
        return r.getString(out.benchmark) && r.get(out.kind) &&
               r.get(out.configHash) && r.get(out.scale) &&
               r.getBlob(out.config) && r.exhausted();
      case Op::Evict:
        out.op = Op::Evict;
        return r.get(out.evictBytes) && r.exhausted();
    }
    return false;
}

std::vector<u8>
encodeResponseHeader(const ResponseHeader &h)
{
    FrameWriter w;
    encodePreamble(w);
    w.put<u8>(static_cast<u8>(h.status));
    if (h.status == Status::Ok)
        w.put<u64>(h.payloadBytes);
    else
        w.putString(h.error);
    return w.take();
}

bool
decodeResponseHeader(const std::vector<u8> &frame,
                     ResponseHeader &out)
{
    FrameReader r(frame);
    u8 status = 0;
    if (!decodePreamble(r) || !r.get(status))
        return false;
    switch (static_cast<Status>(status)) {
      case Status::Ok:
        out.status = Status::Ok;
        return r.get(out.payloadBytes) && r.exhausted();
      case Status::Error:
        out.status = Status::Error;
        return r.getString(out.error) && r.exhausted();
    }
    return false;
}

namespace
{

bool
readAll(int fd, void *data, std::size_t n)
{
    u8 *p = static_cast<u8 *>(data);
    while (n > 0) {
        ssize_t r = ::recv(fd, p, n, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (r == 0)
            return false; // peer closed mid-frame
        p += r;
        n -= static_cast<std::size_t>(r);
    }
    return true;
}

} // namespace

bool
sendFrame(int fd, const void *data, std::size_t n)
{
    if (n > kMaxFrameBytes)
        return false;
    // Length prefix and body go out in one sendmsg; a partial write
    // advances across the two entries and sends the rest.
    u32 len = static_cast<u32>(n);
    iovec iov[2] = {{&len, sizeof(len)},
                    {const_cast<void *>(data), n}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    std::size_t left = sizeof(len) + n;
    while (left > 0) {
        ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (w == 0)
            return false;
        std::size_t done = static_cast<std::size_t>(w);
        left -= done;
        while (done > 0) {
            std::size_t step = std::min(done, msg.msg_iov->iov_len);
            msg.msg_iov->iov_base =
                static_cast<u8 *>(msg.msg_iov->iov_base) + step;
            msg.msg_iov->iov_len -= step;
            done -= step;
            if (msg.msg_iov->iov_len == 0) {
                ++msg.msg_iov;
                --msg.msg_iovlen;
            }
        }
    }
    return true;
}

bool
recvFrame(int fd, std::vector<u8> &out)
{
    u32 len = 0;
    if (!readAll(fd, &len, sizeof(len)))
        return false;
    if (len > kMaxFrameBytes)
        return false;
    out.resize(len);
    return len == 0 || readAll(fd, out.data(), len);
}

} // namespace service
} // namespace splab
