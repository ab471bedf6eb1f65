#include "artifact_cache.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "obs/counters.hh"
#include "support/env.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace splab
{

namespace
{

constexpr u64 kIndexMagic = 0x53504c4142494458ULL; // "SPLABIDX"
constexpr u32 kIndexVersion = 2;

/**
 * True when @p dir accepts new files.  std::filesystem permission
 * bits are not enough (root, ACLs, read-only mounts), so probe by
 * actually creating and removing a scratch file.
 */
bool
dirIsWritable(const std::string &dir)
{
    std::string probe = dir + "/.splab-write-probe";
    std::FILE *f = std::fopen(probe.c_str(), "wb");
    if (!f)
        return false;
    std::fclose(f);
    std::error_code ec;
    std::filesystem::remove(probe, ec);
    return true;
}

/** Warn about an unusable cache dir only once per directory. */
void
warnOnce(const std::string &dir, const char *why)
{
    static std::mutex mtx;
    static std::set<std::string> warned;
    std::lock_guard<std::mutex> g(mtx);
    if (!warned.insert(dir).second)
        return;
    SPLAB_WARN("cache dir ", dir, ": ", why, "; caching disabled");
}

/**
 * Exclusive flock over "<root>/index.lock" serializing index
 * read-modify-write cycles across processes.  Advisory, so only
 * ArtifactCache instances contend; blob reads never take it.
 */
class FileLock
{
  public:
    explicit FileLock(const std::string &path)
        : fd(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644))
    {
        if (fd < 0)
            return;
        while (::flock(fd, LOCK_EX) != 0) {
            if (errno != EINTR) {
                ::close(fd);
                fd = -1;
                return;
            }
        }
    }

    ~FileLock()
    {
        if (fd >= 0)
            ::close(fd); // closing drops the flock
    }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

  private:
    int fd;
};

u64
fileSizeOr0(const std::string &p)
{
    std::error_code ec;
    auto n = std::filesystem::file_size(p, ec);
    return ec ? 0 : static_cast<u64>(n);
}

obs::Counter &
evictionsCounter()
{
    return obs::counter("artifact_cache.evictions",
                        "artifact blobs evicted by the size budget");
}

obs::Counter &
bytesEvictedCounter()
{
    return obs::counter("artifact_cache.bytes_evicted",
                        "bytes reclaimed by cache eviction");
}

obs::Gauge &
residentGauge()
{
    return obs::gauge("artifact_cache.resident_bytes",
                      "indexed artifact blob bytes");
}

} // namespace

/**
 * In-memory mirror of index.bin.  Disk is authoritative: every
 * mutation reloads under the file lock before applying, so the
 * mirror only exists to answer usage() without touching the disk.
 */
struct ArtifactCache::IndexState
{
    struct Entry
    {
        u64 size = 0;    ///< blob file bytes (payload + checksum)
        u64 lastUse = 0; ///< logical stamp, bumped on load/store
    };

    std::mutex mtx;
    std::map<std::string, Entry> entries; ///< artifact blobs, by name
    u64 stamp = 0; ///< logical clock for last-use ordering

    u64
    residentBytes() const
    {
        u64 total = 0;
        for (const auto &kv : entries)
            total += kv.second.size;
        return total;
    }
};

const char *
cacheStatusName(CacheStatus s)
{
    switch (s) {
      case CacheStatus::Hit:
        return "hit";
      case CacheStatus::Miss:
        return "miss";
      case CacheStatus::Corrupt:
        return "corrupt";
      case CacheStatus::Disabled:
        return "disabled";
    }
    return "unknown";
}

ArtifactCache::ArtifactCache(std::string dir, u64 maxBytes)
    : root(std::move(dir)), budget(maxBytes)
{
    // Register the whole counter family eagerly so every run
    // manifest carries it even when the counts stay zero.
    obs::counter("artifact_cache.hits", "cache lookups served");
    obs::counter("artifact_cache.misses",
                 "cache lookups with no blob");
    obs::counter("artifact_cache.corrupt",
                 "cache blobs failing checksum validation");
    obs::counter("artifact_cache.disabled_lookups",
                 "cache lookups while disabled");
    obs::counter("artifact_cache.bytes_read",
                 "bytes loaded from cache blobs");
    obs::counter("artifact_cache.bytes_written",
                 "bytes stored into cache blobs");
    evictionsCounter();
    bytesEvictedCounter();
    residentGauge();

    if (root.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    if (ec) {
        warnOnce(root, "cannot create");
        root.clear();
        return;
    }
    if (!dirIsWritable(root)) {
        warnOnce(root, "not writable");
        root.clear();
        return;
    }
    idx = std::make_unique<IndexState>();
    // Populate the mirror (and heal a missing/corrupt index) so
    // usage() is meaningful before the first store.
    indexMutate([](IndexState &) {});
}

ArtifactCache::ArtifactCache(ArtifactCache &&) noexcept = default;
ArtifactCache &
ArtifactCache::operator=(ArtifactCache &&) noexcept = default;
ArtifactCache::~ArtifactCache() = default;

ArtifactCache
ArtifactCache::fromEnv()
{
    return ArtifactCache(artifactCacheDir(), cacheMaxBytes());
}

std::string
ArtifactCache::path(const std::string &kind, u64 key) const
{
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      hashCombine(key, kVersionSalt)));
    return root + "/" + kind + "-" + hex + ".bin";
}

// --- persistent index ------------------------------------------------

void
ArtifactCache::indexSaveLocked(const IndexState &st) const
{
    ByteWriter w;
    w.put<u64>(kIndexMagic);
    w.put<u32>(kIndexVersion);
    w.put<u64>(st.stamp);
    w.put<u32>(static_cast<u32>(st.entries.size()));
    for (const auto &kv : st.entries) {
        w.putString(kv.first);
        w.put<u64>(kv.second.size);
        w.put<u64>(kv.second.lastUse);
    }

    // tmp + rename so a reader (or a crash) never sees a torn index.
    std::string p = root + "/index.bin";
    std::string tmp =
        p + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    if (!w.saveFile(tmp)) {
        SPLAB_WARN("cannot write cache index ", tmp);
        return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, p, ec);
    if (ec) {
        SPLAB_WARN("cannot publish cache index ", p, ": ",
                   ec.message());
        std::filesystem::remove(tmp, ec);
    }
}

void
ArtifactCache::indexRebuildLocked(IndexState &st) const
{
    st.entries.clear();
    st.stamp = 0;
    std::error_code ec;
    std::filesystem::directory_iterator it(root, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        std::string name = it->path().filename().string();
        // Skip the index's own files and unpublished temporaries.
        if (name.rfind("index.", 0) == 0 ||
            name.find(".tmp.") != std::string::npos ||
            name.rfind(".", 0) == 0)
            continue;
        st.entries[name] = IndexState::Entry{
            fileSizeOr0(it->path().string()), ++st.stamp};
    }
}

void
ArtifactCache::indexLoadLocked(IndexState &st) const
{
    std::optional<ByteReader> r =
        ByteReader::tryLoadFile(root + "/index.bin");
    if (!r || r->remaining() < sizeof(u64) + sizeof(u32) ||
        r->get<u64>() != kIndexMagic ||
        r->get<u32>() != kIndexVersion) {
        indexRebuildLocked(st);
        return;
    }
    st.entries.clear();
    st.stamp = r->get<u64>();
    u32 nEntries = r->get<u32>();
    for (u32 i = 0; i < nEntries; ++i) {
        std::string name = r->getString();
        IndexState::Entry e;
        e.size = r->get<u64>();
        e.lastUse = r->get<u64>();
        st.entries.emplace(std::move(name), e);
    }
}

void
ArtifactCache::evictLocked(IndexState &st,
                           const std::string &protect,
                           u64 evictBudget) const
{
    u64 resident = st.residentBytes();
    while (resident > evictBudget) {
        // Oldest last-use stamp wins; never the blob being stored.
        auto victim = st.entries.end();
        for (auto it = st.entries.begin(); it != st.entries.end();
             ++it) {
            if (it->first == protect)
                continue;
            if (victim == st.entries.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == st.entries.end())
            break; // nothing evictable (only the protected blob)
        u64 freed = victim->second.size;
        std::error_code ec;
        std::filesystem::remove(root + "/" + victim->first, ec);
        st.entries.erase(victim);
        evictionsCounter().add();
        bytesEvictedCounter().add(freed);
        resident = resident > freed ? resident - freed : 0;
    }
}

void
ArtifactCache::indexMutate(
    const std::function<void(IndexState &)> &apply,
    const std::string &protect) const
{
    if (!enabled() || !idx)
        return;
    std::lock_guard<std::mutex> g(idx->mtx);
    FileLock lock(root + "/index.lock");
    indexLoadLocked(*idx);
    apply(*idx);
    if (budget != 0)
        evictLocked(*idx, protect, budget);
    indexSaveLocked(*idx);
    residentGauge().set(idx->residentBytes());
}

CacheUsage
ArtifactCache::evictToBytes(u64 targetBytes) const
{
    CacheUsage u;
    if (!enabled() || !idx)
        return u;
    std::lock_guard<std::mutex> g(idx->mtx);
    FileLock lock(root + "/index.lock");
    indexLoadLocked(*idx);
    evictLocked(*idx, "", targetBytes);
    indexSaveLocked(*idx);
    residentGauge().set(idx->residentBytes());
    u.artifacts = idx->entries.size();
    u.residentBytes = idx->residentBytes();
    return u;
}

CacheUsage
ArtifactCache::usage() const
{
    CacheUsage u;
    if (!enabled() || !idx)
        return u;
    std::lock_guard<std::mutex> g(idx->mtx);
    u.artifacts = idx->entries.size();
    u.residentBytes = idx->residentBytes();
    return u;
}

// --- blob operations -------------------------------------------------

CacheOutcome
ArtifactCache::load(const std::string &kind, u64 key) const
{
    static obs::Counter &hits = obs::counter("artifact_cache.hits");
    static obs::Counter &misses =
        obs::counter("artifact_cache.misses");
    static obs::Counter &corrupt =
        obs::counter("artifact_cache.corrupt");
    static obs::Counter &disabled =
        obs::counter("artifact_cache.disabled_lookups");
    static obs::Counter &bytesRead =
        obs::counter("artifact_cache.bytes_read");

    CacheOutcome out;
    if (!enabled()) {
        disabled.add();
        out.status = CacheStatus::Disabled;
        return out;
    }
    std::string p = path(kind, key);
    // One read that also verifies: a concurrent store() of the same
    // key replaces the file by rename, so this sees either the old
    // or the new blob whole, never a check on one and a read of the
    // other.
    out.blob = ByteReader::tryLoadFile(p);
    if (!out.blob) {
        std::error_code ec;
        if (std::filesystem::exists(p, ec) && !ec) {
            corrupt.add();
            SPLAB_WARN("corrupt cache blob ", p,
                       "; recomputing artifact");
            out.status = CacheStatus::Corrupt;
        } else {
            misses.add();
            out.status = CacheStatus::Miss;
        }
        return out;
    }
    hits.add();
    bytesRead.add(out.blob->remaining());
    out.status = CacheStatus::Hit;
    // Refresh the last-use stamp so LRU eviction sees live blobs.
    std::string name = std::filesystem::path(p).filename().string();
    u64 size = fileSizeOr0(p);
    indexMutate([&](IndexState &st) {
        auto it = st.entries.emplace(name, IndexState::Entry{size, 0})
                      .first;
        it->second.lastUse = ++st.stamp;
    });
    return out;
}

void
ArtifactCache::store(const std::string &kind, u64 key,
                     const ByteWriter &blob) const
{
    if (!enabled())
        return;
    // Write a unique temp file, then rename it over the final path:
    // saveFile truncates in place, so writing the final path directly
    // could expose a torn blob to a concurrent reader or writer.
    static std::atomic<u64> seq{0};
    std::string p = path(kind, key);
    std::string tmp = p + ".tmp." +
                      std::to_string(static_cast<long>(::getpid())) +
                      "." + std::to_string(seq.fetch_add(1));
    if (!blob.saveFile(tmp)) {
        SPLAB_WARN("cannot write cache artifact ", tmp);
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, p, ec);
    if (ec) {
        SPLAB_WARN("cannot publish cache artifact ", p, ": ",
                   ec.message());
        std::filesystem::remove(tmp, ec);
        return;
    }
    obs::counter("artifact_cache.bytes_written")
        .add(blob.bytes().size());
    std::string name = std::filesystem::path(p).filename().string();
    u64 size = fileSizeOr0(p);
    indexMutate(
        [&](IndexState &st) {
            st.entries[name] = IndexState::Entry{size, ++st.stamp};
        },
        name);
}

} // namespace splab
