#include "artifact_cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/counters.hh"
#include "support/env.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace splab
{

namespace
{

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

/** Last-use stamp: the blob's mtime, set to the clock's full
 *  resolution rather than the kernel's coarse write timestamp so
 *  back-to-back uses order correctly. */
void
stampNow(const std::string &p)
{
    std::error_code ec;
    std::filesystem::last_write_time(
        p, std::filesystem::file_time_type::clock::now(), ec);
}

/** A published blob as one directory scan saw it. */
struct BlobFile
{
    i64 lastUseNs = 0; ///< mtime, ns since the epoch
    std::string name;
    u64 size = 0;
};

/** Every published blob under @p root, least recently used first
 *  (ties by name).  Unpublished temporaries and dot-files are not
 *  blobs; every other regular file, whatever wrote it, is. */
std::vector<BlobFile>
scanBlobs(const std::string &root)
{
    std::vector<BlobFile> blobs;
    std::unique_ptr<DIR, int (*)(DIR *)> dir(::opendir(root.c_str()),
                                             ::closedir);
    if (!dir)
        return blobs;
    while (const dirent *e = ::readdir(dir.get())) {
        std::string name = e->d_name;
        if (name.find(".tmp.") != std::string::npos ||
            name.rfind(".", 0) == 0)
            continue;
        // One stat for type, size and mtime; a file removed since
        // the directory read fails it and is skipped.
        struct stat st;
        if (::fstatat(::dirfd(dir.get()), e->d_name, &st, 0) != 0 ||
            !S_ISREG(st.st_mode))
            continue;
        blobs.push_back({i64(st.st_mtim.tv_sec) * 1000000000 +
                             st.st_mtim.tv_nsec,
                         std::move(name), u64(st.st_size)});
    }
    std::sort(blobs.begin(), blobs.end(),
              [](const BlobFile &a, const BlobFile &b) {
                  return std::tie(a.lastUseNs, a.name) <
                         std::tie(b.lastUseNs, b.name);
              });
    return blobs;
}

} // namespace

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
}

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

CacheUsage
ArtifactCache::evictScan(u64 targetBytes,
                         const std::string &protect) const
{
    CacheUsage u;
    if (!enabled())
        return u;
    std::vector<BlobFile> blobs = scanBlobs(root);
    for (const BlobFile &b : blobs) {
        ++u.artifacts;
        u.residentBytes += b.size;
    }
    for (const BlobFile &b : blobs) {
        if (u.residentBytes <= targetBytes)
            break;
        if (b.name == protect)
            continue;
        std::error_code ec;
        bool removed = std::filesystem::remove(root + "/" + b.name, ec);
        if (ec)
            continue; // still resident
        // Not removed and no error: a racing evictor got there first.
        // The bytes are gone either way; only ours count as evictions.
        if (removed) {
            evictionsCounter().add();
            bytesEvictedCounter().add(b.size);
        }
        --u.artifacts;
        u.residentBytes -= b.size;
    }
    return u;
}

CacheUsage
ArtifactCache::evictToBytes(u64 targetBytes) const
{
    return evictScan(targetBytes, "");
}

CacheUsage
ArtifactCache::usage() const
{
    return evictScan(~u64(0), ""); // no directory exceeds this
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
    stampNow(p);
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
    stampNow(tmp);
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
    if (budget != 0)
        evictScan(budget,
                  std::filesystem::path(p).filename().string());
}

} // namespace splab
