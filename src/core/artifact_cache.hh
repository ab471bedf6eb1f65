/**
 * @file
 * On-disk artifact cache.
 *
 * Bench binaries share expensive intermediates (SimPoint selections,
 * whole-run cache simulations, timing runs) across processes through
 * checksummed blobs keyed by content hashes.  Set SPLAB_CACHE="" to
 * disable, or point it at a directory of your choice.
 *
 * Lookups return a typed CacheOutcome so callers (and the obs
 * counters) can distinguish a genuine miss from a corrupt blob or a
 * disabled cache.  A directory that exists but cannot be written is
 * detected up front, warned about once, and degrades the cache to
 * disabled instead of silently failing every store.
 *
 * Cache hygiene (the part that matters at fleet scale):
 *
 *  - Every blob is published through a unique temp file and an
 *    atomic rename, so a reader (or a concurrent writer of the same
 *    key, in this process or another) never sees a torn blob.  A
 *    load reads the file once and verifies the bytes it returns.
 *  - The directory is the only record of what the cache holds; no
 *    index is kept beside it.  A blob's mtime is its last-use
 *    stamp: store and every hit set it to the current time.
 *    usage() and eviction each scan the directory once.  Any file
 *    there except unpublished temporaries and dot-files counts as
 *    a blob, so leftovers of older layouts are ordinary evictable
 *    files.
 *  - When SPLAB_CACHE_MAX_BYTES (or the maxBytes constructor
 *    argument) is non-zero, each store is followed by one scan that
 *    evicts least-recently-used blobs (ordered by mtime, then name),
 *    never the blob just stored, until the budget holds.  With no
 *    budget nothing is ever reclaimed; evictToBytes (`splabd
 *    --evict`) or deleting the directory does that.
 *  - Hit/miss/eviction/byte counters ("artifact_cache.*") register
 *    eagerly at construction so every run manifest carries the full
 *    family even when a count is zero.
 */

#ifndef SPLAB_CORE_ARTIFACT_CACHE_HH
#define SPLAB_CORE_ARTIFACT_CACHE_HH

#include <optional>
#include <string>

#include "support/serialize.hh"

namespace splab
{

/** What a cache lookup found. */
enum class CacheStatus
{
    Hit,      ///< blob present and checksum-valid
    Miss,     ///< no blob under this key
    Corrupt,  ///< blob present but truncated or checksum-invalid
    Disabled, ///< cache off (SPLAB_CACHE empty or dir unusable)
};

/** Stable lower-case name ("hit", "miss", ...). */
const char *cacheStatusName(CacheStatus s);

/** Result of ArtifactCache::load: a status plus the blob on a hit. */
struct CacheOutcome
{
    CacheStatus status = CacheStatus::Disabled;
    std::optional<ByteReader> blob;

    bool hit() const { return status == CacheStatus::Hit; }
    explicit operator bool() const { return hit(); }
    ByteReader &operator*() { return *blob; }
    ByteReader *operator->() { return &*blob; }
};

/** Occupancy from one directory scan (advisory: other processes
 *  may store or evict while it runs). */
struct CacheUsage
{
    u64 artifacts = 0;     ///< published blob files
    u64 residentBytes = 0; ///< their total file bytes
};

/** Content-addressed blob store under one directory. */
class ArtifactCache
{
  public:
    /**
     * @param dir cache directory; empty disables the cache.
     * @param maxBytes eviction budget; 0 = unbounded.
     */
    explicit ArtifactCache(std::string dir, u64 maxBytes = 0);

    /** Cache honouring $SPLAB_CACHE and $SPLAB_CACHE_MAX_BYTES. */
    static ArtifactCache fromEnv();

    bool enabled() const { return !root.empty(); }

    /** Eviction budget in bytes (0 = unbounded). */
    u64 maxBytes() const { return budget; }

    /** Cache directory ("" when disabled). */
    const std::string &dir() const { return root; }

    /**
     * Look up a blob.
     * @param kind artifact family, e.g. "simpoints"
     * @param key  content hash of everything the artifact depends on
     */
    CacheOutcome load(const std::string &kind, u64 key) const;

    /** Store a blob (no-op when disabled), replacing any previous
     *  blob under the same key atomically. */
    void store(const std::string &kind, u64 key,
               const ByteWriter &blob) const;

    /** Occupancy of the directory (one scan). */
    CacheUsage usage() const;

    /**
     * Evict least-recently-used artifacts until the resident bytes
     * fit @p targetBytes, regardless of the construction-time
     * budget; 0 evicts everything evictable.  This is the admin hook
     * behind `splabd --evict`.
     * @return post-eviction occupancy.
     */
    CacheUsage evictToBytes(u64 targetBytes) const;

    /**
     * Version salt mixed into every key; bump when serialized
     * layouts or producing algorithms change.
     */
    static constexpr u64 kVersionSalt = 0x53504c41422d7634ULL;

  private:
    std::string path(const std::string &kind, u64 key) const;

    /** One scan: evict LRU blobs (sparing the file named
     *  @p protect) until the resident bytes fit @p targetBytes.
     *  @return occupancy after eviction. */
    CacheUsage evictScan(u64 targetBytes,
                         const std::string &protect) const;

    std::string root;
    u64 budget = 0;
};

} // namespace splab

#endif // SPLAB_CORE_ARTIFACT_CACHE_HH
