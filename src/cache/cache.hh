/**
 * @file
 * Functional set-associative cache model.
 *
 * This is the substrate behind the paper's `allcache` pintool
 * (functional I+D cache hierarchy simulator): it tracks hits and
 * misses, not timing.  The timing simulator reuses the same model
 * and adds latency on top.
 */

#ifndef SPLAB_CACHE_CACHE_HH
#define SPLAB_CACHE_CACHE_HH

#include <cstring>
#include <string>
#include <vector>

#include "support/types.hh"

namespace splab
{

/** Within-set victim selection policy. */
enum class ReplacementPolicy : u8
{
    LRU = 0,  ///< true LRU (move-to-front recency order)
    FIFO = 1, ///< insertion order; hits do not refresh
};

const char *replacementPolicyName(ReplacementPolicy p);

/** Geometry of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    u64 sizeBytes = 32 * 1024;
    u32 ways = 8;        ///< 1 = direct-mapped
    u32 lineBytes = 64;
    ReplacementPolicy replacement = ReplacementPolicy::LRU;

    u64 numSets() const { return sizeBytes / (static_cast<u64>(ways) * lineBytes); }

    /** Whether SetAssocCache accepts this geometry: ways >= 1 and a
     *  power-of-two line size and set count. */
    bool validGeometry() const;

    /**
     * Stable hash of *every* configuration field (geometry and
     * replacement policy alike).  Artifact-cache keys must use this
     * — never a hand-picked subset of fields — so that any config
     * change invalidates dependent cached artifacts.
     */
    u64 contentHash() const;
};

/** Hit/miss counters of one cache level. */
struct CacheStats
{
    u64 accesses = 0;
    u64 misses = 0;
    u64 readAccesses = 0;
    u64 readMisses = 0;
    u64 writeAccesses = 0;
    u64 writeMisses = 0;

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }

    CacheStats &operator+=(const CacheStats &o);
};

/**
 * One cache level with configurable replacement (true LRU or FIFO
 * insertion order within each set).  Write misses allocate.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheParams &params);

    /**
     * Look up (and on miss, allocate) the line containing @p addr.
     * @return true on hit.
     *
     * Inline fast paths, checked in order:
     *
     * 1. Same line as the previous access.  Every access leaves its
     *    line resident (hits keep it, misses allocate it), so a
     *    repeat is a guaranteed hit — and one that changes no
     *    replacement state under either policy (an LRU hit already
     *    moved the line to the front; FIFO hits never reorder).
     *    Counters only, no probe.
     * 2. Way-0 probe: way 0 holds the most recently used line under
     *    LRU and the newest insertion under FIFO, and a hit there
     *    changes no replacement state under either policy.
     *
     * The full way scan and reordering live out of line.
     */
    bool
    access(Addr addr, bool isWrite)
    {
        u64 line = addr >> lineShift;
        if (line == lastLine) {
            countAccess(isWrite, true);
            return true;
        }
        // accessSlow() allocates on miss, so the line is resident
        // once either branch below returns.
        lastLine = line;
        u64 set = line & setMask;
        u64 tag = line >> tagShift;
        std::size_t base = static_cast<std::size_t>(set) * ways;
        if (tags[base] == tag) {
            countAccess(isWrite, true);
            return true;
        }
        return accessSlow(base, set, tag, isWrite);
    }

    /**
     * Line number of the victim evicted by the most recent miss
     * (kNoLine when the filled way was empty).  Only meaningful
     * immediately after an access() or fillOnMiss() that missed;
     * hits leave it stale.  CacheHierarchy reads it to maintain its
     * absent-from-L1D memo.
     */
    u64 lastEvictedLine() const { return evicted; }

    /**
     * Allocate @p line as a counted miss *without probing the set* —
     * the caller guarantees the line is not resident (see
     * CacheHierarchy's absent-line memo).  State transition, counter
     * effect and victim choice are exactly those of a missing
     * access(); the evicted line is reported via lastEvictedLine().
     */
    void
    fillOnMiss(u64 line, bool isWrite)
    {
        lastLine = line;
        u64 set = line & setMask;
        u64 tag = line >> tagShift;
        u64 *t = &tags[static_cast<std::size_t>(set) * ways];
        u64 victim = t[ways - 1];
        evicted = victim == kNoLine ? kNoLine
                                    : (victim << tagShift) | set;
        std::memmove(t + 1, t, (ways - 1) * sizeof(u64));
        t[0] = tag;
        countAccess(isWrite, false);
    }

    /** Bytes-to-line shift, for callers that key on line numbers. */
    u32 lineBits() const { return lineShift; }

    /** Sentinel no real line number or tag reaches (both are
     *  addresses shifted right, so their top bits are always zero). */
    static constexpr u64 kNoLine = ~u64{0};

    /** When warming, state updates but counters do not. */
    void setWarmup(bool on) { warming = on; }
    bool warmup() const { return warming; }

    /** Invalidate all lines (cold restart); stats are kept. */
    void flush();

    /** Zero the counters; contents are kept. */
    void
    resetStats()
    {
        for (u64 &c : cnt)
            c = 0;
    }

    /** Counters, materialized from the internal 2x2 (write, hit)
     *  matrix (one increment per access on the hot path). */
    const CacheStats &
    statsRef() const
    {
        statsCache.readMisses = cnt[0];
        statsCache.readAccesses = cnt[0] + cnt[1];
        statsCache.writeMisses = cnt[2];
        statsCache.writeAccesses = cnt[2] + cnt[3];
        statsCache.misses = cnt[0] + cnt[2];
        statsCache.accesses = statsCache.readAccesses +
                              statsCache.writeAccesses;
        return statsCache;
    }
    const CacheParams &params() const { return cacheParams; }

  private:
    /** Probe ways [base+1, base+ways) and apply replacement; the
     *  way-0 hit case is handled inline by access(). */
    bool accessSlow(std::size_t base, u64 set, u64 tag,
                    bool isWrite);

    /** One branchless increment into the (write, hit) matrix; the
     *  public CacheStats shape is derived in statsRef(). */
    void
    countAccess(bool isWrite, bool hit)
    {
        if (warming)
            return;
        ++cnt[(static_cast<u32>(isWrite) << 1) |
              static_cast<u32>(hit)];
    }

    CacheParams cacheParams;
    u64 setMask;
    u32 lineShift;
    /** Right-shift turning a line number into a tag: log2(numSets),
     *  precomputed once (recomputing it per access costs a loop on
     *  the hottest path of the whole simulator). */
    u32 tagShift;
    u32 ways;

    /** Line number of the previous access; kNoLine after a flush.
     *  See access() fast path 1. */
    u64 lastLine;
    /** Victim line of the most recent miss; see lastEvictedLine(). */
    u64 evicted = kNoLine;

    /** tags[set * ways + i], most recently used first; empty ways
     *  hold kNoLine, so the probe is one equality scan with no
     *  separate validity array. */
    std::vector<u64> tags;

    /** cnt[write*2 + hit]: read-miss, read-hit, write-miss,
     *  write-hit. */
    u64 cnt[4] = {0, 0, 0, 0};
    /** Scratch for statsRef()'s materialized view. */
    mutable CacheStats statsCache;
    bool warming = false;
};

} // namespace splab

#endif // SPLAB_CACHE_CACHE_HH
