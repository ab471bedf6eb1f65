#include "cache.hh"

#include <cstring>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/serialize.hh"

namespace splab
{

const char *
replacementPolicyName(ReplacementPolicy p)
{
    switch (p) {
      case ReplacementPolicy::LRU:
        return "lru";
      case ReplacementPolicy::FIFO:
        return "fifo";
    }
    return "unknown";
}

u64
CacheParams::contentHash() const
{
    ByteWriter w;
    w.putString(name);
    w.put<u64>(sizeBytes);
    w.put<u32>(ways);
    w.put<u32>(lineBytes);
    w.put<u8>(static_cast<u8>(replacement));
    return hashBytes(w.bytes().data(), w.bytes().size());
}

CacheStats &
CacheStats::operator+=(const CacheStats &o)
{
    accesses += o.accesses;
    misses += o.misses;
    readAccesses += o.readAccesses;
    readMisses += o.readMisses;
    writeAccesses += o.writeAccesses;
    writeMisses += o.writeMisses;
    return *this;
}

namespace
{

bool
isPow2(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

u32
log2u(u64 v)
{
    u32 n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

} // namespace

bool
CacheParams::validGeometry() const
{
    return ways >= 1 && isPow2(lineBytes) && isPow2(numSets());
}

SetAssocCache::SetAssocCache(const CacheParams &params)
    : cacheParams(params), ways(params.ways), lastLine(kNoLine)
{
    SPLAB_ASSERT(params.ways >= 1, params.name, ": ways must be >= 1");
    SPLAB_ASSERT(isPow2(params.lineBytes),
                 params.name, ": line size must be a power of two");
    u64 sets = params.numSets();
    SPLAB_ASSERT(sets >= 1 && isPow2(sets),
                 params.name, ": set count ", sets,
                 " must be a nonzero power of two");
    setMask = sets - 1;
    lineShift = log2u(params.lineBytes);
    tagShift = log2u(sets);
    tags.assign(sets * ways, kNoLine);
}

bool
SetAssocCache::accessSlow(std::size_t base, u64 set, u64 tag,
                          bool isWrite)
{
    u64 *t = &tags[base];

    // Way 0 was already probed (and missed) by the inline fast path.
    // Empty ways hold kNoLine, which no real tag equals, so the scan
    // needs no validity checks.
    bool hit = false;
    u32 pos = 0;
    for (u32 i = 1; i < ways; ++i) {
        if (t[i] == tag) {
            hit = true;
            pos = i;
            break;
        }
    }

    if (hit) {
        // LRU refreshes recency by moving the line to the front;
        // FIFO keeps insertion order, so a hit changes nothing.
        if (cacheParams.replacement == ReplacementPolicy::LRU) {
            std::memmove(t + 1, t, pos * sizeof(u64));
            t[0] = tag;
        }
    } else {
        // Both policies fill at the front and evict the last slot:
        // under LRU that is the least recently used line, under FIFO
        // the oldest insertion.
        u64 victim = t[ways - 1];
        evicted = victim == kNoLine ? kNoLine
                                    : (victim << tagShift) | set;
        std::memmove(t + 1, t, (ways - 1) * sizeof(u64));
        t[0] = tag;
    }

    countAccess(isWrite, hit);
    return hit;
}

void
SetAssocCache::flush()
{
    tags.assign(tags.size(), kNoLine);
    lastLine = kNoLine; // the memoized line is no longer resident
    evicted = kNoLine;
}

} // namespace splab
