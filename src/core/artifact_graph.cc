#include "artifact_graph.hh"

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdio>

#include "artifact_backend.hh"
#include "obs/counters.hh"
#include "obs/trace.hh"
#include "pinball/logger.hh"
#include "pipeline.hh"
#include "sampling/strategies.hh"
#include "simpoint/projection.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "timing/branch_predictor.hh"
#include "workload/synthetic.hh"

namespace splab
{

namespace
{

// Artifact blobs are written as raw struct bytes (putVector / put),
// so the structs must be padding-free or cached blobs would embed
// uninitialized bytes and break byte-level reproducibility (see the
// SimPoint field-wise serializer for the one type that is not).
static_assert(sizeof(LevelCounts) == 16);
static_assert(sizeof(CacheRunMetrics) == 120);
static_assert(sizeof(TimingRunMetrics) == 64);
static_assert(sizeof(FusedWholeMetrics) == 184);
// The blob-sharing scheme (see sharedRanges below) depends on the
// fused struct being the exact byte-wise concatenation of its two
// views, with no padding between or after them.
static_assert(sizeof(FusedWholeMetrics) ==
              sizeof(CacheRunMetrics) + sizeof(TimingRunMetrics));
static_assert(offsetof(FusedWholeMetrics, timing) ==
              sizeof(CacheRunMetrics));
static_assert(sizeof(PointCacheMetrics) == 128);
static_assert(sizeof(PointTimingMetrics) == 72);
static_assert(sizeof(PerfCounters) == 48);

/** Static description of one artifact kind. */
struct KindInfo
{
    const char *name;     ///< cache-blob family + manifest key
    const char *spanName; ///< trace span around load/compute
    /** Version salt: bump the low digits when the producing
     *  algorithm or serialized layout of this kind changes. */
    u64 salt;
    bool persisted;
    /** Persisted as a *ref blob* over content-addressed shared
     *  sub-blobs instead of inline bytes (see ensure()). */
    bool shared;
    std::vector<ArtifactKind> deps;
};

const KindInfo &
kindInfo(ArtifactKind k)
{
    static const std::array<KindInfo, kNumArtifactKinds> table = {{
        {"spec", "graph.spec", 0x7370656300000001ULL, false, false,
         {}},
        {"bbvprofile", "graph.bbv_profile", 0x6262767000000001ULL,
         false, false, {ArtifactKind::Spec}},
        {"simpoints", "graph.simpoints", 0x73696d7000000001ULL,
         true, false, {ArtifactKind::BbvProfile}},
        // Strategy-selected regions.  Deps are {BbvProfile} even
        // though the simpoint strategy's compute routes through the
        // SimPoints node: the *value* is a pure function of the BBV
        // profile plus the active strategy's knobs, which enter the
        // key through the strategy-salted config slice
        // (SamplingConfig::activeHash).  The blob family is
        // per-strategy ("regions_smarts", ...) — see blobFamily().
        {"regions", "graph.regions", 0x7267696f00000001ULL, true,
         false, {ArtifactKind::BbvProfile}},
        // Persisted via shared sub-blobs: the fused value is the
        // byte-wise concatenation of the cache and timing views, and
        // the projection ref-blobs point at those same sub-blobs, so
        // persisting it costs one small ref blob — no double-stored
        // metric bytes — and a warm bench run skips the fused
        // traversal entirely.  Salt bumped (..01 -> ..02) when the
        // node became persisted/shared.
        {"wholefused", "graph.whole_fused", 0x7766757300000002ULL,
         true, true, {ArtifactKind::Spec}},
        // Salts bumped (..01 -> ..02) with the fused-traversal
        // rewrite so pre-fusion blobs are never mixed with
        // post-fusion ones, then (..02 -> ..03) when the persisted
        // layout changed from inline metric bytes to a shared-blob
        // ref.
        {"wholecache", "graph.whole_cache", 0x7763616300000003ULL,
         true, true, {ArtifactKind::Spec}},
        {"wholetiming", "graph.whole_timing", 0x7774696d00000003ULL,
         true, true, {ArtifactKind::Spec}},
        // Salt bumped (..01 -> ..02) when the capture moved from the
        // SimPoints selection to the strategy-generic Regions node
        // (regions gained lengths and warm-up prescriptions).
        {"regionalpinball", "graph.regional_pinball",
         0x7270696e00000002ULL, false, false,
         {ArtifactKind::Spec, ArtifactKind::Regions}},
        {"pointscold", "graph.points_cache_cold",
         0x70636f6c00000001ULL, true, false,
         {ArtifactKind::RegionalPinball}},
        {"pointswarm", "graph.points_cache_warm",
         0x7077726d00000001ULL, true, false,
         {ArtifactKind::RegionalPinball}},
        // Computed from WholeFused, but its deps and slice describe
        // the value: a pure function of the spec and the machine.
        {"native", "graph.native", 0x6e61746900000001ULL, true,
         false, {ArtifactKind::Spec}},
        {"pointstiming", "graph.points_timing",
         0x7074696d00000001ULL, true, false,
         {ArtifactKind::RegionalPinball}},
    }};
    return table[static_cast<u8>(k)];
}

/**
 * Cache-blob family (and manifest key prefix) of one kind.  Regions
 * qualifies by the active strategy ("regions_smarts", ...): each
 * strategy is its own cached node family, so per-strategy selections
 * coexist in one cache directory and the manifest says which
 * strategy produced each recorded key.
 */
std::string
blobFamily(ArtifactKind kind, const ExperimentConfig &cfg)
{
    std::string family = kindInfo(kind).name;
    if (kind == ArtifactKind::Regions) {
        family += '_';
        family += strategyName(cfg.sampling.strategy);
    }
    return family;
}

/**
 * Byte ranges of the shareable components of one serialized shared
 * artifact.  FusedWholeMetrics is serialized as raw struct bytes and
 * is (statically asserted) the padding-free concatenation of
 * CacheRunMetrics and TimingRunMetrics, so splitting it at the
 * member boundary yields exactly the projections' serialized bytes —
 * the fused node and both projections address the same two
 * sub-blobs.
 */
std::vector<std::pair<std::size_t, std::size_t>>
sharedRanges(ArtifactKind k, std::size_t totalSize)
{
    if (k == ArtifactKind::WholeFused) {
        SPLAB_ASSERT(totalSize == sizeof(FusedWholeMetrics),
                     "unexpected fused blob size ", totalSize);
        return {{0, sizeof(CacheRunMetrics)},
                {sizeof(CacheRunMetrics), sizeof(TimingRunMetrics)}};
    }
    return {{0, totalSize}};
}

} // namespace

const char *
artifactKindName(ArtifactKind k)
{
    return kindInfo(k).name;
}

const std::vector<ArtifactKind> &
artifactKindDeps(ArtifactKind k)
{
    return kindInfo(k).deps;
}

bool
artifactKindPersisted(ArtifactKind k)
{
    return kindInfo(k).persisted;
}

bool
artifactKindShared(ArtifactKind k)
{
    return kindInfo(k).shared;
}

u64
artifactKindSalt(ArtifactKind k)
{
    return kindInfo(k).salt;
}

void
serializeArtifact(ByteWriter &w, const ArtifactValue &v)
{
    struct Visitor
    {
        ByteWriter &w;

        void
        operator()(const BenchmarkSpec &s)
        {
            s.serialize(w);
        }
        void
        operator()(const std::vector<FrequencyVector> &bbvs)
        {
            w.put<u64>(bbvs.size());
            for (const FrequencyVector &fv : bbvs)
                w.putVector(fv.entries);
        }
        void
        operator()(const SimPointResult &r)
        {
            serializeSimPoints(w, r);
        }
        void
        operator()(const RegionSelection &s)
        {
            serializeRegions(w, s);
        }
        void
        operator()(const FusedWholeMetrics &m)
        {
            w.put(m);
        }
        void
        operator()(const CacheRunMetrics &m)
        {
            w.put(m);
        }
        void
        operator()(const Pinball &p)
        {
            p.serialize(w);
        }
        void
        operator()(const std::vector<PointCacheMetrics> &pts)
        {
            w.putVector(pts);
        }
        void
        operator()(const TimingRunMetrics &m)
        {
            w.put(m);
        }
        void
        operator()(const PerfCounters &c)
        {
            w.put(c);
        }
        void
        operator()(const std::vector<PointTimingMetrics> &pts)
        {
            w.putVector(pts);
        }
    };
    std::visit(Visitor{w}, v);
}

ArtifactValue
deserializeArtifact(ArtifactKind k, ByteReader &r)
{
    switch (k) {
      case ArtifactKind::Spec:
        return BenchmarkSpec::deserialize(r);
      case ArtifactKind::BbvProfile: {
        std::vector<FrequencyVector> bbvs(r.get<u64>());
        for (FrequencyVector &fv : bbvs)
            fv.entries = r.getVector<BbvEntry>();
        return bbvs;
      }
      case ArtifactKind::SimPoints:
        return deserializeSimPoints(r);
      case ArtifactKind::Regions:
        return deserializeRegions(r);
      case ArtifactKind::WholeFused:
        return r.get<FusedWholeMetrics>();
      case ArtifactKind::WholeCache:
        return r.get<CacheRunMetrics>();
      case ArtifactKind::WholeTiming:
        return r.get<TimingRunMetrics>();
      case ArtifactKind::RegionalPinball:
        return Pinball::deserialize(r);
      case ArtifactKind::PointsCacheCold:
      case ArtifactKind::PointsCacheWarm:
        return r.getVector<PointCacheMetrics>();
      case ArtifactKind::Native:
        return r.get<PerfCounters>();
      case ArtifactKind::PointsTiming:
        return r.getVector<PointTimingMetrics>();
    }
    SPLAB_FATAL("unknown artifact kind ",
                static_cast<int>(static_cast<u8>(k)));
}

u64
ExperimentConfig::contentHash() const
{
    ByteWriter w;
    w.put<u64>(simpoint.contentHash());
    w.put<u8>(static_cast<u8>(sampling.strategy));
    w.put<u64>(sampling.smarts.contentHash());
    w.put<u64>(sampling.stratified.contentHash());
    w.put<u64>(sampling.rankedSet.contentHash());
    w.put<u64>(sampling.random.contentHash());
    w.put<u64>(sampling.stride.contentHash());
    w.put<u64>(allcache.contentHash());
    w.put<u64>(machine.contentHash());
    w.put<u64>(warmupChunks);
    w.put<double>(cost.wholeRate);
    w.put<double>(cost.regionalRate);
    w.put<double>(cost.pinballStartup);
    w.put<double>(cost.loggerSlowdown);
    w.put<double>(cost.nativeRate);
    return hashBytes(w.bytes().data(), w.bytes().size());
}

void
ExperimentConfig::describe(obs::RunManifest &m) const
{
    m.setConfig("simpoint.max_k", simpoint.maxK);
    m.setConfig("simpoint.slice_instrs", u64{simpoint.sliceInstrs});
    m.setConfig("simpoint.projection_dim", simpoint.projectionDim);
    m.setConfig("simpoint.bic_fraction", simpoint.bicFraction);
    m.setConfig("simpoint.restarts", simpoint.restarts);
    m.setConfig("simpoint.max_iters", simpoint.maxIters);
    m.setConfig("simpoint.sample_cap", simpoint.sampleCap);
    m.setConfig("simpoint.merge_threshold", simpoint.mergeThreshold);
    m.setConfig("simpoint.seed", simpoint.seed);
    // The active strategy records "sampling.strategy" plus its own
    // "sampling.<strategy>.<knob>" keys.
    makeStrategy(sampling, simpoint)->describe(m);
    m.setConfig("warmup_chunks", warmupChunks);
    auto level = [&](const char *name, const CacheParams &p) {
        std::string base = std::string("allcache.") + name;
        m.setConfig(base + ".size_bytes", p.sizeBytes);
        m.setConfig(base + ".ways", p.ways);
        m.setConfig(base + ".line_bytes", p.lineBytes);
        m.setConfig(base + ".replacement",
                    replacementPolicyName(p.replacement));
    };
    level("l1i", allcache.l1i);
    level("l1d", allcache.l1d);
    level("l2", allcache.l2);
    level("l3", allcache.l3);
    m.setConfig("machine.model", machine.model);
    auto hashHex = [](u64 h) {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%016llx",
                      static_cast<unsigned long long>(h));
        return std::string(hex);
    };
    m.setConfig("machine.content_hash",
                hashHex(machine.contentHash()));
    m.setConfig("experiment.content_hash", hashHex(contentHash()));
}

namespace
{

/** Wire-format version of ExperimentConfig::serialize. */
constexpr u32 kConfigWireVersion = 1;

/// @name Defensive wire readers (false on truncation, never fatal)
/// @{
template <typename T>
bool
rdGet(ByteReader &r, T &out)
{
    if (r.remaining() < sizeof(T))
        return false;
    out = r.get<T>();
    return true;
}

bool
rdString(ByteReader &r, std::string &out)
{
    u32 n = 0;
    if (!rdGet(r, n) || r.remaining() < n)
        return false;
    std::vector<u8> raw = r.getRaw(n);
    out.assign(raw.begin(), raw.end());
    return true;
}
/// @}

void
wrString(ByteWriter &w, const std::string &s)
{
    w.put<u32>(static_cast<u32>(s.size()));
    w.putRaw(reinterpret_cast<const u8 *>(s.data()), s.size());
}

void
wrCacheParams(ByteWriter &w, const CacheParams &p)
{
    wrString(w, p.name);
    w.put<u64>(p.sizeBytes);
    w.put<u32>(p.ways);
    w.put<u32>(p.lineBytes);
    w.put<u8>(static_cast<u8>(p.replacement));
}

bool
rdCacheParams(ByteReader &r, CacheParams &p)
{
    u8 replacement = 0;
    if (!rdString(r, p.name) || !rdGet(r, p.sizeBytes) ||
        !rdGet(r, p.ways) || !rdGet(r, p.lineBytes) ||
        !rdGet(r, replacement) || replacement > 1)
        return false;
    p.replacement = static_cast<ReplacementPolicy>(replacement);
    return true;
}

/**
 * Whether every field the compute path guards with SPLAB_ASSERT is
 * in range.  A config from the wire that fails this would abort the
 * process serving it (every client of a splabd daemon), so
 * deserialize() rejects it instead.
 */
bool
computable(const ExperimentConfig &c)
{
    const SimPointConfig &sp = c.simpoint;
    if (sp.maxK < 1 || sp.sliceInstrs == 0 ||
        sp.sliceInstrs % scale::kChunkInstrs != 0 ||
        sp.projectionDim < 1 || sp.projectionDim > kMaxProjectionDims ||
        sp.restarts < 1)
        return false;
    if (c.sampling.random.n < 1 || c.sampling.stride.n < 1)
        return false;
    if (c.machine.predictorHistoryBits < kMinHistoryBits ||
        c.machine.predictorHistoryBits > kMaxHistoryBits)
        return false;
    for (const HierarchyConfig *h : {&c.allcache, &c.machine.caches})
        for (const CacheParams *p : {&h->l1i, &h->l1d, &h->l2, &h->l3})
            if (!p->validGeometry())
                return false;
    return true;
}

} // namespace

void
ExperimentConfig::serialize(ByteWriter &w) const
{
    w.put<u32>(kConfigWireVersion);

    w.put<u32>(simpoint.maxK);
    w.put<u64>(u64{simpoint.sliceInstrs});
    w.put<u32>(simpoint.projectionDim);
    w.put<double>(simpoint.bicFraction);
    w.put<i32>(static_cast<i32>(simpoint.restarts));
    w.put<i32>(static_cast<i32>(simpoint.maxIters));
    w.put<u32>(simpoint.sampleCap);
    w.put<double>(simpoint.mergeThreshold);
    w.put<u64>(simpoint.seed);

    w.put<u8>(static_cast<u8>(sampling.strategy));
    w.put<u64>(sampling.smarts.k);
    w.put<u64>(sampling.smarts.munit);
    w.put<u64>(sampling.smarts.wunit);
    w.put<u8>(sampling.smarts.allwarm ? 1 : 0);
    w.put<u32>(sampling.stratified.strata);
    w.put<u32>(sampling.stratified.budget);
    w.put<u32>(sampling.stratified.pilotStride);
    w.put<u64>(sampling.stratified.seed);
    w.put<u32>(sampling.rankedSet.setSize);
    w.put<u32>(sampling.rankedSet.cycles);
    w.put<u32>(sampling.rankedSet.subsamples);
    w.put<u64>(sampling.rankedSet.seed);
    w.put<u32>(sampling.random.n);
    w.put<u64>(sampling.random.seed);
    w.put<u32>(sampling.stride.n);

    wrCacheParams(w, allcache.l1i);
    wrCacheParams(w, allcache.l1d);
    wrCacheParams(w, allcache.l2);
    wrCacheParams(w, allcache.l3);

    wrString(w, machine.model);
    w.put<double>(machine.frequencyGHz);
    w.put<u32>(machine.dispatchWidth);
    w.put<u32>(machine.robEntries);
    w.put<u32>(machine.branchMispredictPenalty);
    w.put<u32>(machine.l1LatencyCycles);
    w.put<u32>(machine.l2LatencyCycles);
    w.put<u32>(machine.l3LatencyCycles);
    w.put<u32>(machine.memLatencyCycles);
    w.put<u32>(machine.predictorHistoryBits);
    wrCacheParams(w, machine.caches.l1i);
    wrCacheParams(w, machine.caches.l1d);
    wrCacheParams(w, machine.caches.l2);
    wrCacheParams(w, machine.caches.l3);

    w.put<u64>(warmupChunks);
    w.put<double>(cost.wholeRate);
    w.put<double>(cost.regionalRate);
    w.put<double>(cost.pinballStartup);
    w.put<double>(cost.loggerSlowdown);
    w.put<double>(cost.nativeRate);
}

bool
ExperimentConfig::deserialize(ByteReader &r, ExperimentConfig &out)
{
    u32 version = 0;
    if (!rdGet(r, version) || version != kConfigWireVersion)
        return false;

    u64 sliceInstrs = 0;
    i32 restarts = 0, maxIters = 0;
    if (!rdGet(r, out.simpoint.maxK) || !rdGet(r, sliceInstrs) ||
        !rdGet(r, out.simpoint.projectionDim) ||
        !rdGet(r, out.simpoint.bicFraction) ||
        !rdGet(r, restarts) || !rdGet(r, maxIters) ||
        !rdGet(r, out.simpoint.sampleCap) ||
        !rdGet(r, out.simpoint.mergeThreshold) ||
        !rdGet(r, out.simpoint.seed))
        return false;
    out.simpoint.sliceInstrs = sliceInstrs;
    out.simpoint.restarts = restarts;
    out.simpoint.maxIters = maxIters;

    u8 strategy = 0, allwarm = 0;
    if (!rdGet(r, strategy) || strategy >= kNumStrategies ||
        !rdGet(r, out.sampling.smarts.k) ||
        !rdGet(r, out.sampling.smarts.munit) ||
        !rdGet(r, out.sampling.smarts.wunit) || !rdGet(r, allwarm))
        return false;
    out.sampling.strategy = static_cast<StrategyKind>(strategy);
    out.sampling.smarts.allwarm = allwarm != 0;
    if (!rdGet(r, out.sampling.stratified.strata) ||
        !rdGet(r, out.sampling.stratified.budget) ||
        !rdGet(r, out.sampling.stratified.pilotStride) ||
        !rdGet(r, out.sampling.stratified.seed) ||
        !rdGet(r, out.sampling.rankedSet.setSize) ||
        !rdGet(r, out.sampling.rankedSet.cycles) ||
        !rdGet(r, out.sampling.rankedSet.subsamples) ||
        !rdGet(r, out.sampling.rankedSet.seed) ||
        !rdGet(r, out.sampling.random.n) ||
        !rdGet(r, out.sampling.random.seed) ||
        !rdGet(r, out.sampling.stride.n))
        return false;

    if (!rdCacheParams(r, out.allcache.l1i) ||
        !rdCacheParams(r, out.allcache.l1d) ||
        !rdCacheParams(r, out.allcache.l2) ||
        !rdCacheParams(r, out.allcache.l3))
        return false;

    if (!rdString(r, out.machine.model) ||
        !rdGet(r, out.machine.frequencyGHz) ||
        !rdGet(r, out.machine.dispatchWidth) ||
        !rdGet(r, out.machine.robEntries) ||
        !rdGet(r, out.machine.branchMispredictPenalty) ||
        !rdGet(r, out.machine.l1LatencyCycles) ||
        !rdGet(r, out.machine.l2LatencyCycles) ||
        !rdGet(r, out.machine.l3LatencyCycles) ||
        !rdGet(r, out.machine.memLatencyCycles) ||
        !rdGet(r, out.machine.predictorHistoryBits) ||
        !rdCacheParams(r, out.machine.caches.l1i) ||
        !rdCacheParams(r, out.machine.caches.l1d) ||
        !rdCacheParams(r, out.machine.caches.l2) ||
        !rdCacheParams(r, out.machine.caches.l3))
        return false;

    if (!rdGet(r, out.warmupChunks) ||
        !rdGet(r, out.cost.wholeRate) ||
        !rdGet(r, out.cost.regionalRate) ||
        !rdGet(r, out.cost.pinballStartup) ||
        !rdGet(r, out.cost.loggerSlowdown) ||
        !rdGet(r, out.cost.nativeRate))
        return false;
    return r.atEnd() && computable(out);
}

/** Single-flight state of one (benchmark, kind) node. */
struct ArtifactGraph::Node
{
    std::mutex mtx;
    std::condition_variable cv;
    enum State : u8
    {
        Empty,   ///< never requested
        Busy,    ///< one thread is loading/computing
        Ready,   ///< value valid; immutable from here on
    } state = Empty;
    ArtifactValue value;
};

ArtifactGraph::ArtifactGraph(ExperimentConfig cfg)
    : ArtifactGraph(std::move(cfg),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache::fromEnv()))
{
}

ArtifactGraph::ArtifactGraph(
    ExperimentConfig cfg, std::shared_ptr<const ArtifactCache> cache)
    : ArtifactGraph(std::move(cfg), std::move(cache), nullptr)
{
}

ArtifactGraph::ArtifactGraph(
    ExperimentConfig cfg, std::shared_ptr<const ArtifactCache> cache,
    std::unique_ptr<ArtifactBackend> backend)
    : cfg(std::move(cfg)), cache(std::move(cache)),
      backend(std::move(backend))
{
    SPLAB_ASSERT(this->cache != nullptr,
                 "artifact graph needs a cache instance (may be "
                 "disabled, not null)");
    // Default backend from the environment: a service client when
    // SPLAB_SERVICE names a daemon socket, local otherwise.
    if (!this->backend)
        this->backend = makeBackend(this->cache, this->cfg);
}

ArtifactGraph::~ArtifactGraph() = default;

ArtifactGraph::Node &
ArtifactGraph::nodeFor(const std::string &name, ArtifactKind kind)
{
    std::lock_guard<std::mutex> g(registryMtx);
    auto &slot = nodes[{name, static_cast<u8>(kind)}];
    if (!slot)
        slot = std::make_unique<Node>();
    return *slot;
}

u64
ArtifactGraph::configSliceHash(ArtifactKind kind) const
{
    switch (kind) {
      case ArtifactKind::Spec:
        return 0; // the spec's own content hash is the key
      case ArtifactKind::BbvProfile:
        return hashCombine(0, u64{cfg.simpoint.sliceInstrs});
      case ArtifactKind::SimPoints:
        return cfg.simpoint.contentHash();
      case ArtifactKind::Regions:
        // Strategy-salted slice over exactly the active strategy's
        // knobs: switching strategies or turning an *active* knob
        // moves the key; an inactive strategy's knob never does.
        return cfg.sampling.activeHash(cfg.simpoint);
      case ArtifactKind::WholeFused:
        // The fused value carries both views, so its key covers
        // both config surfaces.
        return hashCombine(cfg.allcache.contentHash(),
                           cfg.machine.contentHash());
      case ArtifactKind::RegionalPinball:
        // Pure function of (spec, simpoints); no config of its own.
        return 0;
      case ArtifactKind::WholeCache:
      case ArtifactKind::PointsCacheCold:
        return cfg.allcache.contentHash();
      case ArtifactKind::PointsCacheWarm:
        return hashCombine(cfg.allcache.contentHash(),
                           cfg.warmupChunks);
      case ArtifactKind::WholeTiming:
      case ArtifactKind::Native:
        return cfg.machine.contentHash();
      case ArtifactKind::PointsTiming:
        return hashCombine(cfg.machine.contentHash(),
                           cfg.warmupChunks);
    }
    SPLAB_FATAL("unknown artifact kind ",
                static_cast<int>(static_cast<u8>(kind)));
}

u64
ArtifactGraph::artifactKey(const std::string &name,
                           ArtifactKind kind)
{
    if (kind == ArtifactKind::Spec)
        return hashCombine(artifactKindSalt(kind),
                           spec(name).contentHash());
    u64 k = hashCombine(artifactKindSalt(kind),
                        configSliceHash(kind));
    for (ArtifactKind d : artifactKindDeps(kind))
        k = hashCombine(k, artifactKey(name, d));
    return k;
}

ArtifactValue
ArtifactGraph::computeValue(const std::string &name,
                            ArtifactKind kind)
{
    switch (kind) {
      case ArtifactKind::Spec:
        return benchmarkByName(name);
      case ArtifactKind::BbvProfile:
        return profileBbvs(spec(name), cfg.simpoint.sliceInstrs);
      case ArtifactKind::SimPoints:
        SPLAB_VERBOSE("simpoint selection: ", name);
        return SimpointStrategy(cfg.simpoint).pick(bbvProfile(name));
      case ArtifactKind::Regions: {
        SPLAB_VERBOSE("region selection (",
                      strategyName(cfg.sampling.strategy),
                      "): ", name);
        if (cfg.sampling.strategy == StrategyKind::Simpoint) {
            // Route through the cached SimPoints node instead of
            // re-clustering; the value is the same pure function of
            // the BBV profile either way (projection-node rule).
            RegionSelection sel =
                regionsFromSimPoints(simpoints(name));
            accountSelection(StrategyKind::Simpoint, sel);
            return sel;
        }
        const std::vector<FrequencyVector> &bbvs = bbvProfile(name);
        StrategyInputs in{&bbvs, bbvs.size(),
                          cfg.simpoint.sliceInstrs};
        return makeStrategy(cfg.sampling, cfg.simpoint)->select(in);
      }
      case ArtifactKind::WholeFused: {
        SPLAB_INFORM("fused whole-run simulation: ", name);
        FusedWholeResult r =
            measureWholeFused(spec(name), cfg.allcache, cfg.machine);
        return FusedWholeMetrics{r.cache, r.timing};
      }
      case ArtifactKind::WholeCache:
        return wholeFused(name).cache;
      case ArtifactKind::WholeTiming:
        return wholeFused(name).timing;
      case ArtifactKind::RegionalPinball: {
        SPLAB_VERBOSE("regional pinball capture: ", name);
        SyntheticWorkload wl(spec(name));
        Pinball whole = Logger::captureWhole(wl);
        return Logger::makeRegional(whole, regions(name));
      }
      case ArtifactKind::PointsCacheCold:
        SPLAB_INFORM("regional cache replays (cold): ", name);
        return measurePointsCache(regionalPinball(name),
                                  cfg.allcache, 0);
      case ArtifactKind::PointsCacheWarm:
        SPLAB_INFORM("regional cache replays (warmup): ", name);
        return measurePointsCache(regionalPinball(name),
                                  cfg.allcache, cfg.warmupChunks);
      case ArtifactKind::Native:
        // The noise model over the fused timing view; reading the
        // fused node (not wholeTiming) adds no node to compute.
        return NativeMachine().observe(
            timingStats(wholeFused(name).timing),
            spec(name).contentHash());
      case ArtifactKind::PointsTiming:
        SPLAB_INFORM("regional timing replays: ", name);
        return measurePointsTiming(regionalPinball(name),
                                   cfg.machine, cfg.warmupChunks);
    }
    SPLAB_FATAL("unknown artifact kind ",
                static_cast<int>(static_cast<u8>(kind)));
}

const ArtifactValue &
ArtifactGraph::ensure(const std::string &name, ArtifactKind kind)
{
    static obs::Counter &hits =
        obs::counter("graph.cache_hits",
                     "artifact nodes served from the disk cache");
    static obs::Counter &computed =
        obs::counter("graph.nodes_computed",
                     "artifact nodes computed fresh");

    Node &n = nodeFor(name, kind);
    std::unique_lock<std::mutex> lock(n.mtx);
    if (n.state == Node::Ready)
        return n.value;
    if (n.state == Node::Busy) {
        // Single-flight: another thread owns the computation; wait
        // for its result instead of duplicating the work.
        n.cv.wait(lock, [&] { return n.state == Node::Ready; });
        return n.value;
    }
    n.state = Node::Busy;
    lock.unlock();

    const KindInfo &info = kindInfo(kind);
    ArtifactValue v;
    try {
        obs::TraceSpan span(info.spanName);
        bool loaded = false;
        ArtifactRequest req{name, kind, blobFamily(kind, cfg), 0,
                            info.shared};
        // The backend seam (artifact_backend.hh) decides *where*
        // persisted bytes come from: the local ArtifactCache
        // (including shared-sub-blob assembly) or a splabd daemon
        // with local fallback.  Either way fetch yields exactly the
        // serializeArtifact payload, so the value round-trips
        // identically.
        if (info.persisted && backend->active()) {
            req.key = artifactKey(name, kind);
            std::vector<u8> bytes;
            if (backend->fetch(req, bytes)) {
                ByteReader r(std::move(bytes));
                v = deserializeArtifact(kind, r);
                loaded = true;
                hits.add();
            }
        }
        if (!loaded) {
            v = computeValue(name, kind);
            computed.add();
            if (info.persisted && backend->active()) {
                ByteWriter w;
                serializeArtifact(w, v);
                backend->publish(
                    req, w.bytes(),
                    info.shared
                        ? sharedRanges(kind, w.bytes().size())
                        : std::vector<
                              std::pair<std::size_t,
                                        std::size_t>>{});
            }
        }
    } catch (...) {
        // Re-open the node so a later request can retry, and wake
        // current waiters into the retry path.
        lock.lock();
        n.state = Node::Empty;
        n.cv.notify_all();
        throw;
    }

    lock.lock();
    n.value = std::move(v);
    n.state = Node::Ready;
    n.cv.notify_all();
    return n.value;
}

std::vector<u8>
ArtifactGraph::ensureSerialized(const std::string &name,
                                ArtifactKind kind)
{
    const ArtifactValue &v = ensure(name, kind);
    ByteWriter w;
    serializeArtifact(w, v);
    return w.bytes();
}

const BenchmarkSpec &
ArtifactGraph::spec(const std::string &name)
{
    return std::get<BenchmarkSpec>(ensure(name, ArtifactKind::Spec));
}

const std::vector<FrequencyVector> &
ArtifactGraph::bbvProfile(const std::string &name)
{
    return std::get<std::vector<FrequencyVector>>(
        ensure(name, ArtifactKind::BbvProfile));
}

const SimPointResult &
ArtifactGraph::simpoints(const std::string &name)
{
    return std::get<SimPointResult>(
        ensure(name, ArtifactKind::SimPoints));
}

const RegionSelection &
ArtifactGraph::regions(const std::string &name)
{
    return std::get<RegionSelection>(
        ensure(name, ArtifactKind::Regions));
}

const FusedWholeMetrics &
ArtifactGraph::wholeFused(const std::string &name)
{
    return std::get<FusedWholeMetrics>(
        ensure(name, ArtifactKind::WholeFused));
}

const CacheRunMetrics &
ArtifactGraph::wholeCache(const std::string &name)
{
    return std::get<CacheRunMetrics>(
        ensure(name, ArtifactKind::WholeCache));
}

const Pinball &
ArtifactGraph::regionalPinball(const std::string &name)
{
    return std::get<Pinball>(
        ensure(name, ArtifactKind::RegionalPinball));
}

const std::vector<PointCacheMetrics> &
ArtifactGraph::pointsCacheCold(const std::string &name)
{
    return std::get<std::vector<PointCacheMetrics>>(
        ensure(name, ArtifactKind::PointsCacheCold));
}

const std::vector<PointCacheMetrics> &
ArtifactGraph::pointsCacheWarm(const std::string &name)
{
    return std::get<std::vector<PointCacheMetrics>>(
        ensure(name, ArtifactKind::PointsCacheWarm));
}

const TimingRunMetrics &
ArtifactGraph::wholeTiming(const std::string &name)
{
    return std::get<TimingRunMetrics>(
        ensure(name, ArtifactKind::WholeTiming));
}

const PerfCounters &
ArtifactGraph::native(const std::string &name)
{
    return std::get<PerfCounters>(
        ensure(name, ArtifactKind::Native));
}

const std::vector<PointTimingMetrics> &
ArtifactGraph::pointsTiming(const std::string &name)
{
    return std::get<std::vector<PointTimingMetrics>>(
        ensure(name, ArtifactKind::PointsTiming));
}

void
ArtifactGraph::runSuite(const std::vector<std::string> &benchmarks,
                        const std::vector<ArtifactKind> &targets)
{
    obs::TraceSpan span("graph.run_suite");

    std::array<bool, kNumArtifactKinds> wanted{};
    for (ArtifactKind t : targets)
        wanted[static_cast<u8>(t)] = true;

    // Only the requested targets fan out as tasks; dependencies
    // resolve lazily inside ensure(), so a disk-cached downstream
    // artifact never forces an upstream recompute.  Kind-major task
    // order (kinds are declared in topological order) keeps
    // concurrently claimed tasks on *different* benchmarks, which
    // minimizes single-flight collisions, and lets a benchmark's
    // dependents start the moment its own upstreams exist — no
    // stage barriers anywhere.
    std::vector<std::pair<std::size_t, ArtifactKind>> tasks;
    for (std::size_t k = 0; k < kNumArtifactKinds; ++k)
        if (wanted[k])
            for (std::size_t b = 0; b < benchmarks.size(); ++b)
                tasks.emplace_back(b, static_cast<ArtifactKind>(k));

    static obs::Counter &scheduled =
        obs::counter("graph.tasks_scheduled",
                     "suite tasks fanned out by runSuite");
    scheduled.add(tasks.size());

    parallelFor(tasks.size(), [&](std::size_t i) {
        ensure(benchmarks[tasks[i].first], tasks[i].second);
    });
}

void
ArtifactGraph::recordArtifacts(
    obs::RunManifest &m, const std::vector<std::string> &benchmarks,
    const std::vector<ArtifactKind> &targets)
{
    std::array<bool, kNumArtifactKinds> inClosure{};
    // The kinds enum is in topological order, so one reverse pass
    // suffices to close over transitive dependencies.
    for (ArtifactKind t : targets)
        inClosure[static_cast<u8>(t)] = true;
    for (std::size_t k = kNumArtifactKinds; k-- > 0;)
        if (inClosure[k])
            for (ArtifactKind d :
                 artifactKindDeps(static_cast<ArtifactKind>(k)))
                inClosure[static_cast<u8>(d)] = true;

    for (const std::string &b : benchmarks)
        for (std::size_t k = 0; k < kNumArtifactKinds; ++k)
            if (inClosure[k]) {
                ArtifactKind kind = static_cast<ArtifactKind>(k);
                m.addArtifact(blobFamily(kind, cfg) + "/" + b,
                              artifactKey(b, kind));
            }
}

} // namespace splab
