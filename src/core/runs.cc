#include "runs.hh"

#include <chrono>

#include "obs/counters.hh"
#include "obs/trace.hh"
#include "pin/engine.hh"
#include "pin/tools/allcache.hh"
#include "pin/tools/branch_profile.hh"
#include "pin/tools/ldstmix.hh"
#include "pin/tools/bbv_tool.hh"
#include "pinball/logger.hh"
#include "pinball/replayer.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "timing/interval_core.hh"

namespace splab
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(dt).count();
}

CacheRunMetrics
harvestCache(const AllCacheTool &cache, const LdStMixTool &mix,
             const BranchProfileTool &branches, ICount instrs,
             double wallSeconds)
{
    CacheRunMetrics m;
    m.instrs = instrs;
    m.mixFrac = mix.mix().fractions();
    auto fill = [](LevelCounts &dst, const CacheStats &src) {
        dst.accesses = src.accesses;
        dst.misses = src.misses;
    };
    const CacheHierarchy &h = cache.hierarchy();
    fill(m.l1i, h.levelStats(CacheLevel::L1I));
    fill(m.l1d, h.levelStats(CacheLevel::L1D));
    fill(m.l2, h.levelStats(CacheLevel::L2));
    fill(m.l3, h.levelStats(CacheLevel::L3));
    m.branches = branches.branchCount();
    m.wallSeconds = wallSeconds;
    return m;
}

/** The one field list shared by TimingStats and TimingRunMetrics. */
template <typename Dst, typename Src>
Dst
copyTimingCounters(const Src &s)
{
    Dst d;
    d.instrs = s.instrs;
    d.cycles = s.cycles;
    d.branches = s.branches;
    d.mispredicts = s.mispredicts;
    d.l2Hits = s.l2Hits;
    d.l3Hits = s.l3Hits;
    d.memAccesses = s.memAccesses;
    return d;
}

TimingRunMetrics
harvestTiming(const IntervalCoreTool &core, double wallSeconds)
{
    auto m = copyTimingCounters<TimingRunMetrics>(core.stats());
    m.wallSeconds = wallSeconds;
    return m;
}

} // namespace

TimingStats
timingStats(const TimingRunMetrics &m)
{
    return copyTimingCounters<TimingStats>(m);
}

CacheRunMetrics
measureWholeCache(const BenchmarkSpec &spec,
                  const HierarchyConfig &caches)
{
    obs::TraceSpan span("runs.whole_cache");
    auto t0 = std::chrono::steady_clock::now();
    SyntheticWorkload wl(spec);
    AllCacheTool cache(caches);
    LdStMixTool mix;
    BranchProfileTool branches;
    Engine engine;
    engine.attach(&cache);
    engine.attach(&mix);
    engine.attach(&branches);
    ICount instrs = engine.runWhole(wl);
    return harvestCache(cache, mix, branches, instrs,
                        secondsSince(t0));
}

FusedWholeResult
measureWholeFused(const BenchmarkSpec &spec,
                  const HierarchyConfig &caches,
                  const MachineConfig &machine, ICount bbvSliceInstrs)
{
    obs::TraceSpan span("runs.whole_fused");
    auto t0 = std::chrono::steady_clock::now();
    SyntheticWorkload wl(spec);
    AllCacheTool cache(caches);
    LdStMixTool mix;
    BranchProfileTool branches;
    IntervalCoreTool core(machine);
    std::unique_ptr<BbvTool> bbv;
    Engine engine;
    engine.attach(&cache);
    engine.attach(&mix);
    engine.attach(&branches);
    engine.attach(&core);
    if (bbvSliceInstrs > 0) {
        bbv = std::make_unique<BbvTool>(bbvSliceInstrs);
        engine.attach(bbv.get());
    }
    ICount instrs = engine.runWhole(wl);

    double wall = secondsSince(t0);
    FusedWholeResult r;
    r.cache = harvestCache(cache, mix, branches, instrs, wall);
    r.timing = harvestTiming(core, wall);
    if (bbv)
        r.bbvs = bbv->vectors();
    return r;
}

std::vector<PointCacheMetrics>
measurePointsCache(const BenchmarkSpec &spec,
                   const SimPointResult &simpoints,
                   const HierarchyConfig &caches, u64 warmupChunks)
{
    SyntheticWorkload wl(spec);
    Pinball whole = Logger::captureWhole(wl);
    Pinball regional = Logger::makeRegional(whole, simpoints);
    return measurePointsCache(regional, caches, warmupChunks);
}

std::vector<PointCacheMetrics>
measurePointsCache(const Pinball &regional,
                   const HierarchyConfig &caches, u64 warmupChunks)
{
    obs::TraceSpan span("runs.points_cache");

    // Each regional pinball replays in a fresh process: cold caches
    // unless explicitly warmed.  Replays are mutually independent,
    // so they fan out across the pool — every task owns its
    // replayer, workload and tool stack, and results land in
    // index-addressed slots.
    std::vector<PointCacheMetrics> out(regional.regions().size());
    static obs::Counter &points =
        obs::counter("runs.points_replayed",
                     "simulation points replayed (cache + timing)");
    parallelFor(regional.regions().size(), [&](std::size_t i) {
        obs::TraceSpan pointSpan("runs.replay_point");
        points.add();
        auto tp = std::chrono::steady_clock::now();
        Replayer replayer(regional);
        AllCacheTool cache(caches);
        LdStMixTool mix;
        BranchProfileTool branches;
        Engine engine;

        // A strategy's per-region warm-up prescription (e.g. SMARTS
        // wunit/allwarm) overrides the experiment-wide parameter —
        // but only for warm runs: warmupChunks == 0 stays truly cold.
        u64 regionWarmup = regional.regions()[i].warmupChunks;
        u64 warm = warmupChunks > 0 && regionWarmup > 0
                       ? regionWarmup
                       : warmupChunks;
        if (warm > 0) {
            cache.setWarmup(true);
            engine.attach(&cache);
            replayer.replayWarmup(i, warm, engine);
            cache.setWarmup(false);
            engine.clearTools();
        }

        engine.attach(&cache);
        engine.attach(&mix);
        engine.attach(&branches);
        ICount instrs = replayer.replayRegion(i, engine);

        PointCacheMetrics pm;
        pm.weight = regional.regions()[i].weight;
        pm.m = harvestCache(cache, mix, branches, instrs,
                            secondsSince(tp));
        out[i] = pm;
    });
    return out;
}

TimingRunMetrics
measureWholeTiming(const BenchmarkSpec &spec,
                   const MachineConfig &machine)
{
    obs::TraceSpan span("runs.whole_timing");
    auto t0 = std::chrono::steady_clock::now();
    SyntheticWorkload wl(spec);
    IntervalCoreTool core(machine);
    Engine engine;
    engine.attach(&core);
    engine.runWhole(wl);
    return harvestTiming(core, secondsSince(t0));
}

std::vector<PointTimingMetrics>
measurePointsTiming(const BenchmarkSpec &spec,
                    const SimPointResult &simpoints,
                    const MachineConfig &machine, u64 warmupChunks)
{
    SyntheticWorkload wl(spec);
    Pinball whole = Logger::captureWhole(wl);
    Pinball regional = Logger::makeRegional(whole, simpoints);
    return measurePointsTiming(regional, machine, warmupChunks);
}

std::vector<PointTimingMetrics>
measurePointsTiming(const Pinball &regional,
                    const MachineConfig &machine, u64 warmupChunks)
{
    obs::TraceSpan span("runs.points_timing");

    // Cold core per point; see measurePointsCache for the
    // parallel-replay invariants.
    std::vector<PointTimingMetrics> out(regional.regions().size());
    static obs::Counter &points =
        obs::counter("runs.points_replayed",
                     "simulation points replayed (cache + timing)");
    parallelFor(regional.regions().size(), [&](std::size_t i) {
        obs::TraceSpan pointSpan("runs.replay_point");
        points.add();
        auto tp = std::chrono::steady_clock::now();
        Replayer replayer(regional);
        IntervalCoreTool core(machine);
        Engine engine;
        engine.attach(&core);

        // Same per-region override as measurePointsCache.
        u64 regionWarmup = regional.regions()[i].warmupChunks;
        u64 warm = warmupChunks > 0 && regionWarmup > 0
                       ? regionWarmup
                       : warmupChunks;
        if (warm > 0) {
            core.setWarmup(true);
            replayer.replayWarmup(i, warm, engine);
            core.setWarmup(false);
        }

        replayer.replayRegion(i, engine);

        PointTimingMetrics pm;
        pm.weight = regional.regions()[i].weight;
        pm.m = harvestTiming(core, secondsSince(tp));
        out[i] = pm;
    });
    return out;
}

} // namespace splab
