/**
 * @file
 * Unit tests for the native-hardware (perf) model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/runs.hh"
#include "core/scale.hh"
#include "perf/native.hh"
#include "pin/engine.hh"
#include "workload/synthetic.hh"

namespace splab
{
namespace
{

double
relErr(double a, double b)
{
    return b == 0.0 ? a : std::abs(a - b) / std::abs(b);
}

BenchmarkSpec
spec(u64 seed = 11, KernelKind kernel = KernelKind::ZipfHotCold)
{
    BenchmarkSpec s;
    s.name = "perf-test";
    s.seed = seed;
    s.totalChunks = 150;
    s.chunkLen = 1000;
    PhaseSpec a;
    a.weight = 1.0;
    a.kernel = kernel;
    a.workingSetBytes = 4 << 20;
    s.phases = {a};
    s.schedule = ScheduleKind::Contiguous;
    return s;
}

/** The whole-run timing view of @p s on Table III. */
TimingStats
wholeTiming(const BenchmarkSpec &s)
{
    return timingStats(measureWholeTiming(s, tableIIIMachine()));
}

TEST(Native, CountersArePopulated)
{
    BenchmarkSpec s = spec();
    PerfCounters c = NativeMachine().observe(wholeTiming(s),
                                             s.contentHash());
    EXPECT_EQ(c.instructions, 150000u);
    EXPECT_GT(c.cpuCycles, c.instructions / 4);
    EXPECT_GT(c.branches, 0u);
    EXPECT_LE(c.branchMisses, c.branches);
    EXPECT_LE(c.cacheMisses, c.cacheReferences);
    EXPECT_GT(c.cpi(), 0.25);
    EXPECT_LT(c.cpi(), 20.0);
}

TEST(Native, RepeatedRunsJitterSlightly)
{
    BenchmarkSpec s = spec();
    TimingStats t = wholeTiming(s);
    NativeMachine hw;
    PerfCounters a = hw.observe(t, s.contentHash(), 0);
    PerfCounters b = hw.observe(t, s.contentHash(), 1);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_NE(a.cpuCycles, b.cpuCycles); // non-determinism
    double rel = relErr(a.cpi(), b.cpi());
    EXPECT_LT(rel, 0.05);
}

TEST(Native, SameRunIndexIsReproducible)
{
    BenchmarkSpec s = spec();
    NativeMachine hw;
    EXPECT_EQ(hw.observe(wholeTiming(s), s.contentHash(), 3).cpuCycles,
              hw.observe(wholeTiming(s), s.contentHash(), 3).cpuCycles);
}

TEST(Native, BiasIsPerBenchmark)
{
    // Two different benchmarks get different systematic biases.
    BenchmarkSpec a = spec(1), b = spec(2);
    NativeMachine hw(0.05, 0.0);
    double cpiA = hw.observe(wholeTiming(a), a.contentHash()).cpi();
    double cpiB = hw.observe(wholeTiming(b), b.contentHash()).cpi();
    // Same workload shape, different seeds -> CPI ratio reflects
    // the bias draw (and stream differences); must not be exactly
    // equal.
    EXPECT_NE(cpiA, cpiB);

    // The bias alone, on one timing view, moves the cycles too.
    TimingStats t = wholeTiming(a);
    EXPECT_NE(hw.observe(t, a.contentHash()).cpuCycles,
              hw.observe(t, b.contentHash()).cpuCycles);
}

TEST(Native, ZeroNoiseMatchesTimingModel)
{
    BenchmarkSpec s = spec();
    TimingStats t = wholeTiming(s);
    NativeMachine clean(0.0, 0.0);
    PerfCounters c = clean.observe(t, s.contentHash());
    // With the hardware-effects model disabled, cycles equal the
    // timing model's output exactly (modulo u64 truncation).
    EXPECT_EQ(c.cpuCycles, static_cast<u64>(t.cycles));
    EXPECT_EQ(c.cpuCycles,
              NativeMachine(0.0, 0.0).observe(t, s.contentHash(), 5)
                  .cpuCycles);
}

/** Table III as is, with model-scale far caches, and with a smaller
 *  FIFO L3 — the machines the derived counters must hold on. */
std::vector<MachineConfig>
proofMachines()
{
    MachineConfig scaled = tableIIIMachine();
    scaled.caches =
        scaleFarCaches(scaled.caches, scale::kFarCacheDivisor);
    MachineConfig fifo = tableIIIMachine();
    fifo.caches.l3.replacement = ReplacementPolicy::FIFO;
    fifo.caches.l3.sizeBytes /= 4;
    return {tableIIIMachine(), scaled, fifo};
}

/** The Native artifact's counters: the noise model over the fused
 *  whole run's timing view. */
PerfCounters
fusedNative(const BenchmarkSpec &s, const MachineConfig &machine,
            const HierarchyConfig &allcache, u64 runIndex)
{
    FusedWholeResult r = measureWholeFused(s, allcache, machine);
    return NativeMachine().observe(timingStats(r.timing),
                                   s.contentHash(), runIndex);
}

/** The oracle: a dedicated timing-model traversal whose LLC counts
 *  are read from the timing hierarchy's own L3 statistics. */
PerfCounters
dedicatedNative(const BenchmarkSpec &s, const MachineConfig &machine,
                u64 runIndex)
{
    SyntheticWorkload wl(s);
    IntervalCoreTool core(machine);
    Engine engine;
    engine.attach(&core);
    engine.runWhole(wl);
    PerfCounters c =
        NativeMachine().observe(core.stats(), s.contentHash(), runIndex);
    const CacheStats &l3 = core.hierarchy().levelStats(CacheLevel::L3);
    c.cacheReferences = l3.accesses;
    c.cacheMisses = l3.misses;
    return c;
}

void
expectSameCounters(const PerfCounters &a, const PerfCounters &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cpuCycles, b.cpuCycles);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.branchMisses, b.branchMisses);
    EXPECT_EQ(a.cacheReferences, b.cacheReferences);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
}

TEST(Native, FusedTimingViewMatchesDedicatedPass)
{
    // Every counter of a dedicated native traversal is a function of
    // the fused pass's timing view: the four core counters map
    // across, and the LLC counters are the timing model's L3 hits
    // plus memory accesses.  The allcache hierarchy of the fused
    // pass is a separate copy, so it must not move them.
    HierarchyConfig allcache =
        scaleFarCaches(tableIConfig(), scale::kFarCacheDivisor);
    HierarchyConfig otherAllcache = allcache;
    otherAllcache.l3.replacement = ReplacementPolicy::FIFO;
    otherAllcache.l3.sizeBytes *= 2;
    for (const MachineConfig &machine : proofMachines())
        for (u8 k = 0; k < kNumKernelKinds; ++k) {
            BenchmarkSpec s = spec(11 + k, static_cast<KernelKind>(k));
            SCOPED_TRACE("kernel " +
                         kernelKindName(static_cast<KernelKind>(k)) +
                         ", L3 " +
                         std::to_string(machine.caches.l3.sizeBytes));
            PerfCounters dedicated = dedicatedNative(s, machine, 2);
            EXPECT_GT(dedicated.cacheReferences, 0u);
            expectSameCounters(fusedNative(s, machine, allcache, 2),
                               dedicated);
            expectSameCounters(
                fusedNative(s, machine, otherAllcache, 2), dedicated);
        }
}

} // namespace
} // namespace splab
