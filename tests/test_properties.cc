/**
 * @file
 * Property-style parameterized sweeps over the library's invariants:
 * replay determinism, weight conservation, chunk exactness and
 * clustering sanity across a grid of configurations.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/pipeline.hh"
#include "pin/engine.hh"
#include "pin/tools/bbv_tool.hh"
#include "pin/tools/inscount.hh"
#include "pinball/logger.hh"
#include "workload/suite.hh"
#include "workload/synthetic.hh"

namespace splab
{
namespace
{

BenchmarkSpec
paramSpec(u64 seed, u32 nPhases, ScheduleKind sched, ICount chunkLen)
{
    BenchmarkSpec s;
    s.name = "prop-" + std::to_string(seed);
    s.seed = seed;
    s.chunkLen = chunkLen;
    s.totalChunks = 400;
    Rng rng(seed, 0x9999ULL);
    for (u32 p = 0; p < nPhases; ++p) {
        PhaseSpec ph;
        ph.name = "p" + std::to_string(p);
        ph.weight = rng.uniform(0.5, 2.0);
        ph.kernel = static_cast<KernelKind>(
            rng.below(kNumKernelKinds));
        ph.workingSetBytes = 64 * 1024ULL
                             << rng.below(8); // 64K..8M
        ph.numBlocks = 6 + static_cast<u32>(rng.below(20));
        ph.avgBlockLen = 40 + static_cast<u32>(rng.below(100));
        s.phases.push_back(ph);
    }
    s.schedule = sched;
    s.dwellChunks = 30;
    return s;
}

// ---------------------------------------------------------------
// Replay determinism across seeds / schedules / chunk lengths.

class ReplayProperty
    : public testing::TestWithParam<
          std::tuple<u64, ScheduleKind, ICount>>
{
};

TEST_P(ReplayProperty, AnyWindowReplaysBitIdentically)
{
    auto [seed, sched, chunkLen] = GetParam();
    BenchmarkSpec spec = paramSpec(seed, 3, sched, chunkLen);
    SyntheticWorkload wl(spec);

    Rng rng(seed, 0xabcULL);
    for (int trial = 0; trial < 4; ++trial) {
        u64 first = rng.below(spec.totalChunks - 10);
        u64 n = 1 + rng.below(10);
        u64 a = Logger::streamChecksum(wl, first, n);
        u64 b = Logger::streamChecksum(wl, first, n);
        EXPECT_EQ(a, b);
        // Disjoint or offset windows must differ.
        u64 c = Logger::streamChecksum(wl, first + 1 < spec.totalChunks - n
                                               ? first + 1
                                               : first - 1,
                                       n);
        EXPECT_NE(a, c);
    }
}

TEST_P(ReplayProperty, InstructionCountsAreExact)
{
    auto [seed, sched, chunkLen] = GetParam();
    BenchmarkSpec spec = paramSpec(seed, 3, sched, chunkLen);
    SyntheticWorkload wl(spec);
    InsCountTool count;
    Engine engine;
    engine.attach(&count);
    engine.run(wl, 7, 31);
    EXPECT_EQ(count.instructions(), 31 * chunkLen);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReplayProperty,
    testing::Combine(
        testing::Values<u64>(1, 17, 9001),
        testing::Values(ScheduleKind::Contiguous,
                        ScheduleKind::Interleaved,
                        ScheduleKind::Markov),
        testing::Values<ICount>(500, 1000, 2000)));

// ---------------------------------------------------------------
// SimPoint weight conservation across phase counts.

class WeightProperty : public testing::TestWithParam<u32>
{
};

TEST_P(WeightProperty, SelectionConservesWeightAndCoverage)
{
    u32 nPhases = GetParam();
    BenchmarkSpec spec =
        paramSpec(nPhases * 131, nPhases, ScheduleKind::Markov, 1000);
    spec.totalChunks = 3000;
    SimPointConfig cfg;
    cfg.maxK = nPhases + 6;
    SimPointResult r =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);

    EXPECT_NEAR(r.totalWeight(), 1.0, 1e-9);
    u64 totalPop = 0;
    for (const auto &p : r.points) {
        EXPECT_LT(p.slice, r.totalSlices);
        totalPop += p.clusterSize;
    }
    EXPECT_EQ(totalPop, r.totalSlices);
    // 90th percentile needs no more points than the full set.
    auto reduced = r.topByWeight(0.9);
    EXPECT_LE(reduced.size(), r.points.size());
    double cum = 0.0;
    for (const auto &p : reduced)
        cum += p.weight;
    EXPECT_GE(cum, 0.9 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PhaseCounts, WeightProperty,
                         testing::Values(1u, 2u, 4u, 8u, 12u));

// ---------------------------------------------------------------
// BBV slicing: slice count follows slice length.

class SliceProperty : public testing::TestWithParam<ICount>
{
};

TEST_P(SliceProperty, SliceCountMatchesLength)
{
    ICount sliceLen = GetParam();
    BenchmarkSpec spec =
        paramSpec(5, 2, ScheduleKind::Interleaved, 1000);
    spec.totalChunks = 320;
    SyntheticWorkload wl(spec);
    BbvTool bbv(sliceLen);
    Engine engine;
    engine.attach(&bbv);
    engine.runWhole(wl);
    EXPECT_EQ(bbv.vectors().size(),
              spec.totalInstrs() / sliceLen);
    for (const auto &v : bbv.vectors())
        EXPECT_NEAR(v.l1Norm(), static_cast<double>(sliceLen),
                    1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    SliceLengths, SliceProperty,
    testing::Values<ICount>(1000, 2000, 4000, 8000, 16000, 32000));

// ---------------------------------------------------------------
// Suite-wide structural invariants (one instance per benchmark).

class SuiteProperty : public testing::TestWithParam<const char *>
{
};

TEST_P(SuiteProperty, PhaseWeightsAndGeometry)
{
    BenchmarkSpec spec = benchmarkByName(GetParam());
    double sum = 0.0;
    for (const auto &p : spec.phases) {
        EXPECT_GT(p.weight, 0.0);
        EXPECT_GE(p.workingSetBytes, 4096u);
        EXPECT_GE(p.numBlocks, 1u);
        sum += p.weight;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_EQ(spec.totalChunks % 10, 0u); // whole default slices
}

TEST_P(SuiteProperty, ScheduleTouchesEveryDesignedPhase)
{
    BenchmarkSpec spec = benchmarkByName(GetParam());
    SyntheticWorkload wl(spec);
    auto w = wl.schedule().realizedWeights();
    // Every phase must actually appear in the schedule, or Table II
    // reproduction is impossible by construction.
    std::size_t present = 0;
    for (double x : w)
        present += x > 0.0;
    EXPECT_EQ(present, spec.phases.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteProperty,
    testing::Values("500.perlbench_r", "502.gcc_r", "505.mcf_r",
                    "520.omnetpp_r", "525.x264_r", "531.deepsjeng_r",
                    "541.leela_r", "548.exchange2_r", "557.xz_r",
                    "600.perlbench_s", "602.gcc_s", "605.mcf_s",
                    "620.omnetpp_s", "623.xalancbmk_s", "625.x264_s",
                    "631.deepsjeng_s", "641.leela_s",
                    "648.exchange2_s", "657.xz_s", "503.bwaves_r",
                    "507.cactuBSSN_r", "508.namd_r", "510.parest_r",
                    "511.povray_r", "519.lbm_r", "526.blender_r",
                    "538.imagick_r", "544.nab_r", "549.fotonik3d_r"));

} // namespace
} // namespace splab
