/**
 * @file
 * The paper's cautionary tale, reproduced as a runnable experiment:
 * exploring a memory hierarchy with SimPoints and *no* cache
 * warm-up can invert design conclusions.
 *
 * We compare two candidate L3 designs (8 MiB vs 16 MiB) three ways:
 *   - ground truth: full-run simulation,
 *   - naive sampling: cold-start regional replays,
 *   - careful sampling: regional replays with warm-up.
 * The interesting output is the *relative benefit* of the bigger L3
 * under each methodology.
 *
 * Usage: cache_warmup_study [benchmark]
 */

#include <cstdio>

#include "core/artifact_graph.hh"
#include "core/scale.hh"
#include "core/runs.hh"
#include "support/table.hh"

using namespace splab;

namespace
{

HierarchyConfig
withL3(u64 megabytes)
{
    HierarchyConfig cfg = tableIConfig();
    cfg.l3.sizeBytes = megabytes << 20;
    // Model scale: far-cache capacities track the slice length.
    return scaleFarCaches(cfg, scale::kFarCacheDivisor);
}

struct Study
{
    double whole;
    double cold;
    double warm;
};

Study
l3MissRates(const BenchmarkSpec &spec, const SimPointResult &sp,
            const HierarchyConfig &caches, u64 warmupChunks)
{
    Study s{};
    s.whole = measureWholeCache(spec, caches).l3.missRate();
    s.cold = aggregateCache(
                 measurePointsCache(spec, sp, caches, 0))
                 .l3MissRate;
    s.warm = aggregateCache(
                 measurePointsCache(spec, sp, caches, warmupChunks))
                 .l3MissRate;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "505.mcf_r";
    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    const BenchmarkSpec &spec = graph.spec(name);
    const SimPointResult &sp = graph.simpoints(name);
    std::printf("%s: %zu simulation points\n\n", name.c_str(),
                sp.points.size());

    constexpr u64 kWarmupChunks = 120; // ~ paper's 500M cycles
    Study small = l3MissRates(spec, sp, withL3(8), kWarmupChunks);
    Study big = l3MissRates(spec, sp, withL3(16), kWarmupChunks);

    TableWriter t("L3 miss rate under three methodologies - " + name);
    t.header({"Methodology", "8 MiB L3", "16 MiB L3",
              "benefit of 16 MiB"});
    auto benefit = [](double a, double b) {
        return a > 0.0 ? (a - b) / a : 0.0;
    };
    t.row({"full run (ground truth)", fmtPct(small.whole),
           fmtPct(big.whole), fmtPct(benefit(small.whole, big.whole))});
    t.row({"SimPoints, cold (naive)", fmtPct(small.cold),
           fmtPct(big.cold), fmtPct(benefit(small.cold, big.cold))});
    t.row({"SimPoints + warm-up", fmtPct(small.warm),
           fmtPct(big.warm), fmtPct(benefit(small.warm, big.warm))});
    t.print();

    double truth = benefit(small.whole, big.whole);
    double naive = benefit(small.cold, big.cold);
    double careful = benefit(small.warm, big.warm);
    std::printf("\nGround-truth benefit of doubling the L3: %.1f%%\n"
                "Naive cold sampling estimates:          %.1f%%\n"
                "Warmed sampling estimates:              %.1f%%\n\n",
                truth * 100, naive * 100, careful * 100);
    std::printf("The paper's warning (Section IV-D): without "
                "warm-up, cold-start misses\ndilute the difference "
                "between hierarchy designs, and size/latency "
                "trade-offs\nevaluated this way can pick the wrong "
                "design.\n");
    return 0;
}
