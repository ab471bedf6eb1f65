/**
 * @file
 * Design-space explorer: the paper's Section IV-A methodology as a
 * reusable command-line tool.  Sweeps MaxK and slice size for any
 * suite benchmark and reports how far each sampling configuration
 * lands from the full run.
 *
 * Usage:
 *   design_space_explorer [benchmark] [maxk...]
 *   e.g. design_space_explorer 605.mcf_s 10 20 35
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/artifact_graph.hh"
#include "core/runs.hh"
#include "core/scale.hh"
#include "support/stats_util.hh"
#include "support/table.hh"

using namespace splab;

namespace
{

void
reportRow(TableWriter &t, const std::string &label,
          const AggregateCacheMetrics &m,
          const AggregateCacheMetrics &ref)
{
    double mixErr = 0.0;
    for (int c = 0; c < 4; ++c)
        mixErr = std::max(mixErr,
                          std::fabs(m.mixFrac[c] - ref.mixFrac[c]));
    t.row({label, fmtPct(m.mixFrac[0]), fmtPct(m.mixFrac[1]),
           fmtPct(m.l1dMissRate), fmtPct(m.l3MissRate),
           fmtPct(mixErr),
           fmtPct(relativeError(m.l3MissRate, ref.l3MissRate))});
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "623.xalancbmk_s";
    std::vector<u32> maxKs;
    for (int i = 2; i < argc; ++i)
        maxKs.push_back(static_cast<u32>(std::atoi(argv[i])));
    if (maxKs.empty())
        maxKs = {10, 15, 25, 35};

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    const BenchmarkSpec &spec = graph.spec(name);
    HierarchyConfig caches =
        scaleFarCaches(tableIConfig(), scale::kFarCacheDivisor);
    std::printf("exploring %s: %zu phases, %llu slices\n\n",
                name.c_str(), spec.phases.size(),
                static_cast<unsigned long long>(
                    spec.totalChunks / 10));

    CacheRunMetrics wholeRaw = measureWholeCache(spec, caches);
    AggregateCacheMetrics whole = wholeAsAggregate(wholeRaw);

    // Every swept selection comes from a graph at that operating
    // point over the shared cache, so it is stored under the same
    // key any other experiment at that SimPointConfig uses.
    auto simpointsAt = [&](const SimPointConfig &cfg) {
        return ArtifactGraph(
                   ExperimentConfig(graph.config()).withSimPoint(cfg),
                   graph.cacheHandle())
            .simpoints(name);
    };

    TableWriter t("sampling error vs full run - " + name);
    t.header({"Config", "NO_MEM", "MEM_R", "L1D miss", "L3 miss",
              "mix err", "L3 rel err"});
    reportRow(t, "full run", whole, whole);
    t.separator();

    for (u32 maxK : maxKs) {
        SimPointConfig cfg;
        cfg.maxK = maxK;
        SimPointResult sp = simpointsAt(cfg);
        auto agg = aggregateCache(
            measurePointsCache(spec, sp, caches, 0));
        reportRow(t,
                  "MaxK=" + std::to_string(maxK) + " (" +
                      std::to_string(sp.points.size()) + " pts)",
                  agg, whole);
    }
    t.separator();
    for (double sliceM : {15.0, 30.0, 100.0}) {
        SimPointConfig cfg;
        cfg.sliceInstrs = scale::sliceForPaperMillions(sliceM);
        SimPointResult sp = simpointsAt(cfg);
        auto agg = aggregateCache(
            measurePointsCache(spec, sp, caches, 0));
        reportRow(t,
                  "slice=" + fmt(sliceM, 0) + "M (" +
                      std::to_string(sp.points.size()) + " pts)",
                  agg, whole);
    }
    t.print();

    std::printf("\nReading the table: instruction-mix error should "
                "fall as MaxK rises; the\nL3 error falls as the "
                "slice grows (more accesses amortise the cold "
                "start).\n");
    return 0;
}
