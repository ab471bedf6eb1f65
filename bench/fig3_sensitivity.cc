/**
 * @file
 * Figure 3: sensitivity of SimPoint accuracy to MaxK and slice size,
 * for 623.xalancbmk_s.
 *
 * (a) MaxK in {15, 20, 25, 30, 35} at a 30M-equivalent slice;
 * (b) slice in {15, 25, 30, 50, 100}M-equivalent at MaxK = 35.
 *
 * Metrics (vs the full run): ldstmix instruction distribution and
 * allcache miss rates for the Table I hierarchy.  Paper findings:
 * small MaxK distorts the instruction distribution; small slices
 * inflate miss rates of the far caches (cold-cache effect), larger
 * slices pull L3 miss rates back toward the full run.
 */

#include "bench_util.hh"
#include "core/scale.hh"

using namespace splab;

namespace
{

struct ConfigRow
{
    std::string label;
    AggregateCacheMetrics agg;
};

ConfigRow
runConfig(const BenchmarkSpec &spec, u32 maxK, double sliceM,
          const HierarchyConfig &caches, ArtifactGraph &graph)
{
    SimPointConfig cfg;
    cfg.maxK = maxK;
    cfg.sliceInstrs = scale::sliceForPaperMillions(sliceM);
    // Same graph shape at the swept operating point, over the
    // shared cache: the selection lands under the Merkle key every
    // other graph at this SimPointConfig uses.
    ArtifactGraph swept(
        ExperimentConfig(graph.config()).withSimPoint(cfg),
        graph.cacheHandle());
    const SimPointResult &sp = swept.simpoints(spec.name);
    auto points = measurePointsCache(spec, sp, caches, 0);
    ConfigRow row;
    row.label = "MaxK=" + std::to_string(maxK) + ", slice=" +
                fmt(sliceM, 0) + "M";
    row.agg = aggregateCache(points);
    return row;
}

void
emit(TableWriter &t, CsvWriter &csv, const std::string &label,
     const AggregateCacheMetrics &m)
{
    t.row({label, fmtPct(m.mixFrac[0]), fmtPct(m.mixFrac[1]),
           fmtPct(m.mixFrac[2]), fmtPct(m.mixFrac[3]),
           fmtPct(m.l1dMissRate), fmtPct(m.l2MissRate),
           fmtPct(m.l3MissRate)});
    csv.row({label, fmt(m.mixFrac[0], 6), fmt(m.mixFrac[1], 6),
             fmt(m.mixFrac[2], 6), fmt(m.mixFrac[3], 6),
             fmt(m.l1dMissRate, 6), fmt(m.l2MissRate, 6),
             fmt(m.l3MissRate, 6)});
}

} // namespace

int
main(int, char **argv)
{
    bench::banner("MaxK and slice-size sensitivity (xalancbmk_s)",
                  "Figure 3(a) and 3(b)");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    const std::string name = "623.xalancbmk_s";
    const BenchmarkSpec &spec = graph.spec(name);
    const HierarchyConfig caches = tableIConfig();

    AggregateCacheMetrics whole =
        wholeAsAggregate(graph.wholeCache(name));

    CsvWriter csv;
    csv.header({"config", "no_mem", "mem_r", "mem_w", "mem_rw",
                "l1d_miss", "l2_miss", "l3_miss"});

    TableWriter ta("Fig 3(a) - varying MaxK (slice = 30M-eq)");
    ta.header({"Config", "NO_MEM", "MEM_R", "MEM_W", "MEM_RW",
               "L1D miss", "L2 miss", "L3 miss"});
    emit(ta, csv, "Full Run", whole);
    ta.separator();
    for (u32 maxK : scale::kMaxKSweep) {
        ConfigRow row =
            runConfig(spec, maxK, scale::kChosenSliceM, caches,
                      graph);
        emit(ta, csv, row.label, row.agg);
    }
    ta.print();

    TableWriter tb("Fig 3(b) - varying slice size (MaxK = 35)");
    tb.header({"Config", "NO_MEM", "MEM_R", "MEM_W", "MEM_RW",
               "L1D miss", "L2 miss", "L3 miss"});
    emit(tb, csv, "Full Run", whole);
    tb.separator();
    for (double sliceM : scale::kPaperSliceSweepM) {
        ConfigRow row =
            runConfig(spec, scale::kChosenMaxK, sliceM, caches,
                      graph);
        emit(tb, csv, row.label, row.agg);
    }
    tb.print();

    std::printf("\nExpected shape: instruction-mix errors shrink as "
                "MaxK grows; L3 miss-rate\nerror shrinks as the "
                "slice grows (cold-cache effect fades).\n");
    bench::saveCsv(csv, argv[0]);
    return 0;
}
