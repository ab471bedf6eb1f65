/**
 * @file
 * Ablation of the SimPoint design choices DESIGN.md calls out:
 * random-projection dimensionality, BIC score fraction and the
 * overlap-merge threshold.  For each configuration we report the
 * suite-average number of simulation points, the 90th-percentile
 * count and the resulting instruction-mix error — quantifying how
 * much each mechanism contributes to the paper's operating point.
 *
 * (Not a paper figure; a design ablation of this reproduction.)
 */

#include "bench_util.hh"

using namespace splab;

namespace
{

struct AblationRow
{
    std::string label;
    double avgPoints = 0;
    double avgPoints90 = 0;
    double avgMixErr = 0;
};

AblationRow
evaluate(const std::string &label, const SimPointConfig &cfg,
         ArtifactGraph &baseline)
{
    ArtifactGraph swept(
        ExperimentConfig(baseline.config()).withSimPoint(cfg),
        baseline.cacheHandle());
    AblationRow row;
    row.label = label;
    double n = 0;
    // A representative spread of the suite keeps the ablation cheap.
    for (const char *name :
         {"505.mcf_r", "623.xalancbmk_s", "620.omnetpp_s",
          "503.bwaves_r", "511.povray_r", "519.lbm_r",
          "631.deepsjeng_s", "549.fotonik3d_r"}) {
        const BenchmarkSpec &spec = baseline.spec(name);
        const SimPointResult &r = swept.simpoints(name);
        row.avgPoints += static_cast<double>(r.points.size());
        row.avgPoints90 +=
            static_cast<double>(r.topByWeight(0.9).size());

        auto whole = wholeAsAggregate(baseline.wholeCache(name));
        auto agg = aggregateCache(measurePointsCache(
            spec, r, baseline.config().allcache, 0));
        double mixErr = 0;
        for (int c = 0; c < 4; ++c)
            mixErr = std::max(mixErr,
                              std::fabs(agg.mixFrac[c] -
                                        whole.mixFrac[c]));
        row.avgMixErr += mixErr;
        n += 1;
    }
    row.avgPoints /= n;
    row.avgPoints90 /= n;
    row.avgMixErr /= n;
    return row;
}

} // namespace

int
main(int, char **argv)
{
    bench::banner("SimPoint design-choice ablation",
                  "DESIGN.md section 5 (not a paper figure)");

    ArtifactGraph graph(ExperimentConfig::paperDefaults());
    graph.runSuite({"505.mcf_r", "623.xalancbmk_s", "620.omnetpp_s",
                    "503.bwaves_r", "511.povray_r", "519.lbm_r",
                    "631.deepsjeng_s", "549.fotonik3d_r"},
                   {ArtifactKind::WholeCache});
    TableWriter t("Ablation - 8-benchmark averages per config");
    t.header({"Config", "Points", "Points@90%", "Mix err"});
    CsvWriter csv;
    csv.header({"config", "avg_points", "avg_points90",
                "avg_mix_err"});

    std::vector<std::pair<std::string, SimPointConfig>> configs;
    {
        SimPointConfig base;
        configs.push_back({"baseline (dim15, bic0.9, merge0.6)",
                           base});
        SimPointConfig c = base;
        c.projectionDim = 5;
        configs.push_back({"projection dim 5", c});
        c = base;
        c.projectionDim = 30;
        configs.push_back({"projection dim 30", c});
        c = base;
        c.bicFraction = 0.7;
        configs.push_back({"BIC fraction 0.7", c});
        c = base;
        c.bicFraction = 1.0;
        configs.push_back({"BIC fraction 1.0 (max-BIC k)", c});
        c = base;
        c.mergeThreshold = 0.0;
        configs.push_back({"no overlap merge", c});
        c = base;
        c.sampleCap = 500;
        configs.push_back({"sample cap 500", c});
        c = base;
        c.restarts = 1;
        configs.push_back({"single k-means restart", c});
    }

    for (const auto &[label, cfg] : configs) {
        AblationRow row = evaluate(label, cfg, graph);
        t.row({row.label, fmt(row.avgPoints, 1),
               fmt(row.avgPoints90, 1), fmtPct(row.avgMixErr)});
        csv.row({row.label, fmt(row.avgPoints, 2),
                 fmt(row.avgPoints90, 2), fmt(row.avgMixErr, 6)});
    }
    t.print();

    std::printf("\nReading the table: too few projection dims or a "
                "low BIC fraction lose phases\n(points drop, mix "
                "error rises); disabling the overlap merge inflates "
                "the point\ncount by splitting dominant phases.\n");
    bench::saveCsv(csv, argv[0]);
    return 0;
}
