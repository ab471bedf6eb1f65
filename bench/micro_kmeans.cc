/**
 * @file
 * Clustering microbench: the triangle-inequality-accelerated k-means
 * (DistanceKernel::Pruned, Hamerly-style bounds in the Lloyd
 * iterations plus half-distance pruning in the fixed-centroid scans)
 * against the brute-force nearest-centroid path
 * (DistanceKernel::BruteForce), on the paper-default BIC k-sweep over
 * real per-benchmark BBV profiles.
 *
 * Always runs in check mode: every comparison byte-compares the
 * serialized SimPointResult (assignments, centroid doubles, sweep
 * diagnostics) of both paths and the bench exits nonzero on any
 * mismatch — the acceleration contract is exact equality, not
 * approximation.  Wall times and the pruned-distance fraction go to
 * the paper-style tables, "<binary>.csv" and a "BENCH_kmeans.json"
 * baseline for perf tracking.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/pipeline.hh"
#include "core/runs.hh"
#include "obs/counters.hh"
#include "simpoint/simpoint.hh"
#include "support/env.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "workload/suite.hh"

namespace splab
{
namespace
{

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Deltas of the kmeans.* distance-kernel counters across @p fn. */
struct KernelWork
{
    u64 computed = 0;
    u64 pruned = 0;
    u64 fallbacks = 0;

    void
    merge(const KernelWork &o)
    {
        computed += o.computed;
        pruned += o.pruned;
        fallbacks += o.fallbacks;
    }
};

KernelWork
kernelWork(const std::function<void()> &fn)
{
    obs::Counter &c = obs::counter("kmeans.distances_computed");
    obs::Counter &p = obs::counter("kmeans.distances_pruned");
    obs::Counter &f = obs::counter("kmeans.bound_fallbacks");
    u64 c0 = c.value(), p0 = p.value(), f0 = f.value();
    fn();
    return {c.value() - c0, p.value() - p0, f.value() - f0};
}

std::vector<u8>
simpointBytes(const SimPointResult &r)
{
    ByteWriter w;
    serializeSimPoints(w, r);
    return w.bytes();
}

} // namespace
} // namespace splab

int
main(int, char **argv)
{
    using namespace splab;

    // A reduced scale keeps the brute-force leg tolerable; override
    // to measure at full size.
    setenv("SPLAB_SCALE", "0.1", 0);
    const ExperimentConfig cfg = ExperimentConfig::paperDefaults();
    const auto benches = suiteNames();
    bool identical = true;

    bench::banner("k-means: triangle-inequality pruning",
                  "BIC k-sweep (k = 1.." +
                      std::to_string(cfg.simpoint.maxK) +
                      ") vs brute-force nearest-centroid scans");

    CsvWriter csv;
    csv.header({"section", "bench", "slices", "brute_sec",
                "accel_sec", "speedup", "pruned_frac", "identical"});

    // ---- Part 1: full SimPoint selection, both paths ----
    // The paper's whole methodology per benchmark: sub-sampled BIC
    // k-sweep, restarts, merge pass, whole-run slice assignment.
    double bruteSec = 0.0, accelSec = 0.0;
    KernelWork bruteWork, accelWork;
    u64 totalSlices = 0;
    for (const std::string &name : benches) {
        BenchmarkSpec spec = benchmarkByName(name);
        auto bbvs = profileBbvs(spec, cfg.simpoint.sliceInstrs);
        totalSlices += bbvs.size();

        SimPointResult brute, accel;
        KernelWork bw;
        double bs = wallSeconds([&] {
            bw = kernelWork([&] {
                brute = pickSimPoints(bbvs, cfg.simpoint,
                                      DistanceKernel::BruteForce);
            });
        });
        KernelWork aw;
        double as = wallSeconds([&] {
            aw = kernelWork(
                [&] { accel = pickSimPoints(bbvs, cfg.simpoint); });
        });

        bool same = simpointBytes(brute) == simpointBytes(accel);
        if (!same)
            std::printf("[FAIL] accel selection != brute on %s\n",
                        name.c_str());
        identical = identical && same;
        bruteSec += bs;
        accelSec += as;
        bruteWork.merge(bw);
        accelWork.merge(aw);
        double frac =
            aw.computed + aw.pruned > 0
                ? static_cast<double>(aw.pruned) /
                      static_cast<double>(aw.computed + aw.pruned)
                : 0.0;
        csv.row({"sweep", name, std::to_string(bbvs.size()),
                 fmt(bs, 4), fmt(as, 4),
                 fmt(as > 0.0 ? bs / as : 0.0, 3), fmt(frac, 4),
                 same ? "1" : "0"});
    }
    double sweepSpeedup = accelSec > 0.0 ? bruteSec / accelSec : 0.0;
    double prunedFrac =
        accelWork.computed + accelWork.pruned > 0
            ? static_cast<double>(accelWork.pruned) /
                  static_cast<double>(accelWork.computed +
                                      accelWork.pruned)
            : 0.0;

    TableWriter sweepTable(
        "SimPoint selection, " + std::to_string(benches.size()) +
        " benchmarks (BIC k-sweep, maxK = " +
        std::to_string(cfg.simpoint.maxK) + ", " +
        std::to_string(totalSlices) + " slices)");
    sweepTable.header({"scan", "wall (s)", "distances", "pruned",
                       "speedup", "identical"});
    sweepTable.row({"brute force", fmt(bruteSec, 3),
                    fmtCount(bruteWork.computed), "-", fmtX(1.0, 2),
                    "-"});
    sweepTable.row({"tri-inequality", fmt(accelSec, 3),
                    fmtCount(accelWork.computed),
                    fmtPct(prunedFrac), fmtX(sweepSpeedup, 2),
                    identical ? "yes" : "NO"});
    sweepTable.print();

    // ---- Part 2: fixed-centroid whole-run assignment ----
    // The finalize-pass kernel in isolation: assign every projected
    // slice of every benchmark to its nearest of maxK centroids,
    // with and without the half-distance table.
    double assignBruteSec = 0.0, assignAccelSec = 0.0;
    bool assignSame = true;
    const int assignReps = 5;
    for (const std::string &name : benches) {
        BenchmarkSpec spec = benchmarkByName(name);
        auto bbvs = profileBbvs(spec, cfg.simpoint.sliceInstrs);
        RandomProjection proj(
            cfg.simpoint.projectionDim,
            hashCombine(cfg.simpoint.seed, 0x9e37ULL));
        DenseMatrix pts = proj.projectAllNormalized(bbvs);
        KMeansResult fit = kmeansFit(
            pts, cfg.simpoint.maxK, cfg.simpoint.seed,
            cfg.simpoint.maxIters);

        std::vector<u32> bruteAssign(pts.rows()),
            accelAssign(pts.rows());
        std::vector<double> bruteD2(pts.rows()),
            accelD2(pts.rows());
        DistanceKernelStats st;
        NearestCentroids bruteScan(fit.centroids,
                                   DistanceKernel::BruteForce);
        NearestCentroids accelScan(fit.centroids,
                                   DistanceKernel::Pruned, &st);
        double bs = wallSeconds([&] {
            for (int r = 0; r < assignReps; ++r)
                for (std::size_t i = 0; i < pts.rows(); ++i)
                    bruteAssign[i] = bruteScan.nearest(
                        pts.row(i), bruteD2[i], st);
        });
        double as = wallSeconds([&] {
            for (int r = 0; r < assignReps; ++r)
                for (std::size_t i = 0; i < pts.rows(); ++i)
                    accelAssign[i] = accelScan.nearest(
                        pts.row(i), accelD2[i], st);
        });
        bool same =
            bruteAssign == accelAssign && bruteD2 == accelD2;
        if (!same)
            std::printf("[FAIL] pruned assignment != brute on %s\n",
                        name.c_str());
        assignSame = assignSame && same;
        assignBruteSec += bs;
        assignAccelSec += as;
        csv.row({"assign", name, std::to_string(pts.rows()),
                 fmt(bs, 4), fmt(as, 4),
                 fmt(as > 0.0 ? bs / as : 0.0, 3), "",
                 same ? "1" : "0"});
    }
    identical = identical && assignSame;
    double assignSpeedup =
        assignAccelSec > 0.0 ? assignBruteSec / assignAccelSec : 0.0;

    TableWriter assignTable(
        "Whole-run slice assignment, " +
        std::to_string(benches.size()) + " benchmarks (k = " +
        std::to_string(cfg.simpoint.maxK) + ", x" +
        std::to_string(assignReps) + " reps)");
    assignTable.header({"scan", "wall (s)", "speedup", "identical"});
    assignTable.row({"brute force", fmt(assignBruteSec, 3),
                     fmtX(1.0, 2), "-"});
    assignTable.row({"tri-inequality", fmt(assignAccelSec, 3),
                     fmtX(assignSpeedup, 2),
                     assignSame ? "yes" : "NO"});
    assignTable.print();

    bench::saveCsv(csv, argv[0]);

    // Default into the CWD (the build tree under ctest); set
    // SPLAB_BENCH_OUT to publish straight to the repo root so the
    // committed baseline tracks the perf trajectory.
    const std::string jsonPath =
        envString("SPLAB_BENCH_OUT", "BENCH_kmeans.json");
    if (std::FILE *f = std::fopen(jsonPath.c_str(), "w")) {
        std::fprintf(
            f,
            "{\"bench\":\"micro_kmeans\",\"benchmarks\":%zu,"
            "\"max_k\":%u,\"slices\":%llu,"
            "\"sweep_brute_sec\":%.4f,\"sweep_accel_sec\":%.4f,"
            "\"sweep_speedup\":%.3f,"
            "\"brute_distances\":%llu,\"accel_distances\":%llu,"
            "\"accel_pruned\":%llu,\"accel_fallbacks\":%llu,"
            "\"pruned_fraction\":%.4f,"
            "\"assign_brute_sec\":%.4f,\"assign_accel_sec\":%.4f,"
            "\"assign_speedup\":%.3f,\"identical\":%s}\n",
            benches.size(), cfg.simpoint.maxK,
            static_cast<unsigned long long>(totalSlices), bruteSec,
            accelSec, sweepSpeedup,
            static_cast<unsigned long long>(bruteWork.computed),
            static_cast<unsigned long long>(accelWork.computed),
            static_cast<unsigned long long>(accelWork.pruned),
            static_cast<unsigned long long>(accelWork.fallbacks),
            prunedFrac, assignBruteSec, assignAccelSec,
            assignSpeedup, identical ? "true" : "false");
        std::fclose(f);
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    if (!identical) {
        std::printf("[FAIL] accelerated clustering differs from the "
                    "brute-force path\n");
        return 1;
    }
    return 0;
}
