/**
 * @file
 * Tests for the triangle-inequality-accelerated clustering kernels.
 *
 * The acceleration contract is *exact equality*, not approximation:
 * with DistanceKernel::Pruned, every fit, nearest-centroid scan and
 * whole-pipeline SimPoint selection must be bit-identical to the
 * DistanceKernel::BruteForce path at any SPLAB_THREADS — so these
 * tests compare
 * doubles with memcmp, not EXPECT_NEAR.  The work tallies
 * (kmeans.distances_computed / distances_pruned / bound_fallbacks)
 * are deterministic counters and are asserted to be thread-count
 * invariant as well.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "core/artifact_graph.hh"
#include "core/pipeline.hh"
#include "obs/counters.hh"
#include "simpoint/simpoint.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"

namespace splab
{
namespace
{

// The suite-level pin below resolves benchmarks through
// benchmarkByName, which bakes SPLAB_SCALE in on first use.
[[maybe_unused]] const bool kScaleSet = [] {
    setenv("SPLAB_SCALE", "0.05", 1);
    return true;
}();

/** Scoped global-pool resize; restores the environment default. */
class ThreadsGuard
{
  public:
    explicit ThreadsGuard(std::size_t n)
    {
        ThreadPool::setGlobalThreads(n);
    }

    ~ThreadsGuard() { ThreadPool::setGlobalThreads(0); }
};

/** Byte-level equality of two fits — the acceleration contract. */
void
expectBitIdentical(const KMeansResult &a, const KMeansResult &b)
{
    ASSERT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.clusterSize, b.clusterSize);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(std::memcmp(&a.distortion, &b.distortion,
                          sizeof(double)),
              0);
    ASSERT_EQ(a.centroids.rows(), b.centroids.rows());
    ASSERT_EQ(a.centroids.cols(), b.centroids.cols());
    for (std::size_t r = 0; r < a.centroids.rows(); ++r)
        EXPECT_EQ(std::memcmp(a.centroids.row(r), b.centroids.row(r),
                              a.centroids.cols() * sizeof(double)),
                  0)
            << "centroid row " << r << " differs";
}

std::vector<std::vector<double>>
gaussianBlobs(u32 clusters, u32 perCluster, double spread, u64 seed,
              std::size_t dim = 8)
{
    Rng rng(seed);
    std::vector<std::vector<double>> pts;
    for (u32 c = 0; c < clusters; ++c) {
        std::vector<double> centre(dim);
        for (auto &x : centre)
            x = rng.uniform(-10.0, 10.0);
        for (u32 i = 0; i < perCluster; ++i) {
            std::vector<double> p(dim);
            for (std::size_t d = 0; d < dim; ++d)
                p[d] = centre[d] + spread * rng.gaussian();
            pts.push_back(std::move(p));
        }
    }
    return pts;
}

struct KernelDeltas
{
    u64 computed = 0;
    u64 pruned = 0;
    u64 fallbacks = 0;
};

/** Counter deltas of the kmeans.* distance-kernel family across
 *  @p body (the counters are process-global and monotonic). */
template <typename Fn>
KernelDeltas
kernelDeltas(Fn &&body)
{
    obs::Counter &c = obs::counter("kmeans.distances_computed");
    obs::Counter &p = obs::counter("kmeans.distances_pruned");
    obs::Counter &f = obs::counter("kmeans.bound_fallbacks");
    u64 c0 = c.value(), p0 = p.value(), f0 = f.value();
    body();
    return {c.value() - c0, p.value() - p0, f.value() - f0};
}

using Points = std::vector<std::vector<double>>;

/** One fit configuration of the brute-vs-pruned comparisons. */
struct FitCase
{
    const Points *pts;
    u32 k;
    u64 seed;
    int maxIters;
};

/** Pruned fits of every case at 1, 2 and 8 threads must equal the
 *  brute fit. */
void
expectPrunedMatchesBrute(const std::vector<FitCase> &cases)
{
    std::vector<KMeansResult> brute;
    for (const FitCase &c : cases)
        brute.push_back(kmeansFit(*c.pts, c.k, c.seed, c.maxIters,
                                  DistanceKernel::BruteForce));
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadsGuard tg(threads);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const FitCase &c = cases[i];
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " n=" + std::to_string(c.pts->size()) +
                         " k=" + std::to_string(c.k) +
                         " seed=" + std::to_string(c.seed) +
                         " maxIters=" + std::to_string(c.maxIters));
            expectBitIdentical(brute[i], kmeansFit(*c.pts, c.k, c.seed,
                                                   c.maxIters));
        }
    }
}

/** Integer lattice of side @p side in @p dim (1 or 2) dimensions,
 *  @p reps coincident copies of each point. */
Points
lattice(int side, int dim, int reps)
{
    Points pts;
    for (int rep = 0; rep < reps; ++rep)
        for (int x = 0; x < side; ++x) {
            if (dim == 1) {
                pts.push_back({double(x)});
                continue;
            }
            for (int y = 0; y < side; ++y)
                pts.push_back({double(x), double(y)});
        }
    return pts;
}

TEST(KMeansAccel, FitBitIdenticalToBruteAcrossK)
{
    auto pts = gaussianBlobs(6, 60, 0.4, 11);
    for (u32 k : {1u, 2u, 3u, 5u, 8u, 16u}) {
        KMeansResult brute =
            kmeansFit(pts, k, 7, 40, DistanceKernel::BruteForce);
        KMeansResult accel = kmeansFit(pts, k, 7);
        SCOPED_TRACE("k=" + std::to_string(k));
        expectBitIdentical(brute, accel);
    }
}

TEST(KMeansAccel, BestOfBitIdentical)
{
    auto pts = gaussianBlobs(4, 80, 0.6, 19);
    KMeansResult brute =
        kmeansBestOf(pts, 6, 3, 4, 40, DistanceKernel::BruteForce);
    KMeansResult accel = kmeansBestOf(pts, 6, 3, 4);
    expectBitIdentical(brute, accel);
}

TEST(KMeansAccel, DuplicatePointsAndTiesBitIdentical)
{
    // Worst case for tie-breaking: many exactly coincident points on
    // integer lattices, where centroids land exactly equidistant from
    // points all the time, often with the incumbent at the higher
    // index.  The brute scan resolves every tie by lowest index;
    // pruning and incumbent-first scans must never change that.
    const Points grids[] = {lattice(3, 2, 20), lattice(12, 1, 3),
                            lattice(4, 2, 1), lattice(6, 2, 1)};
    std::vector<FitCase> cases;
    for (const Points &pts : grids)
        for (u64 seed = 1; seed <= 16; ++seed)
            for (u32 k : {2u, 3u, 4u, 5u, 6u, 9u})
                for (int maxIters : {1, 40})
                    cases.push_back({&pts, k, seed, maxIters});
    expectPrunedMatchesBrute(cases);
}

TEST(KMeansAccel, PruningEngagesAndSavesWork)
{
    auto pts = gaussianBlobs(8, 100, 0.1, 29);
    KernelDeltas brute = kernelDeltas(
        [&] { kmeansFit(pts, 16, 5, 40, DistanceKernel::BruteForce); });
    KernelDeltas accel = kernelDeltas([&] { kmeansFit(pts, 16, 5); });
    // Brute force never prunes and never consults bounds.
    EXPECT_EQ(brute.pruned, 0u);
    EXPECT_EQ(brute.fallbacks, 0u);
    // The accelerated fit must actually skip work, and skip more
    // than its bound-maintenance overhead costs.
    EXPECT_GT(accel.pruned, 0u);
    EXPECT_LT(accel.computed, brute.computed);
}

TEST(KMeansAccel, KernelParameterSelectsPath)
{
    // The scan strategy is a per-call parameter, so one process can
    // interleave both paths; the default is the pruned kernel.
    auto pts = gaussianBlobs(4, 50, 0.2, 37);
    KernelDeltas brute = kernelDeltas(
        [&] { kmeansFit(pts, 8, 2, 40, DistanceKernel::BruteForce); });
    EXPECT_EQ(brute.pruned, 0u);
    KernelDeltas byDefault = kernelDeltas([&] { kmeansFit(pts, 8, 2); });
    EXPECT_GT(byDefault.pruned, 0u);
    KernelDeltas pruned = kernelDeltas(
        [&] { kmeansFit(pts, 8, 2, 40, DistanceKernel::Pruned); });
    EXPECT_EQ(pruned.computed, byDefault.computed);
    EXPECT_EQ(pruned.pruned, byDefault.pruned);
}

TEST(KMeansAccel, CountersThreadCountInvariant)
{
    // The work tallies are pure functions of the data and the bound
    // state — never of scheduling — so they are part of the
    // deterministic manifest section.  Assert the deltas (and the
    // fit bytes) are identical at 1, 2 and 8 threads.
    auto pts = gaussianBlobs(5, 120, 0.3, 43);
    KMeansResult ref;
    KernelDeltas refDeltas;
    bool first = true;
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadsGuard tg(threads);
        KMeansResult r;
        KernelDeltas d =
            kernelDeltas([&] { r = kmeansFit(pts, 10, 9); });
        if (first) {
            ref = r;
            refDeltas = d;
            first = false;
            continue;
        }
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectBitIdentical(ref, r);
        EXPECT_EQ(d.computed, refDeltas.computed);
        EXPECT_EQ(d.pruned, refDeltas.pruned);
        EXPECT_EQ(d.fallbacks, refDeltas.fallbacks);
    }
}

TEST(KMeansAccel, FirstPassFromSeedingBitIdentical)
{
    // One Lloyd pass is served from seeding's nearest-seed state
    // alone: assignment, distortion and centroid update must match
    // the brute scan over the seeds, up to k == n.
    Points pts = gaussianBlobs(6, 40, 0.4, 13);
    const u32 n = static_cast<u32>(pts.size());
    std::vector<FitCase> cases;
    for (u32 k : {1u, 2u, 5u, 16u, n})
        cases.push_back({&pts, k, 7, 1});
    expectPrunedMatchesBrute(cases);
}

TEST(KMeansAccel, CoincidentPointsBitIdentical)
{
    // Every point equal: seeding's sampling total is 0 after the
    // first seed, so the remaining seeds are duplicate pads and all
    // clusters but the first come back empty.
    Points pts(50, {0.5, -2.0, 3.25});
    std::vector<FitCase> cases;
    for (u32 k : {1u, 2u, 3u, 8u})
        for (int maxIters : {1, 40})
            cases.push_back({&pts, k, 3, maxIters});
    expectPrunedMatchesBrute(cases);
}

TEST(KMeansAccel, UniformLineBitIdentical)
{
    // Uniform points on a line sit on every Voronoi boundary, where
    // seeding's runner-up bound D(best, s) - d(p, best) is tight: a
    // bound that overstates it keeps an incumbent that lost.
    Rng rng(18);
    Points pts;
    for (int i = 0; i < 1500; ++i)
        pts.push_back({rng.uniform()});
    std::vector<FitCase> cases;
    for (u64 seed = 1; seed <= 8; ++seed)
        for (u32 k : {2u, 3u, 5u, 8u})
            cases.push_back({&pts, k, seed, 40});
    expectPrunedMatchesBrute(cases);
}

TEST(KMeansAccel, FirstPassReusesSeedingDistances)
{
    // Seeding computes at most one distance per point and seed plus
    // one per seed pair; a one-pass fit must add nothing to that.
    auto pts = gaussianBlobs(8, 50, 0.3, 17);
    const u64 n = pts.size();
    for (u64 k : {1u, 2u, 5u, 16u, 40u}) {
        KernelDeltas d = kernelDeltas([&] {
            kmeansFit(pts, static_cast<u32>(k), 5, 1,
                      DistanceKernel::Pruned);
        });
        SCOPED_TRACE("k=" + std::to_string(k));
        EXPECT_LE(d.computed, k * n + k * (k - 1) / 2);
    }
}

TEST(NearestCentroids, MatchesBruteScanExactly)
{
    Rng rng(51);
    DenseMatrix cents(12, 6);
    for (std::size_t r = 0; r < cents.rows(); ++r)
        for (std::size_t c = 0; c < cents.cols(); ++c)
            cents.at(r, c) = rng.uniform(-5.0, 5.0);

    DistanceKernelStats stats;
    NearestCentroids pruned(cents, DistanceKernel::Pruned, &stats);
    NearestCentroids brute(cents, DistanceKernel::BruteForce);
    EXPECT_TRUE(pruned.pruning());
    EXPECT_FALSE(brute.pruning());

    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> p(6);
        for (auto &x : p)
            x = rng.uniform(-6.0, 6.0);
        DistanceKernelStats sp, sb;
        double dPruned = 0.0, dBrute = 0.0;
        u32 cPruned = pruned.nearest(p.data(), dPruned, sp);
        u32 cBrute = brute.nearest(p.data(), dBrute, sb);
        EXPECT_EQ(cPruned, cBrute);
        EXPECT_EQ(std::memcmp(&dPruned, &dBrute, sizeof(double)), 0);
        // The brute scan computes every candidate.
        EXPECT_EQ(sb.computed, cents.rows());
        EXPECT_EQ(sp.computed + sp.pruned, cents.rows());
    }
}

TEST(NearestCentroids, SingleCentroidNeverPrunes)
{
    DenseMatrix cents(1, 4);
    NearestCentroids nc(cents, DistanceKernel::Pruned);
    EXPECT_FALSE(nc.pruning());
    std::vector<double> p = {1.0, 2.0, 3.0, 4.0};
    DistanceKernelStats st;
    double d = 0.0;
    EXPECT_EQ(nc.nearest(p.data(), d, st), 0u);
    EXPECT_EQ(d, 30.0);
    EXPECT_EQ(st.pruned, 0u);
}

/** Synthesize per-slice BBVs with a known phase structure. */
std::vector<FrequencyVector>
phasedBbvs(const std::vector<double> &weights, u32 slices, u64 seed)
{
    Rng rng(seed);
    std::vector<double> cdf(weights.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        cdf[i] = acc;
    }
    for (auto &c : cdf)
        c /= acc;
    std::vector<FrequencyVector> out;
    for (u32 s = 0; s < slices; ++s) {
        auto phase = sampleCdf(cdf.data(), cdf.size(), rng.uniform());
        FrequencyVector v;
        for (u32 b = 0; b < 12; ++b) {
            double w = 1.0 + 0.05 * rng.gaussian();
            v.entries.push_back(
                {static_cast<u32>(phase * 12 + b),
                 static_cast<float>(w < 0.01 ? 0.01 : w)});
        }
        out.push_back(std::move(v));
    }
    return out;
}

std::vector<u8>
selectionBytes(const std::vector<FrequencyVector> &bbvs,
               const SimPointConfig &cfg,
               DistanceKernel kernel = DistanceKernel::Pruned)
{
    ByteWriter w;
    serializeSimPoints(w, pickSimPoints(bbvs, cfg, kernel));
    return w.bytes();
}

TEST(SimPointAccel, WholePipelineBytesInvariant)
{
    // End-to-end SimPoint selection — sub-sampled k-sweep, BIC pick,
    // whole-run slice assignment — serialized and byte-compared:
    // both kernels and every thread count must agree exactly, which
    // is what keeps cached artifact bytes stable with no salt bump.
    auto bbvs = phasedBbvs({0.4, 0.3, 0.2, 0.1}, 500, 67);
    SimPointConfig cfg;
    cfg.maxK = 10;
    std::vector<u8> ref =
        selectionBytes(bbvs, cfg, DistanceKernel::BruteForce);
    ASSERT_FALSE(ref.empty());
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadsGuard tg(threads);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_EQ(selectionBytes(bbvs, cfg), ref);
    }
}

TEST(SimPointAccel, PipelinePruningEngages)
{
    auto bbvs = phasedBbvs({0.5, 0.3, 0.2}, 600, 71);
    SimPointConfig cfg;
    cfg.maxK = 12;
    KernelDeltas d =
        kernelDeltas([&] { pickSimPoints(bbvs, cfg); });
    EXPECT_GT(d.pruned, 0u);
    EXPECT_GT(d.computed, 0u);
}

TEST(SimPointAccel, SuiteSelectionBytesPinned)
{
    // Selection bytes of two suite benchmarks at SPLAB_SCALE=0.05,
    // hashed and pinned at the Fig. 3 MaxK extremes: a change to the
    // clustering kernels that moves any selection byte fails here.
    ArtifactGraph g(ExperimentConfig::paperDefaults(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));
    const struct
    {
        const char *bench;
        u32 maxK;
        u64 hash;
    } pins[] = {
        {"505.mcf_r", 15, 0xa30f31ee3aaca7aeULL},
        {"505.mcf_r", 35, 0xc9a575f36082fc0aULL},
        {"503.bwaves_r", 15, 0x63cac1671c9659b3ULL},
        {"503.bwaves_r", 35, 0x8d092f0acd6f22ebULL},
    };
    for (const auto &pin : pins) {
        SimPointConfig cfg = ExperimentConfig::paperDefaults().simpoint;
        cfg.maxK = pin.maxK;
        const std::vector<FrequencyVector> &bbvs =
            g.bbvProfile(pin.bench);
        std::vector<u8> bytes = selectionBytes(bbvs, cfg);
        EXPECT_EQ(hashBytes(bytes.data(), bytes.size()), pin.hash)
            << pin.bench << " (" << bbvs.size()
            << " slices) maxK=" << pin.maxK << std::hex << ": got 0x"
            << hashBytes(bytes.data(), bytes.size());
    }
}

TEST(KMeansResult, AvgClusterVarianceBoundaries)
{
    DenseMatrix pts = DenseMatrix::fromRows(
        {{0.0, 0.0}, {2.0, 0.0}, {0.0, 2.0}});

    // k == 0 and empty inputs are defined as zero, not UB.
    KMeansResult zero;
    EXPECT_EQ(zero.avgClusterVariance(pts), 0.0);
    KMeansResult fitted;
    fitted.k = 1;
    EXPECT_EQ(fitted.avgClusterVariance(DenseMatrix()), 0.0);

    // An empty cluster contributes nothing: the average runs over
    // live clusters only, so it must not drag the mean toward zero
    // (nor divide by its zero population).
    KMeansResult r;
    r.k = 2;
    r.assignment = {0, 0, 0};
    r.clusterSize = {3, 0};
    r.centroids.reset(2, 2);
    double perPoint =
        (squaredDistance(pts.row(0), r.centroids.row(0), 2) +
         squaredDistance(pts.row(1), r.centroids.row(0), 2) +
         squaredDistance(pts.row(2), r.centroids.row(0), 2)) /
        3.0;
    EXPECT_DOUBLE_EQ(r.avgClusterVariance(pts), perPoint);
}

SimPointResult
weightedResult(const std::vector<double> &weights)
{
    SimPointResult r;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        SimPoint p;
        p.slice = static_cast<SliceIndex>(i);
        p.weight = weights[i];
        p.cluster = static_cast<u32>(i);
        r.points.push_back(p);
    }
    return r;
}

TEST(SimPointResult, TopByWeightQuantileBoundaries)
{
    SimPointResult r = weightedResult({0.5, 0.3, 0.2});

    // Exact hit: the cumulative weight equals quantile * total.
    EXPECT_EQ(r.topByWeight(0.8).size(), 2u);
    // Within the 1e-12 epsilon below the threshold: still a hit —
    // float noise in the weight sum must not drag in an extra point.
    EXPECT_EQ(r.topByWeight(0.8 + 1e-13).size(), 2u);
    // Clearly above the epsilon: the next point is required.
    EXPECT_EQ(r.topByWeight(0.8 + 1e-9).size(), 3u);
    // Degenerate quantiles.
    EXPECT_EQ(r.topByWeight(0.0).size(), 1u);
    EXPECT_EQ(r.topByWeight(1.0).size(), 3u);
    // No points -> no selection (and no crash).
    EXPECT_TRUE(SimPointResult().topByWeight(0.9).empty());
}

TEST(SimPointResult, TopByWeightTieOrderIsDeterministic)
{
    // Equal weights tie-break by ascending slice index, so the kept
    // prefix is stable across runs.
    SimPointResult r = weightedResult({0.25, 0.25, 0.25, 0.25});
    auto kept = r.topByWeight(0.5);
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].slice, 0u);
    EXPECT_EQ(kept[1].slice, 1u);
}

} // namespace
} // namespace splab
