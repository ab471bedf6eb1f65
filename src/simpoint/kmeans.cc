#include "kmeans.hh"

#include <cmath>
#include <limits>
#include <utility>

#include "obs/counters.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"

namespace splab
{

double
squaredDistance(const double *a, const double *b, std::size_t n)
{
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double d = a[i] - b[i];
        s += d * d;
    }
    return s;
}

double
squaredDistance(const std::vector<double> &a,
                const std::vector<double> &b)
{
    SPLAB_ASSERT(a.size() == b.size(), "dimension mismatch");
    return squaredDistance(a.data(), b.data(), a.size());
}

double
KMeansResult::avgClusterVariance(const DenseMatrix &points) const
{
    if (k == 0 || points.empty())
        return 0.0;
    std::vector<double> sum(k, 0.0);
    for (std::size_t i = 0; i < points.rows(); ++i)
        sum[assignment[i]] +=
            squaredDistance(points.row(i),
                            centroids.row(assignment[i]),
                            points.cols());
    double acc = 0.0;
    u32 live = 0;
    for (u32 c = 0; c < k; ++c) {
        if (clusterSize[c] == 0)
            continue;
        acc += sum[c] / static_cast<double>(clusterSize[c]);
        ++live;
    }
    return live ? acc / static_cast<double>(live) : 0.0;
}

void
accountDistanceKernel(const DistanceKernelStats &s)
{
    static obs::Counter &computed =
        obs::counter("kmeans.distances_computed",
                     "exact distance evaluations in the clustering "
                     "kernels");
    static obs::Counter &pruned =
        obs::counter("kmeans.distances_pruned",
                     "candidate distances skipped via "
                     "triangle-inequality bounds");
    static obs::Counter &fallbacks =
        obs::counter("kmeans.bound_fallbacks",
                     "inconclusive point bounds that fell back to a "
                     "full centroid scan");
    computed.add(s.computed);
    pruned.add(s.pruned);
    fallbacks.add(s.fallbacks);
}

namespace
{

constexpr double kMaxD = std::numeric_limits<double>::max();

/**
 * Conservative bound margins.  The rule that makes pruning *safe*
 * rather than approximate: every stored lower bound is deflated by
 * kDistShrink / kSqShrink, every upper bound inflated by kDistGrow /
 * kSqGrow, and every pruning test demands one further margin factor
 * plus an absolute slack in its favor.  The relative margin (1e-6)
 * exceeds the distance kernel's worst-case relative rounding error
 * (~1e-13 at these dimensionalities) by seven orders of magnitude,
 * so a passed test is a *proof* about the computed (not just the
 * true) distances; the absolute slack keeps denormal-range
 * arithmetic, where relative-error reasoning breaks down, from ever
 * licensing a skip.  The cost is a sliver of pruning power on
 * near-ties — which must fall back to the exact scan anyway to
 * reproduce brute-force tie-breaking bit-for-bit.
 */
constexpr double kBoundMargin = 1e-6;
constexpr double kDistGrow = 1.0 + kBoundMargin;   // distance space
constexpr double kDistShrink = 1.0 - kBoundMargin; // distance space
constexpr double kSqGrow = 1.0 + kBoundMargin;     // squared space
constexpr double kSqShrink = 1.0 - kBoundMargin;   // squared space
constexpr double kAbsSlackDist = 1e-140;
constexpr double kAbsSlackSq = 1e-280;

/** Sentinel for "no cached centroid distance" in scanPoint. */
constexpr u32 kNoCached = ~static_cast<u32>(0);

/** Conservative lower bound on the runner-up distance from a scan's
 *  second-best computed squared distance.  second2 stays kMaxD when
 *  k == 1 (vacuously valid: there is no other centroid) and can be
 *  +inf when a distance overflowed (clamping to kMaxD stays valid:
 *  an overflowed computed distance proves the true one exceeds
 *  sqrt(DBL_MAX)). */
double
lowerBoundFromSecond(double second2)
{
    return std::sqrt(std::min(second2, kMaxD)) * kDistShrink;
}

/**
 * Index-order nearest-centroid scan tracking best and second-best
 * computed squared distances.  Bit-equivalent to the brute scan for
 * (best, bestC): with @p geo, a candidate is skipped only when the
 * triangle inequality proves its computed distance strictly exceeds
 * the current *second*-best — which also proves the brute scan's
 * `d < best` comparison false.  The final second2 remains a valid
 * input for a runner-up lower bound: every skipped candidate was
 * proven farther than the second-best at skip time, and second2
 * only shrinks afterwards.
 *
 * @param cachedC centroid whose exact distance the caller already
 *                computed this iteration (kNoCached = none); reused
 *                bit-for-bit instead of re-evaluating.
 */
void
scanPoint(const double *p, std::size_t dim, const DenseMatrix &cents,
          const NearestCentroids *geo, u32 cachedC, double cachedD2,
          double &best, u32 &bestC, double &second2,
          DistanceKernelStats &st)
{
    const u32 k = static_cast<u32>(cents.rows());
    best = kMaxD;
    second2 = kMaxD;
    bestC = 0;
    double ubNow = 0.0;  // inflated sqrt(best) once best is set
    double slbNow = 0.0; // deflated sqrt(second2), +inf until set
    const double inf = std::numeric_limits<double>::infinity();
    for (u32 c = 0; c < k; ++c) {
        if (geo && best < kMaxD &&
            2.0 * geo->halfLowAt(bestC, c) - ubNow >
                slbNow + kAbsSlackDist) {
            ++st.pruned;
            continue;
        }
        double d;
        if (c == cachedC) {
            d = cachedD2;
        } else {
            d = squaredDistance(p, cents.row(c), dim);
            ++st.computed;
        }
        if (d < best) {
            second2 = best;
            best = d;
            bestC = c;
            if (geo) {
                ubNow = std::sqrt(best) * kDistGrow;
                slbNow = second2 < kMaxD
                             ? std::sqrt(second2) * kDistShrink
                             : inf;
            }
        } else if (d < second2) {
            second2 = d;
            if (geo)
                slbNow = std::sqrt(second2) * kDistShrink;
        }
    }
}

/** Points per assignment-pass chunk.  A pure constant: the chunk
 *  decomposition (and hence the floating-point reduction order) must
 *  never depend on the thread count. */
constexpr std::size_t kAssignChunk = 256;

/** Per-chunk partials of one Lloyd assignment pass. */
struct AssignAccum
{
    std::vector<double> sums; ///< k * dim centroid numerators
    std::vector<u64> counts;  ///< k populations
    double distortion = 0.0;
    bool changed = false;
    DistanceKernelStats stats;
};

/**
 * k-means++ initial centroid selection (sequential: each draw
 * conditions on the previous centroid).  d2[i] tracks the exact
 * squared distance from point i to its closest placed centroid, and
 * bestIdx[i] which centroid achieves it; with @p accel, a point
 * skips the distance to the newest centroid when a quarter of the
 * (deflated) squared centroid-to-centroid distance provably exceeds
 * d2[i] — by the triangle inequality the newest centroid is then
 * strictly farther, so d2, the sampling weights, and every RNG draw
 * stay bit-identical to the brute pass.
 */
DenseMatrix
seedCentroids(const DenseMatrix &points, u32 k, Rng &rng, bool accel,
              DistanceKernelStats &st)
{
    const std::size_t dim = points.cols();
    DenseMatrix centroids(k, dim);
    u32 placed = 0;
    centroids.setRow(placed++, points.row(rng.below(points.rows())));

    std::vector<double> d2(points.rows(), kMaxD);
    std::vector<u32> bestIdx(points.rows(), 0);
    std::vector<double> quarterLow;
    while (placed < k) {
        double total = 0.0;
        const u32 lastIdx = placed - 1;
        const double *last = centroids.row(lastIdx);
        const bool prune = accel && lastIdx >= 1;
        if (prune) {
            quarterLow.assign(lastIdx, 0.0);
            for (u32 j = 0; j < lastIdx; ++j)
                quarterLow[j] = 0.25 *
                                squaredDistance(centroids.row(j),
                                                last, dim) *
                                kSqShrink;
            st.computed += lastIdx;
        }
        for (std::size_t i = 0; i < points.rows(); ++i) {
            if (prune && quarterLow[bestIdx[i]] >
                             d2[i] * kSqGrow + kAbsSlackSq) {
                ++st.pruned;
                total += d2[i];
                continue;
            }
            double d = squaredDistance(points.row(i), last, dim);
            ++st.computed;
            if (d < d2[i]) {
                d2[i] = d;
                bestIdx[i] = lastIdx;
            }
            total += d2[i];
        }
        if (total <= 0.0) {
            // All remaining points coincide with a centroid; pad
            // with duplicates (clusters will come back empty).
            centroids.setRow(placed++,
                             points.row(rng.below(points.rows())));
            continue;
        }
        double u = rng.uniform() * total;
        double acc = 0.0;
        std::size_t pick = points.rows() - 1;
        for (std::size_t i = 0; i < points.rows(); ++i) {
            acc += d2[i];
            if (acc >= u) {
                pick = i;
                break;
            }
        }
        centroids.setRow(placed++, points.row(pick));
    }
    return centroids;
}

} // namespace

NearestCentroids::NearestCentroids(const DenseMatrix &centroids,
                                   DistanceKernel kernel,
                                   DistanceKernelStats *stats)
    : cents(centroids), k(static_cast<u32>(centroids.rows())),
      usePruning(kernel == DistanceKernel::Pruned &&
                 centroids.rows() >= 2)
{
    if (!usePruning) {
        sLow.assign(k, std::numeric_limits<double>::infinity());
        return;
    }
    const std::size_t dim = cents.cols();
    halfLow.assign(static_cast<std::size_t>(k) * k, 0.0);
    sLow.assign(k, std::numeric_limits<double>::infinity());
    for (u32 a = 0; a < k; ++a) {
        for (u32 b = a + 1; b < k; ++b) {
            double d2 = squaredDistance(cents.row(a), cents.row(b),
                                        dim);
            if (stats)
                ++stats->computed;
            // An overflowed distance collapses to 0 — that entry
            // then never licenses a skip (lower bounds may only
            // shrink when arithmetic gives out).
            double h = std::isfinite(d2)
                           ? 0.5 * std::sqrt(d2) * kDistShrink
                           : 0.0;
            halfLow[static_cast<std::size_t>(a) * k + b] = h;
            halfLow[static_cast<std::size_t>(b) * k + a] = h;
            if (h < sLow[a])
                sLow[a] = h;
            if (h < sLow[b])
                sLow[b] = h;
        }
    }
}

u32
NearestCentroids::nearest(const double *p, double &bestD2,
                          DistanceKernelStats &stats) const
{
    const std::size_t dim = cents.cols();
    double best = kMaxD;
    u32 bestC = 0;
    double ubNow = 0.0;
    for (u32 c = 0; c < k; ++c) {
        // Skip when half the distance from the current best centroid
        // to c provably exceeds the distance to the current best: by
        // the triangle inequality c is then strictly farther, so the
        // brute scan's strict-< could not have selected it.
        if (usePruning && best < kMaxD &&
            halfLowAt(bestC, c) > ubNow + kAbsSlackDist) {
            ++stats.pruned;
            continue;
        }
        double d = squaredDistance(p, cents.row(c), dim);
        ++stats.computed;
        if (d < best) {
            best = d;
            bestC = c;
            ubNow = std::sqrt(best) * kDistGrow;
        }
    }
    bestD2 = best;
    return bestC;
}

KMeansResult
kmeansFit(const DenseMatrix &points, u32 k, u64 seed, int maxIters,
          DistanceKernel kernel)
{
    obs::TraceSpan span("kmeans.fit");
    static obs::Counter &fits =
        obs::counter("kmeans.fits", "k-means fits performed");
    static obs::Counter &iters =
        obs::counter("kmeans.iterations",
                     "Lloyd iterations across all fits");
    fits.add();
    SPLAB_ASSERT(!points.empty(), "kmeans: no points");
    if (k > points.rows())
        k = static_cast<u32>(points.rows());
    SPLAB_ASSERT(k >= 1, "kmeans: k must be >= 1");

    const std::size_t n = points.rows();
    const std::size_t dim = points.cols();
    const bool accel = kernel == DistanceKernel::Pruned;
    DistanceKernelStats stats;

    Rng rng(seed, 0x63a5ULL);
    KMeansResult res;
    res.k = k;
    res.centroids = seedCentroids(points, k, rng, accel, stats);
    res.assignment.assign(n, 0);
    res.clusterSize.assign(k, 0);

    std::vector<double> sums(k * dim, 0.0);

    // Hamerly bound state (accel only).  lb[i] under-estimates the
    // distance from point i to every centroid other than its
    // assigned one; it decays by the largest centroid drift between
    // iterations.  The matching upper bound needs no storage: the
    // exact distance to the incumbent is recomputed every iteration
    // anyway (the distortion bytes require it), which is the
    // tightest upper bound there is.
    std::vector<double> lb;
    DenseMatrix prevCents;
    double maxDrift = 0.0, maxDrift2 = 0.0;
    u32 maxDriftC = 0;
    if (accel) {
        lb.assign(n, 0.0);
        prevCents.reset(k, dim);
    }

    for (int iter = 0; iter < maxIters; ++iter) {
        // Conservative inter-centroid half-distances for this
        // iteration's centroids, shared by every chunk below.
        NearestCentroids geo(res.centroids, kernel, &stats);

        // Assignment pass: each chunk accumulates private partial
        // sums; res.assignment and lb are written index-wise, so
        // chunks never contend.
        auto accums = parallelChunkApply<AssignAccum>(
            n, kAssignChunk,
            [&](AssignAccum &a, const ChunkRange &r) {
                a.sums.assign(k * dim, 0.0);
                a.counts.assign(k, 0);
                for (std::size_t i = r.begin; i < r.end; ++i) {
                    const double *p = points.row(i);
                    double best;
                    u32 bestC;
                    double second2;
                    if (accel && iter > 0) {
                        const u32 prev = res.assignment[i];
                        // Decay the carried runner-up bound by the
                        // largest drift among the *other* centroids,
                        // then compute the exact incumbent distance.
                        double l =
                            lb[i] - (maxDriftC == prev ? maxDrift2
                                                       : maxDrift);
                        l = l <= 0.0 ? 0.0 : l * kDistShrink;
                        double d2a = squaredDistance(
                            p, res.centroids.row(prev), dim);
                        ++a.stats.computed;
                        double ubT = std::sqrt(d2a) * kDistGrow;
                        double z = std::max(l, geo.sLowAt(prev));
                        if (ubT * kDistGrow + kAbsSlackDist < z) {
                            // Every other centroid is provably
                            // strictly farther: keep the incumbent.
                            best = d2a;
                            bestC = prev;
                            a.stats.pruned += k - 1;
                            lb[i] = l;
                        } else {
                            ++a.stats.fallbacks;
                            scanPoint(p, dim, res.centroids, &geo,
                                      prev, d2a, best, bestC,
                                      second2, a.stats);
                            lb[i] = lowerBoundFromSecond(second2);
                        }
                    } else if (accel) {
                        // First iteration: no carried bounds yet;
                        // full (still second-pruned) scan seeds them.
                        scanPoint(p, dim, res.centroids, &geo,
                                  kNoCached, 0.0, best, bestC,
                                  second2, a.stats);
                        lb[i] = lowerBoundFromSecond(second2);
                    } else {
                        scanPoint(p, dim, res.centroids, nullptr,
                                  kNoCached, 0.0, best, bestC,
                                  second2, a.stats);
                    }
                    if (res.assignment[i] != bestC) {
                        res.assignment[i] = bestC;
                        a.changed = true;
                    }
                    a.distortion += best;
                    ++a.counts[bestC];
                    double *s = a.sums.data() + bestC * dim;
                    for (std::size_t d = 0; d < dim; ++d)
                        s[d] += p[d];
                }
            });

        // Reduce in chunk order — fixed regardless of thread count.
        bool changed = false;
        res.distortion = 0.0;
        std::fill(res.clusterSize.begin(), res.clusterSize.end(), 0);
        std::fill(sums.begin(), sums.end(), 0.0);
        for (const AssignAccum &a : accums) {
            res.distortion += a.distortion;
            changed = changed || a.changed;
            stats.merge(a.stats);
            for (u32 c = 0; c < k; ++c)
                res.clusterSize[c] += a.counts[c];
            for (std::size_t j = 0; j < sums.size(); ++j)
                sums[j] += a.sums[j];
        }

        // Double-buffer the centroids so the drift (old -> new) can
        // be measured after the update; every row is rewritten below.
        if (accel)
            prevCents.swap(res.centroids);
        for (u32 c = 0; c < k; ++c) {
            if (res.clusterSize[c] == 0) {
                // Re-seed an empty cluster at a random point.
                res.centroids.setRow(c, points.row(rng.below(n)));
                changed = true;
                continue;
            }
            const double *s = sums.data() + c * dim;
            double *cent = res.centroids.row(c);
            for (std::size_t d = 0; d < dim; ++d)
                cent[d] =
                    s[d] / static_cast<double>(res.clusterSize[c]);
        }
        if (accel) {
            maxDrift = maxDrift2 = 0.0;
            maxDriftC = 0;
            for (u32 c = 0; c < k; ++c) {
                double dd2 = squaredDistance(prevCents.row(c),
                                             res.centroids.row(c),
                                             dim);
                ++stats.computed;
                double dr = std::sqrt(dd2) * kDistGrow;
                if (dr > maxDrift) {
                    maxDrift2 = maxDrift;
                    maxDrift = dr;
                    maxDriftC = c;
                } else if (dr > maxDrift2) {
                    maxDrift2 = dr;
                }
            }
        }

        res.iterations = iter + 1;
        if (!changed) {
            res.converged = true;
            break;
        }
    }
    iters.add(res.iterations);
    accountDistanceKernel(stats);
    return res;
}

KMeansResult
kmeansBestOf(const DenseMatrix &points, u32 k, u64 seed,
             int restarts, int maxIters, DistanceKernel kernel)
{
    SPLAB_ASSERT(restarts >= 1, "kmeans: restarts must be >= 1");
    auto fits = parallelMap<KMeansResult>(
        static_cast<std::size_t>(restarts), [&](std::size_t r) {
            return kmeansFit(points, k, hashCombine(seed, r),
                             maxIters, kernel);
        });
    // Index-order reduction: the earliest restart wins ties, exactly
    // as the serial loop did.
    std::size_t best = 0;
    for (std::size_t r = 1; r < fits.size(); ++r)
        if (fits[r].distortion < fits[best].distortion)
            best = r;
    return std::move(fits[best]);
}

} // namespace splab
