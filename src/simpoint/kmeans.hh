/**
 * @file
 * Lloyd's k-means with k-means++ seeding, the clustering engine of
 * the SimPoint methodology.
 *
 * Points live in a contiguous row-major DenseMatrix so the
 * nearest-centroid scans stream cache lines instead of chasing
 * per-row pointers.  The assignment pass and the restart loop run on
 * the global thread pool; per-chunk partial sums are reduced in
 * fixed chunk order, so fits are bit-identical at any SPLAB_THREADS.
 *
 * Triangle-inequality acceleration (DistanceKernel::Pruned, the
 * default; BruteForce is the exact-scan oracle of tests and benches):
 * Lloyd iterations keep Hamerly-style per-point bounds — an upper
 * bound on the distance to the assigned centroid and a single lower
 * bound on the second-closest — maintained across iterations via
 * per-centroid drift; the k-means++ d2 maintenance and the
 * fixed-centroid whole-run slice assignment prune candidates through
 * inter-centroid distances.  No distance is computed twice: seeding
 * folds in the last seed too, so Lloyd's first pass takes each
 * point's nearest seed and a runner-up bound from it without a scan,
 * and a point whose bound test fails rescans starting from its
 * incumbent.  The contract is *exact equality*, not approximation: a
 * centroid is skipped only when conservative bound arithmetic (lower
 * bounds deflated, upper bounds inflated by a relative margin that
 * dwarfs the distance kernel's rounding error) proves it cannot be
 * the brute-force scan's answer, the (distance, index) minimum;
 * whenever bounds are inconclusive the code falls back to the exact
 * scan.  Assignments, tie-breaks, distortion, and centroid bytes are
 * therefore bit-identical to the brute-force path at any
 * SPLAB_THREADS, and cached artifact bytes never move (no
 * version-salt bump).  Work is tallied in the deterministic counters
 * kmeans.distances_computed / kmeans.distances_pruned /
 * kmeans.bound_fallbacks.
 */

#ifndef SPLAB_SIMPOINT_KMEANS_HH
#define SPLAB_SIMPOINT_KMEANS_HH

#include <vector>

#include "support/matrix.hh"
#include "support/types.hh"

namespace splab
{

/** Nearest-centroid scan strategy; both give bit-identical results. */
enum class DistanceKernel { Pruned, BruteForce };

/** Outcome of one k-means fit. */
struct KMeansResult
{
    u32 k = 0;
    std::vector<u32> assignment;  ///< point -> cluster
    DenseMatrix centroids;        ///< k rows of dim columns
    std::vector<u64> clusterSize;
    double distortion = 0.0; ///< sum of squared distances
    int iterations = 0;
    bool converged = false;

    /** Mean over clusters of the within-cluster mean squared
     *  distance (the paper's Figure 4 "variance"). */
    double avgClusterVariance(const DenseMatrix &points) const;
};

/** Squared Euclidean distance between two dense rows of length n. */
double squaredDistance(const double *a, const double *b,
                       std::size_t n);

/** Squared Euclidean distance between two dense vectors. */
double squaredDistance(const std::vector<double> &a,
                       const std::vector<double> &b);

/**
 * Tally of nearest-centroid kernel work.  Deterministic: every field
 * is a pure function of the data and the bound state, never of
 * scheduling, so totals are identical at any SPLAB_THREADS.
 */
struct DistanceKernelStats
{
    u64 computed = 0;  ///< exact squaredDistance evaluations
    u64 pruned = 0;    ///< candidate distances skipped via bounds
    u64 fallbacks = 0; ///< inconclusive point bounds -> full scan

    void
    merge(const DistanceKernelStats &o)
    {
        computed += o.computed;
        pruned += o.pruned;
        fallbacks += o.fallbacks;
    }
};

/** Flush @p s into the kmeans.distances_computed /
 *  kmeans.distances_pruned / kmeans.bound_fallbacks counters. */
void accountDistanceKernel(const DistanceKernelStats &s);

/**
 * Pruned nearest-centroid search over a FIXED centroid set (the
 * whole-run slice assignment of SimPoint finalize; its half-distance
 * table also serves the Lloyd fallback scans).  Construction
 * precomputes conservative lower bounds
 * on half the inter-centroid distances; nearest() then skips a
 * candidate c only when half the distance from the current best
 * centroid to c provably exceeds the distance to the current best —
 * by the triangle inequality c is then strictly farther, so the
 * brute-force strict-`<` scan could not have picked it.  Results
 * (index and exact squared distance) are bit-identical to the brute
 * scan whether pruning is enabled or not.
 */
class NearestCentroids
{
  public:
    /** @param centroids fixed centroid rows (must outlive this)
     *  @param kernel    BruteForce = plain scans (no table)
     *  @param stats     when non-null, receives the table build's
     *                   distance evaluations */
    NearestCentroids(const DenseMatrix &centroids, DistanceKernel kernel,
                     DistanceKernelStats *stats = nullptr);

    /** Nearest centroid of @p p (dim = centroids.cols()) under the
     *  brute scan's index-order strict-`<` semantics.  @p bestD2
     *  receives the exact squared distance to the winner. */
    u32 nearest(const double *p, double &bestD2,
                DistanceKernelStats &stats) const;

    bool pruning() const { return usePruning; }

    /** Conservative lower bound on half the distance from centroid
     *  @p a to centroid @p b (distance space, not squared). */
    double
    halfLowAt(u32 a, u32 b) const
    {
        return halfLow[a * k + b];
    }

    /** Conservative lower bound on half the distance from centroid
     *  @p c to its nearest other centroid (+inf when k == 1). */
    double sLowAt(u32 c) const { return sLow[c]; }

  private:
    const DenseMatrix &cents;
    u32 k = 0;
    std::vector<double> halfLow; ///< k*k half-distance lower bounds
    std::vector<double> sLow;    ///< per-centroid row minimum
    bool usePruning = false;
};

/**
 * Fit k-means to @p points.
 *
 * @param points   dense row-major point matrix
 * @param k        number of clusters (clamped to points.rows())
 * @param seed     seeding determinism
 * @param maxIters Lloyd iteration cap
 * @param kernel   nearest-centroid scan strategy
 */
KMeansResult kmeansFit(const DenseMatrix &points, u32 k, u64 seed,
                       int maxIters = 40,
                       DistanceKernel kernel = DistanceKernel::Pruned);

/**
 * Best of @p restarts fits (lowest distortion, earliest restart on
 * ties), varying the seed.  Restarts run in parallel.
 */
KMeansResult kmeansBestOf(const DenseMatrix &points, u32 k, u64 seed,
                          int restarts, int maxIters = 40,
                          DistanceKernel kernel = DistanceKernel::Pruned);

/// @name Row-vector conveniences (tests, benches, external callers)
/// @{

inline KMeansResult
kmeansFit(const std::vector<std::vector<double>> &points, u32 k,
          u64 seed, int maxIters = 40,
          DistanceKernel kernel = DistanceKernel::Pruned)
{
    return kmeansFit(DenseMatrix::fromRows(points), k, seed,
                     maxIters, kernel);
}

inline KMeansResult
kmeansBestOf(const std::vector<std::vector<double>> &points, u32 k,
             u64 seed, int restarts, int maxIters = 40,
             DistanceKernel kernel = DistanceKernel::Pruned)
{
    return kmeansBestOf(DenseMatrix::fromRows(points), k, seed,
                        restarts, maxIters, kernel);
}

/// @}

} // namespace splab

#endif // SPLAB_SIMPOINT_KMEANS_HH
