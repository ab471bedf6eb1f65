/**
 * @file
 * Random projection of BBVs to a low-dimensional space.
 *
 * SimPoint 3.0 projects basic-block vectors down to 15 dimensions
 * before clustering; random projection approximately preserves
 * pairwise distances (Johnson-Lindenstrauss) at a fraction of the
 * cost.  The projection matrix is never materialised: entry (b, d)
 * is derived from a counter-based hash, so rows project
 * independently and the batch entry points fan out across the
 * thread pool.
 */

#ifndef SPLAB_SIMPOINT_PROJECTION_HH
#define SPLAB_SIMPOINT_PROJECTION_HH

#include <vector>

#include "bbv.hh"
#include "support/matrix.hh"

namespace splab
{

/** Largest accepted projection dimensionality. */
constexpr u32 kMaxProjectionDims = 256;

/** Projects sparse BBVs into a dense D-dimensional space. */
class RandomProjection
{
  public:
    /**
     * @param dims target dimensionality (SimPoint default: 15)
     * @param seed projection-matrix seed
     */
    RandomProjection(u32 dims, u64 seed);

    u32 dims() const { return numDims; }

    /**
     * Project an (L1-normalized) BBV.
     * @param v   sparse input vector
     * @param out dense output, resized to dims()
     */
    void project(const FrequencyVector &v,
                 std::vector<double> &out) const;

    /**
     * Project @p v scaled by @p scale into @p out (dims() doubles).
     * Passing scale = 1/l1Norm L1-normalizes on the fly, which lets
     * callers skip materialising a normalized copy of the BBVs.
     */
    void projectScaled(const FrequencyVector &v, double scale,
                       double *out) const;

    /** Project a batch; rows of the result align with @p vs. */
    DenseMatrix projectAll(const std::vector<FrequencyVector> &vs)
        const;

    /**
     * Project a batch with per-row L1 normalization, without copying
     * or mutating the inputs.  Rows align with @p vs.
     */
    DenseMatrix projectAllNormalized(
        const std::vector<FrequencyVector> &vs) const;

  private:
    u32 numDims;
    u64 seed;
};

} // namespace splab

#endif // SPLAB_SIMPOINT_PROJECTION_HH
