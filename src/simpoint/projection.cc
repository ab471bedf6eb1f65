#include "projection.hh"

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"

namespace splab
{

RandomProjection::RandomProjection(u32 dims, u64 seed)
    : numDims(dims), seed(seed)
{
    SPLAB_ASSERT(dims >= 1 && dims <= kMaxProjectionDims,
                 "projection dims out of range: ", dims);
}

void
RandomProjection::projectScaled(const FrequencyVector &v,
                                double scale, double *out) const
{
    std::fill(out, out + numDims, 0.0);
    for (const auto &e : v.entries) {
        u64 h = hashCombine(seed, e.block);
        double w = scale * static_cast<double>(e.weight);
        for (u32 d = 0; d < numDims; ++d) {
            // Uniform in [-1, 1), deterministic per (block, dim).
            u64 r = mix64(h + d);
            double coef = static_cast<double>(r >> 11) * 0x1.0p-52 -
                          1.0;
            out[d] += w * coef;
        }
    }
}

void
RandomProjection::project(const FrequencyVector &v,
                          std::vector<double> &out) const
{
    out.assign(numDims, 0.0);
    projectScaled(v, 1.0, out.data());
}

DenseMatrix
RandomProjection::projectAll(
    const std::vector<FrequencyVector> &vs) const
{
    DenseMatrix rows(vs.size(), numDims);
    parallelFor(vs.size(), [&](std::size_t i) {
        projectScaled(vs[i], 1.0, rows.row(i));
    });
    return rows;
}

DenseMatrix
RandomProjection::projectAllNormalized(
    const std::vector<FrequencyVector> &vs) const
{
    DenseMatrix rows(vs.size(), numDims);
    parallelFor(vs.size(), [&](std::size_t i) {
        double l1 = vs[i].l1Norm();
        projectScaled(vs[i], l1 > 0.0 ? 1.0 / l1 : 1.0,
                      rows.row(i));
    });
    return rows;
}

} // namespace splab
