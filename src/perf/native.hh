/**
 * @file
 * The "real hardware" reference: native execution measured with
 * perf-style counters.
 *
 * Substitution note (see DESIGN.md): we cannot run on a physical
 * i7-3770, so the native machine is a hardware-effects model over
 * the fused whole run's timing view (core/runs.hh): a per-benchmark
 * systematic bias (microarchitectural effects the simulator does not
 * capture) plus per-run jitter (non-determinism).  This preserves the
 * structure of the paper's Figure 12 comparison: sampled-simulation
 * error = sampling error + model-vs-hardware error + noise.
 */

#ifndef SPLAB_PERF_NATIVE_HH
#define SPLAB_PERF_NATIVE_HH

#include "timing/interval_core.hh"

namespace splab
{

/** Values read from perf's hardware event counters. */
struct PerfCounters
{
    u64 instructions = 0;
    u64 cpuCycles = 0;
    u64 branches = 0;
    u64 branchMisses = 0;
    u64 cacheReferences = 0; ///< LLC references
    u64 cacheMisses = 0;     ///< LLC misses

    /** The paper's metric: cpu-cycles / instructions. */
    double
    cpi() const
    {
        return instructions ? static_cast<double>(cpuCycles) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/** The native machine's hardware-effects (noise) model. */
class NativeMachine
{
  public:
    /**
     * @param biasSigma std-dev of the per-benchmark systematic
     *                  model-vs-hardware bias (fraction of cycles)
     * @param jitterSigma std-dev of per-run noise
     */
    explicit NativeMachine(double biasSigma = 0.02,
                           double jitterSigma = 0.005);

    /**
     * Read the counters of one native run of a benchmark whose
     * whole-run timing-model statistics are @p whole.  A whole run
     * never warms, so every L3 probe is an L3 hit or a memory access:
     * LLC references = l3Hits + memAccesses, misses = memAccesses.
     *
     * @param benchKey the benchmark spec's content hash (selects
     *        the systematic bias)
     * @param runIndex distinguishes repeated timed runs (affects
     *        jitter only, like re-running perf).
     */
    PerfCounters observe(const TimingStats &whole, u64 benchKey,
                         u64 runIndex = 0) const;

  private:
    double biasSigma;
    double jitterSigma;
};

} // namespace splab

#endif // SPLAB_PERF_NATIVE_HH
