#include "native.hh"

#include "support/rng.hh"

namespace splab
{

NativeMachine::NativeMachine(double biasSigma, double jitterSigma)
    : biasSigma(biasSigma), jitterSigma(jitterSigma)
{
}

PerfCounters
NativeMachine::observe(const TimingStats &whole, u64 benchKey,
                       u64 runIndex) const
{
    // Hardware-effects model: systematic per-benchmark bias plus
    // per-run jitter.
    Rng biasRng(benchKey, 0xb1a5ULL);
    Rng jitterRng(benchKey, runIndex, 0x11f7ULL);
    double factor = 1.0 + biasSigma * biasRng.gaussian() +
                    jitterSigma * jitterRng.gaussian();
    if (factor < 0.5)
        factor = 0.5;

    PerfCounters c;
    c.instructions = whole.instrs;
    c.cpuCycles = static_cast<u64>(whole.cycles * factor);
    c.branches = whole.branches;
    c.branchMisses = whole.mispredicts;
    c.cacheReferences = whole.l3Hits + whole.memAccesses;
    c.cacheMisses = whole.memAccesses;
    return c;
}

} // namespace splab
