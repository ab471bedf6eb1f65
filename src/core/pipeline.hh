/**
 * @file
 * The profiling step of the PinPoints chain (workload -> BBV
 * profile) and the SimPointResult wire format.
 *
 * Selection itself is pickSimPoints(profileBbvs(spec, slice), cfg)
 * for an ad-hoc spec; suite experiments go through ArtifactGraph
 * (core/artifact_graph.hh), the only component that caches a
 * SimPoint selection.
 */

#ifndef SPLAB_CORE_PIPELINE_HH
#define SPLAB_CORE_PIPELINE_HH

#include <vector>

#include "simpoint/simpoint.hh"
#include "support/serialize.hh"
#include "workload/benchmark_spec.hh"

namespace splab
{

/** Collect one BBV per @p sliceInstrs slice of the whole execution. */
std::vector<FrequencyVector> profileBbvs(const BenchmarkSpec &spec,
                                         ICount sliceInstrs);

/// @name SimPointResult (de)serialization for the artifact cache
/// @{
void serializeSimPoints(ByteWriter &w, const SimPointResult &r);
SimPointResult deserializeSimPoints(ByteReader &r);
/// @}

} // namespace splab

#endif // SPLAB_CORE_PIPELINE_HH
