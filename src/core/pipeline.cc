#include "pipeline.hh"

#include "obs/trace.hh"
#include "pin/engine.hh"
#include "pin/tools/bbv_tool.hh"
#include "workload/synthetic.hh"

namespace splab
{

// SimPoint and KSweepEntry carry internal padding (a u32 member
// followed by an 8-byte one), so they must be serialized field by
// field: memcpying the whole struct (putVector) would emit the
// uninitialized padding bytes and break byte-level reproducibility
// of cached blobs and manifests.

void
serializeSimPoints(ByteWriter &w, const SimPointResult &r)
{
    w.put<u32>(r.chosenK);
    w.put<u64>(r.totalSlices);
    w.put<u64>(r.sliceInstrs);
    w.put<u64>(r.points.size());
    for (const SimPoint &p : r.points) {
        w.put<u64>(p.slice);
        w.put<double>(p.weight);
        w.put<u32>(p.cluster);
        w.put<u64>(p.clusterSize);
        w.put<double>(p.variance);
    }
    w.putVector(r.sliceToCluster);
    w.put<u64>(r.sweep.size());
    for (const KSweepEntry &e : r.sweep) {
        w.put<u32>(e.k);
        w.put<double>(e.bic);
        w.put<double>(e.distortion);
        w.put<double>(e.avgClusterVariance);
    }
}

SimPointResult
deserializeSimPoints(ByteReader &r)
{
    SimPointResult res;
    res.chosenK = r.get<u32>();
    res.totalSlices = r.get<u64>();
    res.sliceInstrs = r.get<u64>();
    res.points.resize(r.get<u64>());
    for (SimPoint &p : res.points) {
        p.slice = r.get<u64>();
        p.weight = r.get<double>();
        p.cluster = r.get<u32>();
        p.clusterSize = r.get<u64>();
        p.variance = r.get<double>();
    }
    res.sliceToCluster = r.getVector<u32>();
    res.sweep.resize(r.get<u64>());
    for (KSweepEntry &e : res.sweep) {
        e.k = r.get<u32>();
        e.bic = r.get<double>();
        e.distortion = r.get<double>();
        e.avgClusterVariance = r.get<double>();
    }
    return res;
}

std::vector<FrequencyVector>
profileBbvs(const BenchmarkSpec &spec, ICount sliceInstrs)
{
    obs::TraceSpan span("pipeline.profile_bbvs");
    SyntheticWorkload wl(spec);
    BbvTool bbv(sliceInstrs);
    Engine engine;
    engine.attach(&bbv);
    engine.runWhole(wl);
    return bbv.vectors();
}

} // namespace splab
