/**
 * @file
 * Building a custom phase-structured workload from scratch, and
 * working with pinballs on disk: capture a Whole Pinball, derive the
 * Regional Pinball of its simulation points, save both, reload the
 * regional one and replay it under analysis tools — exactly the
 * PinPlay logger/replayer flow of the paper's Figure 2.
 *
 * Usage: custom_workload [output-dir]
 */

#include <cstdio>
#include <string>

#include "core/pipeline.hh"
#include "pin/tools/inscount.hh"
#include "pin/tools/ldstmix.hh"
#include "pinball/logger.hh"
#include "pinball/replayer.hh"
#include "support/table.hh"

using namespace splab;

int
main(int argc, char **argv)
{
    std::string dir = argc > 1 ? argv[1] : ".";

    // A four-phase "video encoder": per-frame motion search (hot
    // tables), DCT-like blocked compute, entropy coding (pointer
    // heavy) and a rare scene-change rescan.
    BenchmarkSpec spec;
    spec.name = "toy-encoder";
    spec.seed = 264;
    spec.totalChunks = 30000;

    PhaseSpec motion;
    motion.name = "motion-search";
    motion.weight = 0.45;
    motion.kernel = KernelKind::ZipfHotCold;
    motion.workingSetBytes = 4 << 20;
    motion.hotFraction = 0.05;
    motion.hotProbability = 0.9;

    PhaseSpec dct;
    dct.name = "dct";
    dct.weight = 0.3;
    dct.kernel = KernelKind::Blocked;
    dct.workingSetBytes = 1 << 20;
    dct.fpFraction = 0.5;
    dct.mix.branch = 0.04;

    PhaseSpec entropy;
    entropy.name = "entropy";
    entropy.weight = 0.2;
    entropy.kernel = KernelKind::PointerChase;
    entropy.workingSetBytes = 2 << 20;
    entropy.dataDepBranchFraction = 0.25;

    PhaseSpec rescan;
    rescan.name = "scene-change";
    rescan.weight = 0.05;
    rescan.kernel = KernelKind::Stream;
    rescan.workingSetBytes = 16 << 20;

    spec.phases = {motion, dct, entropy, rescan};
    spec.schedule = ScheduleKind::Interleaved; // frame-periodic
    spec.dwellChunks = 250;

    // Capture the whole execution (with stream checksum) and derive
    // the regional pinball from the SimPoint selection.
    SyntheticWorkload workload(spec);
    Pinball whole = Logger::captureWhole(workload, /*verify=*/true);

    SimPointConfig cfg;
    SimPointResult points =
        pickSimPoints(profileBbvs(spec, cfg.sliceInstrs), cfg);
    Pinball regional = Logger::makeRegional(whole, points);

    std::string wholePath = dir + "/toy-encoder.whole.pinball";
    std::string regionalPath = dir + "/toy-encoder.region.pinball";
    whole.save(wholePath);
    regional.save(regionalPath);
    std::printf("captured %s (%llu instrs) -> %zu regions in %s\n\n",
                wholePath.c_str(),
                static_cast<unsigned long long>(whole.coveredInstrs()),
                regional.regions().size(), regionalPath.c_str());

    // A different process would start here: reload and replay.
    Replayer replayer(Pinball::load(regionalPath));
    if (!replayer.verifyChecksum())
        SPLAB_FATAL("replay does not match the captured stream");

    TableWriter t("per-region replay of " + regionalPath);
    t.header({"Region", "Slice", "Weight", "Instrs", "NO_MEM",
              "MEM_R"});
    for (std::size_t i = 0; i < replayer.regionCount(); ++i) {
        InsCountTool count;
        LdStMixTool mix;
        Engine engine;
        engine.attach(&count);
        engine.attach(&mix);
        replayer.replayRegion(i, engine);
        auto f = mix.mix().fractions();
        const RegionDesc &r = replayer.pinball().regions()[i];
        t.row({std::to_string(i),
               std::to_string(r.slice), fmtPct(r.weight, 1),
               fmtCount(count.instructions()), fmtPct(f[0], 1),
               fmtPct(f[1], 1)});
    }
    t.print();

    std::printf("\nEach region is self-contained: the pinball file "
                "embeds the full workload\nspecification, so replay "
                "needed neither the suite tables nor the original\n"
                "spec object (PinPlay's portability property).\n");
    std::remove(wholePath.c_str());
    std::remove(regionalPath.c_str());
    return 0;
}
