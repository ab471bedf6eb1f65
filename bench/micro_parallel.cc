/**
 * @file
 * Parallel-scaling microbench: serial vs thread-pool wall time for
 * the SimPoint BIC k-sweep and the per-point regional replays, the
 * two hot paths behind the paper's ~750x simulation-time headline.
 * Also re-checks the determinism contract: the parallel run must
 * produce byte-identical results to the serial run.
 *
 * Output: paper-style table, "<binary>.csv", and one JSON summary
 * line per stage (machine-greppable for perf tracking).
 */

#include <chrono>
#include <cstdio>

#include "bench_util.hh"
#include "core/pipeline.hh"
#include "core/runs.hh"
#include "sampling/strategies.hh"
#include "support/thread_pool.hh"
#include "workload/suite.hh"

namespace splab
{
namespace
{

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Best-of-@p reps wall time (removes scheduler noise). */
double
bestOf(int reps, const std::function<void()> &fn)
{
    double best = wallSeconds(fn);
    for (int r = 1; r < reps; ++r) {
        double t = wallSeconds(fn);
        if (t < best)
            best = t;
    }
    return best;
}

std::vector<u8>
simpointBytes(const SimPointResult &r)
{
    ByteWriter w;
    serializeSimPoints(w, r);
    return w.bytes();
}

struct StageResult
{
    const char *stage;
    double serialSec = 0.0;
    double parallelSec = 0.0;
    bool identical = false;
};

} // namespace
} // namespace splab

int
main(int, char **argv)
{
    using namespace splab;

    std::size_t hw = 0;
    {
        ThreadPool::setGlobalThreads(0);
        hw = parallelThreads();
    }

    bench::banner(
        "Parallel scaling: BIC k-sweep and regional replays",
        "throughput headline (~650x instrs / ~750x time)");
    std::printf("threads available: %zu (SPLAB_THREADS to pin)\n\n",
                hw);

    BenchmarkSpec spec = benchmarkByName("620.omnetpp_s");
    spec.totalChunks = 6000;
    SimPointConfig cfg;
    cfg.maxK = 20;
    cfg.restarts = 3;

    auto bbvs = profileBbvs(spec, cfg.sliceInstrs);

    std::vector<StageResult> results;

    // Stage 1: the k = 1..maxK model-selection sweep.
    {
        StageResult r;
        r.stage = "bic-k-sweep";
        std::vector<u8> serialBytes, parallelBytes;
        SimpointStrategy strat(cfg);
        ThreadPool::setGlobalThreads(1);
        r.serialSec = bestOf(2, [&] {
            serialBytes = simpointBytes(strat.pick(bbvs));
        });
        ThreadPool::setGlobalThreads(0);
        r.parallelSec = bestOf(2, [&] {
            parallelBytes = simpointBytes(strat.pick(bbvs));
        });
        r.identical = serialBytes == parallelBytes;
        results.push_back(r);
    }

    SimPointResult sp = SimpointStrategy(cfg).pick(bbvs);

    // Stage 2: per-simulation-point cache replays (cold caches).
    {
        StageResult r;
        r.stage = "regional-replay-cache";
        std::vector<PointCacheMetrics> serialPts, parallelPts;
        ThreadPool::setGlobalThreads(1);
        r.serialSec = bestOf(2, [&] {
            serialPts =
                measurePointsCache(spec, sp, tableIConfig(), 0);
        });
        ThreadPool::setGlobalThreads(0);
        r.parallelSec = bestOf(2, [&] {
            parallelPts =
                measurePointsCache(spec, sp, tableIConfig(), 0);
        });
        r.identical = serialPts.size() == parallelPts.size();
        for (std::size_t i = 0; r.identical && i < serialPts.size();
             ++i)
            r.identical =
                serialPts[i].m.instrs == parallelPts[i].m.instrs &&
                serialPts[i].m.l3.misses ==
                    parallelPts[i].m.l3.misses;
        results.push_back(r);
    }

    // Stage 3: per-point timing replays (cold core).
    {
        StageResult r;
        r.stage = "regional-replay-timing";
        std::vector<PointTimingMetrics> serialPts, parallelPts;
        ThreadPool::setGlobalThreads(1);
        r.serialSec = bestOf(2, [&] {
            serialPts =
                measurePointsTiming(spec, sp, tableIIIMachine(), 0);
        });
        ThreadPool::setGlobalThreads(0);
        r.parallelSec = bestOf(2, [&] {
            parallelPts =
                measurePointsTiming(spec, sp, tableIIIMachine(), 0);
        });
        r.identical = serialPts.size() == parallelPts.size();
        for (std::size_t i = 0; r.identical && i < serialPts.size();
             ++i)
            r.identical =
                serialPts[i].m.cycles == parallelPts[i].m.cycles;
        results.push_back(r);
    }
    ThreadPool::setGlobalThreads(0);

    TableWriter table("Serial vs parallel wall time (" +
                      std::to_string(hw) + " threads)");
    table.header({"stage", "serial (s)", "parallel (s)", "speedup",
                  "identical"});
    CsvWriter csv;
    csv.header({"stage", "threads", "serial_sec", "parallel_sec",
                "speedup", "identical"});
    for (const auto &r : results) {
        double speedup =
            r.parallelSec > 0.0 ? r.serialSec / r.parallelSec : 0.0;
        table.row({r.stage, fmt(r.serialSec, 3),
                   fmt(r.parallelSec, 3), fmtX(speedup, 2),
                   r.identical ? "yes" : "NO"});
        csv.row({r.stage, std::to_string(hw), fmt(r.serialSec, 4),
                 fmt(r.parallelSec, 4), fmt(speedup, 3),
                 r.identical ? "1" : "0"});
        std::printf("{\"bench\":\"micro_parallel\",\"stage\":\"%s\","
                    "\"threads\":%zu,\"serial_sec\":%.4f,"
                    "\"parallel_sec\":%.4f,\"speedup\":%.3f,"
                    "\"identical\":%s}\n",
                    r.stage, hw, r.serialSec, r.parallelSec, speedup,
                    r.identical ? "true" : "false");
    }
    std::printf("\n");
    table.print();
    bench::saveCsv(csv, argv[0]);

    for (const auto &r : results)
        if (!r.identical) {
            std::printf("[FAIL] %s: parallel result differs from "
                        "serial\n",
                        r.stage);
            return 1;
        }
    return 0;
}
