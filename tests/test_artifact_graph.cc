/**
 * @file
 * The artifact graph's contracts: Merkle key precision (every config
 * field keys exactly the artifacts it shapes), single-flight per
 * node, byte-identical values and counter snapshots at any
 * SPLAB_THREADS, and cold/warm artifact-cache coherence.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "core/artifact_graph.hh"
#include "obs/counters.hh"
#include "support/thread_pool.hh"

namespace splab
{
namespace
{

// The graph resolves benchmarks through benchmarkByName, which bakes
// SPLAB_SCALE in on first use — set it before anything touches a
// spec so every test below runs on miniature workloads.
[[maybe_unused]] const bool kScaleSet = [] {
    setenv("SPLAB_SCALE", "0.05", 1);
    return true;
}();

/** The small benchmarks used throughout (fewest whole-run slices). */
const std::vector<std::string> kBenches = {"620.omnetpp_s",
                                           "520.omnetpp_r"};

ExperimentConfig
fastConfig()
{
    return ExperimentConfig::paperDefaults().withMaxK(6);
}

u64
keyOf(const ExperimentConfig &cfg, ArtifactKind kind)
{
    ArtifactGraph g(cfg, std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    return g.artifactKey(kBenches[0], kind);
}

TEST(ArtifactKeys, StableAcrossGraphInstances)
{
    for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
        ArtifactKind kind = static_cast<ArtifactKind>(k);
        EXPECT_EQ(keyOf(fastConfig(), kind), keyOf(fastConfig(), kind))
            << artifactKindName(kind);
    }
}

TEST(ArtifactKeys, WarmupChunksKeysOnlyWarmedReplays)
{
    ExperimentConfig base = fastConfig();
    ExperimentConfig warmed = fastConfig().withWarmupChunks(7);

    // The warm-up length shapes warmed replays only: cold replays
    // and everything upstream must keep their cache blobs.
    EXPECT_NE(keyOf(base, ArtifactKind::PointsCacheWarm),
              keyOf(warmed, ArtifactKind::PointsCacheWarm));
    EXPECT_NE(keyOf(base, ArtifactKind::PointsTiming),
              keyOf(warmed, ArtifactKind::PointsTiming));
    EXPECT_EQ(keyOf(base, ArtifactKind::PointsCacheCold),
              keyOf(warmed, ArtifactKind::PointsCacheCold));
    EXPECT_EQ(keyOf(base, ArtifactKind::WholeCache),
              keyOf(warmed, ArtifactKind::WholeCache));
    EXPECT_EQ(keyOf(base, ArtifactKind::SimPoints),
              keyOf(warmed, ArtifactKind::SimPoints));
}

TEST(ArtifactKeys, ReplacementPolicyChangesCacheArtifactKeys)
{
    // The regression the old hand-rolled benchKey missed: it hashed
    // only sizeBytes/ways/lineBytes per level, so a replacement-
    // policy change silently reused stale blobs.
    ExperimentConfig base = fastConfig();
    ExperimentConfig fifo = fastConfig();
    fifo.allcache.l3.replacement = ReplacementPolicy::FIFO;

    EXPECT_NE(keyOf(base, ArtifactKind::WholeCache),
              keyOf(fifo, ArtifactKind::WholeCache));
    EXPECT_NE(keyOf(base, ArtifactKind::PointsCacheCold),
              keyOf(fifo, ArtifactKind::PointsCacheCold));
    // The simpoint selection and the timing machine (separate
    // hierarchy copy) do not read cfg.allcache.
    EXPECT_EQ(keyOf(base, ArtifactKind::SimPoints),
              keyOf(fifo, ArtifactKind::SimPoints));
    EXPECT_EQ(keyOf(base, ArtifactKind::WholeTiming),
              keyOf(fifo, ArtifactKind::WholeTiming));
    // Native is computed from the fused node, whose key does see
    // the allcache change, but its value is the timing view's
    // noise-model projection: its key must not move.
    EXPECT_NE(keyOf(base, ArtifactKind::WholeFused),
              keyOf(fifo, ArtifactKind::WholeFused));
    EXPECT_EQ(keyOf(base, ArtifactKind::Native),
              keyOf(fifo, ArtifactKind::Native));
}

TEST(ArtifactKeys, NativeKeyPinned)
{
    // Native blobs written by the dedicated native traversal stay
    // valid for the fused-projection compute: same bytes, so the
    // same key (value pinned at SPLAB_SCALE=0.05).
    ArtifactGraph g(ExperimentConfig::paperDefaults(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));
    EXPECT_EQ(g.artifactKey("505.mcf_r", ArtifactKind::Native),
              0x2800c14ecc125bc7ULL);
}

TEST(ArtifactKeys, SimpointConfigCascadesToDependents)
{
    ExperimentConfig base = fastConfig();
    ExperimentConfig moreK = fastConfig().withMaxK(9);

    // Merkle keying: dependents inherit the change through their
    // upstream keys without hashing upstream *values*.
    EXPECT_NE(keyOf(base, ArtifactKind::SimPoints),
              keyOf(moreK, ArtifactKind::SimPoints));
    EXPECT_NE(keyOf(base, ArtifactKind::PointsCacheCold),
              keyOf(moreK, ArtifactKind::PointsCacheCold));
    EXPECT_NE(keyOf(base, ArtifactKind::PointsTiming),
              keyOf(moreK, ArtifactKind::PointsTiming));
    EXPECT_EQ(keyOf(base, ArtifactKind::WholeCache),
              keyOf(moreK, ArtifactKind::WholeCache));
    EXPECT_EQ(keyOf(base, ArtifactKind::Native),
              keyOf(moreK, ArtifactKind::Native));
}

TEST(ArtifactKeys, CostModelKeysNoArtifact)
{
    // The replay cost model only shapes derived report columns, so
    // no cached artifact may depend on it.
    ExperimentConfig base = fastConfig();
    ReplayCostModel cost;
    cost.wholeRate *= 2.0;
    ExperimentConfig priced = fastConfig().withCost(cost);
    for (std::size_t k = 0; k < kNumArtifactKinds; ++k) {
        ArtifactKind kind = static_cast<ArtifactKind>(k);
        EXPECT_EQ(keyOf(base, kind), keyOf(priced, kind))
            << artifactKindName(kind);
    }
    // ...but the whole-experiment hash must still see it.
    EXPECT_NE(base.contentHash(), priced.contentHash());
}

TEST(ExperimentConfigHash, EveryFieldChangesTheHash)
{
    ExperimentConfig base = fastConfig();
    std::vector<ExperimentConfig> variants;
    variants.push_back(fastConfig().withMaxK(7));
    variants.push_back(fastConfig().withSliceInstrs(
        base.simpoint.sliceInstrs + 1000));
    variants.push_back(fastConfig().withSeed(base.simpoint.seed + 1));
    variants.push_back(fastConfig().withWarmupChunks(
        base.warmupChunks + 1));
    {
        ExperimentConfig c = fastConfig();
        c.allcache.l1d.sizeBytes *= 2;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.allcache.l2.ways *= 2;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.allcache.l3.lineBytes *= 2;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.allcache.l1i.replacement = ReplacementPolicy::FIFO;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.machine.caches.l3.replacement = ReplacementPolicy::FIFO;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.machine.robEntries += 32;
        variants.push_back(c);
    }
    variants.push_back(fastConfig().withStrategy("smarts"));
    {
        // Inactive-strategy knobs still count for the whole-
        // experiment hash (per-node keys ignore them; see
        // test_sampling.cc).
        ExperimentConfig c = fastConfig();
        c.sampling.smarts.munit += 1;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.sampling.stratified.strata += 1;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.sampling.rankedSet.subsamples += 1;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.cost.regionalRate *= 1.5;
        variants.push_back(c);
    }
    {
        ExperimentConfig c = fastConfig();
        c.cost.pinballStartup += 1.0;
        variants.push_back(c);
    }

    std::set<u64> hashes = {base.contentHash()};
    for (std::size_t i = 0; i < variants.size(); ++i) {
        u64 h = variants[i].contentHash();
        EXPECT_NE(h, base.contentHash()) << "variant " << i;
        hashes.insert(h);
    }
    // All pairwise distinct, not just distinct from the baseline.
    EXPECT_EQ(hashes.size(), variants.size() + 1);
}

/** Wall-time-free bytes of every target artifact of @p g. */
std::vector<u8>
graphResultBytes(ArtifactGraph &g)
{
    ByteWriter w;
    for (const std::string &b : kBenches) {
        ByteWriter sp;
        serializeArtifact(sp, g.simpoints(b));
        w.putVector(sp.bytes());

        const CacheRunMetrics &whole = g.wholeCache(b);
        w.put<u64>(whole.instrs);
        for (double f : whole.mixFrac)
            w.put<double>(f);
        for (const LevelCounts *lc :
             {&whole.l1i, &whole.l1d, &whole.l2, &whole.l3}) {
            w.put<u64>(lc->accesses);
            w.put<u64>(lc->misses);
        }
        w.put<u64>(whole.branches);

        for (const PointCacheMetrics &p : g.pointsCacheCold(b)) {
            w.put<double>(p.weight);
            w.put<u64>(p.m.instrs);
            w.put<u64>(p.m.l3.accesses);
            w.put<u64>(p.m.l3.misses);
        }
    }
    return w.bytes();
}

TEST(ArtifactGraphScheduling, RunSuiteThreadCountInvariant)
{
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::SimPoints, ArtifactKind::WholeCache,
        ArtifactKind::PointsCacheCold};

    std::vector<std::vector<u8>> blobs;
    std::vector<std::map<std::string, u64>> counters;
    for (std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        obs::resetCounters();
        ArtifactGraph g(fastConfig(),
                        std::make_shared<const ArtifactCache>(
                            ArtifactCache("")));
        g.runSuite(kBenches, targets);
        blobs.push_back(graphResultBytes(g));

        std::map<std::string, u64> graphStats;
        for (const auto &kv : obs::counterSnapshot())
            if (kv.first.rfind("graph.", 0) == 0)
                graphStats[kv.first] = kv.second;
        counters.push_back(graphStats);
    }
    ThreadPool::setGlobalThreads(0);

    ASSERT_FALSE(blobs[0].empty());
    EXPECT_EQ(blobs[0], blobs[1]);
    EXPECT_EQ(blobs[0], blobs[2]);

    // Counters accumulate work performed, never scheduling: the
    // snapshots must match across thread counts too.
    EXPECT_EQ(counters[0], counters[1]);
    EXPECT_EQ(counters[0], counters[2]);
    // spec, bbv, sp, regions, fused, whole-cache projection,
    // regional pinball, cold replays
    EXPECT_EQ(counters[0].at("graph.nodes_computed"),
              kBenches.size() * 8);
    EXPECT_EQ(counters[0].at("graph.tasks_scheduled"),
              kBenches.size() * targets.size());
}

TEST(ArtifactGraphScheduling, SingleFlightUnderConcurrentRequests)
{
    ThreadPool::setGlobalThreads(8);
    obs::resetCounters();
    ArtifactGraph g(fastConfig(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));

    // 16 concurrent requests for the same node: exactly one
    // computation, every caller sees the same stored value.
    std::atomic<const SimPointResult *> first{nullptr};
    std::atomic<int> mismatches{0};
    parallelFor(16, [&](std::size_t) {
        const SimPointResult &r = g.simpoints(kBenches[0]);
        const SimPointResult *expected = nullptr;
        if (!first.compare_exchange_strong(expected, &r) &&
            expected != &r)
            mismatches.fetch_add(1);
    });
    ThreadPool::setGlobalThreads(0);

    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(obs::counterSnapshot().at("graph.nodes_computed"),
              3u); // spec, bbv profile, simpoints — each once
}

TEST(ArtifactGraphCache, ColdThenWarmRunsAreByteIdentical)
{
    std::string dir = testing::TempDir() + "/splab-graph-cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::vector<ArtifactKind> targets = {
        ArtifactKind::SimPoints, ArtifactKind::WholeCache,
        ArtifactKind::PointsCacheCold};

    obs::resetCounters();
    ArtifactGraph cold(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache(dir)));
    cold.runSuite(kBenches, targets);
    std::vector<u8> coldBytes = graphResultBytes(cold);
    u64 coldHits = obs::counterSnapshot().at("graph.cache_hits");
    EXPECT_EQ(coldHits, 0u);

    obs::resetCounters();
    ArtifactGraph warm(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache(dir)));
    warm.runSuite(kBenches, targets);
    std::vector<u8> warmBytes = graphResultBytes(warm);

    EXPECT_EQ(coldBytes, warmBytes);
    // Persisted targets come back from disk; only the memory-only
    // upstream (spec) is recomputed.  A warm simpoints hit must not
    // recompute the BBV profile.
    auto stats = obs::counterSnapshot();
    EXPECT_EQ(stats.at("graph.cache_hits"), kBenches.size() * 3);
    EXPECT_EQ(stats.at("graph.nodes_computed"), kBenches.size());

    // Same config in a third instance: keys resolve to the same
    // blobs without touching artifact values at all.
    ArtifactGraph probe(fastConfig(),
                        std::make_shared<const ArtifactCache>(
                            ArtifactCache(dir)));
    EXPECT_EQ(probe.artifactKey(kBenches[0],
                                ArtifactKind::PointsCacheCold),
              cold.artifactKey(kBenches[0],
                               ArtifactKind::PointsCacheCold));
    std::filesystem::remove_all(dir);
}

/**
 * Raw bytes of every *blob* file in @p dir, keyed by filename.  The
 * cache's bookkeeping files ("index.bin", "index.lock") are skipped:
 * the index records scheduling-dependent last-use stamps, so only
 * the content-addressed blobs are comparable across runs and thread
 * counts.
 */
std::map<std::string, std::vector<char>>
dirContents(const std::string &dir)
{
    std::map<std::string, std::vector<char>> out;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (name.rfind("index.", 0) == 0)
            continue;
        std::ifstream f(e.path(), std::ios::binary);
        out[name] = {std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>()};
    }
    return out;
}

u64
counterOr0(const std::map<std::string, u64> &snap, const char *name)
{
    auto it = snap.find(name);
    return it == snap.end() ? 0 : it->second;
}

std::vector<u8>
fusedBytes(ArtifactGraph &g)
{
    ByteWriter w;
    for (const std::string &b : kBenches) {
        w.put(g.wholeFused(b));
        w.put(g.wholeCache(b));
        w.put(g.wholeTiming(b));
    }
    return w.bytes();
}

/**
 * Like fusedBytes() but with the wall-clock fields zeroed.  Blob
 * bytes carry wallSeconds verbatim (warm loads must reproduce the
 * measuring run's timing), so exact byte equality only holds between
 * a store and its warm load; across *independent computes* the
 * determinism contract — like graphResultBytes and the manifest
 * timing section — excludes wall time.
 */
std::vector<u8>
fusedStableBytes(ArtifactGraph &g)
{
    ByteWriter w;
    auto putCache = [&](CacheRunMetrics m) {
        m.wallSeconds = 0.0;
        w.put(m);
    };
    auto putTiming = [&](TimingRunMetrics m) {
        m.wallSeconds = 0.0;
        w.put(m);
    };
    for (const std::string &b : kBenches) {
        putCache(g.wholeFused(b).cache);
        putTiming(g.wholeFused(b).timing);
        putCache(g.wholeCache(b));
        putTiming(g.wholeTiming(b));
    }
    return w.bytes();
}

const std::vector<ArtifactKind> kWholeTargets = {
    ArtifactKind::WholeFused, ArtifactKind::WholeCache,
    ArtifactKind::WholeTiming};

TEST(FusedPersistence, WarmRunSkipsFusedTraversal)
{
    std::string dir = testing::TempDir() + "/splab-fused-cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    obs::resetCounters();
    ArtifactGraph cold(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache(dir)));
    cold.runSuite(kBenches, kWholeTargets);
    std::vector<u8> coldBytes = fusedBytes(cold);
    auto coldStats = obs::counterSnapshot();
    // Each projection's single sub-blob was already stored by the
    // fused node (its serialization is their concatenation): exactly
    // two share hits per benchmark, and only two shared files plus
    // three ref blobs per benchmark on disk.
    EXPECT_EQ(counterOr0(coldStats, "artifact_cache.blob_share_hits"),
              kBenches.size() * 2);
    auto coldFiles = dirContents(dir);
    std::size_t sharedFiles = 0;
    for (const auto &kv : coldFiles)
        if (kv.first.rfind("shared-", 0) == 0)
            ++sharedFiles;
    EXPECT_EQ(sharedFiles, kBenches.size() * 2);

    obs::resetCounters();
    ArtifactGraph warm(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache(dir)));
    warm.runSuite(kBenches, kWholeTargets);
    EXPECT_EQ(fusedBytes(warm), coldBytes);

    auto warmStats = obs::counterSnapshot();
    // All three whole-run nodes come back from disk; only the spec
    // (needed for keying) is recomputed — the warm run performs no
    // fused traversal at all.
    EXPECT_EQ(counterOr0(warmStats, "graph.cache_hits"),
              kBenches.size() * 3);
    EXPECT_EQ(counterOr0(warmStats, "graph.nodes_computed"),
              kBenches.size());
    EXPECT_EQ(counterOr0(warmStats, "pin.windows"), 0u);
    EXPECT_EQ(counterOr0(warmStats, "pin.chunks_replayed"), 0u);
    EXPECT_EQ(counterOr0(warmStats, "graph.shared_blob_fallbacks"),
              0u);

    // The warm run must not have rewritten or perturbed any blob.
    EXPECT_EQ(dirContents(dir), coldFiles);
    std::filesystem::remove_all(dir);
}

TEST(FusedPersistence, BlobLayoutAndCountersThreadCountInvariant)
{
    std::vector<std::set<std::string>> refNames;
    std::vector<std::size_t> sharedCounts;
    std::vector<u64> shareHits;
    std::vector<std::vector<u8>> values;
    for (std::size_t threads : {1u, 2u, 8u}) {
        std::string dir = testing::TempDir() +
                          "/splab-fused-threads-" +
                          std::to_string(threads);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        ThreadPool::setGlobalThreads(threads);
        obs::resetCounters();
        ArtifactGraph g(fastConfig(),
                        std::make_shared<const ArtifactCache>(
                            ArtifactCache(dir)));
        g.runSuite(kBenches, kWholeTargets);
        values.push_back(fusedStableBytes(g));
        std::set<std::string> refs;
        std::size_t shared = 0;
        for (const auto &kv : dirContents(dir)) {
            if (kv.first.rfind("shared-", 0) == 0)
                ++shared;
            else
                refs.insert(kv.first);
        }
        refNames.push_back(refs);
        sharedCounts.push_back(shared);
        shareHits.push_back(counterOr0(
            obs::counterSnapshot(), "artifact_cache.blob_share_hits"));
        std::filesystem::remove_all(dir);
    }
    ThreadPool::setGlobalThreads(0);

    // Same stable value bytes, same key-addressed blob names, same
    // sub-blob count and share-hit count at every thread count.
    // (Shared filenames are content hashes over bytes that include
    // the measuring run's wall time, so only their count is
    // comparable across independent runs.)
    EXPECT_EQ(values[0], values[1]);
    EXPECT_EQ(values[0], values[2]);
    EXPECT_EQ(refNames[0], refNames[1]);
    EXPECT_EQ(refNames[0], refNames[2]);
    EXPECT_EQ(sharedCounts[0], kBenches.size() * 2);
    EXPECT_EQ(sharedCounts[1], sharedCounts[0]);
    EXPECT_EQ(sharedCounts[2], sharedCounts[0]);
    EXPECT_EQ(shareHits[0], kBenches.size() * 2);
    EXPECT_EQ(shareHits[1], shareHits[0]);
    EXPECT_EQ(shareHits[2], shareHits[0]);
}

TEST(FusedPersistence, CorruptSharedBlobRecomputesAndHeals)
{
    std::string dir = testing::TempDir() + "/splab-fused-corrupt";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ThreadPool::setGlobalThreads(1);

    ArtifactGraph cold(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache(dir)));
    cold.runSuite(kBenches, kWholeTargets);
    std::vector<u8> coldStable = fusedStableBytes(cold);

    // Trash every shared sub-blob (truncated garbage).
    std::size_t corrupted = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().filename().string().rfind("shared-", 0) == 0) {
            std::ofstream f(e.path(), std::ios::binary |
                                          std::ios::trunc);
            f << "garbage";
            ++corrupted;
        }
    ASSERT_EQ(corrupted, kBenches.size() * 2);

    obs::resetCounters();
    ArtifactGraph warm(fastConfig(),
                       std::make_shared<const ArtifactCache>(
                           ArtifactCache(dir)));
    // Degrades to recompute — identical values modulo wall time, no
    // crash — and the recompute's store writes fresh sub-blobs and
    // re-points every ref blob at them.
    EXPECT_EQ(fusedStableBytes(warm), coldStable);
    std::vector<u8> warmExact = fusedBytes(warm);
    auto stats = obs::counterSnapshot();
    EXPECT_GE(counterOr0(stats, "graph.shared_blob_fallbacks"), 1u);

    // Healed: a third instance is a clean warm run again, loading
    // the recomputed bytes verbatim.
    obs::resetCounters();
    ArtifactGraph again(fastConfig(),
                        std::make_shared<const ArtifactCache>(
                            ArtifactCache(dir)));
    EXPECT_EQ(fusedBytes(again), warmExact);
    auto cleanStats = obs::counterSnapshot();
    EXPECT_EQ(counterOr0(cleanStats, "graph.shared_blob_fallbacks"),
              0u);
    EXPECT_EQ(counterOr0(cleanStats, "pin.windows"), 0u);

    ThreadPool::setGlobalThreads(0);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactGraphManifest, RecordsDependencyClosure)
{
    ArtifactGraph g(fastConfig(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));
    obs::RunManifest m("test");
    g.recordArtifacts(m, {kBenches[0]},
                      {ArtifactKind::PointsCacheCold});
    std::string json = m.renderDeterministic();
    // Target plus its transitive upstreams, nothing else.
    EXPECT_NE(json.find("\"pointscold/" + kBenches[0] + "\""),
              std::string::npos);
    // Region selection is in the closure (strategy-qualified blob
    // family); the SimPoints node is not — Regions declares its
    // value dependency on the BBV profile, not on how the simpoint
    // strategy's compute routes.
    EXPECT_NE(json.find("\"regions_simpoint/" + kBenches[0] + "\""),
              std::string::npos);
    EXPECT_EQ(json.find("\"simpoints/"), std::string::npos);
    EXPECT_NE(json.find("\"bbvprofile/" + kBenches[0] + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"spec/" + kBenches[0] + "\""),
              std::string::npos);
    EXPECT_EQ(json.find("\"wholecache/"), std::string::npos);
    EXPECT_EQ(json.find("\"pointswarm/"), std::string::npos);
}

TEST(ArtifactGraphSerialization, RoundTripsEveryKind)
{
    ArtifactGraph g(fastConfig(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));
    const std::string &b = kBenches[0];
    g.runSuite({b}, {ArtifactKind::PointsCacheCold});

    auto roundTrip = [&](ArtifactKind kind, const ArtifactValue &v) {
        ByteWriter w;
        serializeArtifact(w, v);
        ByteReader r(w.bytes());
        ArtifactValue back = deserializeArtifact(kind, r);
        ByteWriter w2;
        serializeArtifact(w2, back);
        EXPECT_EQ(w.bytes(), w2.bytes()) << artifactKindName(kind);
    };
    roundTrip(ArtifactKind::Spec, g.spec(b));
    roundTrip(ArtifactKind::BbvProfile, g.bbvProfile(b));
    roundTrip(ArtifactKind::SimPoints, g.simpoints(b));
    roundTrip(ArtifactKind::Regions, g.regions(b));
    roundTrip(ArtifactKind::PointsCacheCold, g.pointsCacheCold(b));
}

} // namespace
} // namespace splab
