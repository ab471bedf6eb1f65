/**
 * @file
 * The splabd artifact service's contracts: defensive wire-protocol
 * encode/decode, ExperimentConfig wire round-trips, a daemon that
 * serves byte-identical artifact payloads and survives malformed or
 * invalid requests, transparent RemoteBackend operation through
 * SPLAB_SERVICE (including local fallback when no daemon answers),
 * per-config graph isolation, handler-thread reaping across many
 * sequential connections, persistent client connections (one per
 * client, one per concurrent caller, retried across a daemon
 * restart or an idle deadline), the daemon's per-connection
 * deadline, and global coalescing of concurrent cold requests
 * across client connections.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_graph.hh"
#include "obs/counters.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "support/env.hh"
#include "support/serialize.hh"

namespace splab
{
namespace
{

namespace fs = std::filesystem;
using service::Op;
using service::Request;
using service::ResponseHeader;
using service::ServiceClient;
using service::ServiceDaemon;
using service::Status;

// Miniature workloads everywhere (see test_artifact_graph.cc).
[[maybe_unused]] const bool kScaleSet = [] {
    setenv("SPLAB_SCALE", "0.05", 1);
    return true;
}();

/** Smallest whole-run benchmark (fewest slices). */
const std::string kBench = "620.omnetpp_s";

ExperimentConfig
fastConfig()
{
    return ExperimentConfig::paperDefaults().withMaxK(6);
}

/** Short socket path (AF_UNIX limit): /tmp/splab-<pid>-<tag>.sock */
std::string
sockPath(const std::string &tag)
{
    std::string p = "/tmp/splab-" + std::to_string(getpid()) + "-" +
                    tag + ".sock";
    fs::remove(p);
    return p;
}

std::string
freshDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "/splab-service-" + tag;
    fs::remove_all(dir);
    return dir;
}

std::vector<u8>
wireConfig(const ExperimentConfig &cfg)
{
    ByteWriter w;
    cfg.serialize(w);
    return w.bytes();
}

/** A config one out-of-range field away from fastConfig(), and the
 *  artifact whose compute path asserts on that field. */
struct BadConfig
{
    const char *what;
    ExperimentConfig cfg;
    ArtifactKind kind;
};

std::vector<BadConfig>
outOfRangeConfigs()
{
    std::vector<BadConfig> out;
    auto add = [&](const char *what, ArtifactKind kind, auto poke) {
        ExperimentConfig c = fastConfig();
        poke(c);
        out.push_back({what, c, kind});
    };
    // First: aborted a daemon that accepted it.
    add("predictor history bits", ArtifactKind::WholeTiming,
        [](ExperimentConfig &c) { c.machine.predictorHistoryBits = 2; });
    add("predictor history bits (high)", ArtifactKind::WholeTiming,
        [](ExperimentConfig &c) { c.machine.predictorHistoryBits = 25; });
    add("zero ways", ArtifactKind::WholeCache,
        [](ExperimentConfig &c) { c.allcache.l1d.ways = 0; });
    add("line size", ArtifactKind::WholeCache,
        [](ExperimentConfig &c) { c.allcache.l2.lineBytes = 48; });
    add("set count", ArtifactKind::WholeCache,
        [](ExperimentConfig &c) { c.allcache.l3.sizeBytes *= 3; });
    add("timing cache geometry", ArtifactKind::WholeTiming,
        [](ExperimentConfig &c) { c.machine.caches.l1i.ways = 0; });
    add("zero slice", ArtifactKind::BbvProfile,
        [](ExperimentConfig &c) { c.simpoint.sliceInstrs = 0; });
    add("partial-chunk slice", ArtifactKind::BbvProfile,
        [](ExperimentConfig &c) { c.simpoint.sliceInstrs = 10500; });
    add("zero projection dims", ArtifactKind::SimPoints,
        [](ExperimentConfig &c) { c.simpoint.projectionDim = 0; });
    add("projection dims", ArtifactKind::SimPoints,
        [](ExperimentConfig &c) { c.simpoint.projectionDim = 257; });
    add("zero restarts", ArtifactKind::SimPoints,
        [](ExperimentConfig &c) { c.simpoint.restarts = 0; });
    add("zero max k", ArtifactKind::SimPoints,
        [](ExperimentConfig &c) { c.simpoint.maxK = 0; });
    add("zero random n", ArtifactKind::Regions,
        [](ExperimentConfig &c) {
            c.withStrategy(StrategyKind::Random).sampling.random.n = 0;
        });
    add("zero stride n", ArtifactKind::Regions,
        [](ExperimentConfig &c) {
            c.withStrategy(StrategyKind::Stride).sampling.stride.n = 0;
        });
    return out;
}

Request
ensureRequest(const ExperimentConfig &cfg, const std::string &bench,
              ArtifactKind kind)
{
    Request r;
    r.op = Op::Ensure;
    r.benchmark = bench;
    r.kind = static_cast<u8>(kind);
    r.configHash = cfg.contentHash();
    r.scale = workloadScale();
    r.config = wireConfig(cfg);
    return r;
}

/** One raw request/response exchange on a fresh connection. */
bool
rawExchange(const std::string &sockPath, const Request &req,
            ResponseHeader &header)
{
    int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sockPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    bool ok = connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0;
    std::vector<u8> frame = service::encodeRequest(req);
    ok = ok && service::sendFrame(fd, frame.data(), frame.size());
    std::vector<u8> reply;
    ok = ok && service::recvFrame(fd, reply) &&
         service::decodeResponseHeader(reply, header);
    close(fd);
    return ok;
}

TEST(Protocol, RequestRoundTripsEveryOp)
{
    for (Op op : {Op::Ping, Op::Stats, Op::Shutdown}) {
        Request in;
        in.op = op;
        Request out;
        ASSERT_TRUE(
            service::decodeRequest(service::encodeRequest(in), out));
        EXPECT_EQ(out.op, op);
    }

    Request in = ensureRequest(fastConfig(), kBench,
                               ArtifactKind::SimPoints);
    Request out;
    ASSERT_TRUE(
        service::decodeRequest(service::encodeRequest(in), out));
    EXPECT_EQ(out.op, Op::Ensure);
    EXPECT_EQ(out.benchmark, kBench);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.configHash, in.configHash);
    EXPECT_DOUBLE_EQ(out.scale, in.scale);
    EXPECT_EQ(out.config, in.config);
}

TEST(Protocol, EvictRoundTripsAndRejectsTruncation)
{
    Request in;
    in.op = Op::Evict;
    in.evictBytes = 0x1234567890abcdefULL;
    Request out;
    ASSERT_TRUE(
        service::decodeRequest(service::encodeRequest(in), out));
    EXPECT_EQ(out.op, Op::Evict);
    EXPECT_EQ(out.evictBytes, in.evictBytes);

    // Every truncation of a valid Evict frame must be rejected.
    std::vector<u8> good = service::encodeRequest(in);
    for (std::size_t n = 0; n < good.size(); ++n) {
        std::vector<u8> cut(good.begin(), good.begin() + n);
        EXPECT_FALSE(service::decodeRequest(cut, out)) << n;
    }
}

TEST(Protocol, DecodeRejectsMalformedFrames)
{
    Request out;
    // Empty, garbage, wrong magic, wrong version.
    EXPECT_FALSE(service::decodeRequest({}, out));
    EXPECT_FALSE(service::decodeRequest({1, 2, 3}, out));
    std::vector<u8> good =
        service::encodeRequest(ensureRequest(fastConfig(), kBench,
                                             ArtifactKind::SimPoints));
    std::vector<u8> bad = good;
    bad[0] ^= 0xff; // magic
    EXPECT_FALSE(service::decodeRequest(bad, out));
    bad = good;
    bad[4] ^= 0xff; // version
    EXPECT_FALSE(service::decodeRequest(bad, out));
    // Every possible truncation of a valid Ensure frame must be
    // rejected, never crash or accept.
    for (std::size_t n = 0; n < good.size(); ++n) {
        std::vector<u8> cut(good.begin(), good.begin() + n);
        EXPECT_FALSE(service::decodeRequest(cut, out)) << n;
    }
}

TEST(Protocol, ResponseHeaderRoundTripsAndRejectsGarbage)
{
    ResponseHeader ok;
    ok.status = Status::Ok;
    ok.payloadBytes = 123456789;
    ResponseHeader out;
    ASSERT_TRUE(service::decodeResponseHeader(
        service::encodeResponseHeader(ok), out));
    EXPECT_EQ(out.status, Status::Ok);
    EXPECT_EQ(out.payloadBytes, 123456789u);

    ResponseHeader err;
    err.status = Status::Error;
    err.error = "unknown benchmark";
    ASSERT_TRUE(service::decodeResponseHeader(
        service::encodeResponseHeader(err), out));
    EXPECT_EQ(out.status, Status::Error);
    EXPECT_EQ(out.error, "unknown benchmark");

    EXPECT_FALSE(service::decodeResponseHeader({}, out));
    EXPECT_FALSE(service::decodeResponseHeader({9, 9, 9, 9}, out));
}

TEST(ConfigWire, RoundTripPreservesContentHash)
{
    ExperimentConfig cfg = fastConfig();
    cfg.sampling.strategy = StrategyKind::Stratified;
    cfg.sampling.stratified.strata = 5;
    std::vector<u8> bytes = wireConfig(cfg);

    ExperimentConfig back;
    ByteReader r(bytes);
    ASSERT_TRUE(ExperimentConfig::deserialize(r, back));
    EXPECT_EQ(back.contentHash(), cfg.contentHash());
    EXPECT_EQ(back.sampling.strategy, StrategyKind::Stratified);
}

TEST(ConfigWire, DeserializeIsDefensive)
{
    std::vector<u8> bytes = wireConfig(fastConfig());
    ExperimentConfig out;
    // Truncations at a few interesting depths.
    for (std::size_t n :
         {std::size_t(0), std::size_t(1), bytes.size() / 4,
          bytes.size() / 2, bytes.size() - 1}) {
        std::vector<u8> cut(bytes.begin(), bytes.begin() + n);
        ByteReader r(cut);
        EXPECT_FALSE(ExperimentConfig::deserialize(r, out)) << n;
    }
    // Wrong wire version.
    std::vector<u8> bad = bytes;
    bad[0] ^= 0xff;
    ByteReader r(bad);
    EXPECT_FALSE(ExperimentConfig::deserialize(r, out));
    // Trailing garbage (atEnd is part of the contract).
    std::vector<u8> longer = bytes;
    longer.push_back(0);
    ByteReader r2(longer);
    EXPECT_FALSE(ExperimentConfig::deserialize(r2, out));
    // Well-formed bytes, but a value the compute path asserts on.
    for (const BadConfig &b : outOfRangeConfigs()) {
        std::vector<u8> wire = wireConfig(b.cfg);
        ByteReader rb(wire);
        EXPECT_FALSE(ExperimentConfig::deserialize(rb, out)) << b.what;
    }
}

TEST(Daemon, ServesBytesIdenticalToLocalAndAnswersStats)
{
    ExperimentConfig cfg = fastConfig();
    ServiceDaemon daemon(sockPath("serve"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(freshDir("serve"))));
    ASSERT_TRUE(daemon.start());
    ServiceClient client(daemon.path());
    EXPECT_TRUE(client.ping());

    auto remote = client.ensureArtifact(
        kBench, static_cast<u8>(ArtifactKind::SimPoints),
        cfg.contentHash(), wireConfig(cfg));
    ASSERT_TRUE(remote.has_value());

    ArtifactGraph local(cfg, std::make_shared<const ArtifactCache>(
                                 ArtifactCache("")));
    EXPECT_EQ(*remote,
              local.ensureSerialized(kBench, ArtifactKind::SimPoints));

    auto stats = client.stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_TRUE(stats->count("graph.nodes_computed"));
    EXPECT_TRUE(stats->count("artifact_cache.hits"));
    EXPECT_EQ(daemon.graphCount(), 1u);
    daemon.stop();
    EXPECT_FALSE(client.ping());
}

TEST(Daemon, RejectsInvalidRequestsAndSurvives)
{
    ExperimentConfig cfg = fastConfig();
    ServiceDaemon daemon(sockPath("reject"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(freshDir("reject"))));
    ASSERT_TRUE(daemon.start());
    ServiceClient client(daemon.path());

    // Unknown benchmark, out-of-range kind, config-hash mismatch,
    // undecodable config blob: all must come back as clean errors.
    EXPECT_FALSE(client
                     .ensureArtifact("999.nonesuch_s", 2,
                                     cfg.contentHash(),
                                     wireConfig(cfg))
                     .has_value());
    EXPECT_FALSE(client
                     .ensureArtifact(kBench, 250, cfg.contentHash(),
                                     wireConfig(cfg))
                     .has_value());
    EXPECT_FALSE(client
                     .ensureArtifact(kBench, 2,
                                     cfg.contentHash() ^ 1,
                                     wireConfig(cfg))
                     .has_value());
    EXPECT_FALSE(
        client.ensureArtifact(kBench, 2, cfg.contentHash(), {1, 2, 3})
            .has_value());
    // Decodable configs with a matching hash but an out-of-range
    // field: refused up front, never computed (which would abort
    // the daemon for every client).
    for (const BadConfig &b : outOfRangeConfigs()) {
        ResponseHeader h;
        ASSERT_TRUE(rawExchange(daemon.path(),
                                ensureRequest(b.cfg, kBench, b.kind),
                                h))
            << b.what;
        EXPECT_EQ(h.status, Status::Error) << b.what;
        EXPECT_EQ(h.error, "undecodable experiment config") << b.what;
    }
    EXPECT_EQ(daemon.graphCount(), 0u);
    // A valid config whose slice outlasts this benchmark's run: the
    // BBV profile would be empty.
    ExperimentConfig longSlice =
        fastConfig().withSliceInstrs(1000 * 1000 * 1000);
    ResponseHeader h;
    ASSERT_TRUE(rawExchange(
        daemon.path(),
        ensureRequest(longSlice, kBench, ArtifactKind::SimPoints), h));
    EXPECT_EQ(h.status, Status::Error);
    EXPECT_NE(h.error.find("slice longer than the run"),
              std::string::npos)
        << h.error;
    EXPECT_TRUE(client.ping());
    daemon.stop();
}

TEST(Daemon, RefusesWorkloadScaleMismatch)
{
    // SPLAB_SCALE is process environment, not ExperimentConfig: a
    // daemon at a different scale holds differently-sized workloads
    // and must refuse rather than serve mismatched bytes (the
    // client's RemoteBackend then falls back to local).
    ExperimentConfig cfg = fastConfig();
    ServiceDaemon daemon(sockPath("scale"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(freshDir("scale"))));
    ASSERT_TRUE(daemon.start());

    Request req = ensureRequest(cfg, kBench,
                                ArtifactKind::SimPoints);
    req.scale = workloadScale() * 2;
    ResponseHeader h;
    ASSERT_TRUE(rawExchange(daemon.path(), req, h));
    EXPECT_EQ(h.status, Status::Error);
    EXPECT_NE(h.error.find("scale"), std::string::npos) << h.error;
    EXPECT_EQ(daemon.graphCount(), 0u);
    EXPECT_TRUE(ServiceClient(daemon.path()).ping());
    daemon.stop();
}

TEST(Daemon, SurvivesRawMalformedFrame)
{
    ServiceDaemon daemon(sockPath("raw"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    ASSERT_TRUE(daemon.start());

    int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, daemon.path().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)),
              0);
    const char junk[] = "this is not a request frame";
    ASSERT_TRUE(service::sendFrame(fd, junk, sizeof(junk)));
    // The daemon answers with an error header and drops the
    // connection — and keeps serving afterwards.
    std::vector<u8> frame;
    if (service::recvFrame(fd, frame)) {
        ResponseHeader h;
        ASSERT_TRUE(service::decodeResponseHeader(frame, h));
        EXPECT_EQ(h.status, Status::Error);
    }
    close(fd);
    EXPECT_TRUE(ServiceClient(daemon.path()).ping());
    daemon.stop();
}

TEST(Daemon, EvictsCacheToBudgetAndReportsOutcome)
{
    ExperimentConfig cfg = fastConfig();
    ServiceDaemon daemon(sockPath("evict"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(freshDir("evict"))));
    ASSERT_TRUE(daemon.start());
    ServiceClient client(daemon.path());

    // Populate the daemon's cache, then evict everything (budget 0).
    ASSERT_TRUE(client
                    .ensureArtifact(
                        kBench,
                        static_cast<u8>(ArtifactKind::SimPoints),
                        cfg.contentHash(), wireConfig(cfg))
                    .has_value());
    u64 resident = daemon.artifactCache().usage().residentBytes;
    ASSERT_GT(resident, 0u);

    // A generous budget evicts nothing.
    auto noop = client.evict(resident);
    ASSERT_TRUE(noop.has_value());
    EXPECT_EQ(noop->residentBefore, resident);
    EXPECT_EQ(noop->residentAfter, resident);

    auto all = client.evict(0);
    ASSERT_TRUE(all.has_value());
    EXPECT_EQ(all->residentBefore, resident);
    EXPECT_EQ(all->residentAfter, 0u);
    EXPECT_EQ(all->artifacts, 0u);
    EXPECT_EQ(daemon.artifactCache().usage().residentBytes, 0u);

    // The admin op is tallied and the daemon keeps serving.
    auto stats = client.stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_GE((*stats)["service.evict_requests"], 2u);
    EXPECT_TRUE(client.ping());
    daemon.stop();
}

TEST(Daemon, EvictOnDisabledCacheIsCleanError)
{
    ServiceDaemon daemon(sockPath("evictoff"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    ASSERT_TRUE(daemon.start());
    ServiceClient client(daemon.path());
    EXPECT_FALSE(client.evict(0).has_value());
    EXPECT_TRUE(client.ping());
    daemon.stop();
}

TEST(ServiceClientApi, EvictWithoutDaemonIsNullopt)
{
    EXPECT_FALSE(ServiceClient("/tmp/splab-no-such-daemon.sock")
                     .evict(0)
                     .has_value());
}

TEST(Daemon, ShutdownRequestIsSurfacedToOwner)
{
    ServiceDaemon daemon(sockPath("shutdown"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    ASSERT_TRUE(daemon.start());
    EXPECT_FALSE(daemon.shutdownRequested());
    EXPECT_TRUE(ServiceClient(daemon.path()).requestShutdown());
    EXPECT_TRUE(daemon.shutdownRequested());
    daemon.stop();
}

/** Entries under a /proc/self directory (threads, mappings...). */
std::size_t
procEntries(const char *path)
{
    std::size_t n = 0;
    for (const auto &e : fs::directory_iterator(path)) {
        (void)e;
        ++n;
    }
    return n;
}

/** Memory mappings of this process; each unjoined exited thread
 *  still holds its stack and guard mappings. */
std::size_t
procMaps()
{
    std::ifstream in("/proc/self/maps");
    std::size_t n = 0;
    for (std::string line; std::getline(in, line);)
        ++n;
    return n;
}

TEST(Daemon, ReapsHandlerThreadsAcrossManySequentialRequests)
{
    // One-shot callers (splabd --stats, say) build a client per
    // request, so each request is its own connection.  A daemon that
    // kept every finished handler thread until stop() would grow one
    // thread stack per connection and eventually fail to spawn
    // handlers; live handler threads must track open connections.
    ServiceDaemon daemon(sockPath("reap"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    ASSERT_TRUE(daemon.start());
    ASSERT_TRUE(ServiceClient(daemon.path()).ping());
    const std::size_t baseTasks = procEntries("/proc/self/task");
    const std::size_t baseMaps = procMaps();
    std::size_t failed = 0, peakTasks = 0, peakMaps = 0;
    for (int i = 0; i < 5000; ++i) {
        failed += ServiceClient(daemon.path()).ping() ? 0 : 1;
        if (i % 250 == 0) {
            peakTasks = std::max(peakTasks,
                                 procEntries("/proc/self/task"));
            peakMaps = std::max(peakMaps, procMaps());
        }
    }
    EXPECT_EQ(failed, 0u);
    EXPECT_LE(peakTasks, baseTasks + 4);
    EXPECT_LE(peakMaps, baseMaps + 256);
    daemon.stop();
}

u64
connectionsAccepted()
{
    return obs::counter("service.connections").value();
}

TEST(Daemon, PersistentClientReusesOneConnection)
{
    ExperimentConfig cfg = fastConfig();
    ServiceDaemon daemon(sockPath("persist"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(freshDir("persist"))));
    ASSERT_TRUE(daemon.start());
    const u64 before = connectionsAccepted();
    ServiceClient client(daemon.path());
    std::size_t failed = 0;
    for (int i = 0; i < 1000; ++i)
        failed += client
                          .ensureArtifact(
                              kBench,
                              static_cast<u8>(ArtifactKind::SimPoints),
                              cfg.contentHash(), wireConfig(cfg))
                          .has_value()
                      ? 0
                      : 1;
    EXPECT_EQ(failed, 0u);
    EXPECT_EQ(connectionsAccepted() - before, 1u);
    daemon.stop();
}

TEST(Daemon, SharedClientServesConcurrentThreads)
{
    // RemoteBackend shares one client across pool threads: each
    // concurrent call needs its own connection, and every payload
    // must still arrive whole and in order.
    ExperimentConfig cfg = fastConfig();
    ServiceDaemon daemon(sockPath("shared"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(freshDir("shared"))));
    ASSERT_TRUE(daemon.start());
    const ArtifactKind kinds[] = {ArtifactKind::BbvProfile,
                                  ArtifactKind::SimPoints,
                                  ArtifactKind::Regions};
    ArtifactGraph local(cfg, std::make_shared<const ArtifactCache>(
                                 ArtifactCache("")));
    std::vector<std::vector<u8>> want;
    for (ArtifactKind k : kinds)
        want.push_back(local.ensureSerialized(kBench, k));

    constexpr int kThreads = 8;
    const u64 before = connectionsAccepted();
    ServiceClient client(daemon.path());
    std::size_t wrong[kThreads] = {};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < 200; ++i) {
                std::size_t k = std::size_t(t + i) % want.size();
                auto got = client.ensureArtifact(
                    kBench, static_cast<u8>(kinds[k]),
                    cfg.contentHash(), wireConfig(cfg));
                wrong[t] += got && *got == want[k] ? 0 : 1;
            }
        });
    for (std::thread &t : threads)
        t.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(wrong[t], 0u) << "thread " << t;
    EXPECT_LE(connectionsAccepted() - before, u64(kThreads));
    daemon.stop();
}

TEST(Daemon, ClientReconnectsToRestartedDaemon)
{
    ExperimentConfig cfg = fastConfig();
    const std::string path = sockPath("restart");
    const std::string dir = freshDir("restart");
    auto fetch = [&](const ServiceClient &client) {
        return client.ensureArtifact(
            kBench, static_cast<u8>(ArtifactKind::SimPoints),
            cfg.contentHash(), wireConfig(cfg));
    };
    ServiceClient client(path);
    std::optional<std::vector<u8>> first;
    {
        ServiceDaemon daemon(path, std::make_shared<const ArtifactCache>(
                                       ArtifactCache(dir)));
        ASSERT_TRUE(daemon.start());
        first = fetch(client);
        ASSERT_TRUE(first.has_value());
        daemon.stop();
    }
    // The client's idle connection died with the first daemon; the
    // next fetch must retry on a fresh connection, not fail.
    ServiceDaemon daemon(path, std::make_shared<const ArtifactCache>(
                                   ArtifactCache(dir)));
    ASSERT_TRUE(daemon.start());
    auto second = fetch(client);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, *first);
    daemon.stop();
}

/** Seconds since an arbitrary fixed point (steady clock). */
double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

TEST(Daemon, ClosesIdleConnectionAtDeadline)
{
    ServiceDaemon daemon(sockPath("idle"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    ASSERT_TRUE(daemon.start());
    ASSERT_TRUE(ServiceClient(daemon.path()).ping());
    // The ping's handler is reaped within an acceptor tick or two.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const std::size_t baseTasks = procEntries("/proc/self/task");

    int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, daemon.path().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)),
              0);
    // Send nothing.  The daemon must close its end once the deadline
    // passes: our read then sees end-of-file, not our own timeout.
    const double deadline = double(service::kConnectionDeadline.count());
    timeval limit{service::kConnectionDeadline.count() + 3, 0};
    ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit,
                         sizeof(limit)),
              0);
    const double t0 = nowSeconds();
    char byte = 0;
    EXPECT_EQ(recv(fd, &byte, 1, 0), 0);
    const double waited = nowSeconds() - t0;
    close(fd);
    EXPECT_GE(waited, deadline - 0.5);
    EXPECT_LE(waited, deadline + 1.5);

    // Its handler thread ends and is reaped.
    std::size_t tasks = procEntries("/proc/self/task");
    for (int i = 0; i < 40 && tasks > baseTasks; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        tasks = procEntries("/proc/self/task");
    }
    EXPECT_LE(tasks, baseTasks);
    EXPECT_TRUE(ServiceClient(daemon.path()).ping());
    daemon.stop();
}

TEST(Daemon, ClientIdlePastDeadlineRetriesOnFreshConnection)
{
    ExperimentConfig cfg = fastConfig();
    ServiceDaemon daemon(sockPath("idleclient"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(freshDir("idleclient"))));
    ASSERT_TRUE(daemon.start());
    ServiceClient client(daemon.path());
    auto fetch = [&] {
        return client.ensureArtifact(
            kBench, static_cast<u8>(ArtifactKind::SimPoints),
            cfg.contentHash(), wireConfig(cfg));
    };
    const u64 before = connectionsAccepted();
    auto first = fetch();
    ASSERT_TRUE(first.has_value());
    std::this_thread::sleep_for(service::kConnectionDeadline +
                                std::chrono::seconds(1));
    auto second = fetch();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, *first);
    // The daemon dropped the idle connection; the retry opened one.
    EXPECT_EQ(connectionsAccepted() - before, 2u);
    daemon.stop();
}

TEST(Daemon, IsolatesGraphsPerConfig)
{
    ExperimentConfig a = fastConfig();
    ExperimentConfig b = fastConfig().withMaxK(7);
    ServiceDaemon daemon(sockPath("isolate"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(freshDir("isolate"))));
    ASSERT_TRUE(daemon.start());
    ServiceClient client(daemon.path());

    auto pa = client.ensureArtifact(
        kBench, static_cast<u8>(ArtifactKind::SimPoints),
        a.contentHash(), wireConfig(a));
    auto pb = client.ensureArtifact(
        kBench, static_cast<u8>(ArtifactKind::SimPoints),
        b.contentHash(), wireConfig(b));
    ASSERT_TRUE(pa.has_value());
    ASSERT_TRUE(pb.has_value());
    EXPECT_EQ(daemon.graphCount(), 2u);
    daemon.stop();
}

TEST(Daemon, CoalescesConcurrentColdRequestsGlobally)
{
    ExperimentConfig cfg = fastConfig();
    obs::Counter &computed = obs::counter("graph.nodes_computed");

    // Reference: one cold request against a fresh daemon.
    u64 single = 0;
    {
        ServiceDaemon daemon(
            sockPath("coal1"),
            std::make_shared<const ArtifactCache>(
                ArtifactCache(freshDir("coal1"))));
        ASSERT_TRUE(daemon.start());
        u64 before = computed.value();
        auto payload = ServiceClient(daemon.path())
                           .ensureArtifact(
                               kBench,
                               static_cast<u8>(ArtifactKind::SimPoints),
                               cfg.contentHash(), wireConfig(cfg));
        ASSERT_TRUE(payload.has_value());
        single = computed.value() - before;
        ASSERT_GT(single, 0u);
        daemon.stop();
    }

    // Two clients racing on the same cold artifact through a second
    // fresh daemon: the per-node single-flight inside the shared
    // graph must coalesce them into exactly the same amount of
    // computation one client causes.
    ServiceDaemon daemon(sockPath("coal2"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(freshDir("coal2"))));
    ASSERT_TRUE(daemon.start());
    u64 before = computed.value();
    std::vector<u8> got[2];
    std::thread clients[2];
    for (int i = 0; i < 2; ++i)
        clients[i] = std::thread([&, i] {
            auto payload =
                ServiceClient(daemon.path())
                    .ensureArtifact(
                        kBench,
                        static_cast<u8>(ArtifactKind::SimPoints),
                        cfg.contentHash(), wireConfig(cfg));
            if (payload)
                got[i] = std::move(*payload);
        });
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(computed.value() - before, single);
    ASSERT_FALSE(got[0].empty());
    EXPECT_EQ(got[0], got[1]);
    daemon.stop();
}

TEST(RemoteBackend, TransparentThroughSplabService)
{
    ExperimentConfig cfg = fastConfig();
    ServiceDaemon daemon(sockPath("remote"),
                         std::make_shared<const ArtifactCache>(
                             ArtifactCache(freshDir("remote"))));
    ASSERT_TRUE(daemon.start());

    ArtifactGraph local(cfg, std::make_shared<const ArtifactCache>(
                                 ArtifactCache("")));
    std::vector<u8> want =
        local.ensureSerialized(kBench, ArtifactKind::SimPoints);

    obs::Counter &remoteHits =
        obs::counter("service.client.remote_hits");
    u64 before = remoteHits.value();
    setenv("SPLAB_SERVICE", daemon.path().c_str(), 1);
    ArtifactGraph remote(cfg, std::make_shared<const ArtifactCache>(
                                  ArtifactCache("")));
    unsetenv("SPLAB_SERVICE");

    EXPECT_EQ(remote.ensureSerialized(kBench, ArtifactKind::SimPoints),
              want);
    EXPECT_GT(remoteHits.value(), before);
    daemon.stop();
}

TEST(RemoteBackend, FallsBackToLocalWhenNoDaemonAnswers)
{
    ExperimentConfig cfg = fastConfig();
    ArtifactGraph local(cfg, std::make_shared<const ArtifactCache>(
                                 ArtifactCache("")));
    std::vector<u8> want =
        local.ensureSerialized(kBench, ArtifactKind::SimPoints);

    setenv("SPLAB_SERVICE", "/tmp/splab-no-such-daemon.sock", 1);
    ArtifactGraph orphan(cfg, std::make_shared<const ArtifactCache>(
                                  ArtifactCache("")));
    unsetenv("SPLAB_SERVICE");
    EXPECT_EQ(orphan.ensureSerialized(kBench, ArtifactKind::SimPoints),
              want);
}

} // namespace
} // namespace splab
