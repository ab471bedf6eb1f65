#include "daemon.hh"

#include <algorithm>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/artifact_backend.hh"
#include "obs/counters.hh"
#include "support/env.hh"
#include "support/logging.hh"
#include "workload/suite.hh"

namespace splab
{
namespace service
{

namespace
{

obs::Counter &
requestsCounter()
{
    return obs::counter("service.requests",
                        "requests handled by the splabd daemon");
}

obs::Counter &
errorsCounter()
{
    return obs::counter("service.request_errors",
                        "daemon requests answered with an error");
}

obs::Counter &
servedCounter()
{
    return obs::counter("service.artifacts_served",
                        "artifacts streamed to service clients");
}

obs::Counter &
bytesCounter()
{
    return obs::counter("service.bytes_streamed",
                        "artifact payload bytes streamed to clients");
}

obs::Counter &
connectionsCounter()
{
    return obs::counter("service.connections",
                        "client connections accepted by the daemon");
}

obs::Counter &
evictRequestsCounter()
{
    return obs::counter("service.evict_requests",
                        "admin eviction requests handled by the "
                        "daemon");
}

} // namespace

ServiceDaemon::ServiceDaemon(
    std::string socketPath, std::shared_ptr<const ArtifactCache> c)
    : sock(std::move(socketPath)), cache(std::move(c))
{
    if (!cache)
        cache = std::make_shared<const ArtifactCache>(
            ArtifactCache::fromEnv());
    // Eager registration so an idle daemon's stats() already carries
    // the whole service counter family.
    requestsCounter();
    errorsCounter();
    servedCounter();
    bytesCounter();
    connectionsCounter();
    evictRequestsCounter();
}

ServiceDaemon::~ServiceDaemon() { stop(); }

bool
ServiceDaemon::start()
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (sock.size() >= sizeof(addr.sun_path)) {
        SPLAB_WARN("service socket path too long for AF_UNIX: ",
                   sock);
        return false;
    }
    std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);

    listenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd < 0) {
        SPLAB_WARN("cannot create service socket: ",
                   std::strerror(errno));
        return false;
    }
    ::unlink(sock.c_str()); // clear a stale socket from a dead daemon
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 64) != 0) {
        SPLAB_WARN("cannot bind service socket ", sock, ": ",
                   std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    stopFlag.store(false);
    listening.store(true);
    acceptor = std::thread([this] { acceptLoop(); });
    SPLAB_INFORM("splabd serving on ", sock);
    return true;
}

void
ServiceDaemon::stop()
{
    if (!listening.exchange(false))
        return;
    stopFlag.store(true);
    if (acceptor.joinable())
        acceptor.join();
    {
        // Unblock handlers stuck in recv; they exit on the failed
        // read and are joined below.
        std::lock_guard<std::mutex> g(mtx);
        for (const auto &kv : handlers)
            ::shutdown(kv.first, SHUT_RDWR);
    }
    std::map<int, std::thread> running;
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> g(mtx);
        running.swap(handlers);
        done.swap(finished);
    }
    for (auto &kv : running)
        kv.second.join();
    for (std::thread &t : done)
        t.join();
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
    ::unlink(sock.c_str());
}

std::size_t
ServiceDaemon::graphCount() const
{
    std::lock_guard<std::mutex> g(mtx);
    return graphs.size();
}

void
ServiceDaemon::reapFinished()
{
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> g(mtx);
        done.swap(finished);
    }
    for (std::thread &t : done)
        t.join();
}

void
ServiceDaemon::acceptLoop()
{
    while (!stopFlag.load()) {
        reapFinished();
        pollfd pfd{listenFd, POLLIN, 0};
        int rc = ::poll(&pfd, 1, 200);
        if (rc < 0 && errno != EINTR)
            break;
        if (rc <= 0 || !(pfd.revents & POLLIN))
            continue;
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        // A blocked recv or send past the deadline fails, which ends
        // the handler's request loop and closes the connection.
        timeval deadline{kConnectionDeadline.count(), 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline,
                     sizeof(deadline));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &deadline,
                     sizeof(deadline));
        connectionsCounter().add();
        std::lock_guard<std::mutex> g(mtx);
        handlers.emplace(fd, std::thread([this, fd] { handle(fd); }));
    }
}

bool
ServiceDaemon::sendError(int fd, const std::string &message)
{
    errorsCounter().add();
    ResponseHeader h;
    h.status = Status::Error;
    h.error = message;
    std::vector<u8> frame = encodeResponseHeader(h);
    return sendFrame(fd, frame.data(), frame.size());
}

bool
ServiceDaemon::sendOk(int fd, const std::vector<u8> &payload)
{
    ResponseHeader h;
    h.status = Status::Ok;
    h.payloadBytes = payload.size();
    std::vector<u8> frame = encodeResponseHeader(h);
    if (!sendFrame(fd, frame.data(), frame.size()))
        return false;
    for (std::size_t off = 0; off < payload.size();
         off += kChunkBytes) {
        std::size_t n =
            std::min<std::size_t>(kChunkBytes, payload.size() - off);
        if (!sendFrame(fd, payload.data() + off, n))
            return false;
    }
    return true;
}

ArtifactGraph *
ServiceDaemon::graphFor(const Request &req, std::string &err)
{
    std::lock_guard<std::mutex> g(mtx);
    auto it = graphs.find(req.configHash);
    if (it != graphs.end())
        return it->second.get();

    ByteReader r(req.config);
    ExperimentConfig cfg;
    if (!ExperimentConfig::deserialize(r, cfg)) {
        err = "undecodable experiment config";
        return nullptr;
    }
    if (cfg.contentHash() != req.configHash) {
        err = "experiment config does not match its declared hash";
        return nullptr;
    }
    // The daemon's own graphs must resolve locally: SPLAB_SERVICE
    // typically names *this* daemon's socket, and makeBackend()
    // would loop us back to ourselves.
    auto graph = std::make_unique<ArtifactGraph>(
        cfg, cache, makeLocalBackend(cache));
    ArtifactGraph *out = graph.get();
    graphs.emplace(req.configHash, std::move(graph));
    SPLAB_INFORM("splabd: new experiment config ",
                 req.configHash, " (", graphs.size(), " total)");
    return out;
}

void
ServiceDaemon::serveEnsure(int fd, const Request &req)
{
    if (req.kind >= kNumArtifactKinds) {
        sendError(fd, "unknown artifact kind " +
                          std::to_string(int(req.kind)));
        return;
    }
    // SPLAB_SCALE shapes every artifact but lives in the process
    // environment, not in ExperimentConfig — a daemon launched at a
    // different scale would serve bytes from a differently-sized
    // workload.  Refuse instead; the client falls back to local.
    if (req.scale != workloadScale()) {
        sendError(fd, "workload scale mismatch (client " +
                          std::to_string(req.scale) + ", daemon " +
                          std::to_string(workloadScale()) + ")");
        return;
    }
    // Validate the name up front: deep lookup is fatal on unknown
    // benchmarks, and a daemon must not die on a bad request.
    static const std::vector<std::string> known = suiteNames();
    bool ok = false;
    for (const std::string &n : known)
        ok = ok || n == req.benchmark;
    if (!ok) {
        sendError(fd, "unknown benchmark " + req.benchmark);
        return;
    }
    std::string err;
    ArtifactGraph *graph = graphFor(req, err);
    if (!graph) {
        sendError(fd, err);
        return;
    }
    // A slice over twice the run length leaves an empty BBV profile,
    // which clustering and every sampling strategy assert on.
    if (2 * graph->spec(req.benchmark).totalInstrs() <
        graph->config().simpoint.sliceInstrs) {
        sendError(fd, "slice longer than the run of " + req.benchmark);
        return;
    }
    // ensure() runs here on the handler thread; identical concurrent
    // requests from other connections coalesce on the node's
    // single-flight, and the compute fans onto the shared pool.
    std::vector<u8> payload = graph->ensureSerialized(
        req.benchmark, static_cast<ArtifactKind>(req.kind));
    if (sendOk(fd, payload)) {
        servedCounter().add();
        bytesCounter().add(payload.size());
    }
}

void
ServiceDaemon::serveEvict(int fd, const Request &req)
{
    evictRequestsCounter().add();
    if (!cache->enabled()) {
        sendError(fd, "daemon cache is disabled");
        return;
    }
    u64 before = cache->usage().residentBytes;
    CacheUsage after = cache->evictToBytes(req.evictBytes);
    std::vector<u8> payload;
    auto put = [&payload](u64 v) {
        const u8 *b = reinterpret_cast<const u8 *>(&v);
        payload.insert(payload.end(), b, b + sizeof(v));
    };
    put(before);
    put(after.residentBytes);
    put(after.artifacts);
    sendOk(fd, payload);
}

void
ServiceDaemon::handle(int fd)
{
    std::vector<u8> frame;
    while (!stopFlag.load() && recvFrame(fd, frame)) {
        Request req;
        if (!decodeRequest(frame, req)) {
            sendError(fd, "malformed request frame");
            break;
        }
        requestsCounter().add();
        if (req.op == Op::Ping) {
            sendOk(fd, {});
        } else if (req.op == Op::Ensure) {
            serveEnsure(fd, req);
        } else if (req.op == Op::Stats) {
            // u32 count + (name, value) pairs, counters only: the
            // deterministic face of the daemon, same as a manifest.
            auto snap = obs::counterSnapshot();
            std::vector<u8> payload;
            auto put = [&payload](const void *p, std::size_t n) {
                const u8 *b = static_cast<const u8 *>(p);
                payload.insert(payload.end(), b, b + n);
            };
            u32 count = static_cast<u32>(snap.size());
            put(&count, sizeof(count));
            for (const auto &kv : snap) {
                u32 len = static_cast<u32>(kv.first.size());
                put(&len, sizeof(len));
                put(kv.first.data(), len);
                put(&kv.second, sizeof(kv.second));
            }
            sendOk(fd, payload);
        } else if (req.op == Op::Evict) {
            serveEvict(fd, req);
        } else if (req.op == Op::Shutdown) {
            // Raise the flag before acking: a client returning from
            // requestShutdown() must observe shutdownRequested().
            shutdownReq.store(true);
            sendOk(fd, {});
            break;
        } else {
            sendError(fd, "unknown op");
            break;
        }
    }
    {
        // Hand this thread to the acceptor's reap list.  The entry
        // is already gone when stop() has taken the thread to join
        // it directly.
        std::lock_guard<std::mutex> g(mtx);
        auto self = handlers.find(fd);
        if (self != handlers.end()) {
            finished.push_back(std::move(self->second));
            handlers.erase(self);
        }
    }
    ::close(fd);
}

} // namespace service
} // namespace splab
