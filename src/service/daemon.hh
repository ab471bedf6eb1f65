/**
 * @file
 * The splabd artifact-service daemon.
 *
 * A ServiceDaemon owns one ArtifactCache and a registry of
 * ArtifactGraphs (one per distinct ExperimentConfig content hash,
 * created on first request) and serves Ensure requests over a
 * Unix-domain socket (see protocol.hh).  Because every client's
 * requests resolve through the *same* graph instances, the per-node
 * single-flight inside ArtifactGraph::ensure() becomes a global
 * request coalescer: two clients asking for the same cold artifact
 * block on one computation, which runs once on the daemon's shared
 * thread pool, and both receive the identical bytes.
 *
 * Threading: one acceptor thread polls the listening socket (200 ms
 * tick, so stop() is prompt) and hands each connection to its own
 * handler thread, which serves request frames until the client
 * closes the connection.  Clients keep their connections open
 * between requests (see client.hh), so a handler lives as long as
 * its connection, and every accepted socket carries a receive and a
 * send deadline (kConnectionDeadline): a connection idle, or a
 * client stalled, for that long is closed and its handler ends
 * rather than pinning a thread forever.  Handlers run graph
 * computations inline, which fan out onto the global ThreadPool
 * exactly as a local run would.  A handler that finishes hands its
 * own thread to a reap list, which the acceptor joins on its next
 * tick, so live handler threads track open connections rather than
 * the daemon's lifetime request count.  stop() joins every handler,
 * live or finished; live connections are shut down first so no
 * handler blocks stop() indefinitely.
 *
 * The daemon's graphs always use the *local* artifact backend
 * (makeLocalBackend), never makeBackend(): splabd itself runs with
 * SPLAB_SERVICE pointing at its own socket, and resolving through
 * the environment would connect the daemon to itself.
 *
 * In-process use: tests and the smoke harness construct a
 * ServiceDaemon directly (start()/stop()) instead of spawning the
 * splabd binary, so daemon-side obs counters are directly
 * assertable.
 */

#ifndef SPLAB_SERVICE_DAEMON_HH
#define SPLAB_SERVICE_DAEMON_HH

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_graph.hh"
#include "service/protocol.hh"

namespace splab
{
namespace service
{

/** How long a handler waits on an idle connection for the next
 *  request, or on a stalled client to take a response, before it
 *  closes the connection. */
constexpr std::chrono::seconds kConnectionDeadline{3};

class ServiceDaemon
{
  public:
    /**
     * @param socketPath Unix-domain socket to serve on (must fit the
     *        AF_UNIX path limit; keep it short, e.g. under /tmp).
     * @param cache artifact cache to serve from; null = fromEnv().
     */
    explicit ServiceDaemon(
        std::string socketPath,
        std::shared_ptr<const ArtifactCache> cache = nullptr);

    ~ServiceDaemon(); ///< calls stop()

    ServiceDaemon(const ServiceDaemon &) = delete;
    ServiceDaemon &operator=(const ServiceDaemon &) = delete;

    /** Bind + listen + spawn the acceptor.  False (with a warning)
     *  when the socket cannot be bound. */
    bool start();

    /** Stop accepting, unblock and join every handler, remove the
     *  socket.  Idempotent. */
    void stop();

    bool running() const { return listening.load(); }

    const std::string &path() const { return sock; }

    /** The cache this daemon serves from. */
    const ArtifactCache &artifactCache() const { return *cache; }

    /** Distinct experiment configs seen so far (tests). */
    std::size_t graphCount() const;

    /** True once a client sent Op::Shutdown; the owner (splabd's
     *  main loop, or a test) is expected to call stop(). */
    bool shutdownRequested() const { return shutdownReq.load(); }

  private:
    void acceptLoop();
    void handle(int fd);
    void serveEnsure(int fd, const Request &req);
    void serveEvict(int fd, const Request &req);
    bool sendError(int fd, const std::string &message);
    bool sendOk(int fd, const std::vector<u8> &payload);

    /** Graph serving @p req's config (created on first use); null
     *  with @p err set when the request's config is unusable. */
    ArtifactGraph *graphFor(const Request &req, std::string &err);

    std::string sock;
    std::shared_ptr<const ArtifactCache> cache;

    int listenFd = -1;
    std::atomic<bool> listening{false};
    std::atomic<bool> stopFlag{false};
    std::atomic<bool> shutdownReq{false};
    std::thread acceptor;

    /** Join the handler threads that have finished so far. */
    void reapFinished();

    mutable std::mutex mtx; ///< graphs and handler threads
    std::map<u64, std::unique_ptr<ArtifactGraph>> graphs;
    /** Running handlers keyed by their open connection's fd; an
     *  entry leaves before its fd is closed, so keys never clash. */
    std::map<int, std::thread> handlers;
    std::vector<std::thread> finished; ///< done, awaiting join
};

} // namespace service
} // namespace splab

#endif // SPLAB_SERVICE_DAEMON_HH
