/**
 * @file
 * Client side of the splabd artifact service.
 *
 * A ServiceClient keeps its connections to the daemon's Unix-domain
 * socket open between calls: each request/response exchange borrows
 * an idle connected socket from a small mutex-guarded stack (or
 * connects when none is free) and returns it after a complete
 * response, so a client making many fetches costs the daemon one
 * accept and one handler thread, not one per fetch.  Concurrent
 * calls on one client borrow separate connections, which keeps the
 * client thread-safe and lets the daemon serve them in parallel.
 *
 * A reused connection may have gone stale: the daemon drops a
 * connection idle past its deadline, and a restarted daemon has
 * none of the old ones.  An exchange that fails on a reused
 * connection is therefore retried once on a fresh one; every op is
 * idempotent, so the retry is safe.
 *
 * Every method reports failure by return value (nullopt / false) and
 * never throws or aborts: the caller (RemoteBackend) treats any
 * failure as "no daemon — fall back to local".
 */

#ifndef SPLAB_SERVICE_CLIENT_HH
#define SPLAB_SERVICE_CLIENT_HH

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/protocol.hh"
#include "support/types.hh"

namespace splab
{
namespace service
{

class ServiceClient
{
  public:
    /** @param socketPath daemon Unix-domain socket path. */
    explicit ServiceClient(std::string socketPath)
        : sock(std::move(socketPath))
    {
    }

    ~ServiceClient(); ///< closes the idle connections

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    const std::string &path() const { return sock; }

    /** Liveness probe: true iff a daemon answered on the socket. */
    bool ping() const;

    /**
     * Ask the daemon to materialize one artifact (computing it if
     * its cache is cold) and stream back the serialized bytes.
     * @param benchmark  benchmark name
     * @param kind       ArtifactKind as its wire value
     * @param configHash ExperimentConfig::contentHash()
     * @param config     ExperimentConfig::serialize() bytes
     * @return the serialized artifact payload, or nullopt on any
     *         failure (no daemon, protocol error, server error).
     */
    std::optional<std::vector<u8>>
    ensureArtifact(const std::string &benchmark, u8 kind,
                   u64 configHash,
                   const std::vector<u8> &config) const;

    /** Daemon-side counter snapshot (name -> value). */
    std::optional<std::map<std::string, u64>> stats() const;

    /** Outcome of a daemon-side cache eviction. */
    struct EvictOutcome
    {
        u64 residentBefore = 0; ///< resident bytes pre-eviction
        u64 residentAfter = 0;  ///< resident bytes post-eviction
        u64 artifacts = 0;      ///< surviving artifact blobs
    };

    /** Ask the daemon to LRU-evict its cache down to
     *  @p targetBytes resident bytes (0 = everything evictable);
     *  nullopt on any failure (no daemon, disabled cache, protocol
     *  error). */
    std::optional<EvictOutcome> evict(u64 targetBytes) const;

    /** Ask the daemon to shut down; true if it acknowledged. */
    bool requestShutdown() const;

  private:
    /** One request + response exchange on a pooled connection,
     *  retried once on a fresh one when a reused connection fails;
     *  @p payload (when non-null) receives the streamed data frames. */
    bool roundTrip(const Request &req, ResponseHeader &header,
                   std::vector<u8> *payload) const;

    std::string sock;
    mutable std::mutex mtx;
    mutable std::vector<int> idle; ///< connected fds between calls
};

} // namespace service
} // namespace splab

#endif // SPLAB_SERVICE_CLIENT_HH
