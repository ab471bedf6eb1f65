/**
 * @file
 * Client side of the splabd artifact service.
 *
 * A ServiceClient is a thin, connection-per-request wrapper over the
 * wire protocol (see protocol.hh): every call connects to the
 * daemon's Unix-domain socket, performs one request/response
 * exchange and closes.  Connections to a local socket are cheap, and
 * one-connection-per-request gives the daemon natural per-request
 * parallelism (it serves each connection on its own thread) without
 * any client-side multiplexing state — which also makes the client
 * trivially thread-safe: concurrent calls just open concurrent
 * connections.
 *
 * Every method reports failure by return value (nullopt / false) and
 * never throws or aborts: the caller (RemoteBackend) treats any
 * failure as "no daemon — fall back to local".
 */

#ifndef SPLAB_SERVICE_CLIENT_HH
#define SPLAB_SERVICE_CLIENT_HH

#include <map>
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
    /** One connect + request + response exchange; @p payload (when
     *  non-null) receives the streamed data frames. */
    bool roundTrip(const Request &req, ResponseHeader &header,
                   std::vector<u8> *payload) const;

    std::string sock;
};

} // namespace service
} // namespace splab

#endif // SPLAB_SERVICE_CLIENT_HH
