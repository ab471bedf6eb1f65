/**
 * @file
 * Pluggable artifact resolution backends for the artifact graph.
 *
 * ArtifactGraph::ensure() needs two operations against persistent
 * storage: "give me the serialized bytes of (benchmark, kind, key)"
 * and "here are freshly computed bytes, keep them".  This seam
 * abstracts *where* those bytes live:
 *
 *  - LocalBackend (makeLocalBackend): the on-disk ArtifactCache,
 *    one blob per artifact holding its serialized bytes.
 *  - RemoteBackend: a splabd service client.  fetch() asks the
 *    daemon to materialize the artifact (the daemon computes on a
 *    cold cache, coalescing identical requests from *all* clients
 *    through its per-node single-flight) and streams the serialized
 *    bytes back; publish() stays local, so a client without a
 *    reachable daemon behaves exactly like LocalBackend.
 *
 * makeBackend() picks the implementation from SPLAB_SERVICE: unset or
 * empty means local; a socket path means remote with a one-time ping
 * probe at construction — an unreachable daemon degrades to local
 * with a single warning, never an error (transparent fallback).
 *
 * Determinism: backends move serialized bytes, never values, and a
 * daemon computes artifacts with the same pure compute functions and
 * Merkle keys as any client would locally, so a daemon-served run is
 * byte-identical to a local one.
 */

#ifndef SPLAB_CORE_ARTIFACT_BACKEND_HH
#define SPLAB_CORE_ARTIFACT_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "artifact_graph.hh"

namespace splab
{

/** One persisted-artifact resolution request. */
struct ArtifactRequest
{
    std::string benchmark; ///< benchmark name ("620.omnetpp_s")
    ArtifactKind kind = ArtifactKind::Spec;
    std::string family;    ///< blob family, strategy-qualified
    u64 key = 0;           ///< Merkle disk-cache key
};

/** Where persisted artifacts are fetched from / published to. */
class ArtifactBackend
{
  public:
    virtual ~ArtifactBackend() = default;

    /** Stable implementation name ("local", "remote"). */
    virtual const char *name() const = 0;

    /** Whether fetch/publish can do anything at all; when false the
     *  graph skips key computation entirely (disabled-cache path). */
    virtual bool active() const = 0;

    /**
     * Try to materialize the *serialized artifact payload* (the
     * bytes serializeArtifact produced) into @p out.
     * @return true on success; false means "compute it yourself".
     */
    virtual bool fetch(const ArtifactRequest &req,
                       std::vector<u8> &out) = 0;

    /** Persist freshly computed serialized bytes. */
    virtual void publish(const ArtifactRequest &req,
                         const std::vector<u8> &bytes) = 0;
};

/** Today's behaviour: resolve against @p cache only. */
std::unique_ptr<ArtifactBackend>
makeLocalBackend(std::shared_ptr<const ArtifactCache> cache);

/**
 * Backend for a graph with configuration @p cfg: remote when
 * SPLAB_SERVICE names a daemon socket (with local fallback),
 * local otherwise.
 */
std::unique_ptr<ArtifactBackend>
makeBackend(std::shared_ptr<const ArtifactCache> cache,
            const ExperimentConfig &cfg);

} // namespace splab

#endif // SPLAB_CORE_ARTIFACT_BACKEND_HH
