#include "artifact_backend.hh"

#include "obs/counters.hh"
#include "service/client.hh"
#include "support/env.hh"
#include "support/logging.hh"

namespace splab
{

namespace
{

/** Resolve against the on-disk ArtifactCache (today's path). */
class LocalBackend : public ArtifactBackend
{
  public:
    explicit LocalBackend(std::shared_ptr<const ArtifactCache> c)
        : cache(std::move(c))
    {
        SPLAB_ASSERT(cache != nullptr,
                     "local backend needs a cache instance");
    }

    const char *name() const override { return "local"; }

    bool active() const override { return cache->enabled(); }

    bool
    fetch(const ArtifactRequest &req, std::vector<u8> &out) override
    {
        CacheOutcome got = cache->load(req.family, req.key);
        if (!got.hit())
            return false;
        out = got->getRaw(got->remaining());
        return true;
    }

    void
    publish(const ArtifactRequest &req,
            const std::vector<u8> &bytes) override
    {
        ByteWriter w;
        w.putRaw(bytes.data(), bytes.size());
        cache->store(req.family, req.key, w);
    }

  private:
    std::shared_ptr<const ArtifactCache> cache;
};

/**
 * Resolve through a splabd daemon, falling back to (and publishing
 * through) the local path.  An unreachable daemon at construction
 * degrades the backend to purely-local behaviour with one warning;
 * a daemon that dies later degrades per request, silently, at the
 * cost of one failed connect each time.
 */
class RemoteBackend : public ArtifactBackend
{
  public:
    RemoteBackend(std::shared_ptr<const ArtifactCache> cache,
                  std::string socketPath, std::vector<u8> configBlob,
                  u64 configHash)
        : local(std::make_unique<LocalBackend>(std::move(cache))),
          client(std::move(socketPath)),
          config(std::move(configBlob)), cfgHash(configHash)
    {
        // Register the family eagerly so every client manifest
        // carries it, hit or not.
        remoteHits();
        remoteFailures();
        bytesFetched();
        degraded = !client.ping();
        if (degraded)
            SPLAB_WARN("SPLAB_SERVICE=", client.path(),
                       ": no daemon answering; using local artifact "
                       "resolution");
    }

    const char *
    name() const override
    {
        return degraded ? "remote-degraded" : "remote";
    }

    bool
    active() const override
    {
        // A reachable daemon can always serve, even when the local
        // cache is disabled; once degraded only the local path
        // remains.
        return degraded ? local->active() : true;
    }

    bool
    fetch(const ArtifactRequest &req, std::vector<u8> &out) override
    {
        if (!degraded) {
            auto got = client.ensureArtifact(
                req.benchmark, static_cast<u8>(req.kind), cfgHash,
                config);
            if (got) {
                remoteHits().add();
                bytesFetched().add(got->size());
                out = std::move(*got);
                return true;
            }
            remoteFailures().add();
        }
        return local->fetch(req, out);
    }

    void
    publish(const ArtifactRequest &req,
            const std::vector<u8> &bytes) override
    {
        // The daemon persists its own computations; a client only
        // publishes into its local cache (a no-op when disabled).
        local->publish(req, bytes);
    }

  private:
    static obs::Counter &
    remoteHits()
    {
        return obs::counter("service.client.remote_hits",
                            "artifacts served by the splabd daemon");
    }
    static obs::Counter &
    remoteFailures()
    {
        return obs::counter(
            "service.client.remote_failures",
            "daemon fetches that fell back to local resolution");
    }
    static obs::Counter &
    bytesFetched()
    {
        return obs::counter(
            "service.client.bytes_fetched",
            "artifact bytes streamed from the splabd daemon");
    }

    std::unique_ptr<LocalBackend> local;
    service::ServiceClient client;
    std::vector<u8> config;
    u64 cfgHash;
    bool degraded = false;
};

} // namespace

std::unique_ptr<ArtifactBackend>
makeLocalBackend(std::shared_ptr<const ArtifactCache> cache)
{
    return std::make_unique<LocalBackend>(std::move(cache));
}

std::unique_ptr<ArtifactBackend>
makeBackend(std::shared_ptr<const ArtifactCache> cache,
            const ExperimentConfig &cfg)
{
    std::string sockPath = servicePath();
    if (sockPath.empty())
        return makeLocalBackend(std::move(cache));
    ByteWriter w;
    cfg.serialize(w);
    return std::make_unique<RemoteBackend>(
        std::move(cache), std::move(sockPath), w.bytes(),
        cfg.contentHash());
}

} // namespace splab
