/**
 * @file
 * Environment-variable configuration knobs.
 *
 * The bench harness honours:
 *  - SPLAB_SCALE   : multiply all workload lengths by this factor
 *                    (default 1.0; use e.g. 0.1 for a quick smoke run)
 *  - SPLAB_CACHE   : directory for the on-disk artifact cache
 *                    (default "splab_cache" under the CWD; empty
 *                    string disables caching)
 *  - SPLAB_THREADS : worker threads for the parallel stages (k-sweep,
 *                    k-means, regional replays); 0 or unset = all
 *                    hardware threads.  Changes wall time only —
 *                    results are bit-identical at any thread count
 *                    (see support/thread_pool.hh).
 *  - SPLAB_TRACE   : 1 = record every trace span and have benches
 *                    dump "<binary>.trace.json" (Chrome trace_event
 *                    format) plus a span tree on stdout.  Aggregated
 *                    span statistics are collected regardless (see
 *                    obs/trace.hh).
 *  - SPLAB_MANIFEST: 0 = suppress the "<binary>.manifest.json" run
 *                    manifest benches write by default (see
 *                    obs/manifest.hh).
 *  - SPLAB_SERVICE : path of a splabd artifact-service Unix-domain
 *                    socket.  When set, every ArtifactGraph becomes
 *                    a service client: persisted artifacts are
 *                    requested from the shared daemon instead of
 *                    computed locally, with transparent fallback to
 *                    the local path when no daemon answers (see
 *                    core/artifact_backend.hh).  Unset/empty =
 *                    local-only (today's behaviour).
 *  - SPLAB_CACHE_MAX_BYTES: size budget for the on-disk artifact
 *                    cache.  When the resident bytes (artifact blobs
 *                    plus shared sub-blobs) exceed the budget after
 *                    a store, least-recently-used artifacts are
 *                    evicted; shared sub-blobs are ref-counted and
 *                    reclaimed only when their last referencing
 *                    artifact goes.  0 or unset = unbounded.
 */

#ifndef SPLAB_SUPPORT_ENV_HH
#define SPLAB_SUPPORT_ENV_HH

#include <string>

#include "types.hh"

namespace splab
{

/** Read a double from the environment, falling back to @p fallback. */
double envDouble(const char *name, double fallback);

/** Read an integer from the environment. */
long envLong(const char *name, long fallback);

/** Read a string from the environment. */
std::string envString(const char *name, const std::string &fallback);

/** Global workload scale factor (SPLAB_SCALE). */
double workloadScale();

/** Artifact cache directory (SPLAB_CACHE); empty = disabled. */
std::string artifactCacheDir();

/** Artifact-cache size budget in bytes (SPLAB_CACHE_MAX_BYTES);
 *  0 = unbounded.  Re-read per call so tests can toggle it. */
u64 cacheMaxBytes();

/** Artifact-service daemon socket path (SPLAB_SERVICE); empty =
 *  no daemon, local-only artifact resolution.  Re-read per call so
 *  tests can point individual graphs at scratch daemons. */
std::string servicePath();

} // namespace splab

#endif // SPLAB_SUPPORT_ENV_HH
