/**
 * @file
 * splabd — the artifact-graph service daemon.
 *
 * Usage:
 *     splabd <socket-path>              serve requests
 *     splabd --stats <socket-path>      print a running daemon's
 *                                       counter snapshot
 *     splabd --shutdown <socket-path>   ask a running daemon to stop
 *     splabd --evict <socket-path> <bytes>
 *                                       LRU-evict the daemon's cache
 *                                       down to <bytes> resident
 *                                       bytes (0 = everything)
 *
 * Serve mode answers artifact requests on <socket-path> from the
 * cache named by SPLAB_CACHE (budgeted by SPLAB_CACHE_MAX_BYTES),
 * until SIGINT / SIGTERM or a client Shutdown request.  Point bench
 * clients at it with SPLAB_SERVICE=<socket-path>.  The admin
 * subcommands are plain service clients — they talk the same wire
 * protocol as any bench and exit nonzero when no daemon answers.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "service/client.hh"
#include "service/daemon.hh"
#include "support/logging.hh"

namespace
{

std::atomic<bool> gInterrupted{false};

void
onSignal(int)
{
    gInterrupted.store(true);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <socket-path>\n"
                 "       %s --stats <socket-path>\n"
                 "       %s --shutdown <socket-path>\n"
                 "       %s --evict <socket-path> <bytes>\n",
                 argv0, argv0, argv0, argv0);
    return 2;
}

/** splabd --stats: pretty-print the daemon's counter snapshot. */
int
runStats(const std::string &socketPath)
{
    splab::service::ServiceClient client(socketPath);
    auto stats = client.stats();
    if (!stats) {
        std::fprintf(stderr,
                     "splabd: no daemon answering on %s\n",
                     socketPath.c_str());
        return 1;
    }
    std::size_t width = 0;
    for (const auto &kv : *stats)
        width = std::max(width, kv.first.size());
    std::printf("daemon @ %s (%zu counters)\n", socketPath.c_str(),
                stats->size());
    for (const auto &kv : *stats)
        std::printf("  %-*s %llu\n", static_cast<int>(width),
                    kv.first.c_str(),
                    static_cast<unsigned long long>(kv.second));
    return 0;
}

/** splabd --evict: LRU-evict the daemon's cache to a byte budget. */
int
runEvict(const std::string &socketPath, const char *bytesArg)
{
    char *end = nullptr;
    unsigned long long target = std::strtoull(bytesArg, &end, 10);
    if (end == bytesArg || *end != '\0') {
        std::fprintf(stderr, "splabd: --evict needs a byte count, "
                             "got '%s'\n",
                     bytesArg);
        return 2;
    }
    splab::service::ServiceClient client(socketPath);
    auto outcome = client.evict(static_cast<splab::u64>(target));
    if (!outcome) {
        std::fprintf(stderr,
                     "splabd: no daemon answering on %s\n",
                     socketPath.c_str());
        return 1;
    }
    std::printf("evicted %llu bytes (%llu -> %llu resident, "
                "%llu artifacts remain)\n",
                static_cast<unsigned long long>(
                    outcome->residentBefore - outcome->residentAfter),
                static_cast<unsigned long long>(
                    outcome->residentBefore),
                static_cast<unsigned long long>(
                    outcome->residentAfter),
                static_cast<unsigned long long>(outcome->artifacts));
    return 0;
}

/** splabd --shutdown: ask the daemon to stop. */
int
runShutdown(const std::string &socketPath)
{
    splab::service::ServiceClient client(socketPath);
    if (!client.requestShutdown()) {
        std::fprintf(stderr,
                     "splabd: no daemon answering on %s\n",
                     socketPath.c_str());
        return 1;
    }
    std::printf("splabd: shutdown acknowledged by %s\n",
                socketPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--stats") == 0)
        return runStats(argv[2]);
    if (argc == 3 && std::strcmp(argv[1], "--shutdown") == 0)
        return runShutdown(argv[2]);
    if (argc == 4 && std::strcmp(argv[1], "--evict") == 0)
        return runEvict(argv[2], argv[3]);
    if (argc != 2 || argv[1][0] == '-')
        return usage(argv[0]);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    splab::service::ServiceDaemon daemon(argv[1]);
    if (!daemon.start())
        return 1;
    while (!gInterrupted.load() && !daemon.shutdownRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    daemon.stop();
    SPLAB_INFORM("splabd: stopped");
    return 0;
}
