#include "env.hh"

#include <cstdlib>

#include "logging.hh"

namespace splab
{

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    double x = std::strtod(v, &end);
    if (end == v) {
        SPLAB_WARN("ignoring non-numeric ", name, "=", v);
        return fallback;
    }
    return x;
}

long
envLong(const char *name, long fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    long x = std::strtol(v, &end, 10);
    if (end == v) {
        SPLAB_WARN("ignoring non-numeric ", name, "=", v);
        return fallback;
    }
    return x;
}

std::string
envString(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return v ? std::string(v) : fallback;
}

double
workloadScale()
{
    static const double scale = [] {
        double s = envDouble("SPLAB_SCALE", 1.0);
        if (s <= 0.0) {
            SPLAB_WARN("SPLAB_SCALE must be positive; using 1.0");
            s = 1.0;
        }
        return s;
    }();
    return scale;
}

std::string
artifactCacheDir()
{
    return envString("SPLAB_CACHE", "splab_cache");
}

u64
cacheMaxBytes()
{
    long v = envLong("SPLAB_CACHE_MAX_BYTES", 0);
    if (v < 0) {
        SPLAB_WARN("SPLAB_CACHE_MAX_BYTES must be >= 0; "
                   "treating as unbounded");
        return 0;
    }
    return static_cast<u64>(v);
}

std::string
servicePath()
{
    return envString("SPLAB_SERVICE", "");
}

} // namespace splab
