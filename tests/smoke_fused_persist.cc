/**
 * @file
 * CI smoke check for persisted fused-run blobs: runs a bench binary
 * (argv[1]) whose targets are the whole-run projections twice against
 * one fresh artifact-cache directory — cold, then warm — and verifies
 * that
 *
 *   - the cold run ran the fused traversal (pin.windows > 0),
 *   - the warm run performed NO fused traversal at all
 *     (pin.windows == 0 and pin.chunks_replayed == 0 — every
 *     whole-run view came back from disk),
 *   - and both runs emitted byte-identical CSVs and identical
 *     deterministic manifest sections.
 *
 * Counters outside the ones asserted are NOT compared: cache_hits vs
 * nodes_computed legitimately differ between the two runs.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/json.hh"

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "smoke_fused_persist: FAIL: %s\n", what);
        ++failures;
    }
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

/** render() of one manifest section, or "" when absent. */
std::string
section(const splab::obs::JsonValue &manifest, const char *key)
{
    const splab::obs::JsonValue *v = manifest.find(key);
    return v ? v->render() : std::string();
}

/** counters.<name> as a u64, or 0 when absent. */
splab::u64
counterOf(const splab::obs::JsonValue &manifest, const char *name)
{
    const splab::obs::JsonValue *counters = manifest.find("counters");
    if (!counters)
        return 0;
    const splab::obs::JsonValue *c = counters->find(name);
    return c ? c->asU64() : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr,
                     "usage: smoke_fused_persist <bench-binary>\n");
        return 2;
    }
    std::string bin = argv[1];
    std::string cacheDir = bin + ".smoke-fused-cache";
    std::filesystem::remove_all(cacheDir);
    std::filesystem::create_directories(cacheDir);

    std::string cmd = "SPLAB_MANIFEST=1 SPLAB_CACHE=\"" + cacheDir +
                      "\" SPLAB_LOG=0 SPLAB_SCALE=0.05 "
                      "SPLAB_THREADS=4 \"" +
                      bin + "\" > /dev/null";

    check(std::system(cmd.c_str()) == 0,
          "cold bench run exited non-zero");
    std::string coldCsv = slurp(bin + ".csv");
    std::string coldMani = slurp(bin + ".manifest.json");

    check(std::system(cmd.c_str()) == 0,
          "warm bench run exited non-zero");
    std::string warmCsv = slurp(bin + ".csv");
    std::string warmMani = slurp(bin + ".manifest.json");
    std::filesystem::remove_all(cacheDir);

    check(!coldCsv.empty(), "cold CSV missing or empty");
    check(coldCsv == warmCsv,
          "warm-cache CSV differs from cold-cache CSV");

    using splab::obs::parseJson;
    auto cold = parseJson(coldMani);
    auto warm = parseJson(warmMani);
    check(cold.has_value(), "cold manifest does not parse");
    check(warm.has_value(), "warm manifest does not parse");
    if (cold && warm) {
        for (const char *key : {"config", "artifacts", "outputs"}) {
            check(!section(*cold, key).empty(),
                  "manifest section missing");
            check(section(*cold, key) == section(*warm, key),
                  "deterministic manifest section differs across "
                  "cache states");
        }
        check(counterOf(*cold, "pin.windows") > 0,
              "cold run never ran the fused traversal");
        check(counterOf(*warm, "pin.windows") == 0,
              "warm run re-ran an instrumented window despite "
              "persisted fused blobs");
        check(counterOf(*warm, "pin.chunks_replayed") == 0,
              "warm run replayed workload chunks despite persisted "
              "fused blobs");
        check(counterOf(*warm, "artifact_cache.corrupt") == 0,
              "warm run found a corrupt persisted blob");
        check(counterOf(*warm, "graph.cache_hits") > 0,
              "warm run never hit the artifact cache");
    }

    if (failures == 0)
        std::printf("smoke_fused_persist: OK (%s)\n", bin.c_str());
    return failures == 0 ? 0 : 1;
}
