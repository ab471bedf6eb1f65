#include "suite.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "support/env.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace splab
{

const std::string &
suiteDomainName(SuiteDomain d)
{
    static const std::array<std::string, 3> names = {
        "SPECrate INT", "SPECspeed INT", "SPECrate FP"};
    return names[static_cast<u8>(d)];
}

const std::vector<SuiteEntry> &
suiteTable()
{
    // Columns 2 and 3 are the paper's Table II.  `slices` sets the
    // whole-run length at model scale (one slice = 10,000 model
    // instructions = one paper-equivalent 30M-instruction slice);
    // `paperInstrsB` carries the paper-scale dynamic instruction
    // count used for paper-equivalent time reporting.
    static const std::vector<SuiteEntry> table = {
        {"500.perlbench_r", 18, 11, 12000, SuiteDomain::IntRate, 6000},
        {"502.gcc_r", 27, 15, 17000, SuiteDomain::IntRate, 8500},
        {"505.mcf_r", 18, 9, 14000, SuiteDomain::IntRate, 7000},
        {"520.omnetpp_r", 4, 3, 6000, SuiteDomain::IntRate, 3000},
        {"525.x264_r", 23, 15, 15000, SuiteDomain::IntRate, 7500},
        {"531.deepsjeng_r", 20, 15, 12000, SuiteDomain::IntRate, 6000},
        {"541.leela_r", 19, 12, 12000, SuiteDomain::IntRate, 6000},
        {"548.exchange2_r", 21, 16, 13000, SuiteDomain::IntRate, 6500},
        {"557.xz_r", 13, 7, 10000, SuiteDomain::IntRate, 5000},
        {"600.perlbench_s", 21, 13, 14000, SuiteDomain::IntSpeed, 7000},
        {"602.gcc_s", 15, 5, 11000, SuiteDomain::IntSpeed, 5500},
        {"605.mcf_s", 28, 14, 18000, SuiteDomain::IntSpeed, 9000},
        {"620.omnetpp_s", 3, 2, 5000, SuiteDomain::IntSpeed, 2500},
        {"623.xalancbmk_s", 25, 19, 16000, SuiteDomain::IntSpeed, 8000},
        {"625.x264_s", 19, 13, 13000, SuiteDomain::IntSpeed, 6500},
        {"631.deepsjeng_s", 12, 10, 9000, SuiteDomain::IntSpeed, 4500},
        {"641.leela_s", 20, 13, 12000, SuiteDomain::IntSpeed, 6000},
        {"648.exchange2_s", 19, 15, 12000, SuiteDomain::IntSpeed, 6000},
        {"657.xz_s", 18, 10, 13000, SuiteDomain::IntSpeed, 6500},
        {"503.bwaves_r", 26, 7, 26000, SuiteDomain::FpRate, 13000},
        {"507.cactuBSSN_r", 25, 4, 18000, SuiteDomain::FpRate, 9000},
        {"508.namd_r", 26, 17, 16000, SuiteDomain::FpRate, 8000},
        {"510.parest_r", 23, 14, 15000, SuiteDomain::FpRate, 7500},
        {"511.povray_r", 23, 19, 11000, SuiteDomain::FpRate, 5500},
        {"519.lbm_r", 22, 8, 20000, SuiteDomain::FpRate, 10000},
        {"526.blender_r", 22, 14, 14000, SuiteDomain::FpRate, 7000},
        {"538.imagick_r", 14, 7, 12000, SuiteDomain::FpRate, 6000},
        {"544.nab_r", 22, 10, 14000, SuiteDomain::FpRate, 7000},
        {"549.fotonik3d_r", 27, 11, 19000, SuiteDomain::FpRate, 9500},
    };
    return table;
}

const SuiteEntry &
suiteEntry(const std::string &name)
{
    for (const auto &e : suiteTable())
        if (name == e.name)
            return e;
    SPLAB_FATAL("unknown benchmark: ", name);
}

namespace
{

/** coverageCount of weights already sorted non-increasing. */
int
sortedCoverageCount(const std::vector<double> &weights,
                    double quantile)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    if (total <= 0.0)
        return 0;
    double acc = 0.0;
    int n = 0;
    for (double w : weights) {
        acc += w;
        ++n;
        if (acc >= quantile * total - 1e-12)
            return n;
    }
    return n;
}

/** Overwrite @p w (n entries) with the floored, normalized geometric
 *  weight vector of ratio @p r; non-increasing for r in (0, 1]. */
std::vector<double> &
flooredGeometric(std::vector<double> &w, double r, double floor)
{
    double x = 1.0, s = 0.0;
    for (auto &v : w) {
        v = x;
        s += x;
        x *= r;
    }
    for (auto &v : w)
        v /= s;
    // Apply the floor, then renormalize.
    s = 0.0;
    for (auto &v : w) {
        if (v < floor)
            v = floor;
        s += v;
    }
    for (auto &v : w)
        v /= s;
    return w;
}

} // namespace

int
coverageCount(std::vector<double> weights, double quantile)
{
    std::sort(weights.begin(), weights.end(), std::greater<>());
    return sortedCoverageCount(weights, quantile);
}

std::vector<double>
designWeights(int n, int m90, double floor)
{
    SPLAB_ASSERT(n >= 1, "designWeights: need n >= 1");
    SPLAB_ASSERT(m90 >= 1 && m90 <= n, "designWeights: bad m90 ", m90);
    if (n == 1)
        return {1.0};

    // The (n - m90) lightest phases must jointly fit in the top
    // 10% tail, or the coverage target is unreachable; shrink the
    // floor for very skewed profiles.
    if (m90 < n) {
        double cap = 0.08 / static_cast<double>(n - m90);
        if (floor > cap)
            floor = cap;
    }

    // coverageCount is nondecreasing in r.  Find the admissible
    // interval of ratios producing exactly m90 and take its middle,
    // so small clustering perturbations do not flip the count.
    // Every probe refills one buffer, whose weights come out sorted.
    std::vector<double> w(n);
    auto m90Of = [&](double r) {
        return sortedCoverageCount(flooredGeometric(w, r, floor), 0.9);
    };

    double loBound = 0.02, hiBound = 0.99999;
    if (m90Of(hiBound) < m90) {
        SPLAB_WARN("designWeights(", n, ", ", m90,
                   "): target unreachable; using uniform");
        return std::move(flooredGeometric(w, 1.0, floor));
    }
    if (m90Of(loBound) > m90)
        return std::move(flooredGeometric(w, loBound, floor));

    // Smallest r with coverage >= m90.
    double lo = loBound, hi = hiBound;
    for (int it = 0; it < 60; ++it) {
        double mid = 0.5 * (lo + hi);
        if (m90Of(mid) >= m90)
            hi = mid;
        else
            lo = mid;
    }
    double rLo = hi;
    // Largest r with coverage <= m90.
    lo = rLo;
    hi = hiBound;
    for (int it = 0; it < 60; ++it) {
        double mid = 0.5 * (lo + hi);
        if (m90Of(mid) <= m90)
            lo = mid;
        else
            hi = mid;
    }
    double rHi = lo;
    double r = 0.5 * (rLo + rHi);
    if (m90Of(r) != m90)
        r = rLo; // plateau may be tiny; fall back to its left edge
    return std::move(flooredGeometric(w, r, floor));
}

namespace
{

/** Weight profile for 503.bwaves_r per Section IV-C: one dominant
 *  60% phase, top three cover 80%, long insignificant tail. */
std::vector<double>
bwavesWeights(int n)
{
    SPLAB_ASSERT(n >= 4, "bwaves profile needs >= 4 phases");
    std::vector<double> w(n);
    w[0] = 0.60;
    w[1] = 0.12;
    w[2] = 0.08;
    double rest = 0.20;
    double r = 0.8, x = 1.0, s = 0.0;
    for (int i = 3; i < n; ++i) {
        s += x;
        x *= r;
    }
    x = 1.0;
    for (int i = 3; i < n; ++i) {
        w[i] = rest * x / s;
        x *= r;
    }
    // Floor the insignificant tail so every phase is actually
    // scheduled (a few segments each), then rescale the tail to
    // keep the 60/12/8 head intact.
    double tail = 0.0;
    for (int i = 3; i < n; ++i) {
        if (w[i] < 0.006)
            w[i] = 0.006;
        tail += w[i];
    }
    for (int i = 3; i < n; ++i)
        w[i] *= rest / tail;
    return w;
}

struct DomainProfile
{
    MixProfile baseMix;
    double fpLo, fpHi;
    double dataDepLo, dataDepHi;
    u64 wsLo, wsHi;
    u32 blockLenLo, blockLenHi;
    std::vector<KernelKind> palette;
};

const DomainProfile &
domainProfile(SuiteDomain d)
{
    static const DomainProfile intProfile = {
        {0.47, 0.375, 0.135, 0.02, 0.16},
        0.0, 0.1,
        0.04, 0.16,
        32 * 1024, 8ULL << 20,
        50, 110,
        {KernelKind::PointerChase, KernelKind::ZipfHotCold,
         KernelKind::RandomUniform, KernelKind::Blocked,
         KernelKind::Stream},
    };
    static const DomainProfile fpProfile = {
        {0.53, 0.345, 0.11, 0.015, 0.06},
        0.35, 0.7,
        0.01, 0.05,
        128 * 1024, 24ULL << 20,
        80, 170,
        {KernelKind::Stream, KernelKind::Stencil, KernelKind::Strided,
         KernelKind::Blocked, KernelKind::ZipfHotCold},
    };
    return d == SuiteDomain::FpRate ? fpProfile : intProfile;
}

/** Log-uniform draw in [lo, hi]. */
u64
logUniform(Rng &rng, u64 lo, u64 hi)
{
    double x = rng.uniform(std::log(static_cast<double>(lo)),
                           std::log(static_cast<double>(hi)));
    return static_cast<u64>(std::exp(x));
}

} // namespace

BenchmarkSpec
makeBenchmark(const SuiteEntry &entry)
{
    const DomainProfile &dom = domainProfile(entry.domain);
    u64 nameSeed =
        hashBytes(entry.name, std::string(entry.name).size());
    Rng rng(nameSeed, 0x5017ULL);

    BenchmarkSpec spec;
    spec.name = entry.name;
    spec.seed = nameSeed;
    spec.chunkLen = 1000;

    double scale = workloadScale();
    u64 slices = static_cast<u64>(
        static_cast<double>(entry.slices) * scale);
    if (slices < 200)
        slices = 200;
    spec.totalChunks = slices * 10; // default slice = 10 chunks

    std::vector<double> weights =
        std::string(entry.name) == "503.bwaves_r"
            ? bwavesWeights(entry.simPoints)
            : designWeights(entry.simPoints, entry.points90);

    for (int i = 0; i < entry.simPoints; ++i) {
        PhaseSpec p;
        p.name = "phase" + std::to_string(i);
        p.weight = weights[i];

        p.mix = dom.baseMix;
        p.mix.noMem *= std::exp(0.10 * rng.gaussian());
        p.mix.memR *= std::exp(0.12 * rng.gaussian());
        p.mix.memW *= std::exp(0.15 * rng.gaussian());
        p.mix.memRW *= std::exp(0.30 * rng.gaussian());
        p.mix.normalize();
        p.mix.branch = dom.baseMix.branch *
                       std::exp(0.2 * rng.gaussian());

        p.numBlocks = 8 + static_cast<u32>(rng.below(28));
        p.avgBlockLen =
            dom.blockLenLo +
            static_cast<u32>(rng.below(dom.blockLenHi -
                                       dom.blockLenLo + 1));
        p.fpFraction = rng.uniform(dom.fpLo, dom.fpHi);
        p.dataDepBranchFraction =
            rng.uniform(dom.dataDepLo, dom.dataDepHi);

        p.kernel = dom.palette[rng.below(dom.palette.size())];
        p.workingSetBytes = logUniform(rng, dom.wsLo, dom.wsHi);
        p.localFraction = entry.domain == SuiteDomain::FpRate
                              ? rng.uniform(0.45, 0.65)
                              : rng.uniform(0.55, 0.72);
        p.stride = 64u << rng.below(4); // 64..512
        p.hotFraction = rng.uniform(0.02, 0.2);
        p.hotProbability = rng.uniform(0.6, 0.95);
        p.tileBytes = 2048u << rng.below(3); // 2K..8K
        p.blockNoise = rng.uniform(0.12, 0.30);
        // Dominant phases are single homogeneous kernels (a bwaves
        // style loop nest): internally tight, or BIC justifiably
        // splits their wide, highly-populated cluster.
        if (weights[i] > 0.3)
            p.blockNoise *= 0.15;
        p.drift = 0.0;

        spec.phases.push_back(std::move(p));
    }

    // Temporal structure: mostly input-driven alternation, with some
    // frame-periodic and stage-like programs.
    double u = rng.uniform();
    spec.schedule = u < 0.6 ? ScheduleKind::Markov
                   : u < 0.85 ? ScheduleKind::Interleaved
                              : ScheduleKind::Contiguous;
    // Mean phase-segment length.  Slices straddling a segment
    // boundary mix two phases and can surface as spurious clusters;
    // benchmarks with few, long phases (omnetpp-like) dwell much
    // longer, keeping the boundary share negligible.
    spec.dwellChunks = 160 + rng.below(160);
    if (spec.phases.size() < 8)
        spec.dwellChunks *= 5;
    spec.validate();
    return spec;
}

BenchmarkSpec
benchmarkByName(const std::string &name)
{
    return makeBenchmark(suiteEntry(name));
}

std::vector<BenchmarkSpec>
spec2017Suite()
{
    std::vector<BenchmarkSpec> specs;
    specs.reserve(suiteTable().size());
    for (const auto &e : suiteTable())
        specs.push_back(makeBenchmark(e));
    return specs;
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    names.reserve(suiteTable().size());
    for (const auto &e : suiteTable())
        names.emplace_back(e.name);
    return names;
}

} // namespace splab
