/**
 * @file
 * Batched event delivery and the fused whole-run measurement:
 * batching must be a pure delivery reordering (identical tool
 * statistics to per-block dispatch), the MRU cache fast path must be
 * semantically invisible, the fused single-pass measurement must
 * be byte-identical to the separate passes it replaces, the SIMD
 * accumulate kernels must match their scalar reference, and the
 * workload's reused batch arena must refill cleanly.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <random>
#include <set>

#include "core/artifact_graph.hh"
#include "core/runs.hh"
#include "isa/accumulate.hh"
#include "obs/counters.hh"
#include "pin/engine.hh"
#include "pin/tools/allcache.hh"
#include "pin/tools/bbv_tool.hh"
#include "pin/tools/branch_profile.hh"
#include "pin/tools/ldstmix.hh"
#include "support/serialize.hh"
#include "timing/interval_core.hh"
#include "workload/suite.hh"

namespace splab
{
namespace
{

BenchmarkSpec
smallSpec(u64 chunks = 300)
{
    BenchmarkSpec spec;
    spec.name = "batch-test";
    spec.seed = 99;
    spec.totalChunks = chunks;
    spec.chunkLen = 1000;
    PhaseSpec a;
    a.weight = 0.6;
    a.kernel = KernelKind::Stream;
    a.workingSetBytes = 4 << 20;
    PhaseSpec b;
    b.weight = 0.4;
    b.kernel = KernelKind::PointerChase;
    b.workingSetBytes = 1 << 20;
    spec.phases = {a, b};
    spec.schedule = ScheduleKind::Interleaved;
    spec.dwellChunks = 30;
    return spec;
}

/**
 * Forces per-block delivery: overrides only onBlock, so the default
 * EventSink::onBatch unpacks each chunk and the wrapped engine fans
 * out one virtual call per (block, tool) — the pre-batching path.
 */
class PerBlockFanout : public EventSink
{
  public:
    explicit PerBlockFanout(Engine &e) : engine(e) {}

    void
    onBlock(const BlockRecord &rec, const MemAccess *accs,
            std::size_t nAccs, const BranchRecord *br) override
    {
        engine.onBlock(rec, accs, nAccs, br);
    }

  private:
    Engine &engine;
};

void
expectSameCacheStats(const CacheHierarchy &a, const CacheHierarchy &b)
{
    for (CacheLevel l : {CacheLevel::L1I, CacheLevel::L1D,
                         CacheLevel::L2, CacheLevel::L3}) {
        const CacheStats &x = a.levelStats(l);
        const CacheStats &y = b.levelStats(l);
        EXPECT_EQ(x.accesses, y.accesses) << cacheLevelName(l);
        EXPECT_EQ(x.misses, y.misses) << cacheLevelName(l);
        EXPECT_EQ(x.readAccesses, y.readAccesses) << cacheLevelName(l);
        EXPECT_EQ(x.readMisses, y.readMisses) << cacheLevelName(l);
        EXPECT_EQ(x.writeAccesses, y.writeAccesses)
            << cacheLevelName(l);
        EXPECT_EQ(x.writeMisses, y.writeMisses) << cacheLevelName(l);
    }
}

TEST(EventBatching, BatchedMatchesPerBlock)
{
    // Every bundled tool, batched dispatch vs forced per-block
    // dispatch: all statistics exactly equal.
    BenchmarkSpec spec = smallSpec(200);
    const ICount slice = spec.chunkLen * 10;

    AllCacheTool cacheA(tableIConfig());
    LdStMixTool mixA;
    BranchProfileTool brA;
    IntervalCoreTool coreA(tableIIIMachine());
    BbvTool bbvA(slice);
    Engine batched;
    for (PinTool *t : std::initializer_list<PinTool *>{
             &cacheA, &mixA, &brA, &coreA, &bbvA})
        batched.attach(t);
    SyntheticWorkload wlA(spec);
    batched.runWhole(wlA);

    AllCacheTool cacheB(tableIConfig());
    LdStMixTool mixB;
    BranchProfileTool brB;
    IntervalCoreTool coreB(tableIIIMachine());
    BbvTool bbvB(slice);
    Engine perBlock;
    for (PinTool *t : std::initializer_list<PinTool *>{
             &cacheB, &mixB, &brB, &coreB, &bbvB})
        perBlock.attach(t);
    SyntheticWorkload wlB(spec);
    PerBlockFanout fanout(perBlock);
    for (PinTool *t : std::initializer_list<PinTool *>{
             &cacheB, &mixB, &brB, &coreB, &bbvB})
        t->onRunStart(wlB);
    wlB.run(0, spec.totalChunks, fanout, true);
    for (PinTool *t : std::initializer_list<PinTool *>{
             &cacheB, &mixB, &brB, &coreB, &bbvB})
        t->onRunEnd();

    expectSameCacheStats(cacheA.hierarchy(), cacheB.hierarchy());

    for (std::size_t c = 0; c < kNumMemClasses; ++c)
        EXPECT_EQ(mixA.mix().count[c], mixB.mix().count[c]);
    EXPECT_EQ(mixA.fpInstructions(), mixB.fpInstructions());

    EXPECT_EQ(brA.branchCount(), brB.branchCount());
    EXPECT_EQ(brA.takenCount(), brB.takenCount());
    EXPECT_EQ(brA.dataDependentCount(), brB.dataDependentCount());

    const TimingStats &ta = coreA.stats();
    const TimingStats &tb = coreB.stats();
    EXPECT_EQ(ta.instrs, tb.instrs);
    EXPECT_EQ(ta.cycles, tb.cycles);
    EXPECT_EQ(ta.branches, tb.branches);
    EXPECT_EQ(ta.mispredicts, tb.mispredicts);
    EXPECT_EQ(ta.l2Hits, tb.l2Hits);
    EXPECT_EQ(ta.l3Hits, tb.l3Hits);
    EXPECT_EQ(ta.memAccesses, tb.memAccesses);

    ASSERT_EQ(bbvA.vectors().size(), bbvB.vectors().size());
    for (std::size_t s = 0; s < bbvA.vectors().size(); ++s) {
        const auto &ea = bbvA.vectors()[s].entries;
        const auto &eb = bbvB.vectors()[s].entries;
        ASSERT_EQ(ea.size(), eb.size()) << "slice " << s;
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].block, eb[i].block);
            EXPECT_FLOAT_EQ(ea[i].weight, eb[i].weight);
        }
    }
}

/** Sink that checks the structural invariants of every batch. */
class InvariantSink : public EventSink
{
  public:
    void
    onBlock(const BlockRecord &, const MemAccess *, std::size_t,
            const BranchRecord *) override
    {
    }

    void
    onBatch(const EventBatch &batch) override
    {
        ++batches;
        const std::size_t n = batch.numBlocks();
        ASSERT_GT(n, 0u);
        ASSERT_EQ(batch.offsets().size(), n + 1);
        ASSERT_EQ(batch.branches().size(), n);
        ASSERT_EQ(batch.branchValid().size(), n);
        ASSERT_EQ(batch.blocks().size(), n);
        EXPECT_EQ(batch.offsets().front(), 0u);
        // The pool may retain high-water capacity; the offsets only
        // ever address the used prefix.
        EXPECT_LE(batch.offsets().back(), batch.accessPool().size());

        ICount instrSum = 0;
        std::size_t accSum = 0;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_LE(batch.offsets()[i], batch.offsets()[i + 1]);
            instrSum += batch.block(i).instrs;
            accSum += batch.accCount(i);
            // Element accessors agree with the raw arrays.
            EXPECT_EQ(&batch.block(i), &batch.blocks()[i]);
            if (batch.accCount(i) == 0) {
                EXPECT_EQ(batch.accs(i), nullptr);
            } else {
                EXPECT_EQ(batch.accs(i), batch.accessPool().data() +
                                             batch.offsets()[i]);
            }
            if (batch.branch(i)) {
                EXPECT_EQ(batch.branch(i), &batch.branches()[i]);
                EXPECT_TRUE(batch.block(i).endsInBranch);
            }
        }
        EXPECT_EQ(batch.instrs(), instrSum);
        EXPECT_EQ(batch.offsets().back(), accSum);
        totalInstrs += instrSum;
    }

    std::size_t batches = 0;
    ICount totalInstrs = 0;
};

TEST(EventBatching, BatchLayoutInvariants)
{
    BenchmarkSpec spec = smallSpec(64);
    SyntheticWorkload wl(spec);
    InvariantSink sink;
    wl.run(0, spec.totalChunks, sink, true);
    // One batch per chunk, covering the full instruction budget.
    EXPECT_EQ(sink.batches, spec.totalChunks);
    EXPECT_EQ(sink.totalInstrs, spec.totalChunks * spec.chunkLen);
}

/** Sink that recomputes every per-chunk aggregate from the raw
 *  arrays and checks it against the precomputed accessors. */
class AggregateCheckSink : public EventSink
{
  public:
    void
    onBlock(const BlockRecord &, const MemAccess *, std::size_t,
            const BranchRecord *) override
    {
    }

    void
    onBatch(const EventBatch &batch) override
    {
        ++batches;
        InstrMix mix;
        ICount fp = 0;
        u64 branches = 0, taken = 0, dataDep = 0;
        std::map<u32, u64> sums;
        const std::size_t n = batch.numBlocks();
        for (std::size_t i = 0; i < n; ++i) {
            const BlockRecord &rec = batch.block(i);
            mix += rec.mix;
            fp += rec.fpInstrs;
            if (const BranchRecord *br = batch.branch(i)) {
                ++branches;
                taken += br->taken ? 1 : 0;
                dataDep += br->dataDependent ? 1 : 0;
            }
            sums[rec.bb] += rec.instrs;
        }
        for (std::size_t c = 0; c < kNumMemClasses; ++c)
            ASSERT_EQ(batch.mixTotal().count[c], mix.count[c]);
        ASSERT_EQ(batch.fpTotal(), fp);
        ASSERT_EQ(batch.branchTotal(), branches);
        ASSERT_EQ(batch.takenTotal(), taken);
        ASSERT_EQ(batch.dataDependentTotal(), dataDep);

        // The touched-block list names each touched block exactly
        // once, the per-block sums match a from-scratch reduction,
        // and together they cover the batch's instruction total.
        std::set<u32> seen;
        u64 total = 0;
        for (u32 b : batch.touchedBlocks()) {
            ASSERT_TRUE(seen.insert(b).second)
                << "duplicate touched block " << b;
            auto it = sums.find(b);
            ASSERT_NE(it, sums.end()) << "untouched block " << b;
            ASSERT_EQ(batch.blockInstrSum(b), it->second);
            total += it->second;
        }
        ASSERT_EQ(seen.size(), sums.size());
        ASSERT_EQ(total, batch.instrs());
    }

    std::size_t batches = 0;
};

TEST(EventBatching, ChunkAggregatesMatchPerBlockReduction)
{
    BenchmarkSpec spec = smallSpec(120);
    SyntheticWorkload wl(spec);
    AggregateCheckSink sink;
    wl.run(0, spec.totalChunks, sink, true);
    EXPECT_EQ(sink.batches, spec.totalChunks);
}

/** Random event arrays shaped like a generated chunk. */
struct RandomBatchArrays
{
    std::vector<BlockRecord> recs;
    std::vector<u8> valid, taken, dataDep;
};

RandomBatchArrays
randomArrays(std::size_t n, u64 seed)
{
    RandomBatchArrays a;
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        BlockRecord r;
        r.bb = static_cast<u32>(rng() % 500);
        r.pc = rng();
        r.instrs = 1 + static_cast<u32>(rng() % 40);
        for (std::size_t m = 0; m < r.mix.count.size(); ++m)
            r.mix.count[m] = rng() % 17;
        r.fpInstrs = static_cast<u32>(rng() % 9);
        bool hasBr = (rng() & 1) != 0;
        r.endsInBranch = hasBr;
        a.recs.push_back(r);
        a.valid.push_back(hasBr ? 1 : 0);
        a.taken.push_back(hasBr && (rng() & 1) ? 1 : 0);
        a.dataDep.push_back(hasBr && (rng() & 1) ? 1 : 0);
    }
    return a;
}

TEST(SimdAccumulate, MatchesScalarAtEveryLength)
{
    // Vector widths, tails, empty input: the SIMD kernels must be
    // bit-equal to the scalar reference at every length.
    for (std::size_t n : {0u, 1u, 2u, 7u, 15u, 16u, 17u, 333u, 4096u}) {
        RandomBatchArrays a = randomArrays(n, 77 + n);
        BatchAggregates s = accumulateScalar(
            a.recs.data(), n, a.valid.data(), a.taken.data(),
            a.dataDep.data());
        BatchAggregates v = accumulateSimd(
            a.recs.data(), n, a.valid.data(), a.taken.data(),
            a.dataDep.data());
        EXPECT_TRUE(s == v) << "n=" << n;
        EXPECT_TRUE(s == accumulateBatch(a.recs.data(), n,
                                         a.valid.data(),
                                         a.taken.data(),
                                         a.dataDep.data()))
            << "n=" << n;
        EXPECT_EQ(sumBytesScalar(a.valid.data(), n),
                  sumBytesSimd(a.valid.data(), n))
            << "n=" << n;
    }
}

TEST(SimdAccumulate, BatchAggregatesMatchPerBlockReduction)
{
    // End to end through EventBatch: the lazily finalized aggregates
    // equal a per-block reduction, across separate run() windows
    // that each clear and refill the workload's reused arena.
    BenchmarkSpec spec = smallSpec(40);
    SyntheticWorkload wl(spec);
    AggregateCheckSink sink;
    for (u64 c : {u64{0}, u64{17}, u64{39}})
        wl.run(c, 1, sink, true);
    EXPECT_EQ(sink.batches, 3u);
}

/** Serialize a batch's full event content plus its aggregates. */
std::vector<u8>
batchBytes(const EventBatch &batch)
{
    ByteWriter w;
    w.put<u64>(batch.numBlocks());
    for (std::size_t i = 0; i < batch.numBlocks(); ++i) {
        const BlockRecord &rec = batch.block(i);
        w.put<u32>(rec.bb);
        w.put<u64>(rec.pc);
        w.put<u32>(rec.instrs);
        for (ICount c : rec.mix.count)
            w.put<u64>(c);
        w.put<u32>(rec.fpInstrs);
        w.put<u8>(rec.endsInBranch ? 1 : 0);
        w.put<u64>(batch.accCount(i));
        const MemAccess *accs = batch.accs(i);
        for (std::size_t k = 0; k < batch.accCount(i); ++k) {
            w.put<u64>(accs[k].addr);
            w.put<u8>(accs[k].size);
            w.put<u8>(accs[k].isWrite ? 1 : 0);
        }
        const BranchRecord *br = batch.branch(i);
        w.put<u8>(br ? 1 : 0);
        if (br) {
            w.put<u64>(br->pc);
            w.put<u8>(br->taken ? 1 : 0);
            w.put<u8>(br->dataDependent ? 1 : 0);
        }
    }
    w.put<u64>(batch.instrs());
    for (ICount c : batch.mixTotal().count)
        w.put<u64>(c);
    w.put<u64>(batch.fpTotal());
    w.put<u64>(batch.branchTotal());
    w.put<u64>(batch.takenTotal());
    w.put<u64>(batch.dataDependentTotal());
    w.put<u64>(batch.touchedBlocks().size());
    for (u32 bb : batch.touchedBlocks()) {
        w.put<u32>(bb);
        w.put<u64>(batch.blockInstrSum(bb));
    }
    return w.bytes();
}

/**
 * Records each delivered batch's bytes and the arena it arrived in;
 * with @c poison set, then scribbles junk into that arena — junk
 * blocks, accesses, branches, cached aggregates and touched-block
 * sums with block ids far above the workload's — so the next chunk
 * is filled over garbage.  The arena is the workload's own
 * non-const member, so writing through the delivered reference is
 * well defined.
 */
class ArenaProbeSink : public EventSink
{
  public:
    explicit ArenaProbeSink(bool poisonArena) : poison(poisonArena) {}

    void
    onBlock(const BlockRecord &, const MemAccess *, std::size_t,
            const BranchRecord *) override
    {
    }

    void
    onBatch(const EventBatch &batch) override
    {
        arenas.insert(&batch);
        bytes.push_back(batchBytes(batch));
        if (!poison)
            return;
        EventBatch &junk = const_cast<EventBatch &>(batch);
        junk.clear();
        for (std::size_t i = 0; i < 500; ++i) {
            BlockRecord r;
            r.bb = static_cast<u32>(rng() % 4096);
            r.pc = rng();
            r.instrs = 1 + static_cast<u32>(rng() % 50);
            for (std::size_t m = 0; m < r.mix.count.size(); ++m)
                r.mix.count[m] = rng() % 23;
            r.fpInstrs = static_cast<u32>(rng() % 7);
            std::size_t nAccs = rng() % 4;
            MemAccess *accs = junk.reserveAccs(nAccs);
            for (std::size_t k = 0; k < nAccs; ++k) {
                accs[k].addr = rng();
                accs[k].size = 8;
                accs[k].isWrite = (rng() & 1) != 0;
            }
            BranchRecord br;
            br.pc = rng();
            br.taken = (rng() & 1) != 0;
            br.dataDependent = (rng() & 1) != 0;
            bool hasBr = (rng() & 1) != 0;
            r.endsInBranch = hasBr;
            junk.push(r, nAccs, br, hasBr);
        }
        (void)junk.touchedBlocks(); // cache junk aggregates too
    }

    std::set<const EventBatch *> arenas;
    std::vector<std::vector<u8>> bytes;

  private:
    bool poison;
    std::mt19937_64 rng{1};
};

TEST(ArenaReuse, PoisonedBatchRefillsClean)
{
    // SyntheticWorkload::run refills one arena for every chunk and
    // keeps it across run() calls; a refill must not inherit
    // anything from the previous occupant.  Poison the arena after
    // every delivery and demand each chunk byte-identical to a
    // pristine workload's, within a run and across run() calls.
    BenchmarkSpec spec = smallSpec(50);
    SyntheticWorkload pristineWl(spec);
    ArenaProbeSink pristine(false);
    pristineWl.run(0, spec.totalChunks, pristine, true);

    SyntheticWorkload wl(spec);
    ArenaProbeSink poisoned(true);
    wl.run(0, spec.totalChunks, poisoned, true);
    wl.run(17, 1, poisoned, true);
    wl.run(3, 2, poisoned, true);

    ASSERT_EQ(poisoned.arenas.size(), 1u) << "arena not reused";
    ASSERT_EQ(poisoned.bytes.size(), spec.totalChunks + 3);
    for (u64 c = 0; c < spec.totalChunks; ++c)
        EXPECT_EQ(poisoned.bytes[c], pristine.bytes[c])
            << "chunk " << c;
    EXPECT_EQ(poisoned.bytes[spec.totalChunks], pristine.bytes[17]);
    EXPECT_EQ(poisoned.bytes[spec.totalChunks + 1],
              pristine.bytes[3]);
    EXPECT_EQ(poisoned.bytes[spec.totalChunks + 2],
              pristine.bytes[4]);
}

TEST(BbvToolT, HalfFullSliverBoundary)
{
    // 25 chunks at slice = 10 chunks leaves a final sliver with
    // inSlice * 2 == sliceInstrs exactly — the keep/drop boundary.
    // A half-full sliver is kept; just under half (24 chunks -> 0.4
    // of a slice) is dropped.  Both delivery grains must agree, and
    // the kept vectors must be bit-identical (the chunk-aggregate
    // BBV path reassociates exact integer-valued doubles only).
    for (u64 chunks : {u64{25}, u64{24}}) {
        BenchmarkSpec spec = smallSpec(chunks);
        const ICount slice = spec.chunkLen * 10;
        const std::size_t expectSlices = chunks == 25 ? 3 : 2;

        BbvTool batched(slice);
        Engine eb;
        eb.attach(&batched);
        SyntheticWorkload wlA(spec);
        eb.runWhole(wlA);

        BbvTool perBlock(slice);
        Engine ep;
        ep.attach(&perBlock);
        PerBlockFanout fanout(ep);
        SyntheticWorkload wlB(spec);
        perBlock.onRunStart(wlB);
        wlB.run(0, spec.totalChunks, fanout, false);
        perBlock.onRunEnd();

        ASSERT_EQ(batched.vectors().size(), expectSlices)
            << chunks << " chunks";
        ASSERT_EQ(perBlock.vectors().size(), expectSlices);
        for (std::size_t s = 0; s < expectSlices; ++s) {
            const auto &ea = batched.vectors()[s].entries;
            const auto &eb2 = perBlock.vectors()[s].entries;
            ASSERT_EQ(ea.size(), eb2.size()) << "slice " << s;
            for (std::size_t i = 0; i < ea.size(); ++i) {
                EXPECT_EQ(ea[i].block, eb2[i].block);
                // Exact, not approximate: byte-stability of the BBV
                // artifact is what keeps its cache salt unbumped.
                EXPECT_EQ(ea[i].weight, eb2[i].weight);
            }
        }
    }
}

TEST(HierarchyMemo, AccessDataMatchesMemoFreeWalk)
{
    // The absent-from-L1D memo must be semantically invisible: same
    // per-access hit levels and same per-level counters as a plain
    // L1D -> L2 -> L3 walk over memo-free caches.  Random streams
    // with a working set far above L1D capacity make missing lines
    // repeat (the memo's target case); a mid-stream flush checks the
    // memo resets with the contents.
    for (const HierarchyConfig &base :
         {tableIConfig(), tableIIIConfig()}) {
        for (ReplacementPolicy pol :
             {ReplacementPolicy::LRU, ReplacementPolicy::FIFO}) {
            HierarchyConfig cfg = base;
            cfg.l1d.replacement = pol;
            cfg.l2.replacement = pol;
            cfg.l3.replacement = pol;

            CacheHierarchy hier(cfg);
            SetAssocCache refL1d(cfg.l1d);
            SetAssocCache refL2(cfg.l2);
            SetAssocCache refL3(cfg.l3);

            u64 state = 0x9e3779b97f4a7c15ULL ^ cfg.contentHash();
            for (int i = 0; i < 200000; ++i) {
                if (i == 100000) {
                    hier.flush();
                    refL1d.flush();
                    refL2.flush();
                    refL3.flush();
                }
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Addr addr = (state % (256 * 1024)) & ~7ULL;
                bool isWrite = (state >> 21) & 1;
                HitLevel got = hier.accessData(addr, isWrite);
                HitLevel want =
                    refL1d.access(addr, isWrite) ? HitLevel::L1
                    : refL2.access(addr, isWrite)
                        ? HitLevel::L2
                        : refL3.access(addr, isWrite)
                              ? HitLevel::L3
                              : HitLevel::Memory;
                ASSERT_EQ(static_cast<int>(got),
                          static_cast<int>(want))
                    << "access " << i << " policy "
                    << replacementPolicyName(pol);
            }

            auto expectSame = [](const CacheStats &a,
                                 const CacheStats &b) {
                EXPECT_EQ(a.accesses, b.accesses);
                EXPECT_EQ(a.misses, b.misses);
                EXPECT_EQ(a.readAccesses, b.readAccesses);
                EXPECT_EQ(a.readMisses, b.readMisses);
                EXPECT_EQ(a.writeAccesses, b.writeAccesses);
                EXPECT_EQ(a.writeMisses, b.writeMisses);
            };
            expectSame(hier.levelStats(CacheLevel::L1D),
                       refL1d.statsRef());
            expectSame(hier.levelStats(CacheLevel::L2),
                       refL2.statsRef());
            expectSame(hier.levelStats(CacheLevel::L3),
                       refL3.statsRef());
            // The stream really exercised the memo's target case.
            EXPECT_GT(hier.levelStats(CacheLevel::L1D).misses, 0u);
        }
    }
}

TEST(EventBatching, EngineCountsBatches)
{
    obs::resetCounters();
    SyntheticWorkload wl(smallSpec(50));
    LdStMixTool mix;
    Engine engine;
    engine.attach(&mix);
    engine.runWhole(wl);
    auto counters = obs::counterSnapshot();
    EXPECT_EQ(counters.at("pin.batches"), 50u);
    EXPECT_GT(counters.at("pin.batch_blocks"), 50u);
    EXPECT_EQ(counters.at("pin.instrs"), 50000u);
}

/**
 * Reference cache: the pre-fast-path implementation (full way scan,
 * per-access tag-shift recomputation) with identical replacement and
 * counting semantics.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheParams &p)
        : params(p), sets(p.numSets()), lines(sets * p.ways)
    {
    }

    bool
    access(Addr addr, bool isWrite)
    {
        u64 line = addr / params.lineBytes;
        u64 set = line % sets;
        u64 tag = line / sets;
        auto *t = &lines[set * params.ways];

        bool hit = false;
        u32 pos = 0;
        for (u32 i = 0; i < params.ways; ++i) {
            if (t[i].valid && t[i].tag == tag) {
                hit = true;
                pos = i;
                break;
            }
        }
        bool refresh =
            hit ? params.replacement == ReplacementPolicy::LRU : true;
        if (refresh) {
            u32 from = hit ? pos : params.ways - 1;
            for (u32 i = from; i > 0; --i)
                t[i] = t[i - 1];
            t[0] = {tag, true};
        }

        ++stats.accesses;
        if (isWrite) {
            ++stats.writeAccesses;
            if (!hit)
                ++stats.writeMisses;
        } else {
            ++stats.readAccesses;
            if (!hit)
                ++stats.readMisses;
        }
        if (!hit)
            ++stats.misses;
        return hit;
    }

    CacheStats stats;

  private:
    struct Line
    {
        u64 tag = 0;
        bool valid = false;
    };
    CacheParams params;
    u64 sets;
    std::vector<Line> lines;
};

TEST(CacheFastPath, MruProbeMatchesReference)
{
    // The inline MRU/tag-shift fast path against the slow reference
    // model: identical hit sequences and counters for both policies
    // and degenerate geometries (including direct-mapped, where the
    // fast path IS the whole probe).
    for (ReplacementPolicy pol :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO}) {
        for (u32 ways : {1u, 2u, 8u}) {
            CacheParams p;
            p.name = "fastpath-test";
            p.sizeBytes = 16 * 1024;
            p.ways = ways;
            p.lineBytes = 64;
            p.replacement = pol;

            SetAssocCache fast(p);
            ReferenceCache ref(p);

            u64 state = 0x12345678 + ways;
            for (int i = 0; i < 200000; ++i) {
                // xorshift64; mask to a small range so sets collide
                // and hits dominate (exercising both probe paths).
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Addr addr = (state % (64 * 1024)) & ~7ULL;
                bool isWrite = (state >> 20) & 1;
                EXPECT_EQ(fast.access(addr, isWrite),
                          ref.access(addr, isWrite))
                    << "access " << i << " ways " << ways;
            }
            const CacheStats &s = fast.statsRef();
            EXPECT_EQ(s.accesses, ref.stats.accesses);
            EXPECT_EQ(s.misses, ref.stats.misses);
            EXPECT_EQ(s.readAccesses, ref.stats.readAccesses);
            EXPECT_EQ(s.readMisses, ref.stats.readMisses);
            EXPECT_EQ(s.writeAccesses, ref.stats.writeAccesses);
            EXPECT_EQ(s.writeMisses, ref.stats.writeMisses);
            EXPECT_GT(s.accesses, s.misses); // hits occurred
        }
    }
}

std::vector<u8>
cacheBytesNoWall(const CacheRunMetrics &m)
{
    ByteWriter w;
    w.put<u64>(m.instrs);
    for (double f : m.mixFrac)
        w.put<double>(f);
    for (const LevelCounts *lc : {&m.l1i, &m.l1d, &m.l2, &m.l3}) {
        w.put<u64>(lc->accesses);
        w.put<u64>(lc->misses);
    }
    w.put<u64>(m.branches);
    return w.bytes();
}

std::vector<u8>
timingBytesNoWall(const TimingRunMetrics &m)
{
    ByteWriter w;
    w.put<u64>(m.instrs);
    w.put<double>(m.cycles);
    w.put<u64>(m.branches);
    w.put<u64>(m.mispredicts);
    w.put<u64>(m.l2Hits);
    w.put<u64>(m.l3Hits);
    w.put<u64>(m.memAccesses);
    return w.bytes();
}

TEST(FusedWholeRun, MatchesSeparatePasses)
{
    BenchmarkSpec spec = smallSpec(250);
    HierarchyConfig caches = tableIConfig();
    MachineConfig machine = tableIIIMachine();
    const ICount slice = spec.chunkLen * 10;

    FusedWholeResult fused =
        measureWholeFused(spec, caches, machine, slice);
    CacheRunMetrics cacheOnly = measureWholeCache(spec, caches);
    TimingRunMetrics timingOnly = measureWholeTiming(spec, machine);

    EXPECT_EQ(cacheBytesNoWall(fused.cache),
              cacheBytesNoWall(cacheOnly));
    EXPECT_EQ(timingBytesNoWall(fused.timing),
              timingBytesNoWall(timingOnly));

    // The piggy-backed BBV pass matches a dedicated BBV tool run.
    SyntheticWorkload wl(spec);
    BbvTool bbv(slice);
    Engine engine;
    engine.attach(&bbv);
    engine.runWhole(wl);
    ASSERT_EQ(fused.bbvs.size(), bbv.vectors().size());
    for (std::size_t s = 0; s < fused.bbvs.size(); ++s) {
        const auto &ea = fused.bbvs[s].entries;
        const auto &eb = bbv.vectors()[s].entries;
        ASSERT_EQ(ea.size(), eb.size());
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].block, eb[i].block);
            EXPECT_FLOAT_EQ(ea[i].weight, eb[i].weight);
        }
    }
}

TEST(FusedWholeRun, GraphProjectionsShareOneTraversal)
{
    const std::string bench = "505.mcf_r";
    obs::resetCounters();
    ArtifactGraph g(ExperimentConfig::paperDefaults(),
                    std::make_shared<const ArtifactCache>(
                        ArtifactCache("")));
    const CacheRunMetrics &wc = g.wholeCache(bench);
    const TimingRunMetrics &wt = g.wholeTiming(bench);
    const PerfCounters &native = g.native(bench);
    const FusedWholeMetrics &fused = g.wholeFused(bench);

    // Projections are the fused node's fields, not re-measurements.
    EXPECT_EQ(cacheBytesNoWall(wc), cacheBytesNoWall(fused.cache));
    EXPECT_EQ(timingBytesNoWall(wt),
              timingBytesNoWall(fused.timing));
    EXPECT_EQ(native.instructions, fused.timing.instrs);
    EXPECT_EQ(native.cacheMisses, fused.timing.memAccesses);
    auto counters = obs::counterSnapshot();
    // spec + fused + three projections; one engine window total.
    EXPECT_EQ(counters.at("graph.nodes_computed"), 5u);
    EXPECT_EQ(counters.at("pin.windows"), 1u);
}

TEST(FusedWholeRun, NativeServedWarmWithoutTraversal)
{
    const std::string bench = "620.omnetpp_s"; // fewest slices
    std::string dir = testing::TempDir() + "/splab-native-cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto graphOver = [&] {
        return ArtifactGraph(ExperimentConfig::paperDefaults(),
                             std::make_shared<const ArtifactCache>(
                                 ArtifactCache(dir)));
    };

    obs::resetCounters();
    ArtifactGraph cold = graphOver();
    PerfCounters coldNative = cold.native(bench);
    EXPECT_EQ(obs::counterSnapshot().at("pin.windows"), 1u);

    // A second graph over the same directory reads the persisted
    // Native blob: no traversal, same bytes.
    obs::resetCounters();
    ArtifactGraph warm = graphOver();
    const PerfCounters &warmNative = warm.native(bench);
    auto counters = obs::counterSnapshot();
    EXPECT_EQ(counters.count("pin.windows") ? counters.at("pin.windows")
                                            : 0u,
              0u);
    EXPECT_EQ(counters.at("graph.cache_hits"), 1u);
    EXPECT_EQ(std::memcmp(&coldNative, &warmNative,
                          sizeof(PerfCounters)),
              0);
    std::filesystem::remove_all(dir);
}

TEST(RegionalPinball, SharedCaptureAcrossReplayKinds)
{
    // The whole-pinball capture happens once per benchmark even when
    // cold cache, warm cache and timing replays are all requested —
    // the RegionalPinball artifact is their shared upstream.
    const std::vector<std::string> benches = {"505.mcf_r"};
    ExperimentConfig cfg = ExperimentConfig::paperDefaults();
    cfg.simpoint.maxK = 4;
    obs::resetCounters();
    ArtifactGraph g(cfg, std::make_shared<const ArtifactCache>(
                             ArtifactCache("")));
    g.runSuite(benches, {ArtifactKind::PointsCacheCold,
                         ArtifactKind::PointsCacheWarm,
                         ArtifactKind::PointsTiming});
    auto counters = obs::counterSnapshot();
    EXPECT_EQ(counters.at("pinball.whole_captured"), 1u);
}

} // namespace
} // namespace splab
