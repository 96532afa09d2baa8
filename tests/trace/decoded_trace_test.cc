/**
 * @file
 * Tests for the DecodedTrace replay artifact: the precomputed block
 * index, derived per-block facts, and BIT window codes must agree
 * exactly with the reference per-run decomposition (BlockStream +
 * FetchBlock helpers + trueWindowCodes), and the frozen StaticImage
 * must answer lookups identically to the hash-map path. The artifact
 * shares the trace's stream and image, holds one window per distinct
 * start PC, and is sized exactly.
 */

#include "trace/decoded_trace.hh"

#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "core/fetch_simulator.hh"
#include "fetch/engine_common.hh"
#include "fetch/exit_predict.hh"
#include "workload/spec95.hh"

namespace mbbp
{
namespace
{

/** The three Table 6 geometries for a given width. */
std::vector<ICacheConfig>
geometries()
{
    return { ICacheConfig::normal(8), ICacheConfig::extended(8),
             ICacheConfig::selfAligned(8), ICacheConfig::normal(16) };
}

class DecodedTraceTest : public ::testing::Test
{
  protected:
    DecodedTraceTest() : trace_(specTrace("gcc", 40000)) {}

    InMemoryTrace trace_;
};

TEST_F(DecodedTraceTest, BlockIndexMatchesBlockStream)
{
    for (const ICacheConfig &geom : geometries()) {
        DecodedTrace dec = DecodedTrace::build(trace_, geom);

        ICacheModel cache(geom);
        TraceCursor cursor(trace_);
        BlockStream stream(cursor, cache);
        OwnedBlock ref;
        std::size_t i = 0;
        while (stream.next(ref)) {
            ASSERT_LT(i, dec.numBlocks());
            const FetchBlock got = dec.block(i);
            EXPECT_EQ(got.startPc, ref.startPc);
            EXPECT_EQ(got.nextPc, ref.nextPc);
            EXPECT_EQ(got.exitIdx, ref.exitIdx);
            ASSERT_EQ(got.size(), ref.size());
            for (unsigned j = 0; j < got.size(); ++j) {
                EXPECT_EQ(got[j].pc, ref.insts[j].pc);
                EXPECT_EQ(got[j].cls, ref.insts[j].cls);
                EXPECT_EQ(got[j].taken, ref.insts[j].taken);
                EXPECT_EQ(got[j].target, ref.insts[j].target);
            }
            ++i;
        }
        EXPECT_EQ(i, dec.numBlocks());
        ASSERT_GT(i, 0u);
    }
}

TEST_F(DecodedTraceTest, DerivedFactsMatchBlockHelpers)
{
    const ICacheConfig geom = ICacheConfig::normal(8);
    DecodedTrace dec = DecodedTrace::build(trace_, geom);
    const unsigned line_size = geom.lineSize;

    for (std::size_t i = 0; i < dec.numBlocks(); ++i) {
        const FetchBlock blk = dec.block(i);
        EXPECT_EQ(dec.condOutcomes(i), blk.condOutcomes());
        EXPECT_EQ(dec.numConds(i), blk.numConds());
        EXPECT_EQ(dec.numNotTakenConds(i), blk.numNotTakenConds());
        EXPECT_EQ(dec.numInsts(i), blk.size());

        FetchStats ref, got;
        countBlockStats(ref, blk, line_size);
        got.instructions = dec.numInsts(i);
        got.blocksFetched = 1;
        got.branchesExecuted = dec.numBranches(i);
        got.condExecuted = dec.numConds(i);
        got.nearBlockConds = dec.numNearConds(i);
        EXPECT_EQ(got, ref);

        RasOp expect_op = RasOp::None;
        if (const DynInst *e = blk.exitInst()) {
            if (isCall(e->cls))
                expect_op = RasOp::Push;
            else if (isReturn(e->cls))
                expect_op = RasOp::Pop;
        }
        EXPECT_EQ(dec.rasOp(i), expect_op);
    }
}

TEST_F(DecodedTraceTest, WindowCodesMatchTrueWindowCodes)
{
    for (const ICacheConfig &geom : geometries()) {
        DecodedTrace dec = DecodedTrace::build(trace_, geom);
        ICacheModel cache(geom);
        const unsigned line_size = cache.lineSize();

        for (std::size_t i = 0; i < dec.numBlocks(); ++i) {
            const Addr start = dec.startPc(i);
            const unsigned cap = dec.windowLen(i);
            ASSERT_EQ(cap, cache.capacityAt(start));
            for (bool near_block : { false, true }) {
                BitVector ref = trueWindowCodes(
                    dec.image(), start, cap, line_size, near_block);
                const BitCode *got = dec.windowCodes(i, near_block);
                ASSERT_EQ(ref.size(), cap);
                for (unsigned j = 0; j < cap; ++j)
                    EXPECT_EQ(got[j], ref[j])
                        << "block " << i << " slot " << j
                        << " near=" << near_block;
            }
        }
    }
}

TEST_F(DecodedTraceTest, FrozenImageMatchesMapLookups)
{
    // The artifact's image is frozen (sorted flat array, branchless
    // lookup); an incrementally built image answers through the map.
    StaticImage reference;
    for (const auto &inst : trace_.insts())
        reference.add({ inst.pc, inst.cls, inst.taken, inst.target });
    ASSERT_FALSE(reference.frozen());

    DecodedTrace dec =
        DecodedTrace::build(trace_, ICacheConfig::normal(8));
    ASSERT_TRUE(dec.image().frozen());

    for (const auto &inst : trace_.insts()) {
        // Probe the PC itself and its neighbors (misses exercise the
        // not-found path of the branchless search).
        for (Addr pc : { inst.pc, inst.pc + 1, inst.pc - 1 }) {
            StaticInfo a = dec.image().lookup(pc);
            StaticInfo b = reference.lookup(pc);
            EXPECT_EQ(a.cls, b.cls);
            EXPECT_EQ(a.target, b.target);
        }
    }
    StaticInfo miss = dec.image().lookup(0);
    EXPECT_EQ(miss.cls, InstClass::NonBranch);
}

TEST_F(DecodedTraceTest, GeometryCompatibilityIgnoresBanks)
{
    ICacheConfig geom = ICacheConfig::normal(8);
    DecodedTrace dec = DecodedTrace::build(trace_, geom);

    ICacheConfig banks = geom;
    banks.numBanks = 2;
    EXPECT_TRUE(dec.geometryCompatible(banks));

    EXPECT_FALSE(dec.geometryCompatible(ICacheConfig::extended(8)));
    EXPECT_FALSE(dec.geometryCompatible(ICacheConfig::normal(16)));
}

TEST_F(DecodedTraceTest, ArtifactIsSelfContained)
{
    // The artifact must survive its source trace: views point into
    // the artifact's own instruction copy.
    DecodedTrace dec;
    {
        InMemoryTrace local = specTrace("compress", 20000);
        dec = DecodedTrace::build(local, ICacheConfig::normal(8));
    }
    ASSERT_GT(dec.numBlocks(), 0u);
    uint64_t insts = 0;
    for (std::size_t i = 0; i < dec.numBlocks(); ++i)
        insts += dec.block(i).size();
    EXPECT_LE(insts, dec.insts().size());
}

/** Every (cache type, width) pair the per-block reference covers. */
std::vector<ICacheConfig>
allGeometries()
{
    std::vector<ICacheConfig> out;
    for (unsigned width : { 4u, 8u, 16u }) {
        out.push_back(ICacheConfig::normal(width));
        out.push_back(ICacheConfig::extended(width));
        out.push_back(ICacheConfig::selfAligned(width));
    }
    return out;
}

TEST(DecodedTraceColumns, MatchPerBlockReference)
{
    for (const char *name : { "gcc", "li", "compress", "swim" }) {
        const InMemoryTrace trace = specTrace(name, 20000);

        // An incrementally built image answers through its hash map,
        // independently of the frozen image the artifact shares.
        StaticImage image;
        for (const DynInst &inst : trace.insts())
            image.add(inst);

        for (const ICacheConfig &geom : allGeometries()) {
            SCOPED_TRACE(std::string(name) + " type " +
                         std::to_string(static_cast<int>(geom.type)) +
                         " width " + std::to_string(geom.blockWidth));
            const DecodedTrace dec = DecodedTrace::build(trace, geom);
            const ICacheModel cache(geom);
            const unsigned line_size = cache.lineSize();

            TraceCursor cursor(trace);
            BlockStream stream(cursor, cache);
            OwnedBlock ref;
            std::size_t i = 0;
            while (stream.next(ref)) {
                ASSERT_LT(i, dec.numBlocks());
                const FetchBlock got = dec.block(i);
                ASSERT_EQ(dec.numInsts(i), ref.size());
                EXPECT_EQ(dec.startPc(i), ref.startPc);
                EXPECT_EQ(dec.nextPc(i), ref.nextPc);
                EXPECT_EQ(got.exitIdx, ref.exitIdx);
                for (unsigned j = 0; j < ref.size(); ++j)
                    EXPECT_EQ(got[j], ref.insts[j]);

                uint64_t mask = 0;
                unsigned conds = 0, not_taken = 0, branches = 0;
                unsigned near = 0;
                for (const DynInst &inst : ref.insts) {
                    if (!isControl(inst.cls))
                        continue;
                    ++branches;
                    if (!isCondBranch(inst.cls))
                        continue;
                    if (conds < 63)
                        mask |= uint64_t(inst.taken) << conds;
                    ++conds;
                    not_taken += !inst.taken;
                    near += bitCodeIsNear(computeBitCode(
                        inst.cls, inst.pc, inst.target, line_size,
                        true));
                }
                EXPECT_EQ(dec.condOutcomes(i), mask);
                EXPECT_EQ(dec.numConds(i), conds);
                EXPECT_EQ(dec.numNotTakenConds(i), not_taken);
                EXPECT_EQ(dec.numBranches(i), branches);
                EXPECT_EQ(dec.numNearConds(i), near);

                RasOp op = RasOp::None;
                if (ref.exitIdx >= 0) {
                    const DynInst &e = ref.insts[ref.exitIdx];
                    op = isCall(e.cls)     ? RasOp::Push
                         : isReturn(e.cls) ? RasOp::Pop
                                           : RasOp::None;
                }
                EXPECT_EQ(dec.rasOp(i), op);

                const unsigned cap = cache.capacityAt(ref.startPc);
                ASSERT_EQ(dec.windowLen(i), cap);
                for (bool near_block : { true, false }) {
                    const BitCode *codes =
                        dec.windowCodes(i, near_block);
                    for (unsigned j = 0; j < cap; ++j) {
                        const Addr pc = ref.startPc + j;
                        const StaticInfo info = image.lookup(pc);
                        EXPECT_EQ(codes[j],
                                  computeBitCode(info.cls, pc,
                                                 info.target, line_size,
                                                 near_block))
                            << "block " << i << " slot " << j
                            << " near=" << near_block;
                    }
                }
                ++i;
            }
            EXPECT_EQ(i, dec.numBlocks());
        }
    }
}

TEST(DecodedTraceSharing, GeometriesShareOneStreamAndImage)
{
    const InMemoryTrace trace = specTrace("li", 20000);
    const std::shared_ptr<const StaticImage> image = trace.image();
    ASSERT_TRUE(image->frozen());
    for (const ICacheConfig &geom : allGeometries()) {
        const DecodedTrace dec = DecodedTrace::build(trace, geom);
        EXPECT_EQ(dec.insts().data(), trace.insts().data());
        EXPECT_EQ(dec.insts().size(), trace.size());
        EXPECT_EQ(&dec.image(), image.get());
    }
    // A copy of the trace shares the same storage too.
    const InMemoryTrace copy = trace;
    EXPECT_EQ(copy.insts().data(), trace.insts().data());
    EXPECT_EQ(copy.image().get(), image.get());
}

TEST(DecodedTraceSharing, ConcurrentBuildsShareOneImage)
{
    // TraceCache decodes the geometries of one program on several
    // threads at once; the first to ask builds the image, the rest
    // wait for it and share it.
    const InMemoryTrace trace = specTrace("gcc", 20000);
    const std::vector<ICacheConfig> geoms = allGeometries();
    std::vector<DecodedTrace> decs(geoms.size());
    std::vector<std::thread> workers;
    for (std::size_t g = 0; g < geoms.size(); ++g)
        workers.emplace_back([&, g] {
            decs[g] = DecodedTrace::build(trace, geoms[g]);
        });
    for (std::thread &w : workers)
        w.join();
    for (std::size_t g = 0; g < geoms.size(); ++g) {
        EXPECT_EQ(&decs[g].image(), trace.image().get());
        EXPECT_EQ(decs[g].insts().data(), trace.insts().data());
        const DecodedTrace again = DecodedTrace::build(trace, geoms[g]);
        ASSERT_EQ(decs[g].numBlocks(), again.numBlocks());
        EXPECT_EQ(decs[g].bytes(), again.bytes());
    }
}

TEST(DecodedTraceSize, BytesAreTheLiveColumnBytes)
{
    // Bytes per block of the per-block columns: start/next PC, first
    // instruction, count, exit index, outcome mask, the four branch
    // counts, RAS operation, window length and window offset.
    constexpr std::size_t kPerBlock =
        2 * sizeof(Addr) + sizeof(uint32_t) + sizeof(uint16_t) +
        sizeof(int16_t) + sizeof(uint64_t) + 4 * sizeof(uint16_t) +
        sizeof(uint8_t) + sizeof(uint16_t) + sizeof(uint32_t);

    const InMemoryTrace trace = specTrace("gcc", 20000);
    for (const ICacheConfig &geom : allGeometries()) {
        const DecodedTrace dec = DecodedTrace::build(trace, geom);
        ASSERT_GT(dec.numBlocks(), 0u);

        // One window per distinct start, shared by its blocks.
        std::map<Addr, std::size_t> first_at;
        std::size_t window_codes = 0;
        for (std::size_t i = 0; i < dec.numBlocks(); ++i) {
            const auto [it, fresh] =
                first_at.try_emplace(dec.startPc(i), i);
            if (fresh) {
                window_codes += dec.windowLen(i);
                continue;
            }
            EXPECT_EQ(dec.windowCodes(i, true),
                      dec.windowCodes(it->second, true));
            EXPECT_EQ(dec.windowCodes(i, false),
                      dec.windowCodes(it->second, false));
        }
        EXPECT_LT(first_at.size(), dec.numBlocks());
        EXPECT_EQ(dec.bytes(), dec.numBlocks() * kPerBlock +
                                   2 * window_codes * sizeof(BitCode));
    }
}

TEST(DecodedTraceSharing, AppendAfterBuildLeavesArtifactUnchanged)
{
    InMemoryTrace trace = specTrace("li", 20000);
    SimConfig cfg;
    cfg.engine.icache = ICacheConfig::normal(8);
    const DecodedTrace dec =
        DecodedTrace::build(trace, cfg.engine.icache);
    const FetchStats before = FetchSimulator(cfg).run(dec);
    const std::vector<DynInst> stream = trace.insts();
    const DynInst *data = dec.insts().data();
    const StaticImage *image = &dec.image();
    std::vector<FetchBlock> blocks;
    for (std::size_t i = 0; i < dec.numBlocks(); ++i)
        blocks.push_back(dec.block(i));

    // Enough appends to force any reallocation, at PCs the stream
    // never reached, each a taken jump the new image must record.
    const Addr far = 0x40000000;
    for (std::size_t i = 0; i < stream.size(); ++i)
        trace.append({ far + i, InstClass::Jump, true, far });
    ASSERT_EQ(trace.size(), 2 * stream.size());
    EXPECT_NE(trace.insts().data(), data);
    EXPECT_EQ(trace.image()->lookup(far).cls, InstClass::Jump);

    EXPECT_EQ(dec.insts().data(), data);
    ASSERT_EQ(dec.insts().size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(dec.insts()[i], stream[i]) << "inst " << i;
    EXPECT_EQ(&dec.image(), image);
    EXPECT_EQ(dec.image().lookup(far).cls, InstClass::NonBranch);
    ASSERT_EQ(dec.numBlocks(), blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const FetchBlock got = dec.block(i);
        EXPECT_EQ(got.startPc, blocks[i].startPc);
        EXPECT_EQ(got.data, blocks[i].data);
        EXPECT_EQ(got.count, blocks[i].count);
        EXPECT_EQ(got.exitIdx, blocks[i].exitIdx);
        EXPECT_EQ(got.nextPc, blocks[i].nextPc);
    }
    EXPECT_EQ(FetchSimulator(cfg).run(dec), before);
}

} // namespace
} // namespace mbbp
