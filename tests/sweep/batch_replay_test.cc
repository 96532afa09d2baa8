/**
 * @file
 * Batched-vs-per-config equivalence: the config-batched replay
 * kernel must produce field-exact FetchStats and identical
 * attribution tables versus running each engine alone, across all
 * four engine kinds, multiple traces, ragged tiles, and the
 * configuration corners that exercise different lane state.
 */

#include "sweep/batch_replay.hh"

#include <gtest/gtest.h>

#include "fetch/dual_block_engine.hh"
#include "fetch/multi_block_engine.hh"
#include "fetch/single_block_engine.hh"
#include "fetch/two_ahead_engine.hh"
#include "obs/attribution.hh"
#include "obs/obs.hh"
#include "util/simd.hh"
#include "workload/spec95.hh"

namespace mbbp
{
namespace
{

constexpr std::size_t kInsts = 25000;

/** Lane-state corners: everything that may vary within a tile. */
std::vector<FetchEngineConfig>
laneCorners(bool allow_double_select)
{
    std::vector<FetchEngineConfig> cfgs;

    cfgs.emplace_back();                    // paper defaults

    FetchEngineConfig small;
    small.historyBits = 6;
    small.numSelectTables = 4;
    cfgs.push_back(small);

    FetchEngineConfig near;
    near.nearBlock = true;
    cfgs.push_back(near);

    FetchEngineConfig finite_bit;
    finite_bit.bitEntries = 64;
    cfgs.push_back(finite_bit);

    FetchEngineConfig delayed;
    delayed.delayedPhtUpdate = true;
    cfgs.push_back(delayed);

    FetchEngineConfig near_delayed;
    near_delayed.nearBlock = true;
    near_delayed.nearBlockStoredOffset = true;
    near_delayed.delayedPhtUpdate = true;
    cfgs.push_back(near_delayed);

    FetchEngineConfig finite_cache;
    finite_cache.icacheLines = 64;
    finite_cache.icacheAssoc = 2;
    finite_cache.icacheMissPenalty = 6;
    cfgs.push_back(finite_cache);

    FetchEngineConfig btb;
    btb.targetKind = TargetKind::Btb;
    btb.targetEntries = 128;
    btb.btbAssoc = 4;
    cfgs.push_back(btb);

    if (allow_double_select) {
        FetchEngineConfig dsel;
        dsel.doubleSelect = true;
        cfgs.push_back(dsel);

        FetchEngineConfig dsel_near;
        dsel_near.doubleSelect = true;
        dsel_near.nearBlock = true;
        cfgs.push_back(dsel_near);
    }
    return cfgs;
}

std::vector<SimConfig>
simConfigs(const std::vector<FetchEngineConfig> &engines,
           unsigned num_blocks)
{
    std::vector<SimConfig> cfgs;
    for (const FetchEngineConfig &e : engines) {
        SimConfig c;
        c.engine = e;
        c.numBlocks = num_blocks;
        cfgs.push_back(c);
    }
    return cfgs;
}

class BatchReplayTest : public ::testing::Test
{
  protected:
    BatchReplayTest()
        : go_(specTrace("go", kInsts)),
          compress_(specTrace("compress", kInsts))
    {
    }

    const std::vector<const InMemoryTrace *> traces() const
    {
        return { &go_, &compress_ };
    }

    InMemoryTrace go_;
    InMemoryTrace compress_;
};

TEST_F(BatchReplayTest, SingleEngineFieldExact)
{
    for (const InMemoryTrace *trace : traces()) {
        std::vector<SimConfig> cfgs =
            simConfigs(laneCorners(false), 1);
        DecodedTrace dec =
            DecodedTrace::build(*trace, cfgs[0].engine.icache);
        std::vector<FetchStats> batched = batchReplay(cfgs, dec);
        ASSERT_EQ(batched.size(), cfgs.size());
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            SingleBlockEngine engine(cfgs[i].engine);
            EXPECT_EQ(engine.run(dec), batched[i]) << "lane " << i;
        }
    }
}

TEST_F(BatchReplayTest, DualEngineFieldExact)
{
    for (const InMemoryTrace *trace : traces()) {
        std::vector<SimConfig> cfgs = simConfigs(laneCorners(true), 2);
        DecodedTrace dec =
            DecodedTrace::build(*trace, cfgs[0].engine.icache);
        std::vector<FetchStats> batched = batchReplay(cfgs, dec);
        ASSERT_EQ(batched.size(), cfgs.size());
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            DualBlockEngine engine(cfgs[i].engine);
            EXPECT_EQ(engine.run(dec), batched[i]) << "lane " << i;
        }
    }
}

TEST_F(BatchReplayTest, MultiEngineFieldExact)
{
    for (unsigned n = 3; n <= 4; ++n) {
        for (const InMemoryTrace *trace : traces()) {
            std::vector<SimConfig> cfgs =
                simConfigs(laneCorners(false), n);
            DecodedTrace dec =
                DecodedTrace::build(*trace, cfgs[0].engine.icache);
            std::vector<FetchStats> batched = batchReplay(cfgs, dec);
            ASSERT_EQ(batched.size(), cfgs.size());
            for (std::size_t i = 0; i < cfgs.size(); ++i) {
                MultiBlockEngine engine(cfgs[i].engine, n);
                EXPECT_EQ(engine.run(dec), batched[i])
                    << "n=" << n << " lane " << i;
            }
        }
    }
}

TEST_F(BatchReplayTest, TwoAheadEngineFieldExact)
{
    for (const InMemoryTrace *trace : traces()) {
        std::vector<FetchEngineConfig> cfgs = laneCorners(false);
        DecodedTrace dec =
            DecodedTrace::build(*trace, cfgs[0].icache);
        std::vector<FetchStats> batched = batchReplayKind(
            BatchEngineKind::TwoAhead, cfgs, 2, dec);
        ASSERT_EQ(batched.size(), cfgs.size());
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            TwoAheadEngine engine(cfgs[i]);
            EXPECT_EQ(engine.run(dec), batched[i]) << "lane " << i;
        }
    }
}

TEST_F(BatchReplayTest, RaggedTileIsStillExact)
{
    // 5 lanes, max tile width 2: tiles (0,2) (2,2) (4,1) -- the last
    // tile is deliberately ragged.
    std::vector<FetchEngineConfig> engines;
    for (unsigned h : { 6u, 8u, 10u, 12u, 7u }) {
        FetchEngineConfig e;
        e.historyBits = h;
        engines.push_back(e);
    }
    std::vector<SimConfig> cfgs = simConfigs(engines, 2);
    DecodedTrace dec =
        DecodedTrace::build(go_, cfgs[0].engine.icache);

    BatchTileOptions opts;
    opts.maxLanes = 2;
    auto tiles = planBatchTiles(cfgs, opts);
    ASSERT_EQ(tiles.size(), 3u);
    EXPECT_EQ(tiles.back().second, 1u);

    std::vector<FetchStats> batched = batchReplay(cfgs, dec, opts);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        DualBlockEngine engine(cfgs[i].engine);
        EXPECT_EQ(engine.run(dec), batched[i]) << "lane " << i;
    }
}

TEST_F(BatchReplayTest, TinyBudgetDegradesToOneLanePerTile)
{
    std::vector<SimConfig> cfgs =
        simConfigs(laneCorners(false), 1);
    BatchTileOptions opts;
    opts.cacheBudgetBytes = 1;  // even one lane exceeds this
    auto tiles = planBatchTiles(cfgs, opts);
    ASSERT_EQ(tiles.size(), cfgs.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        EXPECT_EQ(tiles[i].first, i);
        EXPECT_EQ(tiles[i].second, 1u);
    }

    DecodedTrace dec =
        DecodedTrace::build(compress_, cfgs[0].engine.icache);
    std::vector<FetchStats> batched = batchReplay(cfgs, dec, opts);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        SingleBlockEngine engine(cfgs[i].engine);
        EXPECT_EQ(engine.run(dec), batched[i]) << "lane " << i;
    }
}

TEST_F(BatchReplayTest, SingleBankGeometryKeepsConflictsExact)
{
    // numBanks=1 makes every distinct-line pair conflict, stressing
    // the shared bank-conflict precompute on all engine kinds.
    FetchEngineConfig banked;
    banked.icache.numBanks = 1;
    FetchEngineConfig banked_small = banked;
    banked_small.historyBits = 7;
    std::vector<FetchEngineConfig> engines{ banked, banked_small };

    for (unsigned n : { 2u, 4u }) {
        std::vector<SimConfig> cfgs = simConfigs(engines, n);
        DecodedTrace dec =
            DecodedTrace::build(go_, cfgs[0].engine.icache);
        std::vector<FetchStats> batched = batchReplay(cfgs, dec);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            FetchSimulator sim(cfgs[i]);
            EXPECT_EQ(sim.run(dec), batched[i])
                << "n=" << n << " lane " << i;
        }
    }
}

void
expectSameRows(const std::vector<obs::AttributionRow> &a,
               const std::vector<obs::AttributionRow> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].blockPc, b[i].blockPc) << "row " << i;
        EXPECT_EQ(a[i].slot, b[i].slot) << "row " << i;
        EXPECT_EQ(a[i].events, b[i].events) << "row " << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << "row " << i;
        EXPECT_EQ(a[i].byCause, b[i].byCause) << "row " << i;
    }
}

TEST_F(BatchReplayTest, AttributionTablesMatchPerConfig)
{
    std::vector<SimConfig> cfgs = simConfigs(laneCorners(true), 2);
    DecodedTrace dec =
        DecodedTrace::build(go_, cfgs[0].engine.icache);

    obs::setAttributionEnabled(true);
    obs::resetAttribution();
    for (const SimConfig &c : cfgs) {
        DualBlockEngine engine(c.engine);
        (void)engine.run(dec);
    }
    std::vector<obs::AttributionRow> per_config =
        obs::attributionRows(0);

    obs::resetAttribution();
    (void)batchReplay(cfgs, dec);
    std::vector<obs::AttributionRow> batched =
        obs::attributionRows(0);

    obs::setAttributionEnabled(false);
    obs::resetAttribution();

    EXPECT_FALSE(per_config.empty());
    expectSameRows(per_config, batched);
}

/** SoA-eligible lane variants (immediate update, NLS, perfect BIT/
 *  cache): the population that actually reaches the vector kernels,
 *  cycled so every lane differs in table geometry. */
std::vector<FetchEngineConfig>
soaVariants(std::size_t count)
{
    const unsigned hist[] = { 6, 8, 10, 12 };
    const unsigned sts[] = { 1, 2, 4, 8 };
    std::vector<FetchEngineConfig> cfgs;
    for (std::size_t i = 0; i < count; ++i) {
        FetchEngineConfig e;
        e.historyBits = hist[i % 4];
        e.numSelectTables = sts[(i / 4) % 4];
        e.nearBlock = i % 2 == 1;
        e.nearBlockStoredOffset = i % 4 == 3;
        cfgs.push_back(e);
    }
    return cfgs;
}

/** soaVariants plus the feature corners the full-coverage kernels
 *  own: delayed PHT update, finite BIT, double selection (Dual-only
 *  -- every other reference engine asserts against it), and their
 *  pairings, layered over the geometry cycling. */
std::vector<FetchEngineConfig>
cornerVariants(std::size_t count, bool allow_double_select)
{
    std::vector<FetchEngineConfig> cfgs = soaVariants(count);
    const unsigned bits[] = { 16, 64, 256, 1024 };
    for (std::size_t i = 0; i < count; ++i) {
        FetchEngineConfig &e = cfgs[i];
        switch (i % 5) {
          case 1:
            e.delayedPhtUpdate = true;
            break;
          case 2:
            e.bitEntries = bits[(i / 5) % 4];
            break;
          case 3:
            if (allow_double_select) {
                e.doubleSelect = true;
            } else {
                e.nearBlock = true;
                e.nearBlockStoredOffset = true;
                e.delayedPhtUpdate = true;
            }
            break;
          case 4:
            e.delayedPhtUpdate = true;
            e.bitEntries = bits[(i / 5) % 4];
            break;
          default:
            break;
        }
    }
    return cfgs;
}

/** Restore the process-wide dispatch on scope exit so one failing
 *  expectation cannot leak a forced level into other tests. */
struct SimdLevelGuard
{
    simd::Level saved = simd::activeLevel();
    ~SimdLevelGuard() { simd::setLevel(saved); }
};

TEST_F(BatchReplayTest, SimdVariantsMatchScalarFieldExact)
{
    // Every dispatch level the host supports must reproduce the
    // scalar kernel's FetchStats bit-for-bit, across all four engine
    // kinds, the delayed-update / double-select / finite-BIT feature
    // corners, and lane counts spanning sub-vector (1, 3), exactly
    // one vector (8), ragged multi-vector (17), and a full tile (64).
    struct KindCase
    {
        BatchEngineKind kind;
        unsigned numBlocks;
    };
    const KindCase kinds[] = {
        { BatchEngineKind::Single, 1 },
        { BatchEngineKind::Dual, 2 },
        { BatchEngineKind::Multi, 3 },
        { BatchEngineKind::TwoAhead, 2 },
    };
    const simd::Level wide[] = { simd::Level::Avx2,
                                 simd::Level::Avx512 };

    SimdLevelGuard guard;
    for (std::size_t lanes : { 1u, 3u, 8u, 17u, 64u }) {
        DecodedTrace dec =
            DecodedTrace::build(go_, FetchEngineConfig().icache);
        for (const KindCase &kc : kinds) {
            std::vector<FetchEngineConfig> engines = cornerVariants(
                lanes, kc.kind == BatchEngineKind::Dual);
            simd::setLevel(simd::Level::Scalar);
            std::vector<FetchStats> base = batchReplayKind(
                kc.kind, engines, kc.numBlocks, dec);
            ASSERT_EQ(base.size(), lanes);

            for (simd::Level l : wide) {
                simd::setLevel(l);
                if (simd::activeLevel() != l)
                    continue;       // host lacks this ISA level
                std::vector<FetchStats> got = batchReplayKind(
                    kc.kind, engines, kc.numBlocks, dec);
                ASSERT_EQ(got.size(), lanes);
                for (std::size_t i = 0; i < lanes; ++i)
                    EXPECT_EQ(got[i], base[i])
                        << batchEngineKindName(kc.kind) << " lanes="
                        << lanes << " level=" << simd::levelName(l)
                        << " lane " << i;
            }
        }
    }
}

TEST_F(BatchReplayTest, ScalarForcedStillMatchesSoloEngines)
{
    // Forcing the portable kernel must not change results versus the
    // solo engines -- the scalar SoA path is a distinct code path
    // from both the vector kernels and the reference BatchLane loop.
    SimdLevelGuard guard;
    simd::setLevel(simd::Level::Scalar);

    std::vector<FetchEngineConfig> engines = soaVariants(5);
    DecodedTrace dec = DecodedTrace::build(go_, engines[0].icache);

    std::vector<FetchStats> single = batchReplayKind(
        BatchEngineKind::Single, engines, 1, dec);
    std::vector<FetchStats> dual = batchReplayKind(
        BatchEngineKind::Dual, engines, 2, dec);
    for (std::size_t i = 0; i < engines.size(); ++i) {
        SingleBlockEngine se(engines[i]);
        EXPECT_EQ(se.run(dec), single[i]) << "lane " << i;
        DualBlockEngine de(engines[i]);
        EXPECT_EQ(de.run(dec), dual[i]) << "lane " << i;
    }
}

TEST_F(BatchReplayTest, InterleavedEligibilityKeepsReportOrder)
{
    // Alternating eligible / finite-icache (reference-path) lanes:
    // the tile splitter must merge the SoA and reference partitions
    // back by original position, not by partition order.
    std::vector<FetchEngineConfig> engines;
    for (unsigned i = 0; i < 9; ++i) {
        FetchEngineConfig e;
        e.historyBits = 6 + i % 5;
        if (i % 2 == 1) {
            e.icacheLines = 64;
            e.icacheAssoc = 2;
            e.icacheMissPenalty = 6;
        } else if (i % 4 == 2) {
            e.bitEntries = 64;
        }
        engines.push_back(e);
    }
    std::vector<SimConfig> cfgs = simConfigs(engines, 2);
    DecodedTrace dec =
        DecodedTrace::build(go_, cfgs[0].engine.icache);
    std::vector<FetchStats> batched = batchReplay(cfgs, dec);
    ASSERT_EQ(batched.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        DualBlockEngine engine(cfgs[i].engine);
        EXPECT_EQ(engine.run(dec), batched[i]) << "lane " << i;
    }
}

TEST_F(BatchReplayTest, BitArenaColumnsExactAcrossSizes)
{
    // Per-lane finite-BIT arenas from one-entry up to
    // larger-than-working-set, on every kind that consults the BIT,
    // under every dispatch level the host supports. Sanitizer builds
    // sweep the arena and true-code scratch columns for
    // out-of-bounds accesses here.
    std::vector<FetchEngineConfig> engines;
    for (unsigned i = 0; i < 12; ++i) {
        FetchEngineConfig e;
        e.historyBits = 6 + i % 4;
        e.bitEntries = 1u << (i % 10);      // 1 .. 512 lines
        e.nearBlock = i % 3 == 1;
        e.delayedPhtUpdate = i % 4 == 3;
        engines.push_back(e);
    }
    DecodedTrace dec = DecodedTrace::build(go_, engines[0].icache);

    std::vector<FetchStats> single, dual, multi;
    for (const FetchEngineConfig &e : engines) {
        single.push_back(SingleBlockEngine(e).run(dec));
        dual.push_back(DualBlockEngine(e).run(dec));
        multi.push_back(MultiBlockEngine(e, 3).run(dec));
    }

    SimdLevelGuard guard;
    const simd::Level levels[] = { simd::Level::Scalar,
                                   simd::Level::Avx2,
                                   simd::Level::Avx512 };
    for (simd::Level l : levels) {
        simd::setLevel(l);
        if (simd::activeLevel() != l)
            continue;           // host lacks this ISA level
        std::vector<FetchStats> got_single = batchReplayKind(
            BatchEngineKind::Single, engines, 1, dec);
        std::vector<FetchStats> got_dual = batchReplayKind(
            BatchEngineKind::Dual, engines, 2, dec);
        std::vector<FetchStats> got_multi = batchReplayKind(
            BatchEngineKind::Multi, engines, 3, dec);
        for (std::size_t i = 0; i < engines.size(); ++i) {
            EXPECT_EQ(got_single[i], single[i])
                << "single lane " << i << " level "
                << simd::levelName(l);
            EXPECT_EQ(got_dual[i], dual[i])
                << "dual lane " << i << " level "
                << simd::levelName(l);
            EXPECT_EQ(got_multi[i], multi[i])
                << "multi lane " << i << " level "
                << simd::levelName(l);
        }
    }
}

TEST_F(BatchReplayTest, FiniteBitExactAcrossGeometries)
{
    // Finite-BIT lanes against the solo engines on every cache type
    // at block widths 4, 8 and 16 (line sizes 4 to 32), every group
    // size, and every dispatch level the host supports. Near and
    // plain lanes share one tile, so the tile's true-code table
    // serves both variants; the one-lane-per-tile budget then gives
    // every lane a table of its own.
    std::vector<FetchEngineConfig> lanes;
    for (unsigned i = 0; i <= 10; ++i) {
        FetchEngineConfig e;
        e.historyBits = 6 + i % 3;
        e.bitEntries = 1u << i;             // 1 .. 1024 lines
        e.nearBlock = i % 2 == 1;
        e.delayedPhtUpdate = i % 3 == 2;
        lanes.push_back(e);
    }
    BatchTileOptions one_per_tile;
    one_per_tile.cacheBudgetBytes = 1;

    SimdLevelGuard guard;
    const simd::Level levels[] = { simd::Level::Scalar,
                                   simd::Level::Avx2,
                                   simd::Level::Avx512 };
    for (ICacheConfig (*make)(unsigned) :
         { &ICacheConfig::normal, &ICacheConfig::extended,
           &ICacheConfig::selfAligned }) {
        for (unsigned bw : { 4u, 8u, 16u }) {
            const ICacheConfig geom = make(bw);
            std::vector<FetchEngineConfig> engines = lanes;
            for (FetchEngineConfig &e : engines)
                e.icache = geom;
            DecodedTrace dec = DecodedTrace::build(go_, geom);
            for (unsigned nb = 1; nb <= 4; ++nb) {
                const BatchEngineKind kind = nb == 1
                    ? BatchEngineKind::Single
                    : nb == 2 ? BatchEngineKind::Dual
                              : BatchEngineKind::Multi;
                std::vector<FetchStats> solo;
                for (const FetchEngineConfig &e : engines) {
                    if (nb == 1)
                        solo.push_back(SingleBlockEngine(e).run(dec));
                    else if (nb == 2)
                        solo.push_back(DualBlockEngine(e).run(dec));
                    else
                        solo.push_back(
                            MultiBlockEngine(e, nb).run(dec));
                }
                for (simd::Level l : levels) {
                    simd::setLevel(l);
                    if (simd::activeLevel() != l)
                        continue;   // host lacks this ISA level
                    std::vector<FetchStats> shared =
                        batchReplayKind(kind, engines, nb, dec);
                    std::vector<FetchStats> own = batchReplayKind(
                        kind, engines, nb, dec, one_per_tile);
                    for (std::size_t i = 0; i < engines.size(); ++i) {
                        EXPECT_EQ(shared[i], solo[i])
                            << cacheTypeName(geom.type) << " b=" << bw
                            << " nb=" << nb << " lane " << i << " "
                            << simd::levelName(l);
                        EXPECT_EQ(own[i], solo[i])
                            << cacheTypeName(geom.type) << " b=" << bw
                            << " nb=" << nb << " lane " << i << " "
                            << simd::levelName(l) << " own tile";
                    }
                }
            }
        }
    }
}

TEST_F(BatchReplayTest, CoverageGaugeAndFallbackCounters)
{
    // Three columnar lanes plus one finite-icache lane: coverage is
    // 750 per mille and the fallback reason is attributed.
    std::vector<FetchEngineConfig> engines = soaVariants(3);
    FetchEngineConfig finite_cache;
    finite_cache.icacheLines = 64;
    finite_cache.icacheAssoc = 2;
    engines.push_back(finite_cache);
    DecodedTrace dec =
        DecodedTrace::build(compress_, engines[0].icache);

    obs::setEnabled(true);
    const uint64_t total0 =
        obs::counter("sweep.soa.lanes.total").value();
    const uint64_t elig0 =
        obs::counter("sweep.soa.lanes.eligible").value();
    const uint64_t fall0 =
        obs::counter("sweep.soa.fallback.finite_icache").value();
    (void)batchReplayKind(BatchEngineKind::Single, engines, 1, dec);
    EXPECT_EQ(obs::gauge("sweep.soa.lane_coverage").value(), 750u);
    EXPECT_EQ(obs::counter("sweep.soa.lanes.total").value() - total0,
              4u);
    EXPECT_EQ(obs::counter("sweep.soa.lanes.eligible").value() -
                  elig0,
              3u);
    EXPECT_EQ(
        obs::counter("sweep.soa.fallback.finite_icache").value() -
            fall0,
        1u);

    // A fig7 shape (finite BIT everywhere) is fully columnar.
    std::vector<FetchEngineConfig> fig7 = soaVariants(4);
    for (FetchEngineConfig &e : fig7)
        e.bitEntries = 64;
    (void)batchReplayKind(BatchEngineKind::Dual, fig7, 2, dec);
    EXPECT_EQ(obs::gauge("sweep.soa.lane_coverage").value(), 1000u);
    obs::setEnabled(false);
}

TEST(BatchKeyTest, GroupsByEngineKindAndGeometry)
{
    SimConfig dual;
    SimConfig dual_other_lane = dual;
    dual_other_lane.engine.historyBits = 6;
    dual_other_lane.engine.nearBlock = true;
    EXPECT_EQ(BatchKey::of(dual), BatchKey::of(dual_other_lane));

    SimConfig single = dual;
    single.numBlocks = 1;
    EXPECT_NE(BatchKey::of(dual), BatchKey::of(single));

    SimConfig banked = dual;
    banked.engine.icache.numBanks = 2;
    EXPECT_NE(BatchKey::of(dual), BatchKey::of(banked));

    SimConfig extended = dual;
    extended.engine.icache = ICacheConfig::extended(8);
    EXPECT_NE(BatchKey::of(dual), BatchKey::of(extended));

    // operator< is a strict weak order consistent with ==.
    EXPECT_FALSE(BatchKey::of(dual) < BatchKey::of(dual_other_lane));
    EXPECT_TRUE(BatchKey::of(dual) < BatchKey::of(single) ||
                BatchKey::of(single) < BatchKey::of(dual));
}

TEST(BatchTilerTest, BudgetSplitsWideGrids)
{
    std::vector<SimConfig> cfgs;
    for (unsigned i = 0; i < 12; ++i) {
        SimConfig c;
        c.engine.historyBits = 12;      // ~16 KiB PHT + 64 KiB ST
        cfgs.push_back(c);
    }
    std::size_t lane =
        batchLaneFootprintBytes(BatchEngineKind::Dual,
                                cfgs[0].engine, 2);
    BatchTileOptions opts;
    opts.cacheBudgetBytes = 3 * lane;
    auto tiles = planBatchTiles(cfgs, opts);
    ASSERT_EQ(tiles.size(), 4u);
    std::size_t covered = 0;
    for (auto [first, count] : tiles) {
        EXPECT_EQ(first, covered);
        EXPECT_LE(count, 3u);
        covered += count;
    }
    EXPECT_EQ(covered, cfgs.size());
}

} // namespace
} // namespace mbbp
