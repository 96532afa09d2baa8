/**
 * @file
 * Property-based sweeps: engine invariants that must hold for every
 * configuration x workload combination.
 */

#include <gtest/gtest.h>

#include "core/mbbp.hh"

namespace mbbp
{
namespace
{

struct SweepParam
{
    const char *label;
    const char *program;
    unsigned num_blocks;
    unsigned history_bits;
    unsigned num_sts;
    bool double_select;
    bool near_block;
    CacheType cache;
    TargetKind target;
    std::size_t target_entries;
    std::size_t bit_entries;
    std::size_t icache_lines = 0;
};

// Print the label, not gtest's default byte dump: that holds the
// address of each string, so the test's name would change every run.
void
PrintTo(const SweepParam &p, std::ostream *os)
{
    *os << p.label;
}

class EngineSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    static TraceCache &
    traces()
    {
        static TraceCache cache(40000);
        return cache;
    }
};

TEST_P(EngineSweep, InvariantsHold)
{
    const SweepParam &p = GetParam();
    SimConfig cfg;
    cfg.numBlocks = p.num_blocks;
    cfg.engine.historyBits = p.history_bits;
    cfg.engine.numSelectTables = p.num_sts;
    cfg.engine.doubleSelect = p.double_select;
    cfg.engine.nearBlock = p.near_block;
    cfg.engine.targetKind = p.target;
    cfg.engine.targetEntries = p.target_entries;
    cfg.engine.bitEntries = p.bit_entries;
    cfg.engine.icacheLines = p.icache_lines;
    switch (p.cache) {
      case CacheType::Normal:
        cfg.engine.icache = ICacheConfig::normal(8);
        break;
      case CacheType::Extended:
        cfg.engine.icache = ICacheConfig::extended(8);
        break;
      case CacheType::SelfAligned:
        cfg.engine.icache = ICacheConfig::selfAligned(8);
        break;
    }

    const InMemoryTrace &trace = traces().get(p.program);
    FetchStats s = FetchSimulator(cfg).run(trace);

    // Every instruction of every fetched block is accounted for.
    EXPECT_GT(s.instructions, 0u);
    EXPECT_LE(s.instructions, trace.size());
    EXPECT_GE(s.instructions, trace.size() - 64);   // tail drop only

    // Cycle accounting: penalties and i-cache stalls only ever add
    // to the request count.
    EXPECT_GE(s.fetchCycles(), s.fetchRequests);
    EXPECT_EQ(s.fetchCycles(), s.fetchRequests +
                                   s.totalPenaltyCycles() +
                                   s.icacheMissCycles);
    if (p.icache_lines == 0)
        EXPECT_EQ(s.icacheMissCycles, 0u);
    else
        EXPECT_GT(s.icacheAccesses, 0u);

    // A fetch request returns at most numBlocks blocks.
    EXPECT_LE(s.blocksFetched, s.fetchRequests * p.num_blocks);

    // Rates are bounded by the hardware's capability.
    EXPECT_LE(s.ipb(), 8.0 + 1e-9);
    EXPECT_LE(s.ipcF(), 8.0 * p.num_blocks + 1e-9);
    EXPECT_GT(s.ipcF(), 0.0);

    // Branch accounting is consistent.
    EXPECT_LE(s.condExecuted, s.branchesExecuted);
    EXPECT_LE(s.condDirectionWrong, s.condExecuted);
    EXPECT_LE(s.nearBlockConds, s.condExecuted);

    // Penalty-kind applicability (Table 3's n/a cells).
    auto events = [&](PenaltyKind k) {
        return s.penaltyEvents[static_cast<std::size_t>(k)];
    };
    if (p.num_blocks == 1) {
        EXPECT_EQ(events(PenaltyKind::Misselect), 0u);
        EXPECT_EQ(events(PenaltyKind::GhrMispredict), 0u);
        EXPECT_EQ(events(PenaltyKind::BankConflict), 0u);
    }
    if (p.double_select || p.bit_entries == 0) {
        EXPECT_EQ(events(PenaltyKind::BitMispredict), 0u);
    }

    // Determinism: a second run is bit-identical.
    FetchStats again = FetchSimulator(cfg).run(trace);
    EXPECT_EQ(again.fetchCycles(), s.fetchCycles());
    EXPECT_EQ(again.totalPenaltyCycles(), s.totalPenaltyCycles());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineSweep,
    ::testing::Values(
        SweepParam{ "single_normal", "gcc", 1, 10, 1, false, false,
                    CacheType::Normal, TargetKind::Nls, 256, 0 },
        SweepParam{ "single_extended", "go", 1, 10, 1, false, false,
                    CacheType::Extended, TargetKind::Nls, 256, 0 },
        SweepParam{ "single_aligned_near", "li", 1, 10, 1, false,
                    true, CacheType::SelfAligned, TargetKind::Nls,
                    256, 0 },
        SweepParam{ "single_finite_bit", "perl", 1, 10, 1, false,
                    false, CacheType::Normal, TargetKind::Nls, 256,
                    256 },
        SweepParam{ "single_btb", "vortex", 1, 10, 1, false, false,
                    CacheType::Normal, TargetKind::Btb, 32, 0 },
        SweepParam{ "dual_normal", "gcc", 2, 10, 1, false, false,
                    CacheType::Normal, TargetKind::Nls, 256, 0 },
        SweepParam{ "dual_aligned_8st", "compress", 2, 10, 8, false,
                    false, CacheType::SelfAligned, TargetKind::Nls,
                    256, 0 },
        SweepParam{ "dual_double_select", "li", 2, 10, 4, true,
                    false, CacheType::SelfAligned, TargetKind::Nls,
                    256, 0 },
        SweepParam{ "dual_btb_near", "ijpeg", 2, 11, 2, false, true,
                    CacheType::Normal, TargetKind::Btb, 64, 0 },
        SweepParam{ "dual_short_history", "swim", 2, 6, 1, false,
                    false, CacheType::Normal, TargetKind::Nls, 64,
                    0 },
        SweepParam{ "dual_long_history", "mgrid", 2, 12, 8, false,
                    false, CacheType::Extended, TargetKind::Nls, 512,
                    0 },
        SweepParam{ "dual_fp_double", "tomcatv", 2, 9, 8, true,
                    false, CacheType::Extended, TargetKind::Btb, 16,
                    0 },
        SweepParam{ "triple_aligned", "li", 3, 10, 8, false, false,
                    CacheType::SelfAligned, TargetKind::Nls, 256,
                    0 },
        SweepParam{ "quad_normal", "swim", 4, 10, 4, false, false,
                    CacheType::Normal, TargetKind::Nls, 256, 0 },
        SweepParam{ "triple_near_finite_bit", "gcc", 3, 10, 2, false,
                    true, CacheType::Normal, TargetKind::Nls, 128,
                    512 },
        SweepParam{ "dual_finite_icache", "perl", 2, 10, 1, false,
                    false, CacheType::Normal, TargetKind::Nls, 256,
                    0, 256 },
        SweepParam{ "single_finite_icache_aligned", "applu", 1, 10,
                    1, false, false, CacheType::SelfAligned,
                    TargetKind::Nls, 256, 0, 512 }),
    [](const auto &param_info) {
        return std::string(param_info.param.label);
    });

/** History-length sweep on one program: accuracy is monotone-ish. */
class HistorySweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HistorySweep, AccuracyWithinBounds)
{
    unsigned h = GetParam();
    InMemoryTrace t = specTrace("li", 40000);
    AccuracyResult r = blockedPhtAccuracy(t, h,
                                          ICacheConfig::normal(8));
    EXPECT_GT(r.accuracy(), 0.75);
    EXPECT_LE(r.accuracy(), 1.0);
    EXPECT_GT(r.condBranches, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Lengths, HistorySweep,
                         ::testing::Values(6, 7, 8, 9, 10, 11, 12));

} // namespace
} // namespace mbbp
