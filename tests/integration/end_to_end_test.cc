/**
 * @file
 * Integration tests: the paper's qualitative claims, checked end to
 * end through the public API on the synthetic suite.
 */

#include <gtest/gtest.h>

#include "core/mbbp.hh"
#include "temp_path.hh"

namespace mbbp
{
namespace
{

class EndToEnd : public ::testing::Test
{
  protected:
    static TraceCache &
    traces()
    {
        static TraceCache cache(80000);
        return cache;
    }

    static FetchStats
    runOn(const SimConfig &cfg, const std::string &name)
    {
        return FetchSimulator(cfg).run(traces().get(name));
    }
};

TEST_F(EndToEnd, DualBlockBeatsSingleBlock)
{
    // The headline claim: two-block fetching raises the effective
    // fetch rate substantially (±40% int / ±70% fp in Table 6).
    for (const char *name : { "gcc", "li", "swim", "mgrid" }) {
        SimConfig one;
        one.numBlocks = 1;
        SimConfig two;
        two.numBlocks = 2;
        double ipc1 = runOn(one, name).ipcF();
        double ipc2 = runOn(two, name).ipcF();
        EXPECT_GT(ipc2, ipc1 * 1.15) << name;
    }
}

TEST_F(EndToEnd, SelfAlignedBeatsExtendedBeatsNormal)
{
    // Table 6's ordering, on suite aggregates.
    double ipb[3];
    int i = 0;
    for (ICacheConfig icache : { ICacheConfig::normal(8),
                                 ICacheConfig::extended(8),
                                 ICacheConfig::selfAligned(8) }) {
        SimConfig cfg;
        cfg.numBlocks = 1;
        cfg.engine.icache = icache;
        FetchStats total;
        for (const char *name : { "gcc", "go", "swim", "applu" })
            total.accumulate(runOn(cfg, name));
        ipb[i++] = total.ipb();
    }
    EXPECT_LT(ipb[0], ipb[1]);      // normal < extended
    EXPECT_LT(ipb[1], ipb[2]);      // extended < self-aligned
}

TEST_F(EndToEnd, FpFetchesFasterThanInt)
{
    SimConfig cfg = SimConfig::paperDefault();
    cfg.engine.icache = ICacheConfig::selfAligned(8);
    cfg.engine.numSelectTables = 8;
    FetchStats fp = runOn(cfg, "hydro2d");
    FetchStats in = runOn(cfg, "go");
    EXPECT_GT(fp.ipcF(), in.ipcF());
    EXPECT_LT(fp.bep(), in.bep());
}

TEST_F(EndToEnd, SelfAlignedDualBlockReachesPaperRates)
{
    // "the self-aligned cache achieves 10.9 IPC_f for the floating
    // point benchmarks... over 8 IPC_f for the entire SPEC95 suite."
    SimConfig cfg = SimConfig::paperDefault();
    cfg.engine.icache = ICacheConfig::selfAligned(8);
    cfg.engine.numSelectTables = 8;
    FetchStats fp_total, all_total;
    for (const auto &name : specAllNames()) {
        FetchStats s = runOn(cfg, name);
        all_total.accumulate(s);
        if (specProfile(name).isFloat)
            fp_total.accumulate(s);
    }
    EXPECT_GT(fp_total.ipcF(), 9.0);
    EXPECT_GT(all_total.ipcF(), 7.0);
}

TEST_F(EndToEnd, ConditionalMispredictionDominatesBep)
{
    // Figure 9: "The most significant BEP contribution is from
    // misprediction of conditional branches. Misselection is the
    // next most significant."
    SimConfig cfg = SimConfig::paperDefault();
    cfg.engine.icache = ICacheConfig::selfAligned(8);
    cfg.engine.numSelectTables = 8;
    FetchStats total;
    for (const auto &name : specIntNames())
        total.accumulate(runOn(cfg, name));
    double cond = total.bepOf(PenaltyKind::CondMispredict);
    for (PenaltyKind k : { PenaltyKind::ReturnMispredict,
                           PenaltyKind::Misselect,
                           PenaltyKind::MisfetchIndirect,
                           PenaltyKind::MisfetchImmediate,
                           PenaltyKind::GhrMispredict,
                           PenaltyKind::BankConflict })
        EXPECT_GT(cond, total.bepOf(k)) << penaltyKindName(k);
}

TEST_F(EndToEnd, NearBlockCoversMostConditionals)
{
    // Section 4.4: "About 70% of the conditional branches are
    // near-block targets."
    SimConfig cfg = SimConfig::paperDefault();
    FetchStats total;
    for (const auto &name : specIntNames())
        total.accumulate(runOn(cfg, name));
    EXPECT_GT(total.nearBlockFraction(), 0.5);
    EXPECT_LT(total.nearBlockFraction(), 0.95);
}

TEST_F(EndToEnd, BiggerTargetArraysReduceMisfetch)
{
    // Table 5's monotone trend.
    SimConfig small = SimConfig::paperDefault();
    small.engine.targetEntries = 64;
    SimConfig large = SimConfig::paperDefault();
    large.engine.targetEntries = 512;
    FetchStats s_small, s_large;
    for (const auto &name : specIntNames()) {
        s_small.accumulate(runOn(small, name));
        s_large.accumulate(runOn(large, name));
    }
    double mf_small =
        s_small.bepOf(PenaltyKind::MisfetchImmediate) +
        s_small.bepOf(PenaltyKind::MisfetchIndirect);
    double mf_large =
        s_large.bepOf(PenaltyKind::MisfetchImmediate) +
        s_large.bepOf(PenaltyKind::MisfetchIndirect);
    EXPECT_LT(mf_large, mf_small);
    EXPECT_GE(s_large.ipcF(), s_small.ipcF());
}

TEST_F(EndToEnd, TraceFileRoundTripGivesIdenticalResults)
{
    // The binary trace format is a faithful transport: running the
    // simulator on a re-read trace reproduces every metric.
    const InMemoryTrace &orig = traces().get("perl");
    std::string path = testTempPath("mbbp_e2e_trace", ".bin");
    {
        TraceFileWriter w(path);
        w.writeAll(orig);
    }
    TraceFileReader reader(path);
    InMemoryTrace reread = captureTrace(reader);
    std::remove(path.c_str());

    SimConfig cfg = SimConfig::paperDefault();
    FetchStats a = FetchSimulator(cfg).run(orig);
    FetchStats b = FetchSimulator(cfg).run(reread);
    EXPECT_EQ(a.fetchCycles(), b.fetchCycles());
    EXPECT_EQ(a.totalPenaltyCycles(), b.totalPenaltyCycles());
    EXPECT_EQ(a.instructions, b.instructions);
}

} // namespace
} // namespace mbbp
