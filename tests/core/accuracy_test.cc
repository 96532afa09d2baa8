/** @file Tests for the Figure 6 accuracy simulators. */

#include "core/accuracy.hh"

#include <gtest/gtest.h>

#include "fetch/block.hh"
#include "predict/blocked_pht.hh"
#include "workload/spec95.hh"

namespace mbbp
{
namespace
{

TEST(Accuracy, ResultArithmetic)
{
    AccuracyResult r;
    r.condBranches = 200;
    r.mispredicts = 30;
    EXPECT_DOUBLE_EQ(r.missRate(), 0.15);
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.85);
    AccuracyResult other{ 100, 10 };
    r.accumulate(other);
    EXPECT_EQ(r.condBranches, 300u);
    EXPECT_EQ(r.mispredicts, 40u);
}

TEST(Accuracy, EmptyTraceIsPerfect)
{
    InMemoryTrace t;
    AccuracyResult r = blockedPhtAccuracy(t, 10,
                                          ICacheConfig::normal(8));
    EXPECT_EQ(r.condBranches, 0u);
    EXPECT_DOUBLE_EQ(r.missRate(), 0.0);
}

TEST(Accuracy, BlockedLearnsABiasedBranch)
{
    InMemoryTrace t;
    for (unsigned r = 0; r < 500; ++r) {
        for (unsigned i = 0; i < 7; ++i)
            t.append({ 0x1000 + i, InstClass::NonBranch, false, 0 });
        t.append({ 0x1007, InstClass::CondBranch, true, 0x1000 });
    }
    AccuracyResult res = blockedPhtAccuracy(t, 10,
                                            ICacheConfig::normal(8));
    EXPECT_GT(res.accuracy(), 0.99);
}

TEST(Accuracy, BlockedMatchesScalarWithinTolerance)
{
    // The paper's central Figure 6 claim: "The difference in accuracy
    // between the scalar and blocked schemes across all variations
    // were small."
    for (const char *name : { "gcc", "li", "swim" }) {
        InMemoryTrace t = specTrace(name, 60000);
        AccuracyResult blocked =
            blockedPhtAccuracy(t, 10, ICacheConfig::normal(8));
        AccuracyResult scalar = scalarAccuracy(t, 10, 8);
        EXPECT_NEAR(blocked.accuracy(), scalar.accuracy(), 0.02)
            << name;
    }
}

TEST(Accuracy, LongerHistoryHelpsOnIntCode)
{
    // A small-footprint program whose correlated branches need the
    // longer window (with a large-footprint program and a short
    // trace, warmup of the larger table can mask the benefit).
    InMemoryTrace t = specTrace("compress", 120000);
    AccuracyResult short_h =
        blockedPhtAccuracy(t, 6, ICacheConfig::normal(8));
    AccuracyResult long_h =
        blockedPhtAccuracy(t, 12, ICacheConfig::normal(8));
    EXPECT_GT(long_h.accuracy(), short_h.accuracy());
}

TEST(Accuracy, SuiteRegimeMatchesPaper)
{
    // Section 4.1: SPECint95 ~91.5%, SPECfp95 ~97.3% at h = 10. Allow
    // a band around the paper's numbers for the synthetic stand-ins.
    AccuracyResult int_total, fp_total;
    for (const auto &name : specIntNames()) {
        InMemoryTrace t = specTrace(name, 60000);
        int_total.accumulate(
            blockedPhtAccuracy(t, 10, ICacheConfig::normal(8)));
    }
    for (const auto &name : specFpNames()) {
        InMemoryTrace t = specTrace(name, 60000);
        fp_total.accumulate(
            blockedPhtAccuracy(t, 10, ICacheConfig::normal(8)));
    }
    EXPECT_NEAR(int_total.accuracy(), 0.915, 0.035);
    EXPECT_NEAR(fp_total.accuracy(), 0.973, 0.02);
    EXPECT_GT(fp_total.accuracy(), int_total.accuracy());
}

/**
 * The per-block PHT variation streamed straight off the trace: the
 * loop ext_pht_organizations ran before the DecodedTrace overload.
 */
AccuracyResult
streamedBlockedAccuracy(const InMemoryTrace &t, unsigned history_bits,
                        unsigned num_phts)
{
    ICacheModel cache(ICacheConfig::normal(8));
    BlockedPHT pht({ history_bits, 8, 2, num_phts });
    GlobalHistory ghr(history_bits);
    TraceCursor cursor(t);
    BlockStream stream(cursor, cache);
    OwnedBlock blk;
    AccuracyResult res;
    while (stream.next(blk)) {
        std::size_t idx = pht.index(ghr, blk.startPc);
        for (const auto &inst : blk.insts) {
            if (!isCondBranch(inst.cls))
                continue;
            ++res.condBranches;
            if (pht.predictAt(idx, inst.pc) != inst.taken)
                ++res.mispredicts;
            pht.updateAt(idx, inst.pc, inst.taken);
        }
        ghr.shiftInBlock(blk.condOutcomes(), blk.numConds());
    }
    return res;
}

TEST(Accuracy, DecodedOnePhtEqualsTraceOverload)
{
    for (const char *name : { "gcc", "compress", "swim", "fpppp" }) {
        InMemoryTrace t = specTrace(name, 20000);
        for (ICacheConfig geom :
             { ICacheConfig::normal(8), ICacheConfig::extended(8),
               ICacheConfig::selfAligned(8), ICacheConfig::normal(4) }) {
            DecodedTrace dec = DecodedTrace::build(t, geom);
            for (unsigned h : { 6u, 10u, 12u }) {
                AccuracyResult want = blockedPhtAccuracy(t, h, geom);
                AccuracyResult got = blockedPhtAccuracy(dec, h, 1);
                EXPECT_EQ(got.condBranches, want.condBranches)
                    << name << " h=" << h;
                EXPECT_EQ(got.mispredicts, want.mispredicts)
                    << name << " h=" << h;
            }
        }
    }
}

TEST(Accuracy, DecodedPerBlockPhtsEqualStreamedLoop)
{
    for (const char *name : { "go", "li", "tomcatv", "wave5" }) {
        InMemoryTrace t = specTrace(name, 20000);
        DecodedTrace dec =
            DecodedTrace::build(t, ICacheConfig::normal(8));
        for (unsigned p : { 2u, 4u, 8u }) {
            for (unsigned h : { 7u, 10u }) {
                AccuracyResult want = streamedBlockedAccuracy(t, h, p);
                AccuracyResult got = blockedPhtAccuracy(dec, h, p);
                EXPECT_GT(want.condBranches, 0u);
                EXPECT_EQ(got.condBranches, want.condBranches)
                    << name << " p=" << p << " h=" << h;
                EXPECT_EQ(got.mispredicts, want.mispredicts)
                    << name << " p=" << p << " h=" << h;
            }
        }
    }
}

} // namespace
} // namespace mbbp
