/** @file Behavioral tests for the single-block fetch engine. */

#include "fetch/single_block_engine.hh"

#include <gtest/gtest.h>

#include "workload/spec95.hh"

namespace mbbp
{
namespace
{

/** N straight-line instructions starting at an aligned address. */
InMemoryTrace
straightLine(unsigned n)
{
    InMemoryTrace t;
    for (unsigned i = 0; i < n; ++i)
        t.append({ 0x1000 + i, InstClass::NonBranch, false, 0 });
    return t;
}

/** A loop body repeated: body-1 plain insts + a backward branch. */
InMemoryTrace
steadyLoop(unsigned body, unsigned reps)
{
    InMemoryTrace t;
    for (unsigned r = 0; r < reps; ++r)
        for (unsigned i = 0; i < body; ++i) {
            bool last = i + 1 == body;
            t.append({ 0x1000 + i,
                       last ? InstClass::Jump : InstClass::NonBranch,
                       last, last ? Addr{ 0x1000 } : Addr{ 0 } });
        }
    return t;
}

FetchEngineConfig
defaults()
{
    return FetchEngineConfig{};
}

TEST(SingleBlockEngine, StraightLineCodeIsPenaltyFree)
{
    InMemoryTrace t = straightLine(800);
    SingleBlockEngine engine(defaults());
    FetchStats s = engine.run(t);
    EXPECT_EQ(s.totalPenaltyCycles(), 0u);
    EXPECT_EQ(s.blocksFetched, s.fetchRequests);
    EXPECT_DOUBLE_EQ(s.ipb(), 8.0);
    EXPECT_DOUBLE_EQ(s.ipcF(), 8.0);
}

TEST(SingleBlockEngine, SteadyLoopOnlyPaysColdMisses)
{
    // An 8-instruction loop ending in a jump: the first encounter
    // misfetches (cold NLS), afterwards everything is predicted.
    InMemoryTrace t = steadyLoop(8, 200);
    SingleBlockEngine engine(defaults());
    FetchStats s = engine.run(t);
    auto imm = static_cast<std::size_t>(
        PenaltyKind::MisfetchImmediate);
    EXPECT_EQ(s.penaltyEvents[imm], 1u);    // cold target only
    EXPECT_EQ(s.totalPenaltyCycles(), 1u);
    EXPECT_EQ(s.condDirectionWrong, 0u);
}

TEST(SingleBlockEngine, IndirectColdMissCostsFour)
{
    InMemoryTrace t;
    for (unsigned r = 0; r < 50; ++r)
        for (unsigned i = 0; i < 8; ++i) {
            bool last = i + 1 == 8;
            t.append({ 0x1000 + i,
                       last ? InstClass::IndirectJump
                            : InstClass::NonBranch,
                       last, last ? Addr{ 0x1000 } : Addr{ 0 } });
        }
    SingleBlockEngine engine(defaults());
    FetchStats s = engine.run(t);
    auto ind = static_cast<std::size_t>(PenaltyKind::MisfetchIndirect);
    EXPECT_EQ(s.penaltyEvents[ind], 1u);
    EXPECT_EQ(s.penaltyCycles[ind], 4u);    // Table 3, block 1
}

TEST(SingleBlockEngine, CallsAndReturnsUseTheRas)
{
    // main calls f (every 8 insts) and f returns: after the cold
    // misses, the RAS predicts every return.
    InMemoryTrace t;
    for (unsigned r = 0; r < 100; ++r) {
        for (unsigned i = 0; i < 7; ++i)
            t.append({ 0x1000 + i, InstClass::NonBranch, false, 0 });
        t.append({ 0x1007, InstClass::Call, true, 0x2000 });
        for (unsigned i = 0; i < 7; ++i)
            t.append({ 0x2000 + i, InstClass::NonBranch, false, 0 });
        t.append({ 0x2007, InstClass::Return, true, 0x1008 });
        for (unsigned i = 0; i < 8; ++i)
            t.append({ 0x1008 + i, InstClass::NonBranch, false, 0 });
        t.append({ 0x1010, InstClass::Jump, true, 0x1000 });
    }
    SingleBlockEngine engine(defaults());
    FetchStats s = engine.run(t);
    auto ret = static_cast<std::size_t>(PenaltyKind::ReturnMispredict);
    EXPECT_EQ(s.penaltyEvents[ret], 0u);
    // Only the two cold direct-target misses (call, jump).
    auto imm = static_cast<std::size_t>(
        PenaltyKind::MisfetchImmediate);
    EXPECT_EQ(s.penaltyEvents[imm], 2u);
}

TEST(SingleBlockEngine, MispredictedTakenPaysRefetchExtra)
{
    // A conditional that alternates with period 2 but whose history
    // is hidden (same PHT entry): drive it to mispredict. Simpler: a
    // branch not-taken 3x then taken 1x within one block position
    // mispredicts on the taken occurrence (counter saturated at
    // not-taken).
    InMemoryTrace t;
    for (unsigned r = 0; r < 50; ++r) {
        for (unsigned k = 0; k < 4; ++k) {
            bool taken = k == 3;
            t.append({ 0x1000, InstClass::NonBranch, false, 0 });
            t.append({ 0x1001, InstClass::CondBranch, taken, 0x1000 });
            if (!taken) {
                for (unsigned i = 2; i < 7; ++i)
                    t.append({ 0x1000 + i, InstClass::NonBranch,
                               false, 0 });
                t.append({ 0x1007, InstClass::Jump, true, 0x1000 });
            }
        }
    }
    SingleBlockEngine engine(defaults());
    FetchStats s = engine.run(t);
    EXPECT_GT(s.condDirectionWrong, 0u);
    auto cond = static_cast<std::size_t>(PenaltyKind::CondMispredict);
    EXPECT_GT(s.penaltyCycles[cond], 0u);
}

TEST(SingleBlockEngine, FiniteBitTablePaysAliasingPenalty)
{
    // Two lines that alias in a 1-entry BIT table, with different
    // type vectors: every alternation flips the entry.
    InMemoryTrace t;
    for (unsigned r = 0; r < 50; ++r) {
        // Line A at 0x1000: ends with jump to line B.
        for (unsigned i = 0; i < 7; ++i)
            t.append({ 0x1000 + i, InstClass::NonBranch, false, 0 });
        t.append({ 0x1007, InstClass::Jump, true, 0x2000 });
        // Line B at 0x2000: jump at position 3 back to line A.
        for (unsigned i = 0; i < 3; ++i)
            t.append({ 0x2000 + i, InstClass::NonBranch, false, 0 });
        t.append({ 0x2003, InstClass::Jump, true, 0x1000 });
    }
    FetchEngineConfig cfg = defaults();
    cfg.bitEntries = 1;
    SingleBlockEngine engine(cfg);
    FetchStats s = engine.run(t);
    auto bit = static_cast<std::size_t>(PenaltyKind::BitMispredict);
    EXPECT_GT(s.penaltyEvents[bit], 50u);

    // A perfect BIT on the same trace pays none.
    FetchEngineConfig perfect = defaults();
    SingleBlockEngine engine2(perfect);
    FetchStats s2 = engine2.run(t);
    EXPECT_EQ(s2.penaltyEvents[bit], 0u);
}

TEST(SingleBlockEngine, BtbBackendWorks)
{
    FetchEngineConfig cfg = defaults();
    cfg.targetKind = TargetKind::Btb;
    cfg.targetEntries = 32;
    InMemoryTrace t = specTrace("compress", 30000);
    SingleBlockEngine engine(cfg);
    FetchStats s = engine.run(t);
    EXPECT_GT(s.instructions, 0u);
    EXPECT_GT(s.ipcF(), 1.0);
}

TEST(SingleBlockEngine, NearBlockReducesImmediateMisfetch)
{
    InMemoryTrace t = specTrace("gcc", 60000);
    FetchEngineConfig small = defaults();
    small.targetEntries = 16;   // starve the target array
    FetchEngineConfig near = small;
    near.nearBlock = true;
    FetchStats s_far = SingleBlockEngine(small).run(t);
    FetchStats s_near = SingleBlockEngine(near).run(t);
    auto imm = static_cast<std::size_t>(
        PenaltyKind::MisfetchImmediate);
    EXPECT_LT(s_near.penaltyCycles[imm], s_far.penaltyCycles[imm]);
}

TEST(SingleBlockEngineDeath, RejectsDoubleSelect)
{
    FetchEngineConfig cfg = defaults();
    cfg.doubleSelect = true;
    EXPECT_DEATH(SingleBlockEngine engine(cfg), "double");
}

} // namespace
} // namespace mbbp
