/** @file Unit tests for the CFG interpreter. */

#include "workload/interpreter.hh"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "workload/generator.hh"

namespace mbbp
{
namespace
{

Program
smallProgram(uint64_t seed = 7)
{
    WorkloadProfile prof;
    prof.seed = seed;
    prof.numFunctions = 6;
    return generateProgram(prof);
}

TEST(Interpreter, DeterministicForSeed)
{
    Program p = smallProgram();
    Interpreter a(p, 5), b(p, 5);
    DynInst ia, ib;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a.next(ia));
        ASSERT_TRUE(b.next(ib));
        ASSERT_EQ(ia, ib);
    }
}

TEST(Interpreter, ResetReplaysIdentically)
{
    Program p = smallProgram();
    Interpreter interp(p, 5);
    InMemoryTrace first = captureTrace(interp, 3000);
    interp.reset();
    InMemoryTrace second = captureTrace(interp, 3000);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        ASSERT_EQ(first.at(i), second.at(i));
}

TEST(Interpreter, StreamIsSequentialBetweenTransfers)
{
    Program p = smallProgram();
    Interpreter interp(p, 5);
    DynInst prev, cur;
    ASSERT_TRUE(interp.next(prev));
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(interp.next(cur));
        if (prev.taken)
            ASSERT_EQ(cur.pc, prev.target);
        else
            ASSERT_EQ(cur.pc, prev.pc + 1);
        prev = cur;
    }
}

TEST(Interpreter, UnconditionalsAlwaysTaken)
{
    Program p = smallProgram();
    Interpreter interp(p, 5);
    DynInst inst;
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(interp.next(inst));
        if (isUnconditional(inst.cls)) {
            ASSERT_TRUE(inst.taken);
        }
        if (inst.cls == InstClass::NonBranch) {
            ASSERT_FALSE(inst.taken);
        }
    }
}

TEST(Interpreter, CondBranchesCarryStaticTargets)
{
    Program p = smallProgram();
    Interpreter interp(p, 5);
    DynInst inst;
    std::map<Addr, Addr> seen;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(interp.next(inst));
        if (!isCondBranch(inst.cls))
            continue;
        ASSERT_NE(inst.target, 0u);
        auto [it, fresh] = seen.emplace(inst.pc, inst.target);
        if (!fresh) {
            ASSERT_EQ(it->second, inst.target)
                << "cond target changed across executions";
        }
    }
}

TEST(Interpreter, ReturnsMatchCalls)
{
    Program p = smallProgram();
    Interpreter interp(p, 5);
    DynInst inst;
    std::vector<Addr> shadow;   // expected return targets
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(interp.next(inst));
        if (isCall(inst.cls)) {
            shadow.push_back(inst.pc + 1);
        } else if (isReturn(inst.cls)) {
            ASSERT_FALSE(shadow.empty());
            ASSERT_EQ(inst.target, shadow.back());
            shadow.pop_back();
        }
    }
}

TEST(Interpreter, EmittedCountMatches)
{
    Program p = smallProgram();
    Interpreter interp(p, 5);
    captureTrace(interp, 1234);
    EXPECT_EQ(interp.emitted(), 1234u);
}

} // namespace
} // namespace mbbp
