/** @file Unit and property tests for the program generator. */

#include "workload/generator.hh"

#include <gtest/gtest.h>

#include "trace/trace.hh"
#include "workload/interpreter.hh"

namespace mbbp
{
namespace
{

TEST(Generator, DeterministicForProfile)
{
    WorkloadProfile prof;
    prof.seed = 1234;
    Program a = generateProgram(prof);
    Program b = generateProgram(prof);
    ASSERT_EQ(a.funcs.size(), b.funcs.size());
    EXPECT_EQ(a.staticInsts(), b.staticInsts());
    EXPECT_EQ(a.staticCondBranches(), b.staticCondBranches());
    for (std::size_t i = 0; i < a.funcs.size(); ++i)
        EXPECT_EQ(a.funcs[i].blocks.size(), b.funcs[i].blocks.size());
}

TEST(Generator, DifferentSeedsDiffer)
{
    WorkloadProfile a, b;
    a.seed = 1;
    b.seed = 2;
    EXPECT_NE(generateProgram(a).staticInsts(),
              generateProgram(b).staticInsts());
}

TEST(Generator, MeanBodyControlsDensity)
{
    WorkloadProfile sparse, dense;
    sparse.seed = dense.seed = 3;
    sparse.meanBody = 12.0;
    dense.meanBody = 2.0;
    Program ps = generateProgram(sparse);
    Program pd = generateProgram(dense);
    double ds = static_cast<double>(ps.staticCondBranches()) /
                static_cast<double>(ps.staticInsts());
    double dd = static_cast<double>(pd.staticCondBranches()) /
                static_cast<double>(pd.staticInsts());
    EXPECT_LT(ds, dd);
}

TEST(Generator, MinLoopBodyEnforced)
{
    WorkloadProfile prof;
    prof.seed = 5;
    prof.minLoopBody = 10;
    Program p = generateProgram(prof);
    for (const auto &fn : p.funcs) {
        for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
            const auto &blk = fn.blocks[bi];
            if (blk.term.kind == TermKind::CondBranch &&
                blk.term.targetBlock <= bi) {
                EXPECT_GE(blk.bodyLen, 10u);
            }
        }
    }
}

/** Every profile variation must yield a valid, executable program. */
struct GenParam
{
    const char *label;
    uint64_t seed;
    double mean_body;
    double w_loop;
    double w_indirect;
    uint32_t functions;
};

// Print the label, not gtest's default byte dump: that holds the
// string's address, so the test's name would change every run.
void
PrintTo(const GenParam &gp, std::ostream *os)
{
    *os << gp.label;
}

class GeneratorSweep : public ::testing::TestWithParam<GenParam>
{
};

TEST_P(GeneratorSweep, ProducesValidExecutablePrograms)
{
    const GenParam &gp = GetParam();
    WorkloadProfile prof;
    prof.seed = gp.seed;
    prof.meanBody = gp.mean_body;
    prof.wLoop = gp.w_loop;
    prof.wIndirectJump = gp.w_indirect;
    prof.numFunctions = gp.functions;

    Program p = generateProgram(prof);  // validate() runs inside
    EXPECT_GT(p.staticInsts(), 0u);

    // The interpreter must run it indefinitely (stream never ends)
    // with bounded stack depth.
    Interpreter interp(p, 42);
    DynInst inst;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(interp.next(inst));
        ASSERT_LE(interp.stackDepth(), p.funcs.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratorSweep,
    ::testing::Values(
        GenParam{ "default", 1, 4.0, 1.6, 0.12, 40 },
        GenParam{ "tiny", 2, 1.0, 1.6, 0.12, 2 },
        GenParam{ "loopy", 3, 6.0, 8.0, 0.0, 10 },
        GenParam{ "indirect", 4, 3.0, 0.5, 2.0, 30 },
        GenParam{ "bodies", 5, 20.0, 1.0, 0.1, 20 },
        GenParam{ "many_funcs", 6, 4.0, 1.0, 0.1, 120 }),
    [](const auto &info) { return info.param.label; });

} // namespace
} // namespace mbbp
