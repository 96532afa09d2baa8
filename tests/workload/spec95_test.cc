/** @file Tests for the synthetic SPEC95 suite profiles. */

#include "workload/spec95.hh"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace mbbp
{
namespace
{

TEST(Spec95, SuiteHasEighteenPrograms)
{
    EXPECT_EQ(specIntNames().size(), 8u);
    EXPECT_EQ(specFpNames().size(), 10u);
    EXPECT_EQ(specAllNames().size(), 18u);
    EXPECT_EQ(specSuite().size(), 18u);
}

TEST(Spec95, NamesAreDisjointAndClassified)
{
    const auto int_names = specIntNames();
    std::set<std::string> ints(int_names.begin(), int_names.end());
    for (const auto &name : specFpNames()) {
        EXPECT_EQ(ints.count(name), 0u);
        EXPECT_TRUE(specProfile(name).isFloat);
    }
    for (const auto &name : specIntNames())
        EXPECT_FALSE(specProfile(name).isFloat);
}

TEST(Spec95Death, UnknownProfileIsFatal)
{
    EXPECT_DEATH((void)specProfile("nonesuch"), "unknown");
}

TEST(Spec95, TraceIsDeterministic)
{
    InMemoryTrace a = specTrace("compress", 5000);
    InMemoryTrace b = specTrace("compress", 5000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.at(i), b.at(i));
}

TEST(Spec95, TraceIsAllocatedExactly)
{
    InMemoryTrace t = specTrace("gcc", 5000);
    EXPECT_EQ(t.size(), 5000u);
    EXPECT_EQ(t.insts().capacity(), t.size());
}

TEST(Spec95, ProgramsDiffer)
{
    InMemoryTrace a = specTrace("go", 2000);
    InMemoryTrace b = specTrace("swim", 2000);
    std::size_t diff = 0;
    for (std::size_t i = 0; i < 2000; ++i)
        diff += !(a.at(i) == b.at(i));
    EXPECT_GT(diff, 1000u);
}

/** Every program must produce a stream in its class's regime. */
class SpecPrograms : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SpecPrograms, StreamStatisticsAreSane)
{
    const std::string &name = GetParam();
    InMemoryTrace trace = specTrace(name, 80000);
    ASSERT_EQ(trace.size(), 80000u);

    auto s = trace.summarize();
    bool is_fp = specProfile(name).isFloat;

    // Conditional-branch density: SPECfp-like codes are sparse,
    // SPECint-like ones branchy.
    double density = s.condDensity();
    if (is_fp) {
        EXPECT_GT(density, 0.02) << name;
        EXPECT_LT(density, 0.20) << name;
    } else {
        EXPECT_GT(density, 0.06) << name;
        EXPECT_LT(density, 0.30) << name;
    }

    // Some calls and returns must appear, and they must balance
    // approximately over a long window.
    EXPECT_GT(s.calls, 0u) << name;
    EXPECT_GT(s.returns, 0u) << name;
    EXPECT_NEAR(static_cast<double>(s.calls),
                static_cast<double>(s.returns),
                0.2 * static_cast<double>(s.calls) + 50.0)
        << name;
}

INSTANTIATE_TEST_SUITE_P(All, SpecPrograms,
                         ::testing::ValuesIn(specAllNames()),
                         [](const auto &param_info) {
                             return param_info.param;
                         });

} // namespace
} // namespace mbbp
