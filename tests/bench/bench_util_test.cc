/** @file Tests for the harnesses' program-major config executor. */

#include "bench_util.hh"

#include <gtest/gtest.h>

#include <cstdlib>

namespace mbbp::bench
{
namespace
{

/** A mixed list: every engine kind, cache type and replay corner. */
std::vector<SimConfig>
mixedConfigs()
{
    std::vector<SimConfig> cfgs;
    auto add = [&](unsigned blocks, ICacheConfig icache) {
        SimConfig cfg;
        cfg.numBlocks = blocks;
        cfg.engine.icache = icache;
        cfgs.push_back(cfg);
        return &cfgs.back();
    };
    add(1, ICacheConfig::normal(8))->engine.bitEntries = 256;
    add(2, ICacheConfig::extended(8))->engine.numSelectTables = 8;
    add(3, ICacheConfig::selfAligned(8));
    add(4, ICacheConfig::normal(8))->engine.historyBits = 8;
    SimConfig *btb = add(2, ICacheConfig::normal(8));
    btb->engine.targetKind = TargetKind::Btb;
    btb->engine.targetEntries = 32;
    SimConfig *icache = add(2, ICacheConfig::selfAligned(8));
    icache->engine.icacheLines = 128;
    icache->engine.icacheAssoc = 2;
    add(2, ICacheConfig::extended(8))->engine.delayedPhtUpdate = true;
    SimConfig *dbl = add(2, ICacheConfig::normal(8));
    dbl->engine.doubleSelect = true;
    dbl->engine.numSelectTables = 4;
    return cfgs;
}

/** runConfigs at @p threads against per-program solo runs. */
void
expectFieldExact(const char *threads)
{
    constexpr std::size_t insts = 4000;
    setenv("MBBP_BENCH_INSTS", std::to_string(insts).c_str(), 1);
    setenv("MBBP_BENCH_THREADS", threads, 1);

    // Int and fp programs, not in suite order.
    const std::vector<std::string> names = { "swim", "gcc", "li",
                                             "tomcatv", "compress" };
    const std::vector<SimConfig> cfgs = mixedConfigs();
    const std::vector<SuiteResult> results = runConfigs(cfgs, names);
    ASSERT_EQ(results.size(), cfgs.size());

    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        SuiteResult want;
        for (const std::string &name : names) {
            FetchStats s =
                FetchSimulator(cfgs[c]).run(specTrace(name, insts));
            want.perProgram[name] = s;
            want.allTotal.accumulate(s);
            (specProfile(name).isFloat ? want.fpTotal : want.intTotal)
                .accumulate(s);
        }
        EXPECT_EQ(results[c].perProgram, want.perProgram);
        EXPECT_EQ(results[c].intTotal, want.intTotal);
        EXPECT_EQ(results[c].fpTotal, want.fpTotal);
        EXPECT_EQ(results[c].allTotal, want.allTotal);
    }
}

TEST(RunConfigs, FieldExactAgainstSoloRunsOneThread)
{
    expectFieldExact("1");
}

TEST(RunConfigs, FieldExactAgainstSoloRunsFourThreads)
{
    expectFieldExact("4");
}

TEST(RunConfigs, EmptyNamesRunTheWholeSuite)
{
    setenv("MBBP_BENCH_INSTS", "1000", 1);
    setenv("MBBP_BENCH_THREADS", "2", 1);
    SimConfig cfg;
    const std::vector<SuiteResult> results = runConfigs({ cfg });
    ASSERT_EQ(results.size(), 1u);
    TraceCache cache(1000);
    const SuiteResult want = runSuite(cfg, cache);
    EXPECT_EQ(results[0].perProgram.size(), specAllNames().size());
    EXPECT_EQ(results[0].perProgram, want.perProgram);
    EXPECT_EQ(results[0].allTotal, want.allTotal);
}

} // namespace
} // namespace mbbp::bench
