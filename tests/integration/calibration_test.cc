/**
 * @file
 * Calibration regression tests: each synthetic benchmark's
 * conditional-branch predictability must stay in its tuned band, so
 * workload edits cannot silently drift the suite out of the paper's
 * regime (SPECint ~91.5 %, SPECfp ~97.3 % at h = 10).
 */

#include <gtest/gtest.h>

#include "core/mbbp.hh"

namespace mbbp
{
namespace
{

struct Band
{
    const char *name;
    double lo;
    double hi;
};

// Print the name, not gtest's default byte dump: that holds the
// string's address, so the test's name would change every run.
void
PrintTo(const Band &b, std::ostream *os)
{
    *os << b.name;
}

class AccuracyBands : public ::testing::TestWithParam<Band>
{
};

TEST_P(AccuracyBands, BlockedAccuracyWithinBand)
{
    const Band &b = GetParam();
    InMemoryTrace t = specTrace(b.name, 120000);
    AccuracyResult r = blockedPhtAccuracy(t, 10,
                                          ICacheConfig::normal(8));
    EXPECT_GE(r.accuracy(), b.lo) << b.name;
    EXPECT_LE(r.accuracy(), b.hi) << b.name;
}

// Bands are deliberately generous (+-3% around the tuned value) --
// they catch structural regressions, not noise.
INSTANTIATE_TEST_SUITE_P(
    Suite, AccuracyBands,
    ::testing::Values(
        Band{ "go", 0.78, 0.88 },        // worst of the suite
        Band{ "m88ksim", 0.89, 0.96 },
        Band{ "gcc", 0.86, 0.94 },
        Band{ "compress", 0.89, 0.96 },
        Band{ "li", 0.90, 0.97 },
        Band{ "ijpeg", 0.92, 0.99 },
        Band{ "perl", 0.86, 0.95 },
        Band{ "vortex", 0.90, 0.97 },
        Band{ "tomcatv", 0.95, 1.00 },
        Band{ "swim", 0.95, 1.00 },
        Band{ "su2cor", 0.93, 1.00 },
        Band{ "hydro2d", 0.95, 1.00 },
        Band{ "mgrid", 0.95, 1.00 },
        Band{ "applu", 0.94, 1.00 },
        Band{ "turb3d", 0.90, 1.00 },
        Band{ "apsi", 0.94, 1.00 },
        Band{ "fpppp", 0.91, 1.00 },
        Band{ "wave5", 0.94, 1.00 }),
    [](const auto &param_info) {
        return std::string(param_info.param.name);
    });

TEST(Calibration, IntFpRegimeSplit)
{
    // Relative ordering the whole evaluation depends on: fp codes
    // are more predictable and fetch faster.
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
    EXPECT_GT(fp_total.accuracy(), int_total.accuracy() + 0.02);
}

} // namespace
} // namespace mbbp
