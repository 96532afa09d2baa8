/** @file Unit tests for the observability layer. */

#include "obs/obs.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "temp_path.hh"
#include "util/json.hh"

namespace mbbp
{
namespace
{

/** Every test runs with a clean slate and leaves the layer off. */
class Obs : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::setEnabled(false);
        obs::setTracing(false);
        obs::resetAll();
    }

    void TearDown() override
    {
        obs::setEnabled(false);
        obs::setTracing(false);
        obs::resetAll();
    }
};

TEST_F(Obs, DisabledCounterStaysZero)
{
    obs::Counter &c = obs::counter("test.disabled");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 0u);
}

TEST_F(Obs, EnabledCounterAccumulates)
{
    obs::setEnabled(true);
    obs::Counter &c = obs::counter("test.counter");
    c.add();
    c.add(9);
#ifndef MBBP_OBS_DISABLED
    EXPECT_EQ(c.value(), 10u);
#else
    EXPECT_EQ(c.value(), 0u);
#endif
}

TEST_F(Obs, RegistryReturnsSameInstrument)
{
    obs::Counter &a = obs::counter("test.same");
    obs::Counter &b = obs::counter("test.same");
    EXPECT_EQ(&a, &b);
}

TEST_F(Obs, FlushCounterSkipsZeroAndDisabled)
{
    obs::flushCounter("test.flush", 5);     // disabled: dropped
    obs::setEnabled(true);
    obs::flushCounter("test.flush", 0);     // zero: dropped
    obs::flushCounter("test.flush", 7);
#ifndef MBBP_OBS_DISABLED
    EXPECT_EQ(obs::counter("test.flush").value(), 7u);
#endif
}

TEST_F(Obs, GaugeTracksValueAndPeak)
{
    obs::setEnabled(true);
    obs::Gauge &g = obs::gauge("test.gauge");
    g.set(5);
    g.set(12);
    g.set(3);
#ifndef MBBP_OBS_DISABLED
    EXPECT_EQ(g.value(), 3u);
    EXPECT_EQ(g.peak(), 12u);
#endif
}

TEST_F(Obs, TimerRecordsCallsAndTime)
{
    obs::setEnabled(true);
    obs::Timer &t = obs::timer("test.timer");
    t.record(100);
    t.record(250);
#ifndef MBBP_OBS_DISABLED
    EXPECT_EQ(t.calls(), 2u);
    EXPECT_EQ(t.totalNs(), 350u);
#endif
}

TEST_F(Obs, ScopedTimerMeasuresNonNegativeInterval)
{
    obs::setEnabled(true);
    obs::Timer &t = obs::timer("test.scoped");
    {
        obs::ScopedTimer span(t);
    }
#ifndef MBBP_OBS_DISABLED
    EXPECT_EQ(t.calls(), 1u);
#endif
}

TEST_F(Obs, ScopedTimerWhileDisabledRecordsNothing)
{
    obs::Timer &t = obs::timer("test.scoped.off");
    {
        obs::ScopedTimer span(t, "label");
    }
    EXPECT_EQ(t.calls(), 0u);
}

TEST_F(Obs, SnapshotIsNameSorted)
{
    obs::setEnabled(true);
    obs::counter("test.zzz").add();
    obs::counter("test.aaa").add();
    obs::counter("test.mmm").add();
    obs::Snapshot snap = obs::snapshot();
    for (std::size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
}

TEST_F(Obs, ResetAllZeroesEverything)
{
    obs::setEnabled(true);
    obs::counter("test.reset.c").add(4);
    obs::gauge("test.reset.g").set(4);
    obs::timer("test.reset.t").record(4);
    obs::resetAll();
    EXPECT_EQ(obs::counter("test.reset.c").value(), 0u);
    EXPECT_EQ(obs::gauge("test.reset.g").peak(), 0u);
    EXPECT_EQ(obs::timer("test.reset.t").totalNs(), 0u);
    EXPECT_EQ(obs::spanCount(), 0u);
}

TEST_F(Obs, StripedCountsSurviveManyThreads)
{
    // 8 threads x 1000 adds: with <= kStripes counting threads the
    // striped cells must not lose a single increment.
    obs::setEnabled(true);
    obs::Counter &c = obs::counter("test.striped");
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < 1000; ++i)
                c.add();
        });
    for (auto &t : threads)
        t.join();
#ifndef MBBP_OBS_DISABLED
    EXPECT_EQ(c.value(), 8000u);
#endif
}

TEST_F(Obs, ChromeTraceIsValidJson)
{
    obs::setEnabled(true);
    obs::setTracing(true);
    obs::Timer &t = obs::timer("test.trace");
    {
        obs::ScopedTimer span(t, "outer");
        obs::ScopedTimer inner(t, "inner \"quoted\"");
    }
    JsonValue doc = JsonValue::parse(obs::chromeTraceJson());
    ASSERT_TRUE(doc.isObject());
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
#ifndef MBBP_OBS_DISABLED
    ASSERT_EQ(events->size(), 2u);
    EXPECT_EQ(obs::spanCount(), 2u);
    for (const JsonValue &e : events->items()) {
        EXPECT_EQ(e.find("ph")->asString(), "X");
        EXPECT_GE(e.find("dur")->asNumber(), 0.0);
        EXPECT_FALSE(e.find("name")->asString().empty());
    }
#else
    EXPECT_EQ(events->size(), 0u);
#endif
}

TEST_F(Obs, ChromeTraceFileRoundTripsThroughTheParser)
{
    // --trace-out writes via writeChromeTrace: parse the FILE back
    // through JsonValue, with labels chosen to catch escaping and
    // trailing-comma bugs that a string-level check can miss.
    obs::setEnabled(true);
    obs::setTracing(true);
    obs::Timer &t = obs::timer("test.trace.file");
    {
        obs::ScopedTimer a(t, "back\\slash");
        obs::ScopedTimer b(t, "multi\nline\ttabbed");
        obs::ScopedTimer c(t, "quoted \"name\" {with, commas}");
    }

    std::string path = testTempPath("mbbp_obs_trace_roundtrip", ".json");
    obs::writeChromeTrace(path);

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    JsonValue doc = JsonValue::parse(ss.str());

    ASSERT_TRUE(doc.isObject());
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
#ifndef MBBP_OBS_DISABLED
    ASSERT_EQ(events->size(), 3u);
    // The awkward labels must survive the write/parse cycle intact.
    std::vector<std::string> names;
    for (const JsonValue &e : events->items())
        names.push_back(e.find("name")->asString());
    std::sort(names.begin(), names.end());
    std::vector<std::string> expected = {
        "back\\slash",
        "multi\nline\ttabbed",
        "quoted \"name\" {with, commas}",
    };
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(names, expected);
#else
    EXPECT_EQ(events->size(), 0u);
#endif
    std::remove(path.c_str());
}

TEST_F(Obs, TracingOffRecordsNoSpans)
{
    obs::setEnabled(true);
    obs::Timer &t = obs::timer("test.nospans");
    {
        obs::ScopedTimer span(t, "should not appear");
    }
    EXPECT_EQ(obs::spanCount(), 0u);
}

} // namespace
} // namespace mbbp
