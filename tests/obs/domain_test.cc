/** @file Unit tests for obs::Domain scoping and chain flushing. */

#include "obs/obs.hh"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/attribution.hh"
#include "util/json.hh"

namespace mbbp
{
namespace
{

/** Clean default-domain slate; domains under test are locals. */
class ObsDomain : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::setEnabled(true);
        obs::setTracing(false);
        obs::resetAll();
    }

    void TearDown() override
    {
        obs::setEnabled(false);
        obs::setTracing(false);
        obs::setAttributionEnabled(false);
        obs::resetAll();
    }
};

#ifndef MBBP_OBS_DISABLED

TEST_F(ObsDomain, InstrumentsAreIsolatedBetweenDomains)
{
    obs::Domain a("a");
    obs::Domain b("b");
    a.counter("test.iso").add(3);
    b.counter("test.iso").add(5);
    EXPECT_EQ(a.counter("test.iso").value(), 3u);
    EXPECT_EQ(b.counter("test.iso").value(), 5u);
    EXPECT_EQ(obs::counter("test.iso").value(), 0u);
    EXPECT_NE(&a.counter("test.iso"), &b.counter("test.iso"));
}

TEST_F(ObsDomain, CurrentDomainDefaultsToTheProcessDomain)
{
    EXPECT_EQ(&obs::currentDomain(), &obs::defaultDomain());
    EXPECT_EQ(obs::defaultDomain().parent(), nullptr);
}

TEST_F(ObsDomain, ScopedDomainInstallsAndRestores)
{
    obs::Domain job("job");
    {
        obs::ScopedDomain scope(&job);
        EXPECT_EQ(&obs::currentDomain(), &job);
        {
            // Null means "keep whatever is current".
            obs::ScopedDomain keep(nullptr);
            EXPECT_EQ(&obs::currentDomain(), &job);
        }
        EXPECT_EQ(&obs::currentDomain(), &job);
    }
    EXPECT_EQ(&obs::currentDomain(), &obs::defaultDomain());
}

TEST_F(ObsDomain, FlushCounterWalksTheParentChain)
{
    obs::Domain job("job", &obs::defaultDomain());
    {
        obs::ScopedDomain scope(&job);
        obs::flushCounter("test.chain", 7);
    }
    // The job's isolated share and the process aggregate both count.
    EXPECT_EQ(job.counter("test.chain").value(), 7u);
    EXPECT_EQ(obs::counter("test.chain").value(), 7u);
}

TEST_F(ObsDomain, ParentlessDomainDoesNotLeakToTheDefault)
{
    obs::Domain detached("detached");
    {
        obs::ScopedDomain scope(&detached);
        obs::flushCounter("test.detached", 4);
    }
    EXPECT_EQ(detached.counter("test.detached").value(), 4u);
    EXPECT_EQ(obs::counter("test.detached").value(), 0u);
}

TEST_F(ObsDomain, FlushHistogramReachesEveryChainDomain)
{
    obs::Domain job("job", &obs::defaultDomain());
    obs::HistogramData local;
    local.record(100);
    local.record(1000);
    {
        obs::ScopedDomain scope(&job);
        obs::flushHistogram("test.hist", local);
    }
    EXPECT_EQ(job.histogram("test.hist").count(), 2u);
    EXPECT_EQ(obs::histogram("test.hist").count(), 2u);
}

TEST_F(ObsDomain, NamedScopedTimerFlushesIntoTheChain)
{
    obs::Domain job("job", &obs::defaultDomain());
    {
        obs::ScopedDomain scope(&job);
        obs::ScopedTimer span("test.chained_timer");
    }
    EXPECT_EQ(job.timer("test.chained_timer").calls(), 1u);
    EXPECT_EQ(obs::timer("test.chained_timer").calls(), 1u);
}

TEST_F(ObsDomain, CurrentDomainIsPerThread)
{
    obs::Domain a("a", &obs::defaultDomain());
    obs::Domain b("b", &obs::defaultDomain());
    auto work = [](obs::Domain *d, uint64_t n) {
        obs::ScopedDomain scope(d);
        obs::flushCounter("test.threaded", n);
    };
    std::thread ta(work, &a, 11);
    std::thread tb(work, &b, 22);
    ta.join();
    tb.join();
    EXPECT_EQ(a.counter("test.threaded").value(), 11u);
    EXPECT_EQ(b.counter("test.threaded").value(), 22u);
    EXPECT_EQ(obs::counter("test.threaded").value(), 33u);
}

TEST_F(ObsDomain, SpansLandOnlyInTracingDomains)
{
    obs::Domain job("job", &obs::defaultDomain());
    job.setTracing(true);
    ASSERT_FALSE(obs::defaultDomain().tracingOn());
    {
        obs::ScopedDomain scope(&job);
        obs::ScopedTimer span("test.span", "labelled");
    }
    EXPECT_EQ(job.spanCount(), 1u);
    EXPECT_EQ(obs::spanCount(), 0u);
}

TEST_F(ObsDomain, SpanLimitDropsAndCounts)
{
    obs::Domain job("job");
    job.setTracing(true);
    job.setSpanLimit(2);
    for (unsigned i = 0; i < 5; ++i) {
        // Appended, not "s" + to_string(i): GCC 12 at -O3 reports a
        // false -Wrestrict on that operator+ overload.
        std::string name = "s";
        name += std::to_string(i);
        job.recordSpan(name, 0, i * 10, 5);
    }
    EXPECT_EQ(job.spanCount(), 2u);
    EXPECT_EQ(job.counter("obs.spans_dropped").value(), 3u);
}

TEST_F(ObsDomain, ChromeTraceEmbedsTraceIdAndLabel)
{
    obs::Domain job("job-7");
    job.setTracing(true);
    job.recordSpan("phase", 1, 1000, 500);
    JsonValue doc =
        JsonValue::parse(job.chromeTraceJson("abc123"));
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 1u);
    const JsonValue *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("traceId")->asString(), "abc123");
    EXPECT_EQ(other->find("domain")->asString(), "job-7");

    // Without a trace id the document omits otherData entirely, so
    // the default-domain export is byte-compatible with before.
    JsonValue bare = JsonValue::parse(job.chromeTraceJson());
    EXPECT_EQ(bare.find("otherData"), nullptr);
}

TEST_F(ObsDomain, AttributionFlushWalksTheChain)
{
    obs::Domain job("job", &obs::defaultDomain());
    obs::setAttributionEnabled(true);
    {
        obs::ScopedDomain scope(&job);
        obs::AttributionSink sink;
        sink.record(0x1000, 2, obs::LossCause::PhtDirection, 9);
        sink.record(0x1000, 2, obs::LossCause::PhtDirection, 7);
        sink.flush();
    }
    EXPECT_EQ(job.attribution().totalEvents(), 2u);
    EXPECT_EQ(obs::attributedEvents(), 2u);
    std::vector<obs::AttributionRow> rows = job.attribution().rows(0);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].blockPc, 0x1000u);
    EXPECT_EQ(rows[0].slot, 2u);
    EXPECT_EQ(rows[0].cycles, 16u);
}

TEST_F(ObsDomain, SnapshotCoversOnlyTheDomainsOwnInstruments)
{
    obs::Domain job("job", &obs::defaultDomain());
    obs::counter("test.global_only").add(1);
    job.counter("test.job_only").add(1);
    obs::Snapshot snap = job.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].name, "test.job_only");
}

TEST_F(ObsDomain, ResetClearsInstrumentsSpansAndAttribution)
{
    obs::Domain job("job");
    job.setTracing(true);
    job.counter("test.reset").add(5);
    job.recordSpan("s", 0, 0, 1);
    job.attribution().mergeCell(8, 1, 2, {});
    job.reset();
    EXPECT_EQ(job.counter("test.reset").value(), 0u);
    EXPECT_EQ(job.spanCount(), 0u);
    EXPECT_EQ(job.attribution().totalEvents(), 0u);
}

#else // MBBP_OBS_DISABLED

TEST_F(ObsDomain, DisabledDomainIsInert)
{
    obs::Domain job("job", &obs::defaultDomain());
    {
        obs::ScopedDomain scope(&job);
        obs::flushCounter("test.off", 5);
        obs::ScopedTimer span("test.off_timer");
    }
    EXPECT_EQ(job.counter("test.off").value(), 0u);
    EXPECT_EQ(job.spanCount(), 0u);
    EXPECT_TRUE(job.snapshot().counters.empty());
    JsonValue doc = JsonValue::parse(job.chromeTraceJson("id"));
    EXPECT_EQ(doc.find("traceEvents")->size(), 0u);
}

#endif // MBBP_OBS_DISABLED

} // namespace
} // namespace mbbp
