/** @file Runner + report tests: determinism across thread counts. */

#include "sweep/sweep_runner.hh"

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hh"
#include "sweep/sweep_report.hh"
#include "util/json.hh"

namespace mbbp
{
namespace
{

// Short traces keep the whole suite-of-sweeps fast.
constexpr std::size_t kInsts = 6000;

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.setName("determinism");
    spec.setBenchmarks({ "gcc", "compress", "swim" });
    spec.addAxis("historyBits", { "6", "8" });
    spec.addAxis("numBlocks", { "1", "2" });
    return spec;
}

TEST(SweepRunner, ProducesOneResultPerJobInOrder)
{
    TraceCache traces(kInsts);
    SweepResult r = runSweep(smallSpec(), traces);
    ASSERT_EQ(r.jobs.size(), 4u);
    for (std::size_t i = 0; i < r.jobs.size(); ++i) {
        EXPECT_EQ(r.jobs[i].job.index, i);
        EXPECT_GT(r.jobs[i].result.allTotal.instructions, 0u);
        EXPECT_GE(r.jobs[i].seconds, 0.0);
    }
    EXPECT_EQ(r.name, "determinism");
    EXPECT_GT(r.wallSeconds, 0.0);
}

TEST(SweepRunner, ReportsAreByteIdenticalAcrossThreadCounts)
{
    TraceCache traces(kInsts);
    SweepOptions serial;
    serial.threads = 1;
    SweepOptions wide;
    wide.threads = 8;

    SweepResult r1 = runSweep(smallSpec(), traces, serial);
    SweepResult r8 = runSweep(smallSpec(), traces, wide);

    EXPECT_EQ(sweepToJson(r1), sweepToJson(r8));
    EXPECT_EQ(sweepToCsv(r1), sweepToCsv(r8));

    SweepReportOptions aggregates_only;
    aggregates_only.perProgram = false;
    EXPECT_EQ(sweepToJson(r1, aggregates_only),
              sweepToJson(r8, aggregates_only));
}

TEST(SweepRunner, BatchedReplayReportsAreByteIdentical)
{
    // Each shape's per-config 1-thread report is the reference: the
    // per-config path at eight threads and the batched path at one
    // and eight must match it byte for byte, with or without the
    // metrics layer collecting.
    TraceCache traces(kInsts);
    SweepOptions plain;
    plain.threads = 1;
    SweepOptions plain8 = plain;
    plain8.threads = 8;
    SweepOptions batched1 = plain;
    batched1.batchedReplay = true;
    SweepOptions batched8 = batched1;
    batched8.threads = 8;

    auto expectIdentical = [&](const SweepSpec &spec, bool metrics) {
        SCOPED_TRACE(spec.name() + (metrics ? " +metrics" : ""));
        SweepResult ref = runSweep(spec, traces, plain);
        obs::setEnabled(metrics);
        for (const SweepOptions &opts : { plain8, batched1, batched8 }) {
            SweepResult r = runSweep(spec, traces, opts);
            EXPECT_EQ(sweepToJson(ref), sweepToJson(r));
            EXPECT_EQ(sweepToCsv(ref), sweepToCsv(r));
        }
        obs::setEnabled(false);
    };

    // Three engine kinds x two history depths: the batched schedule
    // folds each kind's pair of jobs into one lockstep tile.
    SweepSpec kinds;
    kinds.setName("batched-equivalence");
    kinds.setBenchmarks({ "gcc", "compress", "swim" });
    kinds.addAxis("numBlocks", { "1", "2", "4" });
    kinds.addAxis("historyBits", { "6", "8" });
    expectIdentical(kinds, false);

    // The fig7 shape: finite BIT sizes down to 16 entries.
    SweepSpec bit;
    bit.setName("batched-finite-bit");
    bit.setBenchmarks({ "gcc", "compress" });
    bit.addAxis("historyBits", { "6", "8", "10", "12" });
    bit.addAxis("bitEntries", { "16", "64", "256", "1024" });
    expectIdentical(bit, false);

    // The 3-block Multi engine over history x select tables.
    SweepSpec multi;
    multi.setName("batched-multi3");
    multi.setBenchmarks({ "gcc", "compress" });
    multi.setBase("numBlocks", "3");
    multi.addAxis("historyBits", { "6", "8", "10", "12" });
    multi.addAxis("numSelectTables", { "1", "2", "4", "8" });
    expectIdentical(multi, false);

    expectIdentical(kinds, true);
    obs::resetAll();
}

TEST(SweepRunner, BatchedReplayFallsBackOnMixedGeometry)
{
    // Every (numBlocks, blockWidth) point has a unique BatchKey, so
    // no tile forms and every job takes the per-config fallback; the
    // run must still succeed and match the plain path exactly.
    TraceCache traces(kInsts);
    SweepSpec spec;
    spec.setName("batched-fallback");
    spec.setBenchmarks({ "gcc", "swim" });
    spec.addAxis("numBlocks", { "1", "2" });
    spec.addAxis("blockWidth", { "4", "16" });

    SweepOptions plain;
    plain.threads = 2;
    SweepOptions batched = plain;
    batched.batchedReplay = true;

    SweepResult ref = runSweep(spec, traces, plain);
    SweepResult b = runSweep(spec, traces, batched);

    EXPECT_EQ(sweepToJson(ref), sweepToJson(b));
    EXPECT_EQ(sweepToCsv(ref), sweepToCsv(b));
}

TEST(SweepRunner, BatchedReplayRaggedTilesStayExact)
{
    // maxLanes=2 over a 3-lane group forces a ragged trailing tile;
    // mixing in a singleton geometry exercises tiles and fallback in
    // the same run.
    TraceCache traces(kInsts);
    SweepSpec spec;
    spec.setName("batched-ragged");
    spec.setBenchmarks({ "gcc", "compress" });
    spec.addAxis("numBlocks", { "2" });
    spec.addAxis("historyBits", { "4", "6", "8" });

    SweepOptions plain;
    plain.threads = 1;
    SweepOptions batched = plain;
    batched.batchedReplay = true;
    batched.batchTile.maxLanes = 2;

    SweepResult ref = runSweep(spec, traces, plain);
    SweepResult b = runSweep(spec, traces, batched);
    EXPECT_EQ(sweepToJson(ref), sweepToJson(b));
}

TEST(SweepRunner, BatchedProgressSeesEveryJobSerialized)
{
    TraceCache traces(kInsts);
    SweepOptions opts;
    opts.threads = 4;
    opts.batchedReplay = true;
    std::atomic<int> in_callback{ 0 };
    std::size_t calls = 0, last_completed = 0;
    bool overlapped = false;
    opts.progress = [&](const SweepProgress &p) {
        if (++in_callback != 1)
            overlapped = true;
        ++calls;
        last_completed = p.completed;
        EXPECT_EQ(p.total, 4u);
        EXPECT_NE(p.job, nullptr);
        --in_callback;
    };
    runSweep(smallSpec(), traces, opts);
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(last_completed, 4u);
    EXPECT_FALSE(overlapped);
}

TEST(SweepRunner, TimedReportsRecordThreadCount)
{
    TraceCache traces(kInsts);
    SweepOptions wide;
    wide.threads = 3;
    SweepResult r = runSweep(smallSpec(), traces, wide);
    EXPECT_EQ(r.threads, 3u);

    SweepReportOptions timed;
    timed.timings = true;
    std::string json = sweepToJson(r, timed);
    EXPECT_NE(json.find("\"threads\":3"), std::string::npos);
    EXPECT_NE(json.find("wall_seconds"), std::string::npos);
}

TEST(SweepRunner, ProgressCallbackSeesEveryJobSerialized)
{
    TraceCache traces(kInsts);
    SweepOptions opts;
    opts.threads = 4;
    std::atomic<int> in_callback{ 0 };
    std::size_t calls = 0, last_completed = 0;
    bool overlapped = false;
    opts.progress = [&](const SweepProgress &p) {
        if (++in_callback != 1)
            overlapped = true;
        ++calls;
        last_completed = p.completed;
        EXPECT_EQ(p.total, 4u);
        EXPECT_NE(p.job, nullptr);
        --in_callback;
    };
    runSweep(smallSpec(), traces, opts);
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(last_completed, 4u);
    EXPECT_FALSE(overlapped);
}

TEST(SweepRunner, WorkerExceptionsPropagateToTheCaller)
{
    // The progress callback runs inside pool tasks, so a throw here
    // exercises the same capture-and-rethrow path a failing job
    // would take: it must surface from runSweep, not kill a worker.
    TraceCache traces(kInsts);
    SweepOptions opts;
    opts.threads = 2;
    opts.progress = [](const SweepProgress &) {
        throw std::runtime_error("observer failed");
    };
    EXPECT_THROW(runSweep(smallSpec(), traces, opts),
                 std::runtime_error);
}

#ifndef MBBP_OBS_DISABLED

/** The "counters" subobject of a metrics-bearing report, filtered to
 *  the per-run-deterministic engine and predictor counts. Timers,
 *  pool scheduling counters and the trace cache's build counts are
 *  wall-clock or warmup shaped, so reset hygiene is asserted on the
 *  simulation counters only. */
std::vector<std::pair<std::string, double>>
reportSimCounters(const SweepResult &r)
{
    SweepReportOptions with_metrics;
    with_metrics.metrics = true;
    JsonValue doc = JsonValue::parse(sweepToJson(r, with_metrics));
    const JsonValue *metrics = doc.find("metrics");
    if (metrics == nullptr)
        return {};
    const JsonValue *counters = metrics->find("counters");
    if (counters == nullptr)
        return {};
    std::vector<std::pair<std::string, double>> sim;
    for (std::size_t i = 0; i < counters->size(); ++i) {
        const std::string &name = counters->keyAt(i);
        if (name.rfind("engine.", 0) == 0 ||
            name.rfind("predict.", 0) == 0)
            sim.emplace_back(name, counters->memberAt(i).asNumber());
    }
    return sim;
}

TEST(SweepRunner, RegistryResetBetweenRunsKeepsMetricsFresh)
{
    // Two identical runs with an obs::resetAll() between them must
    // report identical counters: stale counts from the first run
    // must not leak into the second report's metrics block. A third
    // run WITHOUT the reset shows the leak this hygiene prevents.
    TraceCache traces(kInsts);
    SweepOptions serial;    // one thread: pool counters deterministic
    serial.threads = 1;

    obs::resetAll();
    obs::setEnabled(true);
    SweepResult r1 = runSweep(smallSpec(), traces, serial);
    auto counters1 = reportSimCounters(r1);
    ASSERT_FALSE(counters1.empty());

    obs::resetAll();
    SweepResult r2 = runSweep(smallSpec(), traces, serial);
    auto counters2 = reportSimCounters(r2);
    EXPECT_EQ(counters1, counters2);

    // No reset: the registry now reports two runs' worth of events
    // -- every simulation counter exactly doubles.
    SweepResult r3 = runSweep(smallSpec(), traces, serial);
    auto counters3 = reportSimCounters(r3);
    ASSERT_EQ(counters3.size(), counters1.size());
    for (std::size_t i = 0; i < counters1.size(); ++i) {
        EXPECT_EQ(counters3[i].first, counters1[i].first);
        EXPECT_EQ(counters3[i].second, 2.0 * counters1[i].second)
            << counters1[i].first;
    }

    obs::setEnabled(false);
    obs::resetAll();
}

#endif // MBBP_OBS_DISABLED

TEST(SweepReport, CsvHasHeaderPlusRowPerScope)
{
    TraceCache traces(kInsts);
    SweepSpec spec;
    spec.setBenchmarks({ "gcc", "swim" });
    spec.addAxis("historyBits", { "6" });
    SweepResult r = runSweep(spec, traces);

    std::string csv = sweepToCsv(r);
    std::size_t lines = 0;
    for (char c : csv)
        if (c == '\n')
            ++lines;
    // header + (int, fp, all, gcc, swim) for the single job
    EXPECT_EQ(lines, 6u);
    EXPECT_EQ(csv.compare(0, 16, "job,historyBits,"), 0);
}

} // namespace
} // namespace mbbp
