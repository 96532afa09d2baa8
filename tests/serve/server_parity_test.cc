/**
 * @file
 * End-to-end service tests over real loopback HTTP: submit / stream
 * / result against a live SweepServer, the byte-parity contract with
 * sweep_cli's report path, restart-from-artifact-store reuse, hostile
 * request bodies, cancellation through the API, and /metrics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "serve/server.hh"
#include "sweep/sweep_report.hh"
#include "sweep/sweep_runner.hh"
#include "temp_path.hh"
#include "util/json.hh"

using namespace mbbp;
using namespace mbbp::serve;

namespace
{

const char *kSpec =
    "{\"name\":\"parity\",\"benchmarks\":[\"compress\",\"swim\"],"
    "\"instructions\":20000,\"grid\":{\"historyBits\":[4,6]}}";

ServerConfig
testConfig()
{
    ServerConfig cfg;
    cfg.limits.threads = 2;
    return cfg;
}

/** Submit and ride the stream to a terminal state; returns job id. */
uint64_t
submitAndWait(uint16_t port, const std::string &spec,
              std::string *finalState = nullptr)
{
    HttpResult res = httpRequest(port, "POST", "/jobs", spec);
    EXPECT_EQ(res.status, 202) << res.body;
    JsonValue doc = JsonValue::parse(res.body);
    uint64_t id =
        static_cast<uint64_t>(doc.find("id")->asNumber());

    std::string state;
    std::string err;
    int status = httpStreamLines(
        port, "/jobs/" + std::to_string(id) + "/stream",
        [&](const std::string &line) {
            JsonValue st = JsonValue::parse(line);
            state = st.find("state")->asString();
            return state != "done" && state != "failed" &&
                   state != "cancelled";
        },
        err);
    EXPECT_EQ(status, 200);
    if (finalState != nullptr)
        *finalState = state;
    return id;
}

TEST(SweepServerTest, EndToEndResultMatchesInProcessSweepByteForByte)
{
    SweepServer server(testConfig());
    uint16_t port = server.start();

    std::string state;
    uint64_t id = submitAndWait(port, kSpec, &state);
    EXPECT_EQ(state, "done");

    HttpResult result = httpRequest(
        port, "GET", "/jobs/" + std::to_string(id) + "/result");
    ASSERT_EQ(result.status, 200);

    SweepSpec spec = SweepSpec::fromJson(kSpec);
    TraceCache traces(20000);
    SweepResult direct = runSweep(spec, traces, {});
    EXPECT_EQ(result.body,
              sweepToJson(direct, SweepReportOptions{}) + "\n");
}

TEST(SweepServerTest, RestartReusesArtifactStoreWithIdenticalBytes)
{
    // Artifact counters are flush-style: they only register while
    // observability is on (the daemon always enables it).
    obs::setEnabled(true);

    std::string dir = testTempPath("mbbp_server_arts");
    std::string first;
    {
        ServerConfig cfg = testConfig();
        cfg.artifactDir = dir;
        SweepServer server(cfg);
        uint16_t port = server.start();
        uint64_t id = submitAndWait(port, kSpec);
        first = httpRequest(port, "GET",
                            "/jobs/" + std::to_string(id) +
                                "/result")
                    .body;
        server.stop();
    }
    {
        // A fresh daemon over the same store must mmap the decoded
        // artifacts (observable on /metrics) and produce the exact
        // same report.
        ServerConfig cfg = testConfig();
        cfg.artifactDir = dir;
        SweepServer server(cfg);
        uint16_t port = server.start();
        uint64_t id = submitAndWait(port, kSpec);
        std::string second =
            httpRequest(port, "GET",
                        "/jobs/" + std::to_string(id) + "/result")
                .body;
        EXPECT_EQ(first, second);

        std::string metrics =
            httpRequest(port, "GET", "/metrics").body;
        EXPECT_NE(metrics.find("artifact.store.hits"),
                  std::string::npos);
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepServerTest, TruncatedJsonBodyIsTypedBadSpec)
{
    SweepServer server(testConfig());
    uint16_t port = server.start();

    HttpResult res = httpRequest(port, "POST", "/jobs",
                                 "{\"name\":\"oops\", \"bench");
    EXPECT_EQ(res.status, 400);
    JsonValue doc = JsonValue::parse(res.body);
    EXPECT_EQ(doc.find("error")->asString(), "bad_spec");
    ASSERT_NE(doc.find("message"), nullptr);
}

TEST(SweepServerTest, AdmissionRejectionIsObservableOnMetrics)
{
    ServerConfig cfg = testConfig();
    cfg.limits.maxQueuedJobs = 1;
    SweepServer server(cfg);
    uint16_t port = server.start();
    server.jobs().setPaused(true);

    EXPECT_EQ(httpRequest(port, "POST", "/jobs", kSpec).status,
              202);
    HttpResult second = httpRequest(port, "POST", "/jobs", kSpec);
    EXPECT_EQ(second.status, 429);
    JsonValue doc = JsonValue::parse(second.body);
    EXPECT_EQ(doc.find("error")->asString(), "queue_full");

    std::string metrics = httpRequest(port, "GET", "/metrics").body;
    EXPECT_NE(metrics.find("serve.reject.queue_full"),
              std::string::npos);
    EXPECT_NE(metrics.find("serve.jobs.rejected"),
              std::string::npos);
}

TEST(SweepServerTest, CancelThroughApiReachesTerminalState)
{
    SweepServer server(testConfig());
    uint16_t port = server.start();
    server.jobs().setPaused(true);

    HttpResult res = httpRequest(port, "POST", "/jobs", kSpec);
    ASSERT_EQ(res.status, 202);
    JsonValue doc = JsonValue::parse(res.body);
    std::string id = std::to_string(
        static_cast<uint64_t>(doc.find("id")->asNumber()));

    HttpResult cancel =
        httpRequest(port, "POST", "/jobs/" + id + "/cancel");
    EXPECT_EQ(cancel.status, 200);
    JsonValue st = JsonValue::parse(cancel.body);
    EXPECT_EQ(st.find("state")->asString(), "cancelled");

    // Result of a cancelled job is a 409 conflict, not a report.
    HttpResult result =
        httpRequest(port, "GET", "/jobs/" + id + "/result");
    EXPECT_EQ(result.status, 409);

    // Cancellation is observable on /metrics.
    std::string metrics = httpRequest(port, "GET", "/metrics").body;
    EXPECT_NE(metrics.find("serve.jobs.cancelled"),
              std::string::npos);
}

TEST(SweepServerTest, UnknownRoutesAndIdsAre404)
{
    SweepServer server(testConfig());
    uint16_t port = server.start();

    EXPECT_EQ(httpRequest(port, "GET", "/nope").status, 404);
    EXPECT_EQ(httpRequest(port, "GET", "/jobs/777").status, 404);
    EXPECT_EQ(httpRequest(port, "GET", "/jobs/777/result").status,
              404);
    EXPECT_EQ(httpRequest(port, "POST", "/jobs/777/cancel").status,
              404);
    EXPECT_EQ(httpRequest(port, "GET", "/jobs/abc").status, 400);
    EXPECT_EQ(httpRequest(port, "GET", "/jobs").status, 405);
    EXPECT_EQ(httpRequest(port, "GET", "/shutdown").status, 405);
}

TEST(SweepServerTest, HealthzAndShutdownEndpoint)
{
    SweepServer server(testConfig());
    uint16_t port = server.start();

    HttpResult health = httpRequest(port, "GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "{\"status\":\"ok\"}\n");

    EXPECT_FALSE(server.shutdownRequested());
    EXPECT_EQ(httpRequest(port, "POST", "/shutdown").status, 200);
    EXPECT_TRUE(server.shutdownRequested());
    server.stop();
}

TEST(SweepServerTest, CachedResubmissionOverHttp)
{
    // Daemons always enable obs; the result-cache counters need it.
    obs::setEnabled(true);

    ServerConfig cfg = testConfig();
    cfg.limits.maxActiveJobs = 2;
    SweepServer server(cfg);
    uint16_t port = server.start();

    std::string state;
    uint64_t first = submitAndWait(port, kSpec, &state);
    ASSERT_EQ(state, "done");
    std::string firstDoc =
        httpRequest(port, "GET",
                    "/jobs/" + std::to_string(first) + "/result")
            .body;

    // Identical bytes again: the 202 body says done + cached, and
    // the result is available immediately without streaming.
    HttpResult res = httpRequest(port, "POST", "/jobs", kSpec);
    ASSERT_EQ(res.status, 202) << res.body;
    JsonValue doc = JsonValue::parse(res.body);
    EXPECT_EQ(doc.find("state")->asString(), "done");
    ASSERT_NE(doc.find("cached"), nullptr);
    EXPECT_TRUE(doc.find("cached")->asBool());
    uint64_t second =
        static_cast<uint64_t>(doc.find("id")->asNumber());

    HttpResult status = httpRequest(
        port, "GET", "/jobs/" + std::to_string(second));
    ASSERT_EQ(status.status, 200);
    JsonValue st = JsonValue::parse(status.body);
    EXPECT_EQ(st.find("state")->asString(), "done");
    ASSERT_NE(st.find("cached"), nullptr);

    HttpResult result = httpRequest(
        port, "GET", "/jobs/" + std::to_string(second) + "/result");
    ASSERT_EQ(result.status, 200);
    EXPECT_EQ(result.body, firstDoc);

    std::string metrics = httpRequest(port, "GET", "/metrics").body;
    EXPECT_NE(metrics.find("serve.result_cache.hits"),
              std::string::npos);
}

TEST(SweepServerTest, ExpiredJobIdAnswers404WithTypedReason)
{
    ServerConfig cfg = testConfig();
    cfg.limits.retainTerminalJobs = 1;
    cfg.limits.resultCacheEntries = 0;
    SweepServer server(cfg);
    uint16_t port = server.start();

    uint64_t a = submitAndWait(port, kSpec);
    uint64_t b = submitAndWait(port, kSpec);
    ASSERT_NE(a, b);

    // The older terminal job was pruned: 404, but distinctly typed.
    for (const std::string &suffix :
         { std::string(), std::string("/result") }) {
        HttpResult res = httpRequest(
            port, "GET", "/jobs/" + std::to_string(a) + suffix);
        EXPECT_EQ(res.status, 404);
        JsonValue doc = JsonValue::parse(res.body);
        EXPECT_EQ(doc.find("error")->asString(), "expired");
    }
    HttpResult cancel = httpRequest(
        port, "POST", "/jobs/" + std::to_string(a) + "/cancel");
    EXPECT_EQ(cancel.status, 404);
    EXPECT_EQ(JsonValue::parse(cancel.body).find("error")->asString(),
              "expired");

    // A never-issued id stays "unknown_job".
    HttpResult unknown = httpRequest(port, "GET", "/jobs/777777");
    EXPECT_EQ(unknown.status, 404);
    EXPECT_EQ(
        JsonValue::parse(unknown.body).find("error")->asString(),
        "unknown_job");

    // The newest job's report is still there.
    EXPECT_EQ(httpRequest(port, "GET",
                          "/jobs/" + std::to_string(b) + "/result")
                  .status,
              200);
}

TEST(SweepServerTest, MetricsBodyIsTheSharedSnapshotShape)
{
    SweepServer server(testConfig());
    uint16_t port = server.start();

    HttpResult res = httpRequest(port, "GET", "/metrics");
    ASSERT_EQ(res.status, 200);
    // Parses as JSON and has the exact top-level shape the CLI
    // --metrics block uses.
    JsonValue doc = JsonValue::parse(res.body);
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_NE(metrics->find("counters"), nullptr);
    EXPECT_NE(metrics->find("gauges"), nullptr);
    EXPECT_NE(metrics->find("timers"), nullptr);
    EXPECT_NE(metrics->find("histograms"), nullptr);
}

} // namespace
