/**
 * @file
 * The sweep service daemon: a long-running process that accepts
 * SweepSpec JSON jobs over a loopback HTTP endpoint, runs them on a
 * shared work-stealing thread pool, and keeps decoded replay
 * artifacts in an mmap-persistent store so a restarted daemon warms
 * up from disk instead of re-decoding.
 *
 * Usage:
 *   sweep_serverd [options]
 *   --port N           listen port (0 = ephemeral)       [0]
 *   --port-file FILE   write the bound port to FILE (for scripts
 *                      that start us with --port 0)
 *   --threads N        pool workers                      [hardware]
 *   --artifact-dir DIR persist decoded traces under DIR (created
 *                      on first save); omit to keep artifacts
 *                      memory-only
 *   --max-queue N      queued-job admission bound        [8]
 *   --max-active-jobs N  concurrently dispatched sweeps, each on a
 *                      fair (work-conserving) share of the one
 *                      thread pool (--max-active is an alias) [1]
 *   --max-jobs N       max expanded configs per sweep    [4096]
 *   --max-insts N      max instructions per program      [4000000]
 *   --decoded-budget B ONE LRU byte budget shared by every
 *                      per-instruction-count decoded-trace cache
 *                      (0 = unbounded)                   [0]
 *   --result-cache-entries N  completed reports cached by canonical
 *                      spec hash; identical resubmission is served
 *                      without replaying (0 = off)       [64]
 *   --result-cache-bytes B    LRU byte bound on those cached
 *                      reports (0 = unbounded)           [64M]
 *   --retain-jobs N    terminal job records kept before the oldest
 *                      are evicted -- evicted ids answer 404
 *                      {"error":"expired"} (0 = unbounded) [256]
 *   --retain-bytes B   byte bound on retained result documents
 *                      (0 = unbounded)                   [256M]
 *   --batched          config-batched replay inside sweeps
 *                      (perfbench/run.py starts the daemon with it)
 *   --no-simd          force the scalar replay kernels (the
 *                      active dispatch shows on /metrics as the
 *                      sweep.simd.<name> info gauge)
 *   --log-level L      structured event-log threshold: debug, info,
 *                      warn, error or off                 [info]
 *   --log-file FILE    append JSON event lines (one object per
 *                      line: job lifecycle, admission rejections,
 *                      HTTP access log) to FILE instead of stderr
 *                      ("-" = stderr)
 *   --quiet            no startup/shutdown chatter on stderr
 *
 * The daemon exits 0 after POST /shutdown and 130 after SIGINT or
 * SIGTERM; both paths drain identically (stop accepting, cancel
 * in-flight sweeps at their next checkpoint, join every thread).
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "obs/log.hh"
#include "obs/obs.hh"
#include "serve/exit_codes.hh"
#include "serve/server.hh"
#include "serve/shutdown.hh"
#include "util/simd.hh"

using namespace mbbp;
using namespace mbbp::serve;

namespace
{

void
usage()
{
    std::cerr <<
        "usage: sweep_serverd [--port N] [--port-file FILE]\n"
        "                     [--threads N] [--artifact-dir DIR]\n"
        "                     [--max-queue N] [--max-active-jobs N]\n"
        "                     [--max-jobs N] [--max-insts N]\n"
        "                     [--decoded-budget BYTES] [--batched]\n"
        "                     [--result-cache-entries N]\n"
        "                     [--result-cache-bytes BYTES]\n"
        "                     [--retain-jobs N] [--retain-bytes BYTES]\n"
        "                     [--log-level LVL] [--log-file FILE]\n"
        "                     [--no-simd] [--quiet]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    ServerConfig cfg;
    std::string port_file;
    std::string log_file;
    obs::LogLevel log_level = obs::LogLevel::Info;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(kExitUsage);
            }
            return argv[++i];
        };
        try {
            if (arg == "--port") {
                cfg.port = static_cast<uint16_t>(std::stoul(next()));
            } else if (arg == "--port-file") {
                port_file = next();
            } else if (arg == "--threads") {
                cfg.limits.threads =
                    static_cast<unsigned>(std::stoul(next()));
            } else if (arg == "--artifact-dir") {
                cfg.artifactDir = next();
            } else if (arg == "--max-queue") {
                cfg.limits.maxQueuedJobs = std::stoul(next());
            } else if (arg == "--max-active-jobs" ||
                       arg == "--max-active") {
                cfg.limits.maxActiveJobs = std::stoul(next());
            } else if (arg == "--max-jobs") {
                cfg.limits.maxSweepJobs = std::stoul(next());
            } else if (arg == "--max-insts") {
                cfg.limits.maxInstructions = std::stoul(next());
            } else if (arg == "--decoded-budget") {
                cfg.limits.decodedBudgetBytes = std::stoul(next());
            } else if (arg == "--result-cache-entries") {
                cfg.limits.resultCacheEntries = std::stoul(next());
            } else if (arg == "--result-cache-bytes") {
                cfg.limits.resultCacheBytes = std::stoul(next());
            } else if (arg == "--retain-jobs") {
                cfg.limits.retainTerminalJobs = std::stoul(next());
            } else if (arg == "--retain-bytes") {
                cfg.limits.retainResultBytes = std::stoul(next());
            } else if (arg == "--batched") {
                cfg.limits.batchedReplay = true;
            } else if (arg == "--no-simd") {
                simd::setLevel(simd::Level::Scalar);
            } else if (arg == "--log-level") {
                std::string lvl = next();
                auto parsed = obs::parseLogLevel(lvl);
                if (!parsed) {
                    std::cerr << "sweep_serverd: bad log level: "
                              << lvl << "\n";
                    return kExitUsage;
                }
                log_level = *parsed;
            } else if (arg == "--log-file") {
                log_file = next();
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return kExitOk;
            } else {
                std::cerr << "sweep_serverd: unknown option: " << arg
                          << "\n";
                usage();
                return kExitUsage;
            }
        } catch (const std::exception &) {
            std::cerr << "sweep_serverd: bad value for " << arg
                      << "\n";
            return kExitUsage;
        }
    }

    // The service's own counters should always be live on /metrics,
    // whatever the obs default is for batch tools.
    obs::setEnabled(true);

    // The daemon logs by default (batch CLIs stay silent: the event
    // log's process-wide default level is Off).
    try {
        obs::EventLog::instance().configure(log_level, log_file);
    } catch (const std::exception &e) {
        std::cerr << "sweep_serverd: " << e.what() << "\n";
        return kExitUsage;
    }
    obs::LogEvent(obs::LogLevel::Info, "daemon.start")
        .num("threads",
             static_cast<uint64_t>(cfg.limits.threads))
        .num("max_active_jobs",
             static_cast<uint64_t>(cfg.limits.maxActiveJobs));

    // Advertise the active replay dispatch on /metrics from startup:
    // an info-style gauge carries the name, the width gauge the lane
    // count (batchReplay republishes the latter on every run).
    const simd::Level lvl = simd::activeLevel();
    obs::gauge(std::string("sweep.simd.") + simd::levelName(lvl))
        .set(1);
    obs::gauge("sweep.simd_width").set(simd::vectorLanes(lvl));

    CancelToken stop_token;
    installShutdownHandlers(stop_token);

    SweepServer server(cfg);
    uint16_t port = 0;
    try {
        port = server.start();
    } catch (const std::exception &e) {
        std::cerr << "sweep_serverd: " << e.what() << "\n";
        return kExitRuntime;
    }

    if (!port_file.empty()) {
        std::ofstream pf(port_file, std::ios::trunc);
        pf << port << "\n";
        if (!pf.flush()) {
            std::cerr << "sweep_serverd: cannot write " << port_file
                      << "\n";
            server.stop();
            return kExitRuntime;
        }
    }
    // Parseable by scripts that scrape stdout instead of --port-file.
    std::cout << "listening 127.0.0.1:" << port << std::endl;

    while (!stop_token.cancelled() && !server.shutdownRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    bool signalled = stop_token.cancelled();
    obs::LogEvent(obs::LogLevel::Info, "daemon.stop")
        .str("reason", signalled ? "signal" : "shutdown-endpoint");
    if (!quiet)
        std::cerr << "sweep_serverd: "
                  << (signalled ? "signal received" : "/shutdown")
                  << ", draining\n";
    server.stop();

    if (signalled) {
        std::cerr << "sweep_serverd: interrupted\n";
        return kExitInterrupted;
    }
    return kExitOk;
}
