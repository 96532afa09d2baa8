/**
 * @file
 * Parallel sweep execution: expand a SweepSpec into jobs, run each
 * job's whole-suite simulation on a work-stealing thread pool with
 * shared read-only access to one TraceCache, and collect results in
 * deterministic (job-index) order, so the aggregate output of an
 * 8-thread run is byte-identical to the single-threaded one.
 */

#ifndef MBBP_SWEEP_SWEEP_RUNNER_HH
#define MBBP_SWEEP_SWEEP_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "core/suite_runner.hh"
#include "sweep/batch_replay.hh"
#include "sweep/sweep_spec.hh"
#include "util/cancel.hh"

namespace mbbp
{

class ThreadPool;

namespace obs
{
class Domain;
}

/** Completion notification for one job (serialized by the runner). */
struct SweepProgress
{
    std::size_t completed = 0;      //!< jobs finished so far
    std::size_t total = 0;
    const SweepJob *job = nullptr;  //!< the job that just finished
    double jobSeconds = 0.0;
};

/** Execution knobs. */
struct SweepOptions
{
    unsigned threads = 0;           //!< 0 = ThreadPool default

    /**
     * Group compatible sweep points (same BatchKey: engine kind +
     * full i-cache geometry) and advance each group in lockstep
     * through one trace pass per cache-budgeted tile, instead of
     * replaying the trace once per job (see sweep/batch_replay.hh).
     * Results are field-exact versus the per-config path; jobs whose
     * key matches no other job fall back to that path automatically.
     * perfbench/probe.cpp sets this field by name.
     */
    bool batchedReplay = false;

    /** Tile sizing when batchedReplay is on. */
    BatchTileOptions batchTile;

    /** Called after each job completes; never concurrently. */
    std::function<void(const SweepProgress &)> progress;

    /**
     * Run on this shared pool instead of constructing a private one
     * (`threads` is then ignored). The sweep's tasks join whatever
     * else the pool is running; completion is tracked per sweep via
     * a TaskGroup, so concurrent sweeps on one pool do not observe
     * each other. This is how the sweep service multiplexes jobs.
     */
    ThreadPool *pool = nullptr;

    /**
     * Relative fair-share weight of this sweep's TaskGroup on a
     * shared pool (see TaskGroup): with N concurrent sweeps of equal
     * weight each is released ceil(workers/N) tasks at a time.
     * Ignored (harmlessly) on a private pool. 0 is clamped to 1.
     */
    unsigned groupWeight = 1;

    /**
     * Cooperative cancellation. Checked before each job starts and
     * between per-program replays inside a job, so a cancel request
     * is honored within roughly one program replay's latency. A
     * cancelled sweep drains its in-flight tasks (freeing the pool
     * slots) and then throws CancelledError from runSweep*.
     */
    CancelToken cancel;

    /**
     * Record this sweep's metrics, spans and attribution into this
     * obs::Domain (installed via obs::ScopedDomain on the submitting
     * thread and inside every worker task). Null inherits the
     * caller's current domain -- the process default for CLIs, which
     * is the exact pre-domain behavior. Give the domain a parent
     * chain ending at obs::defaultDomain() to keep the process-wide
     * aggregates counting; the sweep service hands each job its own
     * domain this way. Purely an accounting knob: results are
     * byte-identical with or without it.
     */
    obs::Domain *domain = nullptr;
};

/** One job's configuration and measured suite results. */
struct SweepJobResult
{
    SweepJob job;
    SuiteResult result;
    double seconds = 0.0;           //!< this job's wall clock
};

/** All jobs of one sweep, in deterministic job order. */
struct SweepResult
{
    std::string name;
    std::vector<std::string> benchmarks;    //!< empty = whole suite
    unsigned threads = 0;
    std::vector<SweepJobResult> jobs;
    double wallSeconds = 0.0;
};

/**
 * Expand and execute @p spec. Traces come from @p traces (shared by
 * every worker; generated at most once each). Exceptions thrown by a
 * job -- including SweepError from late validation -- propagate to
 * the caller after in-flight jobs drain.
 */
SweepResult runSweep(const SweepSpec &spec, TraceCache &traces,
                     const SweepOptions &opts = {});

/**
 * Execute pre-expanded @p jobs over @p benchmarks (empty = whole
 * suite). The building block for benches that need custom job lists.
 */
SweepResult runSweepJobs(const std::vector<SweepJob> &jobs,
                         TraceCache &traces,
                         const std::vector<std::string> &benchmarks,
                         const SweepOptions &opts = {});

} // namespace mbbp

#endif // MBBP_SWEEP_SWEEP_RUNNER_HH
