#include "sweep/sweep_runner.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "obs/obs.hh"
#include "sweep/thread_pool.hh"
#include "workload/spec95.hh"

namespace mbbp
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Fold one program's stats into a job's SuiteResult, in the exact
 *  order runSuite does. */
void
accumulateProgram(SuiteResult &result, const std::string &name,
                  const FetchStats &s)
{
    result.perProgram[name] = s;
    result.allTotal.accumulate(s);
    if (specProfile(name).isFloat)
        result.fpTotal.accumulate(s);
    else
        result.intTotal.accumulate(s);
}

/**
 * One tile of the batched schedule: a run of compatible jobs that
 * replay together, with a (program -> per-lane stats) buffer filled
 * by one pool task per program.
 */
struct BatchedTile
{
    std::vector<std::size_t> jobIdx;    //!< lanes, ascending job index
    std::vector<SimConfig> configs;
    std::size_t remaining = 0;          //!< program tasks outstanding
    double seconds = 0.0;               //!< summed task wall clock
    std::map<std::string, std::vector<FetchStats>> stats;
};

} // namespace

SweepResult
runSweepJobs(const std::vector<SweepJob> &jobs, TraceCache &traces,
             const std::vector<std::string> &benchmarks,
             const SweepOptions &opts)
{
    SweepResult result;
    result.benchmarks = benchmarks;

    // Private pool unless the caller multiplexes us onto a shared
    // one; either way every task goes through the TaskGroup, so this
    // sweep waits on (and sees the errors of) its own tasks only.
    std::unique_ptr<ThreadPool> own_pool;
    if (!opts.pool)
        own_pool = std::make_unique<ThreadPool>(opts.threads);
    ThreadPool &pool = opts.pool ? *opts.pool : *own_pool;
    TaskGroup group(pool, opts.groupWeight);
    result.threads = pool.numWorkers();

    // The sweep's accounting domain: every task installs it before
    // touching an instrument, so a service running concurrent sweeps
    // on one pool keeps each job's counters/spans/attribution apart
    // (null = inherit, i.e. the process default for the CLIs). Tasks
    // run on pool worker threads, which is why each task re-installs
    // rather than relying on this stack frame's scope.
    obs::Domain *domain =
        opts.domain ? opts.domain : &obs::currentDomain();
    obs::ScopedDomain sweep_scope(domain);

    obs::ScopedTimer sweep_span("sweep.run", "sweep run");

    Clock::time_point sweep_start = Clock::now();

    // Results land in their job's slot, so aggregation order is the
    // deterministic job order no matter which worker finishes first.
    result.jobs.resize(jobs.size());

    std::mutex progress_mutex;
    std::size_t completed = 0;

    // Serialized job-completion bookkeeping (call under the mutex).
    auto finishJob = [&](std::size_t i, double seconds) {
        obs::HistogramData job_ns;
        job_ns.record(static_cast<uint64_t>(seconds * 1e9));
        obs::flushHistogram("sweep.job_ns", job_ns);
        if (opts.progress) {
            ++completed;
            SweepProgress p;
            p.completed = completed;
            p.total = jobs.size();
            p.job = &result.jobs[i].job;
            p.jobSeconds = seconds;
            opts.progress(p);
        }
    };

    auto submitPerConfig = [&](std::size_t i) {
        group.submit([&, i] {
            opts.cancel.throwIfCancelled("sweep cancelled");
            obs::ScopedDomain task_scope(domain);
            obs::ScopedTimer job_span(
                "sweep.job", "job " + std::to_string(i));
            Clock::time_point job_start = Clock::now();
            SweepJobResult &slot = result.jobs[i];
            slot.job = jobs[i];
            slot.result = runSuite(jobs[i].config, traces, benchmarks,
                                   /*shared_decode=*/true, &opts.cancel);
            slot.seconds = secondsSince(job_start);
            std::lock_guard<std::mutex> lock(progress_mutex);
            finishJob(i, slot.seconds);
        });
    };

    if (!opts.batchedReplay) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            submitPerConfig(i);
        group.wait();
        result.wallSeconds = secondsSince(sweep_start);
        return result;
    }

    // ===== Batched schedule =====
    // Group jobs by BatchKey, tile each group under the cache
    // budget, and replay every trace once per tile. A key shared by
    // no other job gains nothing from lockstep; those jobs keep the
    // per-config path (the "incompatible grid" fallback).
    const std::vector<std::string> run_names =
        benchmarks.empty() ? specAllNames() : benchmarks;

    std::map<BatchKey, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        groups[BatchKey::of(jobs[i].config)].push_back(i);

    std::vector<BatchedTile> planned;
    for (auto &[key, idxs] : groups) {
        if (idxs.size() < 2) {
            for (std::size_t i : idxs)
                submitPerConfig(i);
            continue;
        }
        std::vector<SimConfig> cfgs;
        cfgs.reserve(idxs.size());
        for (std::size_t i : idxs)
            cfgs.push_back(jobs[i].config);
        for (auto [first, count] :
             planBatchTiles(cfgs, opts.batchTile)) {
            BatchedTile t;
            for (std::size_t k = 0; k < count; ++k) {
                t.jobIdx.push_back(idxs[first + k]);
                t.configs.push_back(cfgs[first + k]);
            }
            planned.push_back(std::move(t));
        }
    }

    // A grid that collapses into few tiles (one BatchKey, small
    // program list) yields fewer tasks than workers, so a multi-
    // thread sweep degenerates toward single-thread wall clock.
    // Halve the widest tile until the task count covers the pool;
    // narrower tiles replay the trace more often, so split no
    // further than occupancy demands.
    const std::size_t per_tile_tasks = run_names.size();
    while (planned.size() * per_tile_tasks < pool.numWorkers()) {
        std::size_t widest = planned.size();
        std::size_t width = 1;
        for (std::size_t k = 0; k < planned.size(); ++k) {
            if (planned[k].jobIdx.size() > width) {
                width = planned[k].jobIdx.size();
                widest = k;
            }
        }
        if (widest == planned.size())
            break;      // nothing left to split
        BatchedTile &src = planned[widest];
        const std::size_t half = src.jobIdx.size() / 2;
        BatchedTile rest;
        rest.jobIdx.assign(src.jobIdx.begin() +
                               static_cast<std::ptrdiff_t>(half),
                           src.jobIdx.end());
        rest.configs.assign(src.configs.begin() +
                                static_cast<std::ptrdiff_t>(half),
                            src.configs.end());
        src.jobIdx.resize(half);
        src.configs.resize(half);
        planned.push_back(std::move(rest));
    }

    // Largest-first: the widest tile bounds the schedule's tail, so
    // it must never be the last task to start.
    std::stable_sort(planned.begin(), planned.end(),
                     [](const BatchedTile &a, const BatchedTile &b) {
        return a.jobIdx.size() > b.jobIdx.size();
    });

    std::deque<BatchedTile> tiles;      //!< stable addresses
    for (BatchedTile &t : planned) {
        t.remaining = per_tile_tasks;
        for (const std::string &name : run_names)
            t.stats[name].resize(t.jobIdx.size());
        tiles.push_back(std::move(t));
    }

    for (BatchedTile &tile : tiles) {
        for (const std::string &name : run_names) {
            group.submit([&, name] {
                opts.cancel.throwIfCancelled("sweep cancelled");
                obs::ScopedDomain task_scope(domain);
                obs::ScopedTimer job_span("sweep.job",
                                          "tile " + name);
                Clock::time_point t0 = Clock::now();
                const ICacheConfig &geom =
                    tile.configs[0].engine.icache;
                std::vector<FetchStats> lane_stats =
                    batchReplay(tile.configs,
                                *traces.decoded(name, geom),
                                opts.batchTile);
                double secs = secondsSince(t0);

                std::lock_guard<std::mutex> lock(progress_mutex);
                tile.stats[name] = std::move(lane_stats);
                tile.seconds += secs;
                if (--tile.remaining != 0)
                    return;
                // Last program of the tile: assemble every lane's
                // SuiteResult (we own the tile now) and complete its
                // jobs in deterministic lane order.
                double per_job = tile.seconds /
                    static_cast<double>(tile.jobIdx.size());
                for (std::size_t l = 0; l < tile.jobIdx.size();
                     ++l) {
                    std::size_t i = tile.jobIdx[l];
                    SweepJobResult &slot = result.jobs[i];
                    slot.job = jobs[i];
                    for (const std::string &nm : run_names)
                        accumulateProgram(slot.result, nm,
                                          tile.stats[nm][l]);
                    slot.seconds = per_job;
                    finishJob(i, per_job);
                }
            });
        }
    }
    group.wait();

    result.wallSeconds = secondsSince(sweep_start);
    return result;
}

SweepResult
runSweep(const SweepSpec &spec, TraceCache &traces,
         const SweepOptions &opts)
{
    SweepResult result =
        runSweepJobs(spec.expand(), traces, spec.benchmarks(), opts);
    result.name = spec.name();
    return result;
}

} // namespace mbbp
