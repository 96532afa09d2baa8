/**
 * @file
 * Shared plumbing for the experiment harnesses: a cached suite at a
 * configurable trace length (MBBP_BENCH_INSTS, default 300000 -- the
 * paper used 1e9 per program; raise it for tighter statistics), the
 * worker count (MBBP_BENCH_THREADS), and runConfigs(), the
 * program-major executor the fetch-engine harnesses share.
 */

#ifndef MBBP_BENCH_BENCH_UTIL_HH
#define MBBP_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <string>
#include <vector>

#include "core/mbbp.hh"

namespace mbbp::bench
{

/** Trace length per program, from MBBP_BENCH_INSTS. */
inline std::size_t
benchInstructions()
{
    if (const char *env = std::getenv("MBBP_BENCH_INSTS"))
        return static_cast<std::size_t>(std::strtoull(env, nullptr,
                                                      10));
    return 300000;
}

/** Process-wide trace cache at the bench length. */
inline TraceCache &
benchTraces()
{
    static TraceCache cache(benchInstructions());
    return cache;
}

/** Worker threads for every harness's thread pool, from
 *  MBBP_BENCH_THREADS (0 / unset = all hardware threads). Output is
 *  byte-identical at any count. */
inline unsigned
benchThreads()
{
    if (const char *env = std::getenv("MBBP_BENCH_THREADS"))
        return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    return 0;
}

/**
 * Run every config of @p cfgs over @p names (the whole suite when
 * empty) and return one SuiteResult per config, in input order.
 *
 * Program-major: one pool task per program on benchThreads()
 * workers. Each task owns a TraceCache, generates its program once
 * and runs runSuite() for every config over it, so each (program,
 * geometry) is decoded once and the task's trace and artifacts are
 * freed when it ends. Per-program stats are folded in program order,
 * so the results do not depend on the thread count.
 */
inline std::vector<SuiteResult>
runConfigs(const std::vector<SimConfig> &cfgs,
           const std::vector<std::string> &names = {})
{
    const std::vector<std::string> &run_names =
        names.empty() ? specAllNames() : names;
    ThreadPool pool(benchThreads());
    const auto per_program = parallelMap(
        pool, run_names, [&](const std::string &name, std::size_t) {
            TraceCache local(benchInstructions());
            local.get(name);
            std::vector<FetchStats> stats;
            stats.reserve(cfgs.size());
            for (const SimConfig &cfg : cfgs)
                stats.push_back(runSuite(cfg, local, { name })
                                    .perProgram.at(name));
            return stats;
        });

    std::vector<SuiteResult> results(cfgs.size());
    for (std::size_t p = 0; p < run_names.size(); ++p) {
        const bool is_fp = specProfile(run_names[p]).isFloat;
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const FetchStats &s = per_program[p][c];
            SuiteResult &r = results[c];
            r.perProgram[run_names[p]] = s;
            r.allTotal.accumulate(s);
            (is_fp ? r.fpTotal : r.intTotal).accumulate(s);
        }
    }
    return results;
}

/** Percent with one decimal, e.g. "91.5". */
inline std::string
pct(double frac, int precision = 1)
{
    return TextTable::fmt(100.0 * frac, precision);
}

/**
 * Render a result table honoring MBBP_BENCH_CSV=1 (machine-readable
 * output for plotting/regression tooling).
 */
inline std::string
out(const TextTable &table)
{
    if (const char *env = std::getenv("MBBP_BENCH_CSV"))
        if (env[0] == '1')
            return table.renderCsv();
    return table.render();
}

} // namespace mbbp::bench

#endif // MBBP_BENCH_BENCH_UTIL_HH
