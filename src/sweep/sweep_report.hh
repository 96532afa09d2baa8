/**
 * @file
 * Sweep result export, keyed by the swept config fields, in the two
 * shapes plotting tooling wants:
 *
 *  - JSON: one object per job with its params, per-class aggregates
 *    and (optionally) per-program metrics -- the paper's figures are
 *    direct selections over this;
 *  - CSV: one row per (job, scope) where scope is int/fp/all plus
 *    each program, with one column per swept field.
 *
 * Both emitters visit jobs in deterministic job order and, by
 * default, exclude timing data, so the bytes a sweep produces are
 * identical regardless of thread count -- the property the
 * determinism tests assert.
 */

#ifndef MBBP_SWEEP_SWEEP_REPORT_HH
#define MBBP_SWEEP_SWEEP_REPORT_HH

#include <string>

#include "sweep/sweep_runner.hh"

namespace mbbp
{

/** Emitter knobs. */
struct SweepReportOptions
{
    bool perProgram = true;     //!< include per-program rows/objects
    bool timings = false;       //!< include per-job + wall seconds

    /**
     * Append the obs registry snapshot (counters/gauges/timers/
     * histograms) as a "metrics" object (JSON only). Off by default:
     * values vary with thread count and host speed, and the
     * byte-stability guarantee covers the default document.
     */
    bool metrics = false;

    /**
     * Append the top-N misprediction offenders from the attribution
     * table as an "attribution" array (JSON only). 0 (the default)
     * omits the block entirely, keeping the document byte-identical
     * to pre-attribution reports. Rows are totally ordered (cycles
     * desc, events desc, address asc, slot asc), so the output is
     * thread-count-invariant.
     */
    unsigned attributionTopN = 0;
};

/** The whole sweep as a JSON document. */
std::string sweepToJson(const SweepResult &result,
                        const SweepReportOptions &opts = {});

/** The whole sweep as CSV (header + data rows). */
std::string sweepToCsv(const SweepResult &result,
                       const SweepReportOptions &opts = {});

/**
 * The attribution table's top @p top_n offenders (0 = all) as a
 * standalone CSV document: one row per (block, exit slot) with the
 * per-cause event split and the dominant cause. Deterministic order,
 * same as the JSON block.
 */
std::string attributionToCsv(unsigned top_n);

/**
 * Write @p content to @p path (or stdout when path is "-").
 * Throws std::runtime_error if the file cannot be written.
 */
void writeTextFile(const std::string &path,
                   const std::string &content);

} // namespace mbbp

#endif // MBBP_SWEEP_SWEEP_REPORT_HH
