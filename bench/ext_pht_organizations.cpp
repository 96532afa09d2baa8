/**
 * @file
 * Extension experiment: blocked PHT organizations. Section 2 notes
 * that "all of Yeh's original variations may be expanded in this
 * manner, except his per-addr variation now becomes a per-block
 * variation" -- i.e. several blocked PHTs selected by block-address
 * bits. Sweeps 1..8 blocked PHTs at fixed total storage and at fixed
 * per-table size, plus the gshare-vs-concatenation indexing choice
 * for the scalar baseline.
 *
 * Program-major: one pool task per program generates its trace,
 * decodes it once and runs every blocked-PHT variant over the
 * decoded blocks, plus the scalar baselines over the trace. The
 * rows' SweepSpecs only name the variants; per-class totals are
 * folded in program order, so the tables are identical at any
 * thread count.
 */

#include <iostream>
#include <utility>
#include <vector>

#include "bench_util.hh"

using namespace mbbp;
using namespace mbbp::bench;

namespace
{

/** Scalar baseline index schemes (not SimConfig-expressible). */
struct ScalarVariant
{
    const char *label;
    unsigned num_phts;
    bool gshare;
};

/** One program's accuracies: blocked variants, then scalar ones. */
struct ProgramAccuracy
{
    std::vector<AccuracyResult> blocked;
    std::vector<AccuracyResult> scalar;
};

/** Int and fp totals of @p pick over the programs, in program order. */
template <typename Pick>
std::pair<AccuracyResult, AccuracyResult>
classTotals(const std::vector<std::string> &names,
            const std::vector<ProgramAccuracy> &per_program,
            Pick pick)
{
    AccuracyResult int_total, fp_total;
    for (std::size_t p = 0; p < names.size(); ++p)
        (specProfile(names[p]).isFloat ? fp_total : int_total)
            .accumulate(pick(per_program[p]));
    return { int_total, fp_total };
}

} // namespace

int
main()
{
    // p tables of 2^h entries: p * 2^h * 16 bits = 16 Kbits total,
    // so h shrinks by log2(p) -- derived pairs, hence explicit
    // points rather than a grid.
    SweepSpec fixed_total_spec;
    fixed_total_spec.setName("pht-fixed-total");
    for (unsigned p : { 1u, 2u, 4u, 8u }) {
        unsigned h = 10;
        for (unsigned q = p; q > 1; q >>= 1)
            --h;
        fixed_total_spec.addPoint(
            { { "numPhts", std::to_string(p) },
              { "historyBits", std::to_string(h) } });
    }
    // Fixed per-table size: a plain one-axis grid at h=10.
    SweepSpec fixed_table_spec;
    fixed_table_spec.setName("pht-fixed-table");
    fixed_table_spec.setBase("historyBits", "10");
    fixed_table_spec.addAxis("numPhts", { "1", "2", "4", "8" });

    const std::vector<SweepJob> fixed_total_jobs =
        fixed_total_spec.expand();
    const std::vector<SweepJob> fixed_table_jobs =
        fixed_table_spec.expand();
    std::vector<SweepJob> blocked_jobs = fixed_total_jobs;
    blocked_jobs.insert(blocked_jobs.end(), fixed_table_jobs.begin(),
                        fixed_table_jobs.end());

    const std::vector<ScalarVariant> variants = {
        { "per-addr (8 PHTs)", 8, false },
        { "single shared (1 PHT)", 1, false },
        { "gshare (1 PHT, xor)", 1, true },
    };

    const std::vector<std::string> names = specAllNames();
    ThreadPool pool(benchThreads());
    const std::vector<ProgramAccuracy> per_program = parallelMap(
        pool, names, [&](const std::string &name, std::size_t) {
            TraceCache local(benchInstructions());
            const InMemoryTrace &t = local.get(name);
            ProgramAccuracy acc;
            const DecodedTrace dec =
                DecodedTrace::build(t, ICacheConfig::normal(8));
            for (const SweepJob &job : blocked_jobs)
                acc.blocked.push_back(blockedPhtAccuracy(
                    dec, job.config.engine.historyBits,
                    job.config.engine.numPhts));
            for (const ScalarVariant &v : variants)
                acc.scalar.push_back(
                    scalarAccuracy(t, 10, v.num_phts, v.gshare));
            return acc;
        });
    auto blocked_totals = [&](std::size_t i) {
        return classTotals(names, per_program,
                           [&](const ProgramAccuracy &a) {
                               return a.blocked[i];
                           });
    };

    TextTable fixed_total(
        "Per-block PHT variation at fixed total storage (16 Kbits)");
    fixed_total.setHeader({ "#PHTs", "history", "Int acc%",
                            "FP acc%" });
    for (std::size_t i = 0; i < fixed_total_jobs.size(); ++i) {
        const SimConfig &cfg = fixed_total_jobs[i].config;
        const auto [int_acc, fp_acc] = blocked_totals(i);
        fixed_total.addRow({ std::to_string(cfg.engine.numPhts),
                             std::to_string(cfg.engine.historyBits),
                             pct(int_acc.accuracy(), 2),
                             pct(fp_acc.accuracy(), 2) });
    }
    std::cout << out(fixed_total) << "\n";

    TextTable fixed_table(
        "Per-block PHT variation at fixed per-table size (h=10)");
    fixed_table.setHeader({ "#PHTs", "storage Kbits", "Int acc%",
                            "FP acc%" });
    for (std::size_t i = 0; i < fixed_table_jobs.size(); ++i) {
        unsigned p = fixed_table_jobs[i].config.engine.numPhts;
        BlockedPHT probe({ 10, 8, 2, p });
        const auto [int_acc, fp_acc] =
            blocked_totals(fixed_total_jobs.size() + i);
        fixed_table.addRow({
            std::to_string(p),
            TextTable::fmt(
                static_cast<double>(probe.storageBits()) / 1024.0, 0),
            pct(int_acc.accuracy(), 2),
            pct(fp_acc.accuracy(), 2),
        });
    }
    std::cout << out(fixed_table) << "\n";

    TextTable scalar_idx("Scalar baseline index schemes (h=10)");
    scalar_idx.setHeader({ "scheme", "Int acc%", "FP acc%" });
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const auto [int_acc, fp_acc] = classTotals(
            names, per_program,
            [&](const ProgramAccuracy &a) { return a.scalar[i]; });
        scalar_idx.addRow({ variants[i].label,
                            pct(int_acc.accuracy(), 2),
                            pct(fp_acc.accuracy(), 2) });
    }
    std::cout << out(scalar_idx);
    return 0;
}
