/**
 * @file
 * Ablations against the related work the paper positions itself
 * against (Sections 1-2):
 *
 *  1. Yeh's branch-address-cache multi-branch predictor: equal
 *     two-level accuracy but 2^k - 1 PHT reads per cycle and
 *     exponential BAC fan-out, versus the blocked PHT's single read.
 *  2. Seznec's two-block-ahead predictor: second-block address
 *     accuracy with a serialized dependency, versus the select
 *     table's parallel selection.
 *  3. Per-block vs per-branch history update (the blocked GHR
 *     discipline's accuracy cost -- Figure 6's underlying question).
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"

using namespace mbbp;
using namespace mbbp::bench;

namespace
{

/** Programs of the two-block-ahead comparison, in row order. */
const std::vector<std::string> tbaPrograms = { "gcc", "go", "li",
                                               "swim", "mgrid" };

/** Everything the three ablations measure on one program. */
struct ProgramRuns
{
    AccuracyResult blocked;     //!< blocked PHT, h=10
    AccuracyResult scalar;      //!< scalar two-level, h=10, 8 PHTs
    BacStats bac;               //!< Yeh BAC (int programs)
    TwoBlockAheadStats tba;     //!< Seznec (tbaPrograms)
    FetchStats twoAhead;        //!< TwoAheadEngine (tbaPrograms)
    FetchStats select;          //!< DualBlockEngine (tbaPrograms)
};

ProgramRuns
runProgram(const std::string &name)
{
    const InMemoryTrace &t = benchTraces().get(name);
    ProgramRuns r;
    r.blocked = blockedPhtAccuracy(t, 10, ICacheConfig::normal(8));
    r.scalar = scalarAccuracy(t, 10, 8);
    if (!specProfile(name).isFloat)
        r.bac = BranchAddressCache({ 10, 1024, 2, 8 }).simulate(t);
    if (std::find(tbaPrograms.begin(), tbaPrograms.end(), name) !=
        tbaPrograms.end()) {
        r.tba = TwoBlockAhead({ 10, 1024, 8 }).simulate(t);
        r.twoAhead = TwoAheadEngine(FetchEngineConfig{}).run(t);
        r.select = DualBlockEngine(FetchEngineConfig{}).run(t);
    }
    return r;
}

} // namespace

int
main()
{
    // One pool task per program; every table folds in program order.
    const std::vector<std::string> names = specAllNames();
    ThreadPool pool(benchThreads());
    const std::vector<ProgramRuns> runs = parallelMap(
        pool, names,
        [](const std::string &name, std::size_t) {
            return runProgram(name);
        });

    // --- 1. Yeh BAC vs blocked PHT -------------------------------
    TextTable bac_table("Ablation 1: Yeh BAC vs blocked PHT (int)");
    bac_table.setHeader({ "scheme", "cond acc%", "PHT reads/cycle",
                          "extra storage Kbits" });

    AccuracyResult blocked_total;
    BacStats bac_total;
    for (std::size_t p = 0; p < names.size(); ++p) {
        if (specProfile(names[p]).isFloat)
            continue;
        blocked_total.accumulate(runs[p].blocked);
        const BacStats &s = runs[p].bac;
        bac_total.basicBlocks += s.basicBlocks;
        bac_total.condBranches += s.condBranches;
        bac_total.condMispredicts += s.condMispredicts;
        bac_total.bacMisses += s.bacMisses;
        bac_total.addrMispredicts += s.addrMispredicts;
        bac_total.phtLookups += s.phtLookups;
        bac_total.cycles += s.cycles;
    }
    BranchAddressCache cost_model({ 10, 1024, 2, 8 });
    bac_table.addRow({ "blocked PHT (this paper)",
                       pct(blocked_total.accuracy(), 2), "1", "0" });
    bac_table.addRow({ "Yeh BAC (k=2)",
                       pct(bac_total.condAccuracy(), 2),
                       TextTable::fmt(bac_total.phtLookupsPerCycle(),
                                      0),
                       TextTable::fmt(
                           static_cast<double>(
                               cost_model.storageBits(30)) / 1024.0,
                           1) });
    std::cout << out(bac_table) << "\n";

    // --- 2. Seznec two-block-ahead vs the select table ------------
    TextTable tba_table("Ablation 2: two-block-ahead (Seznec)");
    tba_table.setHeader({ "program", "2nd-block addr acc%",
                          "2-ahead IPC_f", "select-table IPC_f" });
    for (const std::string &name : tbaPrograms) {
        const ProgramRuns &r =
            runs[std::find(names.begin(), names.end(), name) -
                 names.begin()];
        tba_table.addRow({ name, pct(r.tba.secondAccuracy(), 1),
                           TextTable::fmt(r.twoAhead.ipcF(), 2),
                           TextTable::fmt(r.select.ipcF(), 2) });
    }
    std::cout << out(tba_table)
              << "(TwoAheadEngine is a simplified address-table "
                 "variant of Seznec's\n design -- the full proposal "
                 "folds in two-level direction prediction,\n so "
                 "treat its int-side gap as an upper bound. The "
                 "select table's\n structural advantage is the "
                 "*parallel* tag match: Seznec's second\n prediction "
                 "is serialized behind the first, a cycle-time "
                 "liability\n no cycle count shows.)\n\n";

    // --- 3. Per-block vs per-branch history update ----------------
    TextTable ghr_table(
        "Ablation 3: per-block vs per-branch history update");
    ghr_table.setHeader({ "class", "blocked (per-block GHR)%",
                          "scalar (per-branch GHR)%" });
    for (bool is_fp : { false, true }) {
        AccuracyResult blocked, scalar;
        for (std::size_t p = 0; p < names.size(); ++p) {
            if (specProfile(names[p]).isFloat != is_fp)
                continue;
            blocked.accumulate(runs[p].blocked);
            scalar.accumulate(runs[p].scalar);
        }
        ghr_table.addRow({ is_fp ? "FP" : "Int",
                           pct(blocked.accuracy(), 2),
                           pct(scalar.accuracy(), 2) });
    }
    std::cout << out(ghr_table);
    return 0;
}
