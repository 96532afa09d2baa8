/**
 * @file
 * Extension experiments relaxing two simplifying assumptions the
 * paper states explicitly:
 *
 *  1. "A perfect instruction cache was assumed" -- sweep a finite
 *     i-cache and quantify how much fetch rate the front end loses,
 *     and how the Section 4.2 argument (a separate BIT table's
 *     one-cycle miss is much cheaper than an i-cache miss) plays out.
 *  2. The BBR's optional PHT-block field -- without it, counters are
 *     updated read/modify/write at resolution (Section 3.3); measure
 *     the accuracy cost of those four-cycle-stale counters.
 */

#include <iostream>

#include "bench_util.hh"

using namespace mbbp;
using namespace mbbp::bench;

int
main()
{
    // One config list for both experiments: the perfect-cache base
    // (which is also the immediate-update row of experiment 2), the
    // finite i-cache sweep, then delayed PHT update.
    SimConfig base;
    base.numBlocks = 2;
    std::vector<SimConfig> cfgs = { base };
    const std::vector<std::size_t> line_counts = { 128u, 256u, 512u,
                                                   1024u, 4096u };
    for (std::size_t lines : line_counts) {
        SimConfig cfg = base;
        cfg.engine.icacheLines = lines;
        cfg.engine.icacheAssoc = 2;
        cfg.engine.icacheMissPenalty = 10;
        cfgs.push_back(cfg);
    }
    SimConfig delayed_cfg = base;
    delayed_cfg.engine.delayedPhtUpdate = true;
    cfgs.push_back(delayed_cfg);
    const std::vector<SuiteResult> results = runConfigs(cfgs);

    // --- 1. Finite i-cache sweep ---------------------------------
    TextTable icache("Extension: finite i-cache (dual block, int)");
    icache.setHeader({ "lines (KB @32B)", "miss rate%", "IPC_f",
                       "vs perfect%" });
    const FetchStats &perfect = results[0].intTotal;
    for (std::size_t i = 0; i < line_counts.size(); ++i) {
        const std::size_t lines = line_counts[i];
        const FetchStats &total = results[1 + i].intTotal;
        double miss_rate =
            100.0 * static_cast<double>(total.icacheMisses) /
            static_cast<double>(total.icacheAccesses);
        icache.addRow({
            std::to_string(lines) + " (" +
                std::to_string(lines * 32 / 1024) + "KB)",
            TextTable::fmt(miss_rate, 2),
            TextTable::fmt(total.ipcF(), 2),
            TextTable::fmt(100.0 * total.ipcF() / perfect.ipcF(), 1),
        });
    }
    icache.addRow({ "perfect (paper)", "0.00",
                    TextTable::fmt(perfect.ipcF(), 2), "100.0" });
    std::cout << out(icache) << "\n";

    // --- 2. Delayed PHT update -----------------------------------
    TextTable delayed("Extension: PHT update timing");
    delayed.setHeader({ "mode", "class", "IPC_f",
                        "direction errors" });
    for (bool delay : { false, true }) {
        const SuiteResult &r = delay ? results.back() : results[0];
        for (bool is_fp : { false, true }) {
            const FetchStats &total = is_fp ? r.fpTotal : r.intTotal;
            delayed.addRow({ delay ? "at resolution (no PHT-block)"
                                   : "immediate (BBR PHT-block)",
                             is_fp ? "FP" : "Int",
                             TextTable::fmt(total.ipcF(), 2),
                             TextTable::fmt(
                                 total.condDirectionWrong) });
        }
    }
    std::cout << out(delayed)
              << "\n(the optional 2n-bit PHT-block field in each BBR "
                 "entry buys back the\n staleness -- Table 4's "
                 "trade-off)\n";
    return 0;
}
