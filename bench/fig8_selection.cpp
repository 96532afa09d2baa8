/**
 * @file
 * Figure 8: dual-block fetching with single vs double selection,
 * sweeping branch history length 9..12 and 1/2/4/8 select tables.
 *
 * Paper result: more STs and longer history both help; double
 * selection costs roughly 10% IPC_f, closing the gap with more STs.
 */

#include <iostream>

#include "bench_util.hh"

using namespace mbbp;
using namespace mbbp::bench;

int
main()
{
    // The grid, row-major: history, #STs, then single/double
    // selection side by side.
    std::vector<SimConfig> cfgs;
    std::size_t summary = 0;    // h=10, 8 STs, single selection
    for (unsigned h = 9; h <= 12; ++h) {
        for (unsigned sts : { 1u, 2u, 4u, 8u }) {
            if (h == 10 && sts == 8)
                summary = cfgs.size();
            for (bool dbl : { false, true }) {
                SimConfig cfg;
                cfg.numBlocks = 2;
                cfg.engine.historyBits = h;
                cfg.engine.numSelectTables = sts;
                cfg.engine.doubleSelect = dbl;
                cfgs.push_back(cfg);
            }
        }
    }
    const std::vector<SuiteResult> results = runConfigs(cfgs);

    TextTable table("Figure 8: single vs double selection (IPC_f)");
    table.setHeader({ "history", "#STs", "Int/single", "Int/double",
                      "FP/single", "FP/double" });
    for (std::size_t i = 0; i < cfgs.size(); i += 2) {
        const SuiteResult &single = results[i];
        const SuiteResult &dbl = results[i + 1];
        table.addRow({ std::to_string(cfgs[i].engine.historyBits),
                       std::to_string(cfgs[i].engine.numSelectTables),
                       TextTable::fmt(single.intTotal.ipcF(), 2),
                       TextTable::fmt(dbl.intTotal.ipcF(), 2),
                       TextTable::fmt(single.fpTotal.ipcF(), 2),
                       TextTable::fmt(dbl.fpTotal.ipcF(), 2) });
    }
    std::cout << out(table) << "\n";

    // The paper's summary comparison at h=10, 8 STs.
    const FetchStats &int_single = results[summary].intTotal;
    const FetchStats &int_double = results[summary + 1].intTotal;
    std::cout << "Int h=10/8ST: double selection costs "
              << pct(1.0 - int_double.ipcF() / int_single.ipcF(), 1)
              << "% IPC_f (paper: roughly 10%)\n";
    return 0;
}
