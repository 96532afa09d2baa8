/**
 * @file
 * Table 6: normal / extended / self-aligned instruction caches, one
 * and two blocks per cycle, 8 select tables, history length 10.
 * Reports instructions per block (IPB) and IPC_f for SPECint and
 * SPECfp.
 *
 * Paper results (IPB, 1blk, 2blk):
 *   int: normal 5.01/3.96/5.66, extend 5.30/4.12/5.87,
 *        align 5.99/4.53/6.42
 *   fp:  normal 5.81/5.48/9.43, extend 6.03/5.65/9.80,
 *        align 6.76/6.33/10.88
 * Dual block is ~40% (int) and ~70% (fp) over single block.
 */

#include <iostream>

#include "bench_util.hh"

using namespace mbbp;
using namespace mbbp::bench;

int
main()
{
    // Per cache type, one and two blocks per cycle.
    const std::vector<ICacheConfig> caches = {
        ICacheConfig::normal(8), ICacheConfig::extended(8),
        ICacheConfig::selfAligned(8)
    };
    std::vector<SimConfig> cfgs;
    for (const ICacheConfig &icache : caches) {
        for (unsigned blocks : { 1u, 2u }) {
            SimConfig cfg;
            cfg.numBlocks = blocks;
            cfg.engine.icache = icache;
            cfg.engine.numSelectTables = 8;
            cfgs.push_back(cfg);
        }
    }
    const std::vector<SuiteResult> results = runConfigs(cfgs);

    TextTable table("Table 6: cache types (8 STs, h=10)");
    table.setHeader({ "cache", "line", "banks", "Int IPB",
                      "Int IPCf 1blk", "Int IPCf 2blk", "FP IPB",
                      "FP IPCf 1blk", "FP IPCf 2blk" });
    for (std::size_t c = 0; c < caches.size(); ++c) {
        std::vector<std::string> row = {
            cacheTypeName(caches[c].type),
            std::to_string(caches[c].lineSize),
            std::to_string(caches[c].numBanks),
        };
        for (bool is_fp : { false, true }) {
            const FetchStats &one = is_fp ? results[2 * c].fpTotal
                                          : results[2 * c].intTotal;
            const FetchStats &two = is_fp
                                        ? results[2 * c + 1].fpTotal
                                        : results[2 * c + 1].intTotal;
            // IPB from the two-block run.
            row.push_back(TextTable::fmt(two.ipb(), 2));
            row.push_back(TextTable::fmt(one.ipcF(), 2));
            row.push_back(TextTable::fmt(two.ipcF(), 2));
        }
        table.addRow(row);
    }

    // Self-aligned is the last cache type.
    auto gain = [&](bool is_fp) {
        const SuiteResult &one = results[results.size() - 2];
        const SuiteResult &two = results.back();
        return is_fp ? two.fpTotal.ipcF() / one.fpTotal.ipcF() - 1.0
                     : two.intTotal.ipcF() / one.intTotal.ipcF() - 1.0;
    };
    std::cout << out(table) << "\n"
              << "Self-aligned dual/single gain: Int "
              << pct(gain(false), 0) << "% (paper ~40%), FP "
              << pct(gain(true), 0) << "% (paper ~70%)\n";
    return 0;
}
