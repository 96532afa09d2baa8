/**
 * @file
 * Figure 7: impact of a finite BIT table, single-block fetching.
 * Sweeps 64..4096 BIT block entries and reports the share of BEP
 * caused by stale BIT information plus the effective fetch rate.
 *
 * Paper result: small BIT tables hurt badly; only around 2048 entries
 * does the BIT share of BEP drop below 5%.
 */

#include <iostream>

#include "bench_util.hh"

using namespace mbbp;
using namespace mbbp::bench;

int
main()
{
    // One config per BIT size, then the perfect-BIT reference.
    const std::vector<std::size_t> sizes = { 64,   128,  256, 512,
                                             1024, 2048, 4096 };
    std::vector<SimConfig> cfgs;
    for (std::size_t entries : sizes) {
        SimConfig cfg;
        cfg.numBlocks = 1;
        cfg.engine.bitEntries = entries;
        cfgs.push_back(cfg);
    }
    SimConfig reference;
    reference.numBlocks = 1;    // perfect BIT: bitEntries = 0
    cfgs.push_back(reference);
    const std::vector<SuiteResult> results = runConfigs(cfgs);

    TextTable table("Figure 7: BIT table size (single block)");
    table.setHeader({ "BIT entries", "class", "BEP", "%BEP from BIT",
                      "IPC_f" });
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        for (bool is_fp : { false, true }) {
            const FetchStats &total =
                is_fp ? results[i].fpTotal : results[i].intTotal;
            double bit_share =
                total.bep() > 0.0
                    ? total.bepOf(PenaltyKind::BitMispredict) /
                          total.bep()
                    : 0.0;
            table.addRow({ std::to_string(sizes[i]),
                           is_fp ? "FP" : "Int",
                           TextTable::fmt(total.bep(), 3),
                           pct(bit_share, 1),
                           TextTable::fmt(total.ipcF(), 2) });
        }
    }
    std::cout << out(table) << "\n"
              << "Reference (BIT in i-cache, no aliasing):\n";

    for (bool is_fp : { false, true }) {
        const FetchStats &total =
            is_fp ? results.back().fpTotal : results.back().intTotal;
        std::cout << "  " << (is_fp ? "FP " : "Int") << " IPC_f "
                  << TextTable::fmt(total.ipcF(), 2) << "  BEP "
                  << TextTable::fmt(total.bep(), 3) << "\n";
    }
    return 0;
}
