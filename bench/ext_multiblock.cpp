/**
 * @file
 * Extension experiment (Section 5's closing discussion): predicting
 * one to four blocks per cycle. Reports IPC_f for SPECint and SPECfp
 * and the proportional hardware cost -- "another block prediction
 * basically requires another select table and target array".
 */

#include <iostream>

#include "bench_util.hh"

using namespace mbbp;
using namespace mbbp::bench;

int
main()
{
    std::vector<SimConfig> cfgs;
    for (unsigned blocks : { 1u, 2u, 3u, 4u }) {
        SimConfig cfg;
        cfg.numBlocks = blocks;
        cfg.engine.icache = ICacheConfig::selfAligned(8);
        cfg.engine.numSelectTables = 8;
        cfgs.push_back(cfg);
    }
    const std::vector<SuiteResult> results = runConfigs(cfgs);

    TextTable table("Extension: 1..4 blocks per cycle "
                    "(self-aligned, 8 STs, h=10)");
    table.setHeader({ "blocks", "Int IPC_f", "FP IPC_f", "Int BEP",
                      "FP BEP", "cost Kbits" });
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const unsigned blocks = cfgs[i].numBlocks;
        const FetchStats &int_total = results[i].intTotal;
        const FetchStats &fp_total = results[i].fpTotal;

        // Cost: PHT + BIT shared; one ST and one extra target array
        // per additional predicted block.
        CostParams p;
        p.numSelectTables = 8;
        CostModel m(p);
        uint64_t cost = m.phtBits() + m.bitBits() + m.bbrBits() +
                        blocks * m.nlsBits(false) +
                        (blocks > 1 ? (blocks - 1) * m.stBits(false)
                                    : 0);

        table.addRow({ std::to_string(blocks),
                       TextTable::fmt(int_total.ipcF(), 2),
                       TextTable::fmt(fp_total.ipcF(), 2),
                       TextTable::fmt(int_total.bep(), 3),
                       TextTable::fmt(fp_total.bep(), 3),
                       TextTable::fmt(CostModel::kbits(cost), 1) });
    }
    std::cout << out(table)
              << "\n(cost grows linearly in the block count -- the "
                 "scalability argument\n of Section 5; contrast with "
                 "the BAC's exponential growth)\n";
    return 0;
}
