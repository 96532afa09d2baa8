/**
 * @file
 * Table 5: target-array configurations on SPECint95 -- BTB (4-way,
 * LRU) block entries 8..64 and NLS block entries 64..512, each with
 * and without near-block target encoding. Reports the share of BEP
 * from immediate and indirect misfetches, total BEP, and IPC_f.
 *
 * Paper results: roughly eight NLS block entries are needed to match
 * one 4-way BTB entry; ~70% of conditional branches are near-block,
 * so near-block encoding halves the required target-array size.
 */

#include <iostream>

#include "bench_util.hh"

using namespace mbbp;
using namespace mbbp::bench;

int
main()
{
    // BTB (4-way) block entries 8..64, then NLS 64..512, each
    // without and with near-block encoding.
    std::vector<SimConfig> cfgs;
    for (TargetKind kind : { TargetKind::Btb, TargetKind::Nls }) {
        const std::size_t first = kind == TargetKind::Btb ? 8 : 64;
        for (std::size_t e = first; e <= 8 * first; e *= 2) {
            for (bool near : { false, true }) {
                SimConfig cfg;
                cfg.numBlocks = 2;
                cfg.engine.targetKind = kind;
                cfg.engine.targetEntries = e;
                cfg.engine.nearBlock = near;
                cfgs.push_back(cfg);
            }
        }
    }
    const std::vector<SuiteResult> results =
        runConfigs(cfgs, specIntNames());

    TextTable table("Table 5: target arrays (SPECint, dual block)");
    table.setHeader({ "type", "blk entries", "near?", "%BEP mf-imm",
                      "%BEP mf-ind", "BEP", "IPC_f" });
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const FetchEngineConfig &e = cfgs[i].engine;
        const FetchStats &total = results[i].intTotal;
        double bep = total.bep();
        auto share = [&](PenaltyKind k) {
            return bep > 0.0 ? total.bepOf(k) / bep : 0.0;
        };
        table.addRow({
            e.targetKind == TargetKind::Btb ? "BTB" : "NLS",
            std::to_string(e.targetEntries),
            e.nearBlock ? "yes" : "no",
            pct(share(PenaltyKind::MisfetchImmediate), 1),
            pct(share(PenaltyKind::MisfetchIndirect), 1),
            TextTable::fmt(bep, 3),
            TextTable::fmt(total.ipcF(), 2),
        });
    }
    std::cout << out(table) << "\n"
              << "Near-block conditional fraction: "
              << pct(results.back().intTotal.nearBlockFraction(), 1)
              << "% (paper: about 70%)\n";
    return 0;
}
