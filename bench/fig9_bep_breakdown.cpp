/**
 * @file
 * Figure 9: per-program branch execution penalty, broken down by
 * misprediction type, for two-block single-selection fetching with a
 * self-aligned cache, 8 select tables, history length 10.
 *
 * Paper result: conditional-branch misprediction dominates BEP,
 * misselection is next, then target-array misfetches; several fp
 * programs are nearly penalty-free while go/gcc/compress run high.
 */

#include <iostream>

#include "bench_util.hh"

using namespace mbbp;
using namespace mbbp::bench;

int
main()
{
    SimConfig cfg;
    cfg.numBlocks = 2;
    cfg.engine.icache = ICacheConfig::selfAligned(8);
    cfg.engine.numSelectTables = 8;

    const SuiteResult result = runConfigs({ cfg }).front();

    // Machine-readable dump of the full suite run on request.
    if (const char *env = std::getenv("MBBP_BENCH_JSON");
        env && env[0] == '1') {
        std::cout << suiteResultToJson(result) << "\n";
        return 0;
    }

    TextTable table(
        "Figure 9: BEP breakdown (two block, single selection)");
    table.setHeader({ "program", "BEP", "mispredict", "misselect",
                      "ghr", "mf-imm", "mf-ind", "return", "bank",
                      "IPC_f" });

    auto add_row = [&](const std::string &label, const FetchStats &s) {
        std::vector<std::string> row = { label,
                                         TextTable::fmt(s.bep(), 3) };
        for (PenaltyKind k :
             { PenaltyKind::CondMispredict, PenaltyKind::Misselect,
               PenaltyKind::GhrMispredict,
               PenaltyKind::MisfetchImmediate,
               PenaltyKind::MisfetchIndirect,
               PenaltyKind::ReturnMispredict,
               PenaltyKind::BankConflict })
            row.push_back(TextTable::fmt(s.bepOf(k), 3));
        row.push_back(TextTable::fmt(s.ipcF(), 2));
        table.addRow(row);
    };
    for (const auto &name : specAllNames())
        add_row(name, result.perProgram.at(name));
    add_row("CINT95", result.intTotal);
    add_row("CFP95", result.fpTotal);
    std::cout << out(table);

    std::cout << "\nSuite IPC_f "
              << TextTable::fmt(result.allTotal.ipcF(), 2)
              << " (paper: over 8 for the whole suite; FP 10.9)\n";
    return 0;
}
