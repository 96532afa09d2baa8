/** @file Pins the entire Table 3 penalty matrix. */

#include "fetch/penalty_model.hh"

#include <gtest/gtest.h>

namespace mbbp
{
namespace
{

/** One Table 3 cell. */
struct Cell
{
    PenaltyKind kind;
    bool double_select;
    unsigned slot;
    unsigned cycles;
};

class Table3 : public ::testing::TestWithParam<Cell>
{
};

TEST_P(Table3, Matches)
{
    const Cell &c = GetParam();
    PenaltyModel m(c.double_select);
    EXPECT_EQ(m.cycles(c.kind, c.slot), c.cycles);
}

// gtest names each case by a byte dump of its Cell, padding included.
// A static table has zeroed padding, so the names are the same on
// every run; temporaries would leave stack garbage in them.
const Cell kCells[] = {
    // Conditional branch: 5 everywhere.
    Cell{ PenaltyKind::CondMispredict, false, 0, 5 },
    Cell{ PenaltyKind::CondMispredict, false, 1, 5 },
    Cell{ PenaltyKind::CondMispredict, true, 0, 5 },
    Cell{ PenaltyKind::CondMispredict, true, 1, 5 },
    // Return: 4 / 5.
    Cell{ PenaltyKind::ReturnMispredict, false, 0, 4 },
    Cell{ PenaltyKind::ReturnMispredict, false, 1, 5 },
    Cell{ PenaltyKind::ReturnMispredict, true, 0, 4 },
    Cell{ PenaltyKind::ReturnMispredict, true, 1, 5 },
    // Misfetch indirect: 4 / 5.
    Cell{ PenaltyKind::MisfetchIndirect, false, 0, 4 },
    Cell{ PenaltyKind::MisfetchIndirect, false, 1, 5 },
    Cell{ PenaltyKind::MisfetchIndirect, true, 0, 4 },
    Cell{ PenaltyKind::MisfetchIndirect, true, 1, 5 },
    // Misfetch immediate: 1 / 2.
    Cell{ PenaltyKind::MisfetchImmediate, false, 0, 1 },
    Cell{ PenaltyKind::MisfetchImmediate, false, 1, 2 },
    Cell{ PenaltyKind::MisfetchImmediate, true, 0, 1 },
    Cell{ PenaltyKind::MisfetchImmediate, true, 1, 2 },
    // Misselect: n/a / 1 single; 1 / 2 double.
    Cell{ PenaltyKind::Misselect, false, 0, 0 },
    Cell{ PenaltyKind::Misselect, false, 1, 1 },
    Cell{ PenaltyKind::Misselect, true, 0, 1 },
    Cell{ PenaltyKind::Misselect, true, 1, 2 },
    // GHR: same as misselect.
    Cell{ PenaltyKind::GhrMispredict, false, 0, 0 },
    Cell{ PenaltyKind::GhrMispredict, false, 1, 1 },
    Cell{ PenaltyKind::GhrMispredict, true, 0, 1 },
    Cell{ PenaltyKind::GhrMispredict, true, 1, 2 },
    // BIT: 1 / 1 single; n/a with double selection.
    Cell{ PenaltyKind::BitMispredict, false, 0, 1 },
    Cell{ PenaltyKind::BitMispredict, false, 1, 1 },
    Cell{ PenaltyKind::BitMispredict, true, 0, 0 },
    Cell{ PenaltyKind::BitMispredict, true, 1, 0 },
    // Bank conflict: 0 / 1.
    Cell{ PenaltyKind::BankConflict, false, 0, 0 },
    Cell{ PenaltyKind::BankConflict, false, 1, 1 },
    Cell{ PenaltyKind::BankConflict, true, 0, 0 },
    Cell{ PenaltyKind::BankConflict, true, 1, 1 },
};

INSTANTIATE_TEST_SUITE_P(AllCells, Table3, ::testing::ValuesIn(kCells));

TEST(PenaltyModel, RefetchFootnoteIsOneCycle)
{
    EXPECT_EQ(PenaltyModel(false).refetchExtra(), 1u);
    EXPECT_EQ(PenaltyModel(true).refetchExtra(), 1u);
}

TEST(PenaltyModel, KindNamesAreStable)
{
    // Figure 9's legend keys off these names.
    EXPECT_STREQ(penaltyKindName(PenaltyKind::CondMispredict),
                 "mispredict");
    EXPECT_STREQ(penaltyKindName(PenaltyKind::Misselect),
                 "misselect");
    EXPECT_STREQ(penaltyKindName(PenaltyKind::BankConflict),
                 "bank-conflict");
}

TEST(PenaltyModelDeath, SlotRangeChecked)
{
    // Slots 2..7 are legal (the multi-block extension); beyond that
    // is a configuration bug.
    PenaltyModel m(false);
    EXPECT_EQ(m.cycles(PenaltyKind::CondMispredict, 2), 5u);
    EXPECT_DEATH((void)m.cycles(PenaltyKind::CondMispredict, 8),
                 "slot");
}

} // namespace
} // namespace mbbp
