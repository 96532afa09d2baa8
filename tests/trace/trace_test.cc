/** @file Unit tests for the trace abstraction. */

#include "trace/trace.hh"

#include <gtest/gtest.h>

#include "trace/static_image.hh"

namespace mbbp
{
namespace
{

std::vector<DynInst>
sampleInsts()
{
    return {
        { 0x10, InstClass::NonBranch, false, 0 },
        { 0x11, InstClass::CondBranch, true, 0x20 },
        { 0x20, InstClass::NonBranch, false, 0 },
        { 0x21, InstClass::Call, true, 0x40 },
        { 0x40, InstClass::IndirectJump, true, 0x50 },
        { 0x50, InstClass::Return, true, 0x22 },
        { 0x22, InstClass::CondBranch, false, 0x60 },
    };
}

TEST(InMemoryTrace, IteratesInOrder)
{
    InMemoryTrace t(sampleInsts());
    DynInst inst;
    std::size_t n = 0;
    while (t.next(inst)) {
        EXPECT_EQ(inst, t.at(n));
        ++n;
    }
    EXPECT_EQ(n, t.size());
}

TEST(InMemoryTrace, ResetReplays)
{
    InMemoryTrace t(sampleInsts());
    DynInst first, again;
    ASSERT_TRUE(t.next(first));
    t.reset();
    ASSERT_TRUE(t.next(again));
    EXPECT_EQ(first, again);
}

TEST(InMemoryTrace, AppendGrows)
{
    InMemoryTrace t;
    EXPECT_TRUE(t.empty());
    t.append({ 1, InstClass::NonBranch, false, 0 });
    EXPECT_EQ(t.size(), 1u);
}

TEST(InMemoryTrace, CopiesShareUntilAppend)
{
    InMemoryTrace t(sampleInsts());
    const InMemoryTrace copy = t;
    EXPECT_EQ(copy.insts().data(), t.insts().data());

    t.append({ 0x60, InstClass::NonBranch, false, 0 });
    EXPECT_EQ(t.size(), sampleInsts().size() + 1);
    EXPECT_EQ(copy.size(), sampleInsts().size());
    EXPECT_EQ(copy.insts(), sampleInsts());
}

TEST(InMemoryTrace, AppendRefreshesTheImage)
{
    InMemoryTrace t(sampleInsts());
    const std::shared_ptr<const StaticImage> before = t.image();
    EXPECT_EQ(t.image().get(), before.get());   // built once
    EXPECT_EQ(before->lookup(0x60).cls, InstClass::NonBranch);

    t.append({ 0x60, InstClass::Jump, true, 0x10 });
    const std::shared_ptr<const StaticImage> after = t.image();
    EXPECT_NE(after.get(), before.get());
    EXPECT_EQ(after->lookup(0x60).cls, InstClass::Jump);
    EXPECT_EQ(before->lookup(0x60).cls, InstClass::NonBranch);
}

TEST(InMemoryTrace, SummaryCounts)
{
    InMemoryTrace t(sampleInsts());
    auto s = t.summarize();
    EXPECT_EQ(s.instructions, 7u);
    EXPECT_EQ(s.condBranches, 2u);
    EXPECT_EQ(s.condTaken, 1u);
    EXPECT_EQ(s.calls, 1u);
    EXPECT_EQ(s.returns, 1u);
    EXPECT_EQ(s.indirect, 1u);
    EXPECT_EQ(s.controlTransfers, 4u);
    EXPECT_DOUBLE_EQ(s.condDensity(), 2.0 / 7.0);
    EXPECT_DOUBLE_EQ(s.takenRate(), 0.5);
}

TEST(InMemoryTrace, EmptySummaryIsZero)
{
    InMemoryTrace t;
    auto s = t.summarize();
    EXPECT_EQ(s.instructions, 0u);
    EXPECT_DOUBLE_EQ(s.condDensity(), 0.0);
    EXPECT_DOUBLE_EQ(s.takenRate(), 0.0);
}

TEST(CaptureTrace, RespectsLimit)
{
    InMemoryTrace src(sampleInsts());
    InMemoryTrace out = captureTrace(src, 3);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(out.at(0), src.at(0));
}

TEST(CaptureTrace, ZeroLimitDrainsAll)
{
    InMemoryTrace src(sampleInsts());
    InMemoryTrace out = captureTrace(src, 0);
    EXPECT_EQ(out.size(), src.size());
}

TEST(CaptureTrace, ShortSourceLeavesNoSlack)
{
    InMemoryTrace src(sampleInsts());
    InMemoryTrace out = captureTrace(src, 0, 1000);
    EXPECT_EQ(out.size(), src.size());
    EXPECT_EQ(out.insts().capacity(), out.size());
}

TEST(CaptureTrace, GrownStreamLeavesNoSlack)
{
    InMemoryTrace src(sampleInsts());
    InMemoryTrace out = captureTrace(src, 1 << 20);
    EXPECT_EQ(out.size(), src.size());
    EXPECT_EQ(out.insts().capacity(), out.size());
}

} // namespace
} // namespace mbbp
