/** @file Unit tests for the static program image. */

#include "trace/static_image.hh"

#include <gtest/gtest.h>

namespace mbbp
{
namespace
{

TEST(StaticImage, UnknownPcIsNonBranch)
{
    StaticImage img;
    StaticInfo info = img.lookup(0x1234);
    EXPECT_EQ(info.cls, InstClass::NonBranch);
    EXPECT_FALSE(info.hasStaticTarget);
}

TEST(StaticImage, DirectBranchKeepsStaticTarget)
{
    StaticImage img;
    img.add({ 0x10, InstClass::CondBranch, false, 0x99 });
    StaticInfo info = img.lookup(0x10);
    EXPECT_EQ(info.cls, InstClass::CondBranch);
    EXPECT_TRUE(info.hasStaticTarget);
    EXPECT_EQ(info.target, 0x99u);
}

TEST(StaticImage, IndirectTargetIsNotStatic)
{
    StaticImage img;
    img.add({ 0x10, InstClass::IndirectJump, true, 0x99 });
    StaticInfo info = img.lookup(0x10);
    EXPECT_EQ(info.cls, InstClass::IndirectJump);
    EXPECT_FALSE(info.hasStaticTarget);
    EXPECT_EQ(info.target, 0x99u);  // last dynamic target remembered
}

TEST(StaticImage, FromTraceCoversAllPcs)
{
    InMemoryTrace t;
    t.append({ 0x1, InstClass::NonBranch, false, 0 });
    t.append({ 0x2, InstClass::Jump, true, 0x10 });
    t.append({ 0x10, InstClass::Return, true, 0x3 });
    StaticImage img = StaticImage::fromTrace(t);
    EXPECT_EQ(img.size(), 3u);
    EXPECT_EQ(img.lookup(0x2).cls, InstClass::Jump);
    EXPECT_EQ(img.lookup(0x10).cls, InstClass::Return);
}

TEST(StaticImage, RepeatedExecutionIsIdempotent)
{
    StaticImage img;
    img.add({ 0x10, InstClass::CondBranch, true, 0x50 });
    img.add({ 0x10, InstClass::CondBranch, false, 0x50 });
    EXPECT_EQ(img.size(), 1u);
    EXPECT_EQ(img.lookup(0x10).target, 0x50u);
}

TEST(StaticImage, AddAfterFreezeMatchesNeverFrozen)
{
    const DynInst first[] = {
        { 0x10, InstClass::CondBranch, true, 0x50 },
        { 0x11, InstClass::NonBranch, false, 0 },
        { 0x12, InstClass::IndirectJump, true, 0x90 },
    };
    const DynInst second[] = {
        { 0x12, InstClass::IndirectJump, true, 0x94 },
        { 0x13, InstClass::Return, true, 0x20 },
        { 0x08, InstClass::Call, true, 0x40 },
    };
    StaticImage plain, refrozen;
    for (const DynInst &i : first) {
        plain.add(i);
        refrozen.add(i);
    }
    refrozen.freeze();
    EXPECT_EQ(refrozen.size(), 3u);
    for (const DynInst &i : second) {
        plain.add(i);
        refrozen.add(i);
    }
    EXPECT_FALSE(refrozen.frozen());
    refrozen.freeze();
    ASSERT_TRUE(refrozen.frozen());
    EXPECT_EQ(refrozen.size(), plain.size());
    for (Addr pc = 0; pc < 0x20; ++pc) {
        const StaticInfo a = plain.lookup(pc);
        const StaticInfo b = refrozen.lookup(pc);
        EXPECT_EQ(a.cls, b.cls) << pc;
        EXPECT_EQ(a.target, b.target) << pc;
        EXPECT_EQ(a.hasStaticTarget, b.hasStaticTarget) << pc;
    }
}

TEST(StaticImage, FreezeReleasesTheMap)
{
    StaticImage img;
    for (Addr pc = 0; pc < 64; ++pc)
        img.add({ pc, InstClass::NonBranch, false, 0 });
    img.freeze();
    EXPECT_EQ(img.bytes(),
              img.frozenKeys().capacity() * sizeof(Addr) +
                  img.frozenInfos().capacity() * sizeof(StaticInfo));
    EXPECT_EQ(img.size(), 64u);
}

} // namespace
} // namespace mbbp
