/** @file Round-trip and robustness tests for the binary trace format. */

#include "trace/trace_file.hh"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "temp_path.hh"

namespace mbbp
{
namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = testTempPath("mbbp_trace_test", ".bin");
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

std::vector<DynInst>
mixedInsts()
{
    return {
        { 0x1000, InstClass::NonBranch, false, 0 },
        { 0x1001, InstClass::CondBranch, false, 0x1010 },
        { 0x1002, InstClass::CondBranch, true, 0x1010 },
        { 0x1010, InstClass::Call, true, 0x2000 },
        { 0x2000, InstClass::Return, true, 0x1011 },
        { 0x1011, InstClass::IndirectJump, true, 0x3000 },
        { 0xffffffffffull, InstClass::Jump, true, 0x1000 },
    };
}

TEST_F(TraceFileTest, RoundTripPreservesEverything)
{
    InMemoryTrace original(mixedInsts());
    {
        TraceFileWriter w(path_);
        w.writeAll(original);
        EXPECT_EQ(w.recordsWritten(), original.size());
    }

    TraceFileReader r(path_);
    InMemoryTrace read = captureTrace(r);
    ASSERT_EQ(read.size(), original.size());
    for (std::size_t i = 0; i < read.size(); ++i)
        EXPECT_EQ(read.at(i), original.at(i)) << "record " << i;
}

TEST_F(TraceFileTest, NotTakenConditionalKeepsStaticTarget)
{
    // The format stores targets for every control instruction so the
    // recovery paths can be modeled from a re-read trace.
    InMemoryTrace original;
    original.append({ 0x1, InstClass::CondBranch, false, 0x99 });
    {
        TraceFileWriter w(path_);
        w.writeAll(original);
    }
    TraceFileReader r(path_);
    DynInst inst;
    ASSERT_TRUE(r.next(inst));
    EXPECT_EQ(inst.target, 0x99u);
    EXPECT_FALSE(inst.taken);
}

TEST_F(TraceFileTest, ReaderResetReplays)
{
    {
        TraceFileWriter w(path_);
        for (const auto &i : mixedInsts())
            w.write(i);
    }
    TraceFileReader r(path_);
    InMemoryTrace first = captureTrace(r);
    r.reset();
    InMemoryTrace second = captureTrace(r);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first.at(i), second.at(i));
}

TEST_F(TraceFileTest, EmptyTraceRoundTrips)
{
    {
        TraceFileWriter w(path_);
    }
    TraceFileReader r(path_);
    DynInst inst;
    EXPECT_FALSE(r.next(inst));
}

TEST_F(TraceFileTest, BadMagicIsFatal)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << "NOTATRACEFILE???";
    }
    EXPECT_DEATH({ TraceFileReader r(path_); }, "magic");
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_DEATH({ TraceFileReader r("/nonexistent/file.bin"); },
                 "cannot open");
}

TEST_F(TraceFileTest, TruncatedRecordIsFatal)
{
    {
        TraceFileWriter w(path_);
        w.write({ 0x1, InstClass::Jump, true, 0x2 });
    }
    // Chop the file mid-record.
    std::ifstream in(path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 4));
    out.close();

    EXPECT_DEATH(
        {
            TraceFileReader r(path_);
            DynInst inst;
            while (r.next(inst)) {
            }
        },
        "truncated");
}

} // namespace
} // namespace mbbp
