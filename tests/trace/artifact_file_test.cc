/**
 * @file
 * Persistence tests for the decoded-artifact file format: a saved
 * artifact loads back replay-identical, and every corruption mode --
 * wrong magic, version skew, truncation, flipped payload bytes, key
 * mismatch -- is rejected with a null return (never a crash), after
 * which the caller's rebuild path works.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "temp_path.hh"
#include "trace/artifact_file.hh"
#include "trace/decoded_trace.hh"
#include "workload/spec95.hh"

using namespace mbbp;

namespace
{

class ArtifactFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = testTempPath("mbbp_artifact_test", ".mbbpart");
        std::remove(path_.c_str());

        trace_ = specTrace("compress", 20000);
        geom_ = ICacheConfig::normal(4);
        dec_ = DecodedTrace::build(trace_, geom_);
        key_ = ArtifactKey::of("compress", 20000, geom_);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string readAll() const
    {
        std::ifstream in(path_, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

    void writeAll(const std::string &bytes) const
    {
        std::ofstream out(path_, std::ios::binary |
                                     std::ios::trunc);
        out << bytes;
    }

    std::string path_;
    InMemoryTrace trace_;
    ICacheConfig geom_;
    DecodedTrace dec_;
    ArtifactKey key_;
};

/** Every column and derived accessor must match the built artifact. */
void
expectReplayIdentical(const DecodedTrace &a, const DecodedTrace &b)
{
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    ASSERT_EQ(a.insts().size(), b.insts().size());
    for (std::size_t i = 0; i < a.insts().size(); ++i)
        EXPECT_TRUE(a.insts()[i] == b.insts()[i]) << "inst " << i;
    for (std::size_t i = 0; i < a.numBlocks(); ++i) {
        EXPECT_EQ(a.startPc(i), b.startPc(i));
        EXPECT_EQ(a.nextPc(i), b.nextPc(i));
        EXPECT_EQ(a.condOutcomes(i), b.condOutcomes(i));
        EXPECT_EQ(a.numInsts(i), b.numInsts(i));
        EXPECT_EQ(a.numConds(i), b.numConds(i));
        EXPECT_EQ(a.numNotTakenConds(i), b.numNotTakenConds(i));
        EXPECT_EQ(a.numBranches(i), b.numBranches(i));
        EXPECT_EQ(a.numNearConds(i), b.numNearConds(i));
        EXPECT_EQ(a.rasOp(i), b.rasOp(i));
        ASSERT_EQ(a.windowLen(i), b.windowLen(i));
        for (unsigned k = 0; k < a.windowLen(i); ++k) {
            EXPECT_EQ(a.windowCodes(i, true)[k],
                      b.windowCodes(i, true)[k]);
            EXPECT_EQ(a.windowCodes(i, false)[k],
                      b.windowCodes(i, false)[k]);
        }
        FetchBlock fa = a.block(i);
        FetchBlock fb = b.block(i);
        EXPECT_EQ(fa.startPc, fb.startPc);
        EXPECT_EQ(fa.count, fb.count);
        EXPECT_EQ(fa.exitIdx, fb.exitIdx);
        EXPECT_EQ(fa.nextPc, fb.nextPc);
    }
    // The rehydrated static image answers identically.
    for (std::size_t i = 0; i < a.insts().size(); ++i) {
        StaticInfo ia = a.image().lookup(a.insts()[i].pc);
        StaticInfo ib = b.image().lookup(b.insts()[i].pc);
        EXPECT_EQ(ia.cls, ib.cls);
        EXPECT_EQ(ia.target, ib.target);
        EXPECT_EQ(ia.hasStaticTarget, ib.hasStaticTarget);
    }
}

TEST_F(ArtifactFileTest, RoundTripIsReplayIdentical)
{
    ASSERT_TRUE(saveDecodedArtifact(path_, key_, dec_));
    std::shared_ptr<const DecodedTrace> loaded =
        loadDecodedArtifact(path_, key_, geom_);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->mapped());
    EXPECT_FALSE(dec_.mapped());
    expectReplayIdentical(dec_, *loaded);
}

TEST_F(ArtifactFileTest, MissingFileLoadsNull)
{
    EXPECT_EQ(loadDecodedArtifact(path_, key_, geom_), nullptr);
}

TEST_F(ArtifactFileTest, WrongMagicRejected)
{
    ASSERT_TRUE(saveDecodedArtifact(path_, key_, dec_));
    std::string bytes = readAll();
    bytes[0] ^= 0x5a;
    writeAll(bytes);
    EXPECT_EQ(loadDecodedArtifact(path_, key_, geom_), nullptr);
}

TEST_F(ArtifactFileTest, VersionSkewRejected)
{
    ASSERT_TRUE(saveDecodedArtifact(path_, key_, dec_));
    std::string bytes = readAll();
    bytes[8] = static_cast<char>(bytes[8] + 1);  // version field
    writeAll(bytes);
    EXPECT_EQ(loadDecodedArtifact(path_, key_, geom_), nullptr);
}

TEST_F(ArtifactFileTest, TruncationRejectedAtEveryPrefix)
{
    ASSERT_TRUE(saveDecodedArtifact(path_, key_, dec_));
    std::string bytes = readAll();
    // A sparse ladder of prefixes: empty, mid-header, mid-section
    // table, mid-payload, one-byte-short.
    for (std::size_t keep :
         { std::size_t{ 0 }, std::size_t{ 13 }, std::size_t{ 100 },
           bytes.size() / 2, bytes.size() - 1 }) {
        writeAll(bytes.substr(0, keep));
        EXPECT_EQ(loadDecodedArtifact(path_, key_, geom_), nullptr)
            << "prefix of " << keep << " bytes was accepted";
    }
}

TEST_F(ArtifactFileTest, PayloadCorruptionRejected)
{
    ASSERT_TRUE(saveDecodedArtifact(path_, key_, dec_));
    std::string bytes = readAll();
    bytes[bytes.size() / 2] ^= 0x01;
    writeAll(bytes);
    EXPECT_EQ(loadDecodedArtifact(path_, key_, geom_), nullptr);
}

TEST_F(ArtifactFileTest, GarbageFileRejected)
{
    writeAll(std::string(4096, '\x7f'));
    EXPECT_EQ(loadDecodedArtifact(path_, key_, geom_), nullptr);
}

TEST_F(ArtifactFileTest, KeyMismatchRejected)
{
    ASSERT_TRUE(saveDecodedArtifact(path_, key_, dec_));
    ArtifactKey other = key_;
    other.instructions = 999;
    EXPECT_EQ(loadDecodedArtifact(path_, other, geom_), nullptr);
}

TEST_F(ArtifactFileTest, RejectThenRebuildThenReload)
{
    // The service's recovery path: a corrupt file is rejected, the
    // artifact is rebuilt and re-saved over it, and the new file
    // loads.
    ASSERT_TRUE(saveDecodedArtifact(path_, key_, dec_));
    writeAll(std::string(100, 'j'));
    EXPECT_EQ(loadDecodedArtifact(path_, key_, geom_), nullptr);

    DecodedTrace rebuilt = DecodedTrace::build(trace_, geom_);
    ASSERT_TRUE(saveDecodedArtifact(path_, key_, rebuilt));
    std::shared_ptr<const DecodedTrace> loaded =
        loadDecodedArtifact(path_, key_, geom_);
    ASSERT_NE(loaded, nullptr);
    expectReplayIdentical(rebuilt, *loaded);
}

TEST_F(ArtifactFileTest, ConcurrentSavesOfOneKeyAllSucceed)
{
    // Writers sharing an artifact dir (two daemons, or a daemon and
    // sweep_cli) race to save the same key. Every save must land as
    // one whole file, none may fail, and no temp file may be left.
    constexpr int kWriters = 8;
    constexpr int kSavesEach = 4;
    std::atomic<int> saved{ 0 };
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&] {
            for (int s = 0; s < kSavesEach; ++s)
                if (saveDecodedArtifact(path_, key_, dec_))
                    ++saved;
        });
    for (std::thread &t : writers)
        t.join();
    EXPECT_EQ(saved.load(), kWriters * kSavesEach);

    std::shared_ptr<const DecodedTrace> loaded =
        loadDecodedArtifact(path_, key_, geom_);
    ASSERT_NE(loaded, nullptr);
    expectReplayIdentical(dec_, *loaded);

    std::filesystem::path target(path_);
    std::string tmp_prefix = target.filename().string() + ".tmp";
    for (const auto &entry :
         std::filesystem::directory_iterator(target.parent_path()))
        EXPECT_NE(entry.path().filename().string().rfind(tmp_prefix, 0),
                  0u) << "left behind: " << entry.path();
}

TEST(ArtifactStoreTest, StoreRoundTripAndCounters)
{
    std::string dir = testTempPath("mbbp_store_test");
    ArtifactStore store(dir);

    InMemoryTrace trace = specTrace("swim", 10000);
    ICacheConfig geom = ICacheConfig::extended(4);
    DecodedTrace dec = DecodedTrace::build(trace, geom);
    ArtifactKey key = ArtifactKey::of("swim", 10000, geom);

    EXPECT_EQ(store.load(key, geom), nullptr);      // miss
    store.save(key, dec);
    std::shared_ptr<const DecodedTrace> loaded =
        store.load(key, geom);                      // hit
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->mapped());
    EXPECT_EQ(loaded->numBlocks(), dec.numBlocks());

    std::filesystem::remove_all(dir);
}

TEST(ArtifactKeyTest, FileNameEncodesIdentity)
{
    ICacheConfig geom = ICacheConfig::normal(4);
    ArtifactKey a = ArtifactKey::of("gcc", 400000, geom);
    ArtifactKey b = ArtifactKey::of("gcc", 400000, geom);
    EXPECT_EQ(a.fileName(), b.fileName());
    EXPECT_NE(a.fileName(),
              ArtifactKey::of("gcc", 400001, geom).fileName());
    EXPECT_NE(a.fileName(),
              ArtifactKey::of("li", 400000, geom).fileName());
    ICacheConfig wider = ICacheConfig::normal(8);
    EXPECT_NE(a.fileName(),
              ArtifactKey::of("gcc", 400000, wider).fileName());
}

} // namespace
