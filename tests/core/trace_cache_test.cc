/**
 * @file
 * TraceCache decoded-artifact budget tests: LRU eviction under a byte
 * budget, shared ownership across eviction, and the resident-bytes
 * gauge.
 */

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "core/suite_runner.hh"
#include "obs/obs.hh"

namespace mbbp
{
namespace
{

constexpr std::size_t kInsts = 2000;

/** Resident footprint of one artifact of this trace and geometry. */
std::size_t
oneArtifactBytes(const std::string &name, const ICacheConfig &geom)
{
    TraceCache probe(kInsts);
    (void)probe.decoded(name, geom);
    return probe.decodedResidentBytes();
}

TEST(TraceCacheBudget, UnboundedCacheKeepsEverything)
{
    TraceCache traces(kInsts);
    EXPECT_EQ(traces.decodedBudgetBytes(), 0u);

    ICacheConfig geom = ICacheConfig::normal(8);
    auto a = traces.decoded("gcc", geom);
    auto b = traces.decoded("swim", geom);
    auto c = traces.decoded("gcc", ICacheConfig::normal(4));

    EXPECT_EQ(traces.decodedEvictions(), 0u);
    EXPECT_EQ(traces.decodedResidentBytes(),
              a->bytes() + b->bytes() + c->bytes());
    EXPECT_EQ(a.get(), traces.decoded("gcc", geom).get());
    EXPECT_EQ(b.get(), traces.decoded("swim", geom).get());
}

TEST(TraceCacheBudget, EvictsLeastRecentlyUsedArtifact)
{
    ICacheConfig geom = ICacheConfig::normal(8);
    std::size_t gccB = oneArtifactBytes("gcc", geom);
    std::size_t swimB = oneArtifactBytes("swim", geom);
    std::size_t liB = oneArtifactBytes("li", geom);
    ASSERT_GT(gccB, 0u);

    // Room for gcc beside either other artifact, not for all three:
    // li overflows it, and evicting swim alone restores the bound.
    TraceCache traces(kInsts, gccB + std::max(swimB, liB));
    auto a = traces.decoded("gcc", geom);
    auto b = traces.decoded("swim", geom);
    (void)traces.decoded("gcc", geom);      // refresh a: b is now LRU
    (void)traces.decoded("li", geom);       // over budget: b evicted

    EXPECT_EQ(traces.decodedEvictions(), 1u);
    EXPECT_LE(traces.decodedResidentBytes(),
              traces.decodedBudgetBytes());

    // The recently-used artifact survived in place...
    EXPECT_EQ(a.get(), traces.decoded("gcc", geom).get());
    // ...and the victim is rebuilt as a new object on re-request.
    EXPECT_NE(b.get(), traces.decoded("swim", geom).get());
}

TEST(TraceCacheBudget, SharedOwnershipOutlivesEviction)
{
    ICacheConfig geom = ICacheConfig::normal(8);
    std::size_t one = oneArtifactBytes("gcc", geom);

    // Budget of one artifact: every new decode evicts the previous.
    TraceCache traces(kInsts, one);
    auto a = traces.decoded("gcc", geom);
    std::size_t a_insts = a->insts().size();
    ASSERT_GT(a_insts, 0u);

    (void)traces.decoded("swim", geom);
    EXPECT_GE(traces.decodedEvictions(), 1u);

    // The evicted artifact is still fully usable through the handle
    // handed out before eviction...
    EXPECT_EQ(a->insts().size(), a_insts);
    EXPECT_GT(a->numBlocks(), 0u);
    // ...while the cache no longer remembers it.
    EXPECT_NE(a.get(), traces.decoded("gcc", geom).get());
}

TEST(TraceCacheBudget, FreshArtifactIsNeverTheVictim)
{
    ICacheConfig geom = ICacheConfig::normal(8);
    std::size_t one = oneArtifactBytes("gcc", geom);

    // A budget smaller than any artifact cannot hold the newest
    // entry either, but the newest entry must survive its own
    // insertion (the caller was promised it) -- the cache simply
    // stays over budget until the next decode.
    TraceCache traces(kInsts, one / 2);
    auto a = traces.decoded("gcc", geom);
    EXPECT_EQ(traces.decodedEvictions(), 0u);
    EXPECT_EQ(traces.decodedResidentBytes(), a->bytes());
    EXPECT_EQ(a.get(), traces.decoded("gcc", geom).get());
}

TEST(SharedDecodedBudget, OneBudgetBoundsSeveralCaches)
{
    ICacheConfig geom = ICacheConfig::normal(8);
    std::size_t gccB = oneArtifactBytes("gcc", geom);
    std::size_t swimB = oneArtifactBytes("swim", geom);
    std::size_t liB = oneArtifactBytes("li", geom);
    ASSERT_GT(gccB, 0u);

    // Two caches, ONE budget one byte too small for all three
    // artifacts: the *global* resident total is what eviction
    // bounds, however the artifacts distribute across the members.
    auto budget =
        std::make_shared<DecodedBudget>(gccB + swimB + liB - 1);
    TraceCache a(kInsts, budget);
    TraceCache b(kInsts, budget);
    EXPECT_EQ(a.decodedBudgetBytes(), budget->budgetBytes());

    (void)a.decoded("gcc", geom);
    (void)b.decoded("swim", geom);
    EXPECT_EQ(budget->residentBytes(), gccB + swimB);
    EXPECT_EQ(budget->evictions(), 0u);

    // The third artifact overflows the shared budget by one byte;
    // the victim is the globally-oldest (gcc, which lives in the
    // OTHER cache), and one eviction restores the bound.
    (void)b.decoded("li", geom);
    EXPECT_EQ(budget->evictions(), 1u);
    EXPECT_LE(budget->residentBytes(), budget->budgetBytes());
    EXPECT_EQ(a.decodedEvictions(), 1u);
    EXPECT_EQ(b.decodedEvictions(), 0u);
    EXPECT_EQ(a.decodedResidentBytes() + b.decodedResidentBytes(),
              budget->residentBytes());
}

TEST(SharedDecodedBudget, RecencyIsComparableAcrossCaches)
{
    ICacheConfig geom = ICacheConfig::normal(8);
    std::size_t gccB = oneArtifactBytes("gcc", geom);
    std::size_t swimB = oneArtifactBytes("swim", geom);
    std::size_t liB = oneArtifactBytes("li", geom);

    auto budget =
        std::make_shared<DecodedBudget>(gccB + swimB + liB - 1);
    TraceCache a(kInsts, budget);
    TraceCache b(kInsts, budget);

    auto gcc = a.decoded("gcc", geom);
    (void)b.decoded("swim", geom);
    (void)a.decoded("gcc", geom);   // refresh: swim is now global LRU
    (void)a.decoded("li", geom);    // over budget: b's swim evicted

    EXPECT_EQ(a.decodedEvictions(), 0u);
    EXPECT_EQ(b.decodedEvictions(), 1u);
    // The refreshed artifact survived in place in its home cache.
    EXPECT_EQ(gcc.get(), a.decoded("gcc", geom).get());
}

TEST(SharedDecodedBudget, DetachReturnsResidentBytes)
{
    ICacheConfig geom = ICacheConfig::normal(8);
    std::size_t gccB = oneArtifactBytes("gcc", geom);
    std::size_t swimB = oneArtifactBytes("swim", geom);

    auto budget =
        std::make_shared<DecodedBudget>(10 * (gccB + swimB));
    TraceCache keeper(kInsts, budget);
    (void)keeper.decoded("gcc", geom);
    EXPECT_EQ(budget->residentBytes(), gccB);

    {
        TraceCache temp(kInsts, budget);
        (void)temp.decoded("swim", geom);
        EXPECT_EQ(budget->residentBytes(), gccB + swimB);
    }
    // A destroyed member hands its resident bytes back.
    EXPECT_EQ(budget->residentBytes(), gccB);
}

TEST(SharedDecodedBudget, NullBudgetFallsBackToPrivateUnbounded)
{
    TraceCache traces(kInsts, std::shared_ptr<DecodedBudget>());
    EXPECT_EQ(traces.decodedBudgetBytes(), 0u);
    ICacheConfig geom = ICacheConfig::normal(8);
    auto a = traces.decoded("gcc", geom);
    EXPECT_EQ(traces.decodedEvictions(), 0u);
    EXPECT_EQ(traces.decodedResidentBytes(), a->bytes());
}

#ifndef MBBP_OBS_DISABLED

TEST(TraceCacheBudget, PublishesResidentBytesGauge)
{
    obs::resetAll();
    obs::setEnabled(true);

    ICacheConfig geom = ICacheConfig::normal(8);
    std::size_t one = oneArtifactBytes("gcc", geom);
    TraceCache traces(kInsts, one);
    (void)traces.decoded("gcc", geom);
    EXPECT_EQ(obs::gauge("trace.cache.resident_bytes").value(),
              traces.decodedResidentBytes());

    (void)traces.decoded("swim", geom);     // evicts gcc
    EXPECT_EQ(obs::gauge("trace.cache.resident_bytes").value(),
              traces.decodedResidentBytes());
    EXPECT_GE(traces.decodedEvictions(), 1u);

    obs::setEnabled(false);
    obs::resetAll();
}

TEST(SharedDecodedBudget, GaugeCarriesTheCrossCacheTotal)
{
    obs::resetAll();
    obs::setEnabled(true);

    ICacheConfig geom = ICacheConfig::normal(8);
    std::size_t gccB = oneArtifactBytes("gcc", geom);
    std::size_t swimB = oneArtifactBytes("swim", geom);
    std::size_t liB = oneArtifactBytes("li", geom);
    // Room for swim beside either other artifact, not for all three:
    // li overflows it, and evicting gcc alone restores the bound.
    auto budget =
        std::make_shared<DecodedBudget>(swimB + std::max(gccB, liB));
    TraceCache a(kInsts, budget);
    TraceCache b(kInsts, budget);

    (void)a.decoded("gcc", geom);
    (void)b.decoded("swim", geom);
    EXPECT_EQ(obs::gauge("trace.cache.resident_bytes").value(),
              budget->residentBytes());

    (void)b.decoded("li", geom);    // cross-cache eviction
    EXPECT_EQ(budget->evictions(), 1u);
    EXPECT_EQ(obs::gauge("trace.cache.resident_bytes").value(),
              budget->residentBytes());
    EXPECT_LE(obs::gauge("trace.cache.resident_bytes").value(),
              budget->budgetBytes());

    obs::setEnabled(false);
    obs::resetAll();
}

#endif // MBBP_OBS_DISABLED

} // namespace
} // namespace mbbp
