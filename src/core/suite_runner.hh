/**
 * @file
 * Suite plumbing for the benches: generate-and-cache the synthetic
 * SPEC95 traces and aggregate per-program fetch statistics into the
 * SPECint / SPECfp averages the paper reports.
 */

#ifndef MBBP_CORE_SUITE_RUNNER_HH
#define MBBP_CORE_SUITE_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/fetch_simulator.hh"
#include "trace/artifact_file.hh"
#include "util/cancel.hh"
#include "workload/spec95.hh"

namespace mbbp
{

class TraceCache;

/**
 * One decoded-artifact byte budget shared by any number of
 * TraceCaches. Each cache accounts its completed artifacts here;
 * when the *global* resident total exceeds the budget the
 * least-recently-used evictable artifact across *all* member caches
 * is dropped (LRU stamps come from one shared clock, so recency is
 * comparable across caches). This is what keeps a service that holds
 * one TraceCache per instruction count bounded by a single budget
 * instead of one budget per cache.
 *
 * Budget 0 = unbounded. The global resident total is published on
 * the "trace.cache.resident_bytes" gauge.
 */
class DecodedBudget
{
  public:
    explicit DecodedBudget(std::size_t budget_bytes)
        : budget_(budget_bytes)
    {
    }

    DecodedBudget(const DecodedBudget &) = delete;
    DecodedBudget &operator=(const DecodedBudget &) = delete;

    std::size_t budgetBytes() const { return budget_; }

    /** @{ Cross-cache totals (0 budget = unbounded). */
    std::size_t residentBytes() const;
    std::size_t evictions() const;
    /** @} */

  private:
    friend class TraceCache;

    void attach(TraceCache *cache);
    void detach(TraceCache *cache, std::size_t resident_bytes);

    /** Shared LRU stamp source (comparable across caches). */
    uint64_t touch()
    {
        return useClock_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /**
     * Account a freshly built artifact and evict globally-LRU
     * artifacts (never @p keep) until back within budget. Callers
     * must NOT hold any member cache's mutex (this locks the budget
     * first, member caches second).
     */
    void onBuilt(const void *keep, std::size_t bytes);

    const std::size_t budget_;
    mutable std::mutex mutex_;      //!< guards totals + members
    std::size_t resident_ = 0;
    std::size_t evictions_ = 0;
    std::atomic<uint64_t> useClock_{ 0 };
    std::vector<TraceCache *> caches_;
};

/**
 * Generates each benchmark trace once and replays it on demand, and
 * memoizes the DecodedTrace replay artifact per (trace, geometry).
 *
 * Safe for concurrent use: any number of threads may call get() or
 * decoded() -- each trace / artifact is built exactly once (distinct
 * entries build in parallel, callers of the same entry block until it
 * is ready). decoded() hands out shared ownership, so an artifact a
 * replay is iterating stays alive even if the cache evicts it.
 *
 * Artifacts can dominate memory on wide sweeps (one per trace and
 * geometry), so the cache takes a byte budget -- either its own
 * private one or a DecodedBudget *shared with other caches* (how the
 * sweep service bounds its per-instruction-count cache family with
 * one number): when the budget's resident decoded set exceeds it,
 * least-recently-used artifacts are dropped (and rebuilt on demand
 * if requested again). Budget 0 keeps everything, the pre-budget
 * behavior. The budget-wide resident total is published on the
 * "trace.cache.resident_bytes" gauge and drops are counted on
 * "trace.cache.evictions".
 *
 * With an ArtifactStore attached the cache also persists: a decode
 * miss first tries to mmap the store's artifact file for the key
 * (zero-copy, skipping trace generation entirely), and freshly built
 * artifacts are written back best-effort. Corrupt or stale files are
 * rejected by the store and simply rebuilt. This is what lets the
 * sweep service restart without losing its warm decoded set.
 */
class TraceCache
{
  public:
    explicit TraceCache(std::size_t instructions_per_program = 400000,
                        std::size_t decoded_budget_bytes = 0,
                        std::shared_ptr<const ArtifactStore>
                            artifacts = nullptr);

    /**
     * Join an existing (possibly shared) budget instead of owning a
     * private one; @p budget null falls back to a private unbounded
     * budget.
     */
    TraceCache(std::size_t instructions_per_program,
               std::shared_ptr<DecodedBudget> budget,
               std::shared_ptr<const ArtifactStore> artifacts =
                   nullptr);

    ~TraceCache();

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /** The trace for @p name (generated on first use). */
    const InMemoryTrace &get(const std::string &name);

    /**
     * The replay artifact for @p name cut for @p geom (decoded on
     * first use). Artifacts are keyed by the geometry fields that
     * affect segmentation (type, block width, line size), so sweep
     * jobs differing only in predictor tables -- or bank counts --
     * share one artifact. The returned pointer keeps the artifact
     * alive across eviction; hold it for the duration of the replay.
     */
    std::shared_ptr<const DecodedTrace>
    decoded(const std::string &name, const ICacheConfig &geom);

    std::size_t instructionsPerProgram() const { return ninsts_; }

    /** @{ Budget introspection. Resident/eviction counts are *this
     *  cache's* share; the (possibly shared) budget tracks the
     *  cross-cache totals. 0 budget = unbounded. */
    std::size_t decodedBudgetBytes() const
    {
        return budget_->budgetBytes();
    }
    std::size_t decodedResidentBytes() const;
    std::size_t decodedEvictions() const;
    const std::shared_ptr<DecodedBudget> &decodedBudget() const
    {
        return budget_;
    }
    /** @} */

    /** The attached persistence layer, if any. */
    const ArtifactStore *artifactStore() const
    {
        return artifacts_.get();
    }

  private:
    struct Entry
    {
        std::once_flag once;
        InMemoryTrace trace;
    };

    struct DecodedEntry
    {
        std::once_flag once;
        std::shared_ptr<const DecodedTrace> dec;
        std::size_t bytes = 0;      //!< 0 until the build completes
        uint64_t lastUse = 0;
    };

    /** (name, type, blockWidth, lineSize). */
    using DecodedKey = std::tuple<std::string, uint8_t, unsigned,
                                  unsigned>;

    friend class DecodedBudget;

    /**
     * @{ Eviction hooks for the budget (which holds its own mutex
     * first; these take this cache's mutex second -- the one
     * sanctioned lock order). lruCandidate reports the oldest
     * evictable entry's stamp; evictOldest unlinks it and returns
     * the bytes freed (0 if nothing evictable).
     */
    bool lruCandidate(const void *keep, uint64_t &stamp) const;
    std::size_t evictOldest(const void *keep);
    /** @} */

    std::size_t ninsts_;
    std::shared_ptr<DecodedBudget> budget_;  //!< never null
    std::shared_ptr<const ArtifactStore> artifacts_;
    mutable std::mutex mutex_;  //!< guards the maps, not the payloads
    std::map<std::string, std::unique_ptr<Entry>> traces_;
    std::map<DecodedKey, std::shared_ptr<DecodedEntry>> decoded_;
    std::size_t resident_ = 0;  //!< bytes of completed entries
    std::size_t evictions_ = 0; //!< this cache's share
};

/** Per-program results plus int/fp/all aggregates. */
struct SuiteResult
{
    std::map<std::string, FetchStats> perProgram;
    FetchStats intTotal;
    FetchStats fpTotal;
    FetchStats allTotal;
};

/**
 * Run @p cfg over the whole suite (or a subset of names).
 *
 * With @p shared_decode (the default) each program replays the
 * cache's memoized DecodedTrace artifact; pass false to decode a
 * private artifact per run (the pre-artifact behavior -- results are
 * byte-identical either way, only the wall clock differs).
 *
 * If @p cancel is given it is polled between program replays;
 * cancellation throws CancelledError, bounding the abort latency of
 * a multi-program job to roughly one replay.
 *
 * perfbench/ledger_wrap.cpp --wraps this exact mangled signature:
 * changing a parameter breaks the benchmark build.
 */
SuiteResult runSuite(const SimConfig &cfg, TraceCache &traces,
                     const std::vector<std::string> &names = {},
                     bool shared_decode = true,
                     const CancelToken *cancel = nullptr);

} // namespace mbbp

#endif // MBBP_CORE_SUITE_RUNNER_HH
