/**
 * @file
 * Structure-of-arrays lane state for the config-batched replay
 * kernel (DESIGN.md section 5d).
 *
 * The original batched kernel (batch_replay.cc) keeps one BatchLane
 * object per configuration and walks a lane *loop* per block; every
 * predictor read/update is scalar and every lane re-derives the
 * block-uniform bookkeeping. This layer restructures a tile's lane
 * state as parallel columns -- PHT counters packed one byte per
 * counter in a lane-indexed arena, GHRs / index masks / select-table
 * words / NLS targets / BIT window codes / stat accumulators as flat
 * arrays -- so the per-block work becomes staged passes over N-lane
 * vectors:
 *
 *   index   idx[l]  = (ghr[l] ^ a) & mask[l]        (vector xor/and)
 *   scan    gather PHT counters at per-lane offsets, compare >= 2,
 *           mask-resolve the first predicted exit
 *   verify  branchless compare against the block's actual exit;
 *           rare mispredicting lanes peel off into scalar fixups
 *   train   gather, saturating +-1, scatter
 *   ghr     ghr[l] = ((ghr[l] << c) | ins) & mask[l]
 *
 * and everything that is identical across lanes (fetch requests,
 * instruction counts, bank conflicts, BBR occupancy, select-table
 * read/write counts, RAS push/pop streams) is computed once per
 * tile and folded into each lane's FetchStats at finish().
 *
 * The exactness discipline of PR 5 is unchanged: every lane's
 * FetchStats, obs counters/histograms, and attribution rows must be
 * field-exact versus a solo engine run. The scalar instantiation of
 * lane_soa_impl.hh is the single source of truth for semantics; the
 * AVX2/AVX-512 instantiations (dispatched at runtime via util/simd)
 * must produce bit-identical state, which batch_replay_test enforces
 * on every dispatch path the host supports.
 *
 * All four engine kinds (Single, Dual, Multi, TwoAhead) and the
 * delayed-update / double-selection / finite-BIT corners ride the
 * columnar path; only finite i-cache contents keep the reference
 * BatchLane kernel (the replacement state is per-lane and
 * per-access, so the stages would serialize). laneSoaFallback()
 * names the reason per lane; runTile splits a mixed tile so
 * eligible lanes still take the vector path and the rest keep the
 * reference kernel, and batchReplay publishes the eligible/total
 * ratio as the sweep.soa.lane_coverage gauge plus one
 * sweep.soa.fallback.<reason> counter per scalar lane.
 */

#ifndef MBBP_SWEEP_LANE_SOA_HH
#define MBBP_SWEEP_LANE_SOA_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "fetch/batch_engine_state.hh"
#include "fetch/engine_config.hh"
#include "obs/attribution.hh"
#include "obs/obs.hh"
#include "sweep/batch_replay.hh"
#include "util/simd.hh"

namespace mbbp
{

/**
 * Occupancy-only BBR model, shared by the whole tile: the allocate/
 * release sequence depends only on the block stream, so one instance
 * serves every lane (see BatchLane's bbr member for the per-lane
 * form this replaces). Same (depth + 2)-slot ring as BbrInflight.
 */
class BbrOccupancy
{
  public:
    explicit BbrOccupancy(unsigned depth)
        : depth_(depth), counts_(depth + 2, 0)
    {
    }

    /** beginBlock + one allocate per conditional + commit. */
    void addBlock(std::size_t nconds)
    {
        mbbp_assert(liveSlots_ < counts_.size(),
                    "inflight ring overrun");
        counts_[(head_ + liveSlots_) % counts_.size()] = nconds;
        ++liveSlots_;
        live_ += nconds;
        if (live_ > peak_)
            peak_ = live_;
    }

    /** Release batches older than the resolution window. */
    void expire()
    {
        while (liveSlots_ > depth_) {
            mbbp_assert(live_ >= counts_[head_],
                        "BBR release with none in flight");
            live_ -= counts_[head_];
            head_ = (head_ + 1) % counts_.size();
            --liveSlots_;
        }
    }

    std::size_t peakInFlight() const { return peak_; }

  private:
    unsigned depth_;
    std::vector<std::size_t> counts_;   //!< allocations per batch
    std::size_t head_ = 0;              //!< oldest live batch
    std::size_t liveSlots_ = 0;
    std::size_t live_ = 0;
    std::size_t peak_ = 0;
};

/**
 * One return-address stack shared by every lane with the same
 * capacity: the push/pop stream is block-driven, so the ring
 * contents and overflow counts evolve identically. Replicates
 * ReturnAddressStack's observable semantics exactly (including the
 * zero-filled ring and the peek-empty -> 0 rule); per-lane peek
 * counts stay in SoaTile because lanes peek only when their own
 * prediction selects the RAS.
 */
struct SoaRasGroup
{
    std::vector<Addr> ring;
    std::size_t topIdx = 0;
    std::size_t depth = 0;
    uint64_t overflows = 0;
    uint64_t pushes = 0;
    uint64_t pops = 0;
    uint64_t underflows = 0;

    explicit SoaRasGroup(std::size_t capacity) : ring(capacity, 0) {}

    void push(Addr ret_addr)
    {
        ++pushes;
        ring[topIdx] = ret_addr;
        topIdx = (topIdx + 1) % ring.size();
        if (depth == ring.size())
            ++overflows;
        else
            ++depth;
    }

    void pop()
    {
        ++pops;
        if (depth == 0) {
            ++underflows;
            return;
        }
        topIdx = (topIdx + ring.size() - 1) % ring.size();
        --depth;
    }

    Addr top() const
    {
        if (depth == 0)
            return 0;
        return ring[(topIdx + ring.size() - 1) % ring.size()];
    }
};

/**
 * A tile of eligible lanes in columnar layout. Columns are padded to
 * a multiple of 8 lanes (the widest vector) with inert entries --
 * zero masks and arena offset 0 -- so kernels never need tail loops;
 * only bits of allMask are live.
 */
struct SoaTile
{
    static constexpr std::size_t kPad = 8;

    BatchEngineKind kind = BatchEngineKind::Single;
    unsigned n = 0;             //!< live lanes (<= 64)
    std::size_t padN = 0;       //!< n rounded up to kPad
    uint64_t allMask = 0;       //!< low n bits set
    unsigned numBlocks = 1;     //!< group size (Multi), else 1/2
    unsigned lineSize = 0;
    unsigned lineShift = 0;     //!< floorLog2(lineSize)
    uint64_t lineMask = 0;      //!< lineSize - 1
    unsigned blockWidth = 0;
    unsigned shift = 0;         //!< floorLog2(blockWidth)
    unsigned numBanks = 1;      //!< i-cache banks (dual conflicts)
    bool anyMultiPht = false;
    bool ran = false;           //!< a kernel processed >= 1 block
    uint64_t nearMask = 0;      //!< lanes with nearBlock
    uint64_t storedOffMask = 0; //!< lanes with nearBlockStoredOffset
    uint64_t dsMask = 0;        //!< lanes with doubleSelect (Dual)
    uint64_t delayedMask = 0;   //!< lanes with delayedPhtUpdate
    uint64_t bitMask = 0;       //!< lanes with a finite BIT that the
                                //!< stale check runs for (excludes
                                //!< double-select lanes, which never
                                //!< touch their BIT in the reference)

    // --- PHT: one byte per 2-bit counter, lane tables contiguous.
    // The arena carries 8 trailing pad bytes so 8-byte vector
    // gathers at any counter offset stay in bounds.
    std::vector<uint8_t> pht;
    std::vector<uint64_t> phtBase;      //!< byte offset per lane
    std::vector<uint64_t> ghr;
    std::vector<uint64_t> idxMask;      //!< mask(historyBits)
    std::vector<uint64_t> phtTabMask;   //!< numPhts - 1
    std::vector<uint64_t> histBits;     //!< historyBits (shift count)

    // --- Select table (Dual / Multi): one entry packed per u64 word
    // -- src | pos<<8 | numNotTaken<<16 | endedTaken<<24 |
    // startOffset<<32 | valid<<40. The zero word is exactly the
    // never-written entry. Entries hold stSlots consecutive words
    // (2 under double selection, numBlocks-1 for Multi).
    std::vector<uint64_t> st;
    std::vector<uint64_t> stBase;       //!< word offset per lane
    std::vector<uint64_t> stTabMask;    //!< numSelectTables - 1
    std::vector<uint64_t> stEntries;    //!< 1 << historyBits
    std::vector<uint64_t> stSlots;      //!< words per entry

    // --- NLS target arrays: targets only (isCall/written are never
    // observable through the batch resolve path).
    std::vector<uint64_t> nls;
    std::vector<uint64_t> nlsBase;
    std::vector<uint64_t> nlsIdxMask;   //!< targetEntries - 1
    unsigned nlsArrays = 1;             //!< 1 / 2 / numBlocks

    // --- RAS: shared per distinct capacity; peeks per lane.
    std::vector<std::unique_ptr<SoaRasGroup>> rasGroups;
    std::vector<uint32_t> rasOf;        //!< lane -> group index
    std::vector<uint64_t> rasPeeks;

    // --- BIT: finite lanes keep bitEntries direct-mapped lines of
    // lineSize window codes, one byte per code (the writer tag a
    // BitTable entry also stores is unobservable: lookup ignores
    // it). Perfect-BIT lanes own no arena slice.
    std::vector<uint8_t> bit;
    std::vector<uint64_t> bitBase;      //!< byte offset per lane
    std::vector<uint64_t> bitEntMask;   //!< bitEntries - 1
    /** Per arena line: line + 1 of the line whose true codes it
     *  holds, 0 while it holds none (the all-NonBranch start). Lane
     *  l's tags start at bitBase[l] >> lineShift. */
    std::vector<Addr> bitTag;

    // --- True BIT line codes, the refresh payload of every finite
    // lane. A line's codes depend on the line alone, so each is
    // decoded from the trace's StaticImage once, the first time a
    // block touches it: one row of lineSize near codes followed by
    // lineSize plain codes per distinct line. An open-addressed
    // line -> row index keeps the memory proportional to the lines
    // touched, not to the address range they span.
    std::vector<uint8_t> lineCodes;     //!< rows, 2 * lineSize bytes
    std::vector<Addr> lineKeys;         //!< hash slots: line + 1, 0 empty
    std::vector<uint32_t> lineRows;     //!< row of each used slot

    /** Row of @p line's true codes (near, then plain), decoded from
     *  @p image on first touch. The pointer stays valid until the
     *  next call. */
    const uint8_t *
    trueLineCodes(const StaticImage &image, Addr line)
    {
        const std::size_t slot_mask = lineKeys.size() - 1;
        for (std::size_t i = lineSlot(line);; i = (i + 1) & slot_mask) {
            if (lineKeys[i] == line + 1)
                return lineCodes.data() +
                    (std::size_t{ lineRows[i] } << (lineShift + 1));
            if (lineKeys[i] == 0)
                return fillLineCodes(image, line, i);
        }
    }

    // --- Delayed PHT training: mirrors PhtTrainer's two-deep
    // request pipeline. Each request's tick() opens a batch and
    // applies the one staged two requests ago; train() appends the
    // request's blocks (up to numBlocks) to the open batch. The
    // trailing <= 2 batches are never applied, exactly like the
    // reference (batch kernels never flush the trainer).
    struct StagedBlock
    {
        std::vector<uint64_t> idx;      //!< per-lane PHT index copy
        std::vector<uint32_t> conds;    //!< (pc & (bw-1))<<1 | taken
    };
    struct StagedBatch
    {
        std::array<StagedBlock, 4> blocks;
        unsigned nblocks = 0;
    };
    std::array<StagedBatch, 3> staged;
    unsigned stagedHead = 0;
    unsigned stagedCount = 0;

    // --- TwoAhead: per-lane two-block-ahead address tables
    // (1 << historyBits entries). Pending-prediction state is
    // kernel-local; only the arena persists here.
    std::vector<Addr> taAddr;
    std::vector<uint8_t> taValid;
    std::vector<uint64_t> taBase;       //!< entry offset per lane

    // --- Per-lane outputs.
    std::vector<uint64_t> phtLookups;
    std::vector<FetchStats> stats;      //!< penalties + cond-wrong
    std::vector<std::unique_ptr<obs::AttributionSink>> attr;
    std::vector<obs::HistogramData> bwRuns;
    std::vector<uint64_t> cleanRun;

    // --- Tile-uniform accounting, folded per lane at finish().
    uint64_t uInstructions = 0;
    uint64_t uFetchRequests = 0;
    uint64_t uBlocks = 0;
    uint64_t uBranches = 0;
    uint64_t uConds = 0;
    uint64_t uNearConds = 0;
    uint64_t uIcacheAccesses = 0;
    uint64_t uPhtUpdates = 0;           //!< immediate-update lanes
    uint64_t uPhtUpdatesDelayed = 0;    //!< applied-batch updates
    uint64_t uSelReads = 0;             //!< single-selection lanes
    uint64_t uSelWrites = 0;
    uint64_t uSelReadsDS = 0;           //!< double-selection lanes
    uint64_t uSelWritesDS = 0;
    uint64_t uBitProbes = 0;            //!< finite-BIT lanes
    uint64_t uBitUpdates = 0;
    uint64_t uBankEvents = 0;
    uint64_t uBankCycles = 0;
    obs::HistogramData bwInsts;
    obs::HistogramData bwBlocks;
    std::size_t bbrPeak = 0;

    // Penalty cycle tables [kind][slot] for both selection modes
    // (they differ only for Misselect/Ghr/Bit); Multi charges up to
    // slot numBlocks-1 <= 3.
    unsigned pcycles[numPenaltyKinds][4] = {};
    unsigned pcyclesDS[numPenaltyKinds][4] = {};
    unsigned refetchExtra = 1;

    // --- Per-block scratch (kernel-owned, allocation-free steady
    // state).
    struct Scan
    {
        std::vector<uint64_t> src;      //!< SelSrc as integer
        std::vector<uint64_t> off;      //!< predicted exit offset
        std::vector<uint64_t> posByte;  //!< pc % lineSize, 0 if !found
        std::vector<uint64_t> nnt;      //!< not-taken count (sat 255)
        std::vector<uint64_t> tgt;      //!< near-block static target
        uint64_t found = 0;             //!< lanes with a found exit
        uint64_t foundCond = 0;         //!< ... at a conditional
    };
    Scan scanB, scanC;
    std::vector<uint64_t> idx1, idx2;   //!< PHT indexes
    std::vector<uint64_t> gatherOff;    //!< gather offsets
    std::vector<uint64_t> gatherVal;    //!< gather results
    std::vector<uint64_t> stOff;        //!< ST word offsets
    std::vector<uint64_t> stWord;       //!< gathered ST words
    std::vector<uint64_t> expWord;      //!< expected ST words
    uint64_t reqMispred = 0;            //!< charged lanes, this req

    /** Lay out columns and arenas for @p cs (all laneSoaEligible).
     *  @p num_blocks is the Multi group size (ignored otherwise). */
    void build(BatchEngineKind k, unsigned num_blocks,
               const std::vector<const FetchEngineConfig *> &cs,
               unsigned line_size);

    /** Fold uniform accounting into each lane's FetchStats and
     *  replay the reference per-lane obs flush sequence. */
    std::vector<FetchStats> finish();

  private:
    /** Fibonacci-hashed home slot of @p line in lineKeys. */
    std::size_t lineSlot(Addr line) const
    {
        return static_cast<std::size_t>(
                   (line * 0x9e3779b97f4a7c15ULL) >> 32) &
            (lineKeys.size() - 1);
    }

    /** trueLineCodes' first touch of @p line: decode its row into
     *  empty @p slot, growing the index past half load. */
    const uint8_t *fillLineCodes(const StaticImage &image, Addr line,
                                 std::size_t slot);
};

/**
 * Why a lane cannot take the columnar path (Eligible if it can).
 * The names feed the sweep.soa.fallback.<reason> counter family, so
 * keep them stable: they are part of the metrics surface.
 */
enum class SoaFallback : uint8_t
{
    Eligible = 0,
    FiniteICache,       //!< finite i-cache contents (per-lane LRU)
    BtbTarget,          //!< BTB target array instead of NLS
    TargetGeometry,     //!< targetEntries zero or not a power of two
    NoRas,              //!< rasEntries == 0
    BlockWidth,         //!< blockWidth or lineSize not a power
                        //!< of two
    SelectGeometry,     //!< numPhts > 1 or non-pow2 numSelectTables
                        //!< on a select-table kind
    DoubleSelect,       //!< doubleSelect on a kind that forbids it
    BitGeometry,        //!< finite bitEntries not a power of two
};

/** One past the last SoaFallback value (for reason histograms). */
constexpr unsigned numSoaFallbackReasons = 9;

/** Stable metric-name suffix for @p reason ("finite_icache", ...). */
const char *soaFallbackName(SoaFallback reason);

/** Why (or that) @p cfg takes the path it does under @p kind.
 *  perfbench/probe.cpp requires sweep_realism's lanes to stay on the
 *  BtbTarget and FiniteICache reasons (0 permille SoA coverage). */
SoaFallback laneSoaFallback(BatchEngineKind kind,
                            const FetchEngineConfig &cfg);

/** Can @p cfg take the columnar path under @p kind? */
bool laneSoaEligible(BatchEngineKind kind,
                     const FetchEngineConfig &cfg);

/** Per-ISA kernel entry points (instantiated from
 *  lane_soa_impl.hh by the scalar/avx2/avx512 TUs). */
struct LaneSoaKernels
{
    void (*runSingle)(SoaTile &tile, const DecodedTrace &dec);
    void (*runDual)(SoaTile &tile, const DecodedTrace &dec);
    void (*runMulti)(SoaTile &tile, const DecodedTrace &dec);
    void (*runTwoAhead)(SoaTile &tile, const DecodedTrace &dec);
};

/** Kernel table for @p level, falling back to the widest available
 *  narrower build (Scalar is always present). */
const LaneSoaKernels &laneSoaKernelsFor(simd::Level level);

} // namespace mbbp

#endif // MBBP_SWEEP_LANE_SOA_HH
