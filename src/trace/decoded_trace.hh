/**
 * @file
 * The shared replay artifact: a trace decoded once per (trace,
 * i-cache geometry) pair into everything the fetch engines consume
 * per block, so a design-space sweep replays the same decode from
 * read-only memory instead of re-deriving it for every
 * configuration.
 *
 * A DecodedTrace holds
 *  - the flat dynamic instruction array, shared with the source
 *    InMemoryTrace rather than copied (the artifact keeps it alive,
 *    and appending to the trace copies the trace's array instead),
 *  - a structure-of-arrays block index, exactly the segmentation
 *    BlockStream produces: per block the start/next PC, the borrowed
 *    instruction span, the exit index, the conditional-outcome
 *    bitmask and counts, the RAS operation of the exit, and the
 *    per-category branch counts the statistics need,
 *  - the per-instruction BIT window codes of every block window (both
 *    the 3-bit near-block encoding and the 2-bit long form), laid out
 *    in one arena. A window is a pure function of its start address,
 *    so it is built once per distinct start PC and every block with
 *    that start points at the same slice, and
 *  - the frozen (sorted flat array) StaticImage, built once per trace
 *    and shared by every geometry cut from it.
 *
 * Everything here is a pure function of (trace, geometry): engines
 * that differ in history bits, select tables, target arrays, BIT
 * size, penalties, ... all iterate the same artifact read-only, which
 * also makes it safe to share across sweep worker threads. Replaying
 * through a DecodedTrace is byte-identical to decoding per run.
 *
 * Storage is column-oriented and *borrowable*: the accessors read
 * through spans whose backing memory is either heap vectors (the
 * build() path) or a read-only file mapping (the artifact-file path,
 * trace/artifact_file.hh). Shared pointers keep whichever backing
 * store alive, so a mapped artifact replays zero-copy straight out
 * of the page cache.
 */

#ifndef MBBP_TRACE_DECODED_TRACE_HH
#define MBBP_TRACE_DECODED_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fetch/block.hh"
#include "fetch/icache_model.hh"
#include "predict/bit_table.hh"
#include "trace/static_image.hh"
#include "trace/trace.hh"

namespace mbbp
{

/** What a block's exit does to the return address stack. */
enum class RasOp : uint8_t
{
    None = 0,
    Push,       //!< exit is a call: push exit PC + 1
    Pop         //!< exit is a return
};

/** A trace decoded once for a given i-cache geometry. */
class DecodedTrace
{
  public:
    /** A borrowed read-only column (heap- or mmap-backed). */
    template <typename T>
    class ColumnRef
    {
      public:
        ColumnRef() = default;
        ColumnRef(const T *data, std::size_t size)
            : data_(data), size_(size)
        {
        }

        const T &operator[](std::size_t i) const { return data_[i]; }
        const T *data() const { return data_; }
        std::size_t size() const { return size_; }
        const T *begin() const { return data_; }
        const T *end() const { return data_ + size_; }

      private:
        const T *data_ = nullptr;
        std::size_t size_ = 0;
    };

    DecodedTrace() = default;

    /**
     * Decode @p trace for @p geom. The artifact shares the trace's
     * instruction array and StaticImage instead of copying them, and
     * holds its own references to both, so it may outlive the source
     * trace and never sees a later append() to it.
     */
    static DecodedTrace build(const InMemoryTrace &trace,
                              const ICacheConfig &geom);

    /** The geometry the index was cut for. */
    const ICacheConfig &geometry() const { return geom_; }

    /**
     * Does @p other segment identically? Banking never affects the
     * decode, so artifacts are shared across bank counts.
     */
    bool geometryCompatible(const ICacheConfig &other) const;

    const ColumnRef<DynInst> &insts() const { return insts_; }
    const StaticImage &image() const { return *image_; }

    /**
     * Footprint a cache budget charges. A built artifact reports the
     * bytes of its own columns, each sized exactly; the instruction
     * array and the StaticImage belong to the source trace and are
     * not charged here. A mapped artifact reports the mapped file
     * size (shared, evictable pages -- but they occupy address space
     * and, when hot, page-cache memory) plus its own image.
     */
    std::size_t bytes() const;

    /** Is this artifact backed by a read-only file mapping? */
    bool mapped() const { return mappedBytes_ != 0; }

    /** @{ The block index. */
    std::size_t numBlocks() const { return startPc_.size(); }

    /** Borrow block @p i as a view into the shared array. */
    FetchBlock block(std::size_t i) const
    {
        return { startPc_[i], insts_.data() + firstInst_[i],
                 numInsts_[i], exitIdx_[i], nextPc_[i] };
    }

    Addr startPc(std::size_t i) const { return startPc_[i]; }
    Addr nextPc(std::size_t i) const { return nextPc_[i]; }
    uint64_t condOutcomes(std::size_t i) const { return condMask_[i]; }
    unsigned numInsts(std::size_t i) const { return numInsts_[i]; }
    unsigned numConds(std::size_t i) const { return numConds_[i]; }

    unsigned numNotTakenConds(std::size_t i) const
    {
        return numNotTaken_[i];
    }

    /** Control-transfer instructions executed in block @p i. */
    unsigned numBranches(std::size_t i) const { return branches_[i]; }

    /** Executed conditionals with near-block targets in block @p i. */
    unsigned numNearConds(std::size_t i) const { return nearConds_[i]; }

    RasOp rasOp(std::size_t i) const
    {
        return static_cast<RasOp>(rasOp_[i]);
    }
    /** @} */

    /** @{ Precomputed BIT window codes. */

    /** Window length = block capacity at the block's start address. */
    unsigned windowLen(std::size_t i) const { return windowLen_[i]; }

    /**
     * The true (pre-decoded) codes of block @p i's whole window, in
     * the near-block encoding when @p near_block, else with every
     * conditional reported as CondLong. windowLen(i) entries.
     */
    const BitCode *windowCodes(std::size_t i, bool near_block) const
    {
        const ColumnRef<BitCode> &arena =
            near_block ? codesNear_ : codesPlain_;
        return arena.data() + codesOffset_[i];
    }
    /** @} */

  private:
    friend class ArtifactCodec;     //!< (de)serializer, artifact_file.cc

    /** Owned column storage, the build() path's backing store. */
    struct Arrays
    {
        std::vector<Addr> startPc;
        std::vector<Addr> nextPc;
        std::vector<uint32_t> firstInst;    //!< offset into insts
        std::vector<uint16_t> numInsts;
        std::vector<int16_t> exitIdx;       //!< -1 = fall-through
        std::vector<uint64_t> condMask;
        std::vector<uint16_t> numConds;
        std::vector<uint16_t> numNotTaken;
        std::vector<uint16_t> branches;
        std::vector<uint16_t> nearConds;
        std::vector<uint8_t> rasOp;
        std::vector<uint16_t> windowLen;
        std::vector<uint32_t> codesOffset;  //!< offset into the arenas

        // Window-code arenas, indexed by codesOffset, one window per
        // distinct start PC; both encodings are materialized so no
        // per-block translation happens at replay.
        std::vector<BitCode> codesNear;
        std::vector<BitCode> codesPlain;

        /** Drop every column's growth slack. */
        void shrinkToFit();
        std::size_t bytes() const;
    };

    /** Point the spans at @p arrays and take (shared) ownership. */
    void adopt(std::shared_ptr<const Arrays> arrays);

    ICacheConfig geom_;
    std::shared_ptr<const StaticImage> image_ =
        std::make_shared<const StaticImage>();

    /** Keeps the span backing alive: Arrays or a file mapping. */
    std::shared_ptr<const void> storage_;
    /** Keeps a built artifact's borrowed instruction array alive. */
    std::shared_ptr<const std::vector<DynInst>> stream_;
    std::size_t ownedBytes_ = 0;    //!< heap column bytes (build path)
    std::size_t mappedBytes_ = 0;   //!< file size (artifact path)

    ColumnRef<DynInst> insts_;
    ColumnRef<Addr> startPc_;
    ColumnRef<Addr> nextPc_;
    ColumnRef<uint32_t> firstInst_;
    ColumnRef<uint16_t> numInsts_;
    ColumnRef<int16_t> exitIdx_;
    ColumnRef<uint64_t> condMask_;
    ColumnRef<uint16_t> numConds_;
    ColumnRef<uint16_t> numNotTaken_;
    ColumnRef<uint16_t> branches_;
    ColumnRef<uint16_t> nearConds_;
    ColumnRef<uint8_t> rasOp_;
    ColumnRef<uint16_t> windowLen_;
    ColumnRef<uint32_t> codesOffset_;
    ColumnRef<BitCode> codesNear_;
    ColumnRef<BitCode> codesPlain_;
};

} // namespace mbbp

#endif // MBBP_TRACE_DECODED_TRACE_HH
