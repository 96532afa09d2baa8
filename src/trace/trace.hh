/**
 * @file
 * Trace abstraction: the fetch engines consume a TraceSource — a
 * forward iterator over the dynamic instruction stream — so they are
 * agnostic to whether instructions come from the CFG interpreter, an
 * in-memory vector, or a trace file.
 */

#ifndef MBBP_TRACE_TRACE_HH
#define MBBP_TRACE_TRACE_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "isa/inst.hh"

namespace mbbp
{

/** A forward-only producer of dynamic instructions. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next instruction.
     * @param inst Filled in on success.
     * @retval true an instruction was produced.
     * @retval false the stream is exhausted.
     */
    virtual bool next(DynInst &inst) = 0;

    /** Restart the stream from the beginning, if supported. */
    virtual void reset() = 0;
};

class StaticImage;

/**
 * A trace held entirely in memory; replayable.
 *
 * The instructions live in shared immutable storage: copying a trace,
 * and every DecodedTrace cut from it, shares one array instead of
 * duplicating it. append() clones the storage first if anything else
 * still shares it, so a holder never sees the stream change under it.
 */
class InMemoryTrace : public TraceSource
{
  public:
    InMemoryTrace() = default;
    explicit InMemoryTrace(std::vector<DynInst> insts);

    // Copies share the storage. No move operations are declared, so a
    // moved-from trace keeps its contents rather than losing its storage.
    InMemoryTrace(const InMemoryTrace &) = default;
    InMemoryTrace &operator=(const InMemoryTrace &) = default;

    bool next(DynInst &inst) override;
    void reset() override;

    void append(const DynInst &inst);
    std::size_t size() const { return data_->insts.size(); }
    bool empty() const { return data_->insts.empty(); }
    const DynInst &at(std::size_t i) const { return data_->insts.at(i); }
    const std::vector<DynInst> &insts() const { return data_->insts; }

    /**
     * Shared ownership of the instruction array as it is now. It stays
     * valid and unchanged whatever is appended to this trace later.
     */
    std::shared_ptr<const std::vector<DynInst>> sharedInsts() const
    {
        return { data_, &data_->insts };
    }

    /**
     * The frozen StaticImage of the instructions as they are now,
     * built on the first call and shared by every later caller until
     * the next append(). Safe to call from several threads at once.
     */
    std::shared_ptr<const StaticImage> image() const;

    /** Basic stream statistics, used by tests and workload tuning. */
    struct Summary
    {
        uint64_t instructions = 0;
        uint64_t condBranches = 0;
        uint64_t condTaken = 0;
        uint64_t calls = 0;
        uint64_t returns = 0;
        uint64_t indirect = 0;      //!< indirect jumps + calls
        uint64_t controlTransfers = 0;  //!< all taken transfers

        /** Fraction of instructions that are conditional branches. */
        double condDensity() const;
        /** Fraction of conditional branches taken. */
        double takenRate() const;
    };

    Summary summarize() const;

  private:
    /** The shared part: the stream and its memoized image. */
    struct Storage
    {
        std::vector<DynInst> insts;
        std::once_flag imageOnce;
        std::shared_ptr<const StaticImage> image;
    };

    std::shared_ptr<Storage> data_ = std::make_shared<Storage>();
    std::size_t pos_ = 0;
};

/**
 * A private replay position over a shared, immutable InMemoryTrace.
 *
 * InMemoryTrace carries its own cursor (`pos_`), which makes replay a
 * mutating operation -- unusable when many simulations share one
 * cached trace across threads. A TraceCursor keeps the position in
 * the reader instead, so any number of cursors can walk the same
 * trace concurrently with no synchronization. It replays the trace
 * as it was when the cursor was made.
 */
class TraceCursor : public TraceSource
{
  public:
    explicit TraceCursor(const InMemoryTrace &trace)
        : insts_(trace.sharedInsts())
    {
    }

    bool next(DynInst &inst) override
    {
        if (pos_ >= insts_->size())
            return false;
        inst = (*insts_)[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

  private:
    std::shared_ptr<const std::vector<DynInst>> insts_;
    std::size_t pos_ = 0;
};

/**
 * Drain up to @p limit instructions of @p src into an InMemoryTrace
 * (limit 0 = drain everything). A caller that knows how many
 * instructions the source will deliver -- a generator run for a fixed
 * budget -- passes that count as @p expected, and the stream is
 * allocated once at that size; a trace file's length is unknown, so
 * its reader passes nothing rather than its limit. Either way the
 * returned stream holds no spare capacity.
 */
InMemoryTrace captureTrace(TraceSource &src, std::size_t limit = 0,
                           std::size_t expected = 0);

} // namespace mbbp

#endif // MBBP_TRACE_TRACE_HH
