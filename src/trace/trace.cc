#include "trace/trace.hh"

#include <algorithm>
#include <atomic>

#include "trace/static_image.hh"
#include "util/stats.hh"

namespace mbbp
{

InMemoryTrace::InMemoryTrace(std::vector<DynInst> insts)
{
    data_->insts = std::move(insts);
}

bool
InMemoryTrace::next(DynInst &inst)
{
    if (pos_ >= data_->insts.size())
        return false;
    inst = data_->insts[pos_++];
    return true;
}

void
InMemoryTrace::append(const DynInst &inst)
{
    // Copy on write: a storage someone else holds stays as it is, and
    // a memoized image would no longer describe the grown stream.
    const bool sole = data_.use_count() == 1;
    if (sole) {
        // Order this thread's writes after the reads of any holder
        // whose release brought the count down to one.
        std::atomic_thread_fence(std::memory_order_acquire);
    }
    if (!sole || data_->image) {
        auto fresh = std::make_shared<Storage>();
        fresh->insts = sole ? std::move(data_->insts) : data_->insts;
        data_ = std::move(fresh);
    }
    data_->insts.push_back(inst);
}

std::shared_ptr<const StaticImage>
InMemoryTrace::image() const
{
    Storage &s = *data_;
    std::call_once(s.imageOnce, [&] {
        s.image = std::make_shared<const StaticImage>(
            StaticImage::fromTrace(*this));
    });
    return s.image;
}

void
InMemoryTrace::reset()
{
    pos_ = 0;
}

double
InMemoryTrace::Summary::condDensity() const
{
    return ratio(static_cast<double>(condBranches),
                 static_cast<double>(instructions));
}

double
InMemoryTrace::Summary::takenRate() const
{
    return ratio(static_cast<double>(condTaken),
                 static_cast<double>(condBranches));
}

InMemoryTrace::Summary
InMemoryTrace::summarize() const
{
    Summary s;
    s.instructions = size();
    for (const auto &inst : insts()) {
        if (isCondBranch(inst.cls)) {
            ++s.condBranches;
            if (inst.taken)
                ++s.condTaken;
        }
        if (isCall(inst.cls))
            ++s.calls;
        if (isReturn(inst.cls))
            ++s.returns;
        if (isIndirect(inst.cls))
            ++s.indirect;
        if (inst.taken)
            ++s.controlTransfers;
    }
    return s;
}

InMemoryTrace
captureTrace(TraceSource &src, std::size_t limit, std::size_t expected)
{
    std::vector<DynInst> insts;
    insts.reserve(limit == 0 ? expected : std::min(expected, limit));
    DynInst inst;
    while ((limit == 0 || insts.size() < limit) && src.next(inst))
        insts.push_back(inst);
    // A source that ended short of the reservation, or a stream grown
    // by doubling, would otherwise keep up to twice its size.
    if (insts.capacity() != insts.size())
        insts.shrink_to_fit();
    return InMemoryTrace(std::move(insts));
}

} // namespace mbbp
