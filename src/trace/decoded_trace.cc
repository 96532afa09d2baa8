#include "trace/decoded_trace.hh"

#include <type_traits>
#include <unordered_map>

#include "util/logging.hh"

namespace mbbp
{

void
DecodedTrace::Arrays::shrinkToFit()
{
    auto fit = [](auto &...v) { (v.shrink_to_fit(), ...); };
    fit(startPc, nextPc, firstInst, numInsts, exitIdx, condMask,
        numConds, numNotTaken, branches, nearConds, rasOp, windowLen,
        codesOffset, codesNear, codesPlain);
}

std::size_t
DecodedTrace::Arrays::bytes() const
{
    auto vec = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    return vec(startPc) + vec(nextPc) + vec(firstInst) +
           vec(numInsts) + vec(exitIdx) + vec(condMask) +
           vec(numConds) + vec(numNotTaken) + vec(branches) +
           vec(nearConds) + vec(rasOp) + vec(windowLen) +
           vec(codesOffset) + vec(codesNear) + vec(codesPlain);
}

void
DecodedTrace::adopt(std::shared_ptr<const Arrays> arrays)
{
    const Arrays &a = *arrays;
    auto ref = [](const auto &v) {
        using T = std::remove_reference_t<decltype(v[0])>;
        return ColumnRef<std::remove_const_t<T>>(v.data(), v.size());
    };
    startPc_ = ref(a.startPc);
    nextPc_ = ref(a.nextPc);
    firstInst_ = ref(a.firstInst);
    numInsts_ = ref(a.numInsts);
    exitIdx_ = ref(a.exitIdx);
    condMask_ = ref(a.condMask);
    numConds_ = ref(a.numConds);
    numNotTaken_ = ref(a.numNotTaken);
    branches_ = ref(a.branches);
    nearConds_ = ref(a.nearConds);
    rasOp_ = ref(a.rasOp);
    windowLen_ = ref(a.windowLen);
    codesOffset_ = ref(a.codesOffset);
    codesNear_ = ref(a.codesNear);
    codesPlain_ = ref(a.codesPlain);
    ownedBytes_ = a.bytes();
    mappedBytes_ = 0;
    storage_ = std::move(arrays);
}

DecodedTrace
DecodedTrace::build(const InMemoryTrace &trace,
                    const ICacheConfig &geom)
{
    DecodedTrace dec;
    dec.geom_ = geom;
    dec.image_ = trace.image();
    dec.stream_ = trace.sharedInsts();
    const std::vector<DynInst> &insts = *dec.stream_;
    const std::size_t n = insts.size();
    dec.insts_ = ColumnRef<DynInst>(insts.data(), n);

    auto arrays = std::make_shared<Arrays>();
    Arrays &a = *arrays;

    const ICacheModel cache(geom);
    const unsigned line_size = cache.lineSize();
    const StaticImage &image = *dec.image_;

    // Start PC -> offset of its window in the code arenas.
    std::unordered_map<Addr, uint32_t> window_at;

    // Segmentation, identical to BlockStream: consecutive slices of
    // the stream, cut at capacity or the first taken transfer; the
    // final block (successor unknown) is dropped.
    std::size_t i = 0;
    while (i < n) {
        const std::size_t first = i;
        const Addr start = insts[first].pc;
        const unsigned capacity = cache.capacityAt(start);

        unsigned cnt = 0;
        int exit_idx = -1;
        bool complete = false;
        while (cnt < capacity) {
            const bool ended = insts[i].taken;
            ++cnt;
            ++i;
            if (i >= n)
                break;      // successor unknown: drop this block
            mbbp_assert(ended || insts[i].pc == insts[i - 1].pc + 1,
                        "trace is not sequential within a block");
            if (ended) {
                exit_idx = static_cast<int>(cnt) - 1;
                complete = true;
                break;
            }
            if (cnt == capacity)
                complete = true;
        }
        if (!complete)
            break;

        // Per-block derived facts, computed once here so the engines
        // never rescan the instructions.
        uint64_t mask = 0;
        unsigned conds = 0, not_taken = 0, branches = 0, near = 0;
        for (unsigned j = 0; j < cnt; ++j) {
            const DynInst &inst = insts[first + j];
            if (!isControl(inst.cls))
                continue;
            ++branches;
            if (!isCondBranch(inst.cls))
                continue;
            if (conds < 63)
                mask |= static_cast<uint64_t>(inst.taken) << conds;
            ++conds;
            if (!inst.taken)
                ++not_taken;
            BitCode c = computeBitCode(inst.cls, inst.pc, inst.target,
                                       line_size, true);
            if (bitCodeIsNear(c))
                ++near;
        }

        RasOp ras_op = RasOp::None;
        if (exit_idx >= 0) {
            const DynInst &e = insts[first + exit_idx];
            if (isCall(e.cls))
                ras_op = RasOp::Push;
            else if (isReturn(e.cls))
                ras_op = RasOp::Pop;
        }

        // Window codes cover the whole capacity window, including the
        // static instructions past a taken exit. They depend on the
        // start PC alone (the capacity too), so each distinct start
        // is looked up once.
        const auto [at, fresh] = window_at.try_emplace(
            start, static_cast<uint32_t>(a.codesNear.size()));
        if (fresh) {
            for (unsigned j = 0; j < capacity; ++j) {
                const Addr pc = start + j;
                const StaticInfo info = image.lookup(pc);
                const BitCode cn = computeBitCode(
                    info.cls, pc, info.target, line_size, true);
                a.codesNear.push_back(cn);
                a.codesPlain.push_back(
                    bitCodeIsCond(cn) ? BitCode::CondLong : cn);
            }
        }

        a.startPc.push_back(start);
        a.nextPc.push_back(insts[first + cnt].pc);
        a.firstInst.push_back(static_cast<uint32_t>(first));
        a.numInsts.push_back(static_cast<uint16_t>(cnt));
        a.exitIdx.push_back(static_cast<int16_t>(exit_idx));
        a.condMask.push_back(mask);
        a.numConds.push_back(static_cast<uint16_t>(conds));
        a.numNotTaken.push_back(static_cast<uint16_t>(not_taken));
        a.branches.push_back(static_cast<uint16_t>(branches));
        a.nearConds.push_back(static_cast<uint16_t>(near));
        a.rasOp.push_back(static_cast<uint8_t>(ras_op));
        a.windowLen.push_back(static_cast<uint16_t>(capacity));
        a.codesOffset.push_back(at->second);
    }
    a.shrinkToFit();
    dec.adopt(std::move(arrays));
    return dec;
}

std::size_t
DecodedTrace::bytes() const
{
    return mapped() ? mappedBytes_ + image_->bytes() : ownedBytes_;
}

bool
DecodedTrace::geometryCompatible(const ICacheConfig &other) const
{
    return geom_.type == other.type &&
           geom_.blockWidth == other.blockWidth &&
           geom_.lineSize == other.lineSize;
}

} // namespace mbbp
