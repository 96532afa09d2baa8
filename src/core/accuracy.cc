#include "core/accuracy.hh"

#include "fetch/block.hh"
#include "predict/blocked_pht.hh"
#include "predict/scalar_two_level.hh"
#include "util/stats.hh"

namespace mbbp
{

double
AccuracyResult::missRate() const
{
    return ratio(static_cast<double>(mispredicts),
                 static_cast<double>(condBranches));
}

double
AccuracyResult::accuracy() const
{
    return 1.0 - missRate();
}

void
AccuracyResult::accumulate(const AccuracyResult &other)
{
    condBranches += other.condBranches;
    mispredicts += other.mispredicts;
}

namespace
{

/** Predict and train every conditional of one block at its PHT row. */
void
blockedLookups(BlockedPHT &pht, const GlobalHistory &ghr,
               const FetchBlock &blk, AccuracyResult &res)
{
    std::size_t idx = pht.index(ghr, blk.startPc);
    for (const DynInst &inst : blk) {
        if (!isCondBranch(inst.cls))
            continue;
        ++res.condBranches;
        if (pht.predictAt(idx, inst.pc) != inst.taken)
            ++res.mispredicts;
        pht.updateAt(idx, inst.pc, inst.taken);
    }
}

} // namespace

AccuracyResult
blockedPhtAccuracy(const InMemoryTrace &trace, unsigned history_bits,
                   const ICacheConfig &icache)
{
    AccuracyResult res;
    ICacheModel cache(icache);
    BlockedPHT pht({ history_bits, icache.blockWidth, 2, 1 });
    GlobalHistory ghr(history_bits);

    TraceCursor cursor(trace);
    BlockStream stream(cursor, cache);
    OwnedBlock blk;
    while (stream.next(blk)) {
        blockedLookups(pht, ghr, blk.view(), res);
        ghr.shiftInBlock(blk.condOutcomes(), blk.numConds());
    }
    return res;
}

AccuracyResult
blockedPhtAccuracy(const DecodedTrace &dec, unsigned history_bits,
                   unsigned num_phts)
{
    AccuracyResult res;
    BlockedPHT pht(
        { history_bits, dec.geometry().blockWidth, 2, num_phts });
    GlobalHistory ghr(history_bits);
    for (std::size_t i = 0; i < dec.numBlocks(); ++i) {
        blockedLookups(pht, ghr, dec.block(i), res);
        ghr.shiftInBlock(dec.condOutcomes(i), dec.numConds(i));
    }
    return res;
}

AccuracyResult
scalarAccuracy(const InMemoryTrace &trace, unsigned history_bits,
               unsigned num_phts, bool gshare)
{
    AccuracyResult res;
    ScalarTwoLevel pred({ history_bits, num_phts, 2, gshare });

    TraceCursor cursor(trace);
    DynInst inst;
    while (cursor.next(inst)) {
        if (!isCondBranch(inst.cls))
            continue;
        ++res.condBranches;
        if (pred.predict(inst.pc) != inst.taken)
            ++res.mispredicts;
        pred.update(inst.pc, inst.taken);
    }
    return res;
}

} // namespace mbbp
