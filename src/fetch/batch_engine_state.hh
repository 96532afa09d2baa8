/**
 * @file
 * Shared per-block replay context for the config-batched sweep
 * kernel (src/sweep/batch_replay).
 *
 * When N predictor configurations replay the same DecodedTrace in
 * lockstep, everything that depends only on (trace, geometry) --
 * which window positions hold branches, the block's conditional
 * list, the exit classification, the touched line range, the RAS
 * operation -- is identical across all N lanes. A BatchBlockCtx
 * hoists those facts out of the lane loop: it is built once per
 * block per tile and then consumed by every lane.
 *
 * The ctx-based helpers below mirror the reference implementations
 * in fetch/engine_common.{hh,cc} and fetch/exit_predict.cc
 * *operation for operation*: each predictor structure sees the same
 * sequence of lookups and updates (including the stat-counter
 * side effects behind obsFlush), so a batched lane produces
 * field-exact FetchStats and identical obs/attribution output
 * versus a solo engine run. Keep them in sync -- the
 * batch_replay_test equivalence suite is the enforcement.
 */

#ifndef MBBP_FETCH_BATCH_ENGINE_STATE_HH
#define MBBP_FETCH_BATCH_ENGINE_STATE_HH

#include <limits>
#include <vector>

#include "fetch/engine_common.hh"
#include "fetch/exit_predict.hh"
#include "trace/decoded_trace.hh"

namespace mbbp
{

/** A non-NonBranch window position, precomputed per block. */
struct BatchWindowBranch
{
    unsigned offset = 0;    //!< instruction offset from block start
    Addr pc = 0;
    BitCode codeNear = BitCode::NonBranch;
    BitCode codePlain = BitCode::NonBranch;
    /** Static target, resolved at decode time; only filled for
     *  near-block codes (the one case resolveAddress reads the
     *  static image). */
    Addr staticTarget = 0;
};

/** One executed conditional branch, precomputed per block. */
struct BatchCondInfo
{
    Addr pc = 0;
    Addr target = 0;
    bool taken = false;
};

/**
 * Lane-independent facts about one decoded block. The vectors are
 * reused across build() calls, so a kernel that keeps a few ctx
 * instances alive does no steady-state allocation.
 */
struct BatchBlockCtx
{
    static constexpr unsigned noExit =
        std::numeric_limits<unsigned>::max();

    FetchBlock blk;
    unsigned capacity = 0;              //!< windowLen
    const BitCode *codesNear = nullptr; //!< whole-window, 3-bit
    const BitCode *codesPlain = nullptr;//!< whole-window, 2-bit
    uint64_t condMask = 0;
    unsigned numConds = 0;

    // O(1) per-block statistics (countBlockStats inputs).
    unsigned numInsts = 0;
    unsigned numBranches = 0;
    unsigned numNearConds = 0;

    std::vector<BatchWindowBranch> wbranches;
    std::vector<BatchCondInfo> conds;

    // Exit classification (compareWithActual / applyRasOp /
    // updateTargetArray inputs).
    bool endsTaken = false;
    unsigned actualExit = noExit;   //!< exitIdx, or noExit
    bool exitIsCond = false;
    bool exitIsReturn = false;
    bool exitIsIndirect = false;
    bool exitIsCall = false;
    bool exitNearCond = false;  //!< near-block code of a cond exit
    Addr exitPc = 0;
    Addr exitTarget = 0;

    RasOp rasOp = RasOp::None;
    Addr rasPush = 0;           //!< exitPc + 1 when rasOp == Push

    // Contiguous i-cache line range the block touches.
    Addr firstLine = 0;
    Addr lastLine = 0;
    Addr lineAddr = 0;          //!< startPc / lineSize

    void build(const DecodedTrace &dec, std::size_t b,
               unsigned line_size)
    {
        blk = dec.block(b);
        capacity = dec.windowLen(b);
        codesNear = dec.windowCodes(b, true);
        codesPlain = dec.windowCodes(b, false);
        condMask = dec.condOutcomes(b);
        numConds = dec.numConds(b);
        numInsts = dec.numInsts(b);
        numBranches = dec.numBranches(b);
        numNearConds = dec.numNearConds(b);

        const StaticImage &image = dec.image();
        wbranches.clear();
        for (unsigned i = 0; i < capacity; ++i) {
            BitCode cn = codesNear[i];
            if (cn == BitCode::NonBranch)
                continue;
            BatchWindowBranch wb;
            wb.offset = i;
            wb.pc = blk.startPc + i;
            wb.codeNear = cn;
            wb.codePlain = codesPlain[i];
            wb.staticTarget =
                bitCodeIsNear(cn) ? image.lookup(wb.pc).target : 0;
            wbranches.push_back(wb);
        }

        conds.clear();
        for (const auto &inst : blk)
            if (isCondBranch(inst.cls))
                conds.push_back({ inst.pc, inst.target, inst.taken });

        endsTaken = blk.endsTaken();
        actualExit = endsTaken
            ? static_cast<unsigned>(blk.exitIdx) : noExit;
        exitIsCond = exitIsReturn = exitIsIndirect = exitIsCall =
            exitNearCond = false;
        exitPc = exitTarget = 0;
        if (const DynInst *e = blk.exitInst()) {
            exitIsCond = isCondBranch(e->cls);
            exitIsReturn = isReturn(e->cls);
            exitIsIndirect = isIndirect(e->cls);
            exitIsCall = isCall(e->cls);
            exitPc = e->pc;
            exitTarget = e->target;
            if (exitIsCond)
                exitNearCond = bitCodeIsNear(computeBitCode(
                    e->cls, e->pc, e->target, line_size, true));
        }
        rasOp = dec.rasOp(b);
        rasPush = exitPc + 1;

        unsigned len = blk.size() ? blk.size() : 1;
        firstLine = blk.startPc / line_size;
        lastLine = (blk.startPc + len - 1) / line_size;
        lineAddr = blk.startPc / line_size;
    }
};

/** predictExit result plus the precomputed near-block target. */
struct BatchPrediction
{
    ExitPrediction pred;
    Addr staticTarget = 0;  //!< valid when pred.src is a Line* source
};

/**
 * predictExit over the precomputed branch list: identical scan
 * order and PHT lookups (NonBranch positions have no side effects
 * in the reference loop, so skipping them is free).
 */
inline BatchPrediction
batchPredictExit(const BatchBlockCtx &ctx, bool near_block,
                 const BlockedPHT &pht, std::size_t pht_idx)
{
    BatchPrediction bp;
    ExitPrediction &p = bp.pred;
    for (const BatchWindowBranch &wb : ctx.wbranches) {
        BitCode c = near_block ? wb.codeNear : wb.codePlain;
        switch (c) {
          case BitCode::Return:
            p.found = true;
            p.src = SelSrc::Ras;
            break;
          case BitCode::OtherBranch:
            p.found = true;
            p.src = SelSrc::Target;
            break;
          default:
            if (!pht.predictAt(pht_idx, wb.pc)) {
                if (p.numNotTaken < 255)
                    ++p.numNotTaken;
                continue;
            }
            p.found = true;
            if (c == BitCode::CondLong) {
                p.src = SelSrc::Target;
            } else {
                switch (bitCodeNearDelta(c)) {
                  case -1: p.src = SelSrc::LinePrev; break;
                  case 0: p.src = SelSrc::LineSame; break;
                  case 1: p.src = SelSrc::LineNext; break;
                  default: p.src = SelSrc::LineNext2; break;
                }
            }
            break;
        }
        p.offset = wb.offset;
        p.pc = wb.pc;
        bp.staticTarget = wb.staticTarget;
        return bp;
    }
    return bp;
}

/**
 * resolveAddress against ctx: the Line* sources read the target
 * precomputed at ctx build instead of the StaticImage, every other
 * source performs the reference's exact probe (RAS peeks and
 * target-array reads have stat side effects, so they must happen
 * if and only if the reference performs them).
 */
inline ResolvedTarget
batchResolveAddress(const BatchPrediction &bp,
                    const BatchBlockCtx &ctx,
                    const ReturnAddressStack &ras,
                    const TargetArray &ta, Addr index_addr,
                    unsigned which, unsigned line_size)
{
    switch (bp.pred.src) {
      case SelSrc::FallThrough:
        return { ctx.blk.startPc + ctx.capacity, true };
      case SelSrc::Ras:
        return { ras.top(), true };
      case SelSrc::Target: {
        TargetPrediction tp =
            ta.predict(index_addr, static_cast<unsigned>(
                           bp.pred.pc % line_size), which);
        return { tp.hit ? tp.target : 0, tp.hit };
      }
      default:
        return { bp.staticTarget, true };
    }
}

/** compareWithActual against the precomputed exit facts. */
inline PredictOutcome
batchCompareWithActual(const ExitPrediction &pred,
                       const ResolvedTarget &resolved,
                       const BatchBlockCtx &ctx)
{
    unsigned pred_exit =
        pred.found ? pred.offset : BatchBlockCtx::noExit;

    if (pred_exit == BatchBlockCtx::noExit &&
        ctx.actualExit == BatchBlockCtx::noExit)
        return { true, PenaltyKind::CondMispredict, false };

    if (pred_exit < ctx.actualExit)
        return { false, PenaltyKind::CondMispredict, true };
    if (pred_exit > ctx.actualExit) {
        mbbp_assert(ctx.exitIsCond,
                    "prediction scanned past an unconditional exit");
        return { false, PenaltyKind::CondMispredict, false };
    }

    if (resolved.addr == ctx.blk.nextPc)
        return { true, PenaltyKind::CondMispredict, false };
    if (ctx.exitIsReturn)
        return { false, PenaltyKind::ReturnMispredict, false };
    if (ctx.exitIsIndirect)
        return { false, PenaltyKind::MisfetchIndirect, false };
    return { false, PenaltyKind::MisfetchImmediate, false };
}

/** trainBlockPht over the precomputed conditional list. */
inline void
batchTrainPht(BlockedPHT &pht, std::size_t idx,
              const BatchBlockCtx &ctx)
{
    for (const BatchCondInfo &c : ctx.conds)
        pht.updateAt(idx, c.pc, c.taken);
}

/** applyRasOp from the decoded RAS operation. */
inline void
batchApplyRasOp(ReturnAddressStack &ras, const BatchBlockCtx &ctx)
{
    switch (ctx.rasOp) {
      case RasOp::Push:
        ras.push(ctx.rasPush);
        break;
      case RasOp::Pop:
        ras.pop();
        break;
      case RasOp::None:
        break;
    }
}

/** updateTargetArray from the precomputed exit facts. */
inline void
batchUpdateTargetArray(TargetArray &ta, Addr index_addr,
                       unsigned which, const BatchBlockCtx &ctx,
                       unsigned line_size, bool near_block)
{
    if (!ctx.endsTaken || ctx.exitIsReturn)
        return;
    if (near_block && ctx.exitIsCond && ctx.exitNearCond)
        return;     // near targets are computed, never stored
    ta.update(index_addr,
              static_cast<unsigned>(ctx.exitPc % line_size), which,
              ctx.exitTarget, ctx.exitIsCall);
}

/**
 * touchICache over the precomputed line range. Perfect contents
 * cannot miss, so the access loop collapses to one add (hits are
 * not observable in FetchStats).
 */
inline void
batchTouchICache(ICacheContents &contents, const BatchBlockCtx &ctx,
                 FetchStats &stats, unsigned miss_penalty)
{
    if (contents.perfect()) {
        stats.icacheAccesses += ctx.lastLine - ctx.firstLine + 1;
        return;
    }
    for (Addr line = ctx.firstLine; line <= ctx.lastLine; ++line) {
        ++stats.icacheAccesses;
        if (!contents.access(line)) {
            ++stats.icacheMisses;
            stats.icacheMissCycles += miss_penalty;
        }
    }
}

/** countBlockStats from the precomputed per-block counts. */
inline void
batchCountBlockStats(FetchStats &stats, const BatchBlockCtx &ctx)
{
    stats.instructions += ctx.numInsts;
    stats.blocksFetched += 1;
    stats.branchesExecuted += ctx.numBranches;
    stats.condExecuted += ctx.numConds;
    stats.nearBlockConds += ctx.numNearConds;
}

/**
 * trueWindowCodes for one whole aligned i-cache line, written into a
 * caller-owned byte buffer (one byte per BitCode). This is the
 * refresh payload a finite BIT installs per touched line
 * (refreshBitEntries); each SoA tile computes it once per line and
 * near-flag variant (SoaTile::trueLineCodes) and copies it into its
 * finite-BIT lanes' arenas.
 */
inline void
batchTrueLineCodes(const StaticImage &image, Addr line_addr,
                   unsigned line_size, bool near_block, uint8_t *out)
{
    const Addr base = line_addr * line_size;
    for (unsigned i = 0; i < line_size; ++i) {
        StaticInfo info = image.lookup(base + i);
        out[i] = static_cast<uint8_t>(
            computeBitCode(info.cls, base + i, info.target,
                           line_size, near_block));
    }
}

/**
 * ICacheModel::bankConflict over two precomputed line ranges
 * (duplicate lines are free: one read serves both).
 */
inline bool
batchBankConflict(const BatchBlockCtx &a, const BatchBlockCtx &b,
                  unsigned num_banks)
{
    for (Addr la = a.firstLine; la <= a.lastLine; ++la)
        for (Addr lb = b.firstLine; lb <= b.lastLine; ++lb) {
            if (la == lb)
                continue;
            if (la % num_banks == lb % num_banks)
                return true;
        }
    return false;
}

} // namespace mbbp

#endif // MBBP_FETCH_BATCH_ENGINE_STATE_HH
