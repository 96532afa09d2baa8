/**
 * @file
 * The staged SoA replay kernels, compiled once per ISA level.
 *
 * Included (never installed as a normal header) by
 * lane_soa_scalar.cc / lane_soa_avx2.cc / lane_soa_avx512.cc with
 *
 *   MBBP_SOA_NS     the namespace to emit into (soa_scalar, ...)
 *   MBBP_SOA_LEVEL  0 scalar, 1 AVX2, 2 AVX-512
 *
 * defined. All three instantiations share this exact source; the only
 * level-specific code is the 8-lane gather primitive (vector gathers
 * are the one operation gcc will not autovectorize from the plain
 * loop form). Everything else is written as straight-line loops over
 * padN lanes so the per-TU -mavx2 / -mavx512* flags vectorize them.
 * The scalar instantiation is therefore the single source of truth
 * for semantics, and the SIMD builds must match it bit for bit.
 *
 * Exactness ground rules (see lane_soa.hh and batch_replay.cc's
 * reference kernels, which this file mirrors stage for stage):
 *
 *  - Per-block facts come from the same BatchBlockCtx the reference
 *    kernels use; stage order within a fetch request replicates the
 *    reference statement order wherever state interacts (PHT trained
 *    after the block's own lookup, GHR shifted between the pair's two
 *    index computations, RAS ops applied between the two resolves).
 *  - Stat side effects happen iff the reference performs them: PHT
 *    lookups per scanned conditional, RAS peeks only when a lane's
 *    own prediction selects the RAS (and, for the dual pair's second
 *    slot, only when slot 1 was not already penalized), select-table
 *    reads/writes once per pair.
 *  - Charges (FetchStats::charge + attribution) are per-lane scalar
 *    fixups driven by bitmasks -- mispredicting lanes are the rare
 *    case, so the vector path stays branch-free.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "fetch/batch_engine_state.hh"
#include "sweep/lane_soa.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

#if MBBP_SOA_LEVEL >= 1
#include <immintrin.h>
#endif

namespace mbbp
{
namespace MBBP_SOA_NS
{

namespace
{

constexpr uint64_t kNoExit = ~uint64_t{ 0 };

/** out[j] = base[off[j]] for 8 lanes (byte elements, zero-extended).
 *  Vector forms load 8 bytes per lane and mask, so the byte arena
 *  must keep 8 trailing pad bytes (SoaTile::build guarantees it). */
inline void
gather8Bytes(const uint8_t *base, const uint64_t *off, uint64_t *out)
{
#if MBBP_SOA_LEVEL == 2
    // Masked form with an explicit zero source: the unmasked
    // intrinsic's undefined pass-through operand trips gcc's
    // -Wmaybe-uninitialized inside avx512fintrin.h.
    __m512i vidx = _mm512_loadu_si512(off);
    __m512i v = _mm512_mask_i64gather_epi64(
        _mm512_setzero_si512(), 0xff, vidx, base, 1);
    v = _mm512_and_si512(v, _mm512_set1_epi64(0xff));
    _mm512_storeu_si512(out, v);
#elif MBBP_SOA_LEVEL == 1
    const long long *b = reinterpret_cast<const long long *>(base);
    for (int half = 0; half < 2; ++half) {
        __m256i vidx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(off + 4 * half));
        __m256i v = _mm256_i64gather_epi64(b, vidx, 1);
        v = _mm256_and_si256(v, _mm256_set1_epi64x(0xff));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + 4 * half), v);
    }
#else
    for (unsigned j = 0; j < 8; ++j)
        out[j] = base[off[j]];
#endif
}

/** out[j] = base[off[j]] for 8 lanes (64-bit elements). */
inline void
gather8Words(const uint64_t *base, const uint64_t *off, uint64_t *out)
{
#if MBBP_SOA_LEVEL == 2
    __m512i vidx = _mm512_loadu_si512(off);
    __m512i v = _mm512_mask_i64gather_epi64(
        _mm512_setzero_si512(), 0xff, vidx, base, 8);
    _mm512_storeu_si512(out, v);
#elif MBBP_SOA_LEVEL == 1
    const long long *b = reinterpret_cast<const long long *>(base);
    for (int half = 0; half < 2; ++half) {
        __m256i vidx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(off + 4 * half));
        __m256i v = _mm256_i64gather_epi64(b, vidx, 8);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + 4 * half), v);
    }
#else
    for (unsigned j = 0; j < 8; ++j)
        out[j] = base[off[j]];
#endif
}

inline void
gatherBytes(const uint8_t *base, const uint64_t *off, uint64_t *out,
            std::size_t pad_n)
{
    for (std::size_t g = 0; g < pad_n; g += 8)
        gather8Bytes(base, off + g, out + g);
}

inline void
gatherWords(const uint64_t *base, const uint64_t *off, uint64_t *out,
            std::size_t pad_n)
{
    for (std::size_t g = 0; g < pad_n; g += 8)
        gather8Words(base, off + g, out + g);
}

/** Per-lane PHT entry index for block-address bits @p a
 *  (start address already shifted by floorLog2(blockWidth)):
 *  BlockedPHT::index in columnar form. */
inline void
phtIndexes(SoaTile &t, uint64_t a, std::vector<uint64_t> &idx)
{
    const std::size_t pad_n = t.padN;
    const uint64_t *g = t.ghr.data();
    const uint64_t *im = t.idxMask.data();
    uint64_t *out = idx.data();
    for (std::size_t l = 0; l < pad_n; ++l)
        out[l] = (g[l] ^ a) & im[l];
    if (t.anyMultiPht) {
        const uint64_t *tm = t.phtTabMask.data();
        const uint64_t *hb = t.histBits.data();
        for (std::size_t l = 0; l < pad_n; ++l)
            out[l] |= (a & tm[l]) << hb[l];
    }
}

/** SelSrc a near-block lane selects when a conditional at near code
 *  @p cn is predicted taken (the reference's predictExit switch). */
inline uint64_t
nearCondSrc(BitCode cn)
{
    if (cn == BitCode::CondLong)
        return static_cast<uint64_t>(SelSrc::Target);
    switch (bitCodeNearDelta(cn)) {
      case -1:
        return static_cast<uint64_t>(SelSrc::LinePrev);
      case 0:
        return static_cast<uint64_t>(SelSrc::LineSame);
      case 1:
        return static_cast<uint64_t>(SelSrc::LineNext);
      default:
        return static_cast<uint64_t>(SelSrc::LineNext2);
    }
}

/**
 * batchPredictExit for every lane at once: walk the block's branch
 * list; unconditional exits resolve all still-scanning lanes
 * (lane-independent: near and plain codes agree on Return/Other);
 * conditionals gather each scanning lane's own counter, split the
 * lanes into taken (exit found here) and not-taken (keep scanning,
 * numNotTaken += 1 saturating at 255), and stop when none remain.
 */
void
scanBlock(SoaTile &t, const BatchBlockCtx &ctx,
          const std::vector<uint64_t> &idx, SoaTile::Scan &s)
{
    const std::size_t pad_n = t.padN;
    std::fill_n(s.src.data(), pad_n, 0);
    std::fill_n(s.off.data(), pad_n, 0);
    std::fill_n(s.posByte.data(), pad_n, 0);
    std::fill_n(s.nnt.data(), pad_n, 0);
    std::fill_n(s.tgt.data(), pad_n, 0);
    s.found = 0;
    s.foundCond = 0;

    uint64_t active = t.allMask;
    const uint64_t bw = t.blockWidth;
    const uint8_t *pht = t.pht.data();
    const uint64_t *base = t.phtBase.data();
    const uint64_t *ix = idx.data();
    uint64_t *goff = t.gatherOff.data();
    uint64_t *gval = t.gatherVal.data();

    for (const BatchWindowBranch &wb : ctx.wbranches) {
        const BitCode cn = wb.codeNear;
        if (cn == BitCode::Return || cn == BitCode::OtherBranch) {
            const uint64_t src =
                cn == BitCode::Return
                    ? static_cast<uint64_t>(SelSrc::Ras)
                    : static_cast<uint64_t>(SelSrc::Target);
            const uint64_t pos_byte = wb.pc & t.lineMask;
            for (uint64_t m = active; m; m &= m - 1) {
                const unsigned l = static_cast<unsigned>(
                    std::countr_zero(m));
                s.src[l] = src;
                s.off[l] = wb.offset;
                s.posByte[l] = pos_byte;
                s.tgt[l] = wb.staticTarget;
            }
            s.found |= active;
            active = 0;
            break;
        }

        // Conditional: every scanning lane performs one PHT lookup.
        const uint64_t pos = wb.pc & (bw - 1);
        for (std::size_t l = 0; l < pad_n; ++l)
            goff[l] = base[l] + ix[l] * bw + pos;
        gatherBytes(pht, goff, gval, pad_n);
        for (uint64_t m = active; m; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(
                std::countr_zero(m));
            ++t.phtLookups[l];
        }

        uint64_t taken_m = 0;
        for (std::size_t l = 0; l < pad_n; ++l)
            taken_m |= static_cast<uint64_t>(gval[l] >= 2) << l;

        const uint64_t found_now = active & taken_m;
        const uint64_t not_taken = active & ~taken_m;
        for (uint64_t m = not_taken; m; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(
                std::countr_zero(m));
            if (s.nnt[l] < 255)
                ++s.nnt[l];
        }
        if (found_now) {
            const uint64_t src_near = nearCondSrc(cn);
            const uint64_t src_plain =
                static_cast<uint64_t>(SelSrc::Target);
            const uint64_t pos_byte = wb.pc & t.lineMask;
            for (uint64_t m = found_now; m; m &= m - 1) {
                const unsigned l = static_cast<unsigned>(
                    std::countr_zero(m));
                s.src[l] = (t.nearMask >> l) & 1 ? src_near
                                                 : src_plain;
                s.off[l] = wb.offset;
                s.posByte[l] = pos_byte;
                s.tgt[l] = wb.staticTarget;
            }
            s.found |= found_now;
            s.foundCond |= found_now;
        }
        active = not_taken;
        if (!active)
            break;
    }
}

/** The one charge path (laneCharge in columnar form). */
inline void
chargeLane(SoaTile &t, unsigned l, Addr block_pc, unsigned slot,
           PenaltyKind kind, unsigned cycles)
{
    t.stats[l].charge(kind, cycles);
    t.attr[l]->record(block_pc, slot, lossCauseOf(kind), cycles);
    t.reqMispred |= uint64_t{ 1 } << l;
}

/**
 * batchResolveAddress + batchCompareWithActual + the mispredict
 * charges for one scored block, over the lanes in @p gate_m (all
 * lanes for a single-block request and the pair's first slot;
 * the not-yet-penalized lanes for the pair's second slot, matching
 * the reference's blk1_penalized guard).
 *
 * @param index_addr Target-array index address (the scored pair's
 *                   first block for dual fetching).
 * @param which      NLS array selector (0 .. numBlocks-1).
 * @return The lanes charged here. Feeds the dual pair's
 *         blk1_penalized gate and the multi group's squash cascade;
 *         stale-BIT charges deliberately stay out of both (the
 *         reference's laneStaleBitCheck never sets either flag).
 */
uint64_t
resolveAndCharge(SoaTile &t, const BatchBlockCtx &ctx,
                 const SoaTile::Scan &s, unsigned slot,
                 Addr index_addr, unsigned which, uint64_t gate_m)
{
    const std::size_t pad_n = t.padN;
    uint64_t charged = 0;
    const uint64_t actual =
        ctx.endsTaken ? ctx.actualExit : kNoExit;

    // RAS peek side effects: the reference resolves every gated
    // lane's prediction before comparing, so a lane whose found exit
    // selects the RAS peeks exactly once regardless of the outcome.
    uint64_t ras_m = 0;
    const uint64_t found_gated = s.found & gate_m;
    for (uint64_t m = found_gated; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        if (s.src[l] == static_cast<uint64_t>(SelSrc::Ras)) {
            ++t.rasPeeks[l];
            ras_m |= uint64_t{ 1 } << l;
        }
    }

    uint64_t less_m = 0, greater_m = 0, equal_m = 0;
    for (uint64_t m = gate_m; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        const uint64_t pred =
            (s.found >> l) & 1 ? s.off[l] : kNoExit;
        if (pred < actual)
            less_m |= uint64_t{ 1 } << l;
        else if (pred > actual)
            greater_m |= uint64_t{ 1 } << l;
        else
            equal_m |= uint64_t{ 1 } << l;
    }

    if (less_m | greater_m) {
        mbbp_assert(greater_m == 0 || ctx.exitIsCond,
                    "prediction scanned past an unconditional exit");
        const unsigned cond_cycles =
            t.pcycles[static_cast<unsigned>(
                PenaltyKind::CondMispredict)][slot];
        for (uint64_t m = less_m; m; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(
                std::countr_zero(m));
            chargeLane(t, l, ctx.blk.startPc, slot,
                       PenaltyKind::CondMispredict,
                       cond_cycles + t.refetchExtra);
            ++t.stats[l].condDirectionWrong;
        }
        for (uint64_t m = greater_m; m; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(
                std::countr_zero(m));
            chargeLane(t, l, ctx.blk.startPc, slot,
                       PenaltyKind::CondMispredict, cond_cycles);
            ++t.stats[l].condDirectionWrong;
        }
        charged |= less_m | greater_m;
    }

    // Equal-offset lanes: the resolved address decides. Lanes that
    // predicted no exit against a fall-through block are simply
    // correct (FallThrough resolves without side effects).
    const uint64_t check_m = equal_m & s.found;
    if (!check_m)
        return charged;

    // NLS probe for every lane at once (the probe is stat-free, so
    // over-gathering for non-Target lanes is unobservable).
    const unsigned sh = t.lineShift;
    const uint64_t line_idx = index_addr >> sh;
    const uint64_t arrays = t.nlsArrays;
    const uint64_t *nbase = t.nlsBase.data();
    const uint64_t *nmask = t.nlsIdxMask.data();
    uint64_t *goff = t.gatherOff.data();
    uint64_t *gval = t.gatherVal.data();
    for (std::size_t l = 0; l < pad_n; ++l)
        goff[l] = nbase[l] +
            (((line_idx & nmask[l]) * arrays + which) << sh) +
            s.posByte[l];
    gatherWords(t.nls.data(), goff, gval, pad_n);

    // Cached per-group RAS tops (ring contents are group-uniform).
    Addr group_top[SoaTile::kPad * 8];
    if (ras_m & check_m) {
        for (std::size_t gi = 0; gi < t.rasGroups.size(); ++gi)
            group_top[gi] = t.rasGroups[gi]->top();
    }

    const Addr next_pc = ctx.blk.nextPc;
    PenaltyKind wrong_kind = PenaltyKind::MisfetchImmediate;
    if (ctx.exitIsReturn)
        wrong_kind = PenaltyKind::ReturnMispredict;
    else if (ctx.exitIsIndirect)
        wrong_kind = PenaltyKind::MisfetchIndirect;
    const unsigned wrong_cycles =
        t.pcycles[static_cast<unsigned>(wrong_kind)][slot];

    for (uint64_t m = check_m; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        Addr addr;
        const uint64_t src = s.src[l];
        if (src == static_cast<uint64_t>(SelSrc::Target))
            addr = gval[l];
        else if (src == static_cast<uint64_t>(SelSrc::Ras))
            addr = group_top[t.rasOf[l]];
        else
            addr = s.tgt[l];
        if (addr != next_pc) {
            chargeLane(t, l, ctx.blk.startPc, slot, wrong_kind,
                       wrong_cycles);
            charged |= uint64_t{ 1 } << l;
        }
    }
    return charged;
}

/**
 * laneStaleBitCheck for the finite-BIT lanes: re-run the exit scan
 * over each lane's own (possibly aliased) BIT arena lines, charge
 * the one-cycle penalty when the stale selector disagrees with the
 * true-code scan in @p s, then refresh every touched line with true
 * codes.
 *
 * A lane whose arena already holds the true codes of every line the
 * window touches (its tags say so) skips both: the stale scan would
 * replay scanBlock's walk over the same codes and counters, so it
 * finds the same exit, charges nothing and counts the same PHT
 * lookups, and the refresh would rewrite identical bytes. The other
 * lanes run the scalar stale walk -- it is data-dependent and short
 * -- and take their refresh payload from the tile's per-line table
 * of true codes.
 */
void
bitStage(SoaTile &t, const BatchBlockCtx &ctx,
         const StaticImage &image, const std::vector<uint64_t> &idx,
         const SoaTile::Scan &s)
{
    if (!t.bitMask)
        return;
    const unsigned sh = t.lineShift;
    const uint64_t lm = t.lineMask;
    const uint64_t bw = t.blockWidth;
    const unsigned cap = ctx.capacity;
    const Addr start = ctx.blk.startPc;
    const Addr first = start >> sh;
    const Addr last = (start + (cap ? cap - 1 : 0)) >> sh;
    // BitTable::lookup probes once per window instruction, and
    // refreshBitEntries updates every touched line.
    t.uBitProbes += cap;
    t.uBitUpdates += last - first + 1;

    const unsigned bit_cycles = t.pcycles[static_cast<unsigned>(
        PenaltyKind::BitMispredict)][0];
    const uint8_t *pht = t.pht.data();
    uint64_t stale_m = 0;
    for (uint64_t m = t.bitMask; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        const uint64_t ent_mask = t.bitEntMask[l];
        const Addr *tag = t.bitTag.data() + (t.bitBase[l] >> sh);
        // numNotTaken saturates at 255, so only a shorter count
        // recovers the lane's lookup total.
        bool current = s.nnt[l] < 255;
        for (Addr line = first; current && line <= last; ++line)
            current = tag[line & ent_mask] == line + 1;
        if (current) {
            t.phtLookups[l] += s.nnt[l] + ((s.foundCond >> l) & 1);
            continue;
        }
        stale_m |= uint64_t{ 1 } << l;

        const uint8_t *arena = t.bit.data() + t.bitBase[l];
        const uint64_t pht_off = t.phtBase[l] + idx[l] * bw;
        // predictExit over the stale codes: selector-relevant fields
        // only (src + line position; numNotTaken never reaches the
        // comparison).
        uint64_t src = 0, pos = 0;
        for (unsigned i = 0; i < cap; ++i) {
            const Addr pc = start + i;
            const BitCode code = static_cast<BitCode>(
                arena[(((pc >> sh) & ent_mask) << sh) | (pc & lm)]);
            if (code == BitCode::NonBranch)
                continue;
            if (code == BitCode::Return) {
                src = static_cast<uint64_t>(SelSrc::Ras);
            } else if (code == BitCode::OtherBranch) {
                src = static_cast<uint64_t>(SelSrc::Target);
            } else {
                // Conditional: the stale scan consults the real PHT
                // counters (one counted lookup per probe).
                ++t.phtLookups[l];
                if (pht[pht_off + (pc & (bw - 1))] < 2)
                    continue;
                src = nearCondSrc(code);
            }
            pos = pc & lm;
            break;
        }
        if (src != s.src[l] || pos != s.posByte[l])
            chargeLane(t, l, start, 0, PenaltyKind::BitMispredict,
                       bit_cycles);
    }
    if (!stale_m)
        return;

    // refreshBitEntries: every touched line learns its true codes.
    const std::size_t ls = t.lineSize;
    for (Addr line = first; line <= last; ++line) {
        const uint8_t *row = t.trueLineCodes(image, line);
        for (uint64_t m = stale_m; m; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(
                std::countr_zero(m));
            const uint64_t ent = line & t.bitEntMask[l];
            const uint8_t *codes =
                (t.nearMask >> l) & 1 ? row : row + ls;
            std::memcpy(t.bit.data() + t.bitBase[l] + (ent << sh),
                        codes, ls);
            t.bitTag[(t.bitBase[l] >> sh) + ent] = line + 1;
        }
    }
}

/** Apply one staged block's conditionals to the delayed lanes' PHT
 *  counters (PhtTrainer's apply of a two-requests-old batch).
 *  Immediate lanes ride the gather/saturate for free; the scatter
 *  touches only delayedMask lanes. */
void
applyStagedBlock(SoaTile &t, const SoaTile::StagedBlock &blk)
{
    const std::size_t pad_n = t.padN;
    const uint64_t bw = t.blockWidth;
    const uint64_t *base = t.phtBase.data();
    const uint64_t *ix = blk.idx.data();
    uint64_t *goff = t.gatherOff.data();
    uint64_t *gval = t.gatherVal.data();
    uint8_t *pht = t.pht.data();
    for (const uint32_t packed : blk.conds) {
        const uint64_t pos = packed >> 1;
        for (std::size_t l = 0; l < pad_n; ++l)
            goff[l] = base[l] + ix[l] * bw + pos;
        gatherBytes(pht, goff, gval, pad_n);
        if (packed & 1) {
            for (std::size_t l = 0; l < pad_n; ++l)
                gval[l] += static_cast<uint64_t>(gval[l] < 3);
        } else {
            for (std::size_t l = 0; l < pad_n; ++l)
                gval[l] -= static_cast<uint64_t>(gval[l] > 0);
        }
        for (uint64_t m = t.delayedMask; m; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(
                std::countr_zero(m));
            pht[goff[l]] = static_cast<uint8_t>(gval[l]);
        }
        ++t.uPhtUpdatesDelayed;
    }
}

/** PhtTrainer::tick for the delayed lanes: open this request's
 *  batch, then apply the one staged two requests ago. Like the
 *  reference, the trailing <= 2 batches are simply never applied. */
void
delayedTick(SoaTile &t)
{
    if (!t.delayedMask)
        return;
    t.staged[(t.stagedHead + t.stagedCount) % 3].nblocks = 0;
    ++t.stagedCount;
    while (t.stagedCount > 2) {
        SoaTile::StagedBatch &batch = t.staged[t.stagedHead];
        for (unsigned b = 0; b < batch.nblocks; ++b)
            applyStagedBlock(t, batch.blocks[b]);
        t.stagedHead = (t.stagedHead + 1) % 3;
        --t.stagedCount;
    }
}

/** batchTrainPht: gather / saturate +-1 / scalar byte scatter, once
 *  per conditional (tile-uniform update counts accumulate in
 *  finish()). Delayed-update lanes stage the block instead (the
 *  per-lane index column is copied: the GHR moves on before the
 *  batch applies). */
void
trainConds(SoaTile &t, const BatchBlockCtx &ctx,
           const std::vector<uint64_t> &idx)
{
    if (t.delayedMask) {
        mbbp_assert(t.stagedCount > 0, "train before tick");
        SoaTile::StagedBatch &batch =
            t.staged[(t.stagedHead + t.stagedCount - 1) % 3];
        mbbp_assert(batch.nblocks < 4,
                    "more blocks staged than the group size allows");
        SoaTile::StagedBlock &blk = batch.blocks[batch.nblocks++];
        blk.idx.assign(idx.begin(), idx.end());
        blk.conds.clear();
        const uint64_t bw = t.blockWidth;
        for (const BatchCondInfo &c : ctx.conds)
            blk.conds.push_back(static_cast<uint32_t>(
                ((c.pc & (bw - 1)) << 1) |
                static_cast<uint64_t>(c.taken)));
        if (t.delayedMask == t.allMask)
            return;
    }
    const std::size_t pad_n = t.padN;
    const uint64_t bw = t.blockWidth;
    const uint64_t *base = t.phtBase.data();
    const uint64_t *ix = idx.data();
    uint64_t *goff = t.gatherOff.data();
    uint64_t *gval = t.gatherVal.data();
    for (const BatchCondInfo &c : ctx.conds) {
        const uint64_t pos = c.pc & (bw - 1);
        for (std::size_t l = 0; l < pad_n; ++l)
            goff[l] = base[l] + ix[l] * bw + pos;
        gatherBytes(t.pht.data(), goff, gval, pad_n);
        if (c.taken) {
            for (std::size_t l = 0; l < pad_n; ++l)
                gval[l] += static_cast<uint64_t>(gval[l] < 3);
        } else {
            for (std::size_t l = 0; l < pad_n; ++l)
                gval[l] -= static_cast<uint64_t>(gval[l] > 0);
        }
        uint8_t *pht = t.pht.data();
        if (!t.delayedMask) {
            for (unsigned l = 0; l < t.n; ++l)
                pht[goff[l]] = static_cast<uint8_t>(gval[l]);
        } else {
            const uint64_t imm = t.allMask & ~t.delayedMask;
            for (uint64_t m = imm; m; m &= m - 1) {
                const unsigned l = static_cast<unsigned>(
                    std::countr_zero(m));
                pht[goff[l]] = static_cast<uint8_t>(gval[l]);
            }
        }
    }
}

/** GlobalHistory::shiftInBlock, closed form. @p ins carries the
 *  block's outcomes bit-reversed so the first executed conditional
 *  lands oldest, exactly as the reference's per-bit loop leaves
 *  them. */
inline void
ghrShift(SoaTile &t, uint64_t ins, unsigned count)
{
    if (count == 0)
        return;
    const std::size_t pad_n = t.padN;
    uint64_t *g = t.ghr.data();
    const uint64_t *im = t.idxMask.data();
    for (std::size_t l = 0; l < pad_n; ++l)
        g[l] = ((g[l] << count) | ins) & im[l];
}

/** The block's outcomes in insertion order (see ghrShift). */
inline uint64_t
ghrInsertBits(const BatchBlockCtx &ctx)
{
    uint64_t ins = 0;
    for (unsigned i = 0; i < ctx.numConds; ++i)
        ins |= ((ctx.condMask >> i) & 1)
            << (ctx.numConds - 1 - i);
    return ins;
}

/** batchUpdateTargetArray in columnar form. The skip conditions are
 *  block-uniform except the near-conditional-exit rule, which skips
 *  exactly the near-block lanes. */
void
nlsUpdate(SoaTile &t, const BatchBlockCtx &ctx, Addr index_addr,
          unsigned which)
{
    if (!ctx.endsTaken || ctx.exitIsReturn)
        return;
    uint64_t m = t.allMask;
    if (ctx.exitIsCond && ctx.exitNearCond)
        m &= ~t.nearMask;
    if (!m)
        return;
    const unsigned sh = t.lineShift;
    const uint64_t line_idx = index_addr >> sh;
    const uint64_t pos = ctx.exitPc & t.lineMask;
    const uint64_t arrays = t.nlsArrays;
    uint64_t *nls = t.nls.data();
    const uint64_t *nbase = t.nlsBase.data();
    const uint64_t *nmask = t.nlsIdxMask.data();
    for (; m; m &= m - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(m));
        nls[nbase[l] + (((line_idx & nmask[l]) * arrays + which) << sh) +
            pos] = ctx.exitTarget;
    }
}

/** batchApplyRasOp, once per shared RAS group. */
inline void
rasApply(SoaTile &t, const BatchBlockCtx &ctx)
{
    switch (ctx.rasOp) {
      case RasOp::Push:
        for (auto &g : t.rasGroups)
            g->push(ctx.rasPush);
        break;
      case RasOp::Pop:
        for (auto &g : t.rasGroups)
            g->pop();
        break;
      case RasOp::None:
        break;
    }
}

/** Tile-uniform per-block accounting (countBlockStats + perfect
 *  i-cache touches), folded per lane at finish(). */
inline void
countBlockUniform(SoaTile &t, const BatchBlockCtx &ctx)
{
    t.uInstructions += ctx.numInsts;
    t.uBlocks += 1;
    t.uBranches += ctx.numBranches;
    t.uConds += ctx.numConds;
    t.uNearConds += ctx.numNearConds;
    t.uIcacheAccesses += ctx.lastLine - ctx.firstLine + 1;
}

/** FetchBandwidth::endRequest: the insts/blocks distributions are
 *  request-uniform and shared; the mispredict-run distribution is
 *  per lane. */
inline void
endRequest(SoaTile &t, uint64_t insts, uint64_t blocks)
{
    t.bwInsts.record(insts);
    t.bwBlocks.record(blocks);
    for (unsigned l = 0; l < t.n; ++l) {
        if ((t.reqMispred >> l) & 1) {
            t.bwRuns[l].record(t.cleanRun[l]);
            t.cleanRun[l] = 0;
        } else {
            ++t.cleanRun[l];
        }
    }
}

/** runSingleTile over the SoA tile. */
void
runSingleImpl(SoaTile &t, const DecodedTrace &dec)
{
    const StaticImage &image = dec.image();
    const std::size_t nblocks = dec.numBlocks();
    if (nblocks == 0)
        return;     // the reference returns before any flush
    t.ran = true;

    BbrOccupancy bbr(4);
    BatchBlockCtx ctx;
    for (std::size_t b = 0; b < nblocks; ++b) {
        ctx.build(dec, b, t.lineSize);
        if (b + 1 < nblocks) {
            mbbp_assert(dec.startPc(b + 1) == ctx.blk.nextPc,
                        "block index out of sync");
        }

        ++t.uFetchRequests;
        t.reqMispred = 0;
        delayedTick(t);
        countBlockUniform(t, ctx);
        t.uPhtUpdates += ctx.conds.size();

        phtIndexes(t, ctx.blk.startPc >> t.shift, t.idx1);
        scanBlock(t, ctx, t.idx1, t.scanB);
        bitStage(t, ctx, image, t.idx1, t.scanB);
        resolveAndCharge(t, ctx, t.scanB, 0, ctx.blk.startPc, 0,
                         t.allMask);

        bbr.addBlock(ctx.conds.size());
        bbr.expire();

        trainConds(t, ctx, t.idx1);
        ghrShift(t, ghrInsertBits(ctx), ctx.numConds);
        nlsUpdate(t, ctx, ctx.blk.startPc, 0);
        rasApply(t, ctx);

        endRequest(t, ctx.numInsts, 1);
    }
    t.bbrPeak = bbr.peakInFlight();
}

/** runDualTile over the SoA tile (double-selection lanes included:
 *  their extra slot-0 select stage and the wider two-slot entries
 *  ride the same columns, keyed by dsMask). */
void
runDualImpl(SoaTile &t, const DecodedTrace &dec)
{
    const StaticImage &image = dec.image();
    const std::size_t nblocks = dec.numBlocks();
    if (nblocks == 0)
        return;
    t.ran = true;

    BbrOccupancy bbr(4);
    BatchBlockCtx ctxB, ctxC, ctxD;
    std::size_t bi = 0;
    ctxB.build(dec, bi, t.lineSize);

    // Figure 3's b0 primes the pipeline alone.
    ++t.uFetchRequests;
    t.reqMispred = 0;
    countBlockUniform(t, ctxB);
    endRequest(t, ctxB.numInsts, 1);

    for (;;) {
        const std::size_t ci = bi + 1;
        if (ci >= nblocks)
            break;
        ctxC.build(dec, ci, t.lineSize);
        mbbp_assert(ctxC.blk.startPc == ctxB.blk.nextPc,
                    "block index out of sync");
        const std::size_t di = ci + 1;
        const bool have_d = di < nblocks;
        bool conflict_cd = false;
        uint64_t d_offset = 0;
        if (have_d) {
            ctxD.build(dec, di, t.lineSize);
            mbbp_assert(ctxD.blk.startPc == ctxC.blk.nextPc,
                        "block index out of sync");
            conflict_cd = batchBankConflict(ctxC, ctxD, t.numBanks);
            // The reference stores startOffset as uint8_t.
            d_offset = (ctxD.blk.startPc & t.lineMask) & 0xff;
        }

        ++t.uFetchRequests;
        t.reqMispred = 0;
        delayedTick(t);
        countBlockUniform(t, ctxC);
        uint64_t req_insts = ctxC.numInsts;
        if (have_d) {
            countBlockUniform(t, ctxD);
            req_insts += ctxD.numInsts;
            if (conflict_cd) {
                const unsigned cycles = t.pcycles[static_cast<
                    unsigned>(PenaltyKind::BankConflict)][1];
                ++t.uBankEvents;
                t.uBankCycles += cycles;
            }
        }

        // ===== Block 1: B's exit prediction (C's address). =====
        phtIndexes(t, ctxB.blk.startPc >> t.shift, t.idx1);
        scanBlock(t, ctxB, t.idx1, t.scanB);

        uint64_t pen1 = 0;
        if (t.dsMask) {
            // Double selection's slot-0 stage: read the entry B's
            // address selects, compare selector then GHR info (never
            // the stored offset), and always write the truth back.
            // One read + one write per request, even the trailing
            // partial one.
            ++t.uSelReadsDS;
            ++t.uSelWritesDS;
            const uint64_t c_off =
                (ctxC.blk.startPc & t.lineMask) & 0xff;
            const unsigned missel0 = t.pcyclesDS[static_cast<
                unsigned>(PenaltyKind::Misselect)][0];
            const unsigned ghr0 = t.pcyclesDS[static_cast<unsigned>(
                PenaltyKind::GhrMispredict)][0];
            uint64_t *st = t.st.data();
            for (uint64_t m = t.dsMask; m; m &= m - 1) {
                const unsigned l = static_cast<unsigned>(
                    std::countr_zero(m));
                const uint64_t off = t.stBase[l] +
                    ((ctxB.blk.startPc & t.stTabMask[l]) *
                         t.stEntries[l] +
                     t.idx1[l]) *
                        t.stSlots[l];
                const uint64_t exp = t.scanB.src[l] |
                    ((t.scanB.posByte[l] & 0xff) << 8) |
                    (t.scanB.nnt[l] << 16) |
                    (((t.scanB.found >> l) & 1) << 24) |
                    (c_off << 32) | (uint64_t{ 1 } << 40);
                const uint64_t diff = st[off] ^ exp;
                if (diff & 0xffff) {
                    chargeLane(t, l, ctxB.blk.startPc, 0,
                               PenaltyKind::Misselect, missel0);
                    pen1 |= uint64_t{ 1 } << l;
                } else if (diff & 0xffff0000) {
                    chargeLane(t, l, ctxB.blk.startPc, 0,
                               PenaltyKind::GhrMispredict, ghr0);
                    pen1 |= uint64_t{ 1 } << l;
                }
                st[off] = exp;
            }
        }
        bitStage(t, ctxB, image, t.idx1, t.scanB);

        pen1 |= resolveAndCharge(t, ctxB, t.scanB, 0,
                                 ctxB.blk.startPc, 0, t.allMask);

        bbr.addBlock(ctxB.conds.size());
        t.uPhtUpdates += ctxB.conds.size();
        trainConds(t, ctxB, t.idx1);
        ghrShift(t, ghrInsertBits(ctxB), ctxB.numConds);
        rasApply(t, ctxB);

        if (!have_d) {
            // C is the last complete block; its exit cannot be
            // scored.
            nlsUpdate(t, ctxB, ctxB.blk.startPc, 0);
            endRequest(t, req_insts, 1);
            break;
        }

        // ===== Block 2: C's exit via the select table. =====
        phtIndexes(t, ctxC.blk.startPc >> t.shift, t.idx2);
        scanBlock(t, ctxC, t.idx2, t.scanC);

        // One ST read and one write per pair, for every lane
        // (tile-uniform counts; double-select lanes also counted
        // the slot-0 stage above); entries live at
        // ((tableOf(C) * entries + idx1) * slots + dsBit) in each
        // lane's slab.
        ++t.uSelReads;
        ++t.uSelWrites;
        if (t.dsMask) {
            ++t.uSelReadsDS;
            ++t.uSelWritesDS;
        }
        const uint64_t tab_addr = ctxC.blk.startPc;
        const std::size_t pad_n = t.padN;
        // Dedicated offset column: resolveAndCharge clobbers the
        // shared gather scratch before the write-back below.
        uint64_t *soff = t.stOff.data();
        for (std::size_t l = 0; l < pad_n; ++l)
            soff[l] = t.stBase[l] +
                ((tab_addr & t.stTabMask[l]) * t.stEntries[l] +
                 t.idx1[l]) *
                    t.stSlots[l] +
                ((t.dsMask >> l) & 1);
        gatherWords(t.st.data(), soff, t.stWord.data(), pad_n);
        for (std::size_t l = 0; l < pad_n; ++l)
            t.expWord[l] = t.scanC.src[l] |
                ((t.scanC.posByte[l] & 0xff) << 8) |
                (t.scanC.nnt[l] << 16) |
                (((t.scanC.found >> l) & 1) << 24) |
                (d_offset << 32) | (uint64_t{ 1 } << 40);

        // Slot-1 select penalties differ under double selection
        // (PenaltyModel(doubleSelect) is per lane).
        const unsigned missel_cycles = t.pcycles[static_cast<
            unsigned>(PenaltyKind::Misselect)][1];
        const unsigned ghr_cycles = t.pcycles[static_cast<unsigned>(
            PenaltyKind::GhrMispredict)][1];
        const unsigned missel_ds = t.pcyclesDS[static_cast<unsigned>(
            PenaltyKind::Misselect)][1];
        const unsigned ghr_ds = t.pcyclesDS[static_cast<unsigned>(
            PenaltyKind::GhrMispredict)][1];
        uint64_t resolve_m = t.allMask & ~pen1;
        for (uint64_t m = resolve_m; m; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(
                std::countr_zero(m));
            const bool ds = (t.dsMask >> l) & 1;
            const uint64_t diff = t.stWord[l] ^ t.expWord[l];
            if (diff & 0xffff) {
                chargeLane(t, l, ctxC.blk.startPc, 1,
                           PenaltyKind::Misselect,
                           ds ? missel_ds : missel_cycles);
            } else if (diff & 0xffff0000) {
                chargeLane(t, l, ctxC.blk.startPc, 1,
                           PenaltyKind::GhrMispredict,
                           ds ? ghr_ds : ghr_cycles);
            } else if (((t.storedOffMask >> l) & 1) &&
                       t.scanC.src[l] >=
                           static_cast<uint64_t>(SelSrc::LinePrev) &&
                       ((t.stWord[l] >> 32) & 0xff) != d_offset) {
                chargeLane(t, l, ctxC.blk.startPc, 1,
                           PenaltyKind::Misselect,
                           ds ? missel_ds : missel_cycles);
            }
        }
        resolveAndCharge(t, ctxC, t.scanC, 1, ctxB.blk.startPc, 1,
                         resolve_m);
        uint64_t *st = t.st.data();
        for (unsigned l = 0; l < t.n; ++l)
            st[soff[l]] = t.expWord[l];

        nlsUpdate(t, ctxB, ctxB.blk.startPc, 0);
        nlsUpdate(t, ctxC, ctxB.blk.startPc, 1);

        bbr.addBlock(ctxC.conds.size());
        bbr.expire();

        t.uPhtUpdates += ctxC.conds.size();
        trainConds(t, ctxC, t.idx2);
        ghrShift(t, ghrInsertBits(ctxC), ctxC.numConds);
        rasApply(t, ctxC);

        endRequest(t, req_insts, 2);

        bi = di;
        std::swap(ctxB, ctxD);
    }
    t.bbrPeak = bbr.peakInFlight();
}

/** runMultiTile over the SoA tile. */
void
runMultiImpl(SoaTile &t, const DecodedTrace &dec)
{
    const StaticImage &image = dec.image();
    const std::size_t nblocks = dec.numBlocks();
    if (nblocks == 0)
        return;
    t.ran = true;

    const unsigned nb = t.numBlocks;
    // ctxs[0]: last block of the currently fetching group; ctxs[1..]
    // the next group's blocks.
    std::vector<BatchBlockCtx> ctxs(nb + 1);
    std::array<bool, 4> conflict{};
    std::size_t bi = 0;
    ctxs[0].build(dec, bi, t.lineSize);

    // The first block primes the pipeline alone.
    ++t.uFetchRequests;
    t.reqMispred = 0;
    countBlockUniform(t, ctxs[0]);
    endRequest(t, ctxs[0].numInsts, 1);

    for (;;) {
        const std::size_t g_first = bi + 1;
        const std::size_t g_count = g_first < nblocks
            ? std::min<std::size_t>(nb, nblocks - g_first) : 0;
        if (g_count == 0)
            break;
        mbbp_assert(dec.startPc(g_first) == ctxs[0].blk.nextPc,
                    "block index out of sync");
        for (std::size_t j = 0; j < g_count; ++j)
            ctxs[j + 1].build(dec, g_first + j, t.lineSize);
        for (std::size_t j = 1; j < g_count; ++j) {
            bool c = false;
            for (std::size_t i = 0; i < j && !c; ++i)
                c = batchBankConflict(ctxs[i + 1], ctxs[j + 1],
                                      t.numBanks);
            conflict[j] = c;
        }

        ++t.uFetchRequests;
        t.reqMispred = 0;
        delayedTick(t);
        uint64_t req_insts = 0;
        for (std::size_t j = 0; j < g_count; ++j) {
            countBlockUniform(t, ctxs[j + 1]);
            req_insts += ctxs[j + 1].numInsts;
        }
        for (std::size_t j = 1; j < g_count; ++j) {
            if (conflict[j]) {
                ++t.uBankEvents;
                t.uBankCycles += t.pcycles[static_cast<unsigned>(
                    PenaltyKind::BankConflict)][j];
            }
        }

        // Slot 0: B's own exit via BIT+PHT.
        phtIndexes(t, ctxs[0].blk.startPc >> t.shift, t.idx1);
        scanBlock(t, ctxs[0], t.idx1, t.scanB);
        bitStage(t, ctxs[0], image, t.idx1, t.scanB);
        uint64_t squashed = resolveAndCharge(
            t, ctxs[0], t.scanB, 0, ctxs[0].blk.startPc, 0,
            t.allMask);
        t.uPhtUpdates += ctxs[0].conds.size();
        trainConds(t, ctxs[0], t.idx1);
        ghrShift(t, ghrInsertBits(ctxs[0]), ctxs[0].numConds);
        rasApply(t, ctxs[0]);
        nlsUpdate(t, ctxs[0], ctxs[0].blk.startPc, 0);

        // Slots k = 1..: select-table predictions, all indexed by
        // idx1; a charge at any earlier slot squashes the later
        // ones' penalties (but never their reads, writes, or
        // training).
        for (std::size_t k = 1; k < g_count; ++k) {
            const BatchBlockCtx &prev = ctxs[k];
            const unsigned ku = static_cast<unsigned>(k);
            phtIndexes(t, prev.blk.startPc >> t.shift, t.idx2);
            scanBlock(t, prev, t.idx2, t.scanC);

            ++t.uSelReads;
            ++t.uSelWrites;
            const uint64_t tab_addr = prev.blk.startPc;
            const uint64_t w_offset =
                (prev.blk.nextPc & t.lineMask) & 0xff;
            const std::size_t pad_n = t.padN;
            uint64_t *soff = t.stOff.data();
            for (std::size_t l = 0; l < pad_n; ++l)
                soff[l] = t.stBase[l] +
                    ((tab_addr & t.stTabMask[l]) * t.stEntries[l] +
                     t.idx1[l]) *
                        t.stSlots[l] +
                    (k - 1);
            gatherWords(t.st.data(), soff, t.stWord.data(), pad_n);
            for (std::size_t l = 0; l < pad_n; ++l)
                t.expWord[l] = t.scanC.src[l] |
                    ((t.scanC.posByte[l] & 0xff) << 8) |
                    (t.scanC.nnt[l] << 16) |
                    (((t.scanC.found >> l) & 1) << 24) |
                    (w_offset << 32) | (uint64_t{ 1 } << 40);

            const unsigned missel_cycles = t.pcycles[static_cast<
                unsigned>(PenaltyKind::Misselect)][ku];
            const unsigned ghr_cycles = t.pcycles[static_cast<
                unsigned>(PenaltyKind::GhrMispredict)][ku];
            const uint64_t gate = t.allMask & ~squashed;
            for (uint64_t m = gate; m; m &= m - 1) {
                const unsigned l = static_cast<unsigned>(
                    std::countr_zero(m));
                const uint64_t diff = t.stWord[l] ^ t.expWord[l];
                if (diff & 0xffff) {
                    chargeLane(t, l, prev.blk.startPc, ku,
                               PenaltyKind::Misselect,
                               missel_cycles);
                } else if (diff & 0xffff0000) {
                    chargeLane(t, l, prev.blk.startPc, ku,
                               PenaltyKind::GhrMispredict,
                               ghr_cycles);
                }
                // No stored-offset rule: the multi-block engine
                // models plain single selection.
            }
            squashed |= resolveAndCharge(t, prev, t.scanC, ku,
                                         ctxs[0].blk.startPc, ku,
                                         gate);
            uint64_t *st = t.st.data();
            for (unsigned l = 0; l < t.n; ++l)
                st[soff[l]] = t.expWord[l];

            nlsUpdate(t, prev, ctxs[0].blk.startPc, ku);
            t.uPhtUpdates += prev.conds.size();
            trainConds(t, prev, t.idx2);
            ghrShift(t, ghrInsertBits(prev), prev.numConds);
            rasApply(t, prev);
        }

        endRequest(t, req_insts, g_count);

        if (g_count < nb)
            break;      // block index exhausted mid-group
        bi = g_first + g_count - 1;
        std::swap(ctxs[0], ctxs[g_count]);
    }
}

/** runTwoAheadTile over the SoA tile: per-lane state is just the
 *  two-ahead address table plus a two-deep pending ring whose
 *  occupancy (pcount/phead) is block-stream-driven and therefore
 *  tile-uniform; only the ring's contents are per lane. */
void
runTwoAheadImpl(SoaTile &t, const DecodedTrace &dec)
{
    const std::size_t nblocks = dec.numBlocks();
    const std::size_t pad_n = t.padN;

    std::vector<uint64_t> pend_idx[2], pend_pred[2];
    pend_idx[0].assign(pad_n, 0);
    pend_idx[1].assign(pad_n, 0);
    pend_pred[0].assign(pad_n, 0);
    pend_pred[1].assign(pad_n, 0);
    uint64_t pend_valid[2] = { 0, 0 };
    unsigned pcount = 0, phead = 0;
    uint64_t req_insts0 = 0, req_blocks = 0;
    bool req_open = false;

    BatchBlockCtx cur, prevCtx;
    for (std::size_t b = 0; b < nblocks; ++b) {
        t.ran = true;
        cur.build(dec, b, t.lineSize);
        // Second slot of a request: stash (= block b-1) vs this one.
        const bool conflict = (b >= 2 && b % 2 == 0)
            ? batchBankConflict(prevCtx, cur, t.numBanks) : false;

        if (b == 0) {
            ++t.uFetchRequests;
            req_open = true;
            t.reqMispred = 0;
            req_insts0 = t.uInstructions;
            req_blocks = 0;
        } else if (b % 2 == 1) {
            endRequest(t, t.uInstructions - req_insts0, req_blocks);
            ++t.uFetchRequests;
            t.reqMispred = 0;
            req_insts0 = t.uInstructions;
            req_blocks = 0;
        } else if (conflict) {
            ++t.uBankEvents;
            t.uBankCycles += t.pcycles[static_cast<unsigned>(
                PenaltyKind::BankConflict)][1];
        }
        // batchCountBlockStats only: the two-ahead engine never
        // touches the i-cache model (countBlockUniform would).
        t.uInstructions += cur.numInsts;
        t.uBlocks += 1;
        t.uBranches += cur.numBranches;
        t.uConds += cur.numConds;
        t.uNearConds += cur.numNearConds;
        ++req_blocks;

        // Score the prediction made two blocks ago. The mispredict
        // kind and cycle count come from the previous block's
        // uniform facts; only the hit/miss split is per lane.
        if (pcount == 2) {
            const std::vector<uint64_t> &pidx = pend_idx[phead];
            const std::vector<uint64_t> &ppred = pend_pred[phead];
            const uint64_t pvalid = pend_valid[phead];
            phead ^= 1;
            --pcount;
            const unsigned slot = b % 2 == 1 ? 0u : 1u;
            PenaltyKind kind = PenaltyKind::MisfetchImmediate;
            if (prevCtx.endsTaken) {
                if (prevCtx.exitIsCond)
                    kind = PenaltyKind::CondMispredict;
                else if (prevCtx.exitIsReturn)
                    kind = PenaltyKind::ReturnMispredict;
                else if (prevCtx.exitIsIndirect)
                    kind = PenaltyKind::MisfetchIndirect;
            } else {
                kind = prevCtx.numConds > 0
                    ? PenaltyKind::CondMispredict
                    : PenaltyKind::MisfetchImmediate;
            }
            const unsigned cycles =
                t.pcycles[static_cast<unsigned>(kind)][slot];
            const bool is_cond =
                kind == PenaltyKind::CondMispredict;
            uint64_t wrong = ~pvalid & t.allMask;
            for (uint64_t m = pvalid & t.allMask; m; m &= m - 1) {
                const unsigned l = static_cast<unsigned>(
                    std::countr_zero(m));
                if (ppred[l] != cur.blk.startPc)
                    wrong |= uint64_t{ 1 } << l;
            }
            for (uint64_t m = wrong; m; m &= m - 1) {
                const unsigned l = static_cast<unsigned>(
                    std::countr_zero(m));
                chargeLane(t, l, prevCtx.blk.startPc, slot, kind,
                           cycles);
                if (is_cond)
                    ++t.stats[l].condDirectionWrong;
            }
            // The table learns the truth for every lane, before
            // this block's own prediction reads it (the reference
            // order).
            Addr *ta = t.taAddr.data();
            uint8_t *tv = t.taValid.data();
            for (unsigned l = 0; l < t.n; ++l) {
                const uint64_t e = t.taBase[l] + pidx[l];
                ta[e] = cur.blk.startPc;
                tv[e] = 1;
            }
        }

        // Make this block's two-ahead prediction.
        std::vector<uint64_t> &nidx = pend_idx[(phead + pcount) % 2];
        std::vector<uint64_t> &npred =
            pend_pred[(phead + pcount) % 2];
        uint64_t nvalid = 0;
        const uint64_t *g = t.ghr.data();
        const Addr *ta = t.taAddr.data();
        const uint8_t *tv = t.taValid.data();
        for (unsigned l = 0; l < t.n; ++l) {
            const uint64_t ix =
                (g[l] ^ xorFold(cur.lineAddr, static_cast<unsigned>(
                                    t.histBits[l]))) &
                t.idxMask[l];
            const uint64_t e = t.taBase[l] + ix;
            nidx[l] = ix;
            npred[l] = ta[e];
            nvalid |= static_cast<uint64_t>(tv[e] != 0) << l;
        }
        pend_valid[(phead + pcount) % 2] = nvalid;
        ++pcount;

        ghrShift(t, ghrInsertBits(cur), cur.numConds);

        std::swap(prevCtx, cur);
    }

    if (req_open)
        endRequest(t, t.uInstructions - req_insts0, req_blocks);
}

} // namespace

const LaneSoaKernels &
kernels()
{
    static const LaneSoaKernels k{ &runSingleImpl, &runDualImpl,
                                   &runMultiImpl, &runTwoAheadImpl };
    return k;
}

} // namespace MBBP_SOA_NS
} // namespace mbbp
