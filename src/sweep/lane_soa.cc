/**
 * @file
 * SoA tile construction, result folding, eligibility, and the
 * runtime kernel dispatch table (see lane_soa.hh).
 */

#include "sweep/lane_soa.hh"

#include <map>

#include "fetch/penalty_model.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace mbbp
{

// Per-ISA kernel tables, instantiated from lane_soa_impl.hh.
namespace soa_scalar
{
const LaneSoaKernels &kernels();
}
#if defined(MBBP_SIMD_X86)
namespace soa_avx2
{
const LaneSoaKernels &kernels();
}
namespace soa_avx512
{
const LaneSoaKernels &kernels();
}
#endif

const char *
soaFallbackName(SoaFallback reason)
{
    switch (reason) {
      case SoaFallback::Eligible:
        return "eligible";
      case SoaFallback::FiniteICache:
        return "finite_icache";
      case SoaFallback::BtbTarget:
        return "btb_target";
      case SoaFallback::TargetGeometry:
        return "target_geometry";
      case SoaFallback::NoRas:
        return "no_ras";
      case SoaFallback::BlockWidth:
        return "block_width";
      case SoaFallback::SelectGeometry:
        return "select_geometry";
      case SoaFallback::DoubleSelect:
        return "double_select";
      case SoaFallback::BitGeometry:
        return "bit_geometry";
    }
    return "unknown";
}

SoaFallback
laneSoaFallback(BatchEngineKind kind, const FetchEngineConfig &cfg)
{
    // TwoAhead lanes carry only a GHR and the two-ahead address
    // table: none of the structures the other gates protect are
    // touched, so everything but doubleSelect (which the reference
    // engine asserts against) is columnar.
    if (kind == BatchEngineKind::TwoAhead)
        return cfg.doubleSelect ? SoaFallback::DoubleSelect
                                : SoaFallback::Eligible;
    // Double selection is a Dual-only mechanism; the reference
    // BatchLane asserts it away for Single and Multi.
    if (cfg.doubleSelect && kind != BatchEngineKind::Dual)
        return SoaFallback::DoubleSelect;
    // Finite i-cache contents keep per-lane, per-access LRU
    // replacement state: the only remaining scalar-fallback feature.
    if (cfg.icacheLines != 0)
        return SoaFallback::FiniteICache;
    if (cfg.targetKind != TargetKind::Nls)
        return SoaFallback::BtbTarget;
    if (cfg.targetEntries == 0 ||
        !isPowerOf2(cfg.targetEntries))
        return SoaFallback::TargetGeometry;
    if (cfg.rasEntries == 0)
        return SoaFallback::NoRas;
    // PHT rows index by blockWidth - 1 and the kernels split PCs
    // into line and position with a shift and a mask.
    if (!isPowerOf2(cfg.icache.blockWidth) ||
        !isPowerOf2(cfg.icache.lineSize))
        return SoaFallback::BlockWidth;
    // The arena direct-maps lines with bitEntries - 1 as the mask.
    if (cfg.bitEntries != 0 && !isPowerOf2(cfg.bitEntries))
        return SoaFallback::BitGeometry;
    // Select-table kinds flat-index (table * entries + idx) * slots,
    // which requires the gshare index to stay inside one table.
    if ((kind == BatchEngineKind::Dual ||
         kind == BatchEngineKind::Multi) &&
        (cfg.numPhts != 1 || !isPowerOf2(cfg.numSelectTables)))
        return SoaFallback::SelectGeometry;
    return SoaFallback::Eligible;
}

bool
laneSoaEligible(BatchEngineKind kind, const FetchEngineConfig &cfg)
{
    return laneSoaFallback(kind, cfg) == SoaFallback::Eligible;
}

void
SoaTile::build(BatchEngineKind k, unsigned num_blocks,
               const std::vector<const FetchEngineConfig *> &cs,
               unsigned line_size)
{
    kind = k;
    n = static_cast<unsigned>(cs.size());
    mbbp_assert(n >= 1 && n <= 64, "SoA tiles carry 1..64 lanes");
    padN = (n + kPad - 1) / kPad * kPad;
    allMask = n == 64 ? ~uint64_t{ 0 } : (uint64_t{ 1 } << n) - 1;
    numBlocks = kind == BatchEngineKind::Multi ? num_blocks
        : kind == BatchEngineKind::Dual        ? 2
                                               : 1;
    mbbp_assert(isPowerOf2(line_size),
                "SoA tiles need a power-of-two line size");
    lineSize = line_size;
    lineShift = static_cast<unsigned>(floorLog2(line_size));
    lineMask = line_size - 1;
    blockWidth = cs[0]->icache.blockWidth;
    shift = static_cast<unsigned>(floorLog2(blockWidth));
    numBanks = cs[0]->icache.numBanks;
    nlsArrays = kind == BatchEngineKind::Multi ? numBlocks
        : kind == BatchEngineKind::Dual        ? 2
                                               : 1;
    anyMultiPht = false;
    ran = false;
    nearMask = storedOffMask = 0;
    dsMask = delayedMask = bitMask = 0;

    phtBase.assign(padN, 0);
    ghr.assign(padN, 0);
    idxMask.assign(padN, 0);
    phtTabMask.assign(padN, 0);
    histBits.assign(padN, 0);
    stBase.assign(padN, 0);
    stTabMask.assign(padN, 0);
    stEntries.assign(padN, 0);
    stSlots.assign(padN, 0);
    nlsBase.assign(padN, 0);
    nlsIdxMask.assign(padN, 0);
    rasOf.assign(padN, 0);
    bitBase.assign(padN, 0);
    bitEntMask.assign(padN, 0);
    taBase.assign(padN, 0);
    rasPeeks.assign(n, 0);
    phtLookups.assign(n, 0);
    stats.assign(n, FetchStats{});
    bwRuns.assign(n, obs::HistogramData{});
    cleanRun.assign(n, 0);
    attr.clear();
    for (unsigned l = 0; l < n; ++l)
        attr.push_back(std::make_unique<obs::AttributionSink>());

    const PenaltyModel pm(false);
    const PenaltyModel pmds(true);
    for (unsigned pk = 0; pk < numPenaltyKinds; ++pk)
        for (unsigned slot = 0; slot < 4; ++slot) {
            pcycles[pk][slot] =
                pm.cycles(static_cast<PenaltyKind>(pk), slot);
            pcyclesDS[pk][slot] =
                pmds.cycles(static_cast<PenaltyKind>(pk), slot);
        }
    refetchExtra = pm.refetchExtra();

    for (SoaTile::Scan *s : { &scanB, &scanC }) {
        s->src.assign(padN, 0);
        s->off.assign(padN, 0);
        s->posByte.assign(padN, 0);
        s->nnt.assign(padN, 0);
        s->tgt.assign(padN, 0);
    }
    idx1.assign(padN, 0);
    idx2.assign(padN, 0);
    gatherOff.assign(padN, 0);
    gatherVal.assign(padN, 0);
    stOff.assign(padN, 0);
    stWord.assign(padN, 0);
    expWord.assign(padN, 0);

    if (kind == BatchEngineKind::TwoAhead) {
        // The two-ahead kind replaces every predictor structure
        // with one address table per lane; none of the PHT / ST /
        // NLS / RAS / BIT arenas below apply.
        std::size_t ta_words = 0;
        for (unsigned l = 0; l < n; ++l) {
            const FetchEngineConfig &c = *cs[l];
            mbbp_assert(laneSoaEligible(kind, c),
                        "ineligible lane in SoA tile");
            idxMask[l] = mask(c.historyBits);
            histBits[l] = c.historyBits;
            taBase[l] = ta_words;
            ta_words += std::size_t{ 1 } << c.historyBits;
        }
        taAddr.assign(ta_words, 0);
        taValid.assign(ta_words, 0);
        return;
    }

    const bool has_select = kind == BatchEngineKind::Dual ||
        kind == BatchEngineKind::Multi;
    std::size_t pht_words = 0, st_words = 0, nls_words = 0;
    std::size_t bit_words = 0;
    std::map<std::size_t, uint32_t> group_of;
    for (unsigned l = 0; l < n; ++l) {
        const FetchEngineConfig &c = *cs[l];
        mbbp_assert(laneSoaEligible(kind, c),
                    "ineligible lane in SoA tile");
        const uint64_t lane_bit = uint64_t{ 1 } << l;
        const std::size_t entries = std::size_t{ 1 }
            << c.historyBits;

        phtBase[l] = pht_words;
        pht_words += entries * c.numPhts * blockWidth;
        idxMask[l] = mask(c.historyBits);
        phtTabMask[l] = c.numPhts - 1;
        histBits[l] = c.historyBits;
        anyMultiPht = anyMultiPht || c.numPhts > 1;
        if (c.nearBlock)
            nearMask |= lane_bit;
        if (c.nearBlockStoredOffset)
            storedOffMask |= lane_bit;
        if (c.delayedPhtUpdate)
            delayedMask |= lane_bit;
        if (c.doubleSelect)
            dsMask |= lane_bit;

        // Double-select lanes never consult their BIT (the
        // reference's stale check is the *else* arm of the
        // double-select stage), so they need no arena.
        if (c.bitEntries != 0 && !c.doubleSelect) {
            mbbp_assert(isPowerOf2(c.bitEntries),
                        "BIT entries must be a power of two");
            bitBase[l] = bit_words;
            bit_words += c.bitEntries * lineSize;
            bitEntMask[l] = c.bitEntries - 1;
            bitMask |= lane_bit;
        }

        if (has_select) {
            const std::size_t slots =
                kind == BatchEngineKind::Dual
                ? (c.doubleSelect ? 2u : 1u)
                : (numBlocks > 1 ? numBlocks - 1 : 1u);
            stBase[l] = st_words;
            st_words += entries * c.numSelectTables * slots;
            stTabMask[l] = c.numSelectTables - 1;
            stEntries[l] = entries;
            stSlots[l] = slots;
        }

        nlsBase[l] = nls_words;
        nls_words += c.targetEntries * nlsArrays * lineSize;
        nlsIdxMask[l] = c.targetEntries - 1;

        auto [it, fresh] = group_of.try_emplace(
            c.rasEntries,
            static_cast<uint32_t>(rasGroups.size()));
        if (fresh)
            rasGroups.push_back(
                std::make_unique<SoaRasGroup>(c.rasEntries));
        rasOf[l] = it->second;
    }

    // Pad lanes alias dedicated scratch slots (their masks are zero,
    // so every pad-lane access lands inside the scratch region).
    for (std::size_t l = n; l < padN; ++l) {
        phtBase[l] = pht_words;
        stBase[l] = st_words;
        nlsBase[l] = nls_words;
    }
    // PHT arena: + blockWidth scratch bytes for the pad lanes, + 8
    // trailing bytes so the 8-byte vector gathers never read past
    // the allocation. Counters start at 2 (SatCounter(2, 2)).
    pht.assign(pht_words + blockWidth + 8, 2);
    // ST scratch: pad lanes have stSlots 0, so their word offset is
    // st_words + slot with slot <= 3.
    st.assign(has_select ? st_words + 4 : 0, 0);
    nls.assign(nls_words + nlsArrays * lineSize, 0);
    // BIT arenas are scalar-accessed (bitMask lanes only), so no
    // pad-lane scratch is needed. All-lines-NonBranch start state.
    bit.assign(bit_words, 0);
    bitTag.assign(bit_words >> lineShift, 0);
    lineCodes.clear();
    lineKeys.assign(bitMask ? 64 : 0, 0);
    lineRows.assign(lineKeys.size(), 0);

    stagedHead = stagedCount = 0;
    for (StagedBatch &b : staged) {
        b.nblocks = 0;
        for (StagedBlock &blk : b.blocks) {
            blk.idx.assign(delayedMask ? padN : 0, 0);
            blk.conds.clear();
        }
    }
}

const uint8_t *
SoaTile::fillLineCodes(const StaticImage &image, Addr line,
                       std::size_t slot)
{
    const std::size_t rows_filled = lineCodes.size() >> (lineShift + 1);
    if (2 * (rows_filled + 1) > lineKeys.size()) {
        std::vector<Addr> keys(2 * lineKeys.size(), 0);
        std::vector<uint32_t> rows(keys.size(), 0);
        keys.swap(lineKeys);
        rows.swap(lineRows);
        const std::size_t slot_mask = lineKeys.size() - 1;
        for (std::size_t j = 0; j < keys.size(); ++j) {
            if (keys[j] == 0)
                continue;
            std::size_t i = lineSlot(keys[j] - 1);
            while (lineKeys[i] != 0)
                i = (i + 1) & slot_mask;
            lineKeys[i] = keys[j];
            lineRows[i] = rows[j];
        }
        slot = lineSlot(line);
        while (lineKeys[slot] != 0)
            slot = (slot + 1) & slot_mask;
    }
    lineKeys[slot] = line + 1;
    lineRows[slot] = static_cast<uint32_t>(rows_filled);
    lineCodes.resize((rows_filled + 1) << (lineShift + 1));
    uint8_t *codes =
        lineCodes.data() + (rows_filled << (lineShift + 1));
    batchTrueLineCodes(image, line, lineSize, true, codes);
    batchTrueLineCodes(image, line, lineSize, false, codes + lineSize);
    return codes;
}

std::vector<FetchStats>
SoaTile::finish()
{
    std::vector<FetchStats> out(n);
    const bool two_ahead = kind == BatchEngineKind::TwoAhead;
    // The reference flushes nothing for an empty trace -- except the
    // two-ahead engine, whose teardown (attribution, bandwidth
    // histograms, runs counter) is unconditional.
    if (!ran && !two_ahead)
        return out;

    const std::string prefix =
        std::string("engine.") + batchEngineKindName(kind);
    const std::string insts_name = prefix + ".insts_per_request";
    const std::string blocks_name = prefix + ".blocks_per_request";
    const std::string runs_name = prefix + ".mispredict_run";
    const std::string runs_counter = prefix + ".runs";
    const auto bank =
        static_cast<std::size_t>(PenaltyKind::BankConflict);
    const bool has_select = kind == BatchEngineKind::Dual ||
        kind == BatchEngineKind::Multi;
    // Only the one- and two-block engines model BBR occupancy.
    const bool has_bbr = kind == BatchEngineKind::Single ||
        kind == BatchEngineKind::Dual;

    for (unsigned l = 0; l < n; ++l) {
        const uint64_t lane_bit = uint64_t{ 1 } << l;
        FetchStats &s = out[l];
        s = stats[l];
        s.instructions = uInstructions;
        s.fetchRequests = uFetchRequests;
        s.blocksFetched = uBlocks;
        s.branchesExecuted = uBranches;
        s.condExecuted = uConds;
        s.nearBlockConds = uNearConds;
        s.icacheAccesses = uIcacheAccesses;
        s.penaltyCycles[bank] += uBankCycles;
        s.penaltyEvents[bank] += uBankEvents;

        if (!two_ahead) {
            const SoaRasGroup &g = *rasGroups[rasOf[l]];
            s.rasOverflows = g.overflows;
            if (has_bbr)
                s.bbrPeak = bbrPeak;

            // The reference per-lane flush sequence (BatchLane
            // teardown in runSingleTile/runDualTile/runMultiTile).
            // Delayed-update lanes report only the applied batches;
            // the trailing two are never flushed, like PhtTrainer.
            obs::flushCounter("predict.pht.lookup", phtLookups[l]);
            obs::flushCounter("predict.pht.update",
                              (delayedMask & lane_bit)
                                  ? uPhtUpdatesDelayed
                                  : uPhtUpdates);
            if (bitMask & lane_bit) {
                obs::flushCounter("predict.bit.probe", uBitProbes);
                obs::flushCounter("predict.bit.update", uBitUpdates);
            }
            obs::flushCounter("predict.ras.push", g.pushes);
            obs::flushCounter("predict.ras.pop", g.pops);
            obs::flushCounter("predict.ras.bypass", rasPeeks[l]);
            if (has_select) {
                const bool ds = (dsMask & lane_bit) != 0;
                obs::flushCounter("predict.select.read",
                                  ds ? uSelReadsDS : uSelReads);
                obs::flushCounter("predict.select.write",
                                  ds ? uSelWritesDS : uSelWrites);
            }
        }
        attr[l]->flush();
        obs::flushHistogram(insts_name, bwInsts);
        obs::flushHistogram(blocks_name, bwBlocks);
        obs::flushHistogram(runs_name, bwRuns[l]);
        obs::flushCounter(runs_counter, 1);
    }
    return out;
}

const LaneSoaKernels &
laneSoaKernelsFor(simd::Level level)
{
#if defined(MBBP_SIMD_X86)
    switch (level) {
      case simd::Level::Avx512:
        return soa_avx512::kernels();
      case simd::Level::Avx2:
        return soa_avx2::kernels();
      case simd::Level::Scalar:
        break;
    }
#else
    (void)level;
#endif
    return soa_scalar::kernels();
}

} // namespace mbbp
