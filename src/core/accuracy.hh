/**
 * @file
 * Conditional-branch accuracy simulators for Figure 6: the blocked
 * PHT (per-block history update) against a size-matched scalar
 * two-level predictor (per-branch update, 8 per-address PHTs).
 */

#ifndef MBBP_CORE_ACCURACY_HH
#define MBBP_CORE_ACCURACY_HH

#include "fetch/icache_model.hh"
#include "trace/decoded_trace.hh"
#include "trace/trace.hh"

namespace mbbp
{

/** Direction-prediction accuracy over one trace. */
struct AccuracyResult
{
    uint64_t condBranches = 0;
    uint64_t mispredicts = 0;

    double missRate() const;        //!< fraction mispredicted
    double accuracy() const;        //!< 1 - missRate

    void accumulate(const AccuracyResult &other);
};

/**
 * Run the blocked PHT over @p trace: one entry of b counters per
 * lookup, GHR updated per block. Blocks are segmented with the given
 * cache geometry (the paper's default: normal, b = 8).
 */
AccuracyResult blockedPhtAccuracy(const InMemoryTrace &trace,
                                  unsigned history_bits,
                                  const ICacheConfig &icache);

/**
 * The blocked PHT over an already decoded trace, with @p num_phts
 * per-block tables selected by block-address bits (Section 2's
 * per-block variation; 1 = the single shared PHT above). Blocks are
 * the artifact's own, cut for its geometry, so one decode serves
 * every (history, table count) variant. With num_phts = 1 this
 * equals the InMemoryTrace overload at the artifact's geometry.
 */
AccuracyResult blockedPhtAccuracy(const DecodedTrace &dec,
                                  unsigned history_bits,
                                  unsigned num_phts);

/**
 * Run the scalar reference over @p trace: @p num_phts per-address
 * PHTs (address low bits select the table, the GHR indexes within),
 * history updated per branch. With num_phts = b the storage matches
 * the blocked PHT exactly. With @p gshare, a single table indexed by
 * GHR XOR address is used instead (McFarling).
 */
AccuracyResult scalarAccuracy(const InMemoryTrace &trace,
                              unsigned history_bits,
                              unsigned num_phts,
                              bool gshare = false);

} // namespace mbbp

#endif // MBBP_CORE_ACCURACY_HH
