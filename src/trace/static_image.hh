/**
 * @file
 * A static view of the program text reconstructed from (or supplied
 * with) a trace: instruction class and static branch target per PC.
 *
 * The fetch predictors scan *cache lines*, so they need the types of
 * instructions that sit after a taken branch in the same line even
 * though the correct-path trace never executes them from there. The
 * pre-decoded BIT-in-cache configuration has exactly this static
 * knowledge; StaticImage provides it to the simulator. PCs never seen
 * report NonBranch, which matches what a pre-decoder would emit for
 * data or padding.
 *
 * Two representations share the class, one at a time: a hash map
 * while the image is being built incrementally with add(), and --
 * after freeze() -- a sorted flat (keys, infos) pair searched with a
 * branchless binary search. The frozen form is what the replay
 * artifact ships to the engines: lookup() in the fetch inner loop
 * touches two small dense arrays instead of chasing hash buckets.
 */

#ifndef MBBP_TRACE_STATIC_IMAGE_HH
#define MBBP_TRACE_STATIC_IMAGE_HH

#include <unordered_map>
#include <vector>

#include "trace/trace.hh"

namespace mbbp
{

/** Per-PC static instruction information. */
struct StaticInfo
{
    InstClass cls = InstClass::NonBranch;
    Addr target = 0;            //!< static target (direct branches)
    bool hasStaticTarget = false;
};

/** PC -> static info map. */
class StaticImage
{
  public:
    StaticImage() = default;

    /** Record one instruction (later records win for target info). */
    void add(const DynInst &inst);

    /** Scan a whole trace; the result is frozen. */
    static StaticImage fromTrace(const InMemoryTrace &trace);

    /**
     * Convert to the sorted flat representation and release the map.
     * lookup() afterwards is a branchless binary search; a subsequent
     * add() rebuilds the map from the flat arrays and uses it until
     * freeze() is called again.
     */
    void freeze();

    /** Is the flat representation current? */
    bool frozen() const { return frozen_; }

    /** @{ Flat-form access for (de)serialization; require frozen(). */
    const std::vector<Addr> &frozenKeys() const { return keys_; }
    const std::vector<StaticInfo> &frozenInfos() const
    {
        return infos_;
    }

    /**
     * Rebuild a frozen image from parallel (keys, infos) arrays, the
     * inverse of frozenKeys()/frozenInfos(). The artifact-file loader
     * uses this; like any frozen image, a later add() still behaves.
     */
    static StaticImage fromFlat(const std::vector<Addr> &keys,
                                const std::vector<StaticInfo> &infos);
    /** @} */

    /** Look up a PC; unknown PCs are NonBranch. */
    StaticInfo lookup(Addr pc) const;

    std::size_t size() const
    {
        return frozen_ ? keys_.size() : map_.size();
    }

    /** Approximate heap footprint. */
    std::size_t bytes() const;

  private:
    /** Back to the map form (add() on a frozen image). */
    void thaw();

    std::unordered_map<Addr, StaticInfo> map_;
    std::vector<Addr> keys_;            //!< sorted PCs (frozen form)
    std::vector<StaticInfo> infos_;     //!< parallel to keys_
    bool frozen_ = false;
};

} // namespace mbbp

#endif // MBBP_TRACE_STATIC_IMAGE_HH
