#include "trace/static_image.hh"

#include <algorithm>

namespace mbbp
{

void
StaticImage::add(const DynInst &inst)
{
    if (frozen_)
        thaw();
    StaticInfo &info = map_[inst.pc];
    info.cls = inst.cls;
    if (isDirect(inst.cls)) {
        // Direct targets are instruction-encoded and thus static;
        // conditional records carry the target even when not taken.
        info.target = inst.target;
        info.hasStaticTarget = true;
    } else if (inst.taken) {
        // Remember the most recent dynamic target of an indirect
        // transfer; callers must not rely on it being static.
        info.target = inst.target;
    }
}

StaticImage
StaticImage::fromTrace(const InMemoryTrace &trace)
{
    StaticImage img;
    for (const auto &inst : trace.insts())
        img.add(inst);
    img.freeze();
    return img;
}

void
StaticImage::freeze()
{
    if (frozen_)
        return;
    keys_.clear();
    keys_.reserve(map_.size());
    for (const auto &kv : map_)
        keys_.push_back(kv.first);
    std::sort(keys_.begin(), keys_.end());
    infos_.clear();
    infos_.reserve(keys_.size());
    for (Addr pc : keys_)
        infos_.push_back(map_.find(pc)->second);
    // A frozen lookup() never reads the map.
    std::unordered_map<Addr, StaticInfo>().swap(map_);
    frozen_ = true;
}

void
StaticImage::thaw()
{
    map_.reserve(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i)
        map_.emplace(keys_[i], infos_[i]);
    std::vector<Addr>().swap(keys_);
    std::vector<StaticInfo>().swap(infos_);
    frozen_ = false;
}

StaticImage
StaticImage::fromFlat(const std::vector<Addr> &keys,
                      const std::vector<StaticInfo> &infos)
{
    StaticImage img;
    for (std::size_t i = 0; i < keys.size(); ++i)
        img.map_.emplace(keys[i], infos[i]);
    img.freeze();
    return img;
}

std::size_t
StaticImage::bytes() const
{
    // The map's nodes carry bucket/next-pointer overhead the standard
    // does not expose; 2 pointers per node is a fair estimate.
    std::size_t map_bytes =
        map_.size() *
        (sizeof(Addr) + sizeof(StaticInfo) + 2 * sizeof(void *));
    return map_bytes + keys_.capacity() * sizeof(Addr) +
           infos_.capacity() * sizeof(StaticInfo);
}

StaticInfo
StaticImage::lookup(Addr pc) const
{
    if (!frozen_) {
        auto it = map_.find(pc);
        return it == map_.end() ? StaticInfo{} : it->second;
    }
    if (keys_.empty())
        return {};
    // Branchless lower bound: every iteration halves the range with a
    // conditional move, no unpredictable compare-and-jump.
    const Addr *base = keys_.data();
    std::size_t len = keys_.size();
    while (len > 1) {
        std::size_t half = len / 2;
        base += (base[half - 1] < pc) ? half : 0;
        len -= half;
    }
    std::size_t idx = static_cast<std::size_t>(base - keys_.data());
    return *base == pc ? infos_[idx] : StaticInfo{};
}

} // namespace mbbp
