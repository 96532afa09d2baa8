#include "trace/artifact_file.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/obs.hh"
#include "util/logging.hh"

namespace mbbp
{

namespace
{

/**
 * Bump when the file layout *or anything upstream of the decode*
 * (trace generator, segmentation rules) changes: the version salts
 * the key hash, so stale artifacts from older builds simply miss.
 */
constexpr uint32_t kFormatVersion = 1;

constexpr char kMagic[8] = { 'M', 'B', 'B', 'P',
                             'A', 'R', 'T', '1' };
constexpr uint32_t kByteOrder = 0x01020304;
constexpr std::size_t kSectionAlign = 64;

/** Section ids, also the fixed write order. */
enum SectionId : uint32_t
{
    kInsts = 1,
    kStartPc,
    kNextPc,
    kFirstInst,
    kNumInsts,
    kExitIdx,
    kCondMask,
    kNumConds,
    kNumNotTaken,
    kBranches,
    kNearConds,
    kRasOp,
    kWindowLen,
    kCodesOffset,
    kCodesNear,
    kCodesPlain,
    kImageKeys,
    kImageInfos,
    kNumSectionIds = kImageInfos
};

struct FileHeader
{
    char magic[8];
    uint32_t version;
    uint32_t byteOrder;
    uint64_t keyHash;
    uint64_t payloadBytes;      //!< bytes after the header block
    uint64_t payloadHash;       //!< FNV-1a of the payload
    uint64_t instructions;
    uint32_t blockWidth;
    uint32_t lineSize;
    uint32_t cacheType;
    uint32_t sizeofDynInst;
    uint32_t sizeofStaticInfo;
    uint32_t sizeofBitCode;
    uint32_t numSections;
    uint32_t reserved;
};
static_assert(sizeof(FileHeader) == 80,
              "header layout must be padding-free");

struct SectionEntry
{
    uint32_t id;
    uint32_t elemSize;
    uint64_t count;
    uint64_t offset;            //!< from file start; 64-aligned
};
static_assert(sizeof(SectionEntry) == 24,
              "section entry layout must be padding-free");

uint64_t
fnv1a(const void *data, std::size_t n,
      uint64_t h = 14695981039346656037ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::size_t
alignUp(std::size_t v)
{
    return (v + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/** A read-only whole-file mapping; unmapped on destruction. */
class MappedFile
{
  public:
    ~MappedFile()
    {
        if (data_ != MAP_FAILED)
            ::munmap(data_, size_);
    }

    static std::shared_ptr<MappedFile> open(const std::string &path)
    {
        int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            return nullptr;
        struct stat st;
        if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
            ::close(fd);
            return nullptr;
        }
        auto mf = std::make_shared<MappedFile>();
        mf->size_ = static_cast<std::size_t>(st.st_size);
        mf->data_ = ::mmap(nullptr, mf->size_, PROT_READ,
                           MAP_PRIVATE, fd, 0);
        ::close(fd);    // the mapping holds its own reference
        if (mf->data_ == MAP_FAILED)
            return nullptr;
        return mf;
    }

    const unsigned char *data() const
    {
        return static_cast<const unsigned char *>(data_);
    }
    std::size_t size() const { return size_; }

  private:
    void *data_ = MAP_FAILED;
    std::size_t size_ = 0;
};

obs::Counter &
rejectCounter()
{
    static obs::Counter &c = obs::counter("artifact.store.rejects");
    return c;
}

} // namespace

ArtifactKey
ArtifactKey::of(const std::string &trace_name, uint64_t instructions,
                const ICacheConfig &geom)
{
    ArtifactKey key;
    key.trace = trace_name;
    key.instructions = instructions;
    key.cacheType = static_cast<uint8_t>(geom.type);
    key.blockWidth = geom.blockWidth;
    key.lineSize = geom.lineSize;
    return key;
}

uint64_t
ArtifactKey::hash() const
{
    uint64_t h = fnv1a(&kFormatVersion, sizeof(kFormatVersion));
    h = fnv1a(trace.data(), trace.size(), h);
    h = fnv1a(&instructions, sizeof(instructions), h);
    h = fnv1a(&cacheType, sizeof(cacheType), h);
    h = fnv1a(&blockWidth, sizeof(blockWidth), h);
    h = fnv1a(&lineSize, sizeof(lineSize), h);
    return h;
}

std::string
ArtifactKey::fileName() const
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "-%llu-%016llx.mbbpart",
                  static_cast<unsigned long long>(instructions),
                  static_cast<unsigned long long>(hash()));
    return trace + buf;
}

/**
 * Private-member bridge between DecodedTrace and the file layout;
 * the only code that sees the spans directly.
 */
class ArtifactCodec
{
  public:
    struct Column
    {
        uint32_t id;
        uint32_t elemSize;
        uint64_t count;
        const void *data;
    };

    /** Every column of @p dec in fixed section order. */
    static std::vector<Column> columns(const DecodedTrace &dec)
    {
        auto col = [](uint32_t id, const auto &span) {
            using T = std::remove_cvref_t<decltype(span[0])>;
            return Column{ id, sizeof(T), span.size(), span.data() };
        };
        const StaticImage &img = dec.image();
        mbbp_assert(img.frozen(),
                    "artifact requires a frozen StaticImage");
        return {
            col(kInsts, dec.insts_),
            col(kStartPc, dec.startPc_),
            col(kNextPc, dec.nextPc_),
            col(kFirstInst, dec.firstInst_),
            col(kNumInsts, dec.numInsts_),
            col(kExitIdx, dec.exitIdx_),
            col(kCondMask, dec.condMask_),
            col(kNumConds, dec.numConds_),
            col(kNumNotTaken, dec.numNotTaken_),
            col(kBranches, dec.branches_),
            col(kNearConds, dec.nearConds_),
            col(kRasOp, dec.rasOp_),
            col(kWindowLen, dec.windowLen_),
            col(kCodesOffset, dec.codesOffset_),
            col(kCodesNear, dec.codesNear_),
            col(kCodesPlain, dec.codesPlain_),
            Column{ kImageKeys, sizeof(Addr),
                    img.frozenKeys().size(),
                    img.frozenKeys().data() },
            Column{ kImageInfos, sizeof(StaticInfo),
                    img.frozenInfos().size(),
                    img.frozenInfos().data() },
        };
    }

    /**
     * Point @p dec's spans into the mapped sections (already
     * validated for size/alignment) and hand it shared ownership of
     * the mapping. Returns false if the cross-column invariants the
     * replay relies on do not hold.
     */
    static bool fromMapping(DecodedTrace &dec,
                            std::shared_ptr<MappedFile> map,
                            const SectionEntry sections[],
                            const ICacheConfig &geom)
    {
        const unsigned char *base = map->data();
        auto span = [&](SectionId id, auto &out) {
            using T = std::remove_cvref_t<decltype(out[0])>;
            const SectionEntry &s = sections[id - 1];
            out = DecodedTrace::ColumnRef<T>(
                reinterpret_cast<const T *>(base + s.offset),
                s.count);
        };
        span(kInsts, dec.insts_);
        span(kStartPc, dec.startPc_);
        span(kNextPc, dec.nextPc_);
        span(kFirstInst, dec.firstInst_);
        span(kNumInsts, dec.numInsts_);
        span(kExitIdx, dec.exitIdx_);
        span(kCondMask, dec.condMask_);
        span(kNumConds, dec.numConds_);
        span(kNumNotTaken, dec.numNotTaken_);
        span(kBranches, dec.branches_);
        span(kNearConds, dec.nearConds_);
        span(kRasOp, dec.rasOp_);
        span(kWindowLen, dec.windowLen_);
        span(kCodesOffset, dec.codesOffset_);
        span(kCodesNear, dec.codesNear_);
        span(kCodesPlain, dec.codesPlain_);

        // Every block column must agree on the block count, and the
        // per-block offsets must stay inside the shared arrays: a
        // forged-but-hash-consistent file must still not be able to
        // make the replay read out of bounds.
        const std::size_t blocks = dec.startPc_.size();
        if (dec.nextPc_.size() != blocks ||
            dec.firstInst_.size() != blocks ||
            dec.numInsts_.size() != blocks ||
            dec.exitIdx_.size() != blocks ||
            dec.condMask_.size() != blocks ||
            dec.numConds_.size() != blocks ||
            dec.numNotTaken_.size() != blocks ||
            dec.branches_.size() != blocks ||
            dec.nearConds_.size() != blocks ||
            dec.rasOp_.size() != blocks ||
            dec.windowLen_.size() != blocks ||
            dec.codesOffset_.size() != blocks)
            return false;
        if (dec.codesNear_.size() != dec.codesPlain_.size())
            return false;
        const std::size_t ninsts = dec.insts_.size();
        const std::size_t ncodes = dec.codesNear_.size();
        for (std::size_t i = 0; i < blocks; ++i) {
            const std::size_t cnt = dec.numInsts_[i];
            if (cnt == 0 || dec.firstInst_[i] + cnt > ninsts)
                return false;
            if (dec.exitIdx_[i] < -1 ||
                dec.exitIdx_[i] >= static_cast<int>(cnt))
                return false;
            if (static_cast<std::size_t>(dec.codesOffset_[i]) +
                    dec.windowLen_[i] > ncodes)
                return false;
            if (dec.windowLen_[i] < cnt)
                return false;
            if (dec.rasOp_[i] >
                static_cast<uint8_t>(RasOp::Pop))
                return false;
        }

        const SectionEntry &keys = sections[kImageKeys - 1];
        const SectionEntry &infos = sections[kImageInfos - 1];
        if (keys.count != infos.count)
            return false;
        std::vector<Addr> image_keys(
            reinterpret_cast<const Addr *>(base + keys.offset),
            reinterpret_cast<const Addr *>(base + keys.offset) +
                keys.count);
        std::vector<StaticInfo> image_infos(
            reinterpret_cast<const StaticInfo *>(base + infos.offset),
            reinterpret_cast<const StaticInfo *>(base +
                                                 infos.offset) +
                infos.count);
        dec.image_ = StaticImage::fromFlat(image_keys, image_infos);
        dec.geom_ = geom;
        dec.mappedBytes_ = map->size();
        dec.ownedBytes_ = 0;
        dec.storage_ = std::move(map);
        return true;
    }
};

bool
saveDecodedArtifact(const std::string &path, const ArtifactKey &key,
                    const DecodedTrace &dec)
{
    obs::ScopedTimer span("artifact.save", "save " + key.trace);

    std::vector<ArtifactCodec::Column> cols =
        ArtifactCodec::columns(dec);

    // Lay the sections out after the header block, 64-byte aligned.
    const std::size_t header_bytes = alignUp(
        sizeof(FileHeader) + cols.size() * sizeof(SectionEntry));
    std::vector<SectionEntry> table;
    table.reserve(cols.size());
    std::size_t offset = header_bytes;
    for (const auto &c : cols) {
        table.push_back({ c.id, c.elemSize, c.count, offset });
        offset = alignUp(offset + c.count * c.elemSize);
    }
    const std::size_t file_bytes = offset;

    // Assemble the payload in one buffer so it can be hashed and
    // written atomically (temp file + rename).
    std::vector<unsigned char> payload(file_bytes - header_bytes, 0);
    for (std::size_t i = 0; i < cols.size(); ++i)
        if (cols[i].count != 0)
            std::memcpy(payload.data() +
                            (table[i].offset - header_bytes),
                        cols[i].data,
                        cols[i].count * cols[i].elemSize);

    FileHeader hdr{};
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.version = kFormatVersion;
    hdr.byteOrder = kByteOrder;
    hdr.keyHash = key.hash();
    hdr.payloadBytes = payload.size();
    hdr.payloadHash = fnv1a(payload.data(), payload.size());
    hdr.instructions = key.instructions;
    hdr.blockWidth = key.blockWidth;
    hdr.lineSize = key.lineSize;
    hdr.cacheType = key.cacheType;
    hdr.sizeofDynInst = sizeof(DynInst);
    hdr.sizeofStaticInfo = sizeof(StaticInfo);
    hdr.sizeofBitCode = sizeof(BitCode);
    hdr.numSections = static_cast<uint32_t>(cols.size());

    // A temp name of this writer's own, in the target's directory:
    // concurrent savers of one key (two daemons sharing an artifact
    // dir) must not truncate or remove each other's half-written
    // file, and the rename must stay a same-filesystem replace.
    std::string tmp = path + ".tmp.XXXXXX";
    int fd = ::mkstemp(tmp.data());
    if (fd < 0) {
        mbbp_warn("artifact: cannot create a temp file for ", path);
        return false;
    }
    ::fchmod(fd, 0644);     // mkstemp's 0600 would hide it from peers
    ::close(fd);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            mbbp_warn("artifact: cannot write ", tmp);
            std::remove(tmp.c_str());
            return false;
        }
        out.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
        out.write(reinterpret_cast<const char *>(table.data()),
                  static_cast<std::streamsize>(
                      table.size() * sizeof(SectionEntry)));
        // Pad the header block out to the first section offset.
        std::vector<char> pad(
            header_bytes - sizeof(hdr) -
                table.size() * sizeof(SectionEntry),
            0);
        out.write(pad.data(),
                  static_cast<std::streamsize>(pad.size()));
        out.write(reinterpret_cast<const char *>(payload.data()),
                  static_cast<std::streamsize>(payload.size()));
        if (!out) {
            mbbp_warn("artifact: short write on ", tmp);
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        mbbp_warn("artifact: cannot rename ", tmp, " to ", path);
        std::remove(tmp.c_str());
        return false;
    }
    obs::flushCounter("artifact.store.saves", 1);
    return true;
}

std::shared_ptr<const DecodedTrace>
loadDecodedArtifact(const std::string &path, const ArtifactKey &key,
                    const ICacheConfig &geom)
{
    std::shared_ptr<MappedFile> map = MappedFile::open(path);
    if (!map)
        return nullptr;     // plain miss: no file to judge

    auto reject = [&](const char *why) {
        mbbp_warn("artifact: rejecting ", path, ": ", why);
        rejectCounter().add();
        return nullptr;
    };

    obs::ScopedTimer span("artifact.load", "load " + key.trace);

    if (map->size() < sizeof(FileHeader))
        return reject("truncated header");
    FileHeader hdr;
    std::memcpy(&hdr, map->data(), sizeof(hdr));
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        return reject("bad magic");
    if (hdr.version != kFormatVersion)
        return reject("format version mismatch");
    if (hdr.byteOrder != kByteOrder)
        return reject("byte order mismatch");
    if (hdr.sizeofDynInst != sizeof(DynInst) ||
        hdr.sizeofStaticInfo != sizeof(StaticInfo) ||
        hdr.sizeofBitCode != sizeof(BitCode))
        return reject("ABI layout mismatch");
    if (hdr.keyHash != key.hash() ||
        hdr.instructions != key.instructions ||
        hdr.blockWidth != key.blockWidth ||
        hdr.lineSize != key.lineSize ||
        hdr.cacheType != key.cacheType)
        return reject("key mismatch");
    if (hdr.numSections != kNumSectionIds)
        return reject("unexpected section count");

    const std::size_t header_bytes = alignUp(
        sizeof(FileHeader) + hdr.numSections * sizeof(SectionEntry));
    if (map->size() < header_bytes)
        return reject("truncated section table");
    if (hdr.payloadBytes != map->size() - header_bytes)
        return reject("payload size mismatch");
    if (fnv1a(map->data() + header_bytes, hdr.payloadBytes) !=
        hdr.payloadHash)
        return reject("payload hash mismatch");

    // The table must list every section once, in id order, with the
    // advertised element sizes, inside the file, and aligned.
    SectionEntry sections[kNumSectionIds];
    std::memcpy(sections, map->data() + sizeof(FileHeader),
                sizeof(sections));
    constexpr uint32_t elem_sizes[kNumSectionIds] = {
        sizeof(DynInst),  sizeof(Addr),     sizeof(Addr),
        sizeof(uint32_t), sizeof(uint16_t), sizeof(int16_t),
        sizeof(uint64_t), sizeof(uint16_t), sizeof(uint16_t),
        sizeof(uint16_t), sizeof(uint16_t), sizeof(uint8_t),
        sizeof(uint16_t), sizeof(uint32_t), sizeof(BitCode),
        sizeof(BitCode),  sizeof(Addr),     sizeof(StaticInfo),
    };
    for (uint32_t i = 0; i < kNumSectionIds; ++i) {
        const SectionEntry &s = sections[i];
        if (s.id != i + 1 || s.elemSize != elem_sizes[i])
            return reject("malformed section table");
        if (s.offset % kSectionAlign != 0 ||
            s.offset < header_bytes ||
            s.count > (map->size() - s.offset) / elem_sizes[i])
            return reject("section out of bounds");
    }

    auto dec = std::make_shared<DecodedTrace>();
    if (!ArtifactCodec::fromMapping(*dec, std::move(map), sections,
                                    geom))
        return reject("inconsistent block index");
    return dec;
}

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        mbbp_warn("artifact: cannot create store directory ", dir_,
                  ": ", ec.message());
}

std::string
ArtifactStore::pathFor(const ArtifactKey &key) const
{
    return dir_ + "/" + key.fileName();
}

std::shared_ptr<const DecodedTrace>
ArtifactStore::load(const ArtifactKey &key,
                    const ICacheConfig &geom) const
{
    std::shared_ptr<const DecodedTrace> dec =
        loadDecodedArtifact(pathFor(key), key, geom);
    obs::flushCounter(dec ? "artifact.store.hits"
                          : "artifact.store.misses",
                      1);
    return dec;
}

void
ArtifactStore::save(const ArtifactKey &key,
                    const DecodedTrace &dec) const
{
    if (!saveDecodedArtifact(pathFor(key), key, dec))
        obs::flushCounter("artifact.store.save_failures", 1);
}

} // namespace mbbp
