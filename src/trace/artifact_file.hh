/**
 * @file
 * Disk persistence for decoded replay artifacts: one DecodedTrace
 * (block index, window-code arenas, instruction stream, frozen
 * StaticImage) serialized into a flat, mmap-able file keyed by
 * (trace, instruction count, i-cache geometry).
 *
 * The file is a *cache*, not an interchange format: columns are
 * written in host layout so a loader can point the DecodedTrace
 * spans straight into a read-only mapping (zero copy for the bulk
 * arrays; only the small StaticImage is rehydrated). A header guards
 * everything that could make that unsafe -- magic, format version,
 * byte order, struct sizes, the key hash, and an FNV-1a hash of the
 * whole payload -- and *any* mismatch makes load() return null so
 * the caller rebuilds from scratch. Corrupt or hostile files must
 * never crash the service; they are rejected and overwritten.
 *
 * Writes go to a temp file renamed into place, so readers (including
 * concurrent server processes sharing one store directory) never
 * observe a torn file.
 *
 * The contract for a file that changes under a reader: a loaded
 * artifact maps the file and reads it for as long as it lives, and
 * the checks above run once, at load. Anything that writes artifact
 * files must therefore replace them by atomic rename, as
 * saveDecodedArtifact() does: the old inode stays mapped, so an
 * artifact loaded before the rename replays exactly as before, and
 * the next load sees the new file. Truncating or rewriting a file in
 * place is unsupported: a process that mapped it would read bytes the
 * load-time checks never saw, or take SIGBUS past the new end of the
 * file.
 */

#ifndef MBBP_TRACE_ARTIFACT_FILE_HH
#define MBBP_TRACE_ARTIFACT_FILE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "fetch/icache_model.hh"
#include "trace/decoded_trace.hh"

namespace mbbp
{

/**
 * Identity of one decoded artifact. Two artifacts share a file iff
 * every field here matches; numBanks is deliberately absent (banking
 * never affects the decode, same as TraceCache's memo key).
 */
struct ArtifactKey
{
    std::string trace;          //!< workload name
    uint64_t instructions = 0;  //!< dynamic instructions decoded
    uint8_t cacheType = 0;      //!< CacheType as stored in the memo key
    uint32_t blockWidth = 0;
    uint32_t lineSize = 0;

    static ArtifactKey of(const std::string &trace_name,
                          uint64_t instructions,
                          const ICacheConfig &geom);

    /** Stable 64-bit identity hash (salted with the format version). */
    uint64_t hash() const;

    /** "gcc-400000-<16 hex digits>.mbbpart". */
    std::string fileName() const;
};

/**
 * Serialize @p dec under @p key to @p path (atomic rename).
 * @return false (with a warning) if the file could not be written --
 * persistence is best-effort and never fails the simulation.
 */
bool saveDecodedArtifact(const std::string &path,
                         const ArtifactKey &key,
                         const DecodedTrace &dec);

/**
 * Map @p path and reconstruct its DecodedTrace with the bulk columns
 * borrowing the mapping. @p geom becomes the artifact's geometry (it
 * must match @p key's fields). Returns null -- never throws, never
 * crashes -- if the file is missing, truncated, version-skewed,
 * corrupt, or keyed differently; the caller then rebuilds.
 */
std::shared_ptr<const DecodedTrace>
loadDecodedArtifact(const std::string &path, const ArtifactKey &key,
                    const ICacheConfig &geom);

/**
 * A directory of artifact files. Thread-safe (stateless beyond the
 * directory path); safe to share between a TraceCache and the sweep
 * service. Counters: artifact.store.{hits,misses,rejects,saves,
 * save_failures}.
 */
class ArtifactStore
{
  public:
    /** Uses @p dir, creating it (and parents) if absent. */
    explicit ArtifactStore(std::string dir);

    const std::string &dir() const { return dir_; }

    std::string pathFor(const ArtifactKey &key) const;

    /** loadDecodedArtifact() at pathFor(key), with hit/miss counts. */
    std::shared_ptr<const DecodedTrace>
    load(const ArtifactKey &key, const ICacheConfig &geom) const;

    /** Best-effort saveDecodedArtifact() at pathFor(key). */
    void save(const ArtifactKey &key, const DecodedTrace &dec) const;

  private:
    std::string dir_;
};

} // namespace mbbp

#endif // MBBP_TRACE_ARTIFACT_FILE_HH
