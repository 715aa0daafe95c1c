#ifndef QBASIS_SYNTH_CACHE_IO_HPP
#define QBASIS_SYNTH_CACHE_IO_HPP

/**
 * @file
 * Versioned binary snapshot format for the shared Weyl-class cache.
 *
 * A cache entry is a pure function of (basis gate, synthesis options,
 * quantized canonical coordinates), so a snapshot written by one
 * process is valid in any later process compiled from the same code:
 * warm-start fleet compilation loads the snapshot and serves every
 * previously synthesized class as a pure lookup. Restored entries are
 * byte-identical to freshly synthesized ones and re-dress per target
 * through the same canonicalKakDecompose() path, so warm compile
 * reports are bit-identical to cold ones.
 *
 * Since v3 a snapshot also persists the transpile-plan tier
 * (synth/plan_cache.hpp) alongside the class entries, so a warm
 * start replays whole routing programs, not just class
 * decompositions. Plan keys embed the basis-epoch vector they were
 * captured at; a restarted fleet whose deterministic calibration
 * reproduces those epochs serves them directly, and anything else is
 * epoch-swept by the next retireCache().
 *
 * Snapshot layout (all integers little-endian, doubles as IEEE-754
 * bit patterns in little-endian u64s -- the format is endian-stable
 * and independent of the host):
 *
 *   header (124 bytes)
 *     magic            8 bytes  "QBWCACHE"
 *     format_version   u32      kCacheFormatVersion
 *     header_bytes     u32      124
 *     coord_quantum    f64      DecompositionCache::kCoordQuantum
 *     gate_quantum     f64      DecompositionCache::kGateHashQuantum
 *     entry_count      u64
 *     plan_count       u64
 *     section table    3 x {offset u64, size u64, crc32 u32, pad u32}
 *                      (index, payload, plans -- back to back)
 *     header_crc       u32      CRC-32 over the preceding 120 bytes
 *   index section (entry_count x 48 bytes, sorted by ClassKey)
 *     context u64, qx i64, qy i64, qz i64,
 *     payload_offset u64 (relative to the payload section),
 *     payload_size u64
 *   payload section (one blob per entry, in index order)
 *     n_locals u32, n_basis u32 (n_basis + 1 == n_locals),
 *     phase_re f64, phase_im f64, infidelity f64,
 *     locals: n_locals x (q1 then q0, row-major, 8 f64 each),
 *     basis:  n_basis x (row-major Mat4, 32 f64)
 *   plans section (plan_count records, sorted by PlanKey)
 *     structural_hash u64, options_hash u64,
 *     n_epochs u32, n_ops u32, n_classes u32, num_physical u32,
 *     n_init u32, n_final u32, swaps u64,
 *     epochs:  n_epochs x (device i64, epoch u64),
 *     layouts: n_init x i64, then n_final x i64,
 *     ops:     n_ops x (source i64, q0 i64, q1 i64),
 *     classes: n_classes x (context u64, qx i64, qy i64, qz i64)
 *
 * Every byte of the file is covered by a checksum (the header by
 * header_crc, each section by its table entry), so any single-byte
 * corruption is rejected at load time. Version or quantization
 * mismatches are rejected before any entry is parsed; a failed load
 * never modifies the destination cache. Past the checksums, the
 * decoder accepts only the layout the encoder writes: zero padding,
 * keys strictly ascending, payload blobs back to back in index
 * order, plan fields within int range, and no more plans than the
 * plans section can hold. So a snapshot that decodes re-encodes to
 * exactly its own bytes, even when its checksums were forged.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "synth/plan_cache.hpp"
#include "synth/shared_cache.hpp"

namespace qbasis {

/** Bump on any incompatible layout change OR numerics epoch: a
 *  snapshot's entries must be byte-identical to what the current
 *  build would synthesize, so a change to kernel rounding or
 *  accumulation order (e.g. v2: the dispatched SIMD Mat4 kernel
 *  layer repinned the trace-reduction accumulation) retires old
 *  snapshots even though the layout still parses. v3 added the
 *  transpile-plans section (and grew the header), so v2 snapshots
 *  are rejected with VersionMismatch. CI keys its snapshot artifact
 *  cache on this value (see .github/workflows/ci.yml). */
constexpr uint32_t kCacheFormatVersion = 3;

/** Outcome classes of snapshot encode/decode/save/load. */
enum class CacheIoStatus
{
    Ok,
    IoError,          ///< File could not be read or written.
    BadMagic,         ///< Not a cache snapshot.
    VersionMismatch,  ///< Written by an incompatible format version.
    QuantumMismatch,  ///< Different quantization parameters.
    Truncated,        ///< Shorter than its header claims.
    ChecksumMismatch, ///< Header or section CRC failed.
    Malformed,        ///< Structurally inconsistent contents.
};

/** Stable name of a status value (diagnostics, JSON). */
const char *cacheIoStatusName(CacheIoStatus status);

/** Result of a snapshot operation. */
struct CacheIoResult
{
    CacheIoStatus status = CacheIoStatus::Ok;
    std::string message;  ///< Human-readable detail on failure.
    size_t entries = 0;   ///< Entries encoded or decoded.
    size_t merged = 0;    ///< Entries actually inserted on load
                          ///< (existing cache entries win the merge).
    size_t bytes = 0;     ///< Snapshot size in bytes.

    bool ok() const { return status == CacheIoStatus::Ok; }
};

/** One serializable cache entry. */
using CacheSnapshotEntry =
    std::pair<DecompositionCache::ClassKey, TwoQubitDecomposition>;

/** CRC-32 (IEEE, reflected 0xEDB88320) used by the snapshot format.
 *  Exposed so tests can forge section checksums deliberately. */
uint32_t cacheCrc32(const uint8_t *data, size_t size);

/** Encoded payload bytes of one entry (its blob in the payload
 *  section, excluding its 48-byte index row). */
size_t cacheEntryEncodedBytes(const TwoQubitDecomposition &dec);

/** One entry's payload blob, as the payload section stores it: the
 *  canonical bytes of a decomposition. Two decompositions are
 *  bit-identical exactly when their blobs are equal. */
std::vector<uint8_t> canonicalBytes(const TwoQubitDecomposition &dec);

/** Total snapshot bytes for `entries` entries whose payload blobs
 *  sum to `payload_bytes` -- manifest accounting without running the
 *  encoder (header + index rows + payload). */
size_t cacheSnapshotEncodedBytes(size_t entries, size_t payload_bytes);

/** Encoded bytes of one plan record in the plans section. */
size_t planEncodedBytes(const TranspilePlan &plan);

/**
 * Encode entries into snapshot bytes (with an empty plans section).
 * Entries are sorted by ClassKey internally, so the encoding of a
 * given entry *set* is unique: snapshot -> restore -> snapshot
 * reproduces the exact bytes.
 */
std::vector<uint8_t>
encodeCacheSnapshot(std::vector<CacheSnapshotEntry> entries);

/** Encode entries and transpile plans. Both are sorted by key
 *  internally, preserving the unique-bytes property. */
std::vector<uint8_t>
encodeCacheSnapshot(std::vector<CacheSnapshotEntry> entries,
                    std::vector<TranspilePlan> plans);

/**
 * Decode snapshot bytes into `out` (appended). On any failure `out`
 * is untouched and the result carries the status + a message;
 * corrupt, truncated, version-mismatched or non-canonical inputs are
 * rejected without UB regardless of content.
 */
CacheIoResult decodeCacheSnapshot(const uint8_t *data, size_t size,
                                  std::vector<CacheSnapshotEntry> *out);

/** Decode including the plans section (appended to `plans_out` when
 *  non-null; same all-or-nothing failure semantics). */
CacheIoResult decodeCacheSnapshot(const uint8_t *data, size_t size,
                                  std::vector<CacheSnapshotEntry> *out,
                                  std::vector<TranspilePlan> *plans_out);

/** Read a whole file into `out` (replacing its contents). Returns
 *  false on open or read error. Shared by loadCacheSnapshot and the
 *  bench/test corruption drills, so ferror handling lives in one
 *  place. */
bool readFileBytes(const std::string &path, std::vector<uint8_t> *out);

/** Snapshot every published class of `cache` to `path` (empty plans
 *  section). The sections go straight to the file, the classes read
 *  in place in key order, and the header last, so the bytes equal
 *  encodeCacheSnapshot's for the same classes without an in-memory
 *  copy of either. No clear() or retireExcept() may run on `cache`
 *  meanwhile; publishes may. */
CacheIoResult saveCacheSnapshot(const SharedDecompositionCache &cache,
                                const std::string &path);

/** Snapshot published classes AND the plan tier to `path`, written
 *  as above. Memo entries are not persisted (see
 *  PlanCache::exportPlans). */
CacheIoResult saveCacheSnapshot(const SharedDecompositionCache &cache,
                                const PlanCache &plans,
                                const std::string &path);

/**
 * Load a snapshot and merge it into `cache`. Merge semantics: an
 * entry already present (published *or* claimed by an in-flight
 * owner) wins; loaded entries only fill absent classes, so the
 * claim/publish dedupe protocol is unaffected by a concurrent load.
 */
CacheIoResult loadCacheSnapshot(const std::string &path,
                                SharedDecompositionCache &cache);

/** Load classes and (when `plans` is non-null) merge persisted
 *  transpile plans too -- resident plans win, mirroring the class
 *  merge. CacheIoResult::merged counts classes only; plan merges are
 *  visible through PlanCache::stats().loaded. */
CacheIoResult loadCacheSnapshot(const std::string &path,
                                SharedDecompositionCache &cache,
                                PlanCache *plans);

} // namespace qbasis

#endif // QBASIS_SYNTH_CACHE_IO_HPP
