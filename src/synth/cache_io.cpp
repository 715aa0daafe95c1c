#include "synth/cache_io.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cstdio>
#include <cstring>
#include <functional>
#include <utility>

#include "util/bytes.hpp"

namespace qbasis {

namespace {

constexpr char kMagic[8] = {'Q', 'B', 'W', 'C', 'A', 'C', 'H', 'E'};
constexpr size_t kHeaderBytes = 124;
constexpr size_t kIndexEntryBytes = 48;
constexpr size_t kSectionCount = 3; // index, payload, plans
/** A plan record's fixed part: two hashes, six counts, the swaps. */
constexpr size_t kPlanFixedBytes = 48;
/** Sanity cap on a decoded plan's device size: far above any real
 *  device, low enough that a crafted record cannot make the replay
 *  validator allocate absurd scratch. */
constexpr uint64_t kMaxPlanQubits = 1u << 20;

/** Bounds-checked little-endian reader over a byte range. */
struct Cursor
{
    const uint8_t *data;
    size_t size;
    size_t off = 0;
    bool ok = true;

    bool
    need(size_t n)
    {
        if (!ok || size - off < n || off > size) {
            ok = false;
            return false;
        }
        return true;
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data[off + static_cast<size_t>(i)])
                 << (8 * i);
        off += 4;
        return v;
    }

    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data[off + static_cast<size_t>(i)])
                 << (8 * i);
        off += 8;
        return v;
    }

    int64_t
    i64()
    {
        return static_cast<int64_t>(u64());
    }

    /** An i64 field that holds an int (plan layouts, ops, device
     *  ids); a value outside int's range fails the cursor. */
    int
    intField()
    {
        const int64_t v = i64();
        if (v < INT_MIN || v > INT_MAX) {
            ok = false;
            return 0;
        }
        return static_cast<int>(v);
    }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    Mat2
    mat2()
    {
        Mat2 m;
        for (int r = 0; r < 2; ++r) {
            for (int c = 0; c < 2; ++c) {
                const double re = f64();
                const double im = f64();
                m(r, c) = Complex(re, im);
            }
        }
        return m;
    }

    Mat4
    mat4()
    {
        Mat4 m;
        for (int r = 0; r < 4; ++r) {
            for (int c = 0; c < 4; ++c) {
                const double re = f64();
                const double im = f64();
                m(r, c) = Complex(re, im);
            }
        }
        return m;
    }
};

CacheIoResult
fail(CacheIoStatus status, std::string message)
{
    CacheIoResult r;
    r.status = status;
    r.message = std::move(message);
    return r;
}

} // namespace

const char *
cacheIoStatusName(CacheIoStatus status)
{
    switch (status) {
    case CacheIoStatus::Ok:
        return "ok";
    case CacheIoStatus::IoError:
        return "io_error";
    case CacheIoStatus::BadMagic:
        return "bad_magic";
    case CacheIoStatus::VersionMismatch:
        return "version_mismatch";
    case CacheIoStatus::QuantumMismatch:
        return "quantum_mismatch";
    case CacheIoStatus::Truncated:
        return "truncated";
    case CacheIoStatus::ChecksumMismatch:
        return "checksum_mismatch";
    case CacheIoStatus::Malformed:
        return "malformed";
    }
    return "unknown";
}

size_t
cacheEntryEncodedBytes(const TwoQubitDecomposition &dec)
{
    // n_locals + n_basis + phase + infidelity, then 8 f64 per Mat2
    // (two per local layer) and 32 f64 per basis Mat4.
    return 4 + 4 + 8 + 8 + 8 + dec.locals.size() * 128
           + dec.basis.size() * 256;
}

namespace {

/** One decomposition's canonical bytes, appended to `out`. */
void
putDecomposition(std::vector<uint8_t> &out, const TwoQubitDecomposition &dec)
{
    putU32(out, static_cast<uint32_t>(dec.locals.size()));
    putU32(out, static_cast<uint32_t>(dec.basis.size()));
    putF64(out, dec.phase.real());
    putF64(out, dec.phase.imag());
    putF64(out, dec.infidelity);
    for (const LocalPair &lp : dec.locals) {
        putMat2(out, lp.q1);
        putMat2(out, lp.q0);
    }
    for (const Mat4 &b : dec.basis)
        putMat4(out, b);
}

/** One plan record of the plans section, appended to `out`. */
void
putPlan(std::vector<uint8_t> &out, const TranspilePlan &plan)
{
    putU64(out, plan.key.structural_hash);
    putU64(out, plan.key.options_hash);
    putU32(out, static_cast<uint32_t>(plan.key.epochs.size()));
    putU32(out, static_cast<uint32_t>(plan.ops.size()));
    putU32(out, static_cast<uint32_t>(plan.class_keys.size()));
    putU32(out, static_cast<uint32_t>(plan.num_physical));
    putU32(out, static_cast<uint32_t>(plan.initial_layout.size()));
    putU32(out, static_cast<uint32_t>(plan.final_layout.size()));
    putU64(out, plan.swaps_inserted);
    for (const DeviceEpoch &de : plan.key.epochs) {
        putI64(out, de.device_id);
        putU64(out, de.epoch);
    }
    for (const int p : plan.initial_layout)
        putI64(out, p);
    for (const int p : plan.final_layout)
        putI64(out, p);
    for (const RouteOp &op : plan.ops) {
        putI64(out, op.source);
        putI64(out, op.q0);
        putI64(out, op.q1);
    }
    for (const DecompositionCache::ClassKey &key : plan.class_keys) {
        putU64(out, key.context);
        putI64(out, key.qx);
        putI64(out, key.qy);
        putI64(out, key.qz);
    }
}

/** Reflected CRC-32 register update over `size` bytes (the register
 *  starts at 0xFFFFFFFF and the checksum is its final complement). */
uint32_t
crc32Update(uint32_t crc, const uint8_t *data, size_t size)
{
    // Table built on first use; thread-safe via static-local
    // initialization.
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    for (size_t i = 0; i < size; ++i)
        crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return crc;
}

/** Where the snapshot encoder appends its bytes, in file order. */
using SnapshotAppend = std::function<void(const uint8_t *, size_t)>;

/** One section on its way out: each record is put into a scratch
 *  buffer and appended, and the section's size and CRC-32 run as the
 *  records pass. */
class SectionWriter
{
  public:
    explicit SectionWriter(const SnapshotAppend &append) : append_(append)
    {
    }

    /** The buffer the current record is put into. */
    std::vector<uint8_t> &record() { return record_; }

    /** Append the current record to the section. */
    void
    endRecord()
    {
        crc_ = crc32Update(crc_, record_.data(), record_.size());
        size_ += record_.size();
        append_(record_.data(), record_.size());
        record_.clear();
    }

    uint64_t size() const { return size_; }
    uint32_t crc() const { return crc_ ^ 0xFFFFFFFFu; }

  private:
    const SnapshotAppend &append_;
    std::vector<uint8_t> record_;
    uint32_t crc_ = 0xFFFFFFFFu;
    uint64_t size_ = 0;
};

/** A class as the encoder reads it, in place. */
using EntryView = std::pair<const DecompositionCache::ClassKey *,
                            const TwoQubitDecomposition *>;

/**
 * The one snapshot encoder: sorts `entries` and `plans` by key, which
 * makes the bytes a pure function of the sets, appends a zeroed
 * header placeholder, then the index, payload and plans sections,
 * and returns the header (their offsets, sizes and CRCs) for the
 * caller to write over the placeholder.
 */
std::vector<uint8_t>
encodeSnapshot(std::vector<EntryView> entries,
               std::vector<TranspilePlan> plans,
               const SnapshotAppend &append)
{
    std::sort(entries.begin(), entries.end(),
              [](const EntryView &a, const EntryView &b) {
                  return *a.first < *b.first;
              });
    std::sort(plans.begin(), plans.end(),
              [](const TranspilePlan &a, const TranspilePlan &b) {
                  return a.key < b.key;
              });
    append(std::vector<uint8_t>(kHeaderBytes, 0).data(), kHeaderBytes);

    SectionWriter index(append);
    uint64_t offset = 0;
    for (const EntryView &e : entries) {
        const uint64_t blob = cacheEntryEncodedBytes(*e.second);
        putU64(index.record(), e.first->context);
        putI64(index.record(), e.first->qx);
        putI64(index.record(), e.first->qy);
        putI64(index.record(), e.first->qz);
        putU64(index.record(), offset);
        putU64(index.record(), blob);
        index.endRecord();
        offset += blob;
    }
    SectionWriter payload(append);
    for (const EntryView &e : entries) {
        putDecomposition(payload.record(), *e.second);
        payload.endRecord();
    }
    SectionWriter plan_bytes(append);
    for (const TranspilePlan &plan : plans) {
        putPlan(plan_bytes.record(), plan);
        plan_bytes.endRecord();
    }

    std::vector<uint8_t> header;
    header.reserve(kHeaderBytes);
    header.insert(header.end(), kMagic, kMagic + 8);
    putU32(header, kCacheFormatVersion);
    putU32(header, static_cast<uint32_t>(kHeaderBytes));
    putF64(header, DecompositionCache::kCoordQuantum);
    putF64(header, DecompositionCache::kGateHashQuantum);
    putU64(header, static_cast<uint64_t>(entries.size()));
    putU64(header, static_cast<uint64_t>(plans.size()));
    // Section table: index, payload, plans -- back to back after the
    // header, each with its own CRC.
    uint64_t section_off = kHeaderBytes;
    for (const SectionWriter *section : {&index, &payload, &plan_bytes}) {
        putU64(header, section_off);
        putU64(header, section->size());
        putU32(header, section->crc());
        putU32(header, 0); // pad
        section_off += section->size();
    }
    putU32(header, cacheCrc32(header.data(), header.size()));
    return header;
}

} // namespace

std::vector<uint8_t>
canonicalBytes(const TwoQubitDecomposition &dec)
{
    std::vector<uint8_t> payload;
    payload.reserve(cacheEntryEncodedBytes(dec));
    putDecomposition(payload, dec);
    return payload;
}

size_t
cacheSnapshotEncodedBytes(size_t entries, size_t payload_bytes)
{
    return kHeaderBytes + entries * kIndexEntryBytes + payload_bytes;
}

uint32_t
cacheCrc32(const uint8_t *data, size_t size)
{
    return crc32Update(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

size_t
planEncodedBytes(const TranspilePlan &plan)
{
    // hashes (2 u64) + six u32 counts + swaps u64, then the
    // variable-length vectors.
    return 16 + 24 + 8 + plan.key.epochs.size() * 16
           + (plan.initial_layout.size() + plan.final_layout.size()) * 8
           + plan.ops.size() * 24 + plan.class_keys.size() * 32;
}

std::vector<uint8_t>
encodeCacheSnapshot(std::vector<CacheSnapshotEntry> entries)
{
    return encodeCacheSnapshot(std::move(entries), {});
}

std::vector<uint8_t>
encodeCacheSnapshot(std::vector<CacheSnapshotEntry> entries,
                    std::vector<TranspilePlan> plans)
{
    std::vector<EntryView> views;
    views.reserve(entries.size());
    size_t payload_size = 0;
    for (const CacheSnapshotEntry &e : entries) {
        views.emplace_back(&e.first, &e.second);
        payload_size += cacheEntryEncodedBytes(e.second);
    }
    size_t plans_size = 0;
    for (const TranspilePlan &plan : plans)
        plans_size += planEncodedBytes(plan);

    std::vector<uint8_t> buf;
    buf.reserve(cacheSnapshotEncodedBytes(entries.size(), payload_size)
                + plans_size);
    const std::vector<uint8_t> header = encodeSnapshot(
        std::move(views), std::move(plans),
        [&buf](const uint8_t *data, size_t n) {
            buf.insert(buf.end(), data, data + n);
        });
    std::copy(header.begin(), header.end(), buf.begin());
    return buf;
}

CacheIoResult
decodeCacheSnapshot(const uint8_t *data, size_t size,
                    std::vector<CacheSnapshotEntry> *out)
{
    return decodeCacheSnapshot(data, size, out, nullptr);
}

CacheIoResult
decodeCacheSnapshot(const uint8_t *data, size_t size,
                    std::vector<CacheSnapshotEntry> *out,
                    std::vector<TranspilePlan> *plans_out)
{
    if (data == nullptr || size < kHeaderBytes)
        return fail(CacheIoStatus::Truncated,
                    "snapshot shorter than its header");
    if (std::memcmp(data, kMagic, 8) != 0)
        return fail(CacheIoStatus::BadMagic,
                    "not a Weyl-class cache snapshot");

    Cursor cur{data, size, 8, true};
    const uint32_t version = cur.u32();
    if (version != kCacheFormatVersion)
        return fail(CacheIoStatus::VersionMismatch,
                    "snapshot format v" + std::to_string(version)
                        + ", expected v"
                        + std::to_string(kCacheFormatVersion));
    const uint32_t header_bytes = cur.u32();
    if (header_bytes != kHeaderBytes)
        return fail(CacheIoStatus::Malformed,
                    "unexpected header size "
                        + std::to_string(header_bytes));
    // Header CRC covers everything before the CRC field itself; it
    // must be checked before any header field is *trusted* (magic and
    // version were compared against constants, which is safe either
    // way).
    const uint32_t header_crc = cacheCrc32(data, kHeaderBytes - 4);
    {
        Cursor crc_cur{data, size, kHeaderBytes - 4, true};
        if (crc_cur.u32() != header_crc)
            return fail(CacheIoStatus::ChecksumMismatch,
                        "header checksum mismatch");
    }
    const double coord_quantum = cur.f64();
    const double gate_quantum = cur.f64();
    if (coord_quantum != DecompositionCache::kCoordQuantum
        || gate_quantum != DecompositionCache::kGateHashQuantum)
        return fail(CacheIoStatus::QuantumMismatch,
                    "snapshot quantization parameters differ from "
                    "this build");
    const uint64_t entry_count = cur.u64();
    const uint64_t plan_count = cur.u64();
    const uint64_t index_off = cur.u64();
    const uint64_t index_size = cur.u64();
    const uint32_t index_crc = cur.u32();
    uint32_t pads = cur.u32();
    const uint64_t payload_off = cur.u64();
    const uint64_t payload_size = cur.u64();
    const uint32_t payload_crc = cur.u32();
    pads |= cur.u32();
    const uint64_t plans_off = cur.u64();
    const uint64_t plans_size = cur.u64();
    const uint32_t plans_crc = cur.u32();
    pads |= cur.u32();

    // Overflow-safe section-table validation: every arithmetic term
    // below is bounded *before* it is formed, so a crafted header
    // cannot wrap these u64 sums around and slip a huge section size
    // past the bounds checks into the CRC scans.
    if (index_off != kHeaderBytes
        || entry_count > (UINT64_MAX - kHeaderBytes) / kIndexEntryBytes
        || index_size != entry_count * kIndexEntryBytes
        || payload_off != kHeaderBytes + index_size
        || payload_size > UINT64_MAX - payload_off
        || plans_off != payload_off + payload_size
        || plans_size > UINT64_MAX - plans_off
        || plan_count > plans_size / kPlanFixedBytes || pads != 0)
        return fail(CacheIoStatus::Malformed,
                    "inconsistent section table");
    const uint64_t expected_size = plans_off + plans_size;
    if (size < expected_size)
        return fail(CacheIoStatus::Truncated,
                    "snapshot truncated: "
                        + std::to_string(size) + " of "
                        + std::to_string(expected_size) + " bytes");
    if (size > expected_size)
        return fail(CacheIoStatus::Malformed,
                    "trailing bytes after the plans section");
    if (cacheCrc32(data + index_off, index_size) != index_crc)
        return fail(CacheIoStatus::ChecksumMismatch,
                    "index section checksum mismatch");
    if (cacheCrc32(data + payload_off, payload_size) != payload_crc)
        return fail(CacheIoStatus::ChecksumMismatch,
                    "payload section checksum mismatch");
    if (cacheCrc32(data + plans_off, plans_size) != plans_crc)
        return fail(CacheIoStatus::ChecksumMismatch,
                    "plans section checksum mismatch");

    // Only the encoder's own bytes decode: keys strictly ascending,
    // blobs back to back in index order, plans strictly ascending,
    // so whatever decodes re-encodes to the same bytes.
    std::vector<CacheSnapshotEntry> entries;
    entries.reserve(static_cast<size_t>(entry_count));
    Cursor idx{data + index_off, static_cast<size_t>(index_size), 0,
               true};
    uint64_t next_blob = 0;
    for (uint64_t i = 0; i < entry_count; ++i) {
        DecompositionCache::ClassKey key;
        key.context = idx.u64();
        key.qx = idx.i64();
        key.qy = idx.i64();
        key.qz = idx.i64();
        const uint64_t off = idx.u64();
        const uint64_t len = idx.u64();
        if (!idx.ok || off != next_blob || len > payload_size - off)
            return fail(CacheIoStatus::Malformed,
                        "entry " + std::to_string(i)
                            + ": payload out of bounds or out of "
                              "order");
        next_blob = off + len;
        if (!entries.empty() && !(entries.back().first < key))
            return fail(CacheIoStatus::Malformed,
                        "entry " + std::to_string(i)
                            + ": keys not strictly ascending");

        Cursor pay{data + payload_off + off, static_cast<size_t>(len),
                   0, true};
        TwoQubitDecomposition dec;
        const uint32_t n_locals = pay.u32();
        const uint32_t n_basis = pay.u32();
        if (!pay.ok || n_basis + 1 != n_locals
            || len != 32 + static_cast<uint64_t>(n_locals) * 128
                          + static_cast<uint64_t>(n_basis) * 256)
            return fail(CacheIoStatus::Malformed,
                        "entry " + std::to_string(i)
                            + ": inconsistent layer counts");
        const double re = pay.f64();
        const double im = pay.f64();
        dec.phase = Complex(re, im);
        dec.infidelity = pay.f64();
        dec.locals.reserve(n_locals);
        for (uint32_t l = 0; l < n_locals; ++l) {
            LocalPair lp;
            lp.q1 = pay.mat2();
            lp.q0 = pay.mat2();
            dec.locals.push_back(lp);
        }
        dec.basis.reserve(n_basis);
        for (uint32_t b = 0; b < n_basis; ++b)
            dec.basis.push_back(pay.mat4());
        if (!pay.ok || pay.off != len)
            return fail(CacheIoStatus::Malformed,
                        "entry " + std::to_string(i)
                            + ": payload size mismatch");
        entries.emplace_back(key, std::move(dec));
    }
    if (next_blob != payload_size)
        return fail(CacheIoStatus::Malformed,
                    "payload section size mismatch");

    std::vector<TranspilePlan> plans;
    plans.reserve(static_cast<size_t>(plan_count));
    Cursor pcur{data + plans_off, static_cast<size_t>(plans_size), 0,
                true};
    for (uint64_t i = 0; i < plan_count; ++i) {
        TranspilePlan plan;
        plan.key.structural_hash = pcur.u64();
        plan.key.options_hash = pcur.u64();
        const uint32_t n_epochs = pcur.u32();
        const uint32_t n_ops = pcur.u32();
        const uint32_t n_classes = pcur.u32();
        const uint32_t num_physical = pcur.u32();
        const uint32_t n_init = pcur.u32();
        const uint32_t n_final = pcur.u32();
        plan.swaps_inserted = pcur.u64();
        if (!pcur.ok || num_physical == 0
            || num_physical > kMaxPlanQubits
            || n_classes > n_ops)
            return fail(CacheIoStatus::Malformed,
                        "plan " + std::to_string(i)
                            + ": inconsistent counts");
        plan.num_physical = static_cast<int>(num_physical);
        // Vector lengths are bounded by the (already CRC-validated)
        // section size through the cursor's ok flag: a short section
        // flips it before any oversized reserve can happen.
        const uint64_t body_bytes =
            static_cast<uint64_t>(n_epochs) * 16
            + (static_cast<uint64_t>(n_init)
               + static_cast<uint64_t>(n_final)) * 8
            + static_cast<uint64_t>(n_ops) * 24
            + static_cast<uint64_t>(n_classes) * 32;
        if (body_bytes > plans_size - pcur.off)
            return fail(CacheIoStatus::Malformed,
                        "plan " + std::to_string(i)
                            + ": record out of bounds");
        plan.key.epochs.reserve(n_epochs);
        for (uint32_t e = 0; e < n_epochs; ++e) {
            DeviceEpoch de;
            de.device_id = pcur.intField();
            de.epoch = pcur.u64();
            plan.key.epochs.push_back(de);
        }
        plan.initial_layout.reserve(n_init);
        for (uint32_t l = 0; l < n_init; ++l)
            plan.initial_layout.push_back(pcur.intField());
        plan.final_layout.reserve(n_final);
        for (uint32_t l = 0; l < n_final; ++l)
            plan.final_layout.push_back(pcur.intField());
        plan.ops.reserve(n_ops);
        for (uint32_t o = 0; o < n_ops; ++o) {
            RouteOp op;
            op.source = pcur.intField();
            op.q0 = pcur.intField();
            op.q1 = pcur.intField();
            plan.ops.push_back(op);
        }
        plan.class_keys.reserve(n_classes);
        for (uint32_t c = 0; c < n_classes; ++c) {
            DecompositionCache::ClassKey key;
            key.context = pcur.u64();
            key.qx = pcur.i64();
            key.qy = pcur.i64();
            key.qz = pcur.i64();
            plan.class_keys.push_back(key);
        }
        if (!pcur.ok)
            return fail(CacheIoStatus::Malformed,
                        "plan " + std::to_string(i)
                            + ": record truncated or an int field "
                              "out of range");
        if (!plans.empty() && !(plans.back().key < plan.key))
            return fail(CacheIoStatus::Malformed,
                        "plan " + std::to_string(i)
                            + ": keys not strictly ascending");
        plans.push_back(std::move(plan));
    }
    if (pcur.off != plans_size)
        return fail(CacheIoStatus::Malformed,
                    "plans section size mismatch");

    CacheIoResult r;
    r.entries = entries.size();
    r.bytes = size;
    if (out != nullptr)
        out->insert(out->end(),
                    std::make_move_iterator(entries.begin()),
                    std::make_move_iterator(entries.end()));
    if (plans_out != nullptr)
        plans_out->insert(plans_out->end(),
                          std::make_move_iterator(plans.begin()),
                          std::make_move_iterator(plans.end()));
    return r;
}

namespace {

/**
 * Encode the cache's published classes and `plans` straight to
 * `path`. The classes are read in place, in key order, so no retire
 * or clear may run on `cache` meanwhile (FleetDriver::saveCache's
 * contract).
 */
CacheIoResult
writeCacheSnapshot(const SharedDecompositionCache &cache,
                   std::vector<TranspilePlan> plans,
                   const std::string &path)
{
    std::vector<EntryView> entries;
    cache.forEachPublished([&entries](const DecompositionCache::ClassKey &key,
                                      const TwoQubitDecomposition &dec) {
        entries.emplace_back(&key, &dec);
    });
    const size_t entry_count = entries.size();

    FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return fail(CacheIoStatus::IoError,
                    "cannot open " + path + " for writing");
    bool written = true;
    size_t bytes = 0;
    const std::vector<uint8_t> header = encodeSnapshot(
        std::move(entries), std::move(plans),
        [&](const uint8_t *data, size_t n) {
            written = written && std::fwrite(data, 1, n, f) == n;
            bytes += n;
        });
    written = written && std::fseek(f, 0, SEEK_SET) == 0
              && std::fwrite(header.data(), 1, header.size(), f)
                     == header.size();
    const bool closed = std::fclose(f) == 0;
    if (!written || !closed)
        return fail(CacheIoStatus::IoError, "short write to " + path);
    CacheIoResult r;
    r.entries = entry_count;
    r.bytes = bytes;
    return r;
}

} // namespace

CacheIoResult
saveCacheSnapshot(const SharedDecompositionCache &cache,
                  const std::string &path)
{
    return writeCacheSnapshot(cache, {}, path);
}

CacheIoResult
saveCacheSnapshot(const SharedDecompositionCache &cache,
                  const PlanCache &plans, const std::string &path)
{
    return writeCacheSnapshot(cache, plans.exportPlans(), path);
}

bool
readFileBytes(const std::string &path, std::vector<uint8_t> *out)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    out->clear();
    // Size the buffer once from the file's length; the loop below
    // still reads to EOF, so a file that changes size reads whole.
    if (std::fseek(f, 0, SEEK_END) == 0) {
        const long length = std::ftell(f);
        if (length > 0)
            out->reserve(static_cast<size_t>(length));
        std::rewind(f);
    }
    uint8_t chunk[65536];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out->insert(out->end(), chunk, chunk + n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    return !read_error;
}

CacheIoResult
loadCacheSnapshot(const std::string &path,
                  SharedDecompositionCache &cache)
{
    return loadCacheSnapshot(path, cache, nullptr);
}

CacheIoResult
loadCacheSnapshot(const std::string &path,
                  SharedDecompositionCache &cache, PlanCache *plans)
{
    std::vector<uint8_t> bytes;
    if (!readFileBytes(path, &bytes))
        return fail(CacheIoStatus::IoError, "cannot read " + path);

    std::vector<CacheSnapshotEntry> entries;
    std::vector<TranspilePlan> loaded_plans;
    CacheIoResult r =
        decodeCacheSnapshot(bytes.data(), bytes.size(), &entries,
                            plans != nullptr ? &loaded_plans : nullptr);
    if (!r.ok())
        return r;
    for (CacheSnapshotEntry &e : entries) {
        if (cache.insertLoaded(e.first, std::move(e.second)))
            ++r.merged;
    }
    if (plans != nullptr) {
        for (TranspilePlan &plan : loaded_plans)
            plans->insertLoaded(std::move(plan));
    }
    return r;
}

} // namespace qbasis
