/**
 * @file
 * Persistence + retirement subsystem tests: snapshot encode/decode
 * bit-exactness and byte stability, merge semantics into a warm
 * shared cache (claim/publish dedupe unaffected), cycle-aware
 * retirement that never drops a basis referenced by a live
 * VersionedBasisSet, and graceful rejection of corrupt, truncated,
 * and version-mismatched snapshots.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "core/fleet.hpp"
#include "synth/cache_io.hpp"
#include "synth/engine.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "weyl/gates.hpp"

namespace qbasis {
namespace {

using ClassKey = DecompositionCache::ClassKey;

class PersistTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setLogLevel(LogLevel::Warn);
    }
};

Mat2
randomMat2(Rng &rng)
{
    Mat2 m;
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 2; ++c)
            m(r, c) = Complex(rng.uniform(-1.0, 1.0),
                              rng.uniform(-1.0, 1.0));
    return m;
}

Mat4
randomMat4(Rng &rng)
{
    Mat4 m;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            m(r, c) = Complex(rng.uniform(-1.0, 1.0),
                              rng.uniform(-1.0, 1.0));
    return m;
}

/** Deterministic fake decomposition with `layers` 2Q layers (the
 *  codec is agnostic to unitarity, so random matrices exercise the
 *  full double range harder than real synthesis output would). */
TwoQubitDecomposition
makeDec(int layers, uint64_t seed)
{
    Rng rng(seed);
    TwoQubitDecomposition dec;
    for (int l = 0; l <= layers; ++l) {
        LocalPair lp;
        lp.q1 = randomMat2(rng);
        lp.q0 = randomMat2(rng);
        dec.locals.push_back(lp);
    }
    for (int l = 0; l < layers; ++l)
        dec.basis.push_back(randomMat4(rng));
    dec.phase = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    dec.infidelity = rng.uniform(0.0, 1e-6);
    return dec;
}

ClassKey
makeKey(uint64_t context, int64_t qx, int64_t qy, int64_t qz)
{
    ClassKey key;
    key.context = context;
    key.qx = qx;
    key.qy = qy;
    key.qz = qz;
    return key;
}

bool
mat2Bitwise(const Mat2 &a, const Mat2 &b)
{
    for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 2; ++c) {
            if (std::memcmp(&a(r, c), &b(r, c), sizeof(Complex)) != 0)
                return false;
        }
    }
    return true;
}

bool
mat4Bitwise(const Mat4 &a, const Mat4 &b)
{
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
            if (std::memcmp(&a(r, c), &b(r, c), sizeof(Complex)) != 0)
                return false;
        }
    }
    return true;
}

bool
decsBitwise(const TwoQubitDecomposition &a,
            const TwoQubitDecomposition &b)
{
    if (a.locals.size() != b.locals.size()
        || a.basis.size() != b.basis.size())
        return false;
    if (std::memcmp(&a.phase, &b.phase, sizeof(Complex)) != 0)
        return false;
    if (std::memcmp(&a.infidelity, &b.infidelity, sizeof(double)) != 0)
        return false;
    for (size_t i = 0; i < a.locals.size(); ++i) {
        if (!mat2Bitwise(a.locals[i].q1, b.locals[i].q1)
            || !mat2Bitwise(a.locals[i].q0, b.locals[i].q0))
            return false;
    }
    for (size_t i = 0; i < a.basis.size(); ++i) {
        if (!mat4Bitwise(a.basis[i], b.basis[i]))
            return false;
    }
    return true;
}

/** A varied entry set: several contexts, layer counts 0 through 3
 *  (zero-layer = local-only class), negative coords. */
std::vector<CacheSnapshotEntry>
sampleEntries()
{
    std::vector<CacheSnapshotEntry> entries;
    entries.emplace_back(makeKey(0xA11CEull, 1, 2, 3), makeDec(2, 7));
    entries.emplace_back(makeKey(0xA11CEull, -4, 0, 9), makeDec(3, 8));
    entries.emplace_back(makeKey(0xB0Bull, 0, 0, 0), makeDec(0, 9));
    entries.emplace_back(makeKey(0xB0Bull, 5, -5, 5), makeDec(1, 10));
    entries.emplace_back(makeKey(0xC0FFEEull, 12345678901ll, -1, 2),
                         makeDec(2, 11));
    return entries;
}

// --- Codec round trips ---------------------------------------------

TEST_F(PersistTest, EncodeDecodeRoundTripIsBitExact)
{
    const std::vector<CacheSnapshotEntry> entries = sampleEntries();
    const std::vector<uint8_t> bytes = encodeCacheSnapshot(entries);

    std::vector<CacheSnapshotEntry> decoded;
    const CacheIoResult r =
        decodeCacheSnapshot(bytes.data(), bytes.size(), &decoded);
    ASSERT_TRUE(r.ok()) << r.message;
    ASSERT_EQ(decoded.size(), entries.size());

    // decode returns entries in sorted-key order; match by key.
    for (const CacheSnapshotEntry &want : entries) {
        bool found = false;
        for (const CacheSnapshotEntry &got : decoded) {
            if (!(got.first < want.first)
                && !(want.first < got.first)) {
                EXPECT_TRUE(decsBitwise(got.second, want.second));
                found = true;
            }
        }
        EXPECT_TRUE(found);
    }
}

TEST_F(PersistTest, SnapshotRestoreSnapshotIsByteStable)
{
    // Encoding is a pure function of the entry *set*: any input
    // permutation produces the same bytes, and re-encoding a decode
    // reproduces them exactly.
    std::vector<CacheSnapshotEntry> entries = sampleEntries();
    const std::vector<uint8_t> bytes = encodeCacheSnapshot(entries);

    std::reverse(entries.begin(), entries.end());
    EXPECT_EQ(encodeCacheSnapshot(entries), bytes);

    std::vector<CacheSnapshotEntry> decoded;
    ASSERT_TRUE(
        decodeCacheSnapshot(bytes.data(), bytes.size(), &decoded)
            .ok());
    EXPECT_EQ(encodeCacheSnapshot(std::move(decoded)), bytes);
}

TEST_F(PersistTest, EncodedSizeArithmeticMatchesTheEncoder)
{
    // cacheManifest() computes snapshot bytes arithmetically instead
    // of running the encoder; the two must never drift apart.
    const std::vector<CacheSnapshotEntry> entries = sampleEntries();
    size_t payload = 0;
    for (const CacheSnapshotEntry &e : entries) {
        payload += cacheEntryEncodedBytes(e.second);
        EXPECT_EQ(cacheEntryEncodedBytes(e.second),
                  canonicalBytes(e.second).size());
    }
    EXPECT_EQ(cacheSnapshotEncodedBytes(entries.size(), payload),
              encodeCacheSnapshot(entries).size());
    EXPECT_EQ(cacheSnapshotEncodedBytes(0, 0),
              encodeCacheSnapshot({}).size());
}

TEST_F(PersistTest, EmptySnapshotRoundTrips)
{
    const std::vector<uint8_t> bytes = encodeCacheSnapshot({});
    std::vector<CacheSnapshotEntry> decoded;
    const CacheIoResult r =
        decodeCacheSnapshot(bytes.data(), bytes.size(), &decoded);
    EXPECT_TRUE(r.ok()) << r.message;
    EXPECT_TRUE(decoded.empty());
}

TEST_F(PersistTest, FileSaveLoadSaveIsByteStable)
{
    const std::string path =
        ::testing::TempDir() + "qbasis_persist_stable.qbwc";
    SharedDecompositionCache cache(4);
    for (const CacheSnapshotEntry &e : sampleEntries())
        ASSERT_TRUE(cache.insertLoaded(e.first, e.second));

    ASSERT_TRUE(saveCacheSnapshot(cache, path).ok());

    SharedDecompositionCache restored(8); // stripe count is irrelevant
    const CacheIoResult loaded = loadCacheSnapshot(path, restored);
    ASSERT_TRUE(loaded.ok()) << loaded.message;
    EXPECT_EQ(loaded.entries, sampleEntries().size());
    EXPECT_EQ(loaded.merged, loaded.entries);

    const std::string path2 =
        ::testing::TempDir() + "qbasis_persist_stable2.qbwc";
    ASSERT_TRUE(saveCacheSnapshot(restored, path2).ok());

    const auto slurp = [](const std::string &p) {
        std::vector<uint8_t> bytes;
        EXPECT_TRUE(readFileBytes(p, &bytes));
        return bytes;
    };
    EXPECT_EQ(slurp(path), slurp(path2));
    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST_F(PersistTest, SavedFileEqualsTheEncoderBytes)
{
    // Classes spread over the stripes, so the cache visits them out
    // of key order, plus plans stored out of key order.
    SharedDecompositionCache cache(4);
    for (const CacheSnapshotEntry &e : sampleEntries())
        ASSERT_TRUE(cache.insertLoaded(e.first, e.second));
    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(cache.insertLoaded(
            makeKey(0xD00Dull + static_cast<uint64_t>(i % 7), 300 - i,
                    i, -i),
            makeDec(i % 4, 100 + static_cast<uint64_t>(i))));
    }
    PlanCache plans;
    for (int i = 0; i < 40; ++i) {
        TranspilePlan plan;
        plan.key.structural_hash = 0x9000ull - static_cast<uint64_t>(i);
        plan.key.epochs = {{i % 3, static_cast<uint64_t>(i)}};
        plan.num_physical = 4;
        plan.initial_layout = {0, 1, 2, 3};
        plan.final_layout = {1, 0, 2, 3};
        plan.swaps_inserted = 1;
        plan.ops = {{0, 0, 1}, {-1, 0, 1}, {1, 2, -1}};
        plan.class_keys = {makeKey(0xA11CEull, i, 2, 3)};
        plans.store(plan);
    }

    const std::string path =
        ::testing::TempDir() + "qbasis_persist_streamed.qbwc";
    const CacheIoResult saved = saveCacheSnapshot(cache, plans, path);
    ASSERT_TRUE(saved.ok()) << saved.message;
    std::vector<uint8_t> file;
    ASSERT_TRUE(readFileBytes(path, &file));
    std::vector<CacheSnapshotEntry> entries;
    cache.forEachPublished(
        [&entries](const ClassKey &key, const TwoQubitDecomposition &dec) {
            entries.emplace_back(key, dec);
        });
    const std::vector<uint8_t> encoded =
        encodeCacheSnapshot(std::move(entries), plans.exportPlans());
    EXPECT_EQ(file, encoded);
    EXPECT_EQ(saved.bytes, encoded.size());
    EXPECT_EQ(saved.entries, cache.size());
    std::remove(path.c_str());
}

// --- Merge semantics -----------------------------------------------

TEST_F(PersistTest, ExistingEntriesWinTheMerge)
{
    const ClassKey key = makeKey(1, 2, 3, 4);
    const TwoQubitDecomposition published = makeDec(2, 100);
    const TwoQubitDecomposition loaded = makeDec(2, 200);
    ASSERT_FALSE(decsBitwise(published, loaded));

    SharedDecompositionCache cache(2);
    const TwoQubitDecomposition *out = nullptr;
    ASSERT_EQ(cache.acquire(key, 0, 1, &out),
              SharedDecompositionCache::Claim::Owner);
    cache.publish(key, published);

    EXPECT_FALSE(cache.insertLoaded(key, loaded));
    ASSERT_EQ(cache.acquire(key, 0, 1, &out),
              SharedDecompositionCache::Claim::Ready);
    EXPECT_TRUE(decsBitwise(*out, published));
}

TEST_F(PersistTest, LoadNeverStealsAnInFlightClaim)
{
    // A class claimed by a synthesizing owner must survive a
    // concurrent snapshot load: the loaded copy is dropped, the
    // owner's publish() still succeeds, and waiters see the
    // published bytes.
    const ClassKey key = makeKey(9, 9, 9, 9);
    SharedDecompositionCache cache(2);
    const TwoQubitDecomposition *out = nullptr;
    ASSERT_EQ(cache.acquire(key, 0, 1, &out),
              SharedDecompositionCache::Claim::Owner);

    EXPECT_FALSE(cache.insertLoaded(key, makeDec(1, 300)));
    // Still pending for a second client (not flipped to Ready).
    ASSERT_EQ(cache.acquire(key, 1, 1, &out),
              SharedDecompositionCache::Claim::Pending);

    const TwoQubitDecomposition published = makeDec(2, 400);
    cache.publish(key, published); // must not panic
    const TwoQubitDecomposition *waited = cache.wait(key, 1);
    ASSERT_NE(waited, nullptr);
    EXPECT_TRUE(decsBitwise(*waited, published));
}

TEST_F(PersistTest, LoadedEntriesDoNotPerturbCounters)
{
    SharedDecompositionCache cache(2);
    for (const CacheSnapshotEntry &e : sampleEntries())
        cache.insertLoaded(e.first, e.second);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.size(), sampleEntries().size());
    // stats() must tolerate never-looked-up entries.
    const SharedDecompositionCache::Stats st = cache.stats();
    EXPECT_EQ(st.classes, sampleEntries().size());
    EXPECT_EQ(st.cross_device_hits, 0u);
}

// --- Retirement ----------------------------------------------------

TEST_F(PersistTest, RetireDropsExactlyTheDeadContexts)
{
    SharedDecompositionCache cache(4);
    for (const CacheSnapshotEntry &e : sampleEntries())
        cache.insertLoaded(e.first, e.second);

    std::vector<uint64_t> live = {0xA11CEull, 0xC0FFEEull};
    std::sort(live.begin(), live.end());
    const size_t dropped = cache.retireExcept(live);
    EXPECT_EQ(dropped, 2u); // the two 0xB0B entries
    EXPECT_EQ(cache.size(), 3u);

    // Survivors are exactly the live-context entries.
    for (const CacheSnapshotEntry &e : sampleEntries()) {
        const TwoQubitDecomposition *out = nullptr;
        const auto claim = cache.acquire(e.first, 0, 1, &out);
        if (e.first.context == 0xB0Bull) {
            EXPECT_EQ(claim, SharedDecompositionCache::Claim::Owner);
            cache.abandon(e.first);
        } else {
            EXPECT_EQ(claim, SharedDecompositionCache::Claim::Ready);
        }
    }
}

TEST_F(PersistTest, RetireSkipsInFlightClaims)
{
    SharedDecompositionCache cache(2);
    const ClassKey key = makeKey(0xDEADull, 1, 1, 1);
    const TwoQubitDecomposition *out = nullptr;
    ASSERT_EQ(cache.acquire(key, 0, 1, &out),
              SharedDecompositionCache::Claim::Owner);
    EXPECT_EQ(cache.retireExcept({}), 0u); // claimed, not published
    cache.publish(key, makeDec(1, 500));   // must not panic
    EXPECT_EQ(cache.retireExcept({}), 1u); // now retirable
}

TEST_F(PersistTest, RetirementNeverDropsALiveVersionedBasis)
{
    // Property: for any split of contexts into live/dead, a sweep
    // against the live VersionedBasisSet snapshots keeps every entry
    // whose basis appears in some snapshot and drops the rest.
    const SynthOptions opts;
    const std::vector<Mat4> gates = {cnotGate(), czGate(), iswapGate(),
                                     bGate(), sqrtIswapGate()};
    Rng rng(20260730ull);
    for (int trial = 0; trial < 20; ++trial) {
        SharedDecompositionCache cache(4);
        std::vector<uint64_t> all_contexts;
        for (size_t g = 0; g < gates.size(); ++g) {
            const uint64_t ctx =
                DecompositionCache::contextHash(gates[g], opts);
            all_contexts.push_back(ctx);
            cache.insertLoaded(
                makeKey(ctx, static_cast<int64_t>(g), 0, 0),
                makeDec(1, 600 + static_cast<uint64_t>(g)));
        }

        // Random non-empty live subset, realized as VersionedBasisSet
        // snapshots (one single-edge set per live gate).
        std::vector<bool> live(gates.size(), false);
        bool any = false;
        for (size_t g = 0; g < gates.size(); ++g) {
            live[g] = rng.uniform() < 0.5;
            any = any || live[g];
        }
        if (!any)
            live[rng.uniformInt(gates.size())] = true;

        std::vector<std::unique_ptr<VersionedBasisSet>> sets;
        std::vector<uint64_t> contexts;
        for (size_t g = 0; g < gates.size(); ++g) {
            if (!live[g])
                continue;
            CalibratedBasisSet set;
            EdgeBasis basis;
            basis.gate = gates[g];
            basis.duration_ns = 40.0;
            set.bases.push_back(basis);
            sets.push_back(
                std::make_unique<VersionedBasisSet>(std::move(set)));
            appendLiveContexts(sets.back()->snapshot(), opts,
                               contexts);
        }
        std::sort(contexts.begin(), contexts.end());
        contexts.erase(
            std::unique(contexts.begin(), contexts.end()),
            contexts.end());

        const size_t expected_drops = static_cast<size_t>(
            std::count(live.begin(), live.end(), false));
        EXPECT_EQ(cache.retireExcept(contexts), expected_drops);
        for (size_t g = 0; g < gates.size(); ++g) {
            const TwoQubitDecomposition *out = nullptr;
            const auto claim = cache.acquire(
                makeKey(all_contexts[g], static_cast<int64_t>(g), 0,
                        0),
                0, 1, &out);
            if (live[g]) {
                EXPECT_EQ(claim,
                          SharedDecompositionCache::Claim::Ready)
                    << "trial " << trial << ": live basis " << g
                    << " was retired";
            } else {
                EXPECT_EQ(claim,
                          SharedDecompositionCache::Claim::Owner);
                cache.abandon(
                    makeKey(all_contexts[g],
                            static_cast<int64_t>(g), 0, 0));
            }
        }
    }
}

// --- Corrupt / truncated / mismatched inputs -----------------------

TEST_F(PersistTest, EverySingleByteFlipIsRejected)
{
    // Every byte of the snapshot is covered by the magic, the
    // version, or a CRC, so any one-byte corruption must fail to
    // decode -- and must never crash (the ASan job runs this too).
    // Exhaustive: every position of the ~4 KB sample snapshot.
    const std::vector<uint8_t> bytes =
        encodeCacheSnapshot(sampleEntries());
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
        std::vector<uint8_t> mutated = bytes;
        mutated[pos] ^= 0x20u;
        std::vector<CacheSnapshotEntry> out;
        const CacheIoResult r =
            decodeCacheSnapshot(mutated.data(), mutated.size(), &out);
        EXPECT_FALSE(r.ok()) << "flip at byte " << pos << " accepted";
        EXPECT_TRUE(out.empty()) << "flip at byte " << pos
                                 << " leaked entries";
    }
}

TEST_F(PersistTest, EveryTruncationIsRejected)
{
    const std::vector<uint8_t> bytes =
        encodeCacheSnapshot(sampleEntries());
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::vector<CacheSnapshotEntry> out;
        const CacheIoResult r =
            decodeCacheSnapshot(bytes.data(), len, &out);
        EXPECT_FALSE(r.ok()) << "prefix of " << len << " accepted";
        EXPECT_TRUE(out.empty());
    }
    // The untruncated buffer still decodes (the loop above must not
    // have been vacuously green).
    EXPECT_TRUE(
        decodeCacheSnapshot(bytes.data(), bytes.size(), nullptr).ok());
}

TEST_F(PersistTest, MismatchesReportTheSpecificStatus)
{
    std::vector<uint8_t> bytes = encodeCacheSnapshot(sampleEntries());

    {
        std::vector<uint8_t> bad = bytes;
        bad[0] ^= 0xFFu;
        EXPECT_EQ(decodeCacheSnapshot(bad.data(), bad.size(), nullptr)
                      .status,
                  CacheIoStatus::BadMagic);
    }
    {
        std::vector<uint8_t> bad = bytes;
        bad[8] += 1; // format_version (checked before the header CRC)
        EXPECT_EQ(decodeCacheSnapshot(bad.data(), bad.size(), nullptr)
                      .status,
                  CacheIoStatus::VersionMismatch);
    }
    {
        // Forge a different coord quantum WITH a recomputed header
        // CRC: the quantum check itself must fire.
        std::vector<uint8_t> bad = bytes;
        bad[16] ^= 0x01u; // low mantissa byte of coord_quantum
        const uint32_t crc = cacheCrc32(bad.data(), 120);
        for (int i = 0; i < 4; ++i)
            bad[120 + static_cast<size_t>(i)] =
                static_cast<uint8_t>(crc >> (8 * i));
        EXPECT_EQ(decodeCacheSnapshot(bad.data(), bad.size(), nullptr)
                      .status,
                  CacheIoStatus::QuantumMismatch);
    }
    {
        std::vector<uint8_t> bad = bytes;
        bad.back() ^= 0x10u;
        EXPECT_EQ(decodeCacheSnapshot(bad.data(), bad.size(), nullptr)
                      .status,
                  CacheIoStatus::ChecksumMismatch);
    }
    {
        std::vector<uint8_t> bad = bytes;
        bad.push_back(0); // trailing garbage
        EXPECT_EQ(decodeCacheSnapshot(bad.data(), bad.size(), nullptr)
                      .status,
                  CacheIoStatus::Malformed);
    }
    {
        EXPECT_EQ(
            decodeCacheSnapshot(bytes.data(), 10, nullptr).status,
            CacheIoStatus::Truncated);
    }

    // A failed load leaves the destination cache untouched.
    const std::string path =
        ::testing::TempDir() + "qbasis_persist_corrupt.qbwc";
    bytes[bytes.size() - 1] ^= 0x10u;
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
    SharedDecompositionCache cache(2);
    EXPECT_FALSE(loadCacheSnapshot(path, cache).ok());
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
}

TEST_F(PersistTest, CraftedOverflowHeadersAreRejected)
{
    // A forged section table whose u64 sums wrap around (so
    // offset + size checks would pass modulo 2^64) must be rejected
    // before any section scan -- this is the decoder's defense
    // against out-of-bounds CRC reads, so it must never crash.
    const std::vector<uint8_t> bytes =
        encodeCacheSnapshot(sampleEntries());
    const auto patch_u64 = [](std::vector<uint8_t> &buf, size_t off,
                              uint64_t v) {
        for (int i = 0; i < 8; ++i)
            buf[off + static_cast<size_t>(i)] =
                static_cast<uint8_t>(v >> (8 * i));
    };
    const auto reseal = [](std::vector<uint8_t> &buf) {
        const uint32_t crc = cacheCrc32(buf.data(), 120);
        for (int i = 0; i < 4; ++i)
            buf[120 + static_cast<size_t>(i)] =
                static_cast<uint8_t>(crc >> (8 * i));
    };
    // Header layout (v3): entry_count @32, index_size @56,
    // payload_off @72, payload_size @80.
    struct Forge
    {
        uint64_t entry_count, index_size, payload_off, payload_size;
    };
    std::vector<Forge> forges;
    {
        // entry_count * 48 wraps; index_size matches the wrapped
        // product and payload_off/size close the file-size equation
        // modulo 2^64.
        const uint64_t count = UINT64_MAX / 48 + 2;
        const uint64_t wrapped = count * 48ull; // intentional wrap
        forges.push_back({count, wrapped, 124ull + wrapped,
                          static_cast<uint64_t>(0)});
    }
    forges.push_back({0, 0, 124, UINT64_MAX - 50}); // off + size wraps
    forges.push_back(
        {UINT64_MAX, UINT64_MAX - 15, 76, UINT64_MAX});
    for (const Forge &forge : forges) {
        std::vector<uint8_t> bad = bytes;
        patch_u64(bad, 32, forge.entry_count);
        patch_u64(bad, 56, forge.index_size);
        patch_u64(bad, 72, forge.payload_off);
        patch_u64(bad, 80, forge.payload_size);
        reseal(bad);
        std::vector<CacheSnapshotEntry> out;
        const CacheIoResult r =
            decodeCacheSnapshot(bad.data(), bad.size(), &out);
        EXPECT_FALSE(r.ok());
        EXPECT_TRUE(out.empty());
    }
    // A forged plan_count (@40) must be bounded by the plans section
    // before the decoder reserves room for that many plans; an
    // unbounded reserve threw std::bad_alloc out of the decoder.
    for (const uint64_t plan_count :
         {uint64_t{1} << 40, UINT64_MAX / 2, UINT64_MAX}) {
        std::vector<uint8_t> bad = bytes;
        patch_u64(bad, 40, plan_count);
        reseal(bad);
        std::vector<CacheSnapshotEntry> out;
        std::vector<TranspilePlan> plans;
        const CacheIoResult r =
            decodeCacheSnapshot(bad.data(), bad.size(), &out, &plans);
        EXPECT_EQ(r.status, CacheIoStatus::Malformed);
        EXPECT_TRUE(out.empty());
        EXPECT_TRUE(plans.empty());
    }
}

// --- Multi-byte mutants and section-length splices ----------------
//
// Every mutant must either be rejected, with nothing appended to the
// outputs, or decode to entries and plans that encode back to exactly
// the mutated bytes: the decoder accepts only canonical snapshots, so
// whatever it accepts is what the encoder would have written. None
// may crash (the ASan job runs these too).

/** Header layout (v3): section s's table row {offset u64, size u64,
 *  crc32 u32, pad u32} sits at 48 + 24 s; the header CRC at 120. */
constexpr size_t kSectionRow = 48;
constexpr size_t kHeaderCrc = 120;
constexpr size_t kHeaderSize = 124;

uint64_t
readU64(const std::vector<uint8_t> &buf, size_t off)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(buf[off + static_cast<size_t>(i)])
             << (8 * i);
    return v;
}

void
writeLe(std::vector<uint8_t> &buf, size_t off, uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        buf[off + static_cast<size_t>(i)] =
            static_cast<uint8_t>(v >> (8 * i));
}

/** Recompute every section CRC the table can locate, then the
 *  header CRC. */
void
resealAll(std::vector<uint8_t> &buf)
{
    for (size_t sec = 0; sec < 3; ++sec) {
        const size_t row = kSectionRow + 24 * sec;
        const uint64_t off = readU64(buf, row);
        const uint64_t size = readU64(buf, row + 8);
        if (off <= buf.size() && size <= buf.size() - off)
            writeLe(buf, row + 16,
                    cacheCrc32(buf.data() + off,
                               static_cast<size_t>(size)),
                    4);
    }
    writeLe(buf, kHeaderCrc, cacheCrc32(buf.data(), kHeaderCrc), 4);
}

/** Sample entries plus two plans, so every section is non-empty. */
std::vector<uint8_t>
sampleSnapshotWithPlans()
{
    std::vector<TranspilePlan> plans(2);
    plans[0].key.structural_hash = 0x5151ull;
    plans[0].key.options_hash = 0x0F0Full;
    plans[0].key.epochs = {{0, 1}, {2, 3}};
    plans[0].num_physical = 5;
    plans[0].initial_layout = {0, 1, 2};
    plans[0].final_layout = {1, 0, 2};
    plans[0].swaps_inserted = 1;
    plans[0].ops = {{0, 0, 1}, {-1, 0, 1}, {1, 2, -1}};
    plans[0].class_keys = {makeKey(0xA11CEull, 1, 2, 3)};
    plans[1].key.structural_hash = 0x7777ull;
    plans[1].key.epochs = {{1, 9}};
    plans[1].num_physical = 2;
    plans[1].initial_layout = {1, 0};
    plans[1].final_layout = {1, 0};
    plans[1].ops = {{0, 1, 0}};
    plans[1].class_keys = {makeKey(0xB0Bull, 0, 0, 0)};
    return encodeCacheSnapshot(sampleEntries(), std::move(plans));
}

/** Rejected with empty outputs, or the canonical bytes of what it
 *  decodes to. */
::testing::AssertionResult
rejectedOrCanonical(const std::vector<uint8_t> &mutant)
{
    std::vector<CacheSnapshotEntry> entries;
    std::vector<TranspilePlan> plans;
    const CacheIoResult r = decodeCacheSnapshot(
        mutant.data(), mutant.size(), &entries, &plans);
    if (!r.ok()) {
        if (entries.empty() && plans.empty())
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "rejected (" << r.message << ") but leaked "
               << entries.size() << " entries, " << plans.size()
               << " plans";
    }
    const std::vector<uint8_t> again =
        encodeCacheSnapshot(std::move(entries), std::move(plans));
    if (again == mutant)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "accepted a " << mutant.size()
           << "-byte mutant that re-encodes to " << again.size()
           << " different bytes";
}

TEST_F(PersistTest, MultiByteMutantsAreRejectedOrCanonical)
{
    // 2-8 bytes XORed with nonzero values, anywhere in the file or
    // inside one region (header, each section), each mutant tried
    // as is and with every CRC resealed.
    const std::vector<uint8_t> bytes = sampleSnapshotWithPlans();
    ASSERT_TRUE(rejectedOrCanonical(bytes));
    std::vector<std::pair<size_t, size_t>> regions = {
        {0, bytes.size()}, {0, kHeaderSize}};
    for (size_t sec = 0; sec < 3; ++sec) {
        const uint64_t off = readU64(bytes, kSectionRow + 24 * sec);
        const uint64_t size = readU64(bytes, kSectionRow + 24 * sec + 8);
        ASSERT_GT(size, 0u);
        regions.emplace_back(off, off + size);
    }
    Rng rng(0xF022u);
    size_t accepted = 0;
    for (int m = 0; m < 6000; ++m) {
        const auto [lo, hi] = regions[static_cast<size_t>(m) % regions.size()];
        std::vector<uint8_t> mutant = bytes;
        const uint64_t n = 2 + rng.uniformInt(7);
        for (uint64_t k = 0; k < n; ++k) {
            const size_t pos = lo + rng.uniformInt(hi - lo);
            mutant[pos] ^= static_cast<uint8_t>(1 + rng.uniformInt(255));
        }
        if (m % 2 == 1)
            resealAll(mutant);
        std::vector<CacheSnapshotEntry> probe;
        accepted += decodeCacheSnapshot(mutant.data(), mutant.size(),
                                        &probe)
                        .ok();
        EXPECT_TRUE(rejectedOrCanonical(mutant))
            << "mutant " << m << " (" << n << " bytes in [" << lo
            << ", " << hi << ")" << (m % 2 ? ", resealed" : "") << ")";
    }
    // Resealed payload mutants are valid snapshots of other values:
    // the accepting branch is exercised, not only the rejections.
    EXPECT_GT(accepted, 0u);
}

TEST_F(PersistTest, SectionLengthSplicesAreRejectedOrCanonical)
{
    // Insert or delete bytes inside one section, then rewrite the
    // section table (that section's size, the later offsets) and
    // reseal every CRC: the damage is then visible only to the
    // structural checks.
    const std::vector<uint8_t> bytes = sampleSnapshotWithPlans();
    Rng rng(0x5B11CEu);
    for (size_t sec = 0; sec < 3; ++sec) {
        const size_t row = kSectionRow + 24 * sec;
        const uint64_t off = readU64(bytes, row);
        const uint64_t size = readU64(bytes, row + 8);
        for (int m = 0; m < 400; ++m) {
            std::vector<uint8_t> mutant = bytes;
            const size_t at = off + rng.uniformInt(size);
            const size_t lengths[] = {1, 2, 3, 4, 7, 8, 9, 16, 24, 32, 48};
            const size_t len = lengths[rng.uniformInt(11)];
            const bool insert = m % 2 == 0;
            int64_t delta = 0;
            if (insert) {
                std::vector<uint8_t> junk(len);
                for (uint8_t &b : junk)
                    b = static_cast<uint8_t>(rng.uniformInt(256));
                // Half the inserts copy bytes of the section itself,
                // so they look like well-formed records.
                if (m % 4 == 0 && at + len <= off + size)
                    std::copy(bytes.begin() + static_cast<long>(at),
                              bytes.begin() + static_cast<long>(at + len),
                              junk.begin());
                mutant.insert(mutant.begin() + static_cast<long>(at),
                              junk.begin(), junk.end());
                delta = static_cast<int64_t>(len);
            } else {
                const size_t cut =
                    std::min<size_t>(len, off + size - at);
                mutant.erase(mutant.begin() + static_cast<long>(at),
                             mutant.begin() + static_cast<long>(at + cut));
                delta = -static_cast<int64_t>(cut);
            }
            writeLe(mutant, row + 8,
                    static_cast<uint64_t>(static_cast<int64_t>(size)
                                          + delta),
                    8);
            for (size_t later = sec + 1; later < 3; ++later) {
                const size_t lrow = kSectionRow + 24 * later;
                writeLe(mutant, lrow,
                        static_cast<uint64_t>(static_cast<int64_t>(
                                                  readU64(bytes, lrow))
                                              + delta),
                        8);
            }
            resealAll(mutant);
            EXPECT_TRUE(rejectedOrCanonical(mutant))
                << "section " << sec << (insert ? " insert " : " delete ")
                << len << " at " << at;
        }
    }
}

// --- Warm entries are bit-identical through the engine -------------

TEST_F(PersistTest, WarmCacheReproducesFreshSynthesisBitwise)
{
    // Synthesize a class cold, round-trip it through the snapshot
    // into a fresh cache, and synthesize the same request warm: the
    // dressed result must be bitwise equal (same class bytes, same
    // canonicalKakDecompose re-dressing path) with zero warm misses.
    SynthOptions opts;
    opts.restarts = 2;
    opts.adam_iters = 250;
    opts.polish_iters = 100;
    opts.target_infidelity = 1e-7;

    std::vector<SynthRequest> requests;
    SynthRequest req;
    req.edge_id = 0;
    req.target = cnotGate();
    req.basis = bGate();
    requests.push_back(req);
    req.target = cphaseGate(0.77);
    requests.push_back(req);

    SynthEngine engine(2);
    SharedDecompositionCache cold(4);
    const std::vector<TwoQubitDecomposition> cold_out =
        engine.synthesizeBatch(requests, cold, opts);

    const std::string path =
        ::testing::TempDir() + "qbasis_persist_warm.qbwc";
    ASSERT_TRUE(saveCacheSnapshot(cold, path).ok());
    SharedDecompositionCache warm(4);
    const CacheIoResult loaded = loadCacheSnapshot(path, warm);
    ASSERT_TRUE(loaded.ok()) << loaded.message;
    EXPECT_EQ(loaded.merged, cold.size());

    const std::vector<TwoQubitDecomposition> warm_out =
        engine.synthesizeBatch(requests, warm, opts);
    EXPECT_EQ(warm.misses(), 0u);
    ASSERT_EQ(warm_out.size(), cold_out.size());
    for (size_t i = 0; i < cold_out.size(); ++i)
        EXPECT_TRUE(decsBitwise(cold_out[i], warm_out[i]))
            << "request " << i;
    std::remove(path.c_str());
}

} // namespace
} // namespace qbasis
