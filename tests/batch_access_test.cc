/**
 * @file
 * TalusCache::accessBatch must be bit-exact with the serial access()
 * loop: same hits, same monitor state, same automatic reconfiguration
 * points (even when an interval boundary lands mid-batch), and the
 * same final configuration — batching is purely a dispatch-hoisting
 * optimization, never a behavioral knob.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/talus.h"
#include "partition/partitioned_cache.h"
#include "partition/vantage.h"
#include "policy/lru.h"
#include "util/rng.h"

namespace talus {
namespace {

std::vector<Addr>
randomAddrs(uint64_t n, uint64_t working_set, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> addrs(n);
    for (Addr& a : addrs)
        a = rng.below(working_set);
    return addrs;
}

/** Drives one cache serially, one batched, and diffs every stat. */
void
expectBatchMatchesSerial(const TalusCache::Config& cfg,
                         const std::vector<Addr>& addrs,
                         size_t batch_size)
{
    TalusCache serial(cfg);
    TalusCache batched(cfg);

    uint64_t serial_hits = 0;
    for (Addr a : addrs)
        serial_hits += serial.access(a, 0);

    uint64_t batched_hits = 0;
    for (size_t off = 0; off < addrs.size(); off += batch_size) {
        const size_t n = std::min(batch_size, addrs.size() - off);
        batched_hits += batched.accessBatch(
            Span<const Addr>(addrs.data() + off, n), 0);
    }

    EXPECT_EQ(batched_hits, serial_hits);
    EXPECT_EQ(batched.reconfigurations(), serial.reconfigurations());
    EXPECT_DOUBLE_EQ(batched.missRatio(), serial.missRatio());

    const TalusCache::PartStats bs = batched.stats(0);
    const TalusCache::PartStats ss = serial.stats(0);
    EXPECT_EQ(bs.accesses, ss.accesses);
    EXPECT_EQ(bs.misses, ss.misses);
    EXPECT_EQ(bs.targetLines, ss.targetLines);
    EXPECT_DOUBLE_EQ(bs.rho, ss.rho);

    if (cfg.monitoring) {
        const MissCurve bc = batched.curve(0);
        const MissCurve sc = serial.curve(0);
        ASSERT_EQ(bc.points().size(), sc.points().size());
        for (size_t i = 0; i < bc.points().size(); ++i) {
            EXPECT_DOUBLE_EQ(bc.points()[i].size, sc.points()[i].size);
            EXPECT_DOUBLE_EQ(bc.points()[i].misses,
                             sc.points()[i].misses);
        }
    }
}

TEST(BatchAccess, MatchesSerialWithoutReconfiguration)
{
    TalusCache::Config cfg;
    cfg.llcLines = 4096;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.allocatorName = "";
    cfg.seed = 5;
    expectBatchMatchesSerial(cfg, randomAddrs(60'000, 8192, 41), 1000);
}

TEST(BatchAccess, MatchesSerialAcrossAutoReconfigBoundaries)
{
    // reconfigInterval deliberately not a divisor of the batch size,
    // so automatic reconfigurations fire mid-batch; the batched path
    // must split at exactly the same access counts.
    TalusCache::Config cfg;
    cfg.llcLines = 4096;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 7'777;
    cfg.seed = 5;
    expectBatchMatchesSerial(cfg, randomAddrs(60'000, 8192, 43), 4096);
}

TEST(BatchAccess, MatchesSerialForPlainPartitionedBaseline)
{
    TalusCache::Config cfg;
    cfg.llcLines = 4096;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.talus = false;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 9'999;
    cfg.seed = 7;
    expectBatchMatchesSerial(cfg, randomAddrs(40'000, 8192, 47), 512);
}

TEST(BatchAccess, OddBatchSizesAndEmptySpansAreSafe)
{
    TalusCache::Config cfg;
    cfg.llcLines = 1024;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.allocatorName = "";
    TalusCache cache(cfg);

    EXPECT_EQ(cache.accessBatch(Span<const Addr>(), 0), 0u);
    expectBatchMatchesSerial(cfg, randomAddrs(10'000, 2048, 53), 1);
    expectBatchMatchesSerial(cfg, randomAddrs(10'000, 2048, 59), 3);
}

/** Addresses where odd entries collide with their predecessor in the
 *  32-bit tag fingerprint (low32 ^ high32) while remaining distinct
 *  tags: flipping bit 0 and bit 32 together preserves the fold. */
std::vector<Addr>
fingerprintCollidingAddrs(uint64_t n, uint64_t working_set,
                          uint64_t seed)
{
    std::vector<Addr> addrs = randomAddrs(n, working_set, seed);
    for (size_t i = 1; i < addrs.size(); i += 2)
        addrs[i] = addrs[i - 1] ^ 0x1'0000'0001ull;
    return addrs;
}

TEST(BatchAccess, FingerprintCollisionsNeverChangeBatchResults)
{
    // The same collision-heavy trace through the standard
    // serial-vs-batched diff, with auto-reconfig boundaries landing
    // mid-batch: monitors, curves, and reconfiguration points must
    // all survive constant fingerprint-verify rejections.
    TalusCache::Config cfg;
    cfg.llcLines = 4096;
    cfg.ways = 16;
    cfg.numParts = 1;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 7'777;
    cfg.seed = 13;
    expectBatchMatchesSerial(
        cfg, fingerprintCollidingAddrs(60'000, 8192, 73), 4096);
}

TEST(BatchAccess, MultiplePartitionsInterleaved)
{
    // Batches alternate between logical partitions; totals must match
    // the serially interleaved run access-for-access.
    TalusCache::Config cfg;
    cfg.llcLines = 8192;
    cfg.ways = 32;
    cfg.numParts = 2;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 5'001;
    cfg.seed = 11;

    const std::vector<Addr> a0 = randomAddrs(30'000, 4096, 61);
    std::vector<Addr> a1 = randomAddrs(30'000, 4096, 67);
    for (Addr& a : a1)
        a += 1ull << 40;

    TalusCache serial(cfg);
    TalusCache batched(cfg);
    constexpr size_t kChunk = 750;
    uint64_t serial_hits = 0;
    uint64_t batched_hits = 0;
    for (size_t off = 0; off < a0.size(); off += kChunk) {
        for (size_t i = off; i < off + kChunk; ++i)
            serial_hits += serial.access(a0[i], 0);
        for (size_t i = off; i < off + kChunk; ++i)
            serial_hits += serial.access(a1[i], 1);
        batched_hits += batched.accessBatch(
            Span<const Addr>(a0.data() + off, kChunk), 0);
        batched_hits += batched.accessBatch(
            Span<const Addr>(a1.data() + off, kChunk), 1);
    }

    EXPECT_EQ(batched_hits, serial_hits);
    EXPECT_EQ(batched.reconfigurations(), serial.reconfigurations());
    for (PartId p = 0; p < 2; ++p) {
        EXPECT_EQ(batched.stats(p).misses, serial.stats(p).misses);
        EXPECT_EQ(batched.stats(p).targetLines,
                  serial.stats(p).targetLines);
    }
}

/**
 * Associativities covering every row-scan body: 8, 16, 32 and 64 run
 * the AVX2 scans on hosts that have AVX2 (16 and 32 through their
 * constant-trip forms), 12 runs the scalar loops on every host, and 64
 * also covers the full-width way-span mask.
 */
class KernelWidth : public ::testing::TestWithParam<uint32_t>
{
};

INSTANTIATE_TEST_SUITE_P(Ways, KernelWidth,
                         ::testing::Values(8u, 12u, 16u, 32u, 64u),
                         [](const ::testing::TestParamInfo<uint32_t>& i) {
                             return "ways" + std::to_string(i.param);
                         });

/** A Vantage+LRU cache of @p sets x @p ways lines over 4 partitions. */
std::unique_ptr<SchemePartitionedCache>
vantageLru(uint32_t sets, uint32_t ways, bool hashed)
{
    SetAssocCache::Config cc;
    cc.numSets = sets;
    cc.numWays = ways;
    cc.hashSetIndex = hashed;
    cc.hashSeed = 0x5E7;
    return std::make_unique<SchemePartitionedCache>(
        cc, std::make_unique<LruPolicy>(),
        std::make_unique<VantageScheme>(4));
}

/** Every line, counter and LRU stamp of two caches must agree. */
void
expectSameState(SchemePartitionedCache& fused,
                SchemePartitionedCache& generic)
{
    SetAssocCache& f = fused.cache();
    SetAssocCache& g = generic.cache();
    const auto& fl = static_cast<const LruPolicy&>(f.policy());
    const auto& gl = static_cast<const LruPolicy&>(g.policy());
    for (uint32_t line = 0; line < f.numLines(); ++line) {
        ASSERT_EQ(f.lineValid(line), g.lineValid(line)) << "line " << line;
        if (!f.lineValid(line))
            continue;
        ASSERT_EQ(f.lineTag(line), g.lineTag(line)) << "line " << line;
        ASSERT_EQ(f.linePart(line), g.linePart(line)) << "line " << line;
        ASSERT_EQ(fl.stamp(line), gl.stamp(line)) << "line " << line;
    }
    for (PartId p = 0; p < fused.numPartitions(); ++p) {
        EXPECT_EQ(fused.occupancy(p), generic.occupancy(p));
        EXPECT_EQ(fused.stats().accesses(p), generic.stats().accesses(p));
        EXPECT_EQ(fused.stats().hits(p), generic.stats().hits(p));
    }
    EXPECT_EQ(fused.stats().evictions(), generic.stats().evictions());
}

/**
 * The fused kernel (serial accessFused1 and the batched routed loop,
 * alternating) against the generic SetAssocCache path over
 * VantageScheme + LruPolicy, one block at a time: random block
 * lengths and partitions, a working set of 3x capacity so misses,
 * demotions and set-conflict evictions all fire, fingerprint-colliding
 * neighbors in every block, and retargets that open and close the
 * unmanaged region and zero a partition.
 */
void
runFusedVsGeneric(uint32_t ways, uint32_t sets, bool hashed, bool collide)
{
    const std::unique_ptr<SchemePartitionedCache> fused =
        vantageLru(sets, ways, hashed);
    const std::unique_ptr<SchemePartitionedCache> generic =
        vantageLru(sets, ways, hashed);
    ASSERT_TRUE(fused->fusedKernelActive());
    const uint64_t lines = static_cast<uint64_t>(sets) * ways;
    const std::vector<std::vector<uint64_t>> targets = {
        {lines / 4, lines / 4, lines / 4, lines / 8},
        {lines / 2, 0, lines / 8, lines / 4},
        {lines / 8, lines / 2, lines / 4, 1},
        {lines / 4, lines / 4, lines / 4, lines / 4},
    };
    Rng rng(ways * 1000 + sets);
    std::vector<Addr> addrs;
    std::vector<PartId> parts;
    uint64_t step = 0;
    for (const std::vector<uint64_t>& t : targets) {
        fused->setTargets(t);
        generic->setTargets(t);
        for (int block = 0; block < 60; ++block, ++step) {
            const uint64_t n = 1 + rng.below(2 * ways + 40);
            addrs.resize(n);
            parts.resize(n);
            for (uint64_t i = 0; i < n; ++i) {
                addrs[i] = collide && i % 2 == 1
                               ? addrs[i - 1] ^ 0x1'0000'0001ull
                               : rng.below(3 * lines);
                parts[i] = static_cast<PartId>(rng.below(4));
            }
            uint64_t fused_hits = 0;
            if (step % 2 == 0) {
                fused_hits =
                    fused->accessBatchRouted(addrs.data(), parts.data(), n);
            } else {
                for (uint64_t i = 0; i < n; ++i)
                    fused_hits += fused->accessFused1(addrs[i], parts[i]);
            }
            uint64_t generic_hits = 0;
            for (uint64_t i = 0; i < n; ++i)
                generic_hits +=
                    generic->cache().access(addrs[i], parts[i]);
            ASSERT_EQ(fused_hits, generic_hits) << "block " << step;
        }
        expectSameState(*fused, *generic);
    }
}

TEST_P(KernelWidth, FusedMatchesGenericInLockstep)
{
    // 96 sets: not a power of two, so the set index takes the modulo.
    runFusedVsGeneric(GetParam(), 96, false, false);
    runFusedVsGeneric(GetParam(), 64, true, false);
}

TEST_P(KernelWidth, FingerprintCollisionsMatchGenericInLockstep)
{
    runFusedVsGeneric(GetParam(), 96, false, true);
    runFusedVsGeneric(GetParam(), 64, true, true);
}

TalusCache::Config
widthConfig(uint32_t ways)
{
    TalusCache::Config cfg;
    cfg.llcLines = 128 * ways;
    cfg.ways = ways;
    cfg.numParts = 1;
    cfg.allocatorName = "HillClimb";
    cfg.reconfigInterval = 7'777;
    cfg.seed = 13;
    return cfg;
}

TEST_P(KernelWidth, BatchMatchesSerialAcrossAutoReconfigBoundaries)
{
    const TalusCache::Config cfg = widthConfig(GetParam());
    expectBatchMatchesSerial(cfg, randomAddrs(40'000, 2 * cfg.llcLines, 43),
                             4096);
    expectBatchMatchesSerial(cfg, randomAddrs(10'000, 2 * cfg.llcLines, 53),
                             3);
}

TEST_P(KernelWidth, FingerprintCollisionsNeverChangeBatchResults)
{
    const TalusCache::Config cfg = widthConfig(GetParam());
    expectBatchMatchesSerial(
        cfg, fingerprintCollidingAddrs(40'000, 2 * cfg.llcLines, 73),
        4096);
}

/** Reference probe: bit w set iff row[w] == fp. */
uint64_t
probeReference(const std::vector<uint32_t>& row, uint32_t fp)
{
    uint64_t m = 0;
    for (size_t w = 0; w < row.size(); ++w)
        if (row[w] == fp)
            m |= 1ull << w;
    return m;
}

/** Reference argmin: the selected way with the smallest stamp. */
uint32_t
argminReference(const std::vector<uint64_t>& stamps, uint64_t m)
{
    uint32_t best = 64;
    for (uint32_t w = 0; w < stamps.size(); ++w)
        if (((m >> w) & 1) != 0 && (best == 64 || stamps[w] < stamps[best]))
            best = w;
    return best;
}

TEST(RowScan, ProbeAndArgminMatchScalarReferences)
{
    // Every width the kernel accepts, each checked through the scalar
    // bodies and, where simdUsable() says the host runs them, the
    // AVX2 bodies. Stamps straddle 2^57, where (stamp << 6) crosses
    // the sign bit the AVX2 argmin biases away.
    Rng rng(99);
    for (uint32_t ways = 1; ways <= 64; ++ways) {
        const bool simd = rowscan::simdUsable(ways);
        std::vector<uint32_t> fps(ways);
        std::vector<uint64_t> stamps(ways);
        for (int trial = 0; trial < 200; ++trial) {
            // A 4-symbol alphabet: most probes match several ways.
            for (uint32_t& f : fps)
                f = 0xF00D0000u + static_cast<uint32_t>(rng.below(4));
            const uint32_t needle =
                0xF00D0000u + static_cast<uint32_t>(rng.below(5));
            const uint64_t want_fp = probeReference(fps, needle);
            EXPECT_EQ(rowscan::probeRowScalar(fps.data(), needle, ways),
                      want_fp);
            EXPECT_EQ(rowscan::probeRow(fps.data(), needle, ways, simd),
                      want_fp)
                << "ways " << ways;

            // Distinct stamps (LRU stamps are unique), shuffled.
            const uint64_t base = trial % 2 == 0
                                      ? (1ull << 57) - ways / 2
                                      : rng.below(1u << 20);
            for (uint32_t w = 0; w < ways; ++w)
                stamps[w] = base + w;
            for (uint32_t w = ways; w > 1; --w)
                std::swap(stamps[w - 1], stamps[rng.below(w)]);

            const uint64_t span =
                ways == 64 ? ~0ull : (1ull << ways) - 1;
            std::vector<uint64_t> masks = {span,
                                           (rng.next64() & span) | 1};
            for (uint32_t w = 0; w < ways; ++w) {
                masks.push_back(1ull << w);            // single bit
                if (ways > 1)
                    masks.push_back(span & ~(1ull << w)); // all but one
            }
            for (uint64_t m : masks) {
                const uint32_t want = argminReference(stamps, m);
                ASSERT_EQ(
                    rowscan::argminRowScalar(stamps.data(), m, ways),
                    want)
                    << "ways " << ways << " mask " << std::hex << m;
                ASSERT_EQ(
                    rowscan::argminRow(stamps.data(), m, ways, simd),
                    want)
                    << "ways " << ways << " mask " << std::hex << m;
            }
        }
    }
}

} // namespace
} // namespace talus
