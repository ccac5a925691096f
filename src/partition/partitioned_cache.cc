#include "partition/partitioned_cache.h"

#include <typeinfo>

#if TALUS_ROW_AVX2
#include <immintrin.h>
#endif

#include "partition/futility_scaling.h"
#include "partition/ideal_partition.h"
#include "partition/set_partition.h"
#include "partition/unpartitioned.h"
#include "partition/vantage.h"
#include "partition/way_partition.h"
#include "policy/lru.h"
#include "policy/policy_factory.h"
#include "util/bits.h"
#include "util/log.h"

namespace talus {

namespace rowscan {

#if TALUS_ROW_AVX2
// The callers' ways are almost always 16 (the micro-benches) or 32
// (the paper's LLC); a constant trip count lets GCC fully unroll
// those, which the 16-way serial facade needs to stay as fast as a
// hand-unrolled probe. Other multiples of the lane width take the
// runtime-bound loop.
template <uint32_t kWays>
__attribute__((target("avx2"), always_inline)) inline uint64_t
probeLanes(const uint32_t* row, uint32_t fp, uint32_t ways)
{
    const uint32_t n = kWays != 0 ? kWays : ways;
    const __m256i needle = _mm256_set1_epi32(static_cast<int>(fp));
    uint64_t m = 0;
    for (uint32_t g = 0; g < n; g += 8) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(row + g));
        const uint32_t eq = static_cast<uint32_t>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, needle))));
        m |= static_cast<uint64_t>(eq) << g;
    }
    return m;
}

// AVX2 has no unsigned 64-bit min, so keys are kept with the sign bit
// flipped (signed order over biased keys == unsigned order over
// keys); an excluded way's all-ones key biases to INT64_MAX. Two
// accumulators, each taking every other group of 4 ways, halve the
// compare/blend dependency chain.
__attribute__((target("avx2"), always_inline)) inline __m256i
biasedKeys(const uint64_t* srow, __m256i mv, __m256i widx)
{
    const __m256i one = _mm256_set1_epi64x(1);
    // excl = (bit set ? 0 : ~0), as (bit & 1) - 1.
    const __m256i excl = _mm256_sub_epi64(
        _mm256_and_si256(_mm256_srlv_epi64(mv, widx), one), one);
    const __m256i st =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srow));
    const __m256i key = _mm256_or_si256(
        _mm256_or_si256(_mm256_slli_epi64(st, 6), widx), excl);
    return _mm256_xor_si256(
        key, _mm256_set1_epi64x(static_cast<long long>(1ull << 63)));
}

__attribute__((target("avx2"), always_inline)) inline __m256i
minBiased(__m256i a, __m256i b)
{
    return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

template <uint32_t kWays>
__attribute__((target("avx2"), always_inline)) inline uint32_t
argminLanes(const uint64_t* srow, uint64_t m, uint32_t ways)
{
    const uint32_t n = kWays != 0 ? kWays : ways;
    const __m256i mv = _mm256_set1_epi64x(static_cast<long long>(m));
    const __m256i eight = _mm256_set1_epi64x(8);
    __m256i widx0 = _mm256_setr_epi64x(0, 1, 2, 3);
    __m256i widx1 = _mm256_setr_epi64x(4, 5, 6, 7);
    __m256i best0 = _mm256_set1_epi64x(INT64_MAX);
    __m256i best1 = best0;
    for (uint32_t g = 0; g < n; g += 8) {
        best0 = minBiased(best0, biasedKeys(srow + g, mv, widx0));
        best1 = minBiased(best1, biasedKeys(srow + g + 4, mv, widx1));
        widx0 = _mm256_add_epi64(widx0, eight);
        widx1 = _mm256_add_epi64(widx1, eight);
    }
    alignas(32) int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                       minBiased(best0, best1));
    int64_t k = lanes[0];
    k = lanes[1] < k ? lanes[1] : k;
    k = lanes[2] < k ? lanes[2] : k;
    k = lanes[3] < k ? lanes[3] : k;
    return static_cast<uint32_t>(k & 63);
}

__attribute__((target("avx2"))) uint64_t
probeRowAvx2(const uint32_t* row, uint32_t fp, uint32_t ways)
{
    if (ways == 16)
        return probeLanes<16>(row, fp, ways);
    if (ways == 32)
        return probeLanes<32>(row, fp, ways);
    return probeLanes<0>(row, fp, ways);
}

__attribute__((target("avx2"))) uint32_t
argminRowAvx2(const uint64_t* srow, uint64_t m, uint32_t ways)
{
    if (ways == 16)
        return argminLanes<16>(srow, m, ways);
    if (ways == 32)
        return argminLanes<32>(srow, m, ways);
    return argminLanes<0>(srow, m, ways);
}
#endif // TALUS_ROW_AVX2

bool
simdUsable(uint32_t ways)
{
#if TALUS_ROW_AVX2
    return ways % 8 == 0 && ways <= 64 && __builtin_cpu_supports("avx2");
#else
    (void)ways;
    return false;
#endif
}

} // namespace rowscan

SchemePartitionedCache::SchemePartitionedCache(
    const SetAssocCache::Config& config, std::unique_ptr<ReplPolicy> policy,
    std::unique_ptr<PartitionScheme> scheme)
    : cache_(config, std::move(policy), std::move(scheme))
{
    talus_assert(cache_.scheme() != nullptr,
                 "SchemePartitionedCache requires a scheme");
    // The fused batch kernel replicates the exact per-access semantics
    // of VantageScheme over plain LRU, so it is only safe when the
    // scheme is VantageScheme (which keeps the default whole-cache set
    // index) and the policy is exactly LruPolicy — a derived policy
    // could override hooks the kernel bypasses.
    // The kernel's way scans build 64-bit match masks, so it also
    // requires associativity <= 64 (every real configuration).
    fusedVantage_ = dynamic_cast<VantageScheme*>(cache_.scheme());
    if (fusedVantage_ != nullptr && cache_.numWays() <= 64 &&
        typeid(cache_.policy()) == typeid(LruPolicy))
        fusedLru_ = static_cast<LruPolicy*>(&cache_.policy());
}

bool
SchemePartitionedCache::access(Addr addr, PartId part)
{
    // Route through the fused kernel when active so the serial path
    // shares its cost profile and the occupancy masks stay in sync
    // without a rebuild.
    if (fusedLru_ != nullptr)
        return accessFused1(addr, part);
    return cache_.access(addr, part);
}

uint64_t
SchemePartitionedCache::accessBatchRouted(const Addr* addrs,
                                          const PartId* parts, uint64_t n)
{
    if (fusedLru_ != nullptr)
        return fusedBatch(addrs, parts, n, 0);
    uint64_t hits = 0;
    for (uint64_t i = 0; i < n; ++i)
        hits += cache_.access(addrs[i], parts[i]);
    return hits;
}

uint64_t
SchemePartitionedCache::accessBatchUniform(const Addr* addrs, uint64_t n,
                                           PartId part)
{
    if (fusedLru_ != nullptr)
        return fusedBatch(addrs, nullptr, n, part);
    uint64_t hits = 0;
    for (uint64_t i = 0; i < n; ++i)
        hits += cache_.access(addrs[i], part);
    return hits;
}

void
SchemePartitionedCache::rebuildMasks()
{
    const uint32_t ways = cache_.numWays();
    const uint32_t sets = cache_.numSets();
    const uint32_t nparts = fusedVantage_->numPartitions();
    const SetAssocCache::LineArrays la = cache_.lineArrays();
    unmanagedMask_.assign(sets, 0);
    partMask_.assign(static_cast<size_t>(sets) * nparts, 0);
    const size_t lines = static_cast<size_t>(sets) * ways;
    fpTags_.resize(lines);
    for (size_t l = 0; l < lines; ++l)
        fpTags_[l] = tagFingerprint(la.tags[l]);
    for (uint32_t s = 0; s < sets; ++s) {
        for (uint32_t w = 0; w < ways; ++w) {
            const uint32_t line = s * ways + w;
            if (!la.valid[line])
                continue;
            const PartId p = la.parts[line];
            if (p == kNoPart)
                unmanagedMask_[s] |= 1ull << w;
            else
                partMask_[static_cast<size_t>(s) * nparts + p] |= 1ull
                                                                  << w;
        }
    }

    CacheStats& st = cache_.stats();
    st.ensureParts(nparts);
    const VantageScheme::Books bk = fusedVantage_->books();
    ctx_.tags = la.tags;
    ctx_.valid = la.valid;
    ctx_.lparts = la.parts;
    ctx_.stamps = fusedLru_->stampsRaw();
    ctx_.clock = fusedLru_->clockRaw();
    ctx_.occ = bk.occ;
    ctx_.targets = bk.targets;
    ctx_.unmanaged = bk.unmanaged;
    ctx_.umk = unmanagedMask_.data();
    ctx_.pmk = partMask_.data();
    ctx_.fpt = fpTags_.data();
    ctx_.accRaw = st.accessesRaw();
    ctx_.hitRaw = st.hitsRaw();
    ctx_.hashSeed = cache_.hashSeed();
    ctx_.ways = ways;
    ctx_.sets = sets;
    ctx_.setMask = sets - 1;
    ctx_.nparts = nparts;
    ctx_.setsPow2 = (sets & (sets - 1)) == 0;
    ctx_.hashed = cache_.hashSetIndex();
    ctx_.simd = rowscan::simdUsable(ways);
    maskEpoch_ = cache_.mutationEpoch();
}

uint64_t
SchemePartitionedCache::fusedBatch(const Addr* addrs, const PartId* route,
                                   uint64_t n, PartId upart)
{
    if (maskEpoch_ != cache_.mutationEpoch())
        rebuildMasks();
    // A local copy the compiler can keep in registers: the kernel's
    // stores through uint64_t/uint32_t rows could otherwise alias the
    // member's scalar fields and force reloads every access.
    const FusedCtx c = ctx_;

    // Warm the whole fingerprint and stamp rows and the masks of the
    // set kPf accesses ahead, so a block's row misses overlap instead
    // of serializing behind each probe. The ring holds the set index
    // of every access in flight, so each address is hashed once.
    constexpr uint64_t kPf = 8;
    const auto prefetchSet = [&](uint32_t s) {
        const size_t row = static_cast<size_t>(s) * c.ways;
        for (uint32_t w = 0; w < c.ways; w += 16)
            __builtin_prefetch(&c.fpt[row + w], 0);
        for (uint32_t w = 0; w < c.ways; w += 8)
            __builtin_prefetch(&c.stamps[row + w], 1);
        __builtin_prefetch(&c.umk[s], 1);
        __builtin_prefetch(&c.pmk[static_cast<size_t>(s) * c.nparts], 1);
    };
    uint32_t ring[kPf];
    for (uint64_t i = 0; i < n && i < kPf; ++i) {
        ring[i] = setIndex(c, addrs[i]);
        prefetchSet(ring[i]);
    }
    uint64_t hits = 0;
    for (uint64_t i = 0; i < n; ++i) {
        const uint32_t set = ring[i % kPf];
        if (i + kPf < n) {
            ring[i % kPf] = setIndex(c, addrs[i + kPf]);
            prefetchSet(ring[i % kPf]);
        }
        hits += fusedAccess(c, addrs[i],
                            route != nullptr ? route[i] : upart, set);
    }
    return hits;
}

void
SchemePartitionedCache::setTargets(const std::vector<uint64_t>& lines)
{
    cache_.setTargets(lines);
    // The scheme may reseat its target storage; recapture the kernel
    // context (and masks) before the next fused block.
    maskEpoch_ = ~0ull;
}

uint32_t
SchemePartitionedCache::numPartitions() const
{
    return cache_.scheme()->numPartitions();
}

uint64_t
SchemePartitionedCache::capacityLines() const
{
    return cache_.numLines();
}

uint64_t
SchemePartitionedCache::occupancy(PartId part) const
{
    return cache_.scheme()->occupancy(part);
}

uint64_t
SchemePartitionedCache::targetOf(PartId part) const
{
    return cache_.scheme()->target(part);
}

const char*
SchemePartitionedCache::schemeName() const
{
    return cache_.scheme()->name();
}

SchemeKind
parseSchemeKind(const std::string& name)
{
    if (name == "Unpartitioned")
        return SchemeKind::Unpartitioned;
    if (name == "Way")
        return SchemeKind::Way;
    if (name == "Set")
        return SchemeKind::Set;
    if (name == "Vantage")
        return SchemeKind::Vantage;
    if (name == "Futility")
        return SchemeKind::Futility;
    if (name == "Ideal")
        return SchemeKind::Ideal;
    talus_fatal("unknown partitioning scheme: ", name);
}

double
schemeUsableFraction(SchemeKind kind)
{
    return kind == SchemeKind::Vantage ? 0.9 : 1.0;
}

std::unique_ptr<PartitionedCacheBase>
makePartitionedCache(SchemeKind kind, uint64_t capacity_lines,
                     uint32_t num_ways, const std::string& policy_name,
                     uint32_t num_parts, uint64_t seed)
{
    if (kind == SchemeKind::Ideal) {
        talus_assert(policy_name == "LRU",
                     "idealized partitioning models exact LRU only");
        return std::make_unique<IdealPartitionedCache>(capacity_lines,
                                                       num_parts);
    }

    talus_assert(num_ways > 0 && capacity_lines >= num_ways,
                 "capacity must be at least one set");
    SetAssocCache::Config config;
    config.numWays = num_ways;
    config.numSets = static_cast<uint32_t>(capacity_lines / num_ways);
    config.hashSeed = seed ^ 0x5E7;

    std::unique_ptr<PartitionScheme> scheme;
    switch (kind) {
      case SchemeKind::Unpartitioned:
        scheme = std::make_unique<UnpartitionedScheme>(num_parts);
        break;
      case SchemeKind::Way:
        scheme = std::make_unique<WayPartition>(num_parts);
        break;
      case SchemeKind::Set:
        scheme = std::make_unique<SetPartition>(num_parts, seed ^ 0xA11);
        break;
      case SchemeKind::Vantage:
        scheme = std::make_unique<VantageScheme>(num_parts);
        break;
      case SchemeKind::Futility:
        scheme = std::make_unique<FutilityScheme>(num_parts);
        break;
      case SchemeKind::Ideal:
        break; // Handled above.
    }
    return std::make_unique<SchemePartitionedCache>(
        config, makePolicy(policy_name, seed), std::move(scheme));
}

} // namespace talus
