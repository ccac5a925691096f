/**
 * @file
 * Uniform interface over partitioned caches.
 *
 * The Talus controller, the partitioning algorithms, and the
 * simulation engines all talk to a PartitionedCacheBase: a cache with
 * N software-visible partitions whose sizes can be re-targeted at
 * runtime. Two implementations exist:
 *
 *  - SchemePartitionedCache: a SetAssocCache plus a PartitionScheme
 *    (way / set / Vantage / unpartitioned).
 *  - IdealPartitionedCache (partition/ideal_partition.h): one exact
 *    fully-associative LRU per partition ("idealized partitioning",
 *    Talus+I in Fig. 8).
 */

#ifndef TALUS_PARTITION_PARTITIONED_CACHE_H
#define TALUS_PARTITION_PARTITIONED_CACHE_H

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_stats.h"
#include "cache/set_assoc_cache.h"
#include "util/aligned.h"
#include "util/bits.h"
#include "util/log.h"
#include "util/types.h"

namespace talus {

class VantageScheme;
class LruPolicy;

/** Abstract partitioned cache with runtime-resizable partitions. */
class PartitionedCacheBase
{
  public:
    virtual ~PartitionedCacheBase() = default;

    /** One access by partition @p part; returns true on hit. */
    virtual bool access(Addr addr, PartId part) = 0;

    /**
     * A block of accesses with a per-address partition array (the
     * Talus controller's routed path). Bit-exact with calling
     * access() per element; implementations may fuse the per-access
     * virtual dispatch away. @return Number of hits.
     */
    virtual uint64_t accessBatchRouted(const Addr* addrs,
                                       const PartId* parts, uint64_t n)
    {
        uint64_t hits = 0;
        for (uint64_t i = 0; i < n; ++i)
            hits += access(addrs[i], parts[i]);
        return hits;
    }

    /**
     * A block of accesses all by partition @p part (the plain
     * facade path). Bit-exact with calling access() per element.
     * @return Number of hits.
     */
    virtual uint64_t accessBatchUniform(const Addr* addrs, uint64_t n,
                                        PartId part)
    {
        uint64_t hits = 0;
        for (uint64_t i = 0; i < n; ++i)
            hits += access(addrs[i], part);
        return hits;
    }

    /** Re-targets partition sizes (lines, one entry per partition). */
    virtual void setTargets(const std::vector<uint64_t>& lines) = 0;

    /** Number of software-visible partitions. */
    virtual uint32_t numPartitions() const = 0;

    /** Total capacity in lines. */
    virtual uint64_t capacityLines() const = 0;

    /** Actual lines held by @p part. */
    virtual uint64_t occupancy(PartId part) const = 0;

    /**
     * Effective (post-coarsening) target of @p part in lines. For way
     * partitioning this is the way-granular size, which Talus uses to
     * recompute its sampling rate (Sec. VI-B).
     */
    virtual uint64_t targetOf(PartId part) const = 0;

    /** Shared statistics (per-PartId). */
    virtual CacheStats& stats() = 0;
    virtual const CacheStats& stats() const = 0;

    /** Scheme name for reporting. */
    virtual const char* schemeName() const = 0;

    /** Periodic hook forwarded to policies that recompute state. */
    virtual void nextInterval() {}
};

/**
 * 32-bit fold of a line address, used as a probe fingerprint by the
 * fused kernel: a fingerprint row is half the bytes of the full tag
 * row (one cache line per 16 ways), so the common probe touches half
 * the lines. Any fold works — a colliding fingerprint only costs a
 * verification load against the canonical tag, never correctness.
 */
inline uint32_t
tagFingerprint(Addr a)
{
    return static_cast<uint32_t>(a) ^ static_cast<uint32_t>(a >> 32);
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define TALUS_ROW_AVX2 1
#endif

/**
 * The fused kernel's two per-access row scans over one set's ways,
 * each with a scalar body for any width and an AVX2 body for widths
 * that are a multiple of 8 (up to 64). Both bodies are bit-exact with
 * each other: the probe is pure lane-wise equality, and the argmin
 * reduces unique keys, so its minimum is order-independent.
 */
namespace rowscan {

/** Bit w set iff row[w] == @p fp, for w < @p ways. */
inline uint64_t
probeRowScalar(const uint32_t* row, uint32_t fp, uint32_t ways)
{
    uint64_t m = 0;
    for (uint32_t w = 0; w < ways; ++w)
        m |= static_cast<uint64_t>(row[w] == fp) << w;
    return m;
}

/**
 * Way of the least-recently-stamped line among the ways selected by
 * @p m (m != 0). LRU stamps are unique, so packing (stamp << 6) | way
 * turns the walk into a pure min-reduction with no way-order
 * tie-break; excluded ways saturate to all-ones, above any real key
 * (stamps stay far below 2^58 for any feasible run).
 */
inline uint32_t
argminRowScalar(const uint64_t* srow, uint64_t m, uint32_t ways)
{
    uint64_t best = ~0ull;
    for (uint32_t w = 0; w < ways; ++w) {
        const uint64_t excl = -(((m >> w) & 1) ^ 1ull);
        const uint64_t key = ((srow[w] << 6) | w) | excl;
        best = key < best ? key : best;
    }
    return static_cast<uint32_t>(best & 63);
}

#if TALUS_ROW_AVX2
/** probeRowScalar, 8 lanes per step; needs AVX2 and ways % 8 == 0. */
uint64_t probeRowAvx2(const uint32_t* row, uint32_t fp, uint32_t ways);

/** argminRowScalar, 4 lanes per step; needs AVX2 and ways % 8 == 0. */
uint32_t argminRowAvx2(const uint64_t* srow, uint64_t m, uint32_t ways);
#endif

/** True iff the host runs the AVX2 bodies and @p ways suits them. */
bool simdUsable(uint32_t ways);

/** Dispatches on @p simd (a simdUsable() result). */
inline uint64_t
probeRow(const uint32_t* row, uint32_t fp, uint32_t ways, bool simd)
{
#if TALUS_ROW_AVX2
    if (simd)
        return probeRowAvx2(row, fp, ways);
#endif
    (void)simd;
    return probeRowScalar(row, fp, ways);
}

/** Dispatches on @p simd (a simdUsable() result). */
inline uint32_t
argminRow(const uint64_t* srow, uint64_t m, uint32_t ways, bool simd)
{
#if TALUS_ROW_AVX2
    if (simd)
        return argminRowAvx2(srow, m, ways);
#endif
    (void)simd;
    return argminRowScalar(srow, m, ways);
}

} // namespace rowscan

/** A SetAssocCache driven through a PartitionScheme. */
class SchemePartitionedCache : public PartitionedCacheBase
{
  public:
    /**
     * @param config Cache geometry.
     * @param policy Replacement policy (owned).
     * @param scheme Partitioning scheme (owned, required).
     */
    SchemePartitionedCache(const SetAssocCache::Config& config,
                           std::unique_ptr<ReplPolicy> policy,
                           std::unique_ptr<PartitionScheme> scheme);

    bool access(Addr addr, PartId part) override;
    uint64_t accessBatchRouted(const Addr* addrs, const PartId* parts,
                               uint64_t n) override;
    uint64_t accessBatchUniform(const Addr* addrs, uint64_t n,
                                PartId part) override;
    void setTargets(const std::vector<uint64_t>& lines) override;
    uint32_t numPartitions() const override;
    uint64_t capacityLines() const override;
    uint64_t occupancy(PartId part) const override;
    uint64_t targetOf(PartId part) const override;
    CacheStats& stats() override { return cache_.stats(); }
    const CacheStats& stats() const override { return cache_.stats(); }
    const char* schemeName() const override;
    void nextInterval() override { cache_.policy().nextInterval(); }

    /** Underlying cache, for tests and monitors. */
    SetAssocCache& cache() { return cache_; }

    /** True when the fused Vantage+LRU kernel is active (the scheme
     *  is VantageScheme and the policy is exactly LRU). */
    bool fusedKernelActive() const { return fusedLru_ != nullptr; }

    /**
     * One access through the fused kernel, header-inline so the
     * TalusCache facade's flattened serial path pays no out-of-line
     * call for a whole access (monitor sample + route + this probe run
     * straight-line in the caller). The batched entry points are a
     * loop over the same body, so both are bit-exact with each other
     * and with the generic SetAssocCache path.
     *
     * Caller must check fusedKernelActive() first.
     */
    __attribute__((always_inline)) inline bool
    accessFused1(Addr addr, PartId part)
    {
        if (maskEpoch_ != cache_.mutationEpoch())
            rebuildMasks();
        return fusedAccess(ctx_, addr, part, setIndex(ctx_, addr));
    }

  private:
    /**
     * Kernel context captured at rebuildMasks() time: every pointer
     * and geometry field the kernel needs, packed so an access reads
     * one struct instead of chasing through four objects. All
     * pointers are stable between rebuilds — the paths that could
     * reseat them (generic access, invalidation, setTargets) bump the
     * mutation epoch or invalidate maskEpoch_ directly.
     */
    struct FusedCtx
    {
        Addr* tags;
        uint8_t* valid;
        PartId* lparts;
        uint64_t* stamps;
        uint64_t* clock;
        uint64_t* occ;
        const uint64_t* targets;
        uint64_t* unmanaged;
        uint64_t* umk;
        uint64_t* pmk;
        uint32_t* fpt;
        uint64_t* accRaw;
        uint64_t* hitRaw;
        uint64_t hashSeed;
        uint32_t ways;
        uint32_t sets;
        uint32_t setMask;
        uint32_t nparts;
        bool setsPow2;
        bool hashed;
        bool simd; //!< rowscan::simdUsable(ways), probed once.
    };

    static __attribute__((always_inline)) inline uint32_t
    setIndex(const FusedCtx& c, Addr addr)
    {
        const uint64_t h = c.hashed ? mix64(addr ^ c.hashSeed) : addr;
        return c.setsPow2 ? static_cast<uint32_t>(h & c.setMask)
                          : static_cast<uint32_t>(h % c.sets);
    }

    /**
     * The kernel body: SetAssocCache::access over VantageScheme +
     * LruPolicy for @p addr in @p set, in the exact operation order
     * of the generic path (probe -> stats -> stamp -> promote/victim
     * -> evict bookkeeping -> insert -> demote). Every counter the
     * generic path's virtual hooks would touch is updated inline, so
     * the state after any access is bit-identical —
     * tests/multiprog_equivalence_test.cc and batch_access_test.cc
     * hold the generic path up against this one access by access.
     *
     * Ownership is derived from the per-set masks instead of the
     * lparts/valid arrays: a hit way is unmanaged iff its umk bit is
     * set, a victim's owner is implied by which mask selected it, and
     * an invalid-way victim needs no eviction bookkeeping at all. The
     * canonical arrays are still written on every mutation, so
     * external readers (the generic path, tests, invalidation) always
     * see the same state.
     *
     * always_inline because the flattened facade path depends on it:
     * at this size GCC's inliner emits a call, which reintroduces the
     * per-access call overhead the facade flattening removed.
     */
    __attribute__((always_inline)) inline bool
    fusedAccess(const FusedCtx& c, Addr addr, PartId part, uint32_t set)
    {
        const uint32_t ways = c.ways;
        const uint32_t nparts = c.nparts;
        talus_assert(part < nparts, "bad partition id ", part);
        talus_assert(addr != SetAssocCache::kInvalidTag,
                     "address aliases the invalid-tag sentinel");
        const uint32_t base = set * ways;
        Addr* tags = c.tags;
        uint64_t* stamps = c.stamps;
        uint64_t* umk = c.umk;
        uint64_t* pmk = c.pmk + static_cast<size_t>(set) * nparts;

        // Touch the stamp row and masks before the probe resolves:
        // every access writes a stamp (hit promotion or insert) and
        // reads the set's masks, but those loads sit behind the
        // hit/miss branch — hoisted prefetches overlap their latency
        // with the fingerprint probe instead of serializing after it.
        __builtin_prefetch(&stamps[base], 1);
        __builtin_prefetch(&stamps[base + ways - 1], 1);
        __builtin_prefetch(&umk[set], 1);
        __builtin_prefetch(pmk, 1);

        // Probe the 32-bit fingerprint row. A fingerprint match is
        // only a candidate: it is verified against the canonical tag,
        // so fold collisions cost a verify, never correctness. No
        // fingerprint match is a definite miss (the fold is a function
        // of the address), in which case the tag row is never read.
        const uint32_t fp = tagFingerprint(addr);
        uint64_t m_fp = rowscan::probeRow(c.fpt + base, fp, ways, c.simd);
        uint64_t m_match = 0;
        while (m_fp != 0) {
            const uint32_t w =
                static_cast<uint32_t>(__builtin_ctzll(m_fp));
            if (tags[base + w] == addr) {
                m_match = 1ull << w;
                break; // Tags are unique per set; lowest way first.
            }
            m_fp &= m_fp - 1;
        }
        c.accRaw[part]++;

        const auto argminStamp = [&](uint64_t m) -> uint32_t {
            return base +
                   rowscan::argminRow(stamps + base, m, ways, c.simd);
        };

        // demoteIfOverTarget with the LRU argmin fused in (unique
        // stamps make the mask-restricted minimum == LruPolicy::victim
        // over way-ordered candidates).
        const auto demote = [&](uint32_t inserted, PartId p) {
            if (c.occ[p] <= c.targets[p] || c.targets[p] == 0)
                return;
            // Walk only p's ways, minus the just-inserted line.
            const uint64_t m = pmk[p] & ~(1ull << (inserted - base));
            if (m == 0)
                return; // Cannot demote within this set; converges later.
            const uint32_t demoted = argminStamp(m);
            c.lparts[demoted] = kNoPart;
            c.occ[p]--;
            (*c.unmanaged)++;
            pmk[p] &= ~(1ull << (demoted - base));
            umk[set] |= 1ull << (demoted - base);
        };

        if (m_match != 0) {
            const uint32_t hw =
                static_cast<uint32_t>(__builtin_ctzll(m_match));
            const uint32_t hit_line = base + hw;
            c.hitRaw[part]++;
            stamps[hit_line] = ++*c.clock;
            if ((umk[set] >> hw) & 1) {
                // Promotion: an unmanaged line that hits rejoins the
                // accessing partition, rebalancing immediately (the
                // umk bit is exactly "valid and owner == kNoPart").
                c.lparts[hit_line] = part;
                c.occ[part]++;
                if (*c.unmanaged > 0)
                    (*c.unmanaged)--;
                umk[set] &= ~(1ull << hw);
                pmk[part] |= 1ull << hw;
                demote(hit_line, part);
            }
            return true;
        }

        // Miss: invalid way first, else unmanaged LRU, else the LRU of
        // the most over-target partition present. The masks cover
        // exactly the valid lines (umk = valid+kNoPart, pmk =
        // valid+owner), so their complement over the way range is
        // precisely the invalid set, in way order. No tag scan.
        uint64_t m_valid = umk[set];
        for (uint32_t q = 0; q < nparts; ++q)
            m_valid |= pmk[q];
        const uint64_t way_span =
            ways == 64 ? ~0ull : (1ull << ways) - 1;
        const uint64_t m_inval = ~m_valid & way_span;
        uint32_t victim;
        if (m_inval != 0) {
            victim =
                base + static_cast<uint32_t>(__builtin_ctzll(m_inval));
        } else {
            const uint64_t mu = umk[set];
            if (mu != 0) {
                // A one-bit mask needs no stamp scan — the argmin of a
                // singleton is its only member.
                victim = (mu & (mu - 1)) == 0
                             ? base + static_cast<uint32_t>(
                                          __builtin_ctzll(mu))
                             : argminStamp(mu);
                cache_.stats().addEvictions(1);
                if (*c.unmanaged > 0)
                    (*c.unmanaged)--;
                umk[set] &= ~(1ull << (victim - base));
            } else {
                // The rare set-conflict scan, with the generic path's
                // exact divide. The generic path walks ways in order
                // and keeps the first strictly-greater ratio, i.e.
                // among the parts tied at the maximum ratio it picks
                // the one whose first way in this set is earliest;
                // iterating parts with that explicit tie-break is
                // equivalent and touches each present part once.
                PartId worst = kNoPart;
                double worst_ratio = -1.0;
                uint32_t worst_first = 64;
                for (uint32_t q = 0; q < nparts; ++q) {
                    const uint64_t mq = pmk[q];
                    if (mq == 0)
                        continue;
                    const double ratio =
                        c.targets[q] == 0
                            ? 1e18
                            : static_cast<double>(c.occ[q]) /
                                  static_cast<double>(c.targets[q]);
                    const uint32_t first =
                        static_cast<uint32_t>(__builtin_ctzll(mq));
                    if (ratio > worst_ratio ||
                        (ratio == worst_ratio && first < worst_first)) {
                        worst_ratio = ratio;
                        worst = q;
                        worst_first = first;
                    }
                }
                talus_assert(worst != kNoPart,
                             "set full of foreign lines");
                victim = argminStamp(pmk[worst]);
                cache_.stats().addEvictions(1);
                if (c.occ[worst] > 0)
                    c.occ[worst]--;
                pmk[worst] &= ~(1ull << (victim - base));
            }
        }
        tags[victim] = addr;
        c.fpt[victim] = fp;
        c.valid[victim] = 1;
        c.lparts[victim] = part;
        stamps[victim] = ++*c.clock;
        c.occ[part]++;
        pmk[part] |= 1ull << (victim - base);
        demote(victim, part);
        return false;
    }

    /** The batched entry points: a prefetching loop over
     *  fusedAccess(). @p route is per-address partitions or nullptr
     *  for uniform @p upart. */
    uint64_t fusedBatch(const Addr* addrs, const PartId* route,
                        uint64_t n, PartId upart);

    /** Rebuilds the per-set occupancy masks and fingerprints from the
     *  line arrays, recaptures ctx_, and records the cache's mutation
     *  epoch. Called lazily when someone mutated lines behind the
     *  kernel's back. */
    void rebuildMasks();

    SetAssocCache cache_;
    VantageScheme* fusedVantage_ = nullptr; //!< Set iff kernel usable.
    LruPolicy* fusedLru_ = nullptr;         //!< Set iff kernel usable.

    /**
     * Per-set way bitmaps mirroring the line arrays, so the kernel's
     * victim scans only visit relevant ways (bit order == way order,
     * preserving the generic scan order exactly). unmanagedMask_[s]
     * has bit w set iff line s*ways+w is valid and unmanaged;
     * partMask_[s*nparts+p] iff it is valid and owned by p. Invalid
     * lines appear in neither. Valid only while maskEpoch_ matches
     * cache_.mutationEpoch().
     */
    CacheAlignedVec<uint64_t> unmanagedMask_;
    CacheAlignedVec<uint64_t> partMask_;

    /**
     * Per-line tagFingerprint() mirror of the tag array (flat line
     * index, like tags), kept in sync by the kernel's insert path and
     * rebuilt with the masks whenever the generic path mutates lines.
     * Fingerprints of invalid lines are the fold of kInvalidTag —
     * harmless, since every fingerprint match is verified against the
     * canonical tag.
     */
    CacheAlignedVec<uint32_t> fpTags_;
    uint64_t maskEpoch_ = ~0ull; //!< Forces the initial rebuild.
    FusedCtx ctx_{};
};

/** Which partitioned-cache construction to use. */
enum class SchemeKind
{
    Unpartitioned,
    Way,
    Set,
    Vantage,
    Futility,
    Ideal,
};

/** Parses a scheme name ("Unpartitioned", "Way", "Set", "Vantage",
 *  "Futility", "Ideal"); fatal on unknown names. */
SchemeKind parseSchemeKind(const std::string& name);

/**
 * The fraction of a partition's allocation Talus can actually rely on
 * under @p kind: 0.9 for Vantage (its unmanaged region gives no
 * capacity guarantees, Sec. VI-B), 1.0 for everything else —
 * including Futility Scaling, which is precisely why the paper
 * suggests it.
 */
double schemeUsableFraction(SchemeKind kind);

/**
 * Builds a partitioned cache.
 *
 * @param kind Scheme kind; Ideal requires policy_name == "LRU".
 * @param capacity_lines Total capacity in lines.
 * @param num_ways Associativity for scheme-based caches.
 * @param policy_name Replacement policy name (see policy_factory.h).
 * @param num_parts Number of software partitions.
 * @param seed Seed for stochastic policy/scheme components.
 */
std::unique_ptr<PartitionedCacheBase>
makePartitionedCache(SchemeKind kind, uint64_t capacity_lines,
                     uint32_t num_ways, const std::string& policy_name,
                     uint32_t num_parts, uint64_t seed = 0xCACE);

} // namespace talus

#endif // TALUS_PARTITION_PARTITIONED_CACHE_H
