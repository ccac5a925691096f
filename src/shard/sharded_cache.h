/**
 * @file
 * ShardedTalusCache: N independent TalusCache shards behind one
 * access/accessBatch/stats/reconfigure surface.
 *
 * This is the serving-engine layer: a ShardRouter hash-partitions the
 * address space across numShards fully independent TalusCache
 * instances (each with its own monitors, allocator, and
 * reconfiguration loop — miss curves stay per shard, via
 * shardCurve()), and batches execute scatter-dispatch-gather: the
 * batch is split into per-shard sub-streams in stream order (a flat
 * count-then-offset scatter into one reused buffer), each shard's
 * sub-stream is driven through TalusCache::accessBatch, and the hit
 * counts are summed from cache-line-padded per-shard slots.
 *
 * With Config::threads > 0 every per-shard step runs on persistent
 * shard-pinned workers (shard/shard_workers.h): each worker owns a
 * fixed subset of shards and is fed ShardTask descriptors through a
 * bounded SPSC ring, so a batch costs one ring push per non-empty
 * shard — no mutex, and no wakeup when batches arrive back-to-back.
 * The control plane (reconfigureAll / reconfigureAllAtEpoch) is the
 * same dispatch with one control task per shard, so threads = T owns
 * exactly T OS threads and a shard is only ever touched by its owner.
 *
 * Determinism invariant — the subsystem's test anchor: because shards
 * share no state, every shard's hit/miss sequence, monitor state, and
 * reconfiguration schedule are bit-exact regardless of thread count,
 * and identical to a stand-alone TalusCache built from
 * shardConfig(cfg, s) fed the router's sub-stream for shard s.
 * Config::threads trades wall-clock for nothing else; threads == 0
 * runs inline for deterministic single-threaded debugging.
 */

#ifndef TALUS_SHARD_SHARDED_CACHE_H
#define TALUS_SHARD_SHARDED_CACHE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/talus_cache.h"
#include "shard/shard_router.h"
#include "shard/shard_workers.h"
#include "util/span.h"

namespace talus {

/** N independent TalusCache shards behind the TalusCache surface. */
class ShardedTalusCache
{
  public:
    /**
     * Upper bound on numShards (and therefore on useful worker
     * threads). Generous for a single process — horizontal scale
     * beyond this is a multi-process concern — while keeping an
     * absurd shard count an actionable ConfigError instead of an
     * out-of-memory crash. BenchEnv's --shards/--threads flags
     * enforce the same bound.
     */
    static constexpr uint32_t kMaxShards = 1024;

    /**
     * Addresses per accessBatch dispatch block: large enough that
     * per-block dispatch costs amortize (one ring push per non-empty
     * shard per block), small enough that two in-flight blocks'
     * scatter buffers stay cache-resident. A batch of at most one
     * block is one scatter and one dispatch.
     */
    static constexpr uint64_t kPipelineBlock = 4096;

    /** Shard-layer configuration wrapping one per-shard Config. */
    struct Config
    {
        /**
         * Per-shard cache configuration. llcLines is per shard, so
         * total capacity is numShards * shard.llcLines; shard s runs
         * with a seed derived from shard.seed and s (see
         * shardConfig()) so shards sample independently.
         */
        TalusCache::Config shard;
        uint32_t numShards = 4; //!< Independent shards (>= 1).
        uint32_t threads = 0;   //!< Worker threads; 0 = inline
                                //!< (deterministic debugging).
        std::optional<uint64_t> routerSeed; //!< Address->shard H3
                                            //!< seed; unset derives
                                            //!< it from shard.seed.

        /**
         * Validates the configuration (including the embedded
         * per-shard Config). Returns "" when valid, otherwise an
         * actionable message.
         */
        std::string validate() const;
    };

    /**
     * Builds the router, the N shards, and the pinned workers.
     *
     * @throws ConfigError if @p config fails Config::validate().
     */
    explicit ShardedTalusCache(const Config& config);

    /**
     * The exact TalusCache::Config shard @p shard runs with: the
     * embedded per-shard Config with a shard-specific seed. Exposed
     * so tests (and offline tools) can hand-build a bit-identical
     * stand-alone replica of any shard.
     */
    static TalusCache::Config shardConfig(const Config& config,
                                          uint32_t shard);

    /** Routes @p addr to its shard and accesses it; true on hit. */
    bool access(Addr addr, PartId part = 0);

    /**
     * Scatter-dispatch-gather batch execution, kPipelineBlock
     * addresses at a time: splits each block into per-shard
     * sub-streams (flat count-then-offset scatter, preserving stream
     * order within each shard), drives every non-empty shard's
     * sub-stream through TalusCache::accessBatch — on that shard's
     * pinned worker when Config::threads > 0 — and returns the total
     * hit count. Blocks are double-buffered: the caller scatters
     * block k+1 while the workers drain block k. Steady state
     * allocates nothing. Bit-exact with routing each address through
     * access() serially, for any thread count.
     */
    uint64_t accessBatch(Span<const Addr> addrs, PartId part = 0);

    /**
     * Runs one synchronous reconfiguration on every shard,
     * dispatching the per-shard control steps (snapshot + pure
     * ControlStep + apply) to the shards' pinned workers when
     * Config::threads > 0. Shards share no state, so the result is
     * bit-exact with reconfiguring each shard serially.
     */
    void reconfigureAll();

    /**
     * Epoch-deferred reconfiguration: computes every shard's control
     * step concurrently now (ending each shard's monitoring
     * interval), but leaves the data path untouched — each shard
     * applies its new configuration in-stream when its own access
     * count reaches the next multiple of @p epochLen (see
     * TalusCache::applyReconfigureAtEpoch). Batches keep flowing
     * between compute and apply; the application point is a fixed
     * per-shard access count, so the result is bit-exact for any
     * thread count and any batch blocking.
     */
    void reconfigureAllAtEpoch(uint64_t epochLen);

    /** Alias of reconfigureAll(), kept for the TalusCache-shaped
     *  surface. */
    void reconfigure();

    /**
     * Aggregate snapshot of logical partition @p part across all
     * shards: accesses, misses, and targetLines are sums; rho is the
     * access-weighted mean of the shard rhos (1.0 before any access).
     * The shadow configuration is a per-shard concept and is left
     * default — read it via shardStats().
     */
    TalusCache::PartStats stats(PartId part) const;

    /** Snapshot of partition @p part on shard @p shard alone. */
    TalusCache::PartStats shardStats(uint32_t shard, PartId part) const;

    /** Monitored miss curve of partition @p part on shard @p shard. */
    MissCurve shardCurve(uint32_t shard, PartId part) const;

    /** Miss ratio across all shards and partitions. */
    double missRatio() const;

    /** Clears every shard's access/miss counters (not monitors). */
    void resetStats();

    /** Number of shards. */
    uint32_t numShards() const { return cfg_.numShards; }

    /** Logical partitions per shard (the caller-visible PartId
     *  space; every shard has the same partitions). */
    uint32_t numParts() const { return cfg_.shard.numParts; }

    /** Worker threads driving batches and control steps (0 =
     *  inline). */
    uint32_t threads() const { return workers_.threadCount(); }

    /** Total capacity in lines, summed over shards. */
    uint64_t capacityLines() const;

    /** Reconfigurations run so far, summed over shards. */
    uint64_t reconfigurations() const;

    /** The address->shard router. */
    const ShardRouter& router() const { return router_; }

    /** Direct access to shard @p shard, for tests and diagnostics. */
    TalusCache& shard(uint32_t shard);
    const TalusCache& shard(uint32_t shard) const;

    /** The validated configuration this engine was built from. */
    const Config& config() const { return cfg_; }

  private:
    /**
     * One shard's per-batch hit count, padded to a cache line: the
     * slots are written concurrently by different workers every
     * batch, so adjacent uint64_t entries would false-share one line
     * and ping it between cores on every sub-batch completion.
     */
    struct alignas(64) PaddedHits
    {
        uint64_t value = 0;
    };

    /** Scatters @p addrs and rebuilds @p tasks with one ShardTask per
     *  non-empty shard (empty shards are skipped — bit-exact, since
     *  an empty sub-batch is a no-op). */
    void buildTasks(Span<const Addr> addrs, PartId part,
                    ScatterPlan& plan, std::vector<ShardTask>& tasks);

    /** Runs one control task (@p op, @p count) per shard on the
     *  shards' owners and returns once all finished. */
    void dispatchControl(ShardOp op, uint64_t count);

    /** The pinned workers' executor: runs @p task on its shard. */
    void runTask(const ShardTask& task);

    /** Sums the hit slots of exactly the shards @p tasks touched.
     *  Must run after the dispatch that produced them completed and
     *  before the next dispatch overwrites the slots. */
    uint64_t gatherHits(const std::vector<ShardTask>& tasks) const;

    Config cfg_;
    ShardRouter router_;
    std::vector<std::unique_ptr<TalusCache>> shards_;
    // Scatter/dispatch/gather scratch, reused across calls so the
    // steady state allocates nothing. The engine is single-caller
    // (like TalusCache, it is externally synchronized). Two plan/task
    // pairs so accessBatch can scatter block k+1 while the workers
    // still read block k's plan; control dispatch reuses tasks_[0].
    ScatterPlan plans_[2];
    std::vector<ShardTask> tasks_[2];
    std::vector<PaddedHits> shardHits_;
    // Pinned workers. Declared last: its destructor joins the
    // worker threads, which must happen while shards_ and the scratch
    // buffers above are still alive.
    PinnedWorkers workers_;
};

} // namespace talus

#endif // TALUS_SHARD_SHARDED_CACHE_H
