/**
 * @file
 * Sharded serving: scaling one self-managing TalusCache into a
 * multi-shard, multi-threaded engine.
 *
 * ShardedTalusCache hash-partitions the address space (seeded H3,
 * shard/shard_router.h) across N fully independent TalusCache shards
 * and executes batches scatter-dispatch-gather on a fixed worker
 * pool. Because shards share no state, every shard's hit/miss
 * sequence is bit-exact for any thread count — threads buy
 * wall-clock, never different answers. This example sweeps shard and
 * thread counts over one Zipf-skewed workload, prints the measured
 * replay throughput, and checks the determinism guarantee on the fly.
 *
 * The control plane rides along: --reconfig=N sets how often each
 * shard's monitor -> hull -> allocate -> configure loop runs (in
 * accesses), and the final section demonstrates the epoch-deferred
 * mode — reconfigureAllAtEpoch() computes every shard's control step
 * concurrently but applies each shard's new configuration at a fixed
 * access-count boundary, so the result stays bit-exact for any
 * thread count.
 *
 * Build & run:  ./build/examples/sharded_serving
 *               [--shards=N] [--threads=N] [--accesses=N]
 *               [--reconfig=N] [--csv]
 */

#include <cstdio>
#include <vector>

#include "api/talus.h"
#include "sim/experiment_util.h"
#include "sim/sharded_replay.h"
#include "util/table.h"
#include "workload/zipf_stream.h"

int
main(int argc, char** argv)
{
    using namespace talus;

    const BenchEnv env = BenchEnv::init(argc, argv);

    // Per-shard cache: self-managing, reconfiguring itself — the
    // quickstart cache, one per shard.
    ShardedTalusCache::Config cfg;
    cfg.shard.llcLines = 4096;
    cfg.shard.ways = 16;
    cfg.shard.allocatorName = "HillClimb";
    cfg.shard.reconfigInterval =
        env.reconfig > 0 ? env.reconfig : 50'000;
    cfg.shard.seed = env.seed;

    ShardedReplayOptions replay;
    replay.accesses = env.measureAccesses * 4;
    replay.blockSize = 8192;

    const uint64_t universe = 1 << 16; // Zipf-skewed key space.

    // --shards pins the sweep to one shard count. The sweep always
    // measures inline dispatch (threads = 0) plus one threaded
    // count: 2 by default, --threads=N to choose it.
    const std::vector<uint32_t> shard_counts =
        env.shards > 0 ? std::vector<uint32_t>{env.shards}
                       : std::vector<uint32_t>{1, 2, 4, 8};
    const std::vector<uint32_t> thread_counts{
        0, env.threads > 0 ? env.threads : 2};

    std::printf("sharded serving demo: %llu accesses, zipf(0.9) over "
                "%llu keys, %llu-line shards\n\n",
                static_cast<unsigned long long>(replay.accesses),
                static_cast<unsigned long long>(universe),
                static_cast<unsigned long long>(cfg.shard.llcLines));

    // --- Shard/thread scaling sweep. -------------------------------
    Table table("Sharded replay throughput (scatter-dispatch-gather)",
                {"shards", "threads", "miss_ratio", "Macc_per_s"});
    for (uint32_t shards : shard_counts) {
        for (uint32_t threads : thread_counts) {
            cfg.numShards = shards;
            cfg.threads = threads;
            ShardedTalusCache cache(cfg);
            ZipfStream stream(universe, 0.9, 0, env.seed + 7);
            const ShardedReplayResult r =
                runShardedReplay(cache, stream, replay);
            table.addRow({static_cast<double>(shards),
                          static_cast<double>(threads), r.missRatio(),
                          r.accessesPerSecond() / 1e6});
        }
    }
    table.print(env.csv);

    // --- The determinism guarantee, demonstrated. ------------------
    // Same workload, same shards, 0 vs 4 worker threads: every
    // shard's stats must be bit-exact.
    cfg.numShards = shard_counts.back();
    bool deterministic = true;
    {
        cfg.threads = 0;
        ShardedTalusCache inline_cache(cfg);
        cfg.threads = 4;
        ShardedTalusCache threaded_cache(cfg);
        ZipfStream inline_stream(universe, 0.9, 0, env.seed + 7);
        ZipfStream threaded_stream(universe, 0.9, 0, env.seed + 7);
        runShardedReplay(inline_cache, inline_stream, replay);
        runShardedReplay(threaded_cache, threaded_stream, replay);
        for (uint32_t s = 0; s < cfg.numShards; ++s) {
            const auto a = inline_cache.shardStats(s, 0);
            const auto b = threaded_cache.shardStats(s, 0);
            deterministic &=
                a.accesses == b.accesses && a.misses == b.misses;
        }
    }
    std::printf("\ndeterminism check (%u shards, 0 vs 4 threads): "
                "per-shard stats %s\n",
                cfg.numShards,
                deterministic ? "bit-exact" : "DIVERGED");

    // --- The epoch-deferred control plane, demonstrated. -----------
    // reconfigureAllAtEpoch() ends every shard's monitoring interval
    // and computes the new configurations concurrently, but each
    // shard applies its result only when its own access count crosses
    // the next multiple of the epoch length — a fixed access count,
    // so 0-thread and 4-thread runs still agree bit-exactly.
    ShardedReplayOptions deferred = replay;
    deferred.reconfigEveryBlocks = 8;
    deferred.applyEpochLen = 10'000;
    bool deferred_deterministic = true;
    uint64_t applied = 0;
    {
        cfg.shard.reconfigInterval = 0; // Control is explicit here.
        cfg.threads = 0;
        ShardedTalusCache inline_cache(cfg);
        cfg.threads = 4;
        ShardedTalusCache threaded_cache(cfg);
        ZipfStream inline_stream(universe, 0.9, 0, env.seed + 7);
        ZipfStream threaded_stream(universe, 0.9, 0, env.seed + 7);
        runShardedReplay(inline_cache, inline_stream, deferred);
        runShardedReplay(threaded_cache, threaded_stream, deferred);
        for (uint32_t s = 0; s < cfg.numShards; ++s) {
            const auto a = inline_cache.shardStats(s, 0);
            const auto b = threaded_cache.shardStats(s, 0);
            deferred_deterministic &=
                a.accesses == b.accesses && a.misses == b.misses;
        }
        deferred_deterministic &= inline_cache.reconfigurations() ==
                                  threaded_cache.reconfigurations();
        applied = inline_cache.reconfigurations();
    }
    std::printf("epoch-deferred control plane (every %llu blocks, "
                "epoch %llu accesses): %llu applied "
                "reconfigurations, 0 vs 4 threads %s\n",
                static_cast<unsigned long long>(
                    deferred.reconfigEveryBlocks),
                static_cast<unsigned long long>(deferred.applyEpochLen),
                static_cast<unsigned long long>(applied),
                deferred_deterministic ? "bit-exact" : "DIVERGED");
    return (deterministic && deferred_deterministic) ? 0 : 1;
}
