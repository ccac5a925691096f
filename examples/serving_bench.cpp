/**
 * @file
 * Serving bench: the latency-percentile harness driving the sharded
 * engine with closed- and open-loop load.
 *
 * Two sections, the way production cache load tools (Traffic
 * Server's jtest / http_load) report results:
 *
 *  1. Closed loop — back-to-back batches, one outstanding request —
 *     swept over shard and thread counts: peak throughput plus
 *     p50/p95/p99 per-batch service latency. This is the scaling
 *     curve the ROADMAP's "make threaded sharding actually scale"
 *     item is pinned by.
 *
 *  2. Open loop — batches arrive on a fixed schedule at a fraction
 *     of the measured closed-loop capacity — showing how the tail
 *     (sojourn time = queueing + service) inflates as offered load
 *     approaches saturation, which aggregate throughput alone never
 *     shows.
 *
 * Build & run:  ./build/examples/serving_bench
 *               [--shards=N] [--threads=N] [--accesses=N]
 *               [--reconfig=N] [--monitor-sample=N] [--csv]
 *               [--metrics=PATH]
 *
 * Serving defaults to sampled monitoring (period
 * kServingMonitorSamplePeriod = 8): throughput is the product here,
 * and period-8 curves are statistically plenty for the control
 * plane. Pass --monitor-sample=1 to restore exact (figure-grade)
 * monitoring.
 *
 * With --metrics=PATH (or TALUS_METRICS), the engine and harness
 * publish into the global metric registry — per-shard hit/miss
 * counters, worker ring depths, control-plane staleness, serving
 * latency histograms — and a snapshot is dumped to PATH at exit.
 */

#include <cstdio>
#include <vector>

#include "api/talus.h"
#include "sim/experiment_util.h"
#include "sim/serving_harness.h"
#include "util/table.h"
#include "workload/zipf_stream.h"

int
main(int argc, char** argv)
{
    using namespace talus;

    const BenchEnv env = BenchEnv::init(argc, argv);

    ShardedTalusCache::Config cfg;
    cfg.shard.llcLines = 4096;
    cfg.shard.ways = 16;
    cfg.shard.allocatorName = "HillClimb";
    cfg.shard.reconfigInterval =
        env.reconfig > 0 ? env.reconfig : 50'000;
    cfg.shard.seed = env.seed;
    cfg.shard.metricsEnabled = env.metricsWanted();
    cfg.shard.monitorSamplePeriod =
        env.monitorSampleOr(kServingMonitorSamplePeriod);

    ServingOptions serve;
    serve.accesses = env.measureAccesses * 4;
    serve.batchSize = 8192;
    serve.warmupBatches = 16;
    if (env.metricsWanted())
        serve.metrics = &globalMetricRegistry();

    const uint64_t universe = 1 << 16; // Zipf-skewed key space.

    const std::vector<uint32_t> shard_counts =
        env.shards > 0 ? std::vector<uint32_t>{env.shards}
                       : std::vector<uint32_t>{1, 2, 4, 8};
    const std::vector<uint32_t> thread_counts{
        0, env.threads > 0 ? env.threads : 2};

    std::printf("serving bench: %llu accesses/run (+%llu warmup "
                "batches), zipf(0.9) over %llu keys, %llu-line "
                "shards, batch %llu, monitor period %u\n\n",
                static_cast<unsigned long long>(serve.accesses),
                static_cast<unsigned long long>(serve.warmupBatches),
                static_cast<unsigned long long>(universe),
                static_cast<unsigned long long>(cfg.shard.llcLines),
                static_cast<unsigned long long>(serve.batchSize),
                cfg.shard.monitorSamplePeriod);

    // --- Closed loop: peak throughput + service-latency percentiles.
    Table closed("Closed-loop serving (one outstanding batch)",
                 {"shards", "threads", "Macc_per_s", "p50_us",
                  "p95_us", "p99_us"});
    double peak_rate = 0.0;
    for (uint32_t shards : shard_counts) {
        for (uint32_t threads : thread_counts) {
            cfg.numShards = shards;
            cfg.threads = threads;
            ShardedTalusCache cache(cfg);
            ZipfStream stream(universe, 0.9, 0, env.seed + 7);
            const ServingResult r =
                runClosedLoop(cache, stream, serve);
            if (r.accessesPerSecond() > peak_rate)
                peak_rate = r.accessesPerSecond();
            closed.addRow({static_cast<double>(shards),
                           static_cast<double>(threads),
                           r.accessesPerSecond() / 1e6,
                           r.latency.p50 * 1e6, r.latency.p95 * 1e6,
                           r.latency.p99 * 1e6});
        }
    }
    closed.print(env.csv);

    // --- Open loop: tail latency vs offered load. ------------------
    // Fixed-arrival-rate batches against the largest swept engine, at
    // fractions of the peak closed-loop rate measured above.
    cfg.numShards = shard_counts.back();
    cfg.threads = env.threads > 0 ? env.threads : 2;
    std::printf("\n");
    Table open("Open-loop serving (fixed arrival rate, sojourn "
               "latency)",
               {"offered_frac", "offered_Macc_s", "achieved_Macc_s",
                "late_batches", "p50_us", "p95_us", "p99_us"});
    bool tails_ordered = true;
    double prev_p99 = 0.0;
    for (double frac : {0.25, 0.5, 0.75, 0.9}) {
        ShardedTalusCache cache(cfg);
        ZipfStream stream(universe, 0.9, 0, env.seed + 7);
        ServingOptions open_opts = serve;
        open_opts.offeredRate = peak_rate * frac;
        const ServingResult r = runOpenLoop(cache, stream, open_opts);
        open.addRow({frac, open_opts.offeredRate / 1e6,
                     r.accessesPerSecond() / 1e6,
                     static_cast<double>(r.lateBatches),
                     r.latency.p50 * 1e6, r.latency.p95 * 1e6,
                     r.latency.p99 * 1e6});
        // Tails should not *shrink* as load grows (a sanity signal,
        // not a hard guarantee on noisy hosts).
        tails_ordered &= r.latency.p99 + 1e-9 >= prev_p99 * 0.5;
        prev_p99 = r.latency.p99;
    }
    open.print(env.csv);

    std::printf("\npeak closed-loop rate: %.2f Macc/s; open-loop "
                "tail ordering %s\n", peak_rate / 1e6,
                tails_ordered ? "plausible" : "NOISY (timing-bound "
                                              "host?)");
    return 0;
}
