/**
 * @file
 * Microbenchmarks (google-benchmark): throughput of the hot paths —
 * cache accesses under each policy, Talus routing overhead, monitor
 * updates, and the reconfiguration-time math (hull + configuration).
 *
 * These verify the library is fast enough for the trace volumes the
 * figure benches need, and quantify the paper's claim that Talus's
 * software overheads are "a few thousand cycles per reconfiguration".
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "alloc/allocator_factory.h"
#include "api/talus_cache.h"
#include "cache/fully_assoc_lru.h"
#include "control/control_plane.h"
#include "control/control_step.h"
#include "core/convex_hull.h"
#include "core/shadow_router.h"
#include "core/talus_config.h"
#include "core/talus_controller.h"
#include "monitor/combined_umon.h"
#include "obs/registry.h"
#include "monitor/mattson_curve.h"
#include "monitor/stack_distance.h"
#include "policy/policy_factory.h"
#include "shard/sharded_cache.h"
#include "sim/serving_harness.h"
#include "util/h3_hash.h"
#include "util/rng.h"
#include "workload/access_stream.h"
#include "workload/zipf_stream.h"

using namespace talus;

namespace {

void
BM_H3Hash(benchmark::State& state)
{
    H3Hash hash(8, 1);
    Addr addr = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(hash.hash(addr++));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_H3Hash);

void
BM_ShadowRouterRoute(benchmark::State& state)
{
    ShadowRouter router(8, 0x70C4);
    router.setRho(0.37);
    Addr addr = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(router.toAlpha(addr++));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowRouterRoute);

void
BM_FullyAssocLru(benchmark::State& state)
{
    FullyAssocLru lru(8192);
    Rng rng(17);
    for (auto _ : state)
        benchmark::DoNotOptimize(lru.access(rng.below(16384)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullyAssocLru);

void
BM_StackDistanceCounter(benchmark::State& state)
{
    StackDistanceCounter counter;
    Rng rng(19);
    for (auto _ : state)
        benchmark::DoNotOptimize(counter.access(rng.below(1 << 14)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StackDistanceCounter);

void
BM_CacheAccess(benchmark::State& state, const std::string& policy)
{
    SetAssocCache::Config cfg;
    cfg.numSets = 1024;
    cfg.numWays = 16;
    SetAssocCache cache(cfg, makePolicy(policy, 7));
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.below(32768)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_CacheAccess, lru, std::string("LRU"));
BENCHMARK_CAPTURE(BM_CacheAccess, srrip, std::string("SRRIP"));
BENCHMARK_CAPTURE(BM_CacheAccess, drrip, std::string("DRRIP"));
BENCHMARK_CAPTURE(BM_CacheAccess, dip, std::string("DIP"));
BENCHMARK_CAPTURE(BM_CacheAccess, pdp, std::string("PDP"));

void
BM_TalusRoutedAccess(benchmark::State& state)
{
    auto phys =
        makePartitionedCache(SchemeKind::Vantage, 16384, 16, "LRU", 2, 9);
    TalusController::Config tc;
    tc.numLogicalParts = 1;
    TalusController ctl(std::move(phys), tc);
    const MissCurve cliff({{0, 1.0}, {8192, 0.9}, {12288, 0.1},
                           {16384, 0.1}});
    ctl.configure({cliff}, {10000});
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(ctl.access(rng.below(32768), 0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TalusRoutedAccess);

void
BM_UmonAccess(benchmark::State& state)
{
    CombinedUMon::Config cfg;
    cfg.llcLines = 1 << 17;
    CombinedUMon mon(cfg);
    Rng rng(7);
    for (auto _ : state)
        mon.access(rng.below(1 << 20));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UmonAccess);

/** Block-hashed monitor feed: both UMons through accessBlock. */
void
BM_CombinedUMonAccess(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    CombinedUMon::Config cfg;
    cfg.llcLines = 1 << 17;
    CombinedUMon mon(cfg);
    Rng rng(7);
    std::vector<Addr> addrs(kBlock);
    for (Addr& a : addrs)
        a = rng.below(1 << 20);
    for (auto _ : state)
        mon.accessBlock(Span<const Addr>(addrs.data(), addrs.size()));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_CombinedUMonAccess);

TalusCache::Config
facadeBenchConfig(uint32_t ways = 16)
{
    TalusCache::Config cc;
    cc.llcLines = 16384;
    cc.ways = ways;
    cc.numParts = 1;
    cc.allocatorName = "";
    cc.seed = 21;
    return cc;
}

std::vector<Addr>
facadeBenchAddrs()
{
    Rng rng(23);
    std::vector<Addr> addrs(1 << 16);
    for (Addr& a : addrs)
        a = rng.below(32768);
    return addrs;
}

/**
 * Serial facade access: monitors + routed cache, one call per addr.
 * The plain name is the 16-way geometry the perf gate tracks; the
 * ways:32 variant is the paper's LLC associativity (Table I).
 */
void
BM_TalusFacadeAccess(benchmark::State& state, uint32_t ways)
{
    TalusCache cache(facadeBenchConfig(ways));
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i], 0));
        i = (i + 1) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
void
BM_TalusFacadeAccess(benchmark::State& state)
{
    BM_TalusFacadeAccess(state, 16);
}
BENCHMARK(BM_TalusFacadeAccess);
BENCHMARK_CAPTURE(BM_TalusFacadeAccess, ways:32, 32);

/** Same facade and address stream, driven through accessBatch. */
void
BM_TalusBatchedAccess(benchmark::State& state, uint32_t ways)
{
    constexpr size_t kBlock = 4096;
    TalusCache cache(facadeBenchConfig(ways));
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessBatch(
            Span<const Addr>(addrs.data() + off, kBlock), 0));
        off = (off + kBlock) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
void
BM_TalusBatchedAccess(benchmark::State& state)
{
    BM_TalusBatchedAccess(state, 16);
}
BENCHMARK(BM_TalusBatchedAccess);
BENCHMARK_CAPTURE(BM_TalusBatchedAccess, ways:32, 32);

/**
 * The metricsEnabled toll on the batched facade path: the same load
 * as BM_TalusBatchedAccess with metrics off (arg 0) and on (arg 1,
 * publishing into a fresh local registry). compare_bench.py checks
 * metrics:1 stays within 2% of metrics:0 — the observability layer's
 * advertised overhead budget.
 */
void
BM_MetricsOverhead(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    MetricRegistry registry;
    TalusCache::Config cc = facadeBenchConfig();
    if (state.range(0) != 0) {
        cc.metricsEnabled = true;
        cc.metrics = &registry;
    }
    TalusCache cache(cc);
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessBatch(
            Span<const Addr>(addrs.data() + off, kBlock), 0));
        off = (off + kBlock) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1)->ArgName("metrics");

/** The facade with monitoring off: isolates router + cache cost. */
void
BM_TalusMonitorOffAccess(benchmark::State& state)
{
    TalusCache::Config cc = facadeBenchConfig();
    cc.monitoring = false;
    TalusCache cache(cc);
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i], 0));
        i = (i + 1) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TalusMonitorOffAccess);

/**
 * Scatter-dispatch-gather through the sharded serving engine, with a
 * shard-count scaling sweep. Total capacity is held constant (the
 * facade bench cache split across shards) so the sweep isolates the
 * shard layer's routing + dispatch cost. The threads:0 rows are the
 * deterministic, host-independent ones the regression gate tracks;
 * the threads:2/threads:4 rows of the same sweep measure pinned-worker
 * dispatch and depend on core count (hence UseRealTime: with work on
 * worker threads, the main thread's cpu_time would be meaningless).
 */
void
BM_ShardedBatchedAccess(benchmark::State& state)
{
    constexpr size_t kBlock = 4096;
    const uint32_t shards = static_cast<uint32_t>(state.range(0));
    const uint32_t threads = static_cast<uint32_t>(state.range(1));
    ShardedTalusCache::Config cfg;
    cfg.shard = facadeBenchConfig();
    cfg.shard.llcLines = 16384 / shards;
    cfg.numShards = shards;
    cfg.threads = threads;
    ShardedTalusCache cache(cfg);
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessBatch(
            Span<const Addr>(addrs.data() + off, kBlock), 0));
        off = (off + kBlock) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_ShardedBatchedAccess)
    ->ArgNames({"shards", "threads"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->UseRealTime();

/**
 * Double-buffered dispatch on batches spanning several kPipelineBlock
 * blocks (the only shape where the caller's scatter of block k+1 can
 * overlap the workers' drain of block k): one worker thread, so the
 * overlap measured is precisely "caller scatters block k+1 while the
 * worker drains block k".
 */
void
BM_ShardedPipelinedAccess(benchmark::State& state)
{
    const size_t kBatch = 4 * ShardedTalusCache::kPipelineBlock;
    ShardedTalusCache::Config cfg;
    cfg.shard = facadeBenchConfig();
    cfg.shard.llcLines = 16384 / 4;
    cfg.numShards = 4;
    cfg.threads = static_cast<uint32_t>(state.range(0));
    ShardedTalusCache cache(cfg);
    const std::vector<Addr> addrs = facadeBenchAddrs();
    size_t off = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessBatch(
            Span<const Addr>(addrs.data() + off, kBatch), 0));
        off = (off + kBatch) & (addrs.size() - 1);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_ShardedPipelinedAccess)
    ->ArgName("threads")
    ->Arg(1)
    ->UseRealTime();

/**
 * Replays a prebuilt power-of-two address buffer, cycling forever —
 * generation is an indexed copy, so the serving benches measure the
 * serving path, not workload math.
 */
class ReplayStream final : public AccessStream
{
  public:
    explicit ReplayStream(std::vector<Addr> addrs)
        : addrs_(std::move(addrs)), mask_(addrs_.size() - 1)
    {
    }

    Addr next() override
    {
        const Addr a = addrs_[i_];
        i_ = (i_ + 1) & mask_;
        return a;
    }

    void nextBlock(Addr* out, uint64_t n) override
    {
        for (uint64_t k = 0; k < n; ++k) {
            out[k] = addrs_[i_];
            i_ = (i_ + 1) & mask_;
        }
    }

    void reset() override { i_ = 0; }

    std::unique_ptr<AccessStream> clone() const override
    {
        return std::make_unique<ReplayStream>(addrs_);
    }

    const char* kind() const override { return "replay"; }

  private:
    std::vector<Addr> addrs_;
    size_t mask_;
    size_t i_ = 0;
};

/**
 * The serving harness's closed-loop driver over the sharded engine:
 * back-to-back batches with per-batch latency sampling — the
 * end-to-end serving hot path (scatter, ring dispatch, gather,
 * percentile bookkeeping). The threads:0 row is the deterministic
 * tracked one; the threads:4 row of the same sweep is what the
 * no-negative-scaling invariant in compare_bench.py checks against
 * BM_ShardedBatchedAccess. UseRealTime as in the other sharded
 * sweeps: work runs on pinned worker threads.
 */
void
BM_ServingClosedLoop(benchmark::State& state)
{
    constexpr uint64_t kAccessesPerRun = 1 << 15;
    const uint32_t shards = static_cast<uint32_t>(state.range(0));
    const uint32_t threads = static_cast<uint32_t>(state.range(1));
    ShardedTalusCache::Config cfg;
    cfg.shard = facadeBenchConfig();
    cfg.shard.llcLines = 16384 / shards;
    cfg.numShards = shards;
    cfg.threads = threads;
    ShardedTalusCache cache(cfg);
    ReplayStream stream(facadeBenchAddrs());
    ServingOptions serve;
    serve.accesses = kAccessesPerRun;
    serve.batchSize = 4096;
    double p99_us = 0.0;
    for (auto _ : state) {
        const ServingResult r = runClosedLoop(cache, stream, serve);
        benchmark::DoNotOptimize(r.hits);
        p99_us = r.latency.p99 * 1e6;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kAccessesPerRun));
    state.counters["p99_us"] = p99_us;
}
BENCHMARK(BM_ServingClosedLoop)
    ->ArgNames({"shards", "threads"})
    ->Args({4, 0})
    ->Args({4, 4})
    ->UseRealTime();

/**
 * The open-loop driver at a fixed offered rate well below any host's
 * capacity: wall time is schedule-dominated (items/s ~= offered
 * rate by construction), so the bench is NOT throughput-tracked —
 * it exists to exercise the arrival scheduler and report the sojourn
 * p99 as a counter.
 */
void
BM_ServingOpenLoop(benchmark::State& state)
{
    constexpr uint64_t kAccessesPerRun = 1 << 15;
    ShardedTalusCache::Config cfg;
    cfg.shard = facadeBenchConfig();
    cfg.shard.llcLines = 16384 / 4;
    cfg.numShards = 4;
    cfg.threads = static_cast<uint32_t>(state.range(0));
    ShardedTalusCache cache(cfg);
    ReplayStream stream(facadeBenchAddrs());
    ServingOptions serve;
    serve.accesses = kAccessesPerRun;
    serve.batchSize = 4096;
    serve.offeredRate = 2e6; // Accesses/s, far under capacity.
    double p99_us = 0.0;
    uint64_t late = 0;
    for (auto _ : state) {
        const ServingResult r = runOpenLoop(cache, stream, serve);
        benchmark::DoNotOptimize(r.hits);
        p99_us = r.latency.p99 * 1e6;
        late += r.lateBatches;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kAccessesPerRun));
    state.counters["p99_us"] = p99_us;
    state.counters["late_batches"] =
        static_cast<double>(late) /
        static_cast<double>(state.iterations());
}
BENCHMARK(BM_ServingOpenLoop)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(2)
    ->UseRealTime();

void
BM_MattsonAccess(benchmark::State& state)
{
    MattsonCurve mattson(1 << 16);
    Rng rng(9);
    for (auto _ : state)
        mattson.access(rng.below(1 << 15));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MattsonAccess);

void
BM_ZipfNext(benchmark::State& state)
{
    ZipfStream zipf(1 << 16, 0.8, 0, 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfNext);

/**
 * One full control-plane compute stage: curve weighting, convex
 * hulls, and the allocator, double-buffered through a ControlPlane —
 * the entire off-hot-path cost of one reconfiguration decision for a
 * two-partition cache with 64-point monitored curves.
 */
void
BM_ControlPlaneStep(benchmark::State& state)
{
    ControlInput in;
    in.numParts = 2;
    in.llcLines = 1 << 17;
    in.capacityLines = 1 << 17;
    in.granule = (1 << 17) / 64;
    Rng rng(29);
    for (uint32_t part = 0; part < in.numParts; ++part) {
        std::vector<CurvePoint> pts;
        double value = 1.0;
        for (int i = 0; i <= 64; ++i) {
            pts.push_back({static_cast<double>(i * 2048), value});
            value = std::max(0.0, value - rng.unit() * 0.05);
        }
        in.curves.push_back(MissCurve(std::move(pts)));
        in.intervalAccesses.push_back(50'000 * (part + 1));
    }
    ControlPlane plane(makeAllocator("HillClimb"));
    for (auto _ : state) {
        plane.compute(in);
        benchmark::DoNotOptimize(plane.commit().alloc.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControlPlaneStep);

/**
 * A full reconfiguration sweep across all shards of a sharded engine
 * (snapshot + pure control step + apply per shard), dispatched via
 * reconfigureAll(). The threads:0 row is the deterministic tracked
 * one; threads:2/4 of the same sweep show that per-shard control
 * steps no longer serialize — on multi-core hosts they overlap on
 * the shards' pinned workers (UseRealTime: the work runs on worker
 * threads).
 */
void
BM_ShardedReconfigure(benchmark::State& state)
{
    const uint32_t shards = static_cast<uint32_t>(state.range(0));
    const uint32_t threads = static_cast<uint32_t>(state.range(1));
    ShardedTalusCache::Config cfg;
    cfg.shard = facadeBenchConfig();
    cfg.shard.llcLines = 16384 / shards;
    cfg.shard.allocatorName = "HillClimb";
    cfg.numShards = shards;
    cfg.threads = threads;
    ShardedTalusCache cache(cfg);
    // Warm the monitors so every control step sees real curves.
    const std::vector<Addr> addrs = facadeBenchAddrs();
    cache.accessBatch(Span<const Addr>(addrs), 0);
    for (auto _ : state) {
        cache.reconfigureAll();
        benchmark::DoNotOptimize(cache.reconfigurations());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(shards));
}
BENCHMARK(BM_ShardedReconfigure)
    ->ArgNames({"shards", "threads"})
    ->Args({8, 0})
    ->Args({8, 2})
    ->Args({8, 4})
    ->UseRealTime();

/** The per-reconfiguration software work: hull + configuration. */
void
BM_ReconfigurationMath(benchmark::State& state)
{
    // A 64-point monitored curve, as UMONs produce.
    std::vector<CurvePoint> pts;
    Rng rng(13);
    double value = 1.0;
    for (int i = 0; i <= 64; ++i) {
        pts.push_back({static_cast<double>(i * 2048), value});
        value = std::max(0.0, value - rng.unit() * 0.05);
    }
    const MissCurve curve(pts);
    for (auto _ : state) {
        const ConvexHull hull(curve);
        benchmark::DoNotOptimize(
            computeTalusConfig(hull, 77777.0, 0.05));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReconfigurationMath);

} // namespace

BENCHMARK_MAIN();
