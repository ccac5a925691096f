/**
 * @file
 * The Talus engine's end-to-end benchmark: one workload per process.
 *
 *     talus_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--spans PATH]
 *
 * A single calling thread drives the engine in a closed loop: the next
 * call starts when the previous one returned, which is how callers use
 * the synchronous TalusCache / ShardedTalusCache surface. Inputs come
 * from the src/workload generators, seeded only by --seed, and are
 * generated before the timed window; the window replays one generated
 * round of operations as many whole times as fit in --seconds.
 *
 * The benchmark keeps its own clock (steady_clock) and its own
 * percentiles, and never goes through sim/ or trace/, so a change to the
 * serving harness or to the obs histograms cannot move the numbers that
 * judge it. Outputs are checked after the window, untimed, against an
 * independent fully-associative LRU (paper-mix-serial) or against
 * stand-alone per-shard replicas (serve-*).
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
 * variant instead: spans around every public call, kept in memory and
 * written to --spans at exit, a per-layer ns/access ledger, and the
 * per-layer metrics. The last stdout line is always one JSON object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/talus_cache.h"
#include "monitor/combined_umon.h"
#include "obs/registry.h"
#include "shard/shard_router.h"
#include "shard/sharded_cache.h"
#include "util/bits.h"
#include "util/rng.h"
#include "workload/scenarios.h"
#include "workload/spec_suite.h"

namespace {

using talus::Addr;
using talus::ShardedTalusCache;
using talus::Span;
using talus::TalusCache;

using Clock = std::chrono::steady_clock;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Keeps hit counts observable so no access loop is optimized away. */
volatile uint64_t gSink = 0;

// --- Small statistics helpers ------------------------------------------

/** Linear-interpolated quantile of @p v (copied, so callers keep order). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

double
sum(const std::vector<double>& v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/**
 * The tail percentile a sample of @p n can support: p99 from 1000
 * samples on, otherwise the highest percentile with at least ten samples
 * beyond it, and the median alone below forty samples.
 */
double
tailQuantile(size_t n)
{
    if (n >= 1000)
        return 0.99;
    if (n < 40)
        return 0.5;
    return 1.0 - 10.0 / static_cast<double>(n);
}

/** Peak resident set of this process in bytes (ru_maxrss is KiB). */
double
peakRssBytes()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

// --- The independent reference: a fully-associative LRU ----------------

/**
 * Exact fully-associative LRU over line addresses: a hash index into an
 * intrusive doubly linked recency list. Written here, apart from the
 * library's caches, so the paper-mix check compares the engine against
 * code it does not share.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(uint64_t lines) : capacity_(lines)
    {
        nodes_.reserve(lines);
        index_.reserve(lines * 2);
    }

    /** One access; true on hit. */
    bool access(Addr addr)
    {
        auto it = index_.find(addr);
        if (it != index_.end()) {
            moveToFront(it->second);
            return true;
        }
        uint32_t n;
        if (nodes_.size() < capacity_) {
            n = static_cast<uint32_t>(nodes_.size());
            nodes_.push_back(Node{addr, kNil, kNil});
        } else {
            n = tail_;
            unlink(n);
            index_.erase(nodes_[n].addr);
            nodes_[n].addr = addr;
        }
        pushFront(n);
        index_.emplace(addr, n);
        return false;
    }

  private:
    static constexpr uint32_t kNil = UINT32_MAX;

    struct Node
    {
        Addr addr;
        uint32_t prev;
        uint32_t next;
    };

    void unlink(uint32_t n)
    {
        Node& x = nodes_[n];
        (x.prev == kNil ? head_ : nodes_[x.prev].next) = x.next;
        (x.next == kNil ? tail_ : nodes_[x.next].prev) = x.prev;
    }

    void pushFront(uint32_t n)
    {
        nodes_[n].prev = kNil;
        nodes_[n].next = head_;
        (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
        head_ = n;
    }

    void moveToFront(uint32_t n)
    {
        if (n == head_)
            return;
        unlink(n);
        pushFront(n);
    }

    uint64_t capacity_;
    std::vector<Node> nodes_;
    std::unordered_map<Addr, uint32_t> index_;
    uint32_t head_ = kNil;
    uint32_t tail_ = kNil;
};

// --- Spans ---------------------------------------------------------------

/**
 * In-memory span recorder. A span has a name, an argument (the shard for
 * per-shard calls), the batch it belongs to, a start, an end and a
 * parent (0 = none); ids are 1-based positions. Written as CSV at exit.
 */
class Tracer
{
  public:
    struct Record
    {
        uint64_t batch;
        int64_t start;
        int64_t end;
        uint32_t parent;
        uint16_t name;
        uint16_t arg;
    };

    uint32_t begin(const char* name, uint64_t batch, uint32_t parent = 0,
                   uint16_t arg = 0)
    {
        spans_.push_back(Record{batch, nowNs(), 0, parent, nameId(name), arg});
        return static_cast<uint32_t>(spans_.size());
    }

    void end(uint32_t id) { spans_[id - 1].end = nowNs(); }

    /** Durations in ns of every span named @p name. */
    std::vector<double> durations(const char* name) const
    {
        std::vector<double> out;
        const auto it = ids_.find(name);
        if (it == ids_.end())
            return out;
        for (const Record& s : spans_)
            if (s.name == it->second)
                out.push_back(static_cast<double>(s.end - s.start));
        return out;
    }

    const std::vector<Record>& spans() const { return spans_; }

    const std::string& nameOf(const Record& s) const
    {
        return names_[s.name];
    }

    bool write(const std::string& path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "id,parent,batch,name,arg,start_ns,end_ns\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Record& s = spans_[i];
            out << i + 1 << ',' << s.parent << ',' << s.batch << ','
                << names_[s.name] << ',' << s.arg << ',' << s.start << ','
                << s.end << '\n';
        }
        return static_cast<bool>(out);
    }

  private:
    uint16_t nameId(const char* name)
    {
        const auto it = ids_.find(name);
        if (it != ids_.end())
            return it->second;
        const auto id = static_cast<uint16_t>(names_.size());
        names_.emplace_back(name);
        ids_.emplace(name, id);
        return id;
    }

    std::vector<Record> spans_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, uint16_t> ids_;
};

// --- Results -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
};

void
printResult(const Result& r)
{
    std::ostringstream o;
    o.precision(17);
    o << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        o << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
          << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
          << m.unit << "\"}";
    }
    o << "}}";
    std::printf("%s\n", o.str().c_str());
    std::fflush(stdout);
}

// --- Inputs --------------------------------------------------------------

/**
 * One workload's generated inputs: the warm-up operations and one round
 * of timed operations, each a sequence of batches cut from one flat
 * address vector (ends[i] is the end offset of batch i).
 */
struct Ops
{
    std::vector<Addr> addrs;
    std::vector<uint64_t> ends;

    uint64_t batches() const { return ends.size(); }
    uint64_t begin(uint64_t b) const { return b == 0 ? 0 : ends[b - 1]; }
    Span<const Addr> batch(uint64_t b) const
    {
        return Span<const Addr>(addrs.data() + begin(b),
                                ends[b] - begin(b));
    }
    double bytes() const
    {
        return static_cast<double>(addrs.capacity() * sizeof(Addr) +
                                   ends.capacity() * sizeof(uint64_t));
    }
};

/** Fixed-size batches of @p size addresses over @p n addresses. */
std::vector<uint64_t>
fixedEnds(uint64_t n, uint64_t size)
{
    std::vector<uint64_t> ends;
    for (uint64_t e = size; e <= n; e += size)
        ends.push_back(e);
    return ends;
}

/** Batches with sizes drawn uniformly from [lo, hi], covering @p n
 *  addresses exactly (the last batch takes the remainder, >= lo). */
std::vector<uint64_t>
randomEnds(uint64_t n, uint64_t lo, uint64_t hi, talus::Rng& rng)
{
    std::vector<uint64_t> ends;
    uint64_t e = 0;
    while (n - e > hi + lo) {
        e += lo + rng.below(hi - lo + 1);
        ends.push_back(e);
    }
    ends.push_back(n);
    return ends;
}

/** Seed of generator @p k for workload seed @p seed. */
uint64_t
childSeed(uint64_t seed, uint64_t k)
{
    return talus::mix64(seed * 0x9E3779B97F4A7C15ull + k + 1);
}

// --- Common run bookkeeping ---------------------------------------------

/** What the timed window measured. */
struct Window
{
    std::vector<double> roundSeconds; //!< Wall time of each round.
    std::vector<double> latUs; //!< Per batch/block: the data-path call.
    std::vector<double> opUs;  //!< Per batch/block: the call plus the
                               //!< control steps scheduled after it.
    uint64_t ops = 0;                 //!< Batches/blocks run.
    uint64_t accesses = 0;

    /** Logs one operation that started at @p t0, whose data-path call
     *  returned at @p t1 and whose control steps ended at @p t2. */
    void record(int64_t t0, int64_t t1, int64_t t2)
    {
        latUs.push_back(1e-3 * static_cast<double>(t1 - t0));
        opUs.push_back(1e-3 * static_cast<double>(t2 - t0));
    }

    /**
     * Robust round time in seconds: every round runs the same operations
     * in the same order, so each operation position gets the median of
     * its times over the rounds, and the round time is their sum. A
     * stall that hits a few operations in a few rounds drops out; a
     * change in any operation's typical cost does not.
     */
    double robustRoundSeconds(uint64_t opsPerRound) const
    {
        const uint64_t rounds = opUs.size() / opsPerRound;
        std::vector<double> at(rounds);
        double us = 0.0;
        for (uint64_t b = 0; b < opsPerRound; ++b) {
            for (uint64_t r = 0; r < rounds; ++r)
                at[r] = opUs[r * opsPerRound + b];
            std::nth_element(at.begin(), at.begin() + rounds / 2, at.end());
            us += at[rounds / 2];
        }
        return 1e-6 * us;
    }
};

/** Per-shard or per-partition counts compared by the output checks. */
struct Counts
{
    std::vector<uint64_t> accesses;
    std::vector<uint64_t> misses;
    std::vector<uint64_t> reconfigs;

    bool operator==(const Counts& o) const
    {
        return accesses == o.accesses && misses == o.misses &&
               reconfigs == o.reconfigs;
    }
};

/** Sum of @p v. */
uint64_t
total(const std::vector<uint64_t>& v)
{
    uint64_t s = 0;
    for (uint64_t x : v)
        s += x;
    return s;
}

/** Misses over accesses between two count snapshots. */
double
missRatio(const Counts& from, const Counts& to)
{
    return static_cast<double>(total(to.misses) - total(from.misses)) /
           static_cast<double>(total(to.accesses) - total(from.accesses));
}

/** The per-layer ledger: rows that add up to the traced total, plus
 *  informational rows that break one of them down. */
class Ledger
{
  public:
    explicit Ledger(std::string title) : title_(std::move(title)) {}

    void row(const std::string& name, double ns, const std::string& note)
    {
        rows_.push_back({name, ns, note, true});
    }
    void detail(const std::string& name, double ns, const std::string& note)
    {
        rows_.push_back({name, ns, note, false});
    }

    /** Prints the table; the remainder row closes the gap to @p total. */
    void print(double total, const std::string& remainderNote)
    {
        double covered = 0.0;
        for (const Row& r : rows_)
            if (r.summed)
                covered += r.ns;
        row("remainder", total - covered, remainderNote);
        std::printf("\nper-layer ledger: %s (ns/access)\n", title_.c_str());
        for (const Row& r : rows_)
            std::printf("  %s%-24s %10.3f  %s\n", r.summed ? "" : "  ",
                        r.name.c_str(), r.ns, r.note.c_str());
        std::printf("  %-24s %10.3f  traced end-to-end time\n", "total",
                    total);
    }

  private:
    struct Row
    {
        std::string name;
        double ns;
        std::string note;
        bool summed;
    };
    std::string title_;
    std::vector<Row> rows_;
};

// --- Workload: paper-mix-serial -----------------------------------------

/**
 * The figure binaries' configuration on the serial facade: Vantage+LRU,
 * 32 ways, Talus on hulls with HillClimb, exact monitors, metrics off;
 * four memory-intensive apps on their own partitions, interleaved in the
 * fixed order p = i % 4; reconfigure() after every kReconfigEvery
 * blocks.
 */
class PaperMixSerial
{
  public:
    static constexpr uint64_t kLinesPerMb = 1024; // Scale's default.
    static constexpr uint64_t kParts = 4;
    static constexpr uint64_t kBlock = 4096;        // one operation
    static constexpr uint64_t kReconfigEvery = 64;  // blocks
    static constexpr uint64_t kWarm = uint64_t{1} << 20;
    static constexpr uint64_t kRound = uint64_t{1} << 21;

    explicit PaperMixSerial(uint64_t seed) : seed_(seed)
    {
        cfg_.llcLines = 4 * kLinesPerMb; // 4 paper-MB
        cfg_.ways = 32;
        cfg_.policyName = "LRU";
        cfg_.scheme = talus::SchemeKind::Vantage;
        cfg_.numParts = kParts;
        cfg_.talus = true;
        cfg_.allocatorName = "HillClimb";
        cfg_.allocateOnHulls = true;
        cfg_.monitorSamplePeriod = 1;
        cfg_.metricsEnabled = false;
    }

    static const char* apps(uint64_t p)
    {
        static const char* kApps[kParts] = {"libquantum", "mcf", "omnetpp",
                                            "xalancbmk"};
        return kApps[p];
    }

    /** Builds generators, generates and drives the warm-up; seconds. */
    double setup()
    {
        cache_.reset(); // tearing the last engine down is not set-up
        streams_.clear();
        const int64_t t0 = nowNs();
        for (uint64_t p = 0; p < kParts; ++p)
            streams_.push_back(talus::findApp(apps(p)).buildStream(
                kLinesPerMb, static_cast<uint32_t>(p), childSeed(seed_, p)));
        warm_.addrs.assign(kWarm, 0);
        generate(warm_.addrs.data(), kWarm);
        warm_.ends = fixedEnds(kWarm, kBlock);
        cache_ = std::make_unique<TalusCache>(cfg_);
        block_ = 0;
        for (uint64_t b = 0; b < warm_.batches(); ++b)
            step(warm_, b, nullptr, nullptr);
        return 1e-9 * static_cast<double>(nowNs() - t0);
    }

    /** Generates one round, continuing the warm-up streams; ns/addr. */
    double generateRound()
    {
        round_.addrs.assign(kRound, 0);
        const int64_t t0 = nowNs();
        generate(round_.addrs.data(), kRound);
        const double ns = static_cast<double>(nowNs() - t0) / kRound;
        round_.ends = fixedEnds(kRound, kBlock);
        return ns;
    }

    const Ops& round() const { return round_; }
    double inputBytes() const { return warm_.bytes() + round_.bytes(); }

    Counts counts() const
    {
        Counts c;
        for (uint32_t p = 0; p < kParts; ++p) {
            const auto s = cache_->stats(p);
            c.accesses.push_back(s.accesses);
            c.misses.push_back(s.misses);
        }
        c.reconfigs.push_back(cache_->reconfigurations());
        return c;
    }

    /**
     * The output check: Talus's miss ratio over round 1 stays at or below
     * that of a fully-associative LRU of equal capacity fed the same
     * warm-up and round-1 stream. @p round1 holds the engine's counts
     * after warm-up and after round 1.
     */
    bool check(const Counts& afterWarm, const Counts& afterRound1) const
    {
        ReferenceLru lru(cache_->capacityLines());
        for (Addr a : warm_.addrs)
            lru.access(a);
        uint64_t misses = 0;
        for (Addr a : round_.addrs)
            misses += !lru.access(a);
        const double lruRatio =
            static_cast<double>(misses) / static_cast<double>(kRound);
        const double talusRatio = missRatio(afterWarm, afterRound1);
        const bool ok = talusRatio <= lruRatio;
        std::printf("check: talus miss ratio %.6f %s fully-associative LRU "
                    "%.6f (capacity %llu lines, round 1)\n",
                    talusRatio, ok ? "<=" : "EXCEEDS",
                    lruRatio,
                    static_cast<unsigned long long>(cache_->capacityLines()));
        return ok;
    }

    /** The traced run's layer breakdown; appends per-layer metrics. */
    void layers(const Tracer& tr, double tracedNsPerAccess,
                uint64_t tracedAccesses, std::vector<Metric>& m)
    {
        const double accessNs =
            sum(tr.durations("api.access")) / tracedAccesses;
        const double prepNs =
            sum(tr.durations("control.prepare")) / tracedAccesses;
        const double applyNs =
            sum(tr.durations("control.apply")) / tracedAccesses;

        // Stand-alone monitors with the facade's per-partition config,
        // fed one-address blocks exactly as access() feeds them.
        std::vector<talus::CombinedUMon> mons;
        for (uint32_t p = 0; p < kParts; ++p) {
            talus::CombinedUMon::Config mc;
            mc.llcLines = cfg_.llcLines;
            mc.coverage = cfg_.umonCoverage;
            mc.seed = cfg_.seed ^ (0x1111ull * (p + 1));
            mons.emplace_back(mc);
        }
        const Addr* a = round_.addrs.data();
        int64_t t0 = nowNs();
        for (uint64_t i = 0; i < kRound; ++i)
            mons[i & 3].accessBlock(Span<const Addr>(a + i, 1));
        const double monNs = static_cast<double>(nowNs() - t0) / kRound;

        // Stand-alone shadow routers at each partition's final rho.
        std::vector<talus::ShadowRouter> routers;
        for (uint32_t p = 0; p < kParts; ++p)
            routers.push_back(cache_->controller()->router(p));
        uint64_t alpha = 0;
        t0 = nowNs();
        for (uint64_t i = 0; i < kRound; ++i) {
            const talus::ShadowRouter& rt = routers[i & 3];
            alpha += rt.alwaysAlpha() || rt.toAlpha(a[i]);
        }
        const double routeNs = static_cast<double>(nowNs() - t0) / kRound;
        gSink = gSink + alpha;

        Ledger l("paper-mix-serial");
        l.row("monitor", monNs, "stand-alone CombinedUMon::accessBlock");
        l.row("core.route", routeNs, "stand-alone ShadowRouter::toAlpha");
        l.row("partition.kernel", accessNs - monNs - routeNs,
              "derived: api.access - monitor - core.route");
        l.detail("api.access", accessNs,
                 "spans of 4096-access TalusCache::access blocks");
        l.row("control.prepare", prepNs, "prepareReconfigure spans");
        l.row("control.apply", applyNs, "applyReconfigure spans");
        l.print(tracedNsPerAccess, "closed loop and span bookkeeping");

        m.push_back({"api.access_ns", accessNs, "ns/access"});
        m.push_back({"monitor.ns", monNs, "ns/addr"});
        m.push_back({"core.route_ns", routeNs, "ns/addr"});
        m.push_back({"partition.kernel_ns", accessNs - monNs - routeNs,
                     "ns/access"});
        m.push_back({"control.prepare_us",
                     1e-3 * median(tr.durations("control.prepare")), "us"});
        m.push_back({"control.apply_us",
                     1e-3 * median(tr.durations("control.apply")), "us"});
    }

  private:
    /** Interleaves the four apps: position i belongs to app i % 4. */
    void generate(Addr* out, uint64_t n)
    {
        const uint64_t per = n / kParts;
        scratch_.resize(per);
        for (uint64_t p = 0; p < kParts; ++p) {
            streams_[p]->nextBlock(scratch_.data(), per);
            for (uint64_t j = 0; j < per; ++j)
                out[j * kParts + p] = scratch_[j];
        }
    }

  public:
    /** One operation: a block of serial access() calls, then the
     *  scheduled reconfigure(). */
    void step(const Ops& ops, uint64_t b, Window* w, Tracer* tr)
    {
        const Span<const Addr> blk = ops.batch(b);
        const uint64_t id = block_++;
        const int64_t t0 = nowNs();
        const uint32_t sp = tr ? tr->begin("api.access", id) : 0;
        uint64_t hits = 0;
        for (uint64_t i = 0; i < blk.size(); ++i)
            hits += cache_->access(blk[i], static_cast<uint32_t>(i & 3));
        if (tr)
            tr->end(sp);
        const int64_t t1 = nowNs();
        gSink = gSink + hits;
        if (block_ % kReconfigEvery == 0) {
            if (tr) {
                const uint32_t root = tr->begin("control.reconfigure", id);
                uint32_t s = tr->begin("control.prepare", id, root);
                cache_->prepareReconfigure();
                tr->end(s);
                s = tr->begin("control.apply", id, root);
                cache_->applyReconfigure();
                tr->end(s);
                tr->end(root);
            } else {
                cache_->reconfigure();
            }
        }
        if (w)
            w->record(t0, t1, nowNs());
    }

  private:

    uint64_t seed_;
    TalusCache::Config cfg_;
    std::vector<std::unique_ptr<talus::AccessStream>> streams_;
    std::vector<Addr> scratch_;
    Ops warm_;
    Ops round_;
    std::unique_ptr<TalusCache> cache_;
    uint64_t block_ = 0; //!< Blocks run since construction.
};

// --- Workloads: serve-batch and serve-small -----------------------------

/**
 * ShardedTalusCache with 4 shards and threads=2, one caller thread.
 *
 * serve-batch: scan-storm traffic in 16384-address batches (four
 * pipeline blocks), monitor period 8, metrics on into a local registry
 * scraped every kScrapeEvery batches, reconfigureAllAtEpoch every
 * kSweepEvery batches.
 *
 * serve-small: flash-crowd traffic over a base working set twice the
 * total capacity, in batches of 64-256 addresses, automatic
 * reconfigInterval on every shard, metrics off.
 */
class Serve
{
  public:
    static constexpr uint32_t kShards = 4;
    static constexpr uint32_t kThreads = 2;
    static constexpr uint64_t kShardLines = 2048;
    static constexpr uint64_t kBigBatch = 16384;
    static constexpr uint64_t kSweepEvery = 16;   // batches
    static constexpr uint64_t kScrapeEvery = 64;  // batches
    static constexpr uint64_t kEpochLen = 4096;   // per-shard accesses
    static constexpr uint64_t kSmallLo = 64;
    static constexpr uint64_t kSmallHi = 256;
    static constexpr uint64_t kAutoInterval = 65536; // per shard
    /** Rounds of the decomposed replay that record spans; the rest
     *  replay untraced, so span memory stays bounded. */
    static constexpr uint64_t kReplaySpanRounds = 2;

    Serve(bool small, uint64_t seed) : small_(small), seed_(seed)
    {
        TalusCache::Config& s = cfg_.shard;
        s.llcLines = kShardLines;
        s.ways = 32;
        s.scheme = talus::SchemeKind::Vantage;
        s.numParts = 1;
        s.allocatorName = "HillClimb";
        if (small_) {
            s.reconfigInterval = kAutoInterval;
        } else {
            s.monitorSamplePeriod = 8;
            s.metricsEnabled = true;
        }
        cfg_.numShards = kShards;
        cfg_.threads = kThreads;
    }

    uint64_t warmLen() const { return uint64_t{1} << 20; }
    uint64_t roundLen() const { return small_ ? uint64_t{1} << 21
                                              : uint64_t{1} << 22; }

    double setup()
    {
        engine_.reset(); // joining the last engine's threads is not set-up
        registry_.reset();
        const int64_t t0 = nowNs();
        if (small_) {
            talus::FlashCrowdSpec spec;
            spec.baseLines = 2 * kShards * kShardLines;
            spec.seed = childSeed(seed_, 0);
            stream_ = talus::makeFlashCrowdStream(spec);
        } else {
            talus::ScanStormSpec spec;
            spec.seed = childSeed(seed_, 0);
            stream_ = talus::makeScanStormStream(spec);
        }
        sizes_ = std::make_unique<talus::Rng>(childSeed(seed_, 1));
        warm_.addrs.assign(warmLen(), 0);
        stream_->nextBlock(warm_.addrs.data(), warmLen());
        warm_.ends = cut(warmLen());
        if (!small_) {
            registry_ = std::make_unique<talus::MetricRegistry>();
            cfg_.shard.metrics = registry_.get();
        }
        engine_ = std::make_unique<ShardedTalusCache>(cfg_);
        batch_ = 0;
        for (uint64_t b = 0; b < warm_.batches(); ++b)
            step(warm_, b, nullptr, nullptr);
        return 1e-9 * static_cast<double>(nowNs() - t0);
    }

    double generateRound()
    {
        round_.addrs.assign(roundLen(), 0);
        const int64_t t0 = nowNs();
        stream_->nextBlock(round_.addrs.data(), roundLen());
        const double ns = static_cast<double>(nowNs() - t0) / roundLen();
        round_.ends = cut(roundLen());
        return ns;
    }

    const Ops& round() const { return round_; }
    double inputBytes() const { return warm_.bytes() + round_.bytes(); }

    static Counts countsOf(const std::vector<const TalusCache*>& shards)
    {
        Counts c;
        for (const TalusCache* s : shards) {
            const auto st = s->stats(0);
            c.accesses.push_back(st.accesses);
            c.misses.push_back(st.misses);
            c.reconfigs.push_back(s->reconfigurations());
        }
        return c;
    }

    Counts counts() const { return countsOf(shardsOf(*engine_)); }

    /**
     * The output check: every shard's accesses, misses and
     * reconfigurations after warm-up and round 1 equal those of a
     * stand-alone TalusCache built from shardConfig() and fed that
     * shard's scatterFlat sub-stream with the same control calls.
     */
    bool check(const Counts& afterRound1)
    {
        talus::MetricRegistry scratch; // replicas publish apart
        std::vector<std::unique_ptr<TalusCache>> replicas;
        std::vector<TalusCache*> ptrs;
        for (uint32_t s = 0; s < kShards; ++s) {
            TalusCache::Config c = ShardedTalusCache::shardConfig(cfg_, s);
            c.metrics = &scratch;
            replicas.push_back(std::make_unique<TalusCache>(c));
            ptrs.push_back(replicas.back().get());
        }
        replay(ptrs, engine_->router(), 1, nullptr, 0);
        const Counts want = countsOf({ptrs.begin(), ptrs.end()});
        const bool ok = want == afterRound1;
        std::printf("check: per-shard hits/misses %s stand-alone replicas "
                    "(%u shards, %llu accesses, %llu misses, round 1)\n",
                    ok ? "equal" : "DIFFER FROM", kShards,
                    static_cast<unsigned long long>(total(want.accesses)),
                    static_cast<unsigned long long>(total(want.misses)));
        return ok;
    }

    /**
     * The traced run's layer breakdown. Replays warm-up plus @p rounds
     * rounds decomposed on a fresh inline engine of the same
     * configuration -- scatterFlat, each shard's accessBatch, then the
     * control calls -- and checks its per-shard counts against the
     * engine's. Appends per-layer metrics; returns the check result.
     */
    bool layers(Tracer& tr, uint64_t rounds, double tracedNsPerAccess,
                uint64_t tracedAccesses, uint64_t tracedBatches,
                std::vector<Metric>& m)
    {
        ShardedTalusCache::Config rc = cfg_;
        rc.threads = 0;
        talus::MetricRegistry scratch;
        rc.shard.metrics = &scratch;
        ShardedTalusCache rep(rc);
        std::vector<TalusCache*> shards;
        for (uint32_t s = 0; s < kShards; ++s)
            shards.push_back(&rep.shard(s));
        const size_t firstSpan = tr.spans().size();
        replay(shards, rep.router(), rounds, &tr, kReplaySpanRounds);
        const bool ok = countsOf(shardsOf(rep)) == counts();
        std::printf("check: traced decomposed replay per-shard counts %s "
                    "the engine's (%llu rounds)\n",
                    ok ? "equal" : "DIFFER FROM",
                    static_cast<unsigned long long>(rounds));

        // Per-batch decomposition of the replayed rounds that carry spans.
        double scatter = 0, kernelSum = 0, kernelCrit = 0;
        uint64_t replayBatches = 0, replayAddrs = 0;
        std::vector<double> prep, apply;
        std::vector<double> group(kThreads, 0.0);
        uint64_t cur = UINT64_MAX;
        auto closeBatch = [&] {
            if (cur != UINT64_MAX)
                kernelCrit += *std::max_element(group.begin(), group.end());
            std::fill(group.begin(), group.end(), 0.0);
        };
        const auto& spans = tr.spans();
        for (size_t i = firstSpan; i < spans.size(); ++i) {
            const Tracer::Record& s = spans[i];
            const double d = static_cast<double>(s.end - s.start);
            if (s.batch != cur) {
                closeBatch();
                cur = s.batch;
                ++replayBatches;
            }
            const std::string& name = tr.nameOf(s);
            if (name == "shard.scatterFlat") {
                scatter += d;
            } else if (name == "api.accessBatch") {
                kernelSum += d;
                group[s.arg % kThreads] += d;
            } else if (name == "control.prepare") {
                prep.push_back(d);
            } else if (name == "control.apply") {
                apply.push_back(d);
            }
        }
        closeBatch();
        replayAddrs = std::min(rounds, kReplaySpanRounds) * round_.addrs.size();

        const std::vector<double> engineBatch = tr.durations("engine.accessBatch");
        const std::vector<double> sweeps = tr.durations("control.sweep");
        const std::vector<double> scrapes = tr.durations("obs.snapshot");
        const double batchNs = sum(engineBatch) / tracedBatches;
        const double scatterB = scatter / replayBatches;
        const double critB = kernelCrit / replayBatches;
        const double perAddr = static_cast<double>(tracedBatches) /
                               static_cast<double>(tracedAccesses);

        // Stand-alone monitor and router cost over the first 1M
        // addresses of the round, per batch and shard exactly as the
        // engine's shards see them.
        double monNs = 0, routeNs = 0;
        standAlone(rep, &monNs, &routeNs);

        const double batchPerAddr = kernelSum / replayAddrs;
        Ledger l(small_ ? "serve-small" : "serve-batch");
        l.row("shard.scatter", scatterB * perAddr,
              "ShardRouter::scatterFlat spans (decomposed replay)");
        l.row("shard.kernel_crit", critB * perAddr,
              "largest per-worker sum of shard accessBatch spans");
        l.row("shard.dispatch", (batchNs - scatterB - critB) * perAddr,
              "derived: engine batch - scatter - kernel_crit");
        l.detail("api.batch", batchPerAddr,
                 "all per-shard TalusCache::accessBatch spans");
        l.detail("monitor", monNs, "stand-alone CombinedUMon::accessBlock");
        l.detail("core.route", routeNs, "stand-alone ShadowRouter::toAlpha");
        l.detail("partition.kernel", batchPerAddr - monNs - routeNs,
                 "derived: api.batch - monitor - core.route");
        l.row("control.sweep", sum(sweeps) / tracedAccesses,
              "reconfigureAllAtEpoch spans");
        l.row("obs.snapshot", sum(scrapes) / tracedAccesses,
              "MetricRegistry::snapshot spans");
        l.print(tracedNsPerAccess, "closed loop and span bookkeeping");

        m.push_back({"api.batch_ns", batchPerAddr, "ns/addr"});
        m.push_back({"monitor.ns", monNs, "ns/addr"});
        m.push_back({"core.route_ns", routeNs, "ns/addr"});
        m.push_back({"partition.kernel_ns", batchPerAddr - monNs - routeNs,
                     "ns/access"});
        m.push_back({"control.prepare_us", 1e-3 * median(prep), "us"});
        m.push_back({"control.apply_us", 1e-3 * median(apply), "us"});
        m.push_back({"control.sweep_us", 1e-3 * median(sweeps), "us"});
        m.push_back({"shard.scatter_ns", scatter / replayAddrs, "ns/addr"});
        m.push_back({"shard.kernel_sum_us", 1e-3 * kernelSum / replayBatches,
                     "us/batch"});
        m.push_back({"shard.kernel_crit_us", 1e-3 * critB, "us/batch"});
        m.push_back({"shard.dispatch_us", 1e-3 * (batchNs - scatterB - critB),
                     "us/batch"});
        m.push_back({"obs.snapshot_us", 1e-3 * median(scrapes), "us"});
        return ok;
    }

    /** Registry view of the pinned workers (serve-batch only). */
    talus::MetricsSnapshot scrape() const
    {
        return registry_ ? registry_->snapshot() : talus::MetricsSnapshot{};
    }

    /** Spans (us) of traced batches in which a control step ran. */
    const std::vector<double>& inlineBatchUs() const { return inlineUs_; }

  private:
    static std::vector<const TalusCache*>
    shardsOf(const ShardedTalusCache& e)
    {
        std::vector<const TalusCache*> v;
        for (uint32_t s = 0; s < e.numShards(); ++s)
            v.push_back(&e.shard(s));
        return v;
    }

    std::vector<uint64_t> cut(uint64_t n)
    {
        return small_ ? randomEnds(n, kSmallLo, kSmallHi, *sizes_)
                      : fixedEnds(n, kBigBatch);
    }

  public:
    /** One operation: one engine accessBatch, then the scheduled
     *  control sweep and registry scrape. */
    void step(const Ops& ops, uint64_t b, Window* w, Tracer* tr)
    {
        const uint64_t id = batch_++;
        // Traced serve-small batches note whether an in-stream control
        // step ran inside them (control.inline_batch_us).
        const uint64_t steps =
            tr && small_ ? engine_->reconfigurations() : 0;
        const int64_t t0 = nowNs();
        const uint32_t sp = tr ? tr->begin("engine.accessBatch", id) : 0;
        gSink = gSink + engine_->accessBatch(ops.batch(b), 0);
        if (tr)
            tr->end(sp);
        const int64_t t1 = nowNs();
        if (tr && small_ && engine_->reconfigurations() != steps)
            inlineUs_.push_back(1e-3 * static_cast<double>(
                                           tr->spans()[sp - 1].end -
                                           tr->spans()[sp - 1].start));
        if (!small_ && batch_ % kSweepEvery == 0) {
            const uint32_t s = tr ? tr->begin("control.sweep", id) : 0;
            engine_->reconfigureAllAtEpoch(kEpochLen);
            if (tr)
                tr->end(s);
        }
        if (!small_ && batch_ % kScrapeEvery == 0) {
            const uint32_t s = tr ? tr->begin("obs.snapshot", id) : 0;
            gSink = gSink + registry_->snapshot().epoch;
            if (tr)
                tr->end(s);
        }
        if (w)
            w->record(t0, t1, nowNs());
    }

  private:

    /**
     * Drives warm-up plus @p rounds rounds through @p shards by hand:
     * @p router's scatterFlat, each non-empty sub-stream into its
     * shard's accessBatch, then the sweep's per-shard prepare + epoch
     * apply -- the decomposition ShardedTalusCache documents as
     * bit-exact. Spans go to @p tr for the first @p tracedRounds rounds
     * only; batch ids match the engine's.
     */
    void replay(const std::vector<TalusCache*>& shards,
                const talus::ShardRouter& router, uint64_t rounds,
                Tracer* tr, uint64_t tracedRounds) const
    {
        talus::ScatterPlan plan;
        uint64_t id = 0;
        auto run = [&](const Ops& ops, Tracer* t) {
            for (uint64_t b = 0; b < ops.batches(); ++b, ++id) {
                const uint32_t root = t ? t->begin("replay.batch", id) : 0;
                uint32_t sp = t ? t->begin("shard.scatterFlat", id, root) : 0;
                router.scatterFlat(ops.batch(b), plan);
                if (t)
                    t->end(sp);
                for (uint32_t s = 0; s < kShards; ++s) {
                    if (plan.count(s) == 0)
                        continue;
                    sp = t ? t->begin("api.accessBatch", id, root,
                                      static_cast<uint16_t>(s))
                           : 0;
                    gSink = gSink + shards[s]->accessBatch(plan.shardSpan(s), 0);
                    if (t)
                        t->end(sp);
                }
                if (!small_ && (id + 1) % kSweepEvery == 0) {
                    for (uint32_t s = 0; s < kShards; ++s) {
                        sp = t ? t->begin("control.prepare", id, root,
                                          static_cast<uint16_t>(s))
                               : 0;
                        shards[s]->prepareReconfigure();
                        if (t)
                            t->end(sp);
                        sp = t ? t->begin("control.apply", id, root,
                                          static_cast<uint16_t>(s))
                               : 0;
                        shards[s]->applyReconfigureAtEpoch(kEpochLen);
                        if (t)
                            t->end(sp);
                    }
                }
                if (t)
                    t->end(root);
            }
        };
        run(warm_, nullptr);
        for (uint64_t r = 0; r < rounds; ++r)
            run(round_, r < tracedRounds ? tr : nullptr);
    }

    /** Stand-alone CombinedUMon (with the shard's decimation) and
     *  ShadowRouter timings, in ns per routed address. */
    void standAlone(const ShardedTalusCache& rep, double* monNs,
                    double* routeNs) const
    {
        // Pre-scatter whole batches covering up to 1M addresses.
        talus::ScatterPlan plan;
        std::vector<std::vector<Addr>> sub(kShards);
        std::vector<std::vector<uint64_t>> subEnds(kShards);
        uint64_t n = 0;
        for (uint64_t b = 0; b < round_.batches() && n < (1u << 20); ++b) {
            rep.router().scatterFlat(round_.batch(b), plan);
            for (uint32_t s = 0; s < kShards; ++s) {
                const Span<const Addr> sp = plan.shardSpan(s);
                sub[s].insert(sub[s].end(), sp.begin(), sp.end());
                subEnds[s].push_back(sub[s].size());
            }
            n += round_.batch(b).size();
        }
        const uint32_t period = cfg_.shard.monitorSamplePeriod;
        std::vector<talus::CombinedUMon> mons;
        std::vector<talus::ShadowRouter> routers;
        for (uint32_t s = 0; s < kShards; ++s) {
            const TalusCache::Config c = ShardedTalusCache::shardConfig(cfg_, s);
            talus::CombinedUMon::Config mc;
            mc.llcLines = c.llcLines;
            mc.coverage = c.umonCoverage;
            mc.seed = c.seed ^ 0x1111ull;
            mons.emplace_back(mc);
            routers.push_back(rep.shard(s).controller()->router(0));
        }
        std::vector<Addr> gathered;
        std::vector<uint32_t> phase(kShards, 0);
        int64_t t0 = nowNs();
        for (size_t b = 0; b < subEnds[0].size(); ++b) {
            for (uint32_t s = 0; s < kShards; ++s) {
                const uint64_t lo = b == 0 ? 0 : subEnds[s][b - 1];
                const uint64_t hi = subEnds[s][b];
                if (lo == hi)
                    continue;
                if (period == 1) {
                    mons[s].accessBlock(
                        Span<const Addr>(sub[s].data() + lo, hi - lo));
                    continue;
                }
                gathered.clear();
                for (uint64_t i = lo; i < hi; ++i) {
                    if (phase[s] == 0)
                        gathered.push_back(sub[s][i]);
                    phase[s] = phase[s] + 1 == period ? 0 : phase[s] + 1;
                }
                if (!gathered.empty())
                    mons[s].accessBlock(Span<const Addr>(gathered));
            }
        }
        *monNs = static_cast<double>(nowNs() - t0) / n;
        uint64_t alpha = 0;
        t0 = nowNs();
        for (uint32_t s = 0; s < kShards; ++s) {
            const talus::ShadowRouter& rt = routers[s];
            for (Addr a : sub[s])
                alpha += rt.alwaysAlpha() || rt.toAlpha(a);
        }
        *routeNs = static_cast<double>(nowNs() - t0) / n;
        gSink = gSink + alpha;
    }

    bool small_;
    uint64_t seed_;
    ShardedTalusCache::Config cfg_;
    std::unique_ptr<talus::PhaseStream> stream_;
    std::unique_ptr<talus::Rng> sizes_;
    Ops warm_;
    Ops round_;
    // Declared before engine_: the engine's shards hold handles into it.
    std::unique_ptr<talus::MetricRegistry> registry_;
    std::unique_ptr<ShardedTalusCache> engine_;
    uint64_t batch_ = 0; //!< Batches run since construction.
    std::vector<double> inlineUs_;
};

// --- Driving one workload -----------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans = "perfbench-spans.csv";
};

/** Setups per run; setup_s is their median. */
constexpr int kSetups = 5;

/** Every per-layer metric, in output order, with its unit. A layer a
 *  workload does not exercise reports 0. */
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"workload.gen_ns", "ns/addr"},
    {"api.access_ns", "ns/access"},
    {"api.batch_ns", "ns/addr"},
    {"monitor.ns", "ns/addr"},
    {"core.route_ns", "ns/addr"},
    {"partition.kernel_ns", "ns/access"},
    {"partition.accesses", "count"},
    {"partition.misses", "count"},
    {"control.prepare_us", "us"},
    {"control.apply_us", "us"},
    {"control.sweep_us", "us"},
    {"control.inline_batch_us", "us"},
    {"control.steps", "count"},
    {"shard.scatter_ns", "ns/addr"},
    {"shard.kernel_sum_us", "us/batch"},
    {"shard.kernel_crit_us", "us/batch"},
    {"shard.dispatch_us", "us/batch"},
    {"shard.worker_parks", "count/batch"},
    {"shard.worker_wakes", "count/batch"},
    {"shard.ring_depth_hwm", "count"},
    {"obs.snapshot_us", "us"},
    {"bench.trace_overhead_pct", "%"},
};

/** Orders @p got by kLayerMetrics, filling absent layers with 0. */
std::vector<Metric>
layerMetrics(const std::vector<Metric>& got)
{
    std::vector<Metric> out;
    for (const auto& [name, unit] : kLayerMetrics) {
        double v = 0.0;
        for (const Metric& m : got)
            if (m.name == name)
                v = m.value;
        out.push_back({name, v, unit});
    }
    return out;
}

/** Worker park/wake rates and the ring high-water mark, from two
 *  registry snapshots around @p batches batches. */
void
workerMetrics(const talus::MetricsSnapshot& before,
              const talus::MetricsSnapshot& after, uint64_t batches,
              std::vector<Metric>& m)
{
    const talus::MetricsSnapshot d = talus::metricsDelta(before, after);
    double hwm = 0.0;
    for (const talus::MetricValue& v : after.metrics)
        if (v.name == "talus_worker_ring_depth_hwm")
            hwm = std::max(hwm, v.gauge);
    const double n = static_cast<double>(std::max<uint64_t>(batches, 1));
    m.push_back({"shard.worker_parks",
                 d.counterTotal("talus_worker_parks_total") / n,
                 "count/batch"});
    m.push_back({"shard.worker_wakes",
                 d.counterTotal("talus_worker_wakes_total") / n,
                 "count/batch"});
    m.push_back({"shard.ring_depth_hwm", hwm, "count"});
}

/** Runs the checks a workload has; true when they pass. */
bool
check(PaperMixSerial& w, const Counts& warm, const Counts& round1)
{
    return w.check(warm, round1);
}

bool
check(Serve& w, const Counts&, const Counts& round1)
{
    return w.check(round1);
}

/** Runs one round of @p w's operations into @p win; wall seconds. */
template <class W>
double
runRound(W& w, Window& win, Tracer* tr)
{
    const Ops& ops = w.round();
    const int64_t t0 = nowNs();
    for (uint64_t b = 0; b < ops.batches(); ++b)
        w.step(ops, b, &win, tr);
    const double s = 1e-9 * static_cast<double>(nowNs() - t0);
    win.ops += ops.batches();
    win.accesses += ops.addrs.size();
    return s;
}

/** The untraced run: end-to-end metrics. */
template <class W>
Result
runPlain(W& w, const Options& o)
{
    Result r;
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k)
        setups.push_back(w.setup());
    const Counts warm = w.counts();
    w.generateRound();

    Window win;
    Counts round1;
    const int64_t start = nowNs();
    do {
        win.roundSeconds.push_back(runRound(w, win, nullptr));
        if (win.roundSeconds.size() == 1) {
            round1 = w.counts();
            // One reservation for the rest of the window, so the
            // operation logs never reallocate while being timed (and
            // never hold two copies at once, which would show in the
            // peak RSS): four times the rounds that round 1's pace
            // predicts. Pages never written are never resident.
            const double rounds = 4.0 * (o.seconds / win.roundSeconds[0] + 1.0);
            const auto n = static_cast<size_t>(
                rounds * static_cast<double>(w.round().batches()));
            win.latUs.reserve(n);
            win.opUs.reserve(n);
        }
    } while (static_cast<double>(nowNs() - start) < o.seconds * 1e9);
    // The benchmark's own buffers (inputs and the touched part of the
    // operation logs) are not the engine's memory.
    const double rss =
        peakRssBytes() - w.inputBytes() -
        static_cast<double>((win.latUs.size() + win.opUs.size()) *
                            sizeof(double));

    const double roundAddrs = static_cast<double>(w.round().addrs.size());
    std::vector<double> rates;
    for (double s : win.roundSeconds)
        rates.push_back(roundAddrs / s / 1e6);
    const double throughput =
        roundAddrs / win.robustRoundSeconds(w.round().batches()) / 1e6;
    const double tq = tailQuantile(win.latUs.size());
    std::printf("window: %zu rounds, %llu operations, %llu accesses; "
                "wall rate per round min/median/max %.3f/%.3f/%.3f "
                "Macc/s\n",
                win.roundSeconds.size(),
                static_cast<unsigned long long>(win.ops),
                static_cast<unsigned long long>(win.accesses),
                quantile(rates, 0.0), median(rates), quantile(rates, 1.0));
    std::printf("batch latency: %zu samples, p50 %.3f us, p%.4g %.3f us "
                "(the tail is reported, not gated)\n",
                win.latUs.size(), quantile(win.latUs, 0.5), 100.0 * tq,
                quantile(win.latUs, tq));

    r.attempted = win.ops;
    r.correct = check(w, warm, round1);
    r.metrics = {
        {"throughput_macc_s", throughput, "Macc/s"},
        {"batch_p50_us", quantile(win.latUs, 0.5), "us"},
        {"miss_ratio", missRatio(warm, round1), "ratio"},
        {"peak_rss_mib", rss / (1024.0 * 1024.0), "MiB"},
        {"setup_s", median(setups), "s"},
    };
    return r;
}

/** Per-workload layer breakdown of a traced run. */
bool
traceLayers(PaperMixSerial& w, Tracer& tr, uint64_t, double tracedNs,
            const Window& traced, std::vector<Metric>& m)
{
    w.layers(tr, tracedNs, traced.accesses, m);
    return true;
}

bool
traceLayers(Serve& w, Tracer& tr, uint64_t rounds, double tracedNs,
            const Window& traced, std::vector<Metric>& m)
{
    const bool ok =
        w.layers(tr, rounds, tracedNs, traced.accesses, traced.ops, m);
    m.push_back({"control.inline_batch_us", median(w.inlineBatchUs()), "us"});
    return ok;
}

/** The metric registry's view (empty for paper-mix-serial). */
talus::MetricsSnapshot
scrapeOf(PaperMixSerial&)
{
    return {};
}

talus::MetricsSnapshot
scrapeOf(Serve& w)
{
    return w.scrape();
}

/** The traced run: per-layer metrics and the ledger. */
template <class W>
Result
runTraced(W& w, const Options& o)
{
    Result r;
    std::vector<Metric> m;
    w.setup();
    const Counts warm = w.counts();
    m.push_back({"workload.gen_ns", w.generateRound(), "ns/addr"});

    const talus::MetricsSnapshot before = scrapeOf(w);
    Tracer tr;
    Window plain, traced;
    Counts round1;
    const int64_t start = nowNs();
    int pairs = 0;
    do {
        plain.roundSeconds.push_back(runRound(w, plain, nullptr));
        if (pairs == 0)
            round1 = w.counts();
        traced.roundSeconds.push_back(runRound(w, traced, &tr));
        ++pairs;
    } while (pairs < 2 ||
             static_cast<double>(nowNs() - start) < o.seconds * 0.5e9);
    const talus::MetricsSnapshot after = scrapeOf(w);
    const uint64_t rounds = 2 * static_cast<uint64_t>(pairs);

    const uint64_t perRound = w.round().batches();
    const double overhead =
        100.0 * (traced.robustRoundSeconds(perRound) /
                     plain.robustRoundSeconds(perRound) -
                 1.0);
    const double tracedNs =
        sum(traced.roundSeconds) * 1e9 / static_cast<double>(traced.accesses);
    std::printf("traced: %d plain + %d traced rounds; trace overhead "
                "%.2f%% (robust round time, traced vs plain)\n",
                pairs, pairs, overhead);

    r.attempted = plain.ops + traced.ops;
    const bool layersOk = traceLayers(w, tr, rounds, tracedNs, traced, m);
    if (after.epoch != 0)
        workerMetrics(before, after, plain.ops + traced.ops, m);
    m.push_back({"partition.accesses",
                 static_cast<double>(total(round1.accesses) -
                                     total(warm.accesses)),
                 "count"});
    m.push_back({"partition.misses",
                 static_cast<double>(total(round1.misses) -
                                     total(warm.misses)),
                 "count"});
    m.push_back({"control.steps",
                 static_cast<double>(total(round1.reconfigs)), "count"});
    m.push_back({"bench.trace_overhead_pct", overhead, "%"});
    r.correct = check(w, warm, round1) && layersOk;
    if (!tr.write(o.spans)) {
        std::fprintf(stderr, "cannot write spans to %s\n", o.spans.c_str());
        r.correct = false;
    } else {
        std::printf("spans: %zu written to %s\n", tr.spans().size(),
                    o.spans.c_str());
    }
    r.metrics = layerMetrics(m);
    return r;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: talus_perfbench --workload "
                 "paper-mix-serial|serve-batch|serve-small --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            o.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            o.trace = std::strcmp(v, "0") != 0;
        else if (k == "--spans")
            o.spans = v;
        else
            return usage();
    }
    if (argc % 2 != 1 || !(o.seconds > 0.0))
        return usage();

    Result r;
    try {
        if (o.workload == "paper-mix-serial") {
            PaperMixSerial w(o.seed);
            r = o.trace ? runTraced(w, o) : runPlain(w, o);
        } else if (o.workload == "serve-batch" ||
                   o.workload == "serve-small") {
            Serve w(o.workload == "serve-small", o.seed);
            r = o.trace ? runTraced(w, o) : runPlain(w, o);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        // A ConfigError or any other escaped error fails the run: every
        // operation attempted counts as failed, and at least one was.
        std::fprintf(stderr, "error: %s\n", e.what());
        r.correct = false;
        r.attempted = std::max<uint64_t>(r.attempted, 1);
    }
    if (!r.correct)
        r.failed = r.attempted;
    printResult(r);
    return 0;
}
