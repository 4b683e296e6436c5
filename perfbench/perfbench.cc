/**
 * @file
 * End-to-end benchmark of the two Fair-CO2 products.
 *
 *   perfbench --workload <serve_fleet|serve_durable|batch_weeks>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Every workload is a closed loop with a single caller.
 *
 *  - serve_fleet:   100k Zipf(1.1) tenants, 4 shards, W=8, M=12,
 *                   unlimited admission, no WAL, one snapshot reader,
 *                   100-period runs.
 *  - serve_durable: 20k tenants, the same engine shape, an LZ WAL of
 *                   16 records per segment, a scrub every 8 periods,
 *                   a hot standby and one snapshot reader, 400-period
 *                   runs.
 *  - batch_weeks:   seeded 7-day Azure-like weeks (splits {7,24,12},
 *                   one-day forecast, incremental window 24, 200
 *                   consumers' usage), read from CSV by the program's
 *                   loaders during set-up, then run through
 *                   runAttributionPipeline; each week's result is
 *                   published to a parallel::SnapshotCell that one
 *                   reader polls.
 *
 * With --trace 0 the run goes through the public entry points only
 * (server::SignalServer::run, pipeline::runAttributionPipeline) and
 * prints the end-to-end metrics. With --trace 1 it alternates those
 * untraced runs with a traced run that performs the same work by
 * calling each layer's public functions inside in-memory spans, proves
 * the traced run reproduces the untraced outputs and program counts,
 * and prints per-layer self times, counts, the residual and the
 * tracing overhead. Output checks run outside every timed region.
 *
 * The last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}; the line before it
 * carries run metadata and sample counts.
 */

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/csv.hh"
#include "common/obs.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/baselines.hh"
#include "durability/wal.hh"
#include "forecast/forecaster.hh"
#include "pipeline/attribution.hh"
#include "pipeline/runner.hh"
#include "pipeline/supervisor.hh"
#include "resilience/faultplan.hh"
#include "resilience/ingest.hh"
#include "server/replica.hh"
#include "server/signalserver.hh"
#include "trace/generators.hh"

#include "harness.hh"

namespace
{

using namespace fairco2;
using perfbench::LatencyHistogram;
using perfbench::Metrics;
using perfbench::nowNs;
using perfbench::SpanRecorder;

/** Timed results (published periods or weeks) a run must collect so
 *  that ten samples lie beyond its p90. */
constexpr std::size_t kMinResults = 100;
/** Server constructions timed before the measured serve runs and
 *  after each of them, so setup_s is the median of samples spread
 *  over the whole run rather than taken in one phase of the host. */
constexpr std::size_t kSetupFirst = 20;
constexpr std::size_t kSetupPerRun = 25;
/**
 * Arrival periods per served run, from the run lengths measured for
 * durable serving (100 and 400 periods). With a WAL every scrub and
 * standby catch-up reloads the whole log, so a period's cost grows
 * with the run's length: serve_durable runs the longest measured
 * length, where that cost is largest (7.7 s against 1.8 s plain).
 * Without a WAL a period's cost does not grow with the length (0.56
 * s for 100 periods, 1.8 s for 400), so serve_fleet runs the
 * shortest measured length and pools more runs.
 */
constexpr std::uint64_t kDurablePeriods = 400;
constexpr std::uint64_t kFleetPeriods = 100;
/** Distinct seeded weeks the batch workload cycles through. */
constexpr std::size_t kWeeks = 16;
constexpr std::size_t kConsumers = 200;
constexpr double kPoolGrams = 1.0e6;
constexpr double kStepSeconds = 300.0;
/** Snapshot reads timed between one pair of clock reads: a single
 *  read (~0.1 us) is not much longer than the clock read itself. */
constexpr std::size_t kReadBlock = 32;
/** Safety cap on one run's measuring loop, seconds. */
constexpr double kMaxLoopSeconds = 120.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_work";
    std::string outDir = ".bench_out";
};

struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics metrics;
    /** Count, median and quartiles of each sampled quantity behind
     *  a reported metric. */
    std::map<std::string, perfbench::Summary> spread;
    /** Other sample counts (snapshot read blocks, traced runs). */
    std::map<std::string, std::size_t> samples;
    std::vector<std::string> checkFailures;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            checkFailures.push_back(what);
        }
    }
};

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Pool threads: one core stays free for the snapshot reader. */
std::size_t
poolThreads()
{
    const std::size_t hw = parallel::hardwareConcurrency();
    return std::clamp<std::size_t>(hw > 1 ? hw - 1 : 1, 1, 3);
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : s.substr(first);
    }
#endif
    return "unknown";
}

/** Program counters read through obs::metricsJson(). */
std::map<std::string, std::uint64_t>
obsCounters()
{
    const std::string json = obs::metricsJson();
    std::map<std::string, std::uint64_t> out;
    std::size_t pos = json.find("\"counters\"");
    if (pos == std::string::npos)
        return out;
    const std::size_t end = json.find('}', pos);
    pos = json.find('{', pos);
    while (true) {
        const std::size_t q0 = json.find('"', pos + 1);
        if (q0 == std::string::npos || q0 > end)
            break;
        const std::size_t q1 = json.find('"', q0 + 1);
        const std::size_t colon = json.find(':', q1);
        out[json.substr(q0 + 1, q1 - q0 - 1)] =
            std::stoull(json.substr(colon + 1));
        pos = json.find_first_of(",}", colon);
    }
    return out;
}

std::map<std::string, std::uint64_t>
counterDelta(const std::map<std::string, std::uint64_t> &before,
             const std::map<std::string, std::uint64_t> &after)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] : after) {
        const auto it = before.find(name);
        out[name] = value - (it == before.end() ? 0 : it->second);
    }
    return out;
}

std::uint64_t
countOf(const std::map<std::string, std::uint64_t> &counts,
        const std::string &name)
{
    const auto it = counts.find(name);
    return it == counts.end() ? 0 : it->second;
}

// ---- snapshot reader ---------------------------------------------

/** What the reader thread saw: the time of each block of
 *  kReadBlock snapshot reads and, for every version that followed its
 *  predecessor directly, the interval since that predecessor
 *  appeared. */
struct ReaderTally
{
    LatencyHistogram readBlocks;
    std::vector<double> intervalsMs;

    /** Per-read latency at percentile @p p of the read blocks, us. */
    double
    readUs(double p) const
    {
        return readBlocks.percentileNs(p) * 1e-3 /
            static_cast<double>(kReadBlock);
    }
};

template <typename ReadVersion>
void
readLoop(ReadVersion read_version, const std::atomic<bool> &stop,
         ReaderTally &tally)
{
    std::uint64_t last_version = 0;
    std::int64_t last_change_ns = 0;
    while (!stop.load(std::memory_order_acquire)) {
        const std::int64_t t0 = nowNs();
        std::uint64_t version = 0;
        for (std::size_t i = 0; i < kReadBlock; ++i)
            version = std::max(version, read_version());
        const std::int64_t t1 = nowNs();
        tally.readBlocks.record(t1 - t0);
        if (version != last_version) {
            if (last_version != 0 && version == last_version + 1)
                tally.intervalsMs.push_back(
                    static_cast<double>(t1 - last_change_ns) * 1e-6);
            last_version = version;
            last_change_ns = t1;
        }
    }
}

/** Runs readLoop on its own thread for the lifetime of the object. */
class Reader
{
  public:
    template <typename ReadVersion>
    explicit Reader(ReadVersion read_version)
        : thread_([this, read_version] {
              readLoop(read_version, stop_, tally_);
          })
    {
    }

    ~Reader() { finish(); }
    Reader(const Reader &) = delete;
    Reader &operator=(const Reader &) = delete;

    ReaderTally &
    finish()
    {
        stop_.store(true, std::memory_order_release);
        if (thread_.joinable())
            thread_.join();
        return tally_;
    }

    std::thread &thread() { return thread_; }

  private:
    std::atomic<bool> stop_{false};
    ReaderTally tally_;
    std::thread thread_;
};

/**
 * Places the calling thread and a second thread on cores half the
 * allowed set apart, moving both one core on at every step. On a
 * shared host each core runs at its own speed, and that speed changes
 * over seconds to tens of seconds: one kernel, run on the four cores
 * of a 4-vCPU KVM guest at the same time, did between 2000 and 4400
 * iterations a second per core. A single-threaded caller left on one
 * core inherits that core's speed for most of a run; stepping through
 * the cores samples each of them evenly. Only the batch workload
 * rotates: with the serve loop's caller pinned, the pool's workers
 * lost the cores it held and served periods slowed (p90 1.5x the
 * mean, against 1.2x unpinned). The destructor lets the calling
 * thread run on every allowed core again.
 */
class CoreRotation
{
  public:
    CoreRotation()
    {
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed_))
                cpus_.push_back(c);
    }
    ~CoreRotation()
    {
        if (cpus_.size() > 1)
            pthread_setaffinity_np(pthread_self(), sizeof allowed_,
                                   &allowed_);
    }
    CoreRotation(const CoreRotation &) = delete;
    CoreRotation &operator=(const CoreRotation &) = delete;

    void
    place(std::size_t step, std::thread &other) const
    {
        const std::size_t n = cpus_.size();
        if (n < 2)
            return;
        pin(pthread_self(), cpus_[step % n]);
        pin(other.native_handle(), cpus_[(step + n / 2) % n]);
    }

  private:
    static void
    pin(pthread_t thread, int cpu)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        pthread_setaffinity_np(thread, sizeof set, &set);
    }

    cpu_set_t allowed_{};
    std::vector<int> cpus_;
};

/**
 * Whether a measuring loop starts another unit of work (a served run
 * or a week), given the seconds elapsed, the units done, the time they
 * took and the results collected. A unit starts while it would end no
 * later than half a unit past --seconds, so every run measures close
 * to --seconds of work even when one served run takes many seconds.
 */
bool
keepMeasuring(const Options &opt, double elapsed, std::size_t done,
              double busy, std::size_t results)
{
    if (done == 0)
        return true;
    if (elapsed > kMaxLoopSeconds)
        return false;
    const double unit = busy / static_cast<double>(done);
    return results < kMinResults || elapsed + 0.5 * unit < opt.seconds;
}

// ---- serve workloads ---------------------------------------------

/** A fresh WAL directory inside the work directory, removed on
 *  destruction. */
class ScratchDir
{
  public:
    ScratchDir(const Options &opt, bool needed)
    {
        if (!needed)
            return;
        static int counter = 0;
        path_ = opt.workDir + "/wal-" + std::to_string(counter++);
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir()
    {
        if (!path_.empty())
            std::filesystem::remove_all(path_);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

server::ServerConfig
serveConfig(const Options &opt)
{
    server::ServerConfig cfg;
    cfg.shards = 4;
    cfg.zipfS = 1.1;
    cfg.admissionRate = 0;
    cfg.windowPeriods = 8;
    cfg.periodSamples = 12;
    cfg.seed = opt.seed;
    if (opt.workload == "serve_fleet") {
        cfg.tenants = 100000;
        cfg.durationPeriods = kFleetPeriods;
    } else {
        cfg.tenants = 20000;
        cfg.durationPeriods = kDurablePeriods;
        cfg.durability.walCodec = cache::Codec::Lz;
        cfg.durability.walSegmentRecords = 16;
        cfg.durability.scrubPeriods = 8;
        cfg.durability.standby = true;
    }
    return cfg;
}

/** serve_durable's shape: a hot standby, and so a WAL. */
bool
durable(const server::ServerConfig &cfg)
{
    return cfg.durability.standby;
}

/** One SignalServer::run() with its construction timed apart. */
struct ServeRun
{
    server::ServerReport report;
    double setupS = 0.0;
    double runS = 0.0;
};

ServeRun
serveOnce(const Options &opt, server::ServerConfig cfg,
          ReaderTally *tally)
{
    const ScratchDir wal(opt, durable(cfg));
    cfg.durability.walDir = wal.path();
    ServeRun out;
    const std::int64_t t0 = nowNs();
    server::SignalServer srv(cfg);
    const std::int64_t t1 = nowNs();
    out.setupS = seconds(t1 - t0);
    std::unique_ptr<Reader> reader;
    if (tally != nullptr)
        reader = std::make_unique<Reader>(
            [&srv] { return srv.snapshot().version; });
    const std::int64_t t2 = nowNs();
    out.report = srv.run();
    const std::int64_t t3 = nowNs();
    out.runS = seconds(t3 - t2);
    if (reader != nullptr) {
        ReaderTally &seen = reader->finish();
        tally->readBlocks.merge(seen.readBlocks);
        tally->intervalsMs.insert(tally->intervalsMs.end(),
                                  seen.intervalsMs.begin(),
                                  seen.intervalsMs.end());
    }
    return out;
}

/** Output checks of one served run (none of them timed). */
void
checkServeReport(Outcome &out, const server::ServerConfig &cfg,
                 const server::ServerReport &report,
                 std::uint64_t expect_signature)
{
    out.check(report.signalSignature() == expect_signature,
              "served signal signature differs between runs");
    out.check(report.publishes ==
                  cfg.durationPeriods - cfg.windowPeriods + 1,
              "unexpected publish count");
    out.check(report.periodsClosed == cfg.durationPeriods,
              "unexpected closed-period count");
    if (durable(cfg)) {
        out.check(report.standbyPublishChecks > 0,
                  "standby made no publish checks");
        out.check(report.scrubMismatches == 0, "scrub mismatch");
        out.check(report.scrubRuns > 0, "scrub never ran");
    }
}

/** Signature of the reference run at shards=1, threads=1 and without
 *  a WAL: durability must not change the served signal, and the
 *  reference costs a plain run rather than a durable one. */
std::uint64_t
referenceSignature(const Options &opt, server::ServerConfig cfg)
{
    cfg.shards = 1;
    cfg.durability = server::DurabilityOptions{};
    parallel::setThreadCount(1);
    const ServeRun ref = serveOnce(opt, cfg, nullptr);
    parallel::setThreadCount(poolThreads());
    return ref.report.signalSignature();
}

void
addServeOps(Outcome &out, const server::ServerReport &report)
{
    out.attempted += report.admission.offered + report.batchesShed;
    out.failed += report.admission.rejected + report.batchesShed;
}

Outcome
serveUntraced(const Options &opt)
{
    Outcome out;
    const server::ServerConfig cfg = serveConfig(opt);
    std::vector<double> setup_s;
    const auto time_setups = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            const ScratchDir wal(opt, durable(cfg));
            server::ServerConfig c = cfg;
            c.durability.walDir = wal.path();
            const std::int64_t t0 = nowNs();
            const server::SignalServer srv(c);
            setup_s.push_back(seconds(nowNs() - t0));
        }
    };
    time_setups(kSetupFirst);

    ReaderTally tally;
    double run_s = 0.0;
    std::uint64_t samples = 0;
    std::size_t reps = 0;
    std::uint64_t signature = 0;
    const std::int64_t start = nowNs();
    while (keepMeasuring(opt, seconds(nowNs() - start), reps, run_s,
                         tally.intervalsMs.size())) {
        const ServeRun run = serveOnce(opt, cfg, &tally);
        setup_s.push_back(run.setupS);
        time_setups(kSetupPerRun);
        run_s += run.runS;
        samples += run.report.samplesIngested;
        if (reps++ == 0)
            signature = run.report.signalSignature();
        checkServeReport(out, cfg, run.report, signature);
        addServeOps(out, run.report);
    }
    const double rss = peakRssMb();

    out.check(referenceSignature(opt, cfg) == signature,
              "signature differs from the shards=1 threads=1 "
              "reference run without a WAL");

    const auto &iv = tally.intervalsMs;
    out.metrics.set("setup_s", perfbench::median(setup_s), "s");
    out.metrics.set("result_ms_mean", perfbench::mean(iv), "ms");
    out.metrics.set("result_ms_p90", perfbench::tailPercentile(iv, 0.9),
                    "ms");
    out.metrics.set("samples_per_s", static_cast<double>(samples) / run_s,
                    "samples/s");
    out.metrics.set("snapshot_read_p99_us", tally.readUs(0.99), "us");
    out.metrics.set("peak_rss_mb", rss, "MiB");
    out.spread = {{"setup_s", perfbench::summarize(setup_s)},
                  {"result_ms", perfbench::summarize(iv)}};
    out.samples["served_runs"] = reps;
    out.samples["snapshot_read_blocks"] = tally.readBlocks.count();
    return out;
}

/** What one traced serve run reproduced and measured. */
struct TracedServe
{
    server::ServerReport report; //!< the fields the traced run mirrors
    server::AdmissionController::Totals admission; //!< primary's
    std::uint64_t recordsDecoded = 0;
    std::map<std::string, std::uint64_t> counts; //!< obs deltas
    double wallNs = 0.0;
    perfbench::Accounting acc;
};

/**
 * The traced serve run: SignalServer::run()'s event order (arrival
 * tick 2p, close tick 2p+1, then the scrub of period p, then the
 * standby catching up on a segment sealed during the arrival tick),
 * performed through the public Replica / WalWriter / loadWal /
 * deriveWindowDigests / SnapshotCell calls, one span per layer call.
 */
TracedServe
tracedServe(const Options &opt, const server::ServerConfig &base,
            SpanRecorder &rec)
{
    const ScratchDir wal_dir(opt, durable(base));
    server::ServerConfig cfg = base;
    cfg.durability.walDir = wal_dir.path();
    server::TenantPopulation::Config pc;
    pc.tenants = cfg.tenants;
    pc.zipfS = cfg.zipfS;
    pc.seed = cfg.seed;
    pc.periodSamples = cfg.periodSamples;
    pc.maxBatchPeriods = cfg.maxBatchPeriods;
    pc.meanDemandUnits = cfg.meanDemandUnits;
    const server::TenantPopulation population(pc);
    parallel::SnapshotCell<server::ServerSnapshot> cell;
    const std::uint64_t watermark = cfg.maxBatchPeriods + 1;
    const std::uint64_t horizon = cfg.durationPeriods + watermark;
    const std::uint64_t config_hash = server::serverConfigHash(cfg);

    TracedServe out;
    rec.clear();
    rec.reserve(8 * horizon + 16);
    const auto counters_before = obsCounters();
    const std::int64_t t0 = nowNs();

    bool seal_pending = false; // set by the WAL's onSeal callback
    std::unique_ptr<server::Replica> primary;
    std::unique_ptr<server::Replica> standby;
    std::unique_ptr<durability::WalWriter> wal;
    {
        const SpanRecorder::Scope span(rec, "server.init");
        primary = std::make_unique<server::Replica>(cfg, population);
        if (durable(cfg)) {
            standby =
                std::make_unique<server::Replica>(cfg, population);
            durability::WalWriter::Options wo;
            wo.dir = cfg.durability.walDir;
            wo.configHash = config_hash;
            wo.codec = cfg.durability.walCodec;
            wo.segmentRecords = cfg.durability.walSegmentRecords;
            wo.onSeal = [&seal_pending](std::uint64_t) {
                seal_pending = true;
            };
            wal = std::make_unique<durability::WalWriter>(wo);
        }
    }

    std::uint64_t primary_records = 0;
    std::uint64_t standby_consumed = 0;
    std::size_t standby_publish = 0;
    auto &published = out.report.publishedIntensity;
    const auto sync_standby = [&](bool sealed_only) {
        const durability::WalLoadResult load =
            durability::loadWal(cfg.durability.walDir, config_hash);
        out.recordsDecoded += load.records.size();
        std::size_t limit = load.records.size();
        if (sealed_only)
            limit -= static_cast<std::size_t>(load.tailRecords);
        limit = std::min<std::size_t>(limit, primary_records);
        for (std::size_t i = standby_consumed; i < limit; ++i) {
            standby->applyArrivalsReplay(load.records[i]);
            ++standby_consumed;
            const auto outcome =
                standby->applyClose(load.records[i].period);
            if (!outcome.published)
                continue;
            if (standby_publish >= published.size() ||
                std::memcmp(&outcome.fleetIntensity,
                            &published[standby_publish],
                            sizeof(double)) != 0)
                throw std::runtime_error(
                    "traced standby diverged from the primary");
            ++standby_publish;
            ++out.report.standbyPublishChecks;
        }
    };
    const auto units_of = [&population](std::uint64_t tenant,
                                        std::uint64_t p) {
        std::uint64_t units = 0;
        for (std::uint64_t sample :
             population.materializePeriod(tenant, p))
            units += sample;
        return units;
    };
    const std::uint64_t scrub_every =
        wal != nullptr ? cfg.durability.scrubPeriods : 0;

    for (std::uint64_t p = 0; p < horizon; ++p) {
        const SpanRecorder::Scope period_span(rec, "serve.period");
        durability::WalTickRecord record;
        {
            const SpanRecorder::Scope span(rec, "server.admission");
            record = primary->applyArrivalsLive(p);
        }
        if (wal != nullptr) {
            const SpanRecorder::Scope span(rec, "durability.append");
            wal->append(record);
        }
        ++primary_records;
        server::Replica::CloseOutcome outcome;
        {
            const SpanRecorder::Scope span(rec, "server.close");
            outcome = primary->applyClose(p);
        }
        if (outcome.published) {
            const SpanRecorder::Scope span(rec, "common.publish");
            const auto &totals = primary->admission().totals();
            server::ServerSnapshot snap;
            snap.version = cell.publishes() + 1;
            snap.period = outcome.period;
            snap.fleetIntensity = outcome.fleetIntensity;
            snap.fleetDemandUnits =
                static_cast<double>(outcome.fleetUnits);
            snap.admitted = totals.admitted;
            snap.deferred = totals.deferred;
            snap.rejected = totals.rejected;
            snap.overloadLevel = static_cast<std::uint32_t>(
                primary->governor().level());
            snap.shards = static_cast<std::uint32_t>(cfg.shards);
            snap.shardIntensity = outcome.shardIntensity;
            cell.publish(snap);
            published.push_back(outcome.fleetIntensity);
        }
        if (scrub_every > 0 && p >= scrub_every &&
            p % scrub_every == 0) {
            const SpanRecorder::Scope span(rec, "durability.scrub");
            durability::WalLoadResult load =
                durability::loadWal(cfg.durability.walDir, config_hash);
            out.recordsDecoded += load.records.size();
            if (load.records.size() > p + 1)
                load.records.resize(p + 1);
            const auto derived = durability::deriveWindowDigests(
                load.records, cfg.shards, cfg.windowPeriods, watermark,
                units_of);
            ++out.report.scrubRuns;
            if (!(derived == primary->windowDigests()))
                ++out.report.scrubMismatches;
        }
        if (seal_pending) {
            seal_pending = false;
            const SpanRecorder::Scope span(rec, "durability.standby");
            sync_standby(true);
        }
    }
    if (wal != nullptr) {
        {
            const SpanRecorder::Scope span(rec, "durability.append");
            wal->seal();
        }
        seal_pending = false;
        const SpanRecorder::Scope span(rec, "durability.standby");
        sync_standby(false);
    }
    out.wallNs = static_cast<double>(nowNs() - t0);

    out.counts = counterDelta(counters_before, obsCounters());
    out.admission = primary->admission().totals();
    out.report.publishes = cell.publishes();
    out.report.samplesIngested = primary->samplesIngested();
    out.report.batchesShed = primary->batchesShed();
    if (wal != nullptr) {
        out.report.walRecords = wal->recordsAppended();
        out.report.walSegmentsSealed = wal->segmentsSealed();
        out.report.walRawBytes = wal->rawBytes();
        out.report.walStoredBytes = wal->storedBytes();
    }
    out.acc = perfbench::accountResidual(rec.spans(), out.wallNs,
                                         "serve.period");
    return out;
}

/** Program counts later changes may cite: they must repeat exactly
 *  across traced runs. */
const std::vector<std::string> kCitedCounts = {
    "server.admission.admitted", "server.admission.deferred",
    "server.admission.rejected", "server.admission.shed",
    "durability.wal.appends",    "durability.wal.seals",
    "shapley.cache.hit",         "shapley.cache.miss",
    "shapley.incremental.advances", "forecast.fits",
};

void
checkCountsRepeat(Outcome &out,
                  const std::map<std::string, std::uint64_t> &first,
                  const std::map<std::string, std::uint64_t> &again)
{
    for (const auto &name : kCitedCounts)
        out.check(countOf(first, name) == countOf(again, name),
                  "obs count " + name + " differs between traced runs");
}

/** Per-op self time of @p layer in ms, from a traced run. */
double
selfMsPerOp(const perfbench::Accounting &acc, const std::string &layer,
            double ops)
{
    const auto it = acc.selfNs.find(layer);
    return it == acc.selfNs.end() ? 0.0 : it->second * 1e-6 / ops;
}

/** Median per-op self time of @p layer across traced runs. */
double
medianSelfMs(const std::vector<perfbench::Accounting> &runs,
             const std::string &layer, double ops)
{
    std::vector<double> v;
    for (const auto &acc : runs)
        v.push_back(selfMsPerOp(acc, layer, ops));
    return perfbench::median(v);
}

/** Median per-op residual (wall time no layer's self time covers)
 *  in ms across traced runs. */
double
medianResidualMs(const std::vector<perfbench::Accounting> &runs,
                 double ops)
{
    std::vector<double> v;
    for (const auto &acc : runs)
        v.push_back(acc.residualNs * 1e-6 / ops);
    return perfbench::median(v);
}

/** Per-layer values of one traced workload; emitLayers() reports
 *  every kLayerMetrics entry, zero for layers the workload does not
 *  reach. */
using LayerTable = std::map<std::string, double>;

const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"server.init.self_ms", "ms/op"},
    {"server.admission.self_ms", "ms/op"},
    {"server.admission.offered", "count"},
    {"server.admission.admitted", "count"},
    {"server.admission.deferred", "count"},
    {"server.admission.rejected", "count"},
    {"server.admission.shed", "count"},
    {"server.close.self_ms", "ms/op"},
    {"server.close.self_ms_1thread", "ms/op"},
    {"parallel.close_speedup_x", "x"},
    {"server.samples_ingested", "count"},
    {"common.publish.self_ms", "ms/op"},
    {"durability.append.self_ms", "ms/op"},
    {"durability.wal.records", "count"},
    {"durability.wal.seals", "count"},
    {"durability.wal.raw_bytes", "bytes"},
    {"durability.wal.stored_bytes", "bytes"},
    {"durability.scrub.self_ms", "ms/op"},
    {"durability.standby.self_ms", "ms/op"},
    {"durability.records_decoded", "count"},
    {"durability.read_amplification", "ratio"},
    {"durability.scrub.runs", "count"},
    {"shapley.incremental.self_ms", "ms/op"},
    {"shapley.cache.hit", "count"},
    {"shapley.cache.miss", "count"},
    {"shapley.cache.hit_ratio", "ratio"},
    {"shapley.incremental.advances", "count"},
    {"forecast.fit.self_ms", "ms/op"},
    {"forecast.fits", "count"},
    {"core.billing.self_ms", "ms/op"},
    {"resilience.ingest.self_ms", "ms/op"},
    {"pipeline.supervisor.self_ms", "ms/op"},
    {"serve.unaccounted_ms", "ms/op"},
    {"traced.wall_ms", "ms/op"},
    {"untraced.wall_ms", "ms/op"},
    {"trace_overhead_pct", "%"},
};

void
emitLayers(Outcome &out, const LayerTable &table)
{
    for (const auto &[name, unit] : kLayerMetrics) {
        const auto it = table.find(name);
        out.metrics.set(name, it == table.end() ? 0.0 : it->second, unit);
    }
    for (const auto &[name, value] : table) {
        bool known = false;
        for (const auto &declared : kLayerMetrics)
            known = known || declared.first == name;
        if (!known)
            throw std::logic_error("undeclared layer metric " + name);
    }
}

double
num(std::uint64_t count)
{
    return static_cast<double>(count);
}

void
setCacheCounts(LayerTable &t,
               const std::map<std::string, std::uint64_t> &counts)
{
    const double hit = num(countOf(counts, "shapley.cache.hit"));
    const double miss = num(countOf(counts, "shapley.cache.miss"));
    t["shapley.cache.hit"] = hit;
    t["shapley.cache.miss"] = miss;
    t["shapley.cache.hit_ratio"] =
        hit + miss > 0.0 ? hit / (hit + miss) : 0.0;
    t["shapley.incremental.advances"] =
        num(countOf(counts, "shapley.incremental.advances"));
}

/** Tracing overhead with both of its bases, per op. */
void
setOverhead(LayerTable &t, const std::vector<double> &traced_ms,
            const std::vector<double> &untraced_ms)
{
    const double traced = perfbench::median(traced_ms);
    const double untraced = perfbench::median(untraced_ms);
    t["traced.wall_ms"] = traced;
    t["untraced.wall_ms"] = untraced;
    t["trace_overhead_pct"] = (traced - untraced) / untraced * 100.0;
}

/** Chrome-trace JSON of the last traced run, written at the end. */
void
writeSpans(const Options &opt, const SpanRecorder &rec)
{
    std::filesystem::create_directories(opt.outDir);
    const std::string path = opt.outDir + "/trace-" + opt.workload +
        "-seed" + std::to_string(opt.seed) + ".json";
    std::ofstream f(path);
    f << "{\"traceEvents\": [";
    const auto &spans = rec.spans();
    const std::int64_t origin = spans.empty() ? 0 : spans[0].startNs;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %d}}",
                      i ? ",\n" : "\n", s.name,
                      static_cast<double>(s.startNs - origin) * 1e-3,
                      static_cast<double>(s.endNs - s.startNs) * 1e-3, i,
                      s.parent);
        f << buf;
    }
    f << "\n]}\n";
}

Outcome
serveTraced(const Options &opt)
{
    Outcome out;
    const server::ServerConfig cfg = serveConfig(opt);
    const double periods =
        static_cast<double>(cfg.durationPeriods + cfg.maxBatchPeriods + 1);
    SpanRecorder rec;
    std::vector<perfbench::Accounting> traced;
    std::vector<double> untraced_wall_ms;
    std::vector<double> traced_wall_ms;
    TracedServe first;
    std::uint64_t signature = 0;
    const std::int64_t start = nowNs();
    for (std::size_t rep = 0;; ++rep) {
        const double elapsed = seconds(nowNs() - start);
        if (rep >= 2 && elapsed >= opt.seconds)
            break;
        if (rep >= 2 && elapsed > kMaxLoopSeconds)
            break;
        // A/B-interleaved: the untraced run goes first on even reps.
        ServeRun plain;
        TracedServe run;
        for (int side = 0; side < 2; ++side) {
            if ((side + rep) % 2 == 0) {
                plain = serveOnce(opt, cfg, nullptr);
            } else {
                obs::setEnabled(true);
                run = tracedServe(opt, cfg, rec);
                obs::setEnabled(false);
            }
        }
        untraced_wall_ms.push_back(plain.runS * 1e3 / periods);
        traced_wall_ms.push_back(run.wallNs * 1e-6 / periods);
        if (rep == 0)
            signature = plain.report.signalSignature();
        checkServeReport(out, cfg, plain.report, signature);
        addServeOps(out, plain.report);

        const auto &r = run.report;
        const auto &p = plain.report;
        out.check(r.signalSignature() == p.signalSignature(),
                  "traced signature differs from the untraced run");
        out.check(r.walRecords == p.walRecords &&
                      r.walSegmentsSealed == p.walSegmentsSealed &&
                      r.walRawBytes == p.walRawBytes &&
                      r.walStoredBytes == p.walStoredBytes,
                  "traced WAL records/bytes differ from the untraced run");
        out.check(r.scrubRuns == p.scrubRuns &&
                      r.scrubMismatches == p.scrubMismatches,
                  "traced scrub count differs from the untraced run");
        out.check(r.standbyPublishChecks == p.standbyPublishChecks,
                  "traced standby checks differ from the untraced run");
        out.check(r.samplesIngested == p.samplesIngested &&
                      r.publishes == p.publishes,
                  "traced ingest/publish counts differ");
        // Every replica admits each batch once: the standby's replay
        // counts again.
        const std::uint64_t replicas = durable(cfg) ? 2 : 1;
        out.check(countOf(run.counts, "server.admission.admitted") ==
                          replicas * p.admission.admitted &&
                      run.admission.offered == p.admission.offered &&
                      run.admission.admitted == p.admission.admitted,
                  "obs admission counts disagree with the report");
        out.check(countOf(run.counts, "durability.wal.appends") ==
                      p.walRecords,
                  "obs WAL append count disagrees with the report");
        if (rep == 0)
            first = run;
        else
            checkCountsRepeat(out, first.counts, run.counts);
        traced.push_back(run.acc);
    }
    // Single-threaded baseline of the close layer: the base of the
    // parallel layer's speedup ratio (serve_fleet only).
    double one_thread_ms = 0.0;
    if (opt.workload == "serve_fleet") {
        SpanRecorder serial_rec;
        parallel::setThreadCount(1);
        obs::setEnabled(true);
        const TracedServe serial = tracedServe(opt, cfg, serial_rec);
        obs::setEnabled(false);
        parallel::setThreadCount(poolThreads());
        out.check(serial.report.signalSignature() == signature,
                  "one-thread traced signature differs");
        one_thread_ms = selfMsPerOp(serial.acc, "server.close", periods);
    }

    LayerTable t;
    for (const char *layer :
         {"server.init", "server.admission", "server.close",
          "common.publish", "durability.append", "durability.scrub",
          "durability.standby"})
        t[std::string(layer) + ".self_ms"] =
            medianSelfMs(traced, layer, periods);
    t["serve.unaccounted_ms"] = medianResidualMs(traced, periods);
    if (one_thread_ms > 0.0) {
        t["server.close.self_ms_1thread"] = one_thread_ms;
        t["parallel.close_speedup_x"] =
            one_thread_ms / t["server.close.self_ms"];
    }
    // Admission counts are the primary's; the obs counters confirmed
    // them above (once per replica).
    const auto &adm = first.admission;
    const auto &rep = first.report;
    t["server.admission.offered"] = num(adm.offered);
    t["server.admission.admitted"] = num(adm.admitted);
    t["server.admission.deferred"] = num(adm.deferred);
    t["server.admission.rejected"] = num(adm.rejected);
    t["server.admission.shed"] = num(rep.batchesShed);
    t["server.samples_ingested"] = num(rep.samplesIngested);
    t["durability.wal.records"] =
        num(countOf(first.counts, "durability.wal.appends"));
    t["durability.wal.seals"] =
        num(countOf(first.counts, "durability.wal.seals"));
    t["durability.wal.raw_bytes"] = num(rep.walRawBytes);
    t["durability.wal.stored_bytes"] = num(rep.walStoredBytes);
    t["durability.records_decoded"] = num(first.recordsDecoded);
    t["durability.read_amplification"] = rep.walRecords > 0
        ? num(first.recordsDecoded) / num(rep.walRecords)
        : 0.0;
    t["durability.scrub.runs"] = num(rep.scrubRuns);
    setCacheCounts(t, first.counts);
    setOverhead(t, traced_wall_ms, untraced_wall_ms);
    emitLayers(out, t);
    out.samples["traced_runs"] = traced.size();
    out.samples["untraced_runs"] = untraced_wall_ms.size();
    writeSpans(opt, rec);
    return out;
}

// ---- batch workload ----------------------------------------------

/** One generated week: demand history plus per-consumer usage whose
 *  columns sum to the demand at every step. */
struct WeekInput
{
    trace::TimeSeries demand;
    std::vector<std::pair<std::string, trace::TimeSeries>> usage;
};

std::vector<WeekInput>
makeWeeks(std::uint64_t seed)
{
    trace::AzureLikeGenerator::Config gc;
    gc.days = 7.0;
    gc.stepSeconds = kStepSeconds;
    const trace::AzureLikeGenerator generator(gc);
    const Rng root(seed);
    std::vector<WeekInput> weeks(kWeeks);
    for (std::size_t w = 0; w < kWeeks; ++w) {
        Rng rng = root.fork(2 * w);
        weeks[w].demand = generator.generate(rng);
        const auto &demand = weeks[w].demand.values();
        Rng share_rng = root.fork(2 * w + 1);
        std::vector<double> base(kConsumers);
        for (double &b : base)
            b = share_rng.uniform(0.2, 1.0);
        std::vector<std::vector<double>> cols(
            kConsumers, std::vector<double>(demand.size()));
        std::vector<double> share(kConsumers);
        for (std::size_t t = 0; t < demand.size(); ++t) {
            double total = 0.0;
            for (std::size_t c = 0; c < kConsumers; ++c) {
                share[c] = base[c] * share_rng.uniform(0.5, 1.5);
                total += share[c];
            }
            for (std::size_t c = 0; c < kConsumers; ++c)
                cols[c][t] = demand[t] * share[c] / total;
        }
        for (std::size_t c = 0; c < kConsumers; ++c)
            weeks[w].usage.emplace_back(
                "c" + std::to_string(c),
                trace::TimeSeries(std::move(cols[c]), gc.stepSeconds));
    }
    return weeks;
}

const std::vector<std::size_t> kBatchSplits = {7, 24, 12};
constexpr std::size_t kHorizonSteps = 288; // one day of 5-min steps
constexpr std::size_t kIncrementalWindow = 24;

pipeline::PipelineConfig
weekConfig(const WeekInput &week)
{
    pipeline::PipelineConfig cfg;
    cfg.demandSeries = week.demand;
    cfg.usageSeries = week.usage;
    cfg.stepSeconds = week.demand.stepSeconds();
    cfg.poolGrams = kPoolGrams;
    cfg.splits = kBatchSplits;
    cfg.horizonSteps = kHorizonSteps;
    cfg.incrementalWindowPeriods = kIncrementalWindow;
    return cfg;
}

/** Output checks of one attributed week (none of them timed). */
bool
weekOk(const pipeline::PipelineResult &res, const WeekInput &week)
{
    if (!res.health.ok)
        return false;
    for (const auto &stage : res.health.stages)
        if (stage.status != pipeline::StageStatus::Ok ||
            stage.degradationLevel != 0)
            return false;
    const auto *shapley = res.health.find("shapley");
    if (shapley == nullptr || shapley->degradationLevel != 0)
        return false;
    const auto &a = res.attribution;
    const double tol = pipeline::kEfficiencyTolerance * kPoolGrams;
    if (std::fabs(a.attributedGrams + a.unattributedGrams - kPoolGrams) >
        tol)
        return false;
    // Fair bills must add up to the grams attributed to the billed
    // history: sum_t y_t * demand_t * dt.
    const auto &demand = week.demand.values();
    double history_grams = 0.0;
    for (std::size_t t = 0; t < demand.size(); ++t)
        history_grams += a.intensity[t] * demand[t];
    history_grams *= week.demand.stepSeconds();
    double bills = 0.0;
    for (double g : res.fairGrams)
        bills += g;
    return res.fairGrams.size() == kConsumers &&
        std::fabs(bills - history_grams) <=
        pipeline::kEfficiencyTolerance * std::fabs(history_grams);
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/** Path of one of week @p w's input CSVs in the work directory. */
std::string
weekCsv(const Options &opt, std::size_t w, const char *what)
{
    return opt.workDir + "/week" + std::to_string(w) + "-" + what +
        ".csv";
}

/** Writes a CSV of @p columns under @p header with every digit
 *  (%.17g), so reading it back gives the same doubles. */
void
writeColumns(const std::string &path,
             const std::vector<std::string> &header,
             const std::vector<const std::vector<double> *> &columns)
{
    std::ofstream f(path);
    for (std::size_t c = 0; c < header.size(); ++c)
        f << (c ? "," : "") << header[c];
    f << '\n';
    char buf[32];
    for (std::size_t t = 0; t < columns[0]->size(); ++t) {
        for (std::size_t c = 0; c < columns.size(); ++c) {
            std::snprintf(buf, sizeof buf, "%.17g", (*columns[c])[t]);
            f << (c ? "," : "") << buf;
        }
        f << '\n';
    }
    if (!f)
        throw std::runtime_error("cannot write " + path);
}

void
writeWeekCsvs(const Options &opt, std::size_t w, const WeekInput &week)
{
    writeColumns(weekCsv(opt, w, "demand"), {"demand"},
                 {&week.demand.values()});
    std::vector<std::string> names;
    std::vector<const std::vector<double> *> columns;
    for (const auto &[name, series] : week.usage) {
        names.push_back(name);
        columns.push_back(&series.values());
    }
    writeColumns(weekCsv(opt, w, "usage"), names, columns);
}

/**
 * The batch workload's program-side set-up: week @p w's demand and
 * usage read from CSV by the loaders `fairco2 run` uses
 * (resilience::loadSeriesColumn, readCsv and numericColumnWithPolicy
 * under the Fail policy) into a pipeline configuration.
 */
pipeline::PipelineConfig
loadWeekConfig(const Options &opt, std::size_t w)
{
    WeekInput week;
    week.demand = resilience::loadSeriesColumn(
        weekCsv(opt, w, "demand"), "demand", kStepSeconds,
        resilience::BadRowPolicy::Fail);
    const CsvTable usage = readCsv(weekCsv(opt, w, "usage"));
    for (const auto &name : usage.header)
        week.usage.emplace_back(
            name, trace::TimeSeries(resilience::numericColumnWithPolicy(
                                        usage, name,
                                        resilience::BadRowPolicy::Fail),
                                    kStepSeconds));
    return weekConfig(week);
}

/** True when @p cfg holds exactly @p week's inputs. */
bool
sameInputs(const pipeline::PipelineConfig &cfg, const WeekInput &week)
{
    if (!sameBits(cfg.demandSeries.values(), week.demand.values()) ||
        cfg.usageSeries.size() != week.usage.size())
        return false;
    for (std::size_t c = 0; c < week.usage.size(); ++c)
        if (cfg.usageSeries[c].first != week.usage[c].first ||
            !sameBits(cfg.usageSeries[c].second.values(),
                      week.usage[c].second.values()))
            return false;
    return true;
}

/** Summary each week publishes for the snapshot reader. */
struct WeekSnapshot
{
    std::uint64_t version = 0;
    double attributedGrams = 0.0;
};

Outcome
batchUntraced(const Options &opt)
{
    Outcome out;
    const std::vector<WeekInput> weeks = makeWeeks(opt.seed);
    for (std::size_t w = 0; w < kWeeks; ++w)
        writeWeekCsvs(opt, w, weeks[w]);
    // Set-up: every week's inputs loaded from CSV, each load timed;
    // the loaded configurations drive the weeks.
    std::vector<double> setup_s;
    std::vector<pipeline::PipelineConfig> configs;
    for (std::size_t w = 0; w < kWeeks; ++w) {
        const std::int64_t t0 = nowNs();
        configs.push_back(loadWeekConfig(opt, w));
        setup_s.push_back(seconds(nowNs() - t0));
    }
    for (std::size_t w = 0; w < kWeeks; ++w)
        out.check(sameInputs(configs[w], weeks[w]),
                  "week inputs read back from CSV differ");
    // Warm-up: lazy set-up (allocator arenas, first-touch pages) is
    // paid once per process, not per week.
    for (std::size_t w = 0; w < 2; ++w)
        out.check(weekOk(pipeline::runAttributionPipeline(configs[w]),
                         weeks[w]),
                  "warm-up week failed its checks");

    parallel::SnapshotCell<WeekSnapshot> cell;
    Reader reader([&cell] { return cell.read().version; });
    const CoreRotation rotation;
    std::vector<double> week_ms;
    double busy_s = 0.0;
    const std::int64_t start = nowNs();
    for (std::size_t n = 0; keepMeasuring(opt, seconds(nowNs() - start), n,
                                          busy_s, week_ms.size());
         ++n) {
        const std::size_t w = n % kWeeks;
        if (w == 0)
            rotation.place(n / kWeeks, reader.thread());
        const std::int64_t t0 = nowNs();
        const pipeline::PipelineResult res =
            pipeline::runAttributionPipeline(configs[w]);
        const std::int64_t t1 = nowNs();
        cell.publish(WeekSnapshot{n + 1, res.attribution.attributedGrams});
        week_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        busy_s += seconds(t1 - t0);
        ++out.attempted;
        if (!weekOk(res, weeks[w]))
            ++out.failed;
    }
    ReaderTally &tally = reader.finish();
    const double rss = peakRssMb();
    out.check(out.failed == 0, "a week failed its output checks");

    const double n = static_cast<double>(week_ms.size());
    const double samples_per_week = static_cast<double>(
        weeks[0].demand.size() * (1 + kConsumers));
    out.metrics.set("setup_s", perfbench::median(setup_s), "s");
    out.metrics.set("result_ms_mean", perfbench::mean(week_ms), "ms");
    out.metrics.set("result_ms_p90",
                    perfbench::tailPercentile(week_ms, 0.9), "ms");
    out.metrics.set("samples_per_s", n * samples_per_week / busy_s,
                    "samples/s");
    out.metrics.set("snapshot_read_p99_us", tally.readUs(0.99), "us");
    out.metrics.set("peak_rss_mb", rss, "MiB");
    out.spread = {{"setup_s", perfbench::summarize(setup_s)},
                  {"result_ms", perfbench::summarize(week_ms)}};
    out.samples["snapshot_read_blocks"] = tally.readBlocks.count();
    return out;
}

std::uint64_t
costMsFor(std::uint64_t items, std::uint64_t per_thousand,
          std::uint64_t floor_ms)
{
    return floor_ms + items * per_thousand / 1000;
}

/**
 * The traced batch week: runAttributionPipeline()'s five stages
 * under a pipeline::Supervisor with the same simulated stage costs,
 * each stage body's layer call inside a span. Only the level-0 rungs
 * are driven; any descent shows up as a mismatch with the untraced
 * week.
 */
pipeline::PipelineResult
tracedWeek(const pipeline::PipelineConfig &cfg, SpanRecorder &rec)
{
    const SpanRecorder::Scope week_span(rec, "batch.week");
    pipeline::PipelineResult result;
    pipeline::Supervisor supervisor(cfg.supervisor);
    const auto level0 = [](const pipeline::StageAttempt &a) {
        if (a.level != 0)
            throw std::runtime_error(
                "the traced week covers level-0 rungs only");
    };
    supervisor.runStage("ingest", 0, [&](const pipeline::StageAttempt &) {
        const SpanRecorder::Scope span(rec, "resilience.ingest");
        pipeline::StageBodyResult r;
        std::vector<double> values = cfg.demandSeries.values();
        resilience::injectTelemetryFaults(values,
                                          cfg.supervisor.faultPlan);
        resilience::repairNonFinite(values, cfg.badRowPolicy,
                                    "pipeline demand telemetry",
                                    &result.ingest);
        result.demand = trace::TimeSeries(
            std::move(values), cfg.demandSeries.stepSeconds());
        result.consumers.clear();
        for (const auto &entry : cfg.usageSeries)
            result.consumers.push_back(entry.first);
        r.costMs = costMsFor(result.demand.size(), 20, 1);
        return r;
    });
    supervisor.runStage(
        "forecast", 2, [&](const pipeline::StageAttempt &a) {
            level0(a);
            const SpanRecorder::Scope span(rec, "forecast.fit");
            pipeline::StageBodyResult r;
            forecast::SeasonalForecaster forecaster;
            forecaster.fit(result.demand);
            r.degraded = forecaster.degraded();
            r.costMs = costMsFor(result.demand.size(), 200, 5);
            const auto horizon = forecaster.forecast(cfg.horizonSteps);
            std::vector<double> values = result.demand.values();
            values.insert(values.end(), horizon.values().begin(),
                          horizon.values().end());
            result.window = trace::TimeSeries(
                std::move(values), result.demand.stepSeconds());
            return r;
        });
    const std::vector<std::size_t> inner(cfg.splits.begin() + 1,
                                         cfg.splits.end());
    supervisor.runStage(
        "shapley", 3, [&](const pipeline::StageAttempt &a) {
            level0(a);
            const SpanRecorder::Scope span(rec, "shapley.incremental");
            pipeline::StageBodyResult r;
            result.attribution = pipeline::attributeIncremental(
                result.window, cfg.poolGrams,
                cfg.incrementalWindowPeriods, 0, inner,
                cfg.incrementalCacheCapacity, &cfg.supervisor.faultPlan);
            r.note = "incremental sliding-window attribution";
            r.costMs = costMsFor(result.attribution.operations, 2, 5);
            return r;
        });
    supervisor.runStage(
        "interference", 0, [&](const pipeline::StageAttempt &) {
            const SpanRecorder::Scope span(rec, "core.billing");
            pipeline::StageBodyResult r;
            const auto columns = cfg.usageSeries;
            const auto rup = pipeline::attributeProportional(
                result.window, cfg.poolGrams);
            result.consumers.clear();
            result.fairGrams.clear();
            result.rupGrams.clear();
            std::uint64_t samples = 0;
            for (const auto &[consumer, usage] : columns) {
                const auto fair_slice =
                    result.attribution.intensity.slice(0, usage.size());
                const auto rup_slice = rup.intensity.slice(0, usage.size());
                result.consumers.push_back(consumer);
                result.fairGrams.push_back(
                    core::attributeUsage(fair_slice, usage));
                result.rupGrams.push_back(
                    core::attributeUsage(rup_slice, usage));
                samples += usage.size();
            }
            r.costMs = costMsFor(samples, 5, 1);
            return r;
        });
    const bool reported = supervisor.runStage(
        "report", 0, [&](const pipeline::StageAttempt &) {
            pipeline::StageBodyResult r;
            r.costMs = costMsFor(result.window.size(), 5, 1);
            return r;
        });
    supervisor.finalize(reported);
    result.health = supervisor.health();
    return result;
}

Outcome
batchTraced(const Options &opt)
{
    Outcome out;
    const std::vector<WeekInput> weeks = makeWeeks(opt.seed);
    // Inputs are in memory before either pass starts (the end-to-end
    // run's CSV loading is its set-up, not part of a week).
    std::vector<pipeline::PipelineConfig> configs;
    for (const WeekInput &week : weeks)
        configs.push_back(weekConfig(week));
    (void)pipeline::runAttributionPipeline(configs[0]);
    SpanRecorder rec;
    const double ops = static_cast<double>(kWeeks);
    std::vector<perfbench::Accounting> traced;
    std::vector<double> untraced_wall_ms;
    std::vector<double> traced_wall_ms;
    std::map<std::string, std::uint64_t> first_counts;
    const std::int64_t start = nowNs();
    for (std::size_t rep = 0;; ++rep) {
        const double elapsed = seconds(nowNs() - start);
        if (rep >= 2 && elapsed >= opt.seconds)
            break;
        if (rep >= 2 && elapsed > kMaxLoopSeconds)
            break;
        // A/B-interleaved: the untraced pass goes first on even reps.
        std::vector<pipeline::PipelineResult> plain;
        std::vector<pipeline::PipelineResult> mirrored;
        std::map<std::string, std::uint64_t> counts;
        double wall_ns = 0.0;
        for (int side = 0; side < 2; ++side) {
            if ((side + rep) % 2 == 0) {
                const std::int64_t u0 = nowNs();
                for (const auto &cfg : configs)
                    plain.push_back(pipeline::runAttributionPipeline(cfg));
                untraced_wall_ms.push_back(
                    static_cast<double>(nowNs() - u0) * 1e-6 / ops);
                continue;
            }
            obs::setEnabled(true);
            rec.clear();
            const auto before = obsCounters();
            const std::int64_t t0 = nowNs();
            for (const auto &cfg : configs)
                mirrored.push_back(tracedWeek(cfg, rec));
            wall_ns = static_cast<double>(nowNs() - t0);
            counts = counterDelta(before, obsCounters());
            obs::setEnabled(false);
        }

        perfbench::Accounting acc =
            perfbench::accountResidual(rec.spans(), wall_ns, "batch.week");
        traced_wall_ms.push_back(wall_ns * 1e-6 / ops);
        traced.push_back(acc);

        for (std::size_t w = 0; w < weeks.size(); ++w) {
            const auto &p = plain[w];
            const auto &m = mirrored[w];
            ++out.attempted;
            const bool plain_ok = weekOk(p, weeks[w]);
            if (!plain_ok)
                ++out.failed;
            out.check(plain_ok, "a week failed its output checks");
            out.check(sameBits(p.attribution.intensity.values(),
                               m.attribution.intensity.values()) &&
                          sameBits(p.fairGrams, m.fairGrams) &&
                          sameBits(p.rupGrams, m.rupGrams) &&
                          p.health.toJson() == m.health.toJson(),
                      "traced week differs from runAttributionPipeline");
        }
        if (rep == 0)
            first_counts = counts;
        else
            checkCountsRepeat(out, first_counts, counts);
    }

    LayerTable t;
    for (const char *layer : {"resilience.ingest", "forecast.fit",
                              "shapley.incremental", "core.billing"})
        t[std::string(layer) + ".self_ms"] =
            medianSelfMs(traced, layer, ops);
    t["pipeline.supervisor.self_ms"] = medianResidualMs(traced, ops);
    setCacheCounts(t, first_counts);
    t["forecast.fits"] = num(countOf(first_counts, "forecast.fits"));
    setOverhead(t, traced_wall_ms, untraced_wall_ms);
    emitLayers(out, t);
    out.samples["traced_runs"] = traced.size();
    out.samples["untraced_runs"] = untraced_wall_ms.size();
    writeSpans(opt, rec);
    return out;
}

// ---- main ----------------------------------------------------------

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<serve_fleet|serve_durable|batch_weeks> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = value;
            else if (arg == "--seed")
                opt.seed = std::stoull(value);
            else if (arg == "--seconds")
                opt.seconds = std::stod(value);
            else if (arg == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (arg == "--work-dir")
                opt.workDir = value;
            else if (arg == "--out-dir")
                opt.outDir = value;
            else
                return usage(("unknown flag " + arg).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    const bool serve =
        opt.workload == "serve_fleet" || opt.workload == "serve_durable";
    if (!serve && opt.workload != "batch_weeks")
        return usage("unknown workload");
    if (!(opt.seconds > 0.0))
        return usage("--seconds must be positive");

    obs::setEnabled(false);
    parallel::setThreadCount(poolThreads());
    Outcome out;
    try {
        std::filesystem::create_directories(opt.workDir);
        if (serve)
            out = opt.trace ? serveTraced(opt) : serveUntraced(opt);
        else
            out = opt.trace ? batchTraced(opt) : batchUntraced(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    for (const auto &why : out.checkFailures)
        std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());

    std::string samples = "{";
    for (const auto &[name, n] : out.samples)
        samples += (samples.size() > 1 ? ", " : "") +
            perfbench::jsonString(name) + ": " + std::to_string(n);
    for (const auto &[name, sum] : out.spread) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "{\"n\": %zu, \"q1\": %.17g, \"median\": %.17g, "
                      "\"q3\": %.17g}",
                      sum.count, sum.q1, sum.median, sum.q3);
        samples += (samples.size() > 1 ? ", " : "") +
            perfbench::jsonString(name) + ": " + buf;
    }
    samples += "}";
    std::printf(
        "{\"metadata\": {\"workload\": %s, \"seed\": %llu, "
        "\"seconds\": %g, \"trace\": %d, \"compiler\": %s, "
        "\"flags\": %s, \"build_type\": %s, \"nproc\": %zu, "
        "\"cpu_model\": %s, \"pool_threads\": %zu, "
        "\"reader_threads\": %d}, \"samples\": %s}\n",
        perfbench::jsonString(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed), opt.seconds,
        opt.trace ? 1 : 0,
        perfbench::jsonString(PERFBENCH_COMPILER).c_str(),
        perfbench::jsonString(PERFBENCH_FLAGS).c_str(),
        perfbench::jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        parallel::hardwareConcurrency(),
        perfbench::jsonString(cpuModel()).c_str(), poolThreads(),
        opt.trace ? 0 : 1, samples.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                out.metrics.json().c_str());
    return 0;
}
