#include "signalserver.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/obs.hh"
#include "resilience/checkpoint.hh"
#include "resilience/signals.hh"

namespace fairco2::server
{

std::uint64_t
ServerReport::signalSignature() const
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    if (!publishedIntensity.empty())
        hash = resilience::fnv1a64(
            publishedIntensity.data(),
            publishedIntensity.size() * sizeof(double), hash);
    return hash;
}

SignalServer::SignalServer(const ServerConfig &config)
    : config_(config), population_([&] {
          TenantPopulation::Config pc;
          pc.tenants = config.tenants;
          pc.zipfS = config.zipfS;
          pc.seed = config.seed;
          pc.periodSamples = config.periodSamples;
          pc.maxBatchPeriods = config.maxBatchPeriods;
          pc.meanDemandUnits = config.meanDemandUnits;
          return pc;
      }())
{
    if (config_.shards == 0 || config_.shards > kMaxShards)
        throw std::invalid_argument(
            "SignalServer: shards must be in [1, 64]");
    if (config_.durationPeriods == 0)
        throw std::invalid_argument(
            "SignalServer: duration must be > 0 periods");
    if (config_.windowPeriods == 0 || config_.periodSamples == 0)
        throw std::invalid_argument(
            "SignalServer: window and period sizes must be > 0");
    if (config_.stepSeconds <= 0.0 ||
        !std::isfinite(config_.stepSeconds))
        throw std::invalid_argument(
            "SignalServer: step seconds must be positive");
    if (config_.poolGramsPerSecond < 0.0 ||
        !std::isfinite(config_.poolGramsPerSecond))
        throw std::invalid_argument(
            "SignalServer: pool rate must be finite and >= 0");
    const DurabilityOptions &dur = config_.durability;
    if (dur.walDir.empty()) {
        if (dur.recover)
            throw std::invalid_argument(
                "SignalServer: recovery requires a wal directory");
        if (dur.standby)
            throw std::invalid_argument(
                "SignalServer: a hot standby requires a wal "
                "directory");
        if (dur.killTorn)
            throw std::invalid_argument(
                "SignalServer: a torn kill requires a wal "
                "directory");
    }
    if (dur.walSegmentRecords == 0)
        throw std::invalid_argument(
            "SignalServer: wal segment capacity must be >= 1");

    // Period q closes once every batch covering it — including one
    // admission deferral — must have arrived.
    watermark_ = config_.maxBatchPeriods + 1;
}

SignalServer::~SignalServer() = default;

Replica &
SignalServer::active()
{
    return crashed_ ? *standby_ : *primary_;
}

void
SignalServer::setupDurability()
{
    const DurabilityOptions &dur = config_.durability;
    if (dur.walDir.empty())
        return;
    configHash_ = serverConfigHash(config_);

    durability::WalWriter::Options wo;
    wo.dir = dur.walDir;
    wo.configHash = configHash_;
    wo.codec = dur.walCodec;
    wo.segmentRecords = dur.walSegmentRecords;
    wo.onSeal = [this](std::uint64_t) {
        // Ship the sealed segment: the standby replays from disk one
        // tick later (after this tick's close), never from the
        // primary's memory.
        if (standby_ == nullptr || crashed_)
            return;
        loop_.after(1, [this] {
            if (!crashed_)
                syncStandbyFromDisk(true);
        });
    };

    std::vector<durability::WalTickRecord> tail;
    if (dur.recover) {
        durability::WalLoadResult load =
            durability::loadWal(dur.walDir, configHash_);
        report_.recovered = true;
        report_.droppedWalTail = load.droppedTail;
        report_.walTailDiagnostic = load.tailDiagnostic;
        wo.firstSegmentIndex = load.nextSegmentIndex;
        wo.firstRecordIndex = load.records.size() - load.tailRecords;
        tail.assign(load.records.end() -
                        static_cast<std::ptrdiff_t>(load.tailRecords),
                    load.records.end());
        replay_ = std::move(load.records);
        FAIRCO2_COUNT("durability.recover.records",
                      replay_.size());
    } else {
        // A fresh run must not silently clobber (or interleave with)
        // an existing log.
        namespace fs = std::filesystem;
        for (const auto &entry : fs::directory_iterator(dur.walDir))
            if (entry.path().filename().string().rfind("wal-", 0) ==
                0)
                throw durability::WalIntegrityError(
                    "wal directory '" + dur.walDir +
                    "' already holds a log; pass --recover to "
                    "replay it or point --wal-dir at a fresh "
                    "directory");
    }
    wal_ = std::make_unique<durability::WalWriter>(wo);
    if (!tail.empty())
        wal_->adoptTail(tail);
}

void
SignalServer::killNow()
{
    // Simulate kill -9 as the shell reports it (128 + SIGKILL):
    // no stdio flush, no destructors, no WAL seal.
    std::_Exit(137);
}

void
SignalServer::publishOutcome(const Replica::CloseOutcome &outcome)
{
    Replica &rep = active();
    const AdmissionController::Totals &totals =
        rep.admission().totals();
    ServerSnapshot snap;
    snap.version = cell_.publishes() + 1;
    snap.period = outcome.period;
    snap.fleetIntensity = outcome.fleetIntensity;
    snap.fleetDemandUnits = static_cast<double>(outcome.fleetUnits);
    snap.admitted = totals.admitted;
    snap.deferred = totals.deferred;
    snap.rejected = totals.rejected;
    snap.overloadLevel =
        static_cast<std::uint32_t>(rep.governor().level());
    snap.shards = static_cast<std::uint32_t>(config_.shards);
    snap.shardIntensity = outcome.shardIntensity;
    cell_.publish(snap);

    report_.attributedGrams += outcome.attributedGrams;
    report_.publishedIntensity.push_back(outcome.fleetIntensity);
    report_.publishedPeriods.push_back(outcome.period);
    FAIRCO2_COUNT("server.publishes", 1);
    FAIRCO2_GAUGE_SET("server.fleet.intensity",
                      outcome.fleetIntensity);
    FAIRCO2_GAUGE_SET("server.fleet.demand_units",
                      static_cast<double>(outcome.fleetUnits));
}

void
SignalServer::replayIntoStandby(
    const durability::WalTickRecord &record)
{
    standby_->applyArrivalsReplay(record);
    ++standbyConsumed_;
    ++report_.standbyReplayedRecords;
    const Replica::CloseOutcome outcome =
        standby_->applyClose(record.period);
    if (!outcome.published)
        return;
    // Zero-divergence contract: every publish the standby reproduces
    // must match the primary's bit for bit.
    if (standbyPublishIndex_ >= report_.publishedIntensity.size())
        throw durability::WalIntegrityError(
            "standby replay of period " +
            std::to_string(record.period) +
            " published ahead of the primary");
    const double expect =
        report_.publishedIntensity[standbyPublishIndex_];
    if (std::memcmp(&outcome.fleetIntensity, &expect,
                    sizeof(double)) != 0)
        throw durability::WalIntegrityError(
            "standby diverged from the primary at publish " +
            std::to_string(standbyPublishIndex_) + " (period " +
            std::to_string(outcome.period) + ")");
    ++standbyPublishIndex_;
    ++report_.standbyPublishChecks;
}

void
SignalServer::syncStandbyFromDisk(bool sealed_only)
{
    FAIRCO2_TIME_NS("durability.standby.sync_ns");
    // Read only what the standby has not replayed yet, and never past
    // the primary: during recovery the log already holds ticks the
    // primary has not re-driven yet.
    durability::WalRange range;
    range.first = standbyConsumed_;
    range.end = primaryRecords_;
    range.tail = !sealed_only;
    const durability::WalLoadResult load = durability::loadWalRange(
        config_.durability.walDir, configHash_, range);
    for (const durability::WalTickRecord &record : load.records)
        replayIntoStandby(record);
}

void
SignalServer::failover(std::uint64_t period)
{
    crashed_ = true;
    config_.faultPlan.noteInjected();
    report_.failedOver = true;
    report_.failoverPeriod = period;
    FAIRCO2_COUNT("durability.failover", 1);
    // Catch up from the log on disk — tail segment included; the
    // dead primary's memory is gone by definition.
    syncStandbyFromDisk(false);
    // No-missing-period contract: after catch-up the standby's next
    // publish continues the primary's stream exactly.
    if (standbyPublishIndex_ != report_.publishedIntensity.size())
        throw durability::WalIntegrityError(
            "failover at period " + std::to_string(period) +
            " left a publish gap: standby reproduced " +
            std::to_string(standbyPublishIndex_) + " of " +
            std::to_string(report_.publishedIntensity.size()) +
            " publishes");
}

void
SignalServer::handleArrivals(std::uint64_t period)
{
    const DurabilityOptions &dur = config_.durability;

    // Graceful drain: stop at a tick boundary, seal the WAL tail so
    // a later --recover resumes from a clean log, and report the
    // interruption (the CLI exits 130).
    if (resilience::shutdownRequested()) {
        report_.interrupted = true;
        if (wal_ != nullptr)
            wal_->seal();
        loop_.stop();
        return;
    }

    if (standby_ != nullptr && !crashed_ &&
        config_.faultPlan.active() &&
        config_.faultPlan.fires(resilience::FaultSite::PrimaryCrash,
                                period))
        failover(period);

    const std::uint64_t tick = loop_.now(); // == 2 * period
    const bool kill_here = dur.killAtTick == tick;
    Replica &rep = active();

    if (replayNext_ < replay_.size()) {
        // Recovery: re-drive the logged tick (already in the WAL —
        // nothing is appended).
        const durability::WalTickRecord &record = replay_[replayNext_];
        if (record.period != period)
            throw durability::WalIntegrityError(
                "wal record " + std::to_string(replayNext_) +
                " is for period " + std::to_string(record.period) +
                ", expected " + std::to_string(period));
        rep.applyArrivalsReplay(record);
        ++replayNext_;
        ++report_.replayedRecords;
    } else {
        const durability::WalTickRecord record =
            rep.applyArrivalsLive(period);
        if (wal_ != nullptr) {
            if (kill_here && dur.killTorn) {
                wal_->appendTorn(record);
                killNow();
            }
            wal_->append(record);
        }
    }
    ++primaryRecords_;

    if (kill_here)
        killNow();
    if (dur.haltAtTick == tick) {
        halted_ = true;
        loop_.stop();
    }
}

void
SignalServer::handleClose(std::uint64_t period)
{
    const Replica::CloseOutcome outcome = active().applyClose(period);
    if (outcome.published)
        publishOutcome(outcome);

    const DurabilityOptions &dur = config_.durability;
    if (dur.killAtTick == loop_.now())
        killNow();
    if (dur.haltAtTick == loop_.now()) {
        halted_ = true;
        loop_.stop();
    }
}

void
SignalServer::runScrub(std::uint64_t period)
{
    FAIRCO2_TIME_NS("durability.scrub_ns");
    // Anti-entropy: re-derive the window digests purely from the log
    // on disk and compare them to the serving replica's live state.
    // The scrub reads only the records up to this period: during
    // recovery the log extends past the loop's progress.
    const durability::WindowDigests derived =
        durability::scrubWindowDigests(
            config_.durability.walDir, configHash_, period,
            config_.shards, config_.windowPeriods, watermark_,
            [this](std::uint64_t tenant, std::uint64_t p) {
                std::uint64_t units = 0;
                for (std::uint64_t sample :
                     population_.materializePeriod(tenant, p))
                    units += sample;
                return units;
            });
    const durability::WindowDigests live = active().windowDigests();
    ++report_.scrubRuns;
    FAIRCO2_COUNT("durability.scrub.runs", 1);
    if (!(derived == live)) {
        ++report_.scrubMismatches;
        FAIRCO2_COUNT("durability.scrub.mismatches", 1);
        throw durability::WalIntegrityError(
            "anti-entropy scrub mismatch at period " +
            std::to_string(period) +
            ": wal-derived window digests disagree with the live "
            "replica");
    }
}

ServerReport
SignalServer::run()
{
    if (ran_)
        throw std::logic_error("SignalServer::run: already ran");
    ran_ = true;

    primary_ = std::make_unique<Replica>(config_, population_);
    if (config_.durability.standby)
        standby_ = std::make_unique<Replica>(config_, population_);
    setupDurability();

    // Two ticks per period: arrivals at 2p, close at 2p+1. Arrival
    // ticks keep firing through the drain tail so deferred batches
    // are still decided and the governor keeps observing.
    const std::uint64_t horizon =
        config_.durationPeriods + watermark_;
    for (std::uint64_t p = 0; p < horizon; ++p) {
        loop_.at(2 * p, [this, p] { handleArrivals(p); });
        loop_.at(2 * p + 1, [this, p] { handleClose(p); });
    }
    // Scrub events land after the close at the same tick (scheduled
    // later at the same tick number => higher insertion seq).
    const std::uint64_t scrub_every =
        config_.durability.scrubPeriods;
    if (wal_ != nullptr && scrub_every > 0)
        for (std::uint64_t p = scrub_every; p < horizon;
             p += scrub_every)
            loop_.at(2 * p + 1, [this, p] { runScrub(p); });
    loop_.run();

    // Clean finish (not a simulated crash): seal the tail so the log
    // is all-sealed, then let the standby drain it completely — the
    // lockstep check covers every publish of the run.
    if (wal_ != nullptr && !halted_ && !report_.interrupted) {
        wal_->seal();
        if (standby_ != nullptr && !crashed_)
            syncStandbyFromDisk(false);
    }
    if (wal_ != nullptr && report_.interrupted && standby_ != nullptr &&
        !crashed_)
        syncStandbyFromDisk(false);

    Replica &rep = active();
    report_.periodsClosed = rep.periodsClosed();
    report_.publishes = cell_.publishes();
    report_.admission = rep.admission().totals();
    report_.batchesShed = rep.batchesShed();
    report_.eventsExecuted = loop_.executed();
    report_.faultsInjected =
        rep.faultsInjected() + (report_.failedOver ? 1 : 0);
    report_.engineRebuilds = rep.engineRebuilds();
    report_.overloadEscalations = rep.governor().escalations();
    report_.overloadRecoveries = rep.governor().recoveries();
    report_.finalOverloadLevel =
        static_cast<std::uint32_t>(rep.governor().level());
    report_.samplesIngested = rep.samplesIngested();
    const auto surrogate_totals = rep.surrogateCounters();
    report_.surrogateAccepts = surrogate_totals.accepts;
    report_.surrogateRejects = surrogate_totals.rejects;
    if (wal_ != nullptr) {
        report_.walRecords = wal_->recordsAppended();
        report_.walSegmentsSealed = wal_->segmentsSealed();
        report_.walRawBytes = wal_->rawBytes();
        report_.walStoredBytes = wal_->storedBytes();
    }
    FAIRCO2_COUNT("server.samples.ingested",
                  report_.samplesIngested);
    return report_;
}

} // namespace fairco2::server
