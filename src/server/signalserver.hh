/**
 * @file
 * Sharded multi-tenant live-signal server.
 *
 * SignalServer is the deployment shape of the paper's live carbon
 * signal: N simulated tenants (server::TenantPopulation) push
 * telemetry batches through token-bucket admission
 * (server::AdmissionController) into S shards, each shard owns an
 * IncrementalTemporalEngine for its tenants' demand, and a fleet
 * engine attributes the aggregate. Every closed period publishes a
 * snapshot through parallel::SnapshotCell, so currentIntensity()
 * readers are wait-free while the writer streams. The per-tick state
 * machine itself lives in server::Replica; SignalServer drives one
 * (or two) replicas through the deterministic event loop and owns
 * everything around them: publication, reporting, and durability.
 *
 * ## Determinism contract
 *
 * The published fleet signal is **bit-identical** for any
 * `--shards S` and `--threads N` at the same seed:
 *
 *  - Tenant demand is materialized in *integer* demand units, pure
 *    in (seed, tenant, period) via counter-derived Rng streams.
 *  - Per-shard accumulation sums uint64; the fleet aggregate is the
 *    associative integer sum over shards, so it cannot depend on the
 *    shard partition or summation order.
 *  - Admission runs serially inside the (single-threaded) event
 *    loop's arrival event, in tenant-rank order, before any shard
 *    assignment — decisions are shard-independent by construction.
 *  - The fleet engine consumes the shard-independent aggregate, so
 *    its published intensity is too. Parallelism (materialization
 *    and per-shard engine computes via fairco2::parallel) only
 *    touches shard-local state.
 *
 * Per-*shard* signals are attributed for observability (each shard's
 * slice of the window pool, split by integer usage share); they
 * depend on the shard partition by identity — at S=1 the shard
 * signal equals the fleet signal, which the tests pin down.
 *
 * ## Timing
 *
 * Each period p takes two event-loop ticks: arrivals at tick 2p
 * (admission + shard inbox routing), close at tick 2p+1
 * (materialize, ingest, attribute, publish). The close watermark is
 * maxBatchPeriods + 1 periods: period q closes at p = q + watermark,
 * by which time every batch covering q — including one admission
 * deferral — has arrived, so admission can only *drop* telemetry,
 * never reorder it.
 *
 * ## Durability (`--wal-dir`)
 *
 * With a WAL directory configured, every arrival tick appends one
 * durability::WalTickRecord — admitted batches, deferrals, and the
 * admission/governor outcome — in a single flushed write (group
 * commit per tick), sealing fixed-capacity segments with an atomic
 * tmp+rename. `--recover` replays an existing log by re-driving the
 * event loop from it: logged ticks are applied through
 * Replica::applyArrivalsReplay (with cross-checks that raise
 * WalIntegrityError on any divergence), so a server killed at any
 * tick republishes byte-identical signals. A torn tail is dropped at
 * the first bad checksum with a named diagnostic; damage to sealed
 * history is always an error. `--standby` keeps a second Replica in
 * lockstep by replaying sealed segments as they ship: each sync reads
 * the log from the standby's next record (durability::loadWalRange),
 * so every sealed segment is decoded once, and the `.open` tail only
 * on failover or the final drain. The fault plan's `primary-crash`
 * site kills the primary at a deterministic arrival tick and the
 * standby finishes catch-up from disk and takes over publishing with
 * no missing period and zero divergence. A periodic anti-entropy
 * scrub re-derives the window digests from the log and compares them
 * to the live replica's; it reads only the records that can reach
 * the window (the last windowPeriods + watermark + 1 periods) and
 * derives them on the parallel pool. The scrub therefore verifies the
 * segments it reads; `--recover` loads, and so verifies, all history.
 * `durability.scrub_ns` and `durability.standby.sync_ns` time both.
 *
 * ## Degradation
 *
 * A pipeline::OverloadGovernor watches per-period admission pressure
 * and walks Normal -> ShedFree (Free-tier batches rejected up front)
 * -> Proportional (published intensity degrades to the RUP baseline
 * while engines keep ingesting, so recovery is instant). The fault
 * plan's `cache-corrupt` key flips fleet-engine cache entries; the
 * resulting CacheIntegrityError is answered by rebuilding the fleet
 * engine from the retained window samples, and the republished
 * signal is identical to a fault-free run — memoization is an
 * optimization, never an input.
 */

#ifndef FAIRCO2_SERVER_SIGNALSERVER_HH
#define FAIRCO2_SERVER_SIGNALSERVER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "durability/wal.hh"
#include "server/eventloop.hh"
#include "server/replica.hh"
#include "server/tenants.hh"

namespace fairco2::server
{

/**
 * One published snapshot of the live signal. Trivially copyable on
 * purpose: this is the SnapshotCell payload wait-free readers copy.
 */
struct ServerSnapshot
{
    std::uint64_t version = 0; //!< publish count, starts at 1
    std::uint64_t period = 0;  //!< newest attributed period
    double fleetIntensity = 0.0;  //!< newest-period mean, g/res-s
    double fleetDemandUnits = 0.0; //!< newest period, total units
    std::uint64_t admitted = 0;   //!< running admission totals
    std::uint64_t deferred = 0;
    std::uint64_t rejected = 0;
    std::uint32_t overloadLevel = 0; //!< pipeline::OverloadLevel
    std::uint32_t shards = 0;
    /** Newest-period mean intensity per shard (slots >= shards are
     *  zero). */
    std::array<double, kMaxShards> shardIntensity{};
};

/** What one run produced, for reports and tests. */
struct ServerReport
{
    std::uint64_t periodsClosed = 0;
    std::uint64_t publishes = 0;
    AdmissionController::Totals admission;
    std::uint64_t batchesShed = 0;   //!< rejected by overload level
    std::uint64_t samplesIngested = 0;
    std::uint64_t eventsExecuted = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t engineRebuilds = 0;
    std::uint64_t overloadEscalations = 0;
    std::uint64_t overloadRecoveries = 0;
    std::uint32_t finalOverloadLevel = 0;
    double attributedGrams = 0.0; //!< fleet, summed over publishes
    /** Fleet newest-period mean intensity per publish — THE signal;
     *  the determinism golden compares this bit for bit. */
    std::vector<double> publishedIntensity;
    /** Absolute period index per publish. */
    std::vector<std::uint64_t> publishedPeriods;

    // --- durability (all zero/false when --wal-dir is off) ---
    std::uint64_t walRecords = 0;        //!< appended this run
    std::uint64_t walSegmentsSealed = 0; //!< sealed this run
    std::uint64_t walRawBytes = 0;       //!< record bytes pre-codec
    std::uint64_t walStoredBytes = 0;    //!< frame bytes on disk
    bool recovered = false;          //!< --recover replay happened
    std::uint64_t replayedRecords = 0; //!< log ticks re-driven
    bool droppedWalTail = false;     //!< torn tail suffix dropped
    std::string walTailDiagnostic;   //!< names the drop point
    std::uint64_t scrubRuns = 0;
    std::uint64_t scrubMismatches = 0;
    bool failedOver = false;         //!< primary-crash fired
    std::uint64_t failoverPeriod = 0; //!< arrival period it fired at
    std::uint64_t standbyReplayedRecords = 0;
    /** Publishes the standby reproduced and compared bitwise against
     *  the primary's (every one must match or the run aborts). */
    std::uint64_t standbyPublishChecks = 0;
    bool interrupted = false;        //!< SIGINT/SIGTERM drain

    // --- surrogate (all zero when --surrogate is off) ---
    std::uint64_t surrogateAccepts = 0; //!< fleet predictions shipped
    std::uint64_t surrogateRejects = 0; //!< guardrail fallbacks

    /** FNV-1a over the raw bytes of publishedIntensity — a compact
     *  bit-exactness fingerprint for goldens and CLI output. */
    std::uint64_t signalSignature() const;
};

/** The sharded live-signal server. */
class SignalServer
{
  public:
    /** Validates the config; throws std::invalid_argument on
     *  out-of-range values (front ends map that to exit 2). */
    explicit SignalServer(const ServerConfig &config);
    ~SignalServer();

    SignalServer(const SignalServer &) = delete;
    SignalServer &operator=(const SignalServer &) = delete;

    /**
     * Drive the event loop to completion: durationPeriods arrival
     * periods plus the drain tail. Call at most once per instance.
     * Readers may call snapshot()/currentIntensity() concurrently
     * from any thread while this runs. Throws
     * durability::WalIntegrityError on unusable or divergent WAL
     * state (front ends map that to exit 2 like any FatalDataError).
     */
    ServerReport run();

    /** Wait-free copy of the latest published snapshot. */
    ServerSnapshot snapshot() const { return cell_.read(); }

    /** Wait-free read of the latest fleet intensity (0 until the
     *  first window publishes). */
    double currentIntensity() const
    {
        return cell_.read().fleetIntensity;
    }

    const ServerConfig &config() const { return config_; }

    const TenantPopulation &population() const { return population_; }

    /** Snapshot publications so far. */
    std::uint64_t publishes() const { return cell_.publishes(); }

  private:
    Replica &active();
    void setupDurability();
    void handleArrivals(std::uint64_t period);
    void handleClose(std::uint64_t period);
    void publishOutcome(const Replica::CloseOutcome &outcome);
    void failover(std::uint64_t period);
    void syncStandbyFromDisk(bool sealed_only);
    void replayIntoStandby(const durability::WalTickRecord &record);
    void runScrub(std::uint64_t period);
    [[noreturn]] void killNow();

    ServerConfig config_;
    TenantPopulation population_;
    EventLoop loop_;
    std::unique_ptr<Replica> primary_;
    std::unique_ptr<Replica> standby_;
    std::unique_ptr<durability::WalWriter> wal_;
    std::uint64_t configHash_ = 0;
    /** Recovery: logged ticks to re-drive before live serving. */
    std::vector<durability::WalTickRecord> replay_;
    std::size_t replayNext_ = 0;
    /** Arrival ticks the primary has processed (replayed or live);
     *  the standby never replays past this. */
    std::uint64_t primaryRecords_ = 0;
    /** Records the standby has replayed (global record index). */
    std::uint64_t standbyConsumed_ = 0;
    /** Next primary publish index the standby must reproduce. */
    std::size_t standbyPublishIndex_ = 0;
    bool crashed_ = false; //!< primary-crash fired; standby serves
    bool halted_ = false;  //!< haltAtTick stopped the loop abruptly
    std::uint64_t watermark_ = 0;
    parallel::SnapshotCell<ServerSnapshot> cell_;
    ServerReport report_;
    bool ran_ = false;
};

} // namespace fairco2::server

#endif // FAIRCO2_SERVER_SIGNALSERVER_HH
