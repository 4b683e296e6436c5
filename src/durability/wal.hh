/**
 * @file
 * Write-ahead log for the live-signal server's arrival ticks.
 *
 * The serve event loop appends exactly one WalTickRecord per arrival
 * tick — the admitted telemetry batches, the batches deferred to the
 * next period, and the admission/governor outcome of the tick — in
 * one buffered write flushed before the tick's handler returns
 * (group commit per tick). A server killed at any tick can therefore
 * be rebuilt by re-driving the event loop from the log: the record
 * stream plus the deterministic tenant population reproduces shard
 * engines, seqlock snapshots, token buckets, and governor state bit
 * for bit (see server::Replica::applyArrivalsReplay).
 *
 * ## On-disk layout
 *
 * The log is a directory of fixed-capacity segments:
 *
 *     wal-000001.seg   sealed (immutable, complete)
 *     wal-000002.seg
 *     wal-000003.open  the active tail (append-only)
 *
 * Every segment starts with a header (magic "FC2W", format version,
 * config hash, first record index); records follow back to back:
 *
 *     raw_bytes    u32   serialized record size before the codec
 *     stored_bytes u32   bytes on disk (== raw_bytes for identity)
 *     codec        u8    cache::Codec id (identity | lz)
 *     payload      stored_bytes
 *     checksum     u64   resilience::fnv1a64 over the frame header +
 *                        payload, seeded with the non-standard
 *                        resilience::kChecksumBasis (not the FNV-1a
 *                        offset basis; see there)
 *
 * When a segment reaches its record capacity it is *sealed*: the
 * file is flushed and atomically renamed `.open` -> `.seg` (the same
 * tmp+rename discipline the checkpoint store uses), and the next
 * `.open` segment is created. Sealing is the replication unit — the
 * hot standby consumes sealed segments only, until failover.
 *
 * ## Integrity contract
 *
 * Sealed segments must parse completely: any truncation, bad magic,
 * config-hash mismatch, or checksum failure raises WalIntegrityError
 * — sealed history is never silently shortened. The `.open` tail is
 * different: a kill -9 can tear its last record, so the loader keeps
 * the longest valid record prefix and *drops* the tail from the
 * first bad checksum on, reporting a named diagnostic. Either way a
 * flipped byte surfaces as an error or a dropped suffix — never as a
 * wrong replayed value.
 *
 * ## Range reads
 *
 * The standby and the scrub need only a suffix of the log, so the
 * loader reads a record range (loadWalRange): it checks the header
 * of every segment (magic, version, config hash, segment index and
 * first-record order), reads and checksums only the segments that
 * overlap the range, and decodes only the records inside it. A full
 * load (loadWal, which `--recover` uses) is the range from record 0
 * and so verifies all history.
 */

#ifndef FAIRCO2_DURABILITY_WAL_HH
#define FAIRCO2_DURABILITY_WAL_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cache/backend.hh"
#include "common/errors.hh"

namespace fairco2::durability
{

/** Unusable WAL state (corrupt sealed segment, mismatched config,
 *  malformed directory); front ends exit 2. */
class WalIntegrityError : public FatalDataError
{
  public:
    explicit WalIntegrityError(const std::string &message)
        : FatalDataError(message)
    {
    }
};

/** WAL segment format version. Version 2 added the running
 *  surrogate accept/reject totals to every tick record. */
constexpr std::uint32_t kWalVersion = 2;

/** One telemetry batch as logged: mirrors server::BatchRef without
 *  depending on the server layer. */
struct WalBatch
{
    std::uint64_t tenant = 0;
    std::uint64_t period = 0;
    std::uint32_t coveredPeriods = 1;
    std::uint8_t deferred = 0;

    bool
    operator==(const WalBatch &other) const
    {
        return tenant == other.tenant && period == other.period &&
            coveredPeriods == other.coveredPeriods &&
            deferred == other.deferred;
    }
};

/** Everything one arrival tick decided, in decision order. */
struct WalTickRecord
{
    std::uint64_t period = 0;
    /** Admitted batches, in admission order. */
    std::vector<WalBatch> admitted;
    /** Batches deferred to the next period's arrival tick. */
    std::vector<WalBatch> deferredOut;
    /** This tick's admission deltas (offers that reached the token
     *  buckets; shed batches never do). */
    std::uint64_t offeredDelta = 0;
    std::uint64_t deferredDelta = 0;
    std::uint64_t rejectedDelta = 0;
    std::uint64_t shedDelta = 0;
    /** Cross-checks: running admission totals, per-class bucket
     *  tokens, and the governor level *after* the tick. Replay
     *  verifies these and raises WalIntegrityError on divergence. */
    std::uint64_t totalOffered = 0;
    std::uint64_t totalAdmitted = 0;
    std::uint64_t totalDeferred = 0;
    std::uint64_t totalRejected = 0;
    std::uint64_t bucketTokens[3] = {0, 0, 0};
    std::uint32_t overloadLevel = 0;
    /** Running fleet-engine surrogate decision totals *after* the
     *  tick. Replay re-drives the same guardrail evaluations and
     *  cross-checks these, so `--recover` provably reproduced every
     *  accept/reject decision (zeros when `--surrogate` is off). */
    std::uint64_t surrogateAccepts = 0;
    std::uint64_t surrogateRejects = 0;

    bool operator==(const WalTickRecord &other) const;
};

/** Serialize @p record (before any codec). */
std::vector<std::uint8_t> encodeRecord(const WalTickRecord &record);

/** Parse a serialized record; throws WalIntegrityError on malformed
 *  bytes (the checksum layer makes this unreachable for torn writes,
 *  but flipped bytes that survive framing land here). */
WalTickRecord decodeRecord(const std::vector<std::uint8_t> &bytes);

/** What loading a WAL directory produced. */
struct WalLoadResult
{
    /** The loaded records, in log order: record i is the log's
     *  record WalRange::first + i. */
    std::vector<WalTickRecord> records;
    std::uint64_t sealedSegments = 0;
    /** Valid records in the `.open` tail (0 when the tail was not
     *  read). */
    std::uint64_t tailRecords = 0;
    bool droppedTail = false;       //!< torn/corrupt tail suffix dropped
    std::string tailDiagnostic;     //!< names the segment + record
    /** Index the next segment should use (the tail's index when a
     *  tail exists, else one past the last sealed segment). */
    std::uint64_t nextSegmentIndex = 1;
};

/** The records a range read loads: global record indices
 *  [first, end), and whether the `.open` tail is read at all. */
struct WalRange
{
    std::uint64_t first = 0;
    std::uint64_t end = std::numeric_limits<std::uint64_t>::max();
    bool tail = true;
};

/**
 * Load the records of @p range from @p dir. Every segment's header is
 * checked; segments that overlap the range are read whole and every
 * frame's checksum is verified, but only records inside the range are
 * decoded (counted by the `durability.wal.records_decoded` counter).
 * Sealed-segment damage in a segment read throws WalIntegrityError;
 * tail damage truncates at the first bad record and reports the drop
 * in the result. Records older than the first overlapping segment are
 * not verified — only a load from record 0 verifies all history.
 */
WalLoadResult loadWalRange(const std::string &dir,
                           std::uint64_t config_hash,
                           const WalRange &range);

/**
 * Load every record from @p dir: sealed segments in index order,
 * then the `.open` tail — loadWalRange over the whole log. An empty
 * directory returns zero records.
 */
WalLoadResult loadWal(const std::string &dir,
                      std::uint64_t config_hash);

/** Path of segment @p index inside @p dir ("wal-%06llu" + suffix). */
std::string segmentPath(const std::string &dir, std::uint64_t index,
                        bool sealed);

/**
 * Preflight a `--wal-dir` value: create the directory when missing,
 * then probe it for writability. Returns an empty string when
 * usable, else a human-readable diagnostic (front ends print it and
 * exit 2 before the event loop starts).
 */
std::string walDirError(const std::string &dir);

/** Group-commit segment writer. Not thread-safe by design — appends
 *  happen inside the single-threaded event loop's arrival tick. Every
 *  write, flush and close is checked: a short write or a failed flush
 *  or close (a full disk, an I/O error) throws WalIntegrityError
 *  naming the segment and the system error. */
class WalWriter
{
  public:
    struct Options
    {
        std::string dir;
        std::uint64_t configHash = 0;
        cache::Codec codec = cache::Codec::Identity;
        /** Records per segment before the seal + rotate. */
        std::uint64_t segmentRecords = 16;
        /** First segment index to write (recovery adoption). */
        std::uint64_t firstSegmentIndex = 1;
        /** Global index of the first record this writer appends
         *  (recovery adoption; 0 for a fresh log). */
        std::uint64_t firstRecordIndex = 0;
        /** Called after a segment seals (standby shipping). */
        std::function<void(std::uint64_t index)> onSeal;
    };

    explicit WalWriter(const Options &options);
    ~WalWriter();

    WalWriter(const WalWriter &) = delete;
    WalWriter &operator=(const WalWriter &) = delete;

    /**
     * Rewrite the adopted tail: atomically replaces the `.open`
     * segment with @p records (tmp + rename), so recovery preserves
     * the valid tail prefix before new appends continue. Call before
     * the first append().
     */
    void adoptTail(const std::vector<WalTickRecord> &records);

    /** Append one tick's record and flush (the group commit). Seals
     *  and rotates when the segment reaches capacity. */
    void append(const WalTickRecord &record);

    /**
     * Seal the current tail segment (flush + atomic rename), even
     * when short — the clean-shutdown path. Idempotent; a later
     * append() starts the next segment.
     */
    void seal();

    /** Test hook: write half of @p record's frame and flush, leaving
     *  a torn tail exactly as a kill -9 mid-write would. */
    void appendTorn(const WalTickRecord &record);

    std::uint64_t recordsAppended() const { return records_; }
    std::uint64_t segmentsSealed() const { return sealed_; }
    /** Serialized record bytes before the codec. */
    std::uint64_t rawBytes() const { return rawBytes_; }
    /** Frame bytes actually written (headers + stored payloads). */
    std::uint64_t storedBytes() const { return storedBytes_; }

  private:
    void openSegment();
    void writeFrame(const WalTickRecord &record, bool torn);

    Options options_;
    std::FILE *file_ = nullptr;
    std::uint64_t segmentIndex_ = 0;   //!< current open segment
    std::uint64_t segmentRecords_ = 0; //!< records in it so far
    std::uint64_t records_ = 0;
    std::uint64_t sealed_ = 0;
    std::uint64_t rawBytes_ = 0;
    std::uint64_t storedBytes_ = 0;
};

/** Anti-entropy scrub digests: FNV-1a over the in-window per-period
 *  unit sums (fleet and per shard) plus the closed-period count. */
struct WindowDigests
{
    std::uint64_t fleet = 0;
    std::vector<std::uint64_t> shard;

    bool
    operator==(const WindowDigests &other) const
    {
        return fleet == other.fleet && shard == other.shard;
    }
};

/**
 * Re-derive the window digests purely from WAL records: accumulate
 * per-period unit sums from each admitted batch's covered periods
 * via @p unitsOf(tenant, period) — the caller binds the tenant
 * population's integer materialization — route shard sums by
 * `tenant % shards`, close periods up to
 * `lastPeriod - watermark`, and digest the last @p windowPeriods
 * closed sums. Matches server::Replica::windowDigests() on an
 * uncorrupted run by construction.
 *
 * Only the window's records are needed: a batch covers periods below
 * its own period, which is at most its record's, so records with
 * period <= lastPeriod - watermark - windowPeriods + 1 contribute
 * nothing, and a log suffix that ends at the same record gives the
 * same digests as the whole log. The unit sums are split into fixed
 * chunks of covered periods across parallel::parallelMapReduce, so
 * @p unitsOf is called concurrently from pool threads and must be
 * safe to; the integer sums make the result exact at any thread
 * count.
 */
WindowDigests deriveWindowDigests(
    const std::vector<WalTickRecord> &records, std::size_t shards,
    std::size_t window_periods, std::uint64_t watermark,
    const std::function<std::uint64_t(std::uint64_t tenant,
                                      std::uint64_t period)> &unitsOf);

/**
 * The anti-entropy scrub's side of the comparison at arrival period
 * @p period: range-read the records that can reach the window —
 * periods [period + 1 - (windowPeriods + watermark + 1), period],
 * record i being period i's arrival tick — from @p dir and derive
 * their digests. Equals deriveWindowDigests over the whole log cut
 * after record @p period, also while the log runs past the period
 * (recovery). Damage to a sealed segment the range reads throws
 * WalIntegrityError.
 */
WindowDigests scrubWindowDigests(
    const std::string &dir, std::uint64_t config_hash,
    std::uint64_t period, std::size_t shards,
    std::size_t window_periods, std::uint64_t watermark,
    const std::function<std::uint64_t(std::uint64_t tenant,
                                      std::uint64_t period)> &unitsOf);

/** The digest formula both sides share: FNV-1a over @p closed_periods
 *  then the window's per-period sums, oldest first. */
std::uint64_t windowSumDigest(std::uint64_t closed_periods,
                              const std::vector<std::uint64_t> &sums);

} // namespace fairco2::durability

#endif // FAIRCO2_DURABILITY_WAL_HH
