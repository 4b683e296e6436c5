/**
 * @file
 * Server-level durability tests: crash-identical replay recovery
 * (halt at any tick, recover, byte-identical published signal), the
 * recovery edge cases (empty log, only-sealed vs sealed + unsealed
 * tail), replay cross-check divergence, hot-standby lockstep and
 * primary-crash failover with no missing period and zero divergence,
 * the anti-entropy scrub, shard-independent replay, the SIGTERM
 * drain path, and the range reads behind the scrub and the standby
 * (differential against full-log derives, decode bound, verification
 * scope). Process-kill (`kill -9`) variants of the same contracts
 * run through the CLI harnesses in tools/ (wal_kill_sweep.sh).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/obs.hh"
#include "common/parallel.hh"
#include "durability/wal.hh"
#include "resilience/faultplan.hh"
#include "resilience/signals.hh"
#include "server/replica.hh"
#include "server/signalserver.hh"

namespace fairco2::server
{
namespace
{

namespace fs = std::filesystem;

/** Fresh per-test scratch WAL directory. */
std::string
walDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "fairco2_dur_" +
        name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A small serve shape that exercises deferrals, rejects, and
 *  several governor transitions. */
ServerConfig
durableConfig()
{
    ServerConfig config;
    config.tenants = 160;
    config.shards = 2;
    config.admissionRate = 48; // forces deferrals + sheds
    config.durationPeriods = 16;
    config.windowPeriods = 4;
    config.periodSamples = 6;
    config.maxBatchPeriods = 4; // watermark 5
    config.durability.walSegmentRecords = 6;
    config.durability.scrubPeriods = 5;
    return config;
}

ServerReport
runServer(const ServerConfig &config)
{
    SignalServer server(config);
    return server.run();
}

void
expectSameSignal(const ServerReport &got, const ServerReport &want)
{
    ASSERT_EQ(got.publishedIntensity.size(),
              want.publishedIntensity.size());
    ASSERT_FALSE(want.publishedIntensity.empty());
    EXPECT_EQ(0,
              std::memcmp(got.publishedIntensity.data(),
                          want.publishedIntensity.data(),
                          want.publishedIntensity.size() *
                              sizeof(double)));
    EXPECT_EQ(got.publishedPeriods, want.publishedPeriods);
    EXPECT_EQ(got.signalSignature(), want.signalSignature());
}

// ---- WAL-on runs vs the plain server -------------------------------

TEST(Durability, WalLeavesTheSignalUntouched)
{
    ServerConfig plain = durableConfig();
    const ServerReport baseline = runServer(plain);

    ServerConfig logged = durableConfig();
    logged.durability.walDir = walDir("untouched");
    const ServerReport report = runServer(logged);

    expectSameSignal(report, baseline);
    // One record per arrival tick, drain tail included.
    const std::uint64_t horizon =
        logged.durationPeriods + logged.maxBatchPeriods + 1;
    EXPECT_EQ(report.walRecords, horizon);
    EXPECT_GT(report.walSegmentsSealed, 0u);
    EXPECT_GT(report.scrubRuns, 0u);
    EXPECT_EQ(report.scrubMismatches, 0u);
    // Clean shutdown seals the tail: nothing `.open` remains.
    const auto load = durability::loadWal(
        logged.durability.walDir, serverConfigHash(logged));
    EXPECT_EQ(load.records.size(), horizon);
    EXPECT_EQ(load.tailRecords, 0u);
}

TEST(Durability, CompressedWalReplaysIdentically)
{
    ServerConfig identity = durableConfig();
    identity.durability.walDir = walDir("codec_id");
    const ServerReport plain = runServer(identity);

    ServerConfig lz = durableConfig();
    lz.durability.walDir = walDir("codec_lz");
    lz.durability.walCodec = cache::Codec::Lz;
    const ServerReport compressed = runServer(lz);

    expectSameSignal(compressed, plain);
    EXPECT_EQ(compressed.walRawBytes, plain.walRawBytes);
    EXPECT_LT(compressed.walStoredBytes, plain.walStoredBytes);

    ServerConfig recover = durableConfig();
    recover.durability.walDir = lz.durability.walDir;
    recover.durability.recover = true;
    expectSameSignal(runServer(recover), plain);
}

// ---- Crash-identical replay recovery -------------------------------

TEST(Durability, HaltAtEveryTickRecoversByteIdentical)
{
    const ServerReport baseline = runServer(durableConfig());
    const std::uint64_t watermark = durableConfig().maxBatchPeriods +
        1;
    const std::uint64_t horizon =
        durableConfig().durationPeriods + watermark;

    // The in-process kill sweep: stop abruptly (no tail seal) after
    // every tick of the run, then recover from the log and demand a
    // byte-identical published signal. The process-kill flavor of
    // this sweep lives in tools/wal_kill_sweep.sh.
    for (std::uint64_t tick = 0; tick < 2 * horizon; ++tick) {
        ServerConfig crashed = durableConfig();
        crashed.durability.walDir =
            walDir("sweep_" + std::to_string(tick));
        crashed.durability.haltAtTick = tick;
        const ServerReport partial = runServer(crashed);
        ASSERT_LE(partial.publishedIntensity.size(),
                  baseline.publishedIntensity.size());

        ServerConfig recover = durableConfig();
        recover.durability.walDir = crashed.durability.walDir;
        recover.durability.recover = true;
        const ServerReport report = runServer(recover);
        ASSERT_TRUE(report.recovered);
        EXPECT_EQ(report.replayedRecords, tick / 2 + 1);
        expectSameSignal(report, baseline);
        fs::remove_all(crashed.durability.walDir);
    }
}

TEST(Durability, RecoverFromEmptyWalDirServesNormally)
{
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("empty");
    config.durability.recover = true;
    const ServerReport report = runServer(config);
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.replayedRecords, 0u);
    expectSameSignal(report, runServer(durableConfig()));
}

TEST(Durability, RecoverOnlySealedSegments)
{
    // Halt exactly when a segment seals (6 records/segment; record p
    // appends at tick 2p, so tick 10 seals segment 1) and drop the
    // empty tail: recovery starts from sealed history alone.
    ServerConfig crashed = durableConfig();
    crashed.durability.walDir = walDir("sealed_only");
    crashed.durability.haltAtTick = 11;
    runServer(crashed);
    const std::string open_tail = durability::segmentPath(
        crashed.durability.walDir, 2, false);
    if (fs::exists(open_tail))
        fs::remove(open_tail);
    ASSERT_TRUE(fs::exists(durability::segmentPath(
        crashed.durability.walDir, 1, true)));

    ServerConfig recover = durableConfig();
    recover.durability.walDir = crashed.durability.walDir;
    recover.durability.recover = true;
    const ServerReport report = runServer(recover);
    EXPECT_EQ(report.replayedRecords, 6u);
    expectSameSignal(report, runServer(durableConfig()));
}

TEST(Durability, RecoverSealedPlusUnsealedTail)
{
    // Halt mid-segment: the log is sealed segments + an `.open` tail,
    // and recovery must consume both.
    ServerConfig crashed = durableConfig();
    crashed.durability.walDir = walDir("sealed_tail");
    crashed.durability.haltAtTick = 17; // 9 records: 6 sealed + 3
    runServer(crashed);
    const auto load = durability::loadWal(
        crashed.durability.walDir, serverConfigHash(crashed));
    ASSERT_EQ(load.records.size(), 9u);
    ASSERT_EQ(load.tailRecords, 3u);

    ServerConfig recover = durableConfig();
    recover.durability.walDir = crashed.durability.walDir;
    recover.durability.recover = true;
    const ServerReport report = runServer(recover);
    EXPECT_EQ(report.replayedRecords, 9u);
    expectSameSignal(report, runServer(durableConfig()));
}

TEST(Durability, RecoveredLogReplaysAtDifferentShardCount)
{
    // serverConfigHash deliberately excludes shards: the signal is
    // shard-independent, so a log written at --shards 2 must replay
    // byte-identical at --shards 4.
    ServerConfig crashed = durableConfig();
    crashed.durability.walDir = walDir("reshard");
    crashed.durability.haltAtTick = 13;
    runServer(crashed);

    ServerConfig recover = durableConfig();
    recover.shards = 4;
    recover.durability.walDir = crashed.durability.walDir;
    recover.durability.recover = true;
    expectSameSignal(runServer(recover), runServer(durableConfig()));
}

TEST(Durability, DirtyWalDirWithoutRecoverIsRefused)
{
    ServerConfig first = durableConfig();
    first.durability.walDir = walDir("dirty");
    runServer(first);

    ServerConfig again = durableConfig();
    again.durability.walDir = first.durability.walDir;
    EXPECT_THROW(runServer(again), durability::WalIntegrityError);
}

TEST(Durability, ReplayCrossCheckCatchesTamperedDecisions)
{
    // Rewrite the log with one record's token-bucket cross-check off
    // by one: every frame checksum is valid, so only the replay-time
    // state comparison can catch it — and it must.
    ServerConfig crashed = durableConfig();
    crashed.durability.walDir = walDir("tamper");
    crashed.durability.haltAtTick = 15;
    runServer(crashed);
    const std::uint64_t hash = serverConfigHash(crashed);
    auto load = durability::loadWal(crashed.durability.walDir, hash);
    ASSERT_GT(load.records.size(), 3u);
    load.records[3].bucketTokens[0] += 1;

    const std::string rewritten = walDir("tamper_rewrite");
    {
        durability::WalWriter::Options options;
        options.dir = rewritten;
        options.configHash = hash;
        durability::WalWriter writer(options);
        for (const auto &record : load.records)
            writer.append(record);
    }
    ServerConfig recover = durableConfig();
    recover.durability.walDir = rewritten;
    recover.durability.recover = true;
    try {
        runServer(recover);
        FAIL() << "tampered wal replayed without divergence";
    } catch (const durability::WalIntegrityError &error) {
        EXPECT_NE(std::string(error.what()).find("diverged"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Durability, ConfigHashMismatchRefusesReplay)
{
    ServerConfig first = durableConfig();
    first.durability.walDir = walDir("confhash");
    runServer(first);

    ServerConfig other = durableConfig();
    other.seed = first.seed + 1; // signal-bearing field
    other.durability.walDir = first.durability.walDir;
    other.durability.recover = true;
    EXPECT_THROW(runServer(other), durability::WalIntegrityError);
}

// ---- Hot standby + failover ----------------------------------------

TEST(Durability, StandbyStaysInLockstep)
{
    const ServerReport baseline = runServer(durableConfig());

    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("standby");
    config.durability.standby = true;
    const ServerReport report = runServer(config);

    expectSameSignal(report, baseline);
    EXPECT_FALSE(report.failedOver);
    // Final catch-up replays the whole log and reproduces (and
    // bitwise-checks) every primary publish.
    EXPECT_EQ(report.standbyReplayedRecords, report.walRecords);
    EXPECT_EQ(report.standbyPublishChecks, report.publishes);
}

TEST(Durability, FailoverHasNoGapAndZeroDivergence)
{
    const ServerReport baseline = runServer(durableConfig());

    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("failover");
    config.durability.standby = true;
    config.faultPlan =
        resilience::FaultPlan::parse("primary-crash=0.08");
    const ServerReport report = runServer(config);

    ASSERT_TRUE(report.failedOver);
    // The standby's catch-up + takeover republished every period the
    // primary would have: no missing period, bit-identical signal
    // (failover itself throws on a publish gap; the signal comparison
    // pins down zero divergence end to end).
    expectSameSignal(report, baseline);
    EXPECT_GE(report.faultsInjected, 1u);
}

TEST(Durability, FailoverPeriodIsDeterministic)
{
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("failover_det1");
    config.durability.standby = true;
    config.faultPlan =
        resilience::FaultPlan::parse("primary-crash=0.08");
    const ServerReport first = runServer(config);
    ASSERT_TRUE(first.failedOver);

    config.durability.walDir = walDir("failover_det2");
    const ServerReport second = runServer(config);
    ASSERT_TRUE(second.failedOver);
    EXPECT_EQ(first.failoverPeriod, second.failoverPeriod);
}

TEST(Durability, StandbyRecoveredRunStillFailsOver)
{
    // Crash the primary process (in-process halt) mid-run, then
    // recover with the standby + primary-crash plan still armed: the
    // recovered run must replay, then fail over, and still publish
    // the baseline signal.
    const ServerReport baseline = runServer(durableConfig());

    ServerConfig crashed = durableConfig();
    crashed.durability.walDir = walDir("standby_recover");
    crashed.durability.standby = true;
    crashed.faultPlan =
        resilience::FaultPlan::parse("primary-crash=0.02");
    crashed.durability.haltAtTick = 6;
    runServer(crashed);

    ServerConfig recover = crashed;
    recover.durability.haltAtTick = kNoTick;
    recover.durability.recover = true;
    const ServerReport report = runServer(recover);
    ASSERT_TRUE(report.recovered);
    expectSameSignal(report, baseline);
}

// ---- Anti-entropy scrub --------------------------------------------

TEST(Durability, ScrubDigestsMatchTheLiveReplica)
{
    // Every scheduled scrub ran and none mismatched (a mismatch
    // throws, so completing the run is itself the assertion — the
    // counters prove the scrub actually executed).
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("scrub");
    config.durability.scrubPeriods = 3;
    const ServerReport report = runServer(config);
    const std::uint64_t watermark = config.maxBatchPeriods + 1;
    const std::uint64_t horizon = config.durationPeriods + watermark;
    EXPECT_EQ(report.scrubRuns, (horizon - 1) / 3);
    EXPECT_EQ(report.scrubMismatches, 0u);
}

TEST(Durability, ScrubDisabledByZeroPeriod)
{
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("noscrub");
    config.durability.scrubPeriods = 0;
    EXPECT_EQ(runServer(config).scrubRuns, 0u);
}

// ---- Signal drain (SIGTERM/SIGINT) ---------------------------------

TEST(Durability, SigtermDrainsSealsAndRecovers)
{
    resilience::resetShutdownForTest();
    resilience::installShutdownHandler();
    std::raise(SIGTERM);

    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("sigterm");
    const ServerReport report = runServer(config);
    resilience::resetShutdownForTest();

    EXPECT_TRUE(report.interrupted);
    // The drain sealed the tail: no `.open` segment survives ...
    const auto load = durability::loadWal(
        config.durability.walDir, serverConfigHash(config));
    EXPECT_EQ(load.tailRecords, 0u);
    // ... and the sealed log recovers into the full baseline run.
    ServerConfig recover = durableConfig();
    recover.durability.walDir = config.durability.walDir;
    recover.durability.recover = true;
    expectSameSignal(runServer(recover), runServer(durableConfig()));
}

// ---- Range reads: scrub and standby --------------------------------

/** What a scrub derives from, as the server binds it: the tenant's
 *  materialized units for a period, summed. */
std::function<std::uint64_t(std::uint64_t, std::uint64_t)>
unitsOf(const TenantPopulation &population)
{
    return [&population](std::uint64_t tenant, std::uint64_t period) {
        std::uint64_t units = 0;
        for (std::uint64_t sample :
             population.materializePeriod(tenant, period))
            units += sample;
        return units;
    };
}

/**
 * At every scrub point of @p config whose record is on its log, the
 * scrub's range-read derive must equal deriveWindowDigests over the
 * whole log cut after that record. Returns the points checked.
 */
std::size_t
expectScrubReadsMatchFullLog(const ServerConfig &config)
{
    const SignalServer server(config); // for its tenant population
    const auto units = unitsOf(server.population());
    const std::string &dir = config.durability.walDir;
    const std::uint64_t hash = serverConfigHash(config);
    const std::uint64_t watermark = config.maxBatchPeriods + 1;
    const auto full = durability::loadWal(dir, hash);
    std::size_t checked = 0;
    for (std::uint64_t p = config.durability.scrubPeriods;
         p < full.records.size(); p += config.durability.scrubPeriods) {
        const std::vector<durability::WalTickRecord> cut(
            full.records.begin(),
            full.records.begin() + static_cast<std::ptrdiff_t>(p + 1));
        EXPECT_TRUE(durability::scrubWindowDigests(
                        dir, hash, p, config.shards,
                        config.windowPeriods, watermark, units) ==
                    durability::deriveWindowDigests(
                        cut, config.shards, config.windowPeriods,
                        watermark, units))
            << "scrub at period " << p;
        ++checked;
    }
    return checked;
}

/** Flip every bit of the byte @p from_end bytes before the end of
 *  @p path. */
void
flipByteFromEnd(const std::string &path, std::uintmax_t from_end)
{
    std::fstream file(path, std::ios::in | std::ios::out |
                                std::ios::binary);
    const auto offset =
        static_cast<std::streamoff>(fs::file_size(path) - from_end);
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(~byte);
    file.seekp(offset);
    file.write(&byte, 1);
}

TEST(Durability, ScrubRangeReadsMatchOnUnevenSegments)
{
    // Halt mid-segment (9 records: 6 sealed + 3 in the tail), then a
    // SIGTERM at the recovered run's first tick seals those 3 as a
    // short segment, then a second recovery finishes the run: the
    // log's segments hold 6, 3, 6, 6 records.
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("range_uneven");
    config.durability.haltAtTick = 17;
    runServer(config);

    config.durability.haltAtTick = kNoTick;
    config.durability.recover = true;
    resilience::resetShutdownForTest();
    resilience::installShutdownHandler();
    std::raise(SIGTERM);
    const ServerReport drained = runServer(config);
    resilience::resetShutdownForTest();
    ASSERT_TRUE(drained.interrupted);
    const auto load = durability::loadWal(config.durability.walDir,
                                          serverConfigHash(config));
    ASSERT_EQ(load.records.size(), 9u);
    ASSERT_EQ(load.sealedSegments, 2u);
    ASSERT_EQ(load.tailRecords, 0u);

    const ServerReport report = runServer(config);
    expectSameSignal(report, runServer(durableConfig()));
    EXPECT_GT(report.scrubRuns, 0u);
    EXPECT_EQ(report.scrubMismatches, 0u);
    EXPECT_EQ(expectScrubReadsMatchFullLog(config), 4u);
}

TEST(Durability, ScrubRangeReadsMatchWhileTheLogRunsAhead)
{
    // A log of 20 records (halted at period 19's arrival tick) runs
    // ahead of a recovering loop through the scrubs at 5, 10 and 15.
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("range_ahead");
    config.durability.haltAtTick = 38;
    runServer(config);
    EXPECT_EQ(expectScrubReadsMatchFullLog(config), 3u);

    config.durability.haltAtTick = kNoTick;
    config.durability.recover = true;
    const ServerReport report = runServer(config);
    EXPECT_EQ(report.replayedRecords, 20u);
    expectSameSignal(report, runServer(durableConfig()));
    const std::uint64_t horizon =
        config.durationPeriods + config.maxBatchPeriods + 1;
    EXPECT_EQ(report.scrubRuns,
              (horizon - 1) / config.durability.scrubPeriods);
    EXPECT_EQ(report.scrubMismatches, 0u);
}

TEST(Durability, FailoverCatchUpReadsANonEmptyTail)
{
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("range_failover");
    config.durability.standby = true;
    config.faultPlan =
        resilience::FaultPlan::parse("primary-crash=0.08");
    const ServerReport report = runServer(config);
    ASSERT_TRUE(report.failedOver);
    // The crash fires before period P's append, so records 0..P-1
    // are on disk and the tail holds P mod segment-capacity of them.
    ASSERT_NE(report.failoverPeriod %
                  config.durability.walSegmentRecords,
              0u);
    EXPECT_EQ(report.standbyReplayedRecords, report.failoverPeriod);
    expectSameSignal(report, runServer(durableConfig()));
    EXPECT_EQ(expectScrubReadsMatchFullLog(config), 4u);
}

TEST(Durability, StandbyReplaysEachRecordOnceAtThreeThreads)
{
    // Enough tenants that each scrub's derive spans several chunks
    // of the parallel pool.
    ServerConfig plain = durableConfig();
    plain.tenants = 2000;
    const ServerReport baseline = runServer(plain);
    const std::size_t saved = parallel::threadCount();
    parallel::setThreadCount(3);
    ServerConfig config = plain;
    config.durability.walDir = walDir("range_threads");
    config.durability.standby = true;
    const ServerReport report = runServer(config);
    parallel::setThreadCount(saved);

    EXPECT_EQ(report.standbyReplayedRecords, report.walRecords);
    EXPECT_EQ(report.standbyPublishChecks, report.publishes);
    EXPECT_EQ(report.scrubMismatches, 0u);
    expectSameSignal(report, baseline);
}

TEST(Durability, ServeDurableShapeDecodesEachRecordAFewTimes)
{
    // The benchmark's durable shape with fewer tenants (the decode
    // count does not depend on them): 400 periods, an LZ WAL of 16
    // records per segment, a scrub every 8 periods, a hot standby.
    ServerConfig config;
    config.tenants = 300;
    config.shards = 4;
    config.zipfS = 1.1;
    config.admissionRate = 0;
    config.windowPeriods = 8;
    config.periodSamples = 12;
    config.durationPeriods = 400;
    config.durability.walDir = walDir("range_decode_bound");
    config.durability.walCodec = cache::Codec::Lz;
    config.durability.walSegmentRecords = 16;
    config.durability.scrubPeriods = 8;
    config.durability.standby = true;
    obs::resetForTest();
    obs::setEnabled(true);
    const ServerReport report = runServer(config);
    const std::uint64_t decoded =
        obs::counter("durability.wal.records_decoded").value();
    obs::resetForTest();

    ASSERT_GT(report.scrubRuns, 0u);
    // The standby decodes every record once; each scrub adds its
    // window's reach. A whole-log reload per scrub and per seal
    // decodes about 40 times the log.
    EXPECT_GE(decoded, report.walRecords);
    EXPECT_LE(decoded, 4 * report.walRecords)
        << decoded << " records decoded for " << report.walRecords;
}

TEST(Durability, ScrubVerifiesItsRangeAndRecoverVerifiesAllHistory)
{
    // A finished log: segments of 6 records, 21 records in all; the
    // scrub at period 20 reads records 11-20 (segments 2-4).
    ServerConfig config = durableConfig();
    config.durability.walDir = walDir("range_scope");
    runServer(config);
    const std::string &dir = config.durability.walDir;
    const std::uint64_t hash = serverConfigHash(config);
    const std::uint64_t watermark = config.maxBatchPeriods + 1;
    const SignalServer server(config);
    const auto units = unitsOf(server.population());
    const auto scrub = [&] {
        return durability::scrubWindowDigests(
            dir, hash, 20, config.shards, config.windowPeriods,
            watermark, units);
    };
    const durability::WindowDigests clean = scrub();

    // Damage to a segment the scrub reads raises from the scrub ...
    const std::string copy = walDir("range_scope_copy");
    fs::remove_all(copy);
    fs::copy(dir, copy);
    flipByteFromEnd(durability::segmentPath(dir, 3, true), 20);
    EXPECT_THROW(scrub(), durability::WalIntegrityError);

    // ... while damage to history already shipped is outside the
    // scrub's range, and `--recover` (a full load) refuses it.
    flipByteFromEnd(durability::segmentPath(copy, 1, true), 20);
    EXPECT_TRUE(durability::scrubWindowDigests(
                    copy, hash, 20, config.shards,
                    config.windowPeriods, watermark, units) == clean);
    ServerConfig recover = durableConfig();
    recover.durability.walDir = copy;
    recover.durability.recover = true;
    EXPECT_THROW(runServer(recover), durability::WalIntegrityError);
}

// ---- Config validation ---------------------------------------------

TEST(Durability, DurabilityFlagsRequireAWalDir)
{
    ServerConfig config = durableConfig();
    config.durability.recover = true;
    EXPECT_THROW(SignalServer{config}, std::invalid_argument);

    config = durableConfig();
    config.durability.standby = true;
    EXPECT_THROW(SignalServer{config}, std::invalid_argument);

    config = durableConfig();
    config.durability.killTorn = true;
    EXPECT_THROW(SignalServer{config}, std::invalid_argument);

    config = durableConfig();
    config.durability.walDir = walDir("validate");
    config.durability.walSegmentRecords = 0;
    EXPECT_THROW(SignalServer{config}, std::invalid_argument);
}

TEST(Durability, ConfigHashIgnoresDeploymentShape)
{
    const ServerConfig base = durableConfig();
    const std::uint64_t hash = serverConfigHash(base);

    ServerConfig other = base;
    other.shards = 8;
    other.cacheCapacity = 16;
    EXPECT_EQ(serverConfigHash(other), hash);

    other = base;
    other.admissionRate += 1;
    EXPECT_NE(serverConfigHash(other), hash);
    other = base;
    other.seed += 1;
    EXPECT_NE(serverConfigHash(other), hash);
    other = base;
    other.faultPlan =
        resilience::FaultPlan::parse("primary-crash=0.5");
    EXPECT_NE(serverConfigHash(other), hash);
}

} // namespace
} // namespace fairco2::server
