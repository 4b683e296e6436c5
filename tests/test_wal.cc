/**
 * @file
 * Tests for the durability write-ahead log: frame round-trips,
 * segment rotation and atomic sealing, group-commit visibility, the
 * integrity taxonomy (sealed damage always throws; tail damage drops
 * the torn suffix with a named diagnostic and never yields a wrong
 * value), tail adoption on recovery, the compression codec path, and
 * the scrub digest helpers.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/backend.hh"
#include "common/obs.hh"
#include "durability/wal.hh"

namespace fairco2::durability
{
namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kHash = 0x1234abcd5678ef01ULL;

/** Fresh per-test scratch directory. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "fairco2_wal_" +
        name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A deterministic, non-trivial record for period @p period. */
WalTickRecord
makeRecord(std::uint64_t period, std::size_t batches = 3)
{
    WalTickRecord record;
    record.period = period;
    for (std::size_t i = 0; i < batches; ++i) {
        WalBatch batch;
        batch.tenant = period * 10 + i;
        batch.period = period;
        batch.coveredPeriods = static_cast<std::uint32_t>(1 + i % 3);
        batch.deferred = i % 2;
        record.admitted.push_back(batch);
    }
    WalBatch deferred;
    deferred.tenant = period + 1000;
    deferred.period = period;
    deferred.deferred = 1;
    record.deferredOut.push_back(deferred);
    record.offeredDelta = batches + 2;
    record.deferredDelta = 1;
    record.rejectedDelta = 1;
    record.shedDelta = period % 2;
    record.totalOffered = (period + 1) * (batches + 2);
    record.totalAdmitted = (period + 1) * batches;
    record.totalDeferred = period + 1;
    record.totalRejected = period + 1;
    record.bucketTokens[0] = 7;
    record.bucketTokens[1] = 5;
    record.bucketTokens[2] = period;
    record.overloadLevel = static_cast<std::uint32_t>(period % 3);
    return record;
}

std::vector<WalTickRecord>
writeLog(const std::string &dir, std::size_t count,
         std::uint64_t segment_records,
         cache::Codec codec = cache::Codec::Identity,
         bool seal_tail = false)
{
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.codec = codec;
    options.segmentRecords = segment_records;
    WalWriter writer(options);
    std::vector<WalTickRecord> records;
    for (std::size_t i = 0; i < count; ++i) {
        records.push_back(makeRecord(i));
        writer.append(records.back());
    }
    if (seal_tail)
        writer.seal();
    return records;
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

/**
 * A log of uneven segments, as a drain followed by recovery leaves
 * one: segment 1 is sealed short (records 0-1), segments 2 and 3 are
 * full (2-5, 6-9), and the `.open` tail holds record 10.
 */
std::vector<WalTickRecord>
writeUnevenLog(const std::string &dir,
               cache::Codec codec = cache::Codec::Identity)
{
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.codec = codec;
    options.segmentRecords = 4;
    WalWriter writer(options);
    std::vector<WalTickRecord> records;
    for (std::size_t i = 0; i < 11; ++i) {
        records.push_back(makeRecord(i));
        writer.append(records.back());
        if (i == 1)
            writer.seal();
    }
    return records;
}

TEST(WalRecord, RoundTripsThroughEncode)
{
    const WalTickRecord record = makeRecord(17, 5);
    const auto bytes = encodeRecord(record);
    EXPECT_EQ(decodeRecord(bytes), record);
}

TEST(WalRecord, RejectsTrailingBytes)
{
    auto bytes = encodeRecord(makeRecord(2));
    bytes.push_back(0);
    EXPECT_THROW(decodeRecord(bytes), WalIntegrityError);
}

TEST(WalWriter, RotatesAndSealsAtCapacity)
{
    const std::string dir = scratchDir("rotate");
    const auto records = writeLog(dir, 10, 4);

    EXPECT_TRUE(fs::exists(segmentPath(dir, 1, true)));
    EXPECT_TRUE(fs::exists(segmentPath(dir, 2, true)));
    EXPECT_TRUE(fs::exists(segmentPath(dir, 3, false)));
    EXPECT_FALSE(fs::exists(segmentPath(dir, 3, true)));

    const WalLoadResult load = loadWal(dir, kHash);
    ASSERT_EQ(load.records.size(), 10u);
    EXPECT_EQ(load.sealedSegments, 2u);
    EXPECT_EQ(load.tailRecords, 2u);
    EXPECT_FALSE(load.droppedTail);
    EXPECT_EQ(load.nextSegmentIndex, 3u);
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(load.records[i], records[i]) << "record " << i;
}

TEST(WalWriter, GroupCommitIsVisibleWithoutSeal)
{
    const std::string dir = scratchDir("groupcommit");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    WalWriter writer(options);
    writer.append(makeRecord(0));
    // No seal, writer still open: the flushed tail must already be
    // readable — this is what makes kill -9 at any tick recoverable.
    const WalLoadResult load = loadWal(dir, kHash);
    ASSERT_EQ(load.records.size(), 1u);
    EXPECT_EQ(load.records[0], makeRecord(0));
}

TEST(WalWriter, CleanSealLeavesNoTail)
{
    const std::string dir = scratchDir("cleanseal");
    writeLog(dir, 6, 4, cache::Codec::Identity, true);
    const WalLoadResult load = loadWal(dir, kHash);
    EXPECT_EQ(load.records.size(), 6u);
    EXPECT_EQ(load.sealedSegments, 2u); // 4 + a short sealed tail
    EXPECT_EQ(load.tailRecords, 0u);
    EXPECT_EQ(load.nextSegmentIndex, 3u);
}

TEST(WalWriter, SealCountsSkipEmptySegments)
{
    const std::string dir = scratchDir("sealempty");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    WalWriter writer(options);
    writer.seal(); // nothing written: must be a no-op
    EXPECT_EQ(writer.segmentsSealed(), 0u);
    EXPECT_TRUE(loadWal(dir, kHash).records.empty());
}

TEST(WalLoad, EmptyDirectoryHoldsNoRecords)
{
    const std::string dir = scratchDir("empty");
    const WalLoadResult load = loadWal(dir, kHash);
    EXPECT_TRUE(load.records.empty());
    EXPECT_EQ(load.sealedSegments, 0u);
    EXPECT_EQ(load.nextSegmentIndex, 1u);
}

TEST(WalLoad, TornAppendDropsOnlyTheTornRecord)
{
    const std::string dir = scratchDir("torn");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.segmentRecords = 16;
    WalWriter writer(options);
    for (std::uint64_t p = 0; p < 5; ++p)
        writer.append(makeRecord(p));
    writer.appendTorn(makeRecord(5));

    const WalLoadResult load = loadWal(dir, kHash);
    ASSERT_EQ(load.records.size(), 5u);
    EXPECT_TRUE(load.droppedTail);
    EXPECT_NE(load.tailDiagnostic.find("dropped torn wal tail"),
              std::string::npos)
        << load.tailDiagnostic;
    EXPECT_NE(load.tailDiagnostic.find("record 5"),
              std::string::npos)
        << load.tailDiagnostic;
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(load.records[i], makeRecord(i));
}

TEST(WalLoad, FlippedTailByteDropsSuffixNeverAWrongValue)
{
    const std::string dir = scratchDir("flip_tail");
    const auto records = writeLog(dir, 6, 16);
    const std::string tail = segmentPath(dir, 1, false);

    // Flip one payload byte in the middle of the tail: everything
    // before the damaged record survives, everything after drops.
    auto size = fs::file_size(tail);
    std::fstream file(tail, std::ios::in | std::ios::out |
                                std::ios::binary);
    file.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
    file.close();

    const WalLoadResult load = loadWal(dir, kHash);
    EXPECT_TRUE(load.droppedTail);
    EXPECT_LT(load.records.size(), 6u);
    for (std::size_t i = 0; i < load.records.size(); ++i)
        EXPECT_EQ(load.records[i], records[i]) << "record " << i;
}

TEST(WalLoad, FlippedSealedByteAlwaysThrows)
{
    const std::string dir = scratchDir("flip_sealed");
    writeLog(dir, 8, 4);
    const std::string sealed = segmentPath(dir, 1, true);
    auto size = fs::file_size(sealed);
    std::fstream file(sealed, std::ios::in | std::ios::out |
                                  std::ios::binary);
    file.seekp(static_cast<std::streamoff>(size - 20));
    const char byte = 0x5a;
    file.write(&byte, 1);
    file.close();

    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
    // A range read of the damaged segment alone refuses it too.
    WalRange first_segment;
    first_segment.end = 4;
    EXPECT_THROW(loadWalRange(dir, kHash, first_segment),
                 WalIntegrityError);
}

TEST(WalLoad, MissingSealedSegmentThrows)
{
    const std::string dir = scratchDir("gap");
    writeLog(dir, 10, 4);
    fs::remove(segmentPath(dir, 1, true));
    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
}

TEST(WalLoad, ConfigHashMismatchThrows)
{
    const std::string dir = scratchDir("hash");
    writeLog(dir, 2, 16);
    EXPECT_THROW(loadWal(dir, kHash + 1), WalIntegrityError);
}

TEST(WalLoad, TruncatedHeaderThrows)
{
    const std::string dir = scratchDir("header");
    writeLog(dir, 5, 4, cache::Codec::Identity, true);
    std::ofstream out(segmentPath(dir, 1, true),
                      std::ios::binary | std::ios::trunc);
    out << "FC";
    out.close();
    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
}

TEST(WalWriter, FullDiskAppendFailsNamingTheSegment)
{
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "needs /dev/full";
    // The tail segment is a link to a device whose writes fail with
    // ENOSPC: the group commit must fail loudly, not drop the tick.
    const std::string dir = scratchDir("fulldisk");
    const std::string tail = segmentPath(dir, 1, false);
    fs::create_symlink("/dev/full", tail);
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    WalWriter writer(options);
    try {
        writer.append(makeRecord(0));
        FAIL() << "an append to a full disk returned";
    } catch (const WalIntegrityError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(tail), std::string::npos) << what;
        EXPECT_NE(what.find(std::strerror(ENOSPC)), std::string::npos)
            << what;
    }
    EXPECT_EQ(writer.recordsAppended(), 0u);
}

TEST(WalWriter, FullDiskTailAdoptionFailsNamingTheSegment)
{
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "needs /dev/full";
    const std::string dir = scratchDir("fulldisk_adopt");
    const std::string tmp = segmentPath(dir, 1, false) + ".tmp";
    fs::create_symlink("/dev/full", tmp);
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    WalWriter writer(options);
    try {
        writer.adoptTail({makeRecord(0), makeRecord(1)});
        FAIL() << "adopting a tail on a full disk returned";
    } catch (const WalIntegrityError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(tmp), std::string::npos) << what;
        EXPECT_NE(what.find(std::strerror(ENOSPC)), std::string::npos)
            << what;
    }
    // The failed rewrite never replaced the tail.
    EXPECT_FALSE(fs::exists(segmentPath(dir, 1, false)));
}

TEST(WalRange, EveryRangeIsTheSliceOfTheFullLoad)
{
    const std::string dir = scratchDir("range_slices");
    const auto records = writeUnevenLog(dir);
    ASSERT_EQ(loadWal(dir, kHash).records, records);
    const std::uint64_t sealed_end = 10;
    const std::uint64_t n = records.size();
    for (std::uint64_t first = 0; first <= n + 1; ++first) {
        for (std::uint64_t end = first; end <= n + 2; ++end) {
            for (bool tail : {true, false}) {
                WalRange range;
                range.first = first;
                range.end = end == n + 2 ? range.end : end;
                range.tail = tail;
                const WalLoadResult load =
                    loadWalRange(dir, kHash, range);
                const std::uint64_t stop =
                    std::min(end, tail ? n : sealed_end);
                const std::vector<WalTickRecord> slice(
                    records.begin() +
                        static_cast<std::ptrdiff_t>(
                            std::min(first, stop)),
                    records.begin() +
                        static_cast<std::ptrdiff_t>(stop));
                EXPECT_EQ(load.records, slice)
                    << "range [" << first << ", " << end
                    << ") tail " << tail;
                EXPECT_EQ(load.sealedSegments, 3u);
                EXPECT_EQ(load.nextSegmentIndex, 4u);
            }
        }
    }
}

TEST(WalRange, DecodesOnlyTheRangeRecords)
{
    const std::string dir = scratchDir("range_decoded");
    writeUnevenLog(dir, cache::Codec::Lz);
    obs::resetForTest();
    obs::setEnabled(true);
    obs::Counter &decoded =
        obs::counter("durability.wal.records_decoded");
    WalRange range;
    range.first = 3;
    range.end = 7;
    EXPECT_EQ(loadWalRange(dir, kHash, range).records.size(), 4u);
    EXPECT_EQ(decoded.value(), 4u);
    EXPECT_EQ(loadWal(dir, kHash).records.size(), 11u);
    EXPECT_EQ(decoded.value(), 4u + 11u);
    obs::resetForTest();
}

TEST(WalRange, DamageIsSeenInsideTheRangeAndByAFullLoad)
{
    const std::string dir = scratchDir("range_damage");
    const auto records = writeUnevenLog(dir);
    flipByteFromEnd(segmentPath(dir, 2, true), 20); // records 2-5

    // A range that starts past the damaged segment does not read it.
    WalRange later;
    later.first = 6;
    const WalLoadResult load = loadWalRange(dir, kHash, later);
    EXPECT_EQ(load.records,
              std::vector<WalTickRecord>(records.begin() + 6,
                                         records.end()));
    // A range that reaches into it, and a full load, refuse it.
    WalRange reaching;
    reaching.first = 5;
    EXPECT_THROW(loadWalRange(dir, kHash, reaching),
                 WalIntegrityError);
    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
}

TEST(WalRange, SegmentHeadersOutOfOrderAreRefusedByEveryRange)
{
    // Swapping two sealed segments keeps the file names contiguous,
    // but their first-record headers now run backwards.
    const std::string dir = scratchDir("range_order");
    writeUnevenLog(dir);
    const std::string two = segmentPath(dir, 2, true);
    const std::string three = segmentPath(dir, 3, true);
    fs::rename(two, two + ".swap");
    fs::rename(three, two);
    fs::rename(two + ".swap", three);
    WalRange tail_only;
    tail_only.first = 10;
    EXPECT_THROW(loadWalRange(dir, kHash, tail_only),
                 WalIntegrityError);
    EXPECT_THROW(loadWal(dir, kHash), WalIntegrityError);
}

TEST(WalWriter, AdoptTailConvergesOnUninterruptedLayout)
{
    // A log torn mid-tail, then adopted and continued, must end up
    // byte-identical in content to one written without the crash.
    const std::string crashed = scratchDir("adopt_crashed");
    const std::string clean = scratchDir("adopt_clean");
    const auto all = writeLog(clean, 10, 4, cache::Codec::Identity,
                              true);

    {
        WalWriter::Options options;
        options.dir = crashed;
        options.configHash = kHash;
        options.segmentRecords = 4;
        WalWriter writer(options);
        for (std::uint64_t p = 0; p < 6; ++p)
            writer.append(makeRecord(p));
        writer.appendTorn(makeRecord(6));
    }
    const WalLoadResult partial = loadWal(crashed, kHash);
    ASSERT_EQ(partial.records.size(), 6u);
    ASSERT_TRUE(partial.droppedTail);

    WalWriter::Options options;
    options.dir = crashed;
    options.configHash = kHash;
    options.segmentRecords = 4;
    options.firstSegmentIndex = partial.nextSegmentIndex;
    options.firstRecordIndex =
        partial.records.size() - partial.tailRecords;
    WalWriter writer(options);
    writer.adoptTail(std::vector<WalTickRecord>(
        partial.records.end() -
            static_cast<std::ptrdiff_t>(partial.tailRecords),
        partial.records.end()));
    for (std::uint64_t p = 6; p < 10; ++p)
        writer.append(makeRecord(p));
    writer.seal();

    const WalLoadResult merged = loadWal(crashed, kHash);
    ASSERT_EQ(merged.records.size(), all.size());
    EXPECT_FALSE(merged.droppedTail);
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(merged.records[i], all[i]) << "record " << i;
    EXPECT_EQ(merged.sealedSegments,
              loadWal(clean, kHash).sealedSegments);
}

TEST(WalWriter, AdoptTailAfterAppendIsRejected)
{
    const std::string dir = scratchDir("adopt_late");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    WalWriter writer(options);
    writer.append(makeRecord(0));
    EXPECT_THROW(writer.adoptTail({makeRecord(0)}),
                 std::logic_error);
}

TEST(WalCodec, CompressedLogRoundTripsAndShrinks)
{
    const std::string compressed = scratchDir("lz");
    const std::string identity = scratchDir("ident");
    // Fat, repetitive records compress well.
    WalWriter::Options options;
    options.dir = compressed;
    options.configHash = kHash;
    options.codec = cache::Codec::Lz;
    WalWriter lz(options);
    options.dir = identity;
    options.codec = cache::Codec::Identity;
    WalWriter plain(options);
    std::vector<WalTickRecord> records;
    for (std::uint64_t p = 0; p < 6; ++p) {
        records.push_back(makeRecord(p, 64));
        lz.append(records.back());
        plain.append(records.back());
    }
    EXPECT_EQ(lz.rawBytes(), plain.rawBytes());
    EXPECT_LT(lz.storedBytes(), plain.storedBytes());

    const WalLoadResult load = loadWal(compressed, kHash);
    ASSERT_EQ(load.records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(load.records[i], records[i]) << "record " << i;
}

TEST(WalCodec, FlippedCompressedByteIsNeverAWrongValue)
{
    const std::string dir = scratchDir("lz_flip");
    WalWriter::Options options;
    options.dir = dir;
    options.configHash = kHash;
    options.codec = cache::Codec::Lz;
    WalWriter writer(options);
    for (std::uint64_t p = 0; p < 4; ++p)
        writer.append(makeRecord(p, 64));

    const std::string tail = segmentPath(dir, 1, false);
    const auto size = fs::file_size(tail);
    std::fstream file(tail, std::ios::in | std::ios::out |
                                std::ios::binary);
    file.seekp(static_cast<std::streamoff>(size / 3));
    const char byte = 0x13;
    file.write(&byte, 1);
    file.close();

    // Either the frame checksum catches it (suffix dropped) or —
    // never — a decoded record differs. Check both halves.
    const WalLoadResult load = loadWal(dir, kHash);
    EXPECT_TRUE(load.droppedTail);
    for (std::size_t i = 0; i < load.records.size(); ++i)
        EXPECT_EQ(load.records[i], makeRecord(i, 64));
}

TEST(WalDirError, ReportsFileInPlaceOfDirectory)
{
    const std::string path =
        ::testing::TempDir() + "fairco2_wal_notadir";
    std::ofstream(path, std::ios::trunc) << "x";
    EXPECT_NE(walDirError(path).find("not a directory"),
              std::string::npos);
    // And a path *under* a file cannot be created.
    EXPECT_FALSE(walDirError(path + "/sub").empty());
    fs::remove(path);
}

TEST(WalDirError, CreatesMissingDirectories)
{
    const std::string dir = scratchDir("mkdirs") + "/a/b";
    EXPECT_EQ(walDirError(dir), "");
    EXPECT_TRUE(fs::is_directory(dir));
}

TEST(WalDigest, EmptyWindowHashesTheClosedCount)
{
    // Zero closed periods still has a well-defined digest, and it
    // must differ from one closed period with an empty sum.
    const std::uint64_t none = windowSumDigest(0, {});
    EXPECT_NE(none, 0u);
    EXPECT_NE(none, windowSumDigest(1, {0}));

    const WindowDigests derived =
        deriveWindowDigests({}, 2, 4, 9, [](std::uint64_t,
                                            std::uint64_t) {
            return std::uint64_t{1};
        });
    EXPECT_EQ(derived.fleet, none);
    ASSERT_EQ(derived.shard.size(), 2u);
    EXPECT_EQ(derived.shard[0], none);
    EXPECT_EQ(derived.shard[1], none);
}

TEST(WalDigest, RoutesUnitsByTenantModShards)
{
    // One record, one admitted batch covering one closed period.
    WalTickRecord record;
    record.period = 9; // watermark 9 => period 0 closed
    WalBatch batch;
    batch.tenant = 3;
    batch.period = 1;
    batch.coveredPeriods = 1;
    record.admitted.push_back(batch);
    // covered period = 1 - 1 + 0 = 0, in-window.
    const auto units = [](std::uint64_t tenant, std::uint64_t) {
        return tenant * 100;
    };
    const WindowDigests derived =
        deriveWindowDigests({record}, 2, 4, 9, units);
    EXPECT_EQ(derived.fleet, windowSumDigest(1, {300}));
    EXPECT_EQ(derived.shard[0], windowSumDigest(1, {0}));
    EXPECT_EQ(derived.shard[1], windowSumDigest(1, {300}));
}

} // namespace
} // namespace fairco2::durability
