#include "durability/wal.hh"

#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <system_error>

#include "cache/compr_api.hh"
#include "common/obs.hh"
#include "common/parallel.hh"
#include "resilience/checkpoint.hh"

namespace fairco2::durability
{

namespace
{

namespace fs = std::filesystem;
using resilience::fnv1a64;

constexpr char kMagic[4] = {'F', 'C', '2', 'W'};
/** Segment header: magic + version + config hash + first record. */
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
/** Frame header: raw_bytes + stored_bytes + codec. */
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 1;
/** Covered periods per chunk of the parallel scrub derive: a few
 *  hundred microseconds of materialization each. */
constexpr std::size_t kDeriveChunk = 2048;
/** A record frame can never legitimately exceed this — anything
 *  larger is framing damage, not data. */
constexpr std::uint32_t kMaxRecordBytes = 1u << 28;

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Bounds-checked little-endian reads over a byte span. */
struct ByteReader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    bool
    need(std::size_t n) const
    {
        return pos + n <= size;
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            throw WalIntegrityError("wal record truncated mid-field");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            throw WalIntegrityError("wal record truncated mid-field");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
        return v;
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            throw WalIntegrityError("wal record truncated mid-field");
        return data[pos++];
    }
};

void
putBatches(std::vector<std::uint8_t> &out,
           const std::vector<WalBatch> &batches)
{
    putU32(out, static_cast<std::uint32_t>(batches.size()));
    for (const WalBatch &b : batches) {
        putU64(out, b.tenant);
        putU64(out, b.period);
        putU32(out, b.coveredPeriods);
        out.push_back(b.deferred);
    }
}

std::vector<WalBatch>
getBatches(ByteReader &in)
{
    const std::uint32_t n = in.u32();
    if (n > kMaxRecordBytes / 21)
        throw WalIntegrityError("wal record batch count " +
                                std::to_string(n) +
                                " is implausible");
    std::vector<WalBatch> batches(n);
    for (WalBatch &b : batches) {
        b.tenant = in.u64();
        b.period = in.u64();
        b.coveredPeriods = in.u32();
        b.deferred = in.u8();
    }
    return batches;
}

/** Codec dispatch over the cache compressor plug-ins. */
std::vector<std::uint8_t>
encodeBlob(cache::Codec codec, const std::vector<std::uint8_t> &raw)
{
    switch (codec) {
    case cache::Codec::Lz:
        return cache::LzCompr::compress(raw.data(), raw.size());
    case cache::Codec::Identity:
    default:
        return raw;
    }
}

std::vector<std::uint8_t>
decodeBlob(cache::Codec codec, const std::uint8_t *stored,
           std::size_t stored_size, std::size_t raw_size)
{
    std::vector<std::uint8_t> raw(raw_size);
    switch (codec) {
    case cache::Codec::Lz:
        cache::LzCompr::decompress(stored, stored_size, raw.data(),
                                   raw_size);
        break;
    case cache::Codec::Identity:
    default:
        cache::IdentityCompr::decompress(stored, stored_size,
                                         raw.data(), raw_size);
        break;
    }
    return raw;
}

std::vector<std::uint8_t>
headerBytes(std::uint64_t config_hash, std::uint64_t first_record)
{
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderBytes);
    out.insert(out.end(), kMagic, kMagic + 4);
    putU32(out, kWalVersion);
    putU64(out, config_hash);
    putU64(out, first_record);
    return out;
}

/** Serialize one frame (header + payload + checksum). */
std::vector<std::uint8_t>
frameBytes(const WalTickRecord &record, cache::Codec codec,
           std::uint64_t *raw_bytes)
{
    const std::vector<std::uint8_t> raw = encodeRecord(record);
    std::vector<std::uint8_t> stored = encodeBlob(codec, raw);
    // The codec is a capacity optimization, never an integrity
    // risk: when compression does not pay, store raw.
    cache::Codec used = codec;
    if (stored.size() >= raw.size()) {
        stored = raw;
        used = cache::Codec::Identity;
    }
    if (raw_bytes)
        *raw_bytes = raw.size();

    std::vector<std::uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + stored.size() + 8);
    putU32(frame, static_cast<std::uint32_t>(raw.size()));
    putU32(frame, static_cast<std::uint32_t>(stored.size()));
    frame.push_back(static_cast<std::uint8_t>(used));
    frame.insert(frame.end(), stored.begin(), stored.end());
    putU64(frame, fnv1a64(frame.data(), frame.size()));
    return frame;
}

/** Outcome of parsing one segment's record region. */
struct SegmentParse
{
    /** Valid frames (checksum verified), decoded or not. */
    std::uint64_t frames = 0;
    /** The decoded records: frames inside the requested range. */
    std::vector<WalTickRecord> records;
    /** Set when the record region ended early (torn frame); names
     *  the damage for the tail-drop diagnostic. */
    std::string damage;
};

/**
 * Parse the frames of @p bytes after the header, the first of which
 * is record @p first_record. Every frame's checksum is verified;
 * only records inside @p range are decoded. Stops at the first
 * damaged frame and reports it; the caller decides whether that is
 * an error (sealed) or a drop point (tail).
 */
SegmentParse
parseRecords(const std::vector<std::uint8_t> &bytes,
             std::uint64_t first_record, const WalRange &range)
{
    SegmentParse out;
    std::size_t pos = kHeaderBytes;
    while (pos < bytes.size()) {
        const std::size_t frame_start = pos;
        const std::uint64_t index = first_record + out.frames;
        const auto damaged = [&](const std::string &why) {
            out.damage = "record " + std::to_string(index) +
                " at offset " + std::to_string(frame_start) + ": " +
                why;
        };
        if (bytes.size() - pos < kFrameHeaderBytes) {
            damaged("truncated frame header");
            break;
        }
        ByteReader head{bytes.data(), bytes.size(), pos};
        const std::uint32_t raw_size = head.u32();
        const std::uint32_t stored_size = head.u32();
        const std::uint8_t codec_id = head.u8();
        if (raw_size > kMaxRecordBytes ||
            stored_size > kMaxRecordBytes) {
            damaged("implausible frame size");
            break;
        }
        if (codec_id > static_cast<std::uint8_t>(cache::Codec::Lz)) {
            damaged("unknown codec id " + std::to_string(codec_id));
            break;
        }
        const std::size_t frame_size =
            kFrameHeaderBytes + stored_size + 8;
        if (bytes.size() - frame_start < frame_size) {
            damaged("truncated frame payload");
            break;
        }
        const std::uint64_t want = fnv1a64(
            bytes.data() + frame_start, frame_size - 8);
        ByteReader sum{bytes.data(), bytes.size(),
                       frame_start + frame_size - 8};
        if (sum.u64() != want) {
            damaged("checksum mismatch");
            break;
        }
        if (index >= range.first && index < range.end) {
            try {
                out.records.push_back(decodeRecord(decodeBlob(
                    static_cast<cache::Codec>(codec_id),
                    bytes.data() + frame_start + kFrameHeaderBytes,
                    stored_size, raw_size)));
            } catch (const std::exception &error) {
                // Checksummed-but-undecodable means real corruption
                // that happened before the checksum was computed —
                // surface it the same way so it is never replayed as
                // data.
                damaged(std::string("undecodable payload: ") +
                        error.what());
                break;
            }
        }
        ++out.frames;
        pos = frame_start + frame_size;
    }
    FAIRCO2_COUNT("durability.wal.records_decoded",
                  out.records.size());
    return out;
}

/** Read at most @p limit bytes of @p path (the whole file by
 *  default). */
std::vector<std::uint8_t>
readFileBytes(const std::string &path,
              std::size_t limit = std::numeric_limits<std::size_t>::max())
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw WalIntegrityError("cannot open wal segment '" + path +
                                "'");
    const auto size = static_cast<std::size_t>(in.tellg());
    std::vector<std::uint8_t> bytes(std::min(size, limit));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!in)
        throw WalIntegrityError("cannot read wal segment '" + path +
                                "'");
    return bytes;
}

/** Validate a segment header; throws naming the defect. */
std::uint64_t
checkHeader(const std::vector<std::uint8_t> &bytes,
            const std::string &path, std::uint64_t config_hash)
{
    if (bytes.size() < kHeaderBytes)
        throw WalIntegrityError("wal segment '" + path +
                                "' is shorter than its header");
    if (std::memcmp(bytes.data(), kMagic, 4) != 0)
        throw WalIntegrityError("wal segment '" + path +
                                "' has bad magic");
    ByteReader in{bytes.data(), bytes.size(), 4};
    const std::uint32_t version = in.u32();
    if (version != kWalVersion)
        throw WalIntegrityError(
            "wal segment '" + path + "' has version " +
            std::to_string(version) + ", expected " +
            std::to_string(kWalVersion));
    const std::uint64_t hash = in.u64();
    if (hash != config_hash)
        throw WalIntegrityError(
            "wal segment '" + path +
            "' was written by a different server configuration "
            "(config hash mismatch)");
    return in.u64(); // first record index
}

/** Write @p bytes to @p file; a short write throws naming @p path. */
void
writeChecked(std::FILE *file, const std::vector<std::uint8_t> &bytes,
             const std::string &path)
{
    if (std::fwrite(bytes.data(), 1, bytes.size(), file) !=
        bytes.size())
        throw WalIntegrityError("cannot write wal segment '" + path +
                                "': " + std::strerror(errno));
}

/** Flush @p file; a failure throws naming @p path. */
void
flushChecked(std::FILE *file, const std::string &path)
{
    if (std::fflush(file) != 0)
        throw WalIntegrityError("cannot flush wal segment '" + path +
                                "': " + std::strerror(errno));
}

/** Flush and close @p file; a failure throws naming @p path. The
 *  handle is closed either way. */
void
closeChecked(std::FILE *file, const std::string &path)
{
    const bool flushed = std::fflush(file) == 0;
    const int flush_errno = errno;
    const bool closed = std::fclose(file) == 0;
    if (!flushed || !closed)
        throw WalIntegrityError(
            "cannot close wal segment '" + path + "': " +
            std::strerror(flushed ? errno : flush_errno));
}

/** One segment file as the directory walk found it. */
struct SegmentFile
{
    std::string path;
    bool sealed = true;
    std::uint64_t firstRecord = 0; //!< from its header
};

/**
 * List @p dir's segments in log order (sealed by index, then the
 * tail) with every header checked, and check the directory's shape:
 * sealed indices 1, 2, ... without a gap, at most one tail with the
 * next index, and first-record indices that start at 0 and strictly
 * increase (a sealed segment holds at least one record).
 */
std::vector<SegmentFile>
listSegments(const std::string &dir, std::uint64_t config_hash,
             std::uint64_t *next_segment_index)
{
    if (!fs::is_directory(dir))
        throw WalIntegrityError("wal directory '" + dir +
                                "' does not exist");

    std::map<std::uint64_t, std::string> sealed;
    std::map<std::uint64_t, std::string> open;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("wal-", 0) != 0)
            continue;
        const auto dot = name.find('.');
        if (dot == std::string::npos)
            continue;
        const std::string suffix = name.substr(dot + 1);
        std::uint64_t index = 0;
        try {
            index = std::stoull(name.substr(4, dot - 4));
        } catch (const std::exception &) {
            continue;
        }
        if (suffix == "seg")
            sealed[index] = entry.path().string();
        else if (suffix == "open")
            open[index] = entry.path().string();
    }
    if (open.size() > 1)
        throw WalIntegrityError(
            "wal directory '" + dir + "' has " +
            std::to_string(open.size()) +
            " open tail segments; expected at most one");

    std::vector<SegmentFile> segments;
    std::uint64_t expect_index = 1;
    for (const auto &[index, path] : sealed) {
        if (index != expect_index)
            throw WalIntegrityError(
                "wal directory '" + dir + "' skips from segment " +
                std::to_string(expect_index - 1) + " to " +
                std::to_string(index) + " (missing sealed segment)");
        segments.push_back({path, true, 0});
        ++expect_index;
    }
    *next_segment_index = expect_index;
    if (!open.empty()) {
        const auto &[index, path] = *open.begin();
        if (index != expect_index)
            throw WalIntegrityError(
                "wal tail segment '" + path + "' has index " +
                std::to_string(index) + ", expected " +
                std::to_string(expect_index));
        segments.push_back({path, false, 0});
    }

    for (std::size_t i = 0; i < segments.size(); ++i) {
        SegmentFile &segment = segments[i];
        segment.firstRecord = checkHeader(
            readFileBytes(segment.path, kHeaderBytes), segment.path,
            config_hash);
        const std::uint64_t least =
            i == 0 ? 0 : segments[i - 1].firstRecord + 1;
        if (i == 0 ? segment.firstRecord != 0
                   : segment.firstRecord < least)
            throw WalIntegrityError(
                std::string(segment.sealed ? "wal segment '"
                                           : "wal tail segment '") +
                segment.path + "' starts at record " +
                std::to_string(segment.firstRecord) + ", expected " +
                (i == 0 ? "0" : "at least " + std::to_string(least)));
    }
    return segments;
}

} // namespace

bool
WalTickRecord::operator==(const WalTickRecord &other) const
{
    return period == other.period && admitted == other.admitted &&
        deferredOut == other.deferredOut &&
        offeredDelta == other.offeredDelta &&
        deferredDelta == other.deferredDelta &&
        rejectedDelta == other.rejectedDelta &&
        shedDelta == other.shedDelta &&
        totalOffered == other.totalOffered &&
        totalAdmitted == other.totalAdmitted &&
        totalDeferred == other.totalDeferred &&
        totalRejected == other.totalRejected &&
        bucketTokens[0] == other.bucketTokens[0] &&
        bucketTokens[1] == other.bucketTokens[1] &&
        bucketTokens[2] == other.bucketTokens[2] &&
        overloadLevel == other.overloadLevel &&
        surrogateAccepts == other.surrogateAccepts &&
        surrogateRejects == other.surrogateRejects;
}

std::vector<std::uint8_t>
encodeRecord(const WalTickRecord &record)
{
    std::vector<std::uint8_t> out;
    putU64(out, record.period);
    putBatches(out, record.admitted);
    putBatches(out, record.deferredOut);
    putU64(out, record.offeredDelta);
    putU64(out, record.deferredDelta);
    putU64(out, record.rejectedDelta);
    putU64(out, record.shedDelta);
    putU64(out, record.totalOffered);
    putU64(out, record.totalAdmitted);
    putU64(out, record.totalDeferred);
    putU64(out, record.totalRejected);
    for (std::uint64_t tokens : record.bucketTokens)
        putU64(out, tokens);
    putU32(out, record.overloadLevel);
    putU64(out, record.surrogateAccepts);
    putU64(out, record.surrogateRejects);
    return out;
}

WalTickRecord
decodeRecord(const std::vector<std::uint8_t> &bytes)
{
    ByteReader in{bytes.data(), bytes.size(), 0};
    WalTickRecord record;
    record.period = in.u64();
    record.admitted = getBatches(in);
    record.deferredOut = getBatches(in);
    record.offeredDelta = in.u64();
    record.deferredDelta = in.u64();
    record.rejectedDelta = in.u64();
    record.shedDelta = in.u64();
    record.totalOffered = in.u64();
    record.totalAdmitted = in.u64();
    record.totalDeferred = in.u64();
    record.totalRejected = in.u64();
    for (std::uint64_t &tokens : record.bucketTokens)
        tokens = in.u64();
    record.overloadLevel = in.u32();
    record.surrogateAccepts = in.u64();
    record.surrogateRejects = in.u64();
    if (in.pos != bytes.size())
        throw WalIntegrityError(
            "wal record has " +
            std::to_string(bytes.size() - in.pos) +
            " trailing bytes");
    return record;
}

std::string
segmentPath(const std::string &dir, std::uint64_t index, bool sealed)
{
    char name[32];
    std::snprintf(name, sizeof(name), "wal-%06llu.%s",
                  static_cast<unsigned long long>(index),
                  sealed ? "seg" : "open");
    return (fs::path(dir) / name).string();
}

std::string
walDirError(const std::string &dir)
{
    std::error_code ec;
    const fs::file_status status = fs::status(dir, ec);
    if (fs::exists(status) && !fs::is_directory(status))
        return "'" + dir + "' exists and is not a directory";
    if (!fs::exists(status)) {
        fs::create_directories(dir, ec);
        if (ec)
            return "cannot create directory '" + dir +
                "': " + ec.message();
    }
    // Writability probe, same discipline as requireWritableFlagPath:
    // create-then-remove, never touching real segment names.
    const std::string probe =
        (fs::path(dir) / ".wal-probe.tmp").string();
    {
        std::ofstream out(probe, std::ios::trunc);
        if (!out.good())
            return "directory '" + dir + "' is not writable";
    }
    fs::remove(probe, ec);
    return "";
}

WalLoadResult
loadWalRange(const std::string &dir, std::uint64_t config_hash,
             const WalRange &range)
{
    WalLoadResult result;
    const std::vector<SegmentFile> segments =
        listSegments(dir, config_hash, &result.nextSegmentIndex);
    // Record count so far of the segments actually read; a read
    // segment must start exactly where the one before it ended.
    bool have_prev = false;
    std::uint64_t prev_end = 0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
        const SegmentFile &segment = segments[i];
        if (segment.sealed)
            ++result.sealedSegments;
        else if (!range.tail)
            break;
        // A segment ends where the next one starts (the tail never
        // ends); read only those that overlap the range.
        const bool last = i + 1 == segments.size();
        if (segment.firstRecord >= range.end ||
            (!last && segments[i + 1].firstRecord <= range.first)) {
            have_prev = false;
            continue;
        }
        if (have_prev && segment.firstRecord != prev_end)
            throw WalIntegrityError(
                std::string(segment.sealed ? "wal segment '"
                                           : "wal tail segment '") +
                segment.path + "' starts at record " +
                std::to_string(segment.firstRecord) + ", expected " +
                std::to_string(prev_end));
        const auto bytes = readFileBytes(segment.path);
        checkHeader(bytes, segment.path, config_hash);
        SegmentParse parse =
            parseRecords(bytes, segment.firstRecord, range);
        if (segment.sealed) {
            if (!parse.damage.empty())
                throw WalIntegrityError("sealed wal segment '" +
                                        segment.path +
                                        "' is damaged: " +
                                        parse.damage);
            if (parse.frames == 0)
                throw WalIntegrityError("sealed wal segment '" +
                                        segment.path +
                                        "' holds no records");
        } else {
            // The tail is the only place damage is survivable: keep
            // the valid prefix, drop the torn suffix, and say so.
            if (!parse.damage.empty()) {
                result.droppedTail = true;
                result.tailDiagnostic = "dropped torn wal tail of '" +
                    segment.path + "' from " + parse.damage;
            }
            result.tailRecords = parse.frames;
        }
        for (auto &record : parse.records)
            result.records.push_back(std::move(record));
        have_prev = true;
        prev_end = segment.firstRecord + parse.frames;
    }
    return result;
}

WalLoadResult
loadWal(const std::string &dir, std::uint64_t config_hash)
{
    return loadWalRange(dir, config_hash, WalRange{});
}

WalWriter::WalWriter(const Options &options) : options_(options)
{
    if (options_.dir.empty())
        throw std::invalid_argument("WalWriter: empty directory");
    if (options_.segmentRecords == 0)
        throw std::invalid_argument(
            "WalWriter: segmentRecords must be >= 1");
    segmentIndex_ = options_.firstSegmentIndex;
    records_ = options_.firstRecordIndex;
    sealed_ = options_.firstSegmentIndex - 1;
}

WalWriter::~WalWriter()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void
WalWriter::openSegment()
{
    const std::string path =
        segmentPath(options_.dir, segmentIndex_, false);
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        throw WalIntegrityError("cannot create wal segment '" +
                                path + "': " +
                                std::strerror(errno));
    writeChecked(file_, headerBytes(options_.configHash, records_),
                 path);
    segmentRecords_ = 0;
}

void
WalWriter::writeFrame(const WalTickRecord &record, bool torn)
{
    if (file_ == nullptr)
        openSegment();
    std::uint64_t raw = 0;
    const auto frame = frameBytes(record, options_.codec, &raw);
    if (torn) {
        std::fwrite(frame.data(), 1, frame.size() / 2, file_);
        std::fflush(file_);
        return;
    }
    const std::string path =
        segmentPath(options_.dir, segmentIndex_, false);
    writeChecked(file_, frame, path);
    // The group commit: one flush per arrival tick, so a kill after
    // this point can only lose ticks that never returned.
    flushChecked(file_, path);
    rawBytes_ += raw;
    storedBytes_ += frame.size();
    ++records_;
    ++segmentRecords_;
    FAIRCO2_COUNT("durability.wal.appends", 1);
    if (segmentRecords_ >= options_.segmentRecords)
        seal();
}

void
WalWriter::append(const WalTickRecord &record)
{
    writeFrame(record, false);
}

void
WalWriter::appendTorn(const WalTickRecord &record)
{
    writeFrame(record, true);
}

void
WalWriter::seal()
{
    if (file_ == nullptr || segmentRecords_ == 0)
        return;
    const std::string open_path =
        segmentPath(options_.dir, segmentIndex_, false);
    std::FILE *file = file_;
    file_ = nullptr;
    closeChecked(file, open_path);
    const std::string sealed_path =
        segmentPath(options_.dir, segmentIndex_, true);
    // The atomic seal: readers only ever see a complete .seg.
    std::error_code ec;
    fs::rename(open_path, sealed_path, ec);
    if (ec)
        throw WalIntegrityError("cannot seal wal segment '" +
                                open_path + "': " + ec.message());
    const std::uint64_t index = segmentIndex_;
    ++segmentIndex_;
    ++sealed_;
    FAIRCO2_COUNT("durability.wal.seals", 1);
    if (options_.onSeal)
        options_.onSeal(index);
}

void
WalWriter::adoptTail(const std::vector<WalTickRecord> &records)
{
    if (file_ != nullptr || segmentRecords_ != 0 ||
        records_ != options_.firstRecordIndex)
        throw std::logic_error(
            "WalWriter::adoptTail: call before the first append");
    const std::string open_path =
        segmentPath(options_.dir, segmentIndex_, false);
    const std::string tmp_path = open_path + ".tmp";
    std::FILE *tmp = std::fopen(tmp_path.c_str(), "wb");
    if (tmp == nullptr)
        throw WalIntegrityError("cannot rewrite wal tail '" +
                                open_path + "': " +
                                std::strerror(errno));
    try {
        writeChecked(tmp, headerBytes(options_.configHash, records_),
                     tmp_path);
        for (const WalTickRecord &record : records) {
            std::uint64_t raw = 0;
            const auto frame =
                frameBytes(record, options_.codec, &raw);
            writeChecked(tmp, frame, tmp_path);
            rawBytes_ += raw;
            storedBytes_ += frame.size();
        }
    } catch (...) {
        std::fclose(tmp);
        throw;
    }
    closeChecked(tmp, tmp_path);
    std::error_code ec;
    fs::rename(tmp_path, open_path, ec);
    if (ec)
        throw WalIntegrityError("cannot rewrite wal tail '" +
                                open_path + "': " + ec.message());
    records_ += records.size();
    segmentRecords_ = records.size();
    file_ = std::fopen(open_path.c_str(), "ab");
    if (file_ == nullptr)
        throw WalIntegrityError("cannot reopen wal tail '" +
                                open_path + "': " +
                                std::strerror(errno));
    // A fully repopulated tail seals exactly as a live append would
    // have, so recovery converges on the uninterrupted layout.
    if (segmentRecords_ >= options_.segmentRecords)
        seal();
}

std::uint64_t
windowSumDigest(std::uint64_t closed_periods,
                const std::vector<std::uint64_t> &sums)
{
    std::uint64_t hash =
        fnv1a64(&closed_periods, sizeof(closed_periods));
    for (std::uint64_t sum : sums)
        hash = fnv1a64(&sum, sizeof(sum), hash);
    return hash;
}

WindowDigests
deriveWindowDigests(
    const std::vector<WalTickRecord> &records, std::size_t shards,
    std::size_t window_periods, std::uint64_t watermark,
    const std::function<std::uint64_t(std::uint64_t tenant,
                                      std::uint64_t period)> &unitsOf)
{
    WindowDigests out;
    std::uint64_t closed = 0;
    if (!records.empty()) {
        const std::uint64_t last_period = records.back().period;
        if (last_period + 1 > watermark)
            closed = last_period + 1 - watermark;
    }
    const std::uint64_t window =
        std::min<std::uint64_t>(window_periods, closed);
    const std::uint64_t first_closed = closed - window;

    // The in-window closed periods each admitted batch covers — the
    // exact quantities the live replicas keep in their windowUnitSums
    // deques.
    struct Covered
    {
        std::uint64_t tenant;
        std::uint64_t slot;
    };
    std::vector<Covered> work;
    for (const WalTickRecord &record : records) {
        for (const WalBatch &batch : record.admitted) {
            for (std::uint32_t p = 0; p < batch.coveredPeriods;
                 ++p) {
                const std::uint64_t covered =
                    batch.period - batch.coveredPeriods + p;
                if (covered >= first_closed &&
                    covered < first_closed + window)
                    work.push_back({batch.tenant,
                                    covered - first_closed});
            }
        }
    }

    // Per-shard sums, one row of window slots per shard, accumulated
    // over fixed chunks of the work list on the pool. The partials
    // are integers, so folding them is exact at any thread count.
    using Sums = std::vector<std::uint64_t>;
    const Sums shard_sums = parallel::parallelMapReduce(
        0, work.size(), kDeriveChunk, Sums(shards * window, 0),
        [&](std::size_t lo, std::size_t hi) {
            Sums part(shards * window, 0);
            for (std::size_t i = lo; i < hi; ++i) {
                const Covered &c = work[i];
                part[(c.tenant % shards) * window + c.slot] +=
                    unitsOf(c.tenant, first_closed + c.slot);
            }
            return part;
        },
        [](Sums &acc, const Sums &part) {
            for (std::size_t i = 0; i < acc.size(); ++i)
                acc[i] += part[i];
        });
    std::vector<std::uint64_t> fleet(window, 0);
    for (std::size_t s = 0; s < shards; ++s)
        for (std::uint64_t slot = 0; slot < window; ++slot)
            fleet[slot] += shard_sums[s * window + slot];
    out.fleet = windowSumDigest(closed, fleet);
    out.shard.assign(shards, 0);
    for (std::size_t s = 0; s < shards; ++s)
        out.shard[s] = windowSumDigest(
            closed, Sums(shard_sums.begin() + s * window,
                         shard_sums.begin() + (s + 1) * window));
    return out;
}

WindowDigests
scrubWindowDigests(
    const std::string &dir, std::uint64_t config_hash,
    std::uint64_t period, std::size_t shards,
    std::size_t window_periods, std::uint64_t watermark,
    const std::function<std::uint64_t(std::uint64_t tenant,
                                      std::uint64_t period)> &unitsOf)
{
    // A batch covers periods below its record's, so records older
    // than the window plus the watermark cannot reach a window period.
    const std::uint64_t reach = window_periods + watermark + 1;
    WalRange range;
    range.first = period + 1 > reach ? period + 1 - reach : 0;
    range.end = period + 1;
    return deriveWindowDigests(
        loadWalRange(dir, config_hash, range).records, shards,
        window_periods, watermark, unitsOf);
}

} // namespace fairco2::durability
