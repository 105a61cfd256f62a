#ifndef TREEDIFF_STORE_LOG_H_
#define TREEDIFF_STORE_LOG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/io.h"
#include "util/status.h"

namespace treediff {

/// The VersionStore commit log: an append-only file of length-prefixed,
/// CRC32C-checksummed records behind an 8-byte magic header. Two framing
/// formats exist; the magic selects one per file (all integers
/// little-endian):
///
/// Format 1 (pre-replication, still read and appended to in place):
///
///   "TDIFLOG1"                                   file magic, 8 bytes
///   repeated records:
///     u32  payload length                        (type byte not included)
///     u32  masked CRC32C over [type, payload]    (see Crc32cMask)
///     u8   record type                           (LogRecordType)
///     payload bytes
///
/// Format 2 (replication-aware) widens the record header with a fencing
/// epoch so a replica can reject records shipped by a deposed primary:
///
///   "TDIFLOG2"                                   file magic, 8 bytes
///   repeated records:
///     u32  payload length
///     u32  masked CRC32C over [type, epoch, payload]
///     u8   record type                           (LogRecordType)
///     u32  epoch the record was written under
///     payload bytes
///
/// A record is valid only if it is fully present and its checksum matches;
/// recovery accepts the longest prefix of valid records and truncates the
/// rest (a torn tail after a crash, or any bit flip — the CRC catches both;
/// a flipped length field reads as a torn or implausible record, which the
/// same truncation policy handles).

inline constexpr char kLogMagic[8] = {'T', 'D', 'I', 'F', 'L', 'O', 'G', '1'};
inline constexpr char kLogMagicV2[8] = {'T', 'D', 'I', 'F', 'L', 'O', 'G', '2'};
inline constexpr size_t kLogMagicSize = 8;
inline constexpr size_t kLogRecordHeaderSize = 9;  // u32 len + u32 crc + u8 type
inline constexpr size_t kLogRecordHeaderSizeV2 = 13;  // v1 header + u32 epoch

/// The two on-disk framings. kV1 files carry no epochs (every record reads
/// back as epoch 0); kV2 files stamp the writer's epoch into each record.
enum class LogFormat : uint8_t { kV1 = 1, kV2 = 2 };

/// Header size for a given framing.
inline constexpr size_t LogRecordHeaderSize(LogFormat format) {
  return format == LogFormat::kV1 ? kLogRecordHeaderSize
                                  : kLogRecordHeaderSizeV2;
}

/// Upper bound on a single record's payload; a length beyond it is treated
/// as corruption rather than an allocation request.
inline constexpr uint32_t kLogMaxRecordSize = 1u << 30;

enum class LogRecordType : uint8_t {
  kSnapshot = 1,    // codec-encoded tree: version 0 (first record only)
  kDelta = 2,       // stats header + serialized edit script: one commit
  kCheckpoint = 3,  // varint version + codec-encoded tree of that version
  kRollback = 4,    // varint of the version RollbackHead dropped
  kEpoch = 5,       // varint new epoch: fencing bump (format 2 only)
};

/// Appends records to an open log file. The writer formats and appends;
/// durability is the caller's call (Sync after each commit record is the
/// store's protocol).
class LogWriter {
 public:
  /// Takes an already positioned append-mode file; `offset` is the current
  /// file size (records land at and beyond it). `format` must match the
  /// magic already at the head of the file.
  LogWriter(std::unique_ptr<WritableFile> file, uint64_t offset,
            LogFormat format, uint64_t epoch = 0)
      : file_(std::move(file)),
        offset_(offset),
        format_(format),
        epoch_(epoch) {}

  /// Appends one record (header + payload). Not durable until Sync().
  /// Format-2 records are stamped with the writer's current epoch.
  Status AppendRecord(LogRecordType type, std::string_view payload);

  /// Forces appended records to stable storage.
  Status Sync() { return file_->Sync(); }

  /// Closes the underlying file.
  Status Close() { return file_->Close(); }

  /// Byte offset the next record would start at.
  uint64_t offset() const { return offset_; }

  LogFormat format() const { return format_; }

  /// Epoch stamped into subsequent format-2 records (ignored for v1).
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

 private:
  std::unique_ptr<WritableFile> file_;
  uint64_t offset_;
  LogFormat format_;
  uint64_t epoch_;
};

/// Formats one format-1 record (header + payload) in the exact wire format
/// a v1 LogWriter writes.
std::string EncodeLogRecord(LogRecordType type, std::string_view payload);

/// Formats one format-2 record with an explicit epoch stamp. Log rotation
/// uses it to build a full replacement log image in memory before
/// publishing it atomically.
std::string EncodeLogRecordV2(LogRecordType type, std::string_view payload,
                              uint64_t epoch);

/// Strips the file magic off the front of `*bytes` and returns the framing
/// it selects; nullopt (and `*bytes` untouched) when `*bytes` does not
/// start with either magic.
std::optional<LogFormat> ConsumeLogMagic(std::string_view* bytes);

/// How a record decodes (DecodeLogRecord).
enum class LogRecordState : uint8_t {
  kValid,    // Complete, plausible type, checksum matches.
  kTorn,     // Header or payload runs past the bytes, or the length field
             // exceeds kLogMaxRecordSize.
  kCorrupt,  // Complete, but the type is unknown or the checksum fails.
};

/// One record decoded in place; `payload` points into the decoded bytes.
struct LogRecordView {
  LogRecordState state = LogRecordState::kTorn;
  LogRecordType type = LogRecordType::kSnapshot;
  uint64_t epoch = 0;  // Always 0 in format-1 logs.
  std::string_view payload;
  size_t size = 0;  // Header + payload bytes.
};

/// Decodes the record at the front of `bytes` in `format`. This is the one
/// reader of the framing: ScanLog's forward scan and salvage resync, and
/// the replication batch check, all call it. Only a kValid result carries
/// type, epoch, payload and size.
LogRecordView DecodeLogRecord(std::string_view bytes, LogFormat format);

/// One record surfaced by ScanLog.
struct LogScanRecord {
  LogRecordType type;
  std::string payload;
  uint64_t offset = 0;  // File offset of the record header.

  /// Epoch stamped in the record header (always 0 in format-1 logs).
  uint64_t epoch = 0;

  /// True if this record was reached by resynchronizing past corrupt bytes
  /// (salvage mode only): the records before the gap and this one are both
  /// valid, but an unknown number of records between them are gone.
  bool resynced = false;
};

/// A damaged byte range the salvage scan skipped: [begin, end) in file
/// offsets. The bytes are unparseable; whatever records they held are lost.
struct SkippedRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// How ScanLog treats the first invalid record.
struct LogScanOptions {
  /// Default: stop at the first invalid record and report everything after
  /// it as garbage (the conservative crash-recovery posture — a torn tail
  /// is by far the common case and truncation is always safe for it).
  ///
  /// Salvage: skip forward byte by byte until the next verifiable record
  /// header (plausible type and length, checksum over the full payload
  /// matches) and resume there, recording the skipped range. A mid-log bit
  /// flip then costs the records inside the damaged range instead of every
  /// record after it. A 32-bit CRC plus type/length plausibility makes a
  /// false resync on garbage bytes a ~2^-32 event per candidate offset.
  bool salvage = false;
};

/// Result of scanning a log: the valid records and how the scan ended.
struct LogScanResult {
  std::vector<LogScanRecord> records;

  /// Framing the magic selected.
  LogFormat format = LogFormat::kV1;

  /// End offset of the last valid record; everything at and beyond this
  /// offset is garbage to be truncated. (Salvage gaps *before* this offset
  /// are listed in `skipped`, not covered by truncation.)
  uint64_t durable_prefix = 0;

  uint64_t file_size = 0;

  /// Invalid-record events. Without salvage the scan stops at the first,
  /// so this is 0 or 1; with salvage each skipped range counts one.
  size_t checksum_failures = 0;

  /// True if the scan ended on a partial record (torn write) or an
  /// implausible length field with no valid record after it.
  bool torn_tail = false;

  /// Damaged ranges the salvage scan stepped over (empty without salvage).
  std::vector<SkippedRange> skipped;
};

/// Scans `file` from the start: validates the magic (either format), then
/// accepts records until the first invalid one (or past it, with
/// `options.salvage`). Corrupt or torn data is reported, not an error —
/// only unreadable files and a bad magic fail. A read that returns fewer
/// bytes than Size() promised fails with kUnavailable so the caller retries
/// instead of mistaking the missing suffix for a torn tail.
StatusOr<LogScanResult> ScanLog(RandomAccessFile* file,
                                const LogScanOptions& options = {});

}  // namespace treediff

#endif  // TREEDIFF_STORE_LOG_H_
