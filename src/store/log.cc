#include "store/log.h"

#include <algorithm>
#include <cstring>

#include "store/codec.h"
#include "util/crc32c.h"

namespace treediff {

namespace {

// Epochs travel as fixed32 in the record header: a replication group that
// fails over 4 billion times has other problems, and a fixed-width field
// keeps the header scannable without varint decoding in the resync loop.
void PutEpoch(std::string* out, uint64_t epoch) {
  PutFixed32(out, static_cast<uint32_t>(epoch));
}

uint32_t RecordCrc(LogFormat format, LogRecordType type, uint64_t epoch,
                   std::string_view payload) {
  uint8_t type_byte = static_cast<uint8_t>(type);
  uint32_t crc = Crc32cExtend(0, &type_byte, 1);
  if (format == LogFormat::kV2) {
    std::string epoch_bytes;
    PutEpoch(&epoch_bytes, epoch);
    crc = Crc32cExtend(crc, epoch_bytes.data(), epoch_bytes.size());
  }
  return Crc32cExtend(crc, payload.data(), payload.size());
}

// The record header: length, masked checksum, type, and (format 2) epoch.
std::string EncodeRecordHeader(LogFormat format, LogRecordType type,
                               std::string_view payload, uint64_t epoch) {
  std::string header;
  header.reserve(LogRecordHeaderSize(format));
  PutFixed32(&header, static_cast<uint32_t>(payload.size()));
  PutFixed32(&header, Crc32cMask(RecordCrc(format, type, epoch, payload)));
  header.push_back(static_cast<char>(type));
  if (format == LogFormat::kV2) PutEpoch(&header, epoch);
  return header;
}

std::string EncodeRecord(LogFormat format, LogRecordType type,
                         std::string_view payload, uint64_t epoch) {
  return EncodeRecordHeader(format, type, payload, epoch).append(payload);
}

}  // namespace

Status LogWriter::AppendRecord(LogRecordType type, std::string_view payload) {
  if (payload.size() > kLogMaxRecordSize) {
    return Status::InvalidArgument("log record exceeds the 1 GiB cap");
  }
  const std::string header =
      EncodeRecordHeader(format_, type, payload, epoch_);
  // One Append per buffer: the header+payload boundary is a fault point the
  // recovery test exercises, so keep the write pattern simple and ordered.
  TREEDIFF_RETURN_IF_ERROR(file_->Append(header));
  TREEDIFF_RETURN_IF_ERROR(file_->Append(payload));
  offset_ += header.size() + payload.size();
  return Status::Ok();
}

std::string EncodeLogRecord(LogRecordType type, std::string_view payload) {
  return EncodeRecord(LogFormat::kV1, type, payload, 0);
}

std::string EncodeLogRecordV2(LogRecordType type, std::string_view payload,
                              uint64_t epoch) {
  return EncodeRecord(LogFormat::kV2, type, payload, epoch);
}

std::optional<LogFormat> ConsumeLogMagic(std::string_view* bytes) {
  if (bytes->size() < kLogMagicSize) return std::nullopt;
  std::optional<LogFormat> format;
  if (std::memcmp(bytes->data(), kLogMagic, kLogMagicSize) == 0) {
    format = LogFormat::kV1;
  } else if (std::memcmp(bytes->data(), kLogMagicV2, kLogMagicSize) == 0) {
    format = LogFormat::kV2;
  } else {
    return std::nullopt;
  }
  bytes->remove_prefix(kLogMagicSize);
  return format;
}

LogRecordView DecodeLogRecord(std::string_view bytes, LogFormat format) {
  LogRecordView view;  // kTorn until proven otherwise.
  const size_t header_size = LogRecordHeaderSize(format);
  if (bytes.size() < header_size) return view;
  const uint32_t len = DecodeFixed32(bytes.data());
  if (len > kLogMaxRecordSize || bytes.size() - header_size < len) {
    return view;
  }
  view.state = LogRecordState::kCorrupt;
  const uint8_t type = static_cast<uint8_t>(bytes[8]);
  const uint8_t max_type = format == LogFormat::kV1
                               ? static_cast<uint8_t>(LogRecordType::kRollback)
                               : static_cast<uint8_t>(LogRecordType::kEpoch);
  if (type < static_cast<uint8_t>(LogRecordType::kSnapshot) ||
      type > max_type) {
    return view;
  }
  // The checksum covers [type, epoch?, payload], contiguous from the type
  // byte: in format 2 a flipped epoch is caught like a flipped payload byte.
  const uint32_t crc = Crc32c(bytes.data() + 8, header_size - 8 + len);
  if (Crc32cMask(crc) != DecodeFixed32(bytes.data() + 4)) return view;
  view.state = LogRecordState::kValid;
  view.type = static_cast<LogRecordType>(type);
  if (format == LogFormat::kV2) {
    view.epoch = DecodeFixed32(bytes.data() + kLogRecordHeaderSize);
  }
  view.payload = bytes.substr(header_size, len);
  view.size = header_size + len;
  return view;
}

StatusOr<LogScanResult> ScanLog(RandomAccessFile* file,
                                const LogScanOptions& options) {
  StatusOr<uint64_t> size = file->Size();
  if (!size.ok()) return size.status();

  LogScanResult result;
  result.file_size = *size;

  const size_t magic_want =
      static_cast<size_t>(std::min<uint64_t>(*size, kLogMagicSize));
  StatusOr<std::string> magic = file->Read(0, kLogMagicSize);
  if (!magic.ok()) return magic.status();
  if (magic->size() < magic_want) {
    // Size() promised more bytes than Read delivered: a transient short
    // read, not a short file. Truncating on it would destroy good data.
    return Status::Unavailable("short read of log magic; retry the scan");
  }
  std::string_view head = *magic;
  const std::optional<LogFormat> format = ConsumeLogMagic(&head);
  if (!format) {
    return Status::ParseError("not a treediff commit log (bad magic)");
  }
  result.format = *format;

  // One sequential read of the whole file; logs are checkpoint-bounded and
  // recovery reads each byte exactly once.
  StatusOr<std::string> data =
      file->Read(kLogMagicSize, static_cast<size_t>(*size - kLogMagicSize));
  if (!data.ok()) return data.status();
  if (data->size() < static_cast<size_t>(*size - kLogMagicSize)) {
    return Status::Unavailable("short read of log body; retry the scan");
  }
  const std::string_view body = *data;
  auto decode_at = [&](uint64_t pos) {
    return DecodeLogRecord(body.substr(pos), *format);
  };

  // Every offset short of the end is tried: a few trailing bytes that never
  // formed a full header decode as torn like any other partial record.
  uint64_t pos = 0;
  bool resynced_next = false;
  result.durable_prefix = kLogMagicSize;
  while (pos < body.size()) {
    const LogRecordView record = decode_at(pos);
    if (record.state != LogRecordState::kValid) {
      // A partial record or implausible length reads as a torn tail; a
      // complete record whose checksum does not match is a corruption
      // event.
      const bool is_torn = record.state == LogRecordState::kTorn;
      if (!options.salvage) {
        if (is_torn) {
          result.torn_tail = true;
        } else {
          result.checksum_failures = 1;
        }
        break;
      }
      // Salvage: slide forward one byte at a time until something checks
      // out as a whole record again. Linear in the damaged span, and each
      // candidate is fully CRC-verified before being trusted.
      uint64_t next = pos + 1;
      while (next < body.size() &&
             decode_at(next).state != LogRecordState::kValid) {
        ++next;
      }
      if (next == body.size()) {
        // Damage runs to end of file: tail damage after all, disposed of
        // by truncation rather than a salvage gap.
        if (is_torn) {
          result.torn_tail = true;
        } else {
          ++result.checksum_failures;
        }
        break;
      }
      ++result.checksum_failures;
      result.skipped.push_back({kLogMagicSize + pos, kLogMagicSize + next});
      pos = next;
      resynced_next = true;
      continue;
    }
    LogScanRecord scanned;
    scanned.type = record.type;
    scanned.epoch = record.epoch;
    scanned.payload.assign(record.payload);
    scanned.offset = kLogMagicSize + pos;
    scanned.resynced = resynced_next;
    resynced_next = false;
    result.records.push_back(std::move(scanned));
    pos += record.size;
    result.durable_prefix = kLogMagicSize + pos;
  }
  return result;
}

}  // namespace treediff
