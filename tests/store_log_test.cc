#include "store/log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/fault_env.h"

namespace treediff {
namespace {

// Writes a fresh log file with the given records and returns its path.
void WriteLog(MemEnv* env, const std::string& path,
              const std::vector<std::pair<LogRecordType, std::string>>& recs) {
  auto file = env->NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(kLogMagic, kLogMagicSize)).ok());
  LogWriter writer(std::move(*file), kLogMagicSize, LogFormat::kV1);
  for (const auto& [type, payload] : recs) {
    ASSERT_TRUE(writer.AppendRecord(type, payload).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());
}

StatusOr<LogScanResult> Scan(MemEnv* env, const std::string& path) {
  auto file = env->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  return ScanLog(file->get());
}

TEST(LogTest, RoundTripRecords) {
  MemEnv env;
  WriteLog(&env, "log",
           {{LogRecordType::kSnapshot, "base tree bytes"},
            {LogRecordType::kDelta, "UPD(3, \"x\")\n"},
            {LogRecordType::kDelta, ""},  // Empty payloads are legal.
            {LogRecordType::kRollback, "\x02"}});
  auto scan = Scan(&env, "log");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 4u);
  EXPECT_TRUE(scan->records[0].type == LogRecordType::kSnapshot);
  EXPECT_EQ(scan->records[0].payload, "base tree bytes");
  EXPECT_EQ(scan->records[1].payload, "UPD(3, \"x\")\n");
  EXPECT_EQ(scan->records[2].payload, "");
  EXPECT_TRUE(scan->records[3].type == LogRecordType::kRollback);
  EXPECT_EQ(scan->checksum_failures, 0u);
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->durable_prefix, scan->file_size);
  // Record offsets are increasing and start right after the magic.
  EXPECT_EQ(scan->records[0].offset, kLogMagicSize);
  EXPECT_EQ(scan->records[1].offset,
            kLogMagicSize + kLogRecordHeaderSize + 15);
}

TEST(LogTest, EmptyLogScansClean) {
  MemEnv env;
  WriteLog(&env, "log", {});
  auto scan = Scan(&env, "log");
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->durable_prefix, kLogMagicSize);
}

TEST(LogTest, RejectsBadMagic) {
  MemEnv env;
  auto file = env.NewWritableFile("log", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("NOTALOG!extra").ok());
  ASSERT_TRUE((*file)->Close().ok());
  auto scan = Scan(&env, "log");
  EXPECT_EQ(scan.status().code(), Code::kParseError);
  // A file shorter than the magic is equally not a log.
  auto stub = env.NewWritableFile("stub", true);
  ASSERT_TRUE(stub.ok());
  ASSERT_TRUE((*stub)->Append("TDI").ok());
  ASSERT_TRUE((*stub)->Close().ok());
  EXPECT_EQ(Scan(&env, "stub").status().code(), Code::kParseError);
}

TEST(LogTest, EveryPrefixTruncationIsATornTailNotAnError) {
  MemEnv env;
  WriteLog(&env, "log",
           {{LogRecordType::kSnapshot, "0123456789"},
            {LogRecordType::kDelta, "abcdefgh"}});
  auto full = Scan(&env, "log");
  ASSERT_TRUE(full.ok());
  const uint64_t full_size = full->file_size;
  const uint64_t second_start = full->records[1].offset;

  for (uint64_t cut = kLogMagicSize; cut < full_size; ++cut) {
    MemEnv env2;
    WriteLog(&env2, "log",
             {{LogRecordType::kSnapshot, "0123456789"},
              {LogRecordType::kDelta, "abcdefgh"}});
    ASSERT_TRUE(env2.TruncateFile("log", cut).ok());
    auto scan = Scan(&env2, "log");
    ASSERT_TRUE(scan.ok()) << "cut at " << cut;
    // Whole records before the cut survive; the partial record is a torn
    // tail, never a checksum failure and never a hard error.
    size_t expected = cut >= second_start + kLogRecordHeaderSize + 8 ? 2u
                      : cut >= second_start                          ? 1u
                                                                     : 0u;
    if (cut == second_start || cut == kLogMagicSize) {
      // Clean record boundary: whole records only, no tail at all.
      EXPECT_FALSE(scan->torn_tail) << "cut at " << cut;
    } else {
      EXPECT_TRUE(scan->torn_tail) << "cut at " << cut;
    }
    EXPECT_EQ(scan->records.size(), expected) << "cut at " << cut;
    EXPECT_EQ(scan->checksum_failures, 0u) << "cut at " << cut;
    EXPECT_LE(scan->durable_prefix, cut);
  }
}

TEST(LogTest, FlippedBitAnywhereInBodyIsDetected) {
  // The acceptance criterion: a flipped bit in any record body must be
  // caught by the checksum (a flipped *length* byte may instead read as a
  // torn record — also rejected, tested separately).
  MemEnv env;
  WriteLog(&env, "log", {{LogRecordType::kDelta, "the record body"}});
  auto clean = Scan(&env, "log");
  ASSERT_TRUE(clean.ok());
  const uint64_t body_start = kLogMagicSize + kLogRecordHeaderSize;
  const uint64_t end = clean->file_size;

  for (uint64_t byte = body_start - 5; byte < end; ++byte) {
    // Covers the CRC field (last 4 header bytes), the type byte, and every
    // payload byte.
    for (uint8_t mask : {0x01, 0x80}) {
      MemEnv env2;
      WriteLog(&env2, "log", {{LogRecordType::kDelta, "the record body"}});
      ASSERT_TRUE(env2.CorruptByte("log", byte, mask).ok());
      auto scan = Scan(&env2, "log");
      ASSERT_TRUE(scan.ok());
      EXPECT_TRUE(scan->records.empty())
          << "corruption at byte " << byte << " not detected";
      EXPECT_EQ(scan->checksum_failures, 1u) << "byte " << byte;
      EXPECT_EQ(scan->durable_prefix, kLogMagicSize);
    }
  }
}

TEST(LogTest, FlippedLengthFieldRejectedAsTornOrChecksum) {
  MemEnv env;
  WriteLog(&env, "log", {{LogRecordType::kDelta, "0123456789"}});
  for (uint64_t byte = kLogMagicSize; byte < kLogMagicSize + 4; ++byte) {
    for (uint8_t mask : {0x01, 0x40, 0x80}) {
      MemEnv env2;
      WriteLog(&env2, "log", {{LogRecordType::kDelta, "0123456789"}});
      ASSERT_TRUE(env2.CorruptByte("log", byte, mask).ok());
      auto scan = Scan(&env2, "log");
      ASSERT_TRUE(scan.ok());
      // A larger length reads past the end (torn); a smaller one fails the
      // checksum over the shortened body. Both reject the record.
      EXPECT_TRUE(scan->records.empty()) << "byte " << byte;
      EXPECT_TRUE(scan->torn_tail || scan->checksum_failures == 1)
          << "byte " << byte;
    }
  }
}

TEST(LogTest, CorruptionStopsTheScanAtThatRecord) {
  MemEnv env;
  WriteLog(&env, "log",
           {{LogRecordType::kSnapshot, "first"},
            {LogRecordType::kDelta, "second"},
            {LogRecordType::kDelta, "third"}});
  auto clean = Scan(&env, "log");
  ASSERT_TRUE(clean.ok());
  // Corrupt the second record's payload: the first survives, the second and
  // everything after it (even though intact) is discarded — recovery must
  // never skip over a bad record.
  uint64_t target = clean->records[1].offset + kLogRecordHeaderSize;
  ASSERT_TRUE(env.CorruptByte("log", target, 0x04).ok());
  auto scan = Scan(&env, "log");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].payload, "first");
  EXPECT_EQ(scan->checksum_failures, 1u);
  EXPECT_EQ(scan->durable_prefix, clean->records[1].offset);
}

TEST(LogTest, ImplausibleLengthIsTornTail) {
  MemEnv env;
  WriteLog(&env, "log", {});
  auto file = env.NewWritableFile("log", false);
  ASSERT_TRUE(file.ok());
  std::string header;
  header.append(4, '\xff');  // Length 0xFFFFFFFF > kLogMaxRecordSize.
  header.append(4, '\x00');
  header.push_back(2);
  ASSERT_TRUE((*file)->Append(header).ok());
  ASSERT_TRUE((*file)->Close().ok());
  auto scan = Scan(&env, "log");
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_TRUE(scan->records.empty());
}

TEST(LogTest, WriterRefusesOversizedRecord) {
  MemEnv env;
  auto file = env.NewWritableFile("log", true);
  ASSERT_TRUE(file.ok());
  LogWriter writer(std::move(*file), 0, LogFormat::kV1);
  // Don't allocate 1 GiB: a string_view with a huge claimed size is enough
  // to exercise the size check, which fires before any dereference.
  std::string_view huge("x", 1);
  huge = std::string_view(huge.data(), kLogMaxRecordSize + 1ull);
  EXPECT_EQ(writer.AppendRecord(LogRecordType::kDelta, huge).code(),
            Code::kInvalidArgument);
}

}  // namespace
}  // namespace treediff
