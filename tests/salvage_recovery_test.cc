// Salvage recovery (RecoveryMode::kSalvage): mid-log corruption costs the
// versions inside the damaged range, not every version after it. The scan
// resynchronizes on the next checksum-valid record, the version chain
// re-anchors on the next checkpoint, and the damaged original is
// quarantined by rotation. Also covers the hardened Open error paths and
// the golden-log format-compatibility fixture.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "store/log.h"
#include "store/version_store.h"
#include "tree/builder.h"
#include "util/fault_env.h"

namespace treediff {
namespace {

/// Version v of the test document: one paragraph per version so far, so
/// every delta is a clean insert and every version is distinguishable.
std::string DocText(int v) {
  std::string s = "(D";
  for (int p = 0; p <= v; ++p) {
    s += " (P (S \"para" + std::to_string(p) + " body words\"))";
  }
  s += ")";
  return s;
}

/// StoreOptions bound to `env` with everything else defaulted (spelled as
/// a helper because -Werror=missing-field-initializers rejects designated
/// initializers that skip fields).
StoreOptions MemOptions(Env* env) {
  StoreOptions store_options;
  store_options.env = env;
  return store_options;
}

/// Builds a durable store at `path` on `env` with versions 0..versions-1
/// (checkpoint every `checkpoint_interval` commits), then closes it.
void BuildStore(Env* env, const std::string& path, int versions,
                int checkpoint_interval) {
  StoreOptions store_options;
  store_options.env = env;
  store_options.checkpoint_interval = checkpoint_interval;
  auto store = VersionStore::Create(path, *ParseSexpr(DocText(0)), {},
                                    store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int v = 1; v < versions; ++v) {
    auto tree = ParseSexpr(DocText(v), store->label_table());
    ASSERT_TRUE(tree.ok());
    auto committed = store->Commit(*tree);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    ASSERT_EQ(*committed, v);
  }
}

struct RecordLoc {
  LogRecordType type;
  uint64_t offset;  // Of the record header.
  uint64_t size;    // Header + payload.
};

/// Record layout of the log at `path`, via the same scanner recovery uses.
std::vector<RecordLoc> Records(Env* env, const std::string& path) {
  std::vector<RecordLoc> out;
  auto file = env->NewRandomAccessFile(path);
  if (!file.ok()) return out;
  auto scan = ScanLog(file->get());
  if (!scan.ok()) return out;
  for (const LogScanRecord& r : scan->records) {
    out.push_back({r.type, r.offset,
                   static_cast<uint64_t>(LogRecordHeaderSize(scan->format)) +
                       r.payload.size()});
  }
  return out;
}

/// The index in `records` of the n-th (0-based) record of `type`, or -1.
int NthOfType(const std::vector<RecordLoc>& records, LogRecordType type,
              int n) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].type == type && n-- == 0) return static_cast<int>(i);
  }
  return -1;
}

void ExpectVersionsIntact(const VersionStore& store,
                          const std::vector<int>& versions) {
  for (int v : versions) {
    auto tree = store.Materialize(v);
    ASSERT_TRUE(tree.ok()) << "version " << v << ": "
                           << tree.status().ToString();
    auto expected = ParseSexpr(DocText(v), store.label_table());
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(Tree::Isomorphic(*tree, *expected)) << "version " << v;
  }
}

// ---------------------------------------------------------------------------
// Salvage past mid-log corruption.

TEST(SalvageRecoveryTest, MidLogCorruptionCostsOnlyTheDamagedRange) {
  MemEnv env;
  BuildStore(&env, "s.log", 7, 2);
  // Log: snapshot, d1, d2, cp2, d3, d4, cp4, d5, d6, cp6. Corrupt d3 (the
  // delta right after the first checkpoint): salvage resyncs on d4, which
  // is unusable inside the hole, and re-anchors on cp4.
  auto records = Records(&env, "s.log");
  const int target = NthOfType(records, LogRecordType::kDelta, 2);
  ASSERT_GE(target, 0);
  ASSERT_TRUE(
      env.CorruptByte("s.log", records[static_cast<size_t>(target)].offset +
                                   kLogRecordHeaderSize + 2,
                      0x40)
          .ok());

  // The conservative default still stops at the damage.
  {
    RecoveryReport report;
    auto truncated = VersionStore::Open("s.log", {}, MemOptions(&env), &report);
    ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
    EXPECT_EQ(truncated->VersionCount(), 3);
    EXPECT_EQ(report.checksum_failures, 1u);
    EXPECT_GT(report.bytes_truncated, 0u);
    EXPECT_FALSE(report.clean());
    // Reads only: reopening must not modify the file while another config
    // could still salvage it... except for the tail truncation, so rebuild
    // the damaged input for the salvage run below.
  }

  MemEnv env2;
  BuildStore(&env2, "s.log", 7, 2);
  ASSERT_TRUE(
      env2.CorruptByte("s.log", records[static_cast<size_t>(target)].offset +
                                    kLogRecordHeaderSize + 2,
                       0x40)
          .ok());
  StoreOptions salvage;
  salvage.env = &env2;
  salvage.recovery = RecoveryMode::kSalvage;
  RecoveryReport report;
  auto store = VersionStore::Open("s.log", {}, salvage, &report);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // Versions before the damage and from the re-anchoring checkpoint on
  // are intact; version 3 fell in the hole.
  EXPECT_EQ(store->VersionCount(), 7);
  ExpectVersionsIntact(*store, {0, 1, 2, 4, 5, 6});
  EXPECT_EQ(store->Materialize(3).status().code(), Code::kDataLoss);

  EXPECT_EQ(report.checksum_failures, 1u);
  EXPECT_GE(report.records_skipped, 1u);
  EXPECT_EQ(report.versions_lost, 1u);
  EXPECT_TRUE(report.rotated);
  EXPECT_FALSE(report.salvage_ranges.empty());
  EXPECT_FALSE(report.clean());

  // The damaged original was quarantined, not destroyed.
  bool quarantined = false;
  for (const std::string& f : env2.ListFiles()) {
    quarantined |= f.rfind("s.log.", 0) == 0;
  }
  EXPECT_TRUE(quarantined);
}

TEST(SalvageRecoveryTest, RewrittenLogReopensInDefaultMode) {
  MemEnv env;
  BuildStore(&env, "s.log", 7, 2);
  auto records = Records(&env, "s.log");
  const int target = NthOfType(records, LogRecordType::kDelta, 2);
  ASSERT_GE(target, 0);
  ASSERT_TRUE(
      env.CorruptByte("s.log", records[static_cast<size_t>(target)].offset +
                                   kLogRecordHeaderSize + 2,
                      0x40)
          .ok());
  StoreOptions salvage;
  salvage.env = &env;
  salvage.recovery = RecoveryMode::kSalvage;
  {
    auto store = VersionStore::Open("s.log", {}, salvage, nullptr);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
  }
  // Salvage rotated the log; the rewrite (with its re-anchoring jump
  // checkpoint) must reopen under the conservative default, holes intact.
  RecoveryReport report;
  auto reopened = VersionStore::Open("s.log", {}, MemOptions(&env), &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->VersionCount(), 7);
  ExpectVersionsIntact(*reopened, {0, 1, 2, 4, 5, 6});
  EXPECT_EQ(reopened->Materialize(3).status().code(), Code::kDataLoss);
  EXPECT_EQ(report.bytes_truncated, 0u);
  EXPECT_EQ(report.checksum_failures, 0u);
  EXPECT_FALSE(report.rotated);
  EXPECT_EQ(report.versions_lost, 1u);  // The pre-existing hole persists.
}

TEST(SalvageRecoveryTest, CommitsContinueAfterSalvage) {
  MemEnv env;
  BuildStore(&env, "s.log", 7, 2);
  auto records = Records(&env, "s.log");
  const int target = NthOfType(records, LogRecordType::kDelta, 2);
  ASSERT_GE(target, 0);
  ASSERT_TRUE(
      env.CorruptByte("s.log", records[static_cast<size_t>(target)].offset +
                                   kLogRecordHeaderSize + 2,
                      0x40)
          .ok());
  StoreOptions salvage;
  salvage.env = &env;
  salvage.recovery = RecoveryMode::kSalvage;
  auto store = VersionStore::Open("s.log", {}, salvage, nullptr);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto next = ParseSexpr(DocText(7), store->label_table());
  ASSERT_TRUE(next.ok());
  auto committed = store->Commit(*next);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(*committed, 7);
  ExpectVersionsIntact(*store, {7});
}

TEST(SalvageRecoveryTest, RollbackCannotCrossASalvageHole) {
  MemEnv env;
  BuildStore(&env, "s.log", 7, 2);
  auto records = Records(&env, "s.log");
  const int target = NthOfType(records, LogRecordType::kDelta, 2);
  ASSERT_GE(target, 0);
  ASSERT_TRUE(
      env.CorruptByte("s.log", records[static_cast<size_t>(target)].offset +
                                   kLogRecordHeaderSize + 2,
                      0x40)
          .ok());
  StoreOptions salvage;
  salvage.env = &env;
  salvage.recovery = RecoveryMode::kSalvage;
  auto store = VersionStore::Open("s.log", {}, salvage, nullptr);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // 6 -> 5 -> 4 roll back fine; 4 is the re-anchor, and the version before
  // it lies across the hole.
  ASSERT_TRUE(store->RollbackHead().ok());
  ASSERT_TRUE(store->RollbackHead().ok());
  auto blocked = store->RollbackHead();
  EXPECT_EQ(blocked.status().code(), Code::kFailedPrecondition);
  EXPECT_NE(blocked.status().message().find("salvage hole"),
            std::string::npos);
  // The failed rollback left the store unchanged and serving.
  EXPECT_EQ(store->VersionCount(), 5);
  ExpectVersionsIntact(*store, {4});
}

TEST(SalvageRecoveryTest, HoleVersionsReportAbsentInfoAndDelta) {
  MemEnv env;
  BuildStore(&env, "s.log", 7, 2);
  auto records = Records(&env, "s.log");
  const int target = NthOfType(records, LogRecordType::kDelta, 2);
  ASSERT_GE(target, 0);
  ASSERT_TRUE(
      env.CorruptByte("s.log", records[static_cast<size_t>(target)].offset +
                                   kLogRecordHeaderSize + 2,
                      0x40)
          .ok());
  StoreOptions salvage;
  salvage.env = &env;
  salvage.recovery = RecoveryMode::kSalvage;
  auto store = VersionStore::Open("s.log", {}, salvage, nullptr);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // The hole has no delta and no info; the re-anchor has a tree but no
  // surviving delta stats; versions after it have both.
  EXPECT_EQ(store->DeltaFor(3), nullptr);
  EXPECT_EQ(store->Info(3).nodes, 0u);
  EXPECT_EQ(store->DeltaFor(4), nullptr);
  EXPECT_EQ(store->Info(4).nodes, 0u);
  EXPECT_NE(store->DeltaFor(5), nullptr);
  EXPECT_GT(store->Info(5).nodes, 0u);
  EXPECT_GT(store->Storage().delta_bytes, 0u);
}

TEST(SalvageRecoveryTest, WithoutCheckpointsSalvageStopsAtTheDamage) {
  MemEnv env;
  BuildStore(&env, "s.log", 5, /*checkpoint_interval=*/0);
  auto records = Records(&env, "s.log");
  const int target = NthOfType(records, LogRecordType::kDelta, 1);
  ASSERT_GE(target, 0);
  ASSERT_TRUE(
      env.CorruptByte("s.log", records[static_cast<size_t>(target)].offset +
                                   kLogRecordHeaderSize + 2,
                      0x40)
          .ok());
  StoreOptions salvage;
  salvage.env = &env;
  salvage.recovery = RecoveryMode::kSalvage;
  RecoveryReport report;
  auto store = VersionStore::Open("s.log", {}, salvage, &report);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // Nothing to re-anchor on: the records after the damage are parseable
  // but underivable, so only the prefix survives.
  EXPECT_EQ(store->VersionCount(), 2);
  ExpectVersionsIntact(*store, {0, 1});
  EXPECT_GE(report.records_skipped, 2u);
  EXPECT_TRUE(report.rotated);
}

// ---------------------------------------------------------------------------
// Hardened Open error paths.

TEST(OpenErrorPathTest, MissingFileIsNotFound) {
  MemEnv env;
  auto store = VersionStore::Open("nope.log", {}, MemOptions(&env));
  EXPECT_EQ(store.status().code(), Code::kNotFound);
}

TEST(OpenErrorPathTest, ZeroLengthFileIsDataLossNamingThePath) {
  MemEnv env;
  {
    auto file = env.NewWritableFile("empty.log", true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto store = VersionStore::Open("empty.log", {}, MemOptions(&env));
  EXPECT_EQ(store.status().code(), Code::kDataLoss);
  EXPECT_NE(store.status().message().find("zero-length"), std::string::npos);
  EXPECT_NE(store.status().message().find("empty.log"), std::string::npos);
}

TEST(OpenErrorPathTest, DirectoryPathIsInvalidArgument) {
  // The POSIX Env rejects directories up front instead of letting a read
  // of a directory fd surface as a confusing I/O error. "." always exists.
  auto store = VersionStore::Open(".");
  EXPECT_EQ(store.status().code(), Code::kInvalidArgument);
  EXPECT_NE(store.status().message().find("directory"), std::string::npos);
}

TEST(OpenErrorPathTest, BadMagicIsDataLossNamingThePath) {
  MemEnv env;
  {
    auto file = env.NewWritableFile("junk.log", true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("this is not a commit log at all").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto store = VersionStore::Open("junk.log", {}, MemOptions(&env));
  EXPECT_EQ(store.status().code(), Code::kDataLoss);
  EXPECT_NE(store.status().message().find("junk.log"), std::string::npos);
}

TEST(OpenErrorPathTest, MagicButNoBaseSnapshotIsDataLoss) {
  MemEnv env;
  {
    auto file = env.NewWritableFile("hdr.log", true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        (*file)->Append(std::string(kLogMagic, kLogMagicSize)).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto store = VersionStore::Open("hdr.log", {}, MemOptions(&env));
  EXPECT_EQ(store.status().code(), Code::kDataLoss);
  EXPECT_NE(store.status().message().find("base snapshot"),
            std::string::npos);
}

TEST(OpenErrorPathTest, FirstRecordOfWrongTypeIsDataLoss) {
  MemEnv env;
  {
    auto file = env.NewWritableFile("wrong.log", true);
    ASSERT_TRUE(file.ok());
    std::string payload;
    payload.push_back('\x05');  // varint version 5, no tree bytes
    ASSERT_TRUE(
        (*file)->Append(std::string(kLogMagic, kLogMagicSize)).ok());
    ASSERT_TRUE(
        (*file)
            ->Append(EncodeLogRecord(LogRecordType::kCheckpoint, payload))
            .ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto store = VersionStore::Open("wrong.log", {}, MemOptions(&env));
  EXPECT_EQ(store.status().code(), Code::kDataLoss);
  EXPECT_NE(store.status().message().find("base snapshot"),
            std::string::npos);
}

TEST(OpenErrorPathTest, CorruptBaseSnapshotIsDataLossEvenInSalvage) {
  MemEnv env;
  BuildStore(&env, "s.log", 3, 0);
  auto records = Records(&env, "s.log");
  ASSERT_FALSE(records.empty());
  ASSERT_EQ(records[0].type, LogRecordType::kSnapshot);
  ASSERT_TRUE(
      env.CorruptByte("s.log", records[0].offset + kLogRecordHeaderSize + 1,
                      0x10)
          .ok());
  StoreOptions salvage;
  salvage.env = &env;
  salvage.recovery = RecoveryMode::kSalvage;
  auto store = VersionStore::Open("s.log", {}, salvage);
  EXPECT_EQ(store.status().code(), Code::kDataLoss);
}

// ---------------------------------------------------------------------------
// RecoveryReport::ToString, including the salvage fields.

TEST(RecoveryReportTest, ToStringCleanRecovery) {
  RecoveryReport report;
  report.bytes_total = 100;
  report.records_scanned = 4;
  report.versions_recovered = 3;
  report.deltas_replayed = 2;
  report.checkpoint_version = -1;
  EXPECT_TRUE(report.clean());
  const std::string s = report.ToString();
  EXPECT_NE(s.find("recovered 3 version(s)"), std::string::npos);
  EXPECT_NE(s.find("head replayed from base (2 delta(s))"),
            std::string::npos);
  EXPECT_EQ(s.find("truncated"), std::string::npos);
  EXPECT_EQ(s.find("salvaged"), std::string::npos);
}

TEST(RecoveryReportTest, ToStringTruncationAndCheckpoint) {
  RecoveryReport report;
  report.bytes_total = 500;
  report.bytes_truncated = 17;
  report.torn_tail = true;
  report.records_scanned = 9;
  report.versions_recovered = 8;
  report.deltas_replayed = 1;
  report.checkpoint_version = 6;
  EXPECT_FALSE(report.clean());
  const std::string s = report.ToString();
  EXPECT_NE(s.find("head from checkpoint v6 + 1 delta(s)"),
            std::string::npos);
  EXPECT_NE(s.find("truncated 17 byte(s) (torn tail)"), std::string::npos);
}

TEST(RecoveryReportTest, ToStringSalvageFields) {
  RecoveryReport report;
  report.bytes_total = 900;
  report.records_scanned = 10;
  report.checksum_failures = 2;
  report.versions_recovered = 7;
  report.deltas_replayed = 2;
  report.checkpoint_version = 8;
  report.records_skipped = 3;
  report.versions_lost = 2;
  report.rotated = true;
  report.salvage_ranges = {{40, 61}, {200, 231}};
  EXPECT_FALSE(report.clean());
  const std::string s = report.ToString();
  EXPECT_NE(s.find("salvaged past 2 damaged range(s) [40-61, 200-231)"),
            std::string::npos);
  EXPECT_NE(s.find("skipped 3 record(s)"), std::string::npos);
  EXPECT_NE(s.find("lost 2 version(s)"), std::string::npos);
  EXPECT_NE(s.find("log rewritten (original quarantined)"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden log: a frozen on-disk image from the current format generation.
// If a format change ever breaks the ability to read logs written by
// earlier builds, this fails before any user's store does.

#ifndef TREEDIFF_TESTDATA_DIR
#define TREEDIFF_TESTDATA_DIR "tests/testdata"
#endif

StatusOr<std::string> ReadHexFixture(const std::string& name) {
  std::ifstream in(std::string(TREEDIFF_TESTDATA_DIR) + "/" + name);
  if (!in) return Status::NotFound("fixture not found: " + name);
  std::string bytes;
  int hi = -1;
  char c;
  while (in.get(c)) {
    int nibble;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      nibble = c - 'A' + 10;
    } else {
      continue;  // Whitespace / line breaks.
    }
    if (hi < 0) {
      hi = nibble;
    } else {
      bytes.push_back(static_cast<char>((hi << 4) | nibble));
      hi = -1;
    }
  }
  return bytes;
}

TEST(GoldenLogTest, FrozenV1LogRecoversExactly) {
  auto bytes = ReadHexFixture("golden_v1_log.hex");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  MemEnv env;
  {
    auto file = env.NewWritableFile("golden.log", true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(*bytes).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  RecoveryReport report;
  auto store = VersionStore::Open("golden.log", {}, MemOptions(&env), &report);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(report.clean()) << report.ToString();
  // The fixture holds versions 0..4 of DocText with a checkpoint every 2
  // commits (see tests/testdata/README).
  EXPECT_EQ(store->VersionCount(), 5);
  ExpectVersionsIntact(*store, {0, 1, 2, 3, 4});
  // Recovery must not have modified the log: byte-identical round trip.
  auto after = env.FileBytes("golden.log");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *bytes);
}

/// Plants `bytes` as golden.log on `env`.
void PlantFixture(MemEnv* env, const std::string& bytes) {
  auto file = env->NewWritableFile("golden.log", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(bytes).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
}

TEST(GoldenLogTest, FrozenV1LogSalvagesPastMidLogDamage) {
  // Salvage must keep working on the frozen v1 image, not just on logs the
  // current build wrote itself. Corrupt a delta payload byte mid-log: the
  // damaged version falls in the hole, everything else survives.
  auto bytes = ReadHexFixture("golden_v1_log.hex");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  MemEnv env;
  PlantFixture(&env, *bytes);
  auto records = Records(&env, "golden.log");
  // Fixture layout: snapshot, d1, d2, cp2, d3, d4, cp4. Hit d3.
  const int target = NthOfType(records, LogRecordType::kDelta, 2);
  ASSERT_GE(target, 0);
  ASSERT_TRUE(
      env.CorruptByte("golden.log",
                      records[static_cast<size_t>(target)].offset +
                          kLogRecordHeaderSize + 2,
                      0x40)
          .ok());
  StoreOptions salvage = MemOptions(&env);
  salvage.recovery = RecoveryMode::kSalvage;
  RecoveryReport report;
  auto store = VersionStore::Open("golden.log", {}, salvage, &report);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->VersionCount(), 5);
  ExpectVersionsIntact(*store, {0, 1, 2, 4});
  EXPECT_EQ(store->Materialize(3).status().code(), Code::kDataLoss);
  EXPECT_EQ(report.records_skipped, 1u);
}

TEST(GoldenLogTest, FrozenV1LogKeepsV1FramingAcrossAppends) {
  // Opening an old-format log must not silently upgrade it: new commits
  // append v1 frames to a v1 log (only rotation rewrites to the current
  // generation), so a store shared with an older build stays readable by
  // that build.
  auto bytes = ReadHexFixture("golden_v1_log.hex");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  MemEnv env;
  PlantFixture(&env, *bytes);
  {
    auto store = VersionStore::Open("golden.log", {}, MemOptions(&env));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store->log_format(), LogFormat::kV1);
    auto tree = ParseSexpr(DocText(5), store->label_table());
    ASSERT_TRUE(tree.ok());
    auto committed = store->Commit(*tree);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    EXPECT_EQ(*committed, 5);
    EXPECT_EQ(store->log_format(), LogFormat::kV1);
  }
  // The appended log still scans as v1 end to end and reopens cleanly.
  {
    auto file = env.NewRandomAccessFile("golden.log");
    ASSERT_TRUE(file.ok());
    auto scan = ScanLog(file->get());
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->format, LogFormat::kV1);
  }
  RecoveryReport report;
  auto reopened = VersionStore::Open("golden.log", {}, MemOptions(&env),
                                     &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(reopened->VersionCount(), 6);
  ExpectVersionsIntact(*reopened, {0, 1, 2, 3, 4, 5});
}

TEST(GoldenLogTest, FrozenV2LogRecoversExactly) {
  // The current generation gets the same freeze: a v2 image written when
  // the epoch field landed must stay readable by every future build.
  auto bytes = ReadHexFixture("golden_v2_log.hex");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  MemEnv env;
  PlantFixture(&env, *bytes);
  RecoveryReport report;
  auto store = VersionStore::Open("golden.log", {}, MemOptions(&env), &report);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(store->log_format(), LogFormat::kV2);
  EXPECT_EQ(store->VersionCount(), 5);
  EXPECT_EQ(store->epoch(), 0u);
  ExpectVersionsIntact(*store, {0, 1, 2, 3, 4});
  auto after = env.FileBytes("golden.log");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *bytes);
}

TEST(GoldenLogTest, WriterReproducesTheFrozenV2Log) {
  // The writer side of the freeze: Create plus four commits at the
  // fixture's checkpoint interval must lay down the fixture byte for byte
  // (tools/make_golden_log wrote it the same way).
  auto bytes = ReadHexFixture("golden_v2_log.hex");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  MemEnv env;
  BuildStore(&env, "golden.log", 5, /*checkpoint_interval=*/2);
  auto written = env.FileBytes("golden.log");
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, *bytes);
}

}  // namespace
}  // namespace treediff
