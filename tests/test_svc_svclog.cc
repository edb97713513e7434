// Durable service log (svc/svclog): the preallocated zero tail is invisible
// to readers, a clean close trims it, and a log reopened over an untrimmed
// file (a kill's leftovers: zero tail, maybe a torn frame) appends right
// after the valid frame prefix, where every later read can see it.
#include "udc/svc/svclog.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "udc/coord/action.h"
#include "udc/store/wal.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_svclog_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

SvcBatch batch(std::uint64_t slot) {
  SvcBatch b;
  b.slot = slot;
  b.term = 1 + slot % 3;
  b.action = make_action(static_cast<ProcessId>(slot % 3), slot);
  for (std::uint64_t i = 0; i < 1 + slot % 4; ++i) {
    SvcOp op;
    op.session = 100 + i;
    op.seq = slot;
    op.kind = SvcOpKind::kWrite;
    op.reg = static_cast<std::int32_t>(i);
    op.value = static_cast<std::int64_t>(slot * 10 + i);
    b.ops.push_back(op);
  }
  return b;
}

std::vector<std::uint8_t> frame_of(const SvcBatch& b) {
  std::vector<std::uint8_t> payload;
  put_svc_batch(payload, b);
  return wal_frame(payload);
}

std::vector<SvcBatch> batches(std::uint64_t from, std::uint64_t to) {
  std::vector<SvcBatch> out;
  for (std::uint64_t s = from; s <= to; ++s) out.push_back(batch(s));
  return out;
}

// On-disk bytes of `bs`, framed back to back.
std::uint64_t data_bytes(const std::vector<SvcBatch>& bs) {
  std::uint64_t n = 0;
  for (const SvcBatch& b : bs) n += frame_of(b).size();
  return n;
}

void append_raw(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(SvcDurableLog, CleanCloseLeavesTheDataLengthAndReadsEveryBatch) {
  const fs::path p = fresh_dir("clean") / "svc.log";
  const auto want = batches(1, 40);
  {
    SvcDurableLog log(p.string());
    for (const SvcBatch& b : want) log.append(b);
    EXPECT_EQ(log.appended(), want.size());
  }
  EXPECT_EQ(fs::file_size(p), data_bytes(want));
  EXPECT_EQ(SvcDurableLog::read(p.string()), want);
}

TEST(SvcDurableLog, CopyOfAnOpenLogReadsEveryAppendedBatch) {
  const fs::path dir = fresh_dir("open_copy");
  const fs::path p = dir / "svc.log";
  const auto want = batches(1, 25);
  SvcDurableLog log(p.string());
  for (const SvcBatch& b : want) log.append(b);
  // What a kill -9 leaves: the frames, then the preallocated zeros.
  fs::copy_file(p, dir / "copy.log");
  EXPECT_GT(fs::file_size(dir / "copy.log"), data_bytes(want));
  EXPECT_EQ(SvcDurableLog::read((dir / "copy.log").string()), want);
}

TEST(SvcDurableLog, RecoverTrimsTheZeroTailAndReopenAppendsAfterThePrefix) {
  const fs::path dir = fresh_dir("reopen");
  const fs::path p = dir / "svc.log";
  const auto first = batches(1, 10);
  {
    SvcDurableLog log(p.string());
    for (const SvcBatch& b : first) log.append(b);
    fs::copy_file(p, dir / "recovered.log");
    fs::copy_file(p, dir / "untrimmed.log");
  }

  // recover() keeps every batch and cuts the file to the data length.
  const fs::path rec = dir / "recovered.log";
  EXPECT_EQ(SvcDurableLog::recover(rec.string()), first);
  EXPECT_EQ(fs::file_size(rec), data_bytes(first));

  // Reopened over the zero tail, the next append lands right after the
  // valid prefix: visible while the log is open, and after its close.
  const fs::path raw = dir / "untrimmed.log";
  ASSERT_GT(fs::file_size(raw), data_bytes(first));
  const auto all = batches(1, 12);
  {
    SvcDurableLog log(raw.string());
    log.append(batch(11));
    log.append(batch(12));
    EXPECT_EQ(SvcDurableLog::read(raw.string()), all);
  }
  EXPECT_EQ(SvcDurableLog::read(raw.string()), all);
  EXPECT_EQ(fs::file_size(raw), data_bytes(all));
}

TEST(SvcDurableLog, TornFrameFollowedByZerosReadsAsThePrefixBeforeIt) {
  const fs::path p = fresh_dir("torn") / "svc.log";
  const auto prefix = batches(1, 6);
  {
    SvcDurableLog log(p.string());
    for (const SvcBatch& b : prefix) log.append(b);
  }
  // A kill mid-append: half of the next frame, then preallocated zeros.
  std::vector<std::uint8_t> torn = frame_of(batch(7));
  torn.resize(torn.size() / 2);
  torn.resize(torn.size() + 4096, 0);
  append_raw(p, torn);
  EXPECT_EQ(SvcDurableLog::read(p.string()), prefix);

  // Reopening writes over the torn bytes rather than after them.
  {
    SvcDurableLog log(p.string());
    log.append(batch(7));
  }
  EXPECT_EQ(SvcDurableLog::read(p.string()), batches(1, 7));
  EXPECT_EQ(fs::file_size(p), data_bytes(batches(1, 7)));
}

}  // namespace
}  // namespace udc
