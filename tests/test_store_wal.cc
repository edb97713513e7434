// WAL + record codec (store/wal.h, store/codec.h): the durable form of a
// process's recorded history.  The load-bearing property is the tolerant
// reader: for ANY byte-level corruption of the file — truncation at an
// arbitrary byte, a flipped byte, appended garbage — read_wal_file returns
// exactly the longest valid frame prefix and never throws, because that
// prefix is the suffix-loss model the recovery protocol (DESIGN.md §9) is
// built on.
#include "udc/store/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "udc/common/rng.h"
#include "udc/store/codec.h"
#include "udc/store/crc32.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_store_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

void write_bytes(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// One record of every event kind, every message-bearing field exercised.
std::vector<StoreRecord> sample_records() {
  Message alpha;
  alpha.kind = MsgKind::kAlpha;
  alpha.action = 7;
  Message gossip;
  gossip.kind = MsgKind::kSuspicionGossip;
  gossip.procs = ProcSet::full(3);
  gossip.a = -4;
  gossip.b = 1'234'567'890'123LL;
  ProcSet s;
  s.insert(1);
  s.insert(2);
  return {
      {1, Event::init(5)},         {2, Event::send(2, alpha)},
      {3, Event::recv(0, gossip)}, {4, Event::do_action(5)},
      {5, Event::suspect(s)},      {6, Event::suspect_gen(s, 1)},
      {7, Event::crash()},
  };
}

// --- codec ----------------------------------------------------------------

TEST(StoreCodec, RoundTripsEveryEventKind) {
  for (const StoreRecord& r : sample_records()) {
    std::vector<std::uint8_t> bytes = encode_record(r);
    ASSERT_GT(bytes.size(), 0u);
    ASSERT_LE(bytes.size(), kMaxStoreRecordBytes);
    auto back = decode_record(bytes.data(), bytes.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, r);
  }
}

TEST(StoreCodec, DecodeIsTotalShortBuffersAndBadTagsYieldNullopt) {
  std::vector<std::uint8_t> bytes = encode_record(sample_records()[0]);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_record(bytes.data(), len).has_value()) << len;
  }
  // sample_records()[0] is {t=1, Event::init(5)}: t and peer are both
  // one-byte varints, so the raw event-kind tag sits at offset 1 and the
  // message-kind tag at offset 3.
  std::vector<std::uint8_t> bad_kind = bytes;
  bad_kind[1] = 0xFF;  // event kind tag
  EXPECT_FALSE(decode_record(bad_kind.data(), bad_kind.size()).has_value());
  std::vector<std::uint8_t> bad_msg = bytes;
  bad_msg[3] = 0xFF;  // message kind tag
  EXPECT_FALSE(decode_record(bad_msg.data(), bad_msg.size()).has_value());
}

TEST(StoreCodec, TypicalRecordsEncodeCompactly) {
  // The varint layout is a throughput claim, not just a format: fdatasync
  // writeback is priced per dirty byte, so a regression that re-inflates
  // send/recv records to their flat 66-byte ancestor shows up here first.
  Message m;
  m.kind = MsgKind::kApp;
  m.a = 1'000'000;
  EXPECT_LE(encode_record({1'000, Event::send(1, m)}).size(), 20u);
  EXPECT_LE(encode_record({1'001, Event::recv(0, m)}).size(), 20u);
  EXPECT_LE(encode_record({1'002, Event::do_action(7)}).size(), 20u);
}

TEST(StoreCodec, Crc32MatchesTheReferenceVector) {
  // The standard check value for reflected CRC-32 (IEEE 802.3).
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
}

TEST(StoreCodec, Crc32cMatchesTheReferenceVector) {
  // The standard check value for reflected CRC-32C (Castagnoli) — the WAL
  // frame checksum.  Pinned through BOTH entry points, so a machine where
  // the hardware dispatch kicks in proves the same polynomial as one where
  // the table walk runs.
  const char* s = "123456789";
  EXPECT_EQ(crc32c(s, 9), 0xE3069283u);
  EXPECT_EQ(crc32c_sw(s, 9), 0xE3069283u);
}

TEST(StoreCodec, Crc32cHardwareAgreesWithSoftwareOnRandomBuffers) {
  // The dispatched crc32c must be byte-identical to the table walk for
  // every length 0..256 (covers the 8-byte main loop, the byte tail, and
  // empty input) — otherwise a hardware box and a fallback box would
  // silently disagree about which WAL frames are valid.
  Rng rng(20260808);
  std::vector<std::uint8_t> buf(256);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    EXPECT_EQ(crc32c(buf.data(), len), crc32c_sw(buf.data(), len)) << len;
    EXPECT_EQ(crc32c(buf.data(), len, /*seed=*/0xDEADBEEFu),
              crc32c_sw(buf.data(), len, 0xDEADBEEFu))
        << len;
  }
}

// --- writer / reader ------------------------------------------------------

TEST(StoreWal, AppendedFramesReadBackInOrder) {
  fs::path dir = fresh_dir("roundtrip");
  std::string path = (dir / "p.wal").string();
  const std::vector<StoreRecord> recs = sample_records();
  {
    WalWriter w(path, {.fsync = FsyncPolicy::kEveryAppend, .sync_every = 1});
    for (const StoreRecord& r : recs) w.append(r);
    EXPECT_EQ(w.frames_appended(), recs.size());
    EXPECT_EQ(w.bytes_synced(), w.bytes_written());
  }
  WalReadResult r = read_wal_file(path);
  EXPECT_FALSE(r.tail_corrupt);
  EXPECT_EQ(r.valid_bytes, r.file_bytes);
  ASSERT_EQ(r.records.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(r.records[i], recs[i]);
  }
  fs::remove_all(dir);
}

TEST(StoreWal, MissingFileReadsAsEmptyNotAsAnError) {
  WalReadResult r = read_wal_file("/nonexistent/dir/p.wal");
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.file_bytes, 0u);
  EXPECT_FALSE(r.tail_corrupt);
}

TEST(StoreWal, ShortReadChunksSeeTheSameLog) {
  fs::path dir = fresh_dir("shortread");
  std::string path = (dir / "p.wal").string();
  const std::vector<StoreRecord> recs = sample_records();
  WalWriter w(path, {.fsync = FsyncPolicy::kEveryAppend, .sync_every = 1});
  for (const StoreRecord& r : recs) w.append(r);
  // A 3-byte read chunk splits every frame header; the reader must still
  // assemble the identical log.
  WalReadResult full = read_wal_file(path);
  WalReadResult chunked = read_wal_file(path, /*max_read_chunk=*/3);
  EXPECT_EQ(chunked.records, full.records);
  EXPECT_EQ(chunked.valid_bytes, full.valid_bytes);
  fs::remove_all(dir);
}

TEST(StoreWal, FsyncPolicyGovernsTheSyncedWatermark) {
  fs::path dir = fresh_dir("fsync");
  std::string path = (dir / "p.wal").string();
  const std::vector<StoreRecord> recs = sample_records();
  WalWriter w(path, {.fsync = FsyncPolicy::kEveryN, .sync_every = 2});
  w.append(recs[0]);
  EXPECT_LT(w.bytes_synced(), w.bytes_written());  // one frame unsynced
  w.append(recs[1]);
  EXPECT_EQ(w.bytes_synced(), w.bytes_written());  // batch of 2 flushed
  // A failing fsync is swallowed and counted; the watermark does not move.
  w.set_sync_failing(true);
  w.append(recs[2]);
  w.append(recs[3]);
  EXPECT_LT(w.bytes_synced(), w.bytes_written());
  EXPECT_GE(w.sync_failures(), 1u);
  // Once the device recovers an explicit commit catches up.
  w.set_sync_failing(false);
  w.commit();
  EXPECT_EQ(w.bytes_synced(), w.bytes_written());
  fs::remove_all(dir);
}

TEST(StoreWal, RepairCutsACorruptTailAndIsIdempotent) {
  fs::path dir = fresh_dir("repair");
  std::string path = (dir / "p.wal").string();
  const std::vector<StoreRecord> recs = sample_records();
  {
    WalWriter w(path, {.fsync = FsyncPolicy::kEveryAppend, .sync_every = 1});
    for (const StoreRecord& r : recs) w.append(r);
  }
  // Torn write: a strict prefix of one more frame.
  std::vector<std::uint8_t> frame = wal_frame(encode_record(recs[0]));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size() / 2));
  }
  EXPECT_TRUE(read_wal_file(path).tail_corrupt);
  EXPECT_TRUE(repair_wal_file(path));   // cut happened
  EXPECT_FALSE(repair_wal_file(path));  // already clean
  WalReadResult r = read_wal_file(path);
  EXPECT_FALSE(r.tail_corrupt);
  ASSERT_EQ(r.records.size(), recs.size());
  fs::remove_all(dir);
}

// --- the torture property -------------------------------------------------

// 1000 seeded corruption variants (truncate at a random byte / flip a random
// byte / append random garbage) against a known-good log.  Every variant
// must recover EXACTLY the longest valid frame prefix — computed from the
// corruption site, not just "some prefix" — with zero throws, and repair
// must reach a clean fixpoint.
TEST(StoreWal, TortureAlwaysRecoversExactlyTheLongestValidPrefix) {
  fs::path dir = fresh_dir("torture");
  std::vector<StoreRecord> recs;
  for (Time t = 1; t <= 8; ++t) {
    recs.push_back({t, Event::do_action(t % 3)});
  }
  std::vector<std::uint8_t> clean;
  std::vector<std::size_t> boundary;  // byte offset after each frame
  for (const StoreRecord& r : recs) {
    std::vector<std::uint8_t> f = wal_frame(encode_record(r));
    clean.insert(clean.end(), f.begin(), f.end());
    boundary.push_back(clean.size());
  }
  auto frames_before = [&](std::size_t byte) {
    // Frames wholly contained in [0, byte).
    std::size_t n = 0;
    while (n < boundary.size() && boundary[n] <= byte) ++n;
    return n;
  };

  Rng rng(20260806);
  fs::path p = dir / "victim.wal";
  for (int variant = 0; variant < 1'000; ++variant) {
    std::vector<std::uint8_t> bytes = clean;
    std::size_t expected = recs.size();
    switch (rng.next_below(3)) {
      case 0: {  // truncation at an arbitrary byte
        std::size_t cut = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(bytes.size()) + 1));
        bytes.resize(cut);
        expected = frames_before(cut);
        break;
      }
      case 1: {  // single-byte flip (CRC-32 detects every one)
        std::size_t off = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(bytes.size())));
        bytes[off] ^= 0xFFu;
        expected = frames_before(off);  // the flipped frame and later are cut
        break;
      }
      case 2: {  // appended garbage
        std::size_t extra = 1 + static_cast<std::size_t>(rng.next_below(64));
        for (std::size_t i = 0; i < extra; ++i) {
          bytes.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
        }
        break;  // expected stays recs.size()
      }
    }
    write_bytes(p, bytes);

    WalReadResult r = read_wal_file(p.string());  // must not throw
    ASSERT_EQ(r.records.size(), expected) << "variant " << variant;
    for (std::size_t i = 0; i < r.records.size(); ++i) {
      ASSERT_EQ(r.records[i], recs[i]) << "variant " << variant;
    }
    repair_wal_file(p.string());
    WalReadResult fixed = read_wal_file(p.string());
    ASSERT_FALSE(fixed.tail_corrupt) << "variant " << variant;
    ASSERT_EQ(fixed.records.size(), expected) << "variant " << variant;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace udc
