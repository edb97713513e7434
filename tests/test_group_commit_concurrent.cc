// Concurrent group-commit property test (store/group_commit.h, DESIGN.md
// §11), built to run under TSan: many stores append from their own worker
// threads while ONE committer batches their barriers, a scripted kSyncFail
// window poisons barriers mid-run, and the workers are then hard-killed
// under the machine-crash kTruncate fault WHILE the committer is still
// live.  The property under test is the loss-window contract:
//
//   durable_floor() <= |recover()| <= frames appended,
//   and recover() is an EXACT PREFIX of what was appended
//
// — i.e. what any kill loses is "since the last successful group commit",
// never a hole, never a reordering, never anything a barrier already
// covered.  The sweep runs the same scenario through every SyncBarrier
// engine (pool / serial, plus whichever one an unconfigured store picks),
// so the batched-fdatasync plumbing is raced under every implementation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "udc/chaos/fault_script.h"
#include "udc/common/rng.h"
#include "udc/event/event.h"
#include "udc/store/group_commit.h"
#include "udc/store/process_store.h"
#include "udc/store/sync_barrier.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_gcc_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

// The event each worker appends at tick t: cycle through the record kinds
// so the ring's variable-length frames actually vary (send/recv carry a
// message, do_action is near-minimal).
Event event_at(ProcessId self, Time t) {
  Message m;
  m.kind = MsgKind::kApp;
  m.a = static_cast<std::int64_t>(self) * 1'000'000 + t;
  switch (t % 3) {
    case 0:
      return Event::send(static_cast<ProcessId>((self + 1) % 8), m);
    case 1:
      return Event::recv(static_cast<ProcessId>((self + 7) % 8), m);
    default:
      return Event::do_action(static_cast<ActionId>(t));
  }
}

struct SweepCase {
  CommitBarrier mode;
  const char* name;
};

class GroupCommitConcurrent : public ::testing::TestWithParam<SweepCase> {};

// The full pipeline under fire: 8 stores x 8 workers, staged rings, small
// segments (so rotation happens mid-run), snapshot rotation interleaved,
// a kSyncFail window over the middle third, then kill-under-committer and
// the prefix/floor assertions per store.
TEST_P(GroupCommitConcurrent, KillMidBatchLosesAtMostSinceLastCommit) {
  const int n = 8;
  const Time kEvents = 600;
  const SweepCase param = GetParam();
  auto dir = fresh_dir(std::string("kill_") + param.name);

  StoreOptions o;
  o.group_commit = true;
  o.segment_bytes = 4 * 1024;  // many rotations across 600 frames
  o.ring_frames = 64;          // small ring: self-drain backpressure too
  o.commit_every = 16;
  o.commit_interval = std::chrono::microseconds{200};
  o.snapshot_every = 150;  // rotations race the committer's drains
  o.barrier = param.mode;

  // Machine-crash semantics at every kill, plus poisoned barriers over the
  // middle third of the run.
  StorageFault trunc;
  trunc.kind = StorageFault::Kind::kTruncate;
  StorageFault sync_fail;
  sync_fail.kind = StorageFault::Kind::kSyncFail;
  sync_fail.begin = kEvents / 3;
  sync_fail.end = 2 * kEvents / 3;

  std::vector<std::unique_ptr<ProcessStore>> stores;
  for (ProcessId p = 0; p < n; ++p) {
    stores.push_back(std::make_unique<ProcessStore>(
        dir.string(), p, o, std::vector<StorageFault>{trunc, sync_fail}));
  }
  GroupCommitter committer(GroupCommitOptions{param.mode, 4});
  for (auto& s : stores) committer.attach(s.get());

  {
    std::vector<std::thread> workers;
    for (ProcessId p = 0; p < n; ++p) {
      workers.emplace_back([&, p] {
        ProcessStore& st = *stores[static_cast<std::size_t>(p)];
        for (Time t = 1; t <= kEvents; ++t) {
          st.append(t, event_at(p, t));
          // Park once inside the kSyncFail window, until a failing round
          // has actually hit this store — the failure counter below must
          // not depend on scheduler luck (this box runs ctest heavily
          // oversubscribed).  NOT at a multiple of snapshot_every: a
          // rotation empties the WAL, and idle failing rounds are
          // (correctly) not counted.  The round is guaranteed to come:
          // ~100 frames are staged since the last rotation, well past
          // commit_every, so the committer has already been kicked.
          if (t == kEvents / 2 - 50) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (st.counters().sync_failures == 0 &&
                   std::chrono::steady_clock::now() < deadline) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  // Floors are read while the committer is STILL RUNNING — they only grow,
  // so each remains a valid lower bound for its store's recovery.
  std::vector<std::size_t> floors;
  for (auto& s : stores) floors.push_back(s->durable_floor());

  // Kill every store under the live committer: close() must wait out any
  // in-flight drain, a round that pinned a now-closed writer must see a
  // non-pending ticket, and nothing may deadlock or race.  Only then stop.
  Rng rng(20260808);
  for (auto& s : stores) s->apply_kill_faults(kEvents + 1, rng);
  committer.stop();

  std::size_t sync_failures = 0;
  for (ProcessId p = 0; p < n; ++p) {
    ProcessStore& st = *stores[static_cast<std::size_t>(p)];
    const std::size_t floor = floors[static_cast<std::size_t>(p)];
    std::vector<StoreRecord> rec = st.recover();
    ASSERT_GE(rec.size(), floor) << "store " << int(p)
                                 << " lost barrier-covered frames";
    ASSERT_LE(rec.size(), static_cast<std::size_t>(kEvents));
    // Exact prefix: ticks were appended 1..kEvents in order, so recovery
    // must hand back 1..|rec| with the matching payloads.
    for (std::size_t i = 0; i < rec.size(); ++i) {
      ASSERT_EQ(rec[i].t, static_cast<Time>(i + 1))
          << "store " << int(p) << " hole/reorder at " << i;
      ASSERT_EQ(rec[i].e, event_at(p, rec[i].t))
          << "store " << int(p) << " payload mismatch at " << i;
    }
    sync_failures += st.counters().sync_failures;
  }
  // The poisoned window really bit: with a 2 ms mid-window park per worker
  // and a 200 µs interval, interval rounds must have hit the failing flag.
  EXPECT_GE(sync_failures, 1u);
  fs::remove_all(dir);
}

// A full ring is the only backpressure on the append fast path: with the
// committer's kicks disabled (huge commit_every / interval), the appender
// itself must take the drain lock and empty the ring — and everything it
// drained plus a final flush must survive the machine-crash truncate.
TEST_P(GroupCommitConcurrent, FullRingSelfDrainThenFlushIsCrashProof) {
  const SweepCase param = GetParam();
  auto dir = fresh_dir(std::string("ring_") + param.name);
  StoreOptions o;
  o.group_commit = true;
  o.segment_bytes = 2 * 1024;
  o.ring_frames = 8;  // overflows every few appends
  o.commit_every = 1'000'000;
  o.commit_interval = std::chrono::seconds{100};
  o.snapshot_every = 1'000'000;
  o.barrier = param.mode;
  StorageFault trunc;
  trunc.kind = StorageFault::Kind::kTruncate;
  ProcessStore store(dir.string(), 0, o, {trunc});
  for (Time t = 1; t <= 1'000; ++t) store.append(t, event_at(0, t));
  store.flush();
  Rng rng(11);
  store.apply_kill_faults(1'001, rng);
  std::vector<StoreRecord> rec = store.recover();
  ASSERT_EQ(rec.size(), 1'000u);
  for (std::size_t i = 0; i < rec.size(); ++i) {
    ASSERT_EQ(rec[i].t, static_cast<Time>(i + 1));
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, GroupCommitConcurrent,
    ::testing::Values(SweepCase{StoreOptions{}.barrier, "auto"},  // default
                      SweepCase{CommitBarrier::kPool, "pool"},
                      SweepCase{CommitBarrier::kSerial, "serial"}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace udc
