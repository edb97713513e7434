// GroupCommitter + ProcessStore group-commit mode (store/group_commit.h,
// DESIGN.md §10): fsync moves off the append path into batched background
// flushes.  The semantic claim under test: what a machine-style crash (the
// kTruncate storage fault, which cuts the WAL back to bytes_synced) can lose
// is exactly the unflushed SUFFIX — nothing with group commit after a flush,
// everything appended since the last one otherwise.  Plus the plumbing:
// commit_every kicks the flusher early, stop() is a final barrier, and idle
// flushes are free, a requested commit beats the interval and reports
// the new floor through on_durable, and a single store's round under the
// pool engine (synced on the committer thread) is a real barrier.
#include "udc/store/group_commit.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "udc/chaos/fault_script.h"
#include "udc/common/rng.h"
#include "udc/event/event.h"
#include "udc/store/process_store.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_gc_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

StorageFault truncate_fault() {
  StorageFault f;
  f.kind = StorageFault::Kind::kTruncate;
  return f;  // victim = every process, window = always
}

StoreOptions gc_opts(int commit_every,
                     std::chrono::microseconds interval) {
  StoreOptions o;
  o.group_commit = true;
  o.commit_every = commit_every;
  o.commit_interval = interval;
  return o;
}

bool wait_for(const std::function<bool()>& pred,
              std::chrono::milliseconds limit) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return pred();
}

TEST(GroupCommit, UnflushedBatchIsExactlyWhatAMachineCrashLoses) {
  Rng rng(7);
  // A huge interval and batch keep the flusher out of the picture entirely:
  // nothing ever fsyncs, so the kTruncate fault erases the whole WAL.
  ProcessStore store(fresh_dir("unflushed").string(), 0,
                     gc_opts(1'000'000, std::chrono::seconds(100)),
                     {truncate_fault()});
  for (Time t = 1; t <= 20; ++t) store.append(t, Event::do_action(1));
  store.apply_kill_faults(/*kill_time=*/21, rng);
  EXPECT_TRUE(store.recover().empty());
  const StoreCounters c = store.counters();
  EXPECT_EQ(c.storage_faults_injected, 1u);
  EXPECT_EQ(c.group_commits, 0u);
}

TEST(GroupCommit, FlushMakesTheBatchCrashProof) {
  Rng rng(7);
  ProcessStore store(fresh_dir("flushed").string(), 0,
                     gc_opts(1'000'000, std::chrono::seconds(100)),
                     {truncate_fault()});
  for (Time t = 1; t <= 20; ++t) store.append(t, Event::do_action(1));
  store.flush();  // the group commit, by hand
  store.apply_kill_faults(/*kill_time=*/21, rng);
  EXPECT_EQ(store.recover().size(), 20u);
  const StoreCounters c = store.counters();
  EXPECT_EQ(c.group_commits, 1u);
}

TEST(GroupCommit, CommitEveryKicksTheFlusherAheadOfTheInterval) {
  ProcessStore store(fresh_dir("kick").string(), 0,
                     gc_opts(/*commit_every=*/4, std::chrono::seconds(100)),
                     {});
  GroupCommitter committer;
  committer.attach(&store);
  // Four frames reach commit_every; the kick must beat the 100 s interval
  // by roughly five orders of magnitude.
  for (Time t = 1; t <= 4; ++t) store.append(t, Event::do_action(1));
  EXPECT_TRUE(wait_for([&] { return store.counters().group_commits >= 1; },
                       std::chrono::milliseconds(5'000)));
  committer.stop();
}

// The durable-send gate's path: a 1 s commit interval would hold a gated
// record for up to a second; request_commit must make it durable, and fire
// on_durable, in well under that.  A plain append asks for nothing and
// waits out the interval.
TEST(GroupCommit, RequestedCommitBeatsTheIntervalAndFiresOnDurable) {
  ProcessStore store(fresh_dir("request").string(), 0,
                     gc_opts(/*commit_every=*/1'000'000,
                             std::chrono::seconds(1)),
                     {});
  std::atomic<int> fired{0};
  store.set_on_durable([&fired] { fired.fetch_add(1); });
  GroupCommitter committer;
  committer.attach(&store);

  store.append(1, Event::do_action(1));  // ungated
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(store.durable_floor(), 0u);
  EXPECT_EQ(fired.load(), 0);

  store.append(2, Event::init(2));  // gated
  store.request_commit();
  EXPECT_TRUE(wait_for([&] { return fired.load() >= 1; },
                       std::chrono::milliseconds(100)));
  EXPECT_EQ(store.durable_floor(), 2u);
  committer.stop();
}

// A node process has one store, so nearly every round it runs covers one
// descriptor, which the default pool engine syncs on the committer thread
// instead of handing it to a worker.  That round must still be a barrier:
// the floor moves, on_durable fires, and a machine-style crash right after
// (under the live committer, before any final flush) keeps the record.
TEST(GroupCommit, SingleStoreRoundUnderThePoolIsDurableAndFiresOnDurable) {
  Rng rng(11);
  ProcessStore store(fresh_dir("single_pool").string(), 0,
                     gc_opts(/*commit_every=*/1'000'000,
                             std::chrono::seconds(100)),
                     {truncate_fault()});
  std::atomic<int> fired{0};
  store.set_on_durable([&fired] { fired.fetch_add(1); });
  GroupCommitter committer;
  committer.attach(&store);
  ASSERT_STREQ(committer.barrier_name(), "pool");

  store.append(1, Event::do_action(1));
  store.append(2, Event::init(2));
  store.request_commit();
  EXPECT_TRUE(wait_for([&] { return fired.load() >= 1; },
                       std::chrono::milliseconds(5'000)));
  EXPECT_EQ(store.durable_floor(), 2u);
  EXPECT_GE(store.counters().group_commits, 1u);

  store.apply_kill_faults(/*kill_time=*/3, rng);
  committer.stop();
  EXPECT_EQ(store.recover().size(), 2u);
}

TEST(GroupCommit, QuietStoresFlushByIntervalAndIdleFlushesAreFree) {
  ProcessStore store(fresh_dir("interval").string(), 0,
                     gc_opts(/*commit_every=*/1'000'000,
                             std::chrono::microseconds(500)),
                     {});
  GroupCommitter committer;
  committer.attach(&store);
  store.append(1, Event::do_action(1));  // one frame, far below commit_every
  EXPECT_TRUE(wait_for([&] { return store.counters().group_commits >= 1; },
                       std::chrono::milliseconds(5'000)));
  // With nothing pending, the periodic flusher must not keep "committing":
  // idle rounds are no-ops, not counter noise.
  const std::size_t settled = store.counters().group_commits;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(store.counters().group_commits, settled);
  committer.stop();
}

TEST(GroupCommit, StopIsAFinalBarrier) {
  Rng rng(9);
  auto dir = fresh_dir("stop");
  {
    ProcessStore store(dir.string(), 0,
                       gc_opts(1'000'000, std::chrono::seconds(100)),
                       {truncate_fault()});
    GroupCommitter committer;
    committer.attach(&store);
    for (Time t = 1; t <= 3; ++t) store.append(t, Event::do_action(1));
    committer.stop();  // must flush the 3-frame tail
    store.apply_kill_faults(/*kill_time=*/4, rng);
    EXPECT_EQ(store.recover().size(), 3u);
  }
}

TEST(GroupCommit, StopIsIdempotent) {
  ProcessStore store(fresh_dir("idem").string(), 0,
                     gc_opts(8, std::chrono::microseconds(500)), {});
  GroupCommitter committer;
  committer.attach(&store);
  store.append(1, Event::do_action(1));
  committer.stop();
  committer.stop();  // second stop: no deadlock, no double-join
  SUCCEED();
}

}  // namespace
}  // namespace udc
