// The cross-process plumbing shared by the model fleet and the service
// fleet: the WAL-shard merge and its R4 crash (rt/remote/supervisor.h), the
// refuse-window rule, idle pacing and durability wake of the node shell
// (rt/remote/node_shell.h), and the supervisor's handling of a node that
// exits on its own, driven against a stub node binary that exits 1 at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "udc/coord/action.h"
#include "udc/rt/mailbox.h"
#include "udc/rt/remote/fleet.h"
#include "udc/rt/remote/node.h"
#include "udc/rt/remote/node_shell.h"
#include "udc/rt/remote/supervisor.h"
#include "udc/svc/fleet.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

ShardRecord rec(Time tick, ProcessId p, std::size_t idx, ActionId a) {
  return {tick, p, idx, Event::init(a)};
}

TEST(ShardMerge, OrdersByTickThenPidThenIndex) {
  const ActionId a00 = make_action(0, 0), a01 = make_action(0, 1),
                 a02 = make_action(0, 2), a10 = make_action(1, 0),
                 a20 = make_action(2, 0);
  // Deliberately shuffled; ties on tick break by pid, ties on (tick, pid)
  // by per-shard index.
  const udc::Run run = merge_shards(
      3, {rec(7, 0, 2, a02), rec(5, 1, 0, a10), rec(5, 0, 1, a01),
          rec(5, 0, 0, a00), rec(2, 2, 0, a20)});
  ASSERT_EQ(run.history(0).size(), 3u);
  EXPECT_EQ(run.history(0)[0].action, a00);
  EXPECT_EQ(run.history(0)[1].action, a01);
  EXPECT_EQ(run.history(0)[2].action, a02);
  // One event per step, in merge order: a20, a00, a01, a10, a02.
  const Time t20 = run.event_time(2, 0);
  EXPECT_EQ(run.event_time(0, 0), t20 + 1);
  EXPECT_EQ(run.event_time(0, 1), t20 + 2);
  EXPECT_EQ(run.event_time(1, 0), t20 + 3);
  EXPECT_EQ(run.event_time(0, 2), t20 + 4);
}

TEST(ShardMerge, PermanentlyKilledNodeEndsWithASyntheticCrash) {
  std::vector<ShardRecord> killed = {rec(3, 1, 0, make_action(1, 0)),
                                     rec(9, 1, 1, make_action(1, 1))};
  append_crash(1, &killed);
  ASSERT_EQ(killed.size(), 3u);
  EXPECT_EQ(killed.back().tick, 10u);  // one past what the disk remembers
  EXPECT_EQ(killed.back().idx, 2u);
  EXPECT_EQ(killed.back().e.kind, EventKind::kCrash);

  std::vector<ShardRecord> empty;
  append_crash(2, &empty);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].tick, 1u);

  std::vector<ShardRecord> all = killed;
  all.insert(all.end(), empty.begin(), empty.end());
  all.push_back(rec(12, 0, 0, make_action(0, 0)));
  const udc::Run run = merge_shards(3, all);  // build() enforces R4
  EXPECT_TRUE(run.is_faulty(1));
  EXPECT_TRUE(run.is_faulty(2));
  EXPECT_FALSE(run.is_faulty(0));
  EXPECT_EQ(run.history(1).size(), 3u);
  EXPECT_EQ(run.history(1)[2].kind, EventKind::kCrash);
  EXPECT_LT(*run.crash_time(1), run.event_time(0, 0));
}

TEST(NodeShell, OnlyATwoWayCutRefusesTheStream) {
  PartitionWindow fwd;
  fwd.senders = ProcSet::singleton(0);
  fwd.recipients = ProcSet::singleton(1);
  fwd.from = 10;
  fwd.heal = 20;
  FaultScript one_way;
  one_way.partitions.push_back(fwd);
  EXPECT_FALSE(bidirectional_cut(one_way, 0, 1, 15));
  EXPECT_FALSE(bidirectional_cut(one_way, 1, 0, 15));

  PartitionWindow rev = fwd;
  rev.senders = fwd.recipients;
  rev.recipients = fwd.senders;
  FaultScript two_way = one_way;
  two_way.partitions.push_back(rev);
  EXPECT_TRUE(bidirectional_cut(two_way, 0, 1, 15));
  EXPECT_TRUE(bidirectional_cut(two_way, 1, 0, 10));
  EXPECT_FALSE(bidirectional_cut(two_way, 0, 1, 9));   // not yet open
  EXPECT_FALSE(bidirectional_cut(two_way, 0, 1, 20));  // healed
  EXPECT_FALSE(bidirectional_cut(two_way, 0, 2, 15));  // other pair
}

fs::path fresh_dir(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_fleet_" + name);
  fs::remove_all(d);
  return d;
}

// The node loop's idle pacing: only a period that runs out with no mail
// ticks the clock.  A wake neither ticks nor restarts the period, so wakes
// leave the idle tick rate, and with it every detector timeout, where it
// was.
TEST(NodeShell, AWakeIsNotAnIdleTick) {
  using std::chrono::microseconds;
  const auto t0 = IdlePacer::WallClock::time_point{} + std::chrono::hours(1);
  IdlePacer pacer(microseconds(300));
  EXPECT_EQ(pacer.wait_from(t0), microseconds(300));
  EXPECT_FALSE(pacer.idle(false, t0 + microseconds(100)));  // a wake
  EXPECT_EQ(pacer.wait_from(t0 + microseconds(110)), microseconds(190));
  EXPECT_TRUE(pacer.idle(false, t0 + microseconds(300)));  // a timeout
  EXPECT_EQ(pacer.wait_from(t0 + microseconds(310)), microseconds(300));
  EXPECT_FALSE(pacer.idle(true, t0 + microseconds(320)));  // mail
  EXPECT_EQ(pacer.wait_from(t0 + microseconds(330)), microseconds(300));
  EXPECT_FALSE(pacer.idle(true, t0 + microseconds(400)));

  // A wake every 50 µs through 3 ms without mail: still exactly one tick
  // per 300 µs, as if no wake had come.
  auto now = t0 + std::chrono::seconds(1);
  const auto end = now + std::chrono::milliseconds(3);
  auto next_wake = now + microseconds(50);
  int ticks = 0;
  while (now < end) {
    const auto timeout_at = now + pacer.wait_from(now);
    if (next_wake < timeout_at) {
      now = next_wake;
      next_wake += microseconds(50);
    } else {
      now = timeout_at;
    }
    if (pacer.idle(false, now)) ++ticks;
  }
  EXPECT_EQ(ticks, 10);
}

// The live wake path, committer thread -> on_durable -> mailbox -> node
// loop: with a 1 s commit interval, each gated record is durable and seen
// by a step within a fraction of the interval, and that step is a wake:
// the clock has not moved since the step before (no mail can arrive here,
// so an unmoved clock means no idle tick).  A wake that lands together
// with a timeout is indistinguishable from it and is retried, not
// counted.  Idle timeouts still tick.
TEST(NodeShell, DurabilityWakeRunsTheStepWithoutTickingTheClock) {
  const fs::path dir = fresh_dir("wake");
  fs::create_directories(dir);
  NodeShellOptions o;
  o.id = 0;
  o.n = 1;
  o.dir = dir.string();
  o.store = mp_store_options();
  o.store.commit_interval = std::chrono::seconds(1);
  // The reactor never starts: no mail, supervisor or peer reaches the loop.
  NodeShell<RtMail> shell(o, [](ProcessId, std::uint64_t, const WireFrame&) {});
  using WallClock = std::chrono::steady_clock;
  constexpr int kRecords = 5;
  int recorded = 0;
  int woken_records = 0;
  int idle_ticks = 0;
  std::size_t gate = 0;
  WallClock::time_point asked;
  WallClock::duration slowest{};
  Time last = shell.clock().now();
  const auto give_up = WallClock::now() + std::chrono::seconds(5);
  auto step = [&](Time now, WallClock::time_point wall) {
    EXPECT_LE(now, last + 1);  // at most one idle tick per iteration
    if (now == last + 1) ++idle_ticks;
    if (gate != 0 && shell.store().durable_floor() >= gate) {
      slowest = std::max(slowest, wall - asked);
      if (now == last) ++woken_records;
      gate = 0;
    }
    if (gate == 0 && woken_records < kRecords && recorded < 10 * kRecords) {
      asked = WallClock::now();
      gate = shell.recorder()
                 .record_gated(Event::init(make_action(0, recorded++)))
                 .gate;
    }
    if ((woken_records == kRecords && idle_ticks > 0) || wall > give_up) {
      shell.mailbox().close();
    }
    last = shell.clock().now();
  };
  EXPECT_EQ(shell.run([](const RtMail&, WallClock::time_point) {}, step,
                      [](bool) {}),
            0);
  EXPECT_EQ(woken_records, kRecords);
  EXPECT_GT(idle_ticks, 0);
  EXPECT_LT(slowest, std::chrono::milliseconds(500));
  fs::remove_all(dir);
}

// A replica that exits on its own never comes back, so the service fleet
// stops driving at once instead of waiting out its deadline, and the
// verdict is non-conformant through clean_exits.
TEST(SvcFleet, ReplicaExitingOnItsOwnEndsTheRunEarly) {
  SvcFleetOptions o;
  o.run_dir = fresh_dir("svc_stub").string();
  o.node_binary = UDC_STUB_NODE;
  o.deadline = std::chrono::milliseconds(20'000);
  const auto start = std::chrono::steady_clock::now();
  const SvcFleetVerdict v = run_svc_fleet(o);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
  EXPECT_EQ(v.status, BudgetStatus::kComplete);
  EXPECT_FALSE(v.clean_exits);
  EXPECT_FALSE(v.conformant);
  fs::remove_all(o.run_dir);
}

// The model fleet excuses a node that exits on its own (it is permanently
// dead, and the lift gives it its R4 crash) but still scores the exit.
TEST(Fleet, NodeExitingOnItsOwnIsExcusedButScoredDirty) {
  FleetOptions o;
  o.run_dir = fresh_dir("rt_stub").string();
  o.node_binary = UDC_STUB_NODE;
  // Due at once: fleet time advances only through status reports, and the
  // stub never reports.
  o.workload = {{/*at=*/0, /*p=*/0, make_action(0, 0)}};
  const auto start = std::chrono::steady_clock::now();
  const FleetVerdict v = run_fleet(o);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
  EXPECT_EQ(v.status, BudgetStatus::kComplete);
  EXPECT_FALSE(v.clean_exits);
  EXPECT_FALSE(v.conformant);
  ASSERT_TRUE(v.run.has_value());
  for (ProcessId p = 0; p < o.n; ++p) EXPECT_TRUE(v.run->is_faulty(p));
  fs::remove_all(o.run_dir);
}

}  // namespace
}  // namespace udc
