// Tests of the benchmark's pure parts: the percentile rule, the arrival
// schedule, goodput/failure accounting and the stage-budget arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core.h"

namespace perfbench {
namespace {

TEST(PercentileRule, SampleCountDecidesTheTail) {
  EXPECT_EQ(tail_percentile(0), 0);
  EXPECT_EQ(tail_percentile(19), 0);
  EXPECT_EQ(tail_percentile(20), 50);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(500), 98);
  EXPECT_EQ(tail_percentile(999), 98);
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(1'000'000), 99);
}

TEST(PercentileRule, TailLeavesAtLeastTenSamplesBeyond) {
  for (std::size_t n : {20u, 37u, 100u, 250u, 999u, 1000u, 4321u}) {
    std::vector<double> s(n);
    for (std::size_t i = 0; i < n; ++i) s[i] = static_cast<double>(i);
    const Percentiles p = percentiles(s);
    ASSERT_GT(p.tail_pct, 0) << n;
    std::size_t beyond = 0;
    for (double v : s) beyond += v > p.tail ? 1 : 0;
    EXPECT_GE(beyond, 10u) << n;
    EXPECT_EQ(p.count, n);
  }
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> s;
  for (int i = 1; i <= 1000; ++i) s.push_back(i);
  const Percentiles p = percentiles(s);
  EXPECT_EQ(p.p50, 500);
  EXPECT_EQ(p.tail_pct, 99);
  EXPECT_EQ(p.tail, 990);
  EXPECT_EQ(percentiles({}).count, 0u);
  EXPECT_EQ(percentiles({7}).p50, 7);
  EXPECT_EQ(percentiles({7}).tail_pct, 0);
}

TEST(Schedule, DeterministicForASeed) {
  const WorkloadSpec w = *workload_by_name("svc-burst");
  const auto a = make_schedule(w, 7, 2.0);
  const auto b = make_schedule(w, 7, 2.0);
  const auto c = make_schedule(w, 8, 2.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_ns, b[i].at_ns);
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].read, b[i].read);
    EXPECT_EQ(a[i].reg, b[i].reg);
  }
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().at_ns, c.front().at_ns);
}

TEST(Schedule, MeanRateMixAndRanges) {
  const WorkloadSpec w = *workload_by_name("svc-read");
  const double seconds = 20;
  const auto s = make_schedule(w, 3, seconds);
  const double expect = (w.write_rate + w.read_rate) * seconds;
  EXPECT_EQ(static_cast<double>(s.size()), expect);  // the count is fixed
  std::size_t reads = 0;
  std::set<std::uint64_t> sessions;
  std::int64_t prev = -1;
  for (const Arrival& a : s) {
    reads += a.read ? 1 : 0;
    sessions.insert(a.session);
    EXPECT_GE(a.at_ns, prev);
    prev = a.at_ns;
    EXPECT_GE(a.session, 1u);
    EXPECT_LE(a.session, static_cast<std::uint64_t>(w.sessions));
    EXPECT_GE(a.reg, 0);
    EXPECT_LT(a.reg, kRegisters);
  }
  EXPECT_LT(prev, static_cast<std::int64_t>(seconds * 1e9));
  EXPECT_NEAR(static_cast<double>(reads) / s.size(), 0.95, 0.01);
  EXPECT_EQ(sessions.size(), static_cast<std::size_t>(w.sessions));
}

TEST(Schedule, BurstShape) {
  const WorkloadSpec w = *workload_by_name("svc-burst");
  const WorkloadSpec steady = *workload_by_name("svc-write");
  const double seconds = 20;
  const auto s = make_schedule(w, 11, seconds);
  // Every arrival sits inside an on-window.
  const auto period_ns = static_cast<std::int64_t>(w.burst_period_ms * 1e6);
  const auto on_ns = static_cast<std::int64_t>(w.burst_on_ms * 1e6);
  for (const Arrival& a : s) EXPECT_LT(a.at_ns % period_ns, on_ns);
  // The mean rate matches svc-write's.
  const double mean = static_cast<double>(s.size()) / seconds;
  EXPECT_EQ(mean, w.write_rate + w.read_rate);
  EXPECT_EQ(mean, steady.write_rate + steady.read_rate);
  // Each burst carries about 8x that rate over its 50 ms (Poisson spread
  // across the 50 bursts, so a loose per-burst bound and a tight mean).
  std::vector<int> per_burst(static_cast<std::size_t>(seconds * 1e9 / period_ns));
  for (const Arrival& a : s) ++per_burst[static_cast<std::size_t>(a.at_ns / period_ns)];
  for (int n : per_burst) {
    EXPECT_GT(n, 400 / 2);
    EXPECT_LT(n, 400 * 2);
  }
  const double burst_rate = mean * w.burst_period_ms / w.burst_on_ms;
  EXPECT_EQ(burst_rate, 8 * (steady.write_rate + steady.read_rate));
  EXPECT_EQ(w.sessions, 256);
}

TEST(Accounting, NeverAckedIsFailedAndMissesTheSlo) {
  std::vector<OpResult> ops(10);
  for (int i = 0; i < 7; ++i) ops[i] = {true, 2.0};
  ops[7] = {true, 80.0};  // acked but past the SLO
  // ops[8], ops[9]: never acked.
  const Accounting a = account(ops, 2.0, kSloMs, /*conformant=*/true);
  EXPECT_EQ(a.scheduled, 10u);
  EXPECT_EQ(a.acked, 8u);
  EXPECT_EQ(a.within_slo, 7u);
  EXPECT_EQ(a.failed, 2u);
  EXPECT_DOUBLE_EQ(a.goodput_ops_s, 3.5);
  EXPECT_DOUBLE_EQ(a.failed_frac, 0.2);
}

TEST(Accounting, NonConformantRunFailsEveryOp) {
  std::vector<OpResult> ops(4, OpResult{true, 1.0});
  const Accounting a = account(ops, 1.0, kSloMs, /*conformant=*/false);
  EXPECT_EQ(a.failed, 4u);
  EXPECT_EQ(a.acked, 0u);
  EXPECT_DOUBLE_EQ(a.goodput_ops_s, 0);
  EXPECT_DOUBLE_EQ(a.failed_frac, 1.0);
}

TEST(StageBudget, SumsTheBlockingPath) {
  StageInputs s;
  s.encode_ns = 300;
  s.decode_ns = 200;     // codec: 2 x 0.5 us = 1 us
  s.rtt_us = 40;         // 80 us
  s.durable_wait_us = 700;
  s.svclog_append_us = 250;  // 500 us
  s.log_ops_us = 19;
  EXPECT_NEAR(stage_sum_ms(s), (1 + 80 + 700 + 500 + 19) / 1e3, 1e-12);
  EXPECT_NEAR(stage_unexplained_ms(2.0, stage_sum_ms(s)), 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(stage_sum_ms(StageInputs{}), 0);
}

}  // namespace
}  // namespace perfbench
