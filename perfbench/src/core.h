// Pure parts of the service benchmark: workload shapes, the seeded arrival
// schedule, the percentile rule, goodput/failure accounting and the stage
// budget.  No sockets, clocks or processes here, so all of it is unit-tested
// (perfbench/tests/test_core.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// The latency limit every op is judged against (goodput counts only ops
// acknowledged within it).
inline constexpr double kSloMs = 50.0;

// One traffic mix against a 3-replica fleet.  Arrivals are open-loop: each
// op has a scheduled time fixed in advance, independent of completions.
struct WorkloadSpec {
  std::string name;
  double write_rate = 0;  // mean writes/s over the whole window
  double read_rate = 0;   // mean lease reads/s over the whole window
  int sessions = 64;      // client sessions the ops are spread over
  // On/off arrivals: with burst_on_ms > 0 every op falls inside the first
  // burst_on_ms of each burst_period_ms, at the rate that keeps the mean.
  double burst_on_ms = 0;
  double burst_period_ms = 0;
  // Failover: SIGKILL the majority-view leader kill_after_s into the load
  // window and relaunch it at epoch+1 on the same disks.
  bool failover = false;
  double kill_after_s = 0;
};

// The four workloads, by name (see perfbench/NOTES.md for why each).
std::vector<WorkloadSpec> all_workloads();
std::optional<WorkloadSpec> workload_by_name(const std::string& name);

inline constexpr int kRegisters = 64;  // the service's register file size

// One scheduled op.  `session` is 1-based; values are unique per schedule.
struct Arrival {
  std::int64_t at_ns = 0;  // offset from the start of the load window
  std::uint64_t session = 0;
  bool read = false;
  std::int32_t reg = 0;
  std::int64_t value = 0;
};

// Deterministic for (spec, seed, seconds): exactly round(rate * seconds)
// arrivals of the merged read+write stream at uniform random times (a
// Poisson process conditioned on its count), each op independently a read
// with probability read_rate / (read_rate + write_rate), spread uniformly
// over sessions and registers.  Sorted by at_ns, all inside [0, seconds).
std::vector<Arrival> make_schedule(const WorkloadSpec& spec,
                                   std::uint64_t seed, double seconds);

// The percentile rule: the median, plus the highest whole percentile that
// still has at least ten samples beyond it, capped at p99 (so p99 needs
// 1,000 samples).  Below 20 samples there is no tail percentile (0).
int tail_percentile(std::size_t samples);

// Nearest-rank percentile of an ascending sample: the value at rank
// ceil(pct/100 * n), which leaves exactly n - rank samples above it.
double nearest_rank(const std::vector<double>& sorted, double pct);

struct Percentiles {
  std::size_t count = 0;
  double p50 = 0;
  int tail_pct = 0;  // 0: too few samples for a tail
  double tail = 0;
};

Percentiles percentiles(std::vector<double> samples);

// Per scheduled op, what the client saw.
struct OpResult {
  bool acked = false;
  double latency_ms = 0;  // scheduled arrival -> kOk (if acked)
};

struct Accounting {
  std::size_t scheduled = 0;
  std::size_t acked = 0;
  std::size_t within_slo = 0;
  std::size_t failed = 0;  // scheduled - acked, or every op of a bad run
  double goodput_ops_s = 0;
  double failed_frac = 0;
};

// An op never acked (by the drain deadline) is failed and misses the SLO.
// A run that fails any correctness check fails every one of its ops.
// Goodput is ops within the SLO per second of `served_s`, the wall time the
// fleet took to serve the schedule (its window, or longer if it lagged).
Accounting account(const std::vector<OpResult>& ops, double served_s,
                   double slo_ms, bool conformant);

// The blocking path of one write, stage by stage (all single-op figures):
// client->leader and leader->follower each cost one codec pass (encode +
// decode) and one reactor round trip; the leader waits out one WAL group
// commit (the kInit gate); the leader and then the fastest follower each
// fdatasync the service log; plus the replicated-log bookkeeping.
struct StageInputs {
  double encode_ns = 0;
  double decode_ns = 0;
  double rtt_us = 0;
  double durable_wait_us = 0;
  double svclog_append_us = 0;
  double log_ops_us = 0;
};

double stage_sum_ms(const StageInputs& s);
// What the stages do not explain: timer and poll pacing, scheduling.
inline double stage_unexplained_ms(double write_p50_ms, double sum_ms) {
  return write_p50_ms - sum_ms;
}

}  // namespace perfbench
