#include "core.h"

#include <algorithm>
#include <cmath>

#include "udc/common/rng.h"

namespace perfbench {

std::vector<WorkloadSpec> all_workloads() {
  std::vector<WorkloadSpec> w(4);
  // Commit path: writes at 1k/s, plus a thin 50/s lease-read stream so the
  // traced run reports read latency on every workload (the benchmark's
  // per-layer metrics must all be present on each workload).
  w[0].name = "svc-write";
  w[0].write_rate = 1000;
  w[0].read_rate = 50;
  // Lease path: 95% reads at 2k/s.
  w[1].name = "svc-read";
  w[1].write_rate = 100;
  w[1].read_rate = 1900;
  // Batching / admission / backpressure: svc-write's mean rate (1,050/s)
  // arrives in 50 ms bursts at 8x, over 4x the sessions.
  w[2].name = "svc-burst";
  w[2].write_rate = 840;
  w[2].read_rate = 210;
  w[2].sessions = 256;
  w[2].burst_on_ms = 50;
  w[2].burst_period_ms = 400;
  // Failover: svc-write's load with one leader SIGKILL.
  w[3] = w[0];
  w[3].name = "svc-failover";
  w[3].failover = true;
  w[3].kill_after_s = 2.0;
  return w;
}

std::optional<WorkloadSpec> workload_by_name(const std::string& name) {
  for (const WorkloadSpec& w : all_workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::vector<Arrival> make_schedule(const WorkloadSpec& spec,
                                   std::uint64_t seed, double seconds) {
  std::vector<Arrival> out;
  const double mean_rate = spec.write_rate + spec.read_rate;
  if (mean_rate <= 0 || seconds <= 0) return out;
  // A Poisson process conditioned on its count: exactly mean_rate * seconds
  // arrivals at independent uniform times.  Arrivals still clump as Poisson
  // ones do, but the offered load is the same for every seed, so goodput
  // varies only with what the fleet does.
  const auto count = static_cast<std::size_t>(std::llround(mean_rate * seconds));
  // On/off mode: uniform over "busy time" (the on-windows laid end to end),
  // then mapped to wall time by skipping each period's off part.
  const bool bursty = spec.burst_on_ms > 0 && spec.burst_period_ms > 0;
  const double on_s = bursty ? spec.burst_on_ms / 1e3 : seconds;
  const double period_s = bursty ? spec.burst_period_ms / 1e3 : seconds;
  const double full = std::floor(seconds / period_s);
  const double busy_total =
      full * on_s + std::min(seconds - full * period_s, on_s);
  udc::Rng rng(seed ^ 0x7065726662656e63ull);  // "perfbenc"
  std::vector<double> busy(count);
  for (double& b : busy) b = rng.next_double() * busy_total;
  std::sort(busy.begin(), busy.end());
  const double read_p = spec.read_rate / mean_rate;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double period = std::floor(busy[i] / on_s);
    const double at = period * period_s + (busy[i] - period * on_s);
    Arrival a;
    a.at_ns = std::min(static_cast<std::int64_t>(at * 1e9),
                       static_cast<std::int64_t>(seconds * 1e9) - 1);
    a.session = 1 + rng.next_below(static_cast<std::uint64_t>(spec.sessions));
    a.read = rng.next_double() < read_p;
    a.reg = static_cast<std::int32_t>(rng.next_below(kRegisters));
    a.value = static_cast<std::int64_t>(i) + 1;
    out.push_back(a);
  }
  return out;
}

int tail_percentile(std::size_t samples) {
  if (samples < 20) return 0;
  const int pct = static_cast<int>(
      std::floor(100.0 - 1000.0 / static_cast<double>(samples) + 1e-9));
  return std::min(pct, 99);
}

double nearest_rank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Percentiles percentiles(std::vector<double> samples) {
  Percentiles p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = nearest_rank(samples, 50);
  p.tail_pct = tail_percentile(samples.size());
  if (p.tail_pct > 0) p.tail = nearest_rank(samples, p.tail_pct);
  return p;
}

Accounting account(const std::vector<OpResult>& ops, double served_s,
                   double slo_ms, bool conformant) {
  Accounting a;
  a.scheduled = ops.size();
  if (conformant) {
    for (const OpResult& r : ops) {
      if (!r.acked) continue;
      ++a.acked;
      if (r.latency_ms <= slo_ms) ++a.within_slo;
    }
  }
  a.failed = a.scheduled - a.acked;
  if (served_s > 0) {
    a.goodput_ops_s = static_cast<double>(a.within_slo) / served_s;
  }
  if (a.scheduled > 0) {
    a.failed_frac =
        static_cast<double>(a.failed) / static_cast<double>(a.scheduled);
  }
  return a;
}

double stage_sum_ms(const StageInputs& s) {
  const double codec_us = 2 * (s.encode_ns + s.decode_ns) / 1e3;
  const double us = codec_us + 2 * s.rtt_us + s.durable_wait_us +
                    2 * s.svclog_append_us + s.log_ops_us;
  return us / 1e3;
}

}  // namespace perfbench
