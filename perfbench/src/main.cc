// perfbench_svc — the service benchmark's driver: one run of one workload
// against fresh 3-replica udc_svc_node fleets.
//
//   perfbench_svc --workload=svc-write --seed=1 --seconds=20 --trace=0
//                 --node=<udc_svc_node> --work-dir=<scratch dir>
//
// (perfbench/run.py builds both binaries and passes these flags.)
//
// The run splits its window over fresh fleets of kFleetSeconds each.  A
// fleet is brought up (fork -> first acknowledged probe write: a setup_s
// sample), then takes its share of the workload's open-loop schedule
// through ONE SvcClient.  Every op is stamped with its scheduled arrival
// and timed outside the client, the generator paces by sleep-until plus a
// short spin, and the window starts only at the leader-ready mark.  After
// the drain the fleet must converge, stop cleanly and pass DC1-DC3, the
// session checker and log agreement; a run with a fleet that fails any of
// these fails all of its ops.
//
// --trace=1 adds per-op spans (written to <work-dir>/traces), /proc samples
// per replica, the replicas' final counters, and the layer probes timed
// after the last fleet stops.  The last stdout line is one JSON object with
// every metric; run.py keeps the ones BENCHMARK.json names.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core.h"
#include "fleet.h"
#include "probes.h"
#include "udc/common/guarded_main.h"
#include "udc/svc/client.h"

namespace perfbench {
namespace {

using namespace udc;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kProbeSession = std::uint64_t{1} << 20;
constexpr auto kSetupDeadline = std::chrono::seconds(15);
constexpr auto kDrain = std::chrono::seconds(5);
constexpr auto kSettle = std::chrono::seconds(10);
constexpr auto kStopGrace = std::chrono::seconds(5);
constexpr auto kRelaunchAfter = std::chrono::milliseconds(300);
constexpr auto kProcEvery = std::chrono::milliseconds(100);
// Each load fleet serves this much of the window.  The seed service slows
// down as its log grows (O(slots) scans, perfbench/NOTES.md) and collapses
// some 7-10 s into a 1k writes/s run; 4 s fleets stay before that knee, and
// write_p50_last_s_ms (the window's final second) still carries the decay.
// Set it to 10 to see the collapse.
constexpr double kFleetSeconds = 4;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string node;
  std::string work_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_svc: %s\n"
               "usage: perfbench_svc --workload=<name> --seed=<n> "
               "--seconds=<s> --trace=<0|1> --node=<udc_svc_node> "
               "--work-dir=<dir>\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    const auto eq = s.find('=');
    if (s.rfind("--", 0) != 0 || eq == std::string::npos) usage("bad flag " + s);
    const std::string k = s.substr(2, eq - 2);
    const std::string v = s.substr(eq + 1);
    if (k == "workload") {
      a.workload = v;
    } else if (k == "seed") {
      a.seed = std::stoull(v);
    } else if (k == "seconds") {
      a.seconds = std::stod(v);
    } else if (k == "trace") {
      a.trace = v == "1";
    } else if (k == "node") {
      a.node = v;
    } else if (k == "work-dir") {
      a.work_dir = v;
    } else {
      usage("unknown flag --" + k);
    }
  }
  if (!workload_by_name(a.workload)) usage("unknown workload '" + a.workload + "'");
  if (a.seconds <= 0 || a.seconds > 120) usage("--seconds out of range");
  if (a.node.empty() || a.work_dir.empty()) usage("--node and --work-dir required");
  return a;
}

// ---- /proc -------------------------------------------------------------

struct ProcSample {
  double cpu_s = 0;  // utime + stime
  double rss_mb = 0;
  std::uint64_t write_bytes = 0;
};

ProcSample read_proc(pid_t pid) {
  ProcSample s;
  if (pid <= 0) return s;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string line;
  if (std::getline(stat, line)) {
    const auto rp = line.rfind(')');
    if (rp != std::string::npos) {
      std::istringstream in(line.substr(rp + 2));
      std::string f;
      std::vector<std::string> fields;
      while (in >> f) fields.push_back(f);
      // fields[0] is field 3 (state); utime/stime are fields 14/15.
      if (fields.size() > 12) {
        const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
        s.cpu_s = (std::stod(fields[11]) + std::stod(fields[12])) / hz;
      }
    }
  }
  std::ifstream statm(base + "/statm");
  std::uint64_t size = 0, resident = 0;
  if (statm >> size >> resident) {
    s.rss_mb = static_cast<double>(resident) *
               static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  }
  std::ifstream io(base + "/io");
  std::string key;
  std::uint64_t val = 0;
  while (io >> key >> val) {
    if (key == "write_bytes:") s.write_bytes = val;
  }
  return s;
}

// Host CPU time, in jiffies, from /proc/stat's aggregate line: {steal, total}.
// Steal is time the hypervisor ran someone else on our CPUs; on a shared
// box it is the usual reason one run is slower than the next.
std::pair<double, double> host_steal_total() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v[8] = {};
  for (double& x : v) in >> x;
  double total = 0;
  for (double x : v) total += x;
  return {v[7], total};
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// ---- per-op bookkeeping ------------------------------------------------

struct OpRecord {
  Clock::time_point scheduled{};
  Clock::time_point acked_at{};
  double service_ms = 0;  // the library's own latency: first send -> reply
  bool read = false;
  bool acked = false;
};

// Matches completions to ops outside SvcClient: the client completes each
// session's ops in submission order, so a per-session FIFO of op indices is
// enough.  on_done runs on the client's reactor thread.
class Tracker {
 public:
  std::size_t add(Clock::time_point scheduled, bool read, std::uint64_t session) {
    std::lock_guard<std::mutex> lk(mu_);
    OpRecord r;
    r.scheduled = scheduled;
    r.read = read;
    ops_.push_back(r);
    pending_[session].push_back(ops_.size() - 1);
    return ops_.size() - 1;
  }
  void on_done(const SvcClientRecord& rec, double service_ms) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    auto it = pending_.find(rec.session);
    if (it == pending_.end() || it->second.empty()) {
      mismatches_.push_back("completion for a session with nothing pending");
      return;
    }
    OpRecord& op = ops_[it->second.front()];
    it->second.pop_front();
    if (op.read != (rec.kind == SvcOpKind::kRead)) {
      mismatches_.push_back("completion kind does not match the op");
    }
    op.acked = true;
    op.acked_at = now;
    op.service_ms = service_ms;
    confirmed_.push_back(rec);
  }
  bool acked(std::size_t idx) const {
    std::lock_guard<std::mutex> lk(mu_);
    return ops_[idx].acked;
  }
  std::size_t outstanding() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto& [s, q] : pending_) n += q.size();
    return n;
  }
  // Snapshots, taken after the client has stopped.
  std::vector<OpRecord> ops() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ops_;
  }
  std::vector<SvcClientRecord> confirmed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return confirmed_;
  }
  std::vector<std::string> mismatches() const {
    std::lock_guard<std::mutex> lk(mu_);
    return mismatches_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<OpRecord> ops_;
  std::unordered_map<std::uint64_t, std::deque<std::size_t>> pending_;
  std::vector<SvcClientRecord> confirmed_;
  std::vector<std::string> mismatches_;
};

std::unique_ptr<SvcClient> make_client(const Fleet& fleet, std::uint64_t seed,
                                       Tracker& tracker) {
  SvcClientOptions co;
  co.instance = 0;
  co.run_id = fleet.run_id();
  co.n = fleet.n();
  co.seed = seed;
  return std::make_unique<SvcClient>(
      co, [&tracker](const SvcClientRecord& r, double ms) { tracker.on_done(r, ms); });
}

// Fork -> first acknowledged probe write.  Returns seconds, or a negative
// value if the fleet never became ready.
double bring_up(Fleet& fleet, SvcClient& client, Tracker& tracker) {
  const auto t0 = Clock::now();
  fleet.launch_all();
  std::size_t probe = 0;
  bool submitted = false;
  for (;;) {
    const auto now = Clock::now();
    if (now - t0 > kSetupDeadline) return -1;
    fleet.pump(&client);
    if (!submitted && fleet.all_ports_known()) {
      probe = tracker.add(now, false, kProbeSession);
      client.write(kProbeSession, 0, 0);
      submitted = true;
    }
    if (submitted && tracker.acked(probe)) {
      return std::chrono::duration<double>(Clock::now() - t0).count();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// Waits for convergence with the client still up (it may be finishing
// retries), then stops the client and the fleet, then judges.
Verdict finish(Fleet& fleet, SvcClient& client, Tracker& tracker) {
  const auto deadline = Clock::now() + kSettle;
  bool converged = false;
  while (Clock::now() < deadline) {
    fleet.pump(&client);
    if (client.inflight() == 0 && fleet.settled()) {
      converged = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.stop();
  const bool clean = fleet.stop(kStopGrace);
  Verdict v = fleet.judge(tracker.confirmed(), converged, clean);
  for (const std::string& m : tracker.mismatches()) {
    v.sessions_ok = false;  // the client completed something we never sent
    v.violations.push_back(m);
  }
  return v;
}

// ---- output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  void print_json(bool correct, std::size_t attempted, std::size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name.c_str(), v, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string base_note(double num, double den, const char* what) {
  std::ostringstream os;
  os << "(" << num << " / " << den << " " << what << ")";
  return os.str();
}

std::string pct_note(const Percentiles& p, bool tail) {
  std::ostringstream os;
  os << "(n=" << p.count;
  if (tail) os << ", reported as p" << p.tail_pct;
  os << ")";
  return os.str();
}

void write_spans(const std::string& path, const std::vector<OpRecord>& ops,
                 Clock::time_point t0) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::trunc);
  auto us = [t0](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0).count();
  };
  char line[256];
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& o = ops[i];
    if (!o.acked) {
      std::snprintf(line, sizeof line,
                    "{\"trace\":%zu,\"span\":\"op\",\"parent\":null,"
                    "\"start_us\":%.1f,\"end_us\":null}\n",
                    i, us(o.scheduled));
      out << line;
      continue;
    }
    const auto first_send =
        o.acked_at - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(o.service_ms));
    std::snprintf(line, sizeof line,
                  "{\"trace\":%zu,\"span\":\"op\",\"parent\":null,\"kind\":\"%s\","
                  "\"start_us\":%.1f,\"end_us\":%.1f}\n",
                  i, o.read ? "read" : "write", us(o.scheduled), us(o.acked_at));
    out << line;
    std::snprintf(line, sizeof line,
                  "{\"trace\":%zu,\"span\":\"client.queue\",\"parent\":\"op\","
                  "\"start_us\":%.1f,\"end_us\":%.1f}\n",
                  i, us(o.scheduled), us(first_send));
    out << line;
    std::snprintf(line, sizeof line,
                  "{\"trace\":%zu,\"span\":\"client.service\",\"parent\":\"op\","
                  "\"start_us\":%.1f,\"end_us\":%.1f}\n",
                  i, us(first_send), us(o.acked_at));
    out << line;
  }
}


// ---- one fleet's load window -------------------------------------------

struct Window {
  double seconds = 0;
  Clock::time_point t0{};
  std::vector<std::size_t> op_of;  // schedule index -> tracker index
  std::vector<double> late_ms;     // issue time - scheduled time
  double gen_cpu_s = 0;            // this process, over the window
  double steal = 0, host_total = 0;  // host jiffies over the window
  Clock::time_point closed_at{};   // when the generator saw the window end
  bool killed = false;
  Clock::time_point kill_at{};
  ProcessId leader_at_end = kInvalidProcess;
  // Trace only: /proc per replica every kProcEvery; the last sample is
  // taken at the window's end.
  std::vector<std::vector<ProcSample>> proc;
  std::vector<double> proc_at_s;
};

Window drive(const WorkloadSpec& spec, const std::vector<Arrival>& schedule,
             double seconds, bool trace, Fleet& fleet, SvcClient& client,
             Tracker& tracker) {
  Window w;
  w.seconds = seconds;
  w.op_of.resize(schedule.size());
  w.late_ms.reserve(schedule.size());
  w.proc.resize(static_cast<std::size_t>(fleet.n()));
  w.t0 = Clock::now();
  const auto secs = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const auto t_end = w.t0 + secs(seconds);
  const auto kill_due = w.t0 + secs(spec.kill_after_s);
  const double cpu0 = process_cpu_s();
  const auto [steal0, total0] = host_steal_total();
  ProcessId victim = kInvalidProcess;
  bool relaunched = false;
  auto next_proc = w.t0;

  auto sample_proc = [&](Clock::time_point now) {
    const auto pids = fleet.pids();
    for (std::size_t p = 0; p < pids.size(); ++p) w.proc[p].push_back(read_proc(pids[p]));
    w.proc_at_s.push_back(std::chrono::duration<double>(now - w.t0).count());
  };
  auto housekeeping = [&](Clock::time_point now) {
    fleet.pump(&client);
    if (spec.failover && !w.killed && now >= kill_due) {
      victim = fleet.majority_leader();
      if (victim != kInvalidProcess) {
        fleet.kill(victim);
        w.kill_at = Clock::now();
        w.killed = true;
      }
    }
    if (w.killed && !relaunched && now >= w.kill_at + kRelaunchAfter) {
      fleet.relaunch(victim);
      relaunched = true;
    }
    if (trace && now >= next_proc && now < t_end) {
      sample_proc(now);
      next_proc += kProcEvery;
    }
  };

  // Arrivals: sleep until just before the op is due, then spin onto it.
  constexpr auto kSpin = std::chrono::microseconds(60);
  constexpr auto kHouseEvery = std::chrono::milliseconds(1);
  auto next_house = w.t0;
  for (std::size_t i = 0; i < schedule.size();) {
    const Arrival& a = schedule[i];
    const auto target = w.t0 + std::chrono::nanoseconds(a.at_ns);
    auto now = Clock::now();
    if (now >= next_house) {
      housekeeping(now);
      next_house = now + kHouseEvery;
      now = Clock::now();
    }
    if (target - now > kSpin) {
      std::this_thread::sleep_until(std::min(target - kSpin, next_house));
      continue;
    }
    while ((now = Clock::now()) < target) {
    }
    w.op_of[i] = tracker.add(target, a.read, a.session);
    w.late_ms.push_back(ms_between(target, now));
    if (a.read) {
      client.read(a.session, a.reg);
    } else {
      client.write(a.session, a.reg, a.value);
    }
    ++i;
  }

  // The rest of the window, then the drain.
  const auto drain_end = t_end + kDrain;
  bool closed = false;
  for (;;) {
    const auto now = Clock::now();
    if (!closed && now >= t_end) {
      closed = true;
      w.closed_at = now;
      w.gen_cpu_s = process_cpu_s() - cpu0;
      const auto [steal1, total1] = host_steal_total();
      w.steal = steal1 - steal0;
      w.host_total = total1 - total0;
      w.leader_at_end = fleet.majority_leader();
      if (trace) sample_proc(now);
    }
    housekeeping(now);
    const bool drained = tracker.outstanding() == 0 || now >= drain_end;
    if (closed && drained && (!w.killed || relaunched)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return w;
}

// Everything one load fleet leaves behind.
struct FleetRun {
  double setup_s = 0;
  std::vector<Arrival> schedule;
  Window w;
  std::vector<OpRecord> ops;
  SvcClientStats client;
  std::vector<ReplicaState> replicas;
  Verdict verdict;
};

// ---- metrics -----------------------------------------------------------

struct Sums {
  double requests = 0, admitted = 0, sealed = 0, lease_reads = 0,
         lease_denied = 0, elections = 0, sync_rounds = 0, adoptions = 0,
         frames_tx = 0, group_commits = 0;
  std::uint64_t max_slots = 0;
};

void add_counters(const std::vector<ReplicaState>& rs, Sums* s) {
  for (const ReplicaState& r : rs) {
    const RuntimeCounters& c = r.counters;
    s->requests += static_cast<double>(c.svc_requests);
    s->admitted += static_cast<double>(c.svc_admitted);
    s->sealed += static_cast<double>(c.svc_batches_sealed);
    s->lease_reads += static_cast<double>(c.svc_lease_reads);
    s->lease_denied += static_cast<double>(c.svc_lease_denied);
    s->elections += static_cast<double>(c.svc_elections);
    s->sync_rounds += static_cast<double>(c.svc_sync_rounds);
    s->adoptions += static_cast<double>(c.svc_adoptions);
    s->frames_tx += static_cast<double>(c.frames_tx);
    s->group_commits += static_cast<double>(c.wal_group_commits);
    s->max_slots = std::max(s->max_slots, r.status.log_size);
  }
}

void print_log_shape(const LogProbe& p) {
  std::printf("  svc.log shape @%7zu slots: accept %.3f ack %.3f commit %.3f "
              "apply %.3f | ready %.1f learn_floor %.1f uncommitted %.1f "
              "(trio %.1f us)\n",
              p.slots, p.accept_us, p.ack_us, p.mark_committed_us,
              p.mark_applied_us, p.ready_us, p.learn_floor_us, p.uncommitted_us,
              p.ready_us + p.learn_floor_us + p.uncommitted_us);
}

// CPU seconds of replica `p` between window offsets [a, b] (nearest samples).
double cpu_between(const Window& w, std::size_t p, double a, double b) {
  const auto& s = w.proc[p];
  if (s.size() < 2) return 0;
  auto at = [&](double t) {
    std::size_t best = 0;
    for (std::size_t k = 0; k < w.proc_at_s.size() && k < s.size(); ++k) {
      if (std::abs(w.proc_at_s[k] - t) < std::abs(w.proc_at_s[best] - t)) best = k;
    }
    return s[best].cpu_s;
  };
  return at(b) - at(a);
}

void report_layers(Report& rep, const Args& args, const std::vector<FleetRun>& runs,
                   const Accounting& acc, double write_p50_ms) {
  const double acked = static_cast<double>(acc.acked);
  const double sched = static_cast<double>(acc.scheduled);
  const std::string over = " over " + std::to_string(runs.size()) + " fleets";
  std::printf("per-layer:\n");

  std::vector<double> late, queue, service;
  double gen_cpu = 0, window = 0, wal_bytes = 0, svclog_bytes = 0;
  double events = 0, actions = 0, replicas = 0;
  double leader_ms = 0, follower_ms = 0, rss = 0, disk_write_bytes = 0;
  std::vector<double> growth;
  SvcClientStats cs;
  Sums s;
  for (const FleetRun& r : runs) {
    late.insert(late.end(), r.w.late_ms.begin(), r.w.late_ms.end());
    gen_cpu += r.w.gen_cpu_s;
    window += r.w.seconds;
    for (std::size_t i : r.w.op_of) {
      const OpRecord& o = r.ops[i];
      if (!o.acked || o.read) continue;
      service.push_back(o.service_ms);
      queue.push_back(std::max(0.0, ms_between(o.scheduled, o.acked_at) - o.service_ms));
    }
    cs.resends += r.client.resends;
    cs.redirects += r.client.redirects;
    cs.retry_later += r.client.retry_later;
    add_counters(r.replicas, &s);
    wal_bytes += static_cast<double>(r.verdict.wal_record_bytes);
    for (std::uint64_t b : r.verdict.svclog_bytes) svclog_bytes += static_cast<double>(b);
    events += static_cast<double>(r.verdict.events);
    actions += static_cast<double>(r.verdict.actions);
    replicas += static_cast<double>(r.replicas.size());
    // Replica CPU over the window, from /proc.
    double fsum = 0;
    int followers = 0;
    for (std::size_t p = 0; p < r.w.proc.size(); ++p) {
      for (const ProcSample& x : r.w.proc[p]) rss = std::max(rss, x.rss_mb);
      if (r.w.proc[p].size() >= 2) {
        disk_write_bytes += static_cast<double>(r.w.proc[p].back().write_bytes -
                                                r.w.proc[p].front().write_bytes);
      }
      const double ms = cpu_between(r.w, p, 0, r.w.seconds) * 1e3;
      if (static_cast<ProcessId>(p) == r.w.leader_at_end) {
        leader_ms += ms;
        // The O(slots) decay: the leader's CPU share in the window's last
        // second over its first, at a constant offered rate.
        const double first = cpu_between(r.w, p, 0, 1);
        const double last = cpu_between(r.w, p, r.w.seconds - 1, r.w.seconds);
        if (first > 0) growth.push_back(last / first);
      } else {
        fsum += ms;
        ++followers;
      }
      std::printf("  fleet replica %zu cpu share by second:", p);
      for (double t = 0; t + 1 <= r.w.seconds + 1e-6; t += 1) {
        std::printf(" %.2f", cpu_between(r.w, p, t, t + 1));
      }
      std::printf("%s\n", static_cast<ProcessId>(p) == r.w.leader_at_end ? " (leader)" : "");
    }
    if (followers > 0) follower_ms += fsum / followers;
  }

  std::sort(late.begin(), late.end());
  rep.add("gen.late_p99_ms", nearest_rank(late, 99), "ms", "(n=" + std::to_string(late.size()) + ")");
  rep.add("gen.cpu_frac", ratio(gen_cpu, window), "ratio",
          base_note(gen_cpu, window, "cpu s / window s; generator + client + supervisor threads"));

  const Percentiles q = percentiles(queue);
  const Percentiles sv = percentiles(service);
  rep.add("client.queue_p50_ms", q.p50, "ms", pct_note(q, false) + " writes, scheduled -> first send");
  rep.add("client.queue_p99_ms", q.tail, "ms", pct_note(q, true));
  rep.add("client.service_p50_ms", sv.p50, "ms", pct_note(sv, false) + " writes, first send -> reply");
  rep.add("client.resends_per_op", ratio(cs.resends, sched), "ratio", base_note(cs.resends, sched, "scheduled ops"));
  rep.add("client.redirects_per_op", ratio(cs.redirects, sched), "ratio", base_note(cs.redirects, sched, "scheduled ops"));
  rep.add("client.retry_later_per_op", ratio(cs.retry_later, sched), "ratio", base_note(cs.retry_later, sched, "scheduled ops"));

  const double ops_per_batch = ratio(s.admitted, s.sealed);
  const int batch_ops = std::max(1, static_cast<int>(std::lround(ops_per_batch)));
  const WireProbe wire = probe_wire(batch_ops);
  rep.add("net.wire.encode_ns", wire.encode_ns, "ns", "(mean of request, propose, reply frames)");
  rep.add("net.wire.decode_ns", wire.decode_ns, "ns", "(mean of request, propose, reply frames)");
  const Dist rtt = probe_reactor_rtt(2000);
  rep.add("net.reactor.rtt_p50_us", rtt.p50, "us", "(n=" + std::to_string(rtt.count) + ", two reactors over loopback)");
  rep.add("net.reactor.rtt_p99_us", rtt.p99, "us", "(n=" + std::to_string(rtt.count) + ")");
  rep.add("net.frames_per_op", ratio(s.frames_tx, acked), "ratio", base_note(s.frames_tx, acked, "acked ops; frames_tx of all replicas"));

  const std::string probe_dir = args.work_dir + "/probe-" + std::to_string(::getpid());
  const int events_per_batch =
      std::max(1, static_cast<int>(std::lround(ratio(events, replicas / runs.size() * actions))));
  const Dist dw = probe_durable_wait(probe_dir + "/store", 1000, events_per_batch, args.seed);
  rep.add("store.durable_wait_p50_us", dw.p50, "us",
          "(n=" + std::to_string(dw.count) + ", " + std::to_string(events_per_batch) + " events per round, mp_store_options)");
  rep.add("store.durable_wait_p99_us", dw.p99, "us", "(n=" + std::to_string(dw.count) + ")");
  rep.add("store.group_commits_per_op", ratio(s.group_commits, acked), "ratio", base_note(s.group_commits, acked, "acked ops"));
  rep.add("store.bytes_per_op", ratio(wal_bytes, acked), "B", base_note(wal_bytes, acked, "acked ops; framed WAL records"));

  const Dist sl = probe_svclog_append(probe_dir + "/svclog", 1000, batch_ops);
  rep.add("svc.svclog.append_p50_us", sl.p50, "us",
          "(n=" + std::to_string(sl.count) + ", " + std::to_string(batch_ops) + "-op batches)");
  rep.add("svc.svclog.append_p99_us", sl.p99, "us", "(n=" + std::to_string(sl.count) + ")");
  rep.add("svc.svclog.bytes_per_op", ratio(svclog_bytes, acked), "B", base_note(svclog_bytes, acked, "acked ops"));
  std::filesystem::remove_all(probe_dir);

  const int inflight = SvcNodeOptions{}.max_inflight_slots;
  const LogProbe lp = probe_log(std::max<std::uint64_t>(s.max_slots, 1), batch_ops, inflight);
  rep.add("svc.log.ready_us", lp.ready_us, "us", "(at the run's final " + std::to_string(lp.slots) + " slots)");
  rep.add("svc.log.learn_floor_us", lp.learn_floor_us, "us", "(same)");
  rep.add("svc.log.uncommitted_us", lp.uncommitted_us, "us", "(same)");
  print_log_shape(lp);
  double trio_100k = 0;
  for (std::size_t n : {1'000u, 10'000u, 100'000u}) {
    const LogProbe shape = probe_log(n, batch_ops, inflight);
    print_log_shape(shape);
    trio_100k = shape.ready_us + shape.learn_floor_us + shape.uncommitted_us;
  }
  rep.add("svc.log.scan_100k_us", trio_100k, "us", "(ready + learn_floor + uncommitted at 100k slots)");

  rep.add("svc.node.ops_per_batch", ops_per_batch, "ratio", base_note(s.admitted, s.sealed, "admitted / sealed"));
  rep.add("svc.node.admit_frac", ratio(s.admitted, s.requests), "ratio", base_note(s.admitted, s.requests, "admitted / requests"));
  rep.add("svc.node.lease_hit_frac", ratio(s.lease_reads, s.lease_reads + s.lease_denied), "ratio",
          base_note(s.lease_reads, s.lease_reads + s.lease_denied, "lease reads / reads a leader answered"));
  rep.add("svc.node.leader_cpu_ms_per_op", ratio(leader_ms, acked), "ms", base_note(leader_ms, acked, "leader cpu ms / acked ops"));
  rep.add("svc.node.follower_cpu_ms_per_op", ratio(follower_ms, acked), "ms", base_note(follower_ms, acked, "mean follower cpu ms / acked ops"));
  std::sort(growth.begin(), growth.end());
  rep.add("svc.node.leader_cpu_growth", nearest_rank(growth, 50), "ratio",
          "(leader cpu in the window's last second / its first; median" + over + ")");
  rep.add("svc.node.rss_mb", rss, "MB", "(max over replicas and samples)");
  std::printf("  replica disk writes over the windows (/proc io): %.0f B per acked op (%.0f B)\n",
              ratio(disk_write_bytes, acked), disk_write_bytes);
  rep.add("svc.node.elections", s.elections, "count", "(sum" + over + ")");
  rep.add("svc.node.sync_rounds", s.sync_rounds, "count", "(sum" + over + ")");
  rep.add("svc.node.adoptions", s.adoptions, "count", "(sum" + over + ")");

  StageInputs st;
  st.encode_ns = wire.encode_ns;
  st.decode_ns = wire.decode_ns;
  st.rtt_us = rtt.p50;
  st.durable_wait_us = dw.p50;
  st.svclog_append_us = sl.p50;
  st.log_ops_us = lp.accept_us + lp.ack_us + lp.mark_committed_us + lp.ready_us + lp.mark_applied_us;
  const double sum = stage_sum_ms(st);
  std::printf("  stage budget (us): 2x codec %.2f | 2x reactor rtt %.1f | wal durable wait %.1f | "
              "2x svclog append %.1f | log ops %.1f\n",
              2 * (st.encode_ns + st.decode_ns) / 1e3, 2 * st.rtt_us, st.durable_wait_us,
              2 * st.svclog_append_us, st.log_ops_us);
  rep.add("stage.sum_ms", sum, "ms");
  rep.add("stage.unexplained_ms", stage_unexplained_ms(write_p50_ms, sum), "ms",
          "(this run's write_p50_ms - stage.sum_ms: timer and poll pacing)");
}

// ---- the run -----------------------------------------------------------

// A window in which the hypervisor ran other tenants for more than this
// share of the host's CPU time measured the host, not the fleet (latency
// doubles to tenfolds at 10-25% steal).  Its fleet is run again on the same
// schedule, at most kStealRetries times per run, and the least disturbed
// attempt is kept.  Every attempt still has to pass the gate.
constexpr double kMaxStealFrac = 0.05;
constexpr int kStealRetries = 3;

double steal_frac(const Window& w) { return ratio(w.steal, w.host_total); }

void print_violations(const std::vector<std::string>& v) {
  constexpr std::size_t kShown = 12;
  for (std::size_t i = 0; i < v.size() && i < kShown; ++i) {
    std::printf("  VIOLATION: %s\n", v[i].c_str());
  }
  if (v.size() > kShown) std::printf("  ... and %zu more violations\n", v.size() - kShown);
}

int run(const Args& args) {
  const WorkloadSpec spec = *workload_by_name(args.workload);
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // sleep_until wakes on time
  // The load side stands in for clients on their own machines: favour it
  // over the replicas (which fork back to nice 0) so a busy fleet delays
  // ops, not the schedule.  Best effort; gen.late_p99_ms shows the result.
  if (::setpriority(PRIO_PROCESS, 0, -10) != 0) {
    std::printf("  note: could not raise the generator's priority\n");
  }
  const std::string root = args.work_dir + "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const int fleets = std::max(1, static_cast<int>(std::lround(args.seconds / kFleetSeconds)));
  const double window_s = args.seconds / fleets;
  std::printf("perfbench_svc: workload=%s seed=%llu seconds=%g (%d fleets x %g s) trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, fleets, window_s, args.trace ? 1 : 0);

  auto config = [&](int k) {
    FleetConfig c;
    c.node_binary = args.node;
    c.run_dir = root + "/fleet-" + std::to_string(k);
    c.seed = args.seed * 1000 + static_cast<std::uint64_t>(k);
    return c;
  };
  auto give_up = [&](const std::vector<std::string>& why) {
    print_violations(why);
    std::filesystem::remove_all(root);
    return 1;  // nothing measured: no result
  };

  std::vector<double> setups;

  // --- load fleets: bring-up (a set-up sample), window, drain, gate --------
  std::vector<FleetRun> runs;
  bool gate_ok = true;  // over every attempt, kept or not
  int retries_left = kStealRetries;
  for (int k = 0; k < fleets; ++k) {
    std::optional<FleetRun> kept;
    for (int attempt = 0;; ++attempt) {
      const int id = k + attempt * fleets;  // fresh dir, seeds and run id
      Fleet fleet(config(id));
      Tracker tracker;
      auto client = make_client(fleet, args.seed + 17 * static_cast<std::uint64_t>(id), tracker);
      FleetRun r;
      r.setup_s = bring_up(fleet, *client, tracker);
      if (r.setup_s < 0) return give_up({"load fleet never became ready"});
      r.schedule = make_schedule(spec, args.seed * 7919 + static_cast<std::uint64_t>(k), window_s);
      r.w = drive(spec, r.schedule, window_s, args.trace, fleet, *client, tracker);
      r.client = client->stats();
      r.verdict = finish(fleet, *client, tracker);
      r.replicas = fleet.replicas();
      r.ops = tracker.ops();
      std::printf("gate (fleet %d, attempt %d, host steal %.3f): converged=%d clean_exits=%d "
                  "dc1-3=%d sessions=%d log_agreement=%d (%zu actions, %zu events)\n",
                  k, attempt, steal_frac(r.w), r.verdict.converged, r.verdict.clean_exits,
                  r.verdict.dc_ok, r.verdict.sessions_ok, r.verdict.log_ok, r.verdict.actions,
                  r.verdict.events);
      print_violations(r.verdict.violations);
      gate_ok = gate_ok && r.verdict.conformant();
      std::filesystem::remove_all(config(id).run_dir);
      if (!kept || steal_frac(r.w) < steal_frac(kept->w)) kept = std::move(r);
      if (steal_frac(kept->w) <= kMaxStealFrac || retries_left == 0) break;
      --retries_left;
    }
    setups.push_back(kept->setup_s);
    runs.push_back(std::move(*kept));
  }
  std::filesystem::remove_all(root);

  // --- end-to-end -------------------------------------------------------------
  bool conformant = gate_ok;
  std::vector<OpResult> results;
  std::vector<double> wlat, rlat, unavailable;
  std::vector<double> fleet_wp50, fleet_rp50;  // per load fleet
  std::vector<double> fleet_wlast;  // per load fleet: writes of its final second
  std::size_t last_s_n = 0;
  const auto last_s_from = static_cast<std::int64_t>((window_s - 1) * 1e9);
  std::vector<std::vector<double>> by_sec(static_cast<std::size_t>(std::ceil(window_s)));
  double served_s = 0;  // per fleet: window start -> max(window close, last ack)
  for (const FleetRun& r : runs) {
    conformant = conformant && r.verdict.conformant() && (!spec.failover || r.w.killed);
    double first_ok_after_kill = -1;
    double span_ms = ms_between(r.w.t0, r.w.closed_at);
    std::vector<double> fw, fr, flast;
    for (std::size_t i = 0; i < r.schedule.size(); ++i) {
      const OpRecord& o = r.ops[r.w.op_of[i]];
      OpResult res;
      res.acked = o.acked;
      if (o.acked) {
        res.latency_ms = ms_between(o.scheduled, o.acked_at);
        span_ms = std::max(span_ms, ms_between(r.w.t0, o.acked_at));
        (o.read ? rlat : wlat).push_back(res.latency_ms);
        (o.read ? fr : fw).push_back(res.latency_ms);
        const auto sec = static_cast<std::size_t>(r.schedule[i].at_ns / 1'000'000'000);
        if (!o.read && sec < by_sec.size()) by_sec[sec].push_back(res.latency_ms);
        if (!o.read && r.schedule[i].at_ns >= last_s_from) flast.push_back(res.latency_ms);
        if (r.w.killed && !o.read && o.scheduled > r.w.kill_at) {
          const double ms = ms_between(r.w.kill_at, o.acked_at);
          if (first_ok_after_kill < 0 || ms < first_ok_after_kill) first_ok_after_kill = ms;
        }
      }
      results.push_back(res);
    }
    if (first_ok_after_kill >= 0) unavailable.push_back(first_ok_after_kill);
    served_s += span_ms / 1e3;
    fleet_wp50.push_back(percentiles(fw).p50);
    fleet_rp50.push_back(percentiles(fr).p50);
    fleet_wlast.push_back(percentiles(flast).p50);
    last_s_n += flast.size();
  }
  const Accounting acc = account(results, served_s, kSloMs, conformant);
  const Percentiles wp = percentiles(wlat);
  const Percentiles rp = percentiles(rlat);
  std::sort(setups.begin(), setups.end());

  Report rep;
  std::printf("end-to-end%s:\n",
              args.trace ? " (traced run; tracing overhead = these vs. the untraced run)" : "");
  {
    std::ostringstream all;
    for (double s : setups) all << ' ' << s;
    rep.add("setup_s", nearest_rank(setups, 50), "s",
            "(median of " + std::to_string(setups.size()) + " bring-ups:" + all.str() + ")");
  }
  // Medians are the median fleet's: one fleet hit by a stall of the box
  // cannot move them.  Tails pool every fleet's samples.
  auto median_of = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return nearest_rank(v, 50);
  };
  auto fleets_note = [&](const Percentiles& p, const std::vector<double>& per_fleet) {
    std::ostringstream os;
    os << "(n=" << p.count << "; median of per-fleet p50s:";
    for (double v : per_fleet) os << ' ' << v;
    os << "; pooled p50 " << p.p50 << ")";
    return os.str();
  };
  rep.add("write_p50_ms", median_of(fleet_wp50), "ms", fleets_note(wp, fleet_wp50));
  {
    // The log grows through the window, so its O(slots) scans weigh most
    // on the final second: this is the gated figure that shows them.
    std::ostringstream os;
    os << "(writes scheduled in each window's final second, n=" << last_s_n
       << "; median of per-fleet p50s:";
    for (double v : fleet_wlast) os << ' ' << v;
    os << ")";
    rep.add("write_p50_last_s_ms", median_of(fleet_wlast), "ms", os.str());
  }
  rep.add("write_p99_ms", wp.tail, "ms", pct_note(wp, true));
  rep.add("read_p50_ms", median_of(fleet_rp50), "ms", fleets_note(rp, fleet_rp50));
  rep.add("read_p99_ms", rp.tail, "ms", pct_note(rp, true));
  rep.add("goodput_ops_s", acc.goodput_ops_s, "ops/s",
          base_note(static_cast<double>(acc.within_slo), served_s,
                    "ops within the 50 ms SLO / s from window start to the later of its close and last ack"));
  rep.add("ops_failed_frac", acc.failed_frac, "ratio",
          base_note(static_cast<double>(acc.failed), static_cast<double>(acc.scheduled), "scheduled ops"));
  if (spec.failover) {
    std::sort(unavailable.begin(), unavailable.end());
    rep.add("unavailable_ms", nearest_rank(unavailable, 50), "ms",
            "(leader SIGKILL -> first kOk for a write scheduled after it; median of " +
                std::to_string(unavailable.size()) + " kills)");
  }
  std::printf("  write p50 by second of the window (ms):");
  for (auto& v : by_sec) {
    std::sort(v.begin(), v.end());
    std::printf(" %.2f", nearest_rank(v, 50));
  }
  std::printf("\n");
  double steal = 0, host_total = 0;
  for (const FleetRun& r : runs) {
    steal += r.w.steal;
    host_total += r.w.host_total;
  }
  rep.add("host.steal_frac", ratio(steal, host_total), "ratio",
          base_note(steal, host_total, "jiffies stolen by the hypervisor / all host CPU jiffies"));
  {
    std::vector<double> late;
    for (const FleetRun& r : runs) late.insert(late.end(), r.w.late_ms.begin(), r.w.late_ms.end());
    std::sort(late.begin(), late.end());
    std::printf("  generator lateness: p50 %.4f p99 %.4f max %.4f ms (n=%zu)\n",
                nearest_rank(late, 50), nearest_rank(late, 99),
                late.empty() ? 0.0 : late.back(), late.size());
  }

  if (args.trace) {
    report_layers(rep, args, runs, acc, median_of(fleet_wp50));
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const std::string spans = args.work_dir + "/traces/" + spec.name + "-seed" +
                                std::to_string(args.seed) + "-fleet" + std::to_string(k) +
                                ".spans.jsonl";
      write_spans(spans, runs[k].ops, runs[k].w.t0);
      std::printf("  spans: %s (%zu ops: op -> client.queue, client.service)\n",
                  spans.c_str(), runs[k].ops.size());
    }
  }
  rep.print_json(conformant, acc.scheduled, acc.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return udc::guarded_main("perfbench_svc", [&] {
    return perfbench::run(perfbench::parse(argc, argv));
  });
}
