#include "udc/svc/fleet.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "udc/chaos/fault_script.h"
#include "udc/common/check.h"
#include "udc/common/rng.h"
#include "udc/coord/action.h"
#include "udc/rt/remote/supervisor.h"
#include "udc/svc/client.h"
#include "udc/svc/svclog.h"
#include "udc/svc/wire.h"

namespace udc {

const char* svc_chaos_arm_name(SvcChaosArm arm) {
  switch (arm) {
    case SvcChaosArm::kNone:
      return "none";
    case SvcChaosArm::kLeaderKill:
      return "leader-kill";
    case SvcChaosArm::kRolling:
      return "rolling";
    case SvcChaosArm::kPartition:
      return "partition";
  }
  return "?";
}

namespace {

// Partition arm: node 0 (the likely first leader) cut both ways in logical
// time, healing mid-run.  Tick velocity under load is thousands per second,
// so the window opens almost immediately and heals well inside the deadline.
constexpr Time kCutFrom = 1'500;
constexpr Time kCutHeal = 15'000;

// One scheduled open-loop arrival.
struct Arrival {
  std::int64_t at_us = 0;  // offset from load start
  int client = 0;
  std::uint64_t session = 0;
  bool read = false;
  std::int32_t reg = 0;
  std::int64_t value = 0;
};

std::vector<std::string> node_argv(const SvcFleetOptions& opts, ProcessId id,
                                   std::uint64_t epoch, std::uint64_t run_id,
                                   std::uint16_t sup_port,
                                   const std::string& script_path) {
  const SvcNodeOptions& nd = opts.node;
  std::vector<std::string> a;
  a.push_back(opts.node_binary);
  a.push_back(node_flag("--id", id));
  a.push_back(node_flag("--n", opts.n));
  a.push_back(node_flag("--epoch", epoch));
  a.push_back(node_flag("--run-id", run_id));
  a.push_back(node_flag("--supervisor-port", sup_port));
  a.push_back(node_flag("--dir", opts.run_dir));
  if (!script_path.empty()) a.push_back(node_flag("--script", script_path));
  a.push_back(node_flag(
      "--seed", opts.seed + 0x9e37u * (std::uint64_t)(id + 1) + epoch));
  a.push_back(node_flag("--hb-interval", nd.heartbeat.interval));
  a.push_back(node_flag("--hb-timeout", nd.heartbeat.initial_timeout));
  a.push_back(node_flag("--lease-ms", nd.lease_window.count()));
  a.push_back(node_flag("--batch-ops", nd.max_batch_ops));
  a.push_back(node_flag("--seal-us", nd.seal_interval.count()));
  a.push_back(node_flag("--inflight", nd.max_inflight_slots));
  a.push_back(node_flag("--admission-cap", nd.admission_cap));
  a.push_back(node_flag("--resend-us", nd.resend_interval.count()));
  a.push_back(node_flag("--orphan-ms", nd.orphan_after.count()));
  return a;
}

RuntimeCounters status_counters(const SvcNodeStatus& s) {
  RuntimeCounters rc = unpack_node_counters(s.counters);
  unpack_svc_counters(s.counters, kNodeCounterSlots, &rc);
  return rc;
}

// Bounded Pareto (alpha = 1.5): the mean interarrival is honored but the
// tail is heavy — bursts arrive, which is what makes backpressure earn its
// keep.  Capped at 40x the mean so one sample cannot stall the schedule.
std::int64_t pareto_us(double mean_us, Rng& rng) {
  const double alpha = 1.5;
  const double xm = mean_us * (alpha - 1.0) / alpha;
  double u = rng.next_double();
  if (u < 1e-12) u = 1e-12;
  const double x = xm / std::pow(u, 1.0 / alpha);
  const double cap = mean_us * 40.0;
  return static_cast<std::int64_t>(std::min(x, cap));
}

std::vector<Arrival> make_schedule(const SvcFleetOptions& opts, Rng& rng) {
  std::vector<Arrival> sched;
  sched.reserve(static_cast<std::size_t>(opts.ops));
  std::int64_t t = 0;
  for (int i = 0; i < opts.ops; ++i) {
    t += pareto_us(opts.mean_interarrival_us, rng);
    Arrival a;
    a.at_us = t;
    a.client = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(opts.clients)));
    const std::uint64_t s = rng.next_below(
        static_cast<std::uint64_t>(opts.sessions_per_client));
    a.session = (static_cast<std::uint64_t>(a.client) << 8) | (s + 1);
    a.read = rng.chance(opts.read_fraction);
    a.reg = static_cast<std::int32_t>(rng.next_below(64));
    a.value = i + 1;
    sched.push_back(a);
  }
  return sched;
}

}  // namespace

SvcFleetVerdict run_svc_fleet(const SvcFleetOptions& opts) {
  UDC_CHECK(opts.n >= 1 && opts.n <= kMaxProcesses, "svc fleet: bad n");
  UDC_CHECK(!opts.run_dir.empty(), "svc fleet: run dir required");
  UDC_CHECK(!opts.node_binary.empty() &&
                std::filesystem::exists(opts.node_binary),
            "svc fleet: node binary missing");
  UDC_CHECK(opts.clients >= 1 && opts.sessions_per_client >= 1 &&
                opts.ops >= 1,
            "svc fleet: bad load shape");
  std::filesystem::create_directories(opts.run_dir);

  std::string script_path;
  if (opts.arm == SvcChaosArm::kPartition && opts.n >= 2) {
    FaultScript script;
    PartitionWindow w;
    w.senders = ProcSet::singleton(0);
    w.recipients = ProcSet::full(opts.n);
    w.recipients.erase(0);
    w.from = kCutFrom;
    w.heal = kCutHeal;
    script.partitions.push_back(w);
    PartitionWindow rev;
    rev.senders = w.recipients;
    rev.recipients = w.senders;
    rev.from = kCutFrom;
    rev.heal = kCutHeal;
    script.partitions.push_back(rev);
    script_path =
        (std::filesystem::path(opts.run_dir) / "script.txt").string();
    std::ofstream out(script_path, std::ios::trunc);
    out << script.format();
    UDC_CHECK(out.good(), "svc fleet: cannot write script file");
  }

  const std::uint64_t run_id =
      (static_cast<std::uint64_t>(::getpid()) << 32) ^ opts.seed ^
      0x737663ull;  // "svc"

  using Sup = Supervisor<SvcNodeStatus>;
  Sup sup(opts.n, opts.run_dir, run_id, opts.seed,
          {FrameType::kSvcStatus, &decode_svc_status, &status_counters},
          [&](ProcessId p, std::uint64_t epoch, std::uint16_t sup_port) {
            return node_argv(opts, p, epoch, run_id, sup_port, script_path);
          });

  // --- the load -------------------------------------------------------------
  std::mutex done_mu;
  std::vector<SvcClientRecord> confirmed;
  LatencyRecorder latency;
  auto load_start = std::chrono::steady_clock::now();
  auto last_completion = load_start;
  std::vector<std::unique_ptr<SvcClient>> clients;
  for (int ci = 0; ci < opts.clients; ++ci) {
    SvcClientOptions co;
    co.instance = ci;
    co.run_id = run_id;
    co.n = opts.n;
    co.seed = opts.seed + 0x11u * static_cast<std::uint64_t>(ci + 1);
    clients.push_back(std::make_unique<SvcClient>(
        co, [&](const SvcClientRecord& r, double ms) {
          std::lock_guard<std::mutex> lk(done_mu);
          confirmed.push_back(r);
          latency.add(ms);
          last_completion = std::chrono::steady_clock::now();
        }));
  }

  Rng rng(opts.seed ^ 0x6c6f6164ull);  // "load"
  const std::vector<Arrival> schedule = make_schedule(opts, rng);
  std::size_t next_arrival = 0;

  // --- drive ----------------------------------------------------------------
  SvcFleetVerdict v;
  const auto start = std::chrono::steady_clock::now();
  load_start = start;

  // Chaos state.  Every kill relaunches `restart_after` later (wall clock).
  int kills_done = 0;
  auto next_kill = start + opts.chaos_after;
  int rolling_victim = 0;
  bool rolling_waiting = false;
  auto rolling_gate = start + opts.chaos_after;
  std::vector<std::chrono::steady_clock::time_point> relaunch_at(
      static_cast<std::size_t>(opts.n));
  auto kill = [&](ProcessId p, std::chrono::steady_clock::time_point wall) {
    sup.kill(p, /*relaunch=*/true);
    relaunch_at[static_cast<std::size_t>(p)] = wall + opts.restart_after;
  };

  const auto step = [&](std::chrono::steady_clock::time_point wall,
                        const Sup::Board& board) {
    // A replica that exits on its own will not come back: stop now rather
    // than wait out the deadline (clean_exits scores it).
    for (const Child& c : sup.children()) {
      if (c.permanently_dead) return true;
    }

    // Open-loop arrivals: issue everything due, never wait for completions.
    const std::int64_t elapsed_us =
        std::chrono::duration_cast<std::chrono::microseconds>(wall -
                                                              load_start)
            .count();
    while (next_arrival < schedule.size() &&
           schedule[next_arrival].at_us <= elapsed_us) {
      const Arrival& a = schedule[next_arrival++];
      if (a.read) {
        clients[static_cast<std::size_t>(a.client)]->read(a.session, a.reg);
      } else {
        clients[static_cast<std::size_t>(a.client)]->write(a.session, a.reg,
                                                           a.value);
      }
    }

    // Chaos.
    bool chaos_done = true;
    switch (opts.arm) {
      case SvcChaosArm::kNone:
        break;
      case SvcChaosArm::kLeaderKill: {
        chaos_done = kills_done >= opts.leader_kills;
        if (!chaos_done && wall >= next_kill) {
          // Majority view of the leader; no kill while the fleet is still
          // arguing (an electing fleet has no leader to fail over from).
          std::map<ProcessId, int> votes;
          for (const Sup::View& nv : board) {
            if (nv.up && nv.have_status &&
                nv.status.leader != kInvalidProcess) {
              ++votes[nv.status.leader];
            }
          }
          ProcessId target = kInvalidProcess;
          for (const auto& [who, n] : votes) {
            if (n * 2 > opts.n) target = who;
          }
          if (target != kInvalidProcess && sup.child(target).running) {
            kill(target, wall);
            ++kills_done;
            next_kill = wall + opts.kill_spacing;
          }
        }
        break;
      }
      case SvcChaosArm::kRolling: {
        chaos_done = rolling_victim >= opts.n;
        if (!chaos_done && wall >= rolling_gate) {
          const Child& c = sup.child(rolling_victim);
          if (!rolling_waiting) {
            if (c.running) {
              kill(rolling_victim, wall);
              rolling_waiting = true;
            }
          } else {
            // Move on only once the relaunched incarnation reports in: a
            // rolling restart never has two replicas down at once.
            const Sup::View& nv =
                board[static_cast<std::size_t>(rolling_victim)];
            if (c.running && !c.awaiting_relaunch && nv.up &&
                nv.have_status && nv.status.epoch == c.epoch) {
              ++rolling_victim;
              rolling_waiting = false;
              rolling_gate = wall + std::chrono::milliseconds(200);
            }
          }
        }
        break;
      }
      case SvcChaosArm::kPartition: {
        chaos_done = true;
        for (const Sup::View& nv : board) {
          if (!nv.have_status || nv.status.clock <= kCutHeal) {
            chaos_done = false;
          }
        }
        break;
      }
    }

    for (ProcessId p = 0; p < opts.n; ++p) {
      if (sup.child(p).awaiting_relaunch &&
          wall >= relaunch_at[static_cast<std::size_t>(p)]) {
        sup.relaunch(p);
      }
    }

    // Quiescence: all load completed, all chaos done, every replica caught
    // up, applied out, and agreeing on the floor.
    if (next_arrival < schedule.size() || !chaos_done) return false;
    std::size_t inflight = 0;
    for (const auto& cl : clients) inflight += cl->inflight();
    if (inflight != 0) return false;
    for (ProcessId p = 0; p < opts.n; ++p) {
      const Child& c = sup.child(p);
      const Sup::View& nv = board[static_cast<std::size_t>(p)];
      if (!c.running || c.awaiting_relaunch || !nv.up || !nv.have_status ||
          nv.status.epoch != c.epoch || nv.status.syncing ||
          nv.status.orphans != 0 ||
          nv.status.log_size != nv.status.applied ||
          nv.status.floor != board[0].status.floor) {
        return false;
      }
    }
    return true;
  };

  // Nodes learn each other from kPeers; clients learn everyone here.
  v.status = sup.drive(start + opts.deadline, step, [&](const WirePeers& d) {
    for (auto& cl : clients) {
      for (const auto& [pid, port] : d.ports) cl->set_node_port(pid, port);
    }
  });
  for (auto& cl : clients) cl->stop();
  v.clean_exits = sup.shutdown();

  // The shards ARE the run.
  std::vector<ShardRecord> merged;
  std::set<ActionId> initiated;
  std::vector<std::vector<ActionId>> do_order(
      static_cast<std::size_t>(opts.n));
  for (ProcessId p = 0; p < opts.n; ++p) {
    for (ShardRecord& r : read_shard(opts.run_dir, p, opts.node.store)) {
      if (r.e.kind == EventKind::kInit) initiated.insert(r.e.action);
      if (r.e.kind == EventKind::kDo) {
        do_order[static_cast<std::size_t>(p)].push_back(r.e.action);
      }
      merged.push_back(std::move(r));
    }
  }
  v.counters = sup.counters();
  v.counters.events_recorded = merged.size();
  v.run = merge_shards(opts.n, std::move(merged));
  v.actions.assign(initiated.begin(), initiated.end());

  // Replica apply sequences: durable kDo order joined to the service logs.
  std::vector<std::vector<SvcBatch>> applied_per_node(
      static_cast<std::size_t>(opts.n));
  std::vector<std::vector<std::pair<std::uint64_t, ActionId>>> applied_slots(
      static_cast<std::size_t>(opts.n));
  bool join_ok = true;
  for (ProcessId p = 0; p < opts.n; ++p) {
    std::map<ActionId, SvcBatch> by_action;
    const std::string slog_path =
        opts.run_dir + "/svc-" + std::to_string(p) + ".log";
    for (const SvcBatch& sb : SvcDurableLog::read(slog_path)) {
      by_action[sb.action] = sb;
    }
    for (ActionId a : do_order[static_cast<std::size_t>(p)]) {
      auto it = by_action.find(a);
      if (it == by_action.end()) {
        join_ok = false;
        continue;
      }
      applied_per_node[static_cast<std::size_t>(p)].push_back(it->second);
      applied_slots[static_cast<std::size_t>(p)].push_back(
          {it->second.slot, a});
    }
  }

  // --- verdict --------------------------------------------------------------
  v.coord = check_nudc(*v.run, v.actions, /*grace=*/0);
  {
    std::lock_guard<std::mutex> lk(done_mu);
    v.sessions = check_sessions(applied_per_node, confirmed);
    v.latency = latency.quantiles();
    v.completions = confirmed.size();
    v.elapsed_s =
        std::chrono::duration<double>(last_completion - load_start).count();
  }
  if (!join_ok) {
    v.sessions.agreement = false;
    v.sessions.violations.push_back(
        "durable kDo with no service-log record (shard/slog drift)");
  }
  v.log_agreement = check_log_agreement(applied_slots);
  if (v.elapsed_s > 0) {
    v.ops_per_sec = static_cast<double>(v.completions) / v.elapsed_s;
  }
  v.conformant = v.status == BudgetStatus::kComplete && v.coord.achieved() &&
                 v.sessions.achieved() && v.log_agreement.achieved() &&
                 v.clean_exits;
  return v;
}

}  // namespace udc
