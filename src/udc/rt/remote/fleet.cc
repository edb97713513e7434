#include "udc/rt/remote/fleet.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "udc/common/check.h"
#include "udc/coord/action.h"
#include "udc/rt/remote/supervisor.h"
#include "udc/rt/runtime.h"

namespace udc {

namespace {

std::vector<std::string> node_argv(const FleetOptions& opts, ProcessId id,
                                   std::uint64_t epoch, std::uint64_t run_id,
                                   std::uint16_t sup_port,
                                   const std::string& script_path) {
  std::vector<std::string> a;
  a.push_back(opts.node_binary);
  a.push_back(node_flag("--id", id));
  a.push_back(node_flag("--n", opts.n));
  a.push_back(node_flag("--t", opts.t));
  a.push_back(node_flag("--protocol", opts.protocol));
  a.push_back(node_flag("--resend-interval", opts.resend_interval));
  a.push_back(node_flag("--epoch", epoch));
  a.push_back(node_flag("--run-id", run_id));
  a.push_back(node_flag("--supervisor-port", sup_port));
  a.push_back(node_flag("--wal-dir", opts.run_dir));
  if (!script_path.empty()) a.push_back(node_flag("--script", script_path));
  a.push_back(node_flag("--background-drop", opts.background_drop));
  a.push_back(node_flag(
      "--seed", opts.seed + 0x9e37u * (std::uint64_t)(id + 1) + epoch));
  a.push_back(node_flag("--hb-interval", opts.heartbeat.interval));
  a.push_back(node_flag("--hb-timeout", opts.heartbeat.initial_timeout));
  return a;
}

RuntimeCounters status_counters(const WireStatus& s) {
  return unpack_node_counters(s.counters);
}

bool lists(const std::vector<ActionId>& v, ActionId a) {
  return std::find(v.begin(), v.end(), a) != v.end();
}

}  // namespace

FleetVerdict run_fleet(const FleetOptions& opts) {
  UDC_CHECK(opts.n >= 1 && opts.n <= kMaxProcesses, "fleet: bad n");
  UDC_CHECK(opts.t >= 0 && opts.t < opts.n, "fleet: bad t");
  UDC_CHECK(!opts.run_dir.empty(), "fleet: run dir required");
  UDC_CHECK(!opts.node_binary.empty() &&
                std::filesystem::exists(opts.node_binary),
            "fleet: node binary missing");
  UDC_CHECK(opts.restart_after >= 1, "fleet: bad restart delay");
  for (const InitDirective& d : opts.workload) {
    UDC_CHECK(d.p >= 0 && d.p < opts.n, "fleet: workload names bad owner");
    UDC_CHECK(action_owner(d.action) == d.p,
              "fleet: directive owner mismatch");
  }
  for (ProcessId v : opts.kill_after_perform) {
    UDC_CHECK(v >= 0 && v < opts.n, "fleet: bad kill victim");
  }

  std::filesystem::create_directories(opts.run_dir);
  const FaultScript script = sanitize_for_live(opts.script, opts.n, opts.t);
  std::string script_path;
  {
    // Wire-level faults travel to the nodes via a file; crash injections
    // stay with the supervisor (a cross-process crash IS a SIGKILL, not
    // something a node does to itself).  Storage faults are not lowered in
    // the MP runtime (DESIGN.md §12).
    FaultScript wire_only = script;
    wire_only.crashes.clear();
    wire_only.storage_faults.clear();
    if (!wire_only.empty() || opts.background_drop > 0) {
      script_path = (std::filesystem::path(opts.run_dir) / "script.txt")
                        .string();
      std::ofstream out(script_path, std::ios::trunc);
      out << wire_only.format();
      UDC_CHECK(out.good(), "fleet: cannot write script file");
    }
  }
  // One fleet = one run id: strays from an earlier run on a recycled port
  // fail the handshake instead of injecting foreign frames.
  const std::uint64_t run_id =
      (static_cast<std::uint64_t>(::getpid()) << 32) ^ opts.seed ^
      0x666c656574ull;  // "fleet"

  using Sup = Supervisor<WireStatus>;
  Sup sup(opts.n, opts.run_dir, run_id, opts.seed,
          {FrameType::kStatus, &decode_status, &status_counters},
          [&](ProcessId p, std::uint64_t epoch, std::uint16_t sup_port) {
            return node_argv(opts, p, epoch, run_id, sup_port, script_path);
          });

  struct DirectiveState {
    InitDirective d;
    std::chrono::steady_clock::time_point next_send{};
  };
  std::vector<DirectiveState> dirs;
  dirs.reserve(opts.workload.size());
  for (const InitDirective& d : opts.workload) dirs.push_back({d});

  struct CrashState {
    CrashInjection c;
    bool applied = false;
  };
  std::vector<CrashState> crashes;
  for (const CrashInjection& c : script.crashes) crashes.push_back({c});

  std::set<ProcessId> perform_kills_pending(opts.kill_after_perform.begin(),
                                            opts.kill_after_perform.end());
  const bool has_perform_kills = !perform_kills_pending.empty();
  bool kills_settling = false;
  auto settle_deadline = std::chrono::steady_clock::now();
  std::vector<Time> relaunch_at(static_cast<std::size_t>(opts.n), 0);
  constexpr auto kInitResend = std::chrono::milliseconds(100);

  // Fleet time is the highest logical clock any node reports.  Kills are
  // real SIGKILLs; restartable victims relaunch `restart_after` ticks on.
  Time fleet_tick = 0;
  auto kill = [&](ProcessId victim) {
    if (!sup.child(victim).running) return;
    sup.kill(victim, opts.restartable_crashes);
    relaunch_at[static_cast<std::size_t>(victim)] =
        fleet_tick + opts.restart_after;
  };

  const auto step = [&](std::chrono::steady_clock::time_point wall,
                        const Sup::Board& board) {
    fleet_tick = 0;
    for (const Sup::View& v : board) {
      if (v.have_status) fleet_tick = std::max(fleet_tick, v.status.clock);
    }

    // Scripted crashes at the scripted tick.
    for (CrashState& cs : crashes) {
      if (cs.applied || fleet_tick < cs.c.at) continue;
      cs.applied = true;
      kill(cs.c.victim);
    }

    // Perform-triggered kills: fire the moment the victim's DURABLE state
    // shows a perform — the dagger construction's timing.
    for (auto it = perform_kills_pending.begin();
         it != perform_kills_pending.end();) {
      const Sup::View& v = board[static_cast<std::size_t>(*it)];
      if (sup.child(*it).running && v.have_status &&
          !v.status.performs.empty()) {
        kill(*it);
        it = perform_kills_pending.erase(it);
      } else {
        ++it;
      }
    }
    if (has_perform_kills && perform_kills_pending.empty() &&
        !kills_settling) {
      kills_settling = true;
      settle_deadline = wall + opts.settle_after_kills;
    }
    if (kills_settling && wall >= settle_deadline) return true;

    for (ProcessId p = 0; p < opts.n; ++p) {
      if (sup.child(p).awaiting_relaunch &&
          fleet_tick >= relaunch_at[static_cast<std::size_t>(p)]) {
        sup.relaunch(p);
      }
    }

    // Workload: re-send each kInit until the owner's durable status lists
    // it.  A kill may roll a non-durable init back; the re-send loop simply
    // keeps going until durability is proven.
    bool all_resolved = true;
    for (DirectiveState& ds : dirs) {
      if (fleet_tick < ds.d.at) {
        all_resolved = false;
        continue;
      }
      const Sup::View& v = board[static_cast<std::size_t>(ds.d.p)];
      if (v.have_status && lists(v.status.inits, ds.d.action)) continue;
      if (sup.child(ds.d.p).permanently_dead) continue;  // excused
      all_resolved = false;
      if (v.up && wall >= ds.next_send) {
        WireInit wi;
        wi.action = ds.d.action;
        sup.reactor().send(ds.d.p, FrameType::kInit, encode_init(wi));
        ds.next_send = wall + kInitResend;
      }
    }

    // Completion: every directive durably initiated (or excused by a
    // permanent death), nobody awaiting relaunch, and every durably
    // initiated action durably performed at every surviving node.
    if (!all_resolved) return false;
    for (const Child& c : sup.children()) {
      if (c.awaiting_relaunch) return false;
    }
    std::set<ActionId> initiated;
    for (const Sup::View& v : board) {
      if (v.have_status) {
        initiated.insert(v.status.inits.begin(), v.status.inits.end());
      }
    }
    for (ProcessId p = 0; p < opts.n; ++p) {
      if (sup.child(p).permanently_dead) continue;
      const Sup::View& v = board[static_cast<std::size_t>(p)];
      if (!v.have_status) return false;
      for (ActionId a : initiated) {
        if (!lists(v.status.performs, a)) return false;
      }
    }
    return true;
  };

  FleetVerdict v;
  v.status = sup.drive(std::chrono::steady_clock::now() + opts.deadline, step);
  v.clean_exits = sup.shutdown();

  // The shards ARE the run.
  std::vector<ShardRecord> merged;
  for (ProcessId p = 0; p < opts.n; ++p) {
    std::vector<ShardRecord> shard = read_shard(opts.run_dir, p, opts.store);
    if (sup.child(p).permanently_dead) append_crash(p, &shard);
    merged.insert(merged.end(), shard.begin(), shard.end());
  }
  v.counters = sup.counters();
  v.counters.events_recorded = merged.size();
  v.run = merge_shards(opts.n, std::move(merged));

  v.actions = workload_actions(opts.workload);
  v.coord = opts.restartable_crashes
                ? check_nudc(*v.run, v.actions, opts.grace)
                : check_udc(*v.run, v.actions, opts.grace);
  v.fd = check_fd_properties(*v.run, opts.grace);
  v.accuracy = check_eventual_accuracy(*v.run);
  v.conformant = v.status == BudgetStatus::kComplete && v.coord.achieved() &&
                 v.clean_exits;
  return v;
}

}  // namespace udc
