// run_fleet: the cross-process supervisor — real processes, real SIGKILL,
// and a lifted Run assembled from the survivors' disks.
//
// The in-process runtime (rt/runtime.h) shares one address space: its
// "crash" is a joined thread and its trace recorder sees every event.  The
// fleet shares NOTHING with its nodes but a run directory and a TCP port.
// It forks one udc_rt_node per process, hands each the chaos script, drives
// the workload over the control connection (kInit frames, re-sent until the
// node's durable status proves the init stuck), and lowers the script's
// crash injections to actual `kill(pid, SIGKILL)` — no flushing, no
// goodbye, the kernel reclaims the sockets mid-frame.  Restartable victims
// are re-exec'd with epoch+1 against the same WAL directory and recover the
// paper's way: replay the durable prefix, broadcast kRejoin, let the ARQ
// re-teach the lost suffix.
//
// When the fleet quiesces (or the deadline trips), the supervisor owns the
// only copy of the truth that matters: each node's WAL shard.  It recovers
// every shard with the same ProcessStore recovery the nodes use, merges the
// records by (Lamport tick, process id) — the clock rider guarantees every
// receive sorts strictly after its send — renumbers them one event per
// Builder step, synthesizes the trailing kCrash for permanently killed
// victims (R4), and pushes the lifted Run through the EXISTING DC1-DC3 /
// FD-property checkers.  The conformance claim is the same as run_live's,
// one level harder: a fleet of OS processes killed mid-execution is still a
// run of the paper's model.  The process and wire plumbing is the shared
// supervisor (rt/remote/supervisor.h); this file is the model's policy.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "udc/chaos/fault_script.h"
#include "udc/common/budget.h"
#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/coord/spec.h"
#include "udc/event/run.h"
#include "udc/fd/heartbeat.h"
#include "udc/fd/properties.h"
#include "udc/rt/remote/node.h"
#include "udc/sim/context.h"

namespace udc {

struct FleetOptions {
  int n = 3;
  int t = 1;
  std::string protocol = "strongfd";
  std::vector<InitDirective> workload;  // `at` in logical (Lamport) ticks
  FaultScript script;                   // sanitized internally
  double background_drop = 0.0;
  std::uint64_t seed = 1;

  Time resend_interval = 64;
  HeartbeatOptions heartbeat{/*interval=*/24, /*initial_timeout=*/240,
                             /*timeout_backoff=*/2.0, /*max_timeout=*/4096};

  // Scripted crashes: SIGKILL, then either permanent (verdict checks DC2 /
  // UDC) or re-exec'd with epoch+1 after `restart_after` ticks (DC2' /
  // nUDC).
  bool restartable_crashes = false;
  Time restart_after = 600;

  // SIGKILL these processes the moment their status reports a DURABLE
  // perform — the kill lands after do_p(alpha) survives any crash, which is
  // exactly the Table-1 dagger construction's timing.  Subject to
  // restartable_crashes like any other kill.
  std::vector<ProcessId> kill_after_perform;
  // With kill_after_perform active the run usually CANNOT complete (that is
  // the point); once every listed victim is dead, wait this long for the
  // survivors' state to settle, then stop and lift what happened.
  std::chrono::milliseconds settle_after_kills{1'500};

  // Scratch directory for this run: WAL shards, the lowered script file,
  // per-node logs.  Created if missing; expected fresh per run.
  std::string run_dir;
  // The udc_rt_node executable to exec.
  std::string node_binary;

  StoreOptions store = mp_store_options();
  Time grace = 0;  // spec-check grace for the lifted run
  std::chrono::milliseconds deadline{20'000};
};

struct FleetVerdict {
  BudgetStatus status = BudgetStatus::kComplete;
  std::optional<Run> run;  // merged from the WAL shards
  std::vector<ActionId> actions;
  CoordReport coord;  // DC2 variant per restartable_crashes (UDC vs nUDC)
  FdPropertyReport fd;
  EventualAccuracyReport accuracy;
  RuntimeCounters counters;

  // Every node exited how the supervisor told it to (0, or SIGKILL we
  // sent).  An unexpected exit code / signal is an infrastructure failure
  // even when the lifted run still checks out.
  bool clean_exits = true;

  bool conformant = false;
};

// Forks the fleet, drives it, merges the shards, checks the lifted run.
// Throws InvariantViolation for malformed options (bad n/t, missing node
// binary); everything fault-induced is reported through the verdict.
FleetVerdict run_fleet(const FleetOptions& opts);

}  // namespace udc
