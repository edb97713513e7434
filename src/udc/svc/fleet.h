// run_svc_fleet: the replicated coordination service under chaos, at live
// load, with the verdict lifted from the survivors' disks.
//
// The supervisor forks one udc_svc_node per replica, points a set of
// SvcClients (svc/client.h) at the fleet, and drives an OPEN-LOOP workload:
// arrivals follow a heavy-tailed (bounded-Pareto) interarrival process and
// do not wait for completions, so overload and failover latency land in the
// tail instead of throttling the generator.  While the load runs, the
// chosen chaos arm fires: SIGKILL of the current leader (relaunched epoch+1
// against the same disks), a rolling restart of every replica in turn, or a
// healing partition lowered to real connection teardown inside the nodes.
//
// Quiescence is a convergence contract, not a timer: every submitted op
// completed, every relaunch done, and every replica reporting the same
// applied floor with nothing unapplied, unsynced, or orphaned.  Then the
// fleet is stopped and judged on ground truth:
//   * the merged WAL shards are lifted into one model Run and pushed
//     through the UNCHANGED DC1-DC3 checkers (check_nudc; the action set is
//     every batch action any shard initiated),
//   * each replica's applied batch sequence (durable kDo order joined to
//     the service logs) goes through the linearizable-session checker
//     (exactly-once, per-session order, agreement, client-confirmed) and
//     the replicated-log agreement checker,
//   * exits must be clean: 0 or a SIGKILL the supervisor sent.
// Client-observed latency quantiles and throughput ride along for the
// bench harness.  A replica that exits on its own ends the run at once (it
// will not come back); the verdict scores it through clean_exits.  The
// process and wire plumbing is the shared supervisor
// (rt/remote/supervisor.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "udc/common/budget.h"
#include "udc/consensus/spec.h"
#include "udc/coord/metrics.h"
#include "udc/coord/spec.h"
#include "udc/event/run.h"
#include "udc/svc/checker.h"
#include "udc/svc/latency.h"
#include "udc/svc/node.h"

namespace udc {

enum class SvcChaosArm {
  kNone,        // load only: the bench arm
  kLeaderKill,  // SIGKILL the majority-view leader, relaunch epoch+1
  kRolling,     // kill + relaunch every replica, one at a time
  kPartition,   // bidirectional cut of node 0, healing mid-run
};

const char* svc_chaos_arm_name(SvcChaosArm arm);

struct SvcFleetOptions {
  int n = 3;
  SvcChaosArm arm = SvcChaosArm::kNone;
  std::uint64_t seed = 1;
  std::string run_dir;      // scratch: WAL shards, service logs, node logs
  std::string node_binary;  // udc_svc_node executable

  // Open-loop load: `ops` total operations spread over `clients` client
  // processes-worth of sessions, bounded-Pareto interarrivals with this
  // mean, `read_fraction` of arrivals issued as lease reads.
  int clients = 2;
  int sessions_per_client = 4;
  int ops = 600;
  double read_fraction = 0.2;
  double mean_interarrival_us = 800;

  // Chaos pacing (wall clock).
  std::chrono::milliseconds chaos_after{150};  // first fault
  std::chrono::milliseconds restart_after{300};
  std::chrono::milliseconds kill_spacing{800};
  int leader_kills = 2;  // kLeaderKill arm only

  SvcNodeOptions node;  // knob template: heartbeat, lease, batching
  std::chrono::milliseconds deadline{20'000};
};

struct SvcFleetVerdict {
  BudgetStatus status = BudgetStatus::kComplete;
  std::optional<Run> run;          // merged from the WAL shards
  std::vector<ActionId> actions;   // every batch action initiated anywhere
  CoordReport coord;               // DC1-DC3 over the lifted run (nUDC)
  SvcSessionReport sessions;       // exactly-once / order / agreement
  LogAgreementReport log_agreement;
  RuntimeCounters counters;

  LatencyQuantiles latency;  // client-observed, first submit to completion
  double ops_per_sec = 0;
  double elapsed_s = 0;      // load start to last completion (or stop)
  std::uint64_t completions = 0;

  bool clean_exits = true;
  bool conformant = false;
};

// Forks the fleet, drives load + chaos, merges the shards, checks the
// lifted run.  Throws InvariantViolation for malformed options; everything
// fault-induced is reported through the verdict.
SvcFleetVerdict run_svc_fleet(const SvcFleetOptions& opts);

}  // namespace udc
