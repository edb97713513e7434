// run_live: the paper's model, executed by real threads, then re-checked
// against itself.
//
// Each of the n processes is a worker thread: a Mailbox, a protocol instance
// from the same registry the simulator uses (unmodified — Env is the
// entire seam), and a HeartbeatDetector whose suspect stream replaces the
// simulator's FdOracle.  An RtTransport carries messages under a chaos
// DropPolicy; a TraceRecorder serializes every observable event; a
// supervisor (the calling thread) drives the logical clock, injects the
// workload and the fault script, restarts crashed workers, and detects
// completion.  The lifted Run then goes through the EXISTING spec.h and
// fd/properties.h checkers — the conformance claim is precisely that a
// concurrent execution of udckit is a run of the paper's model.
//
// Crash semantics, and why restarts preserve uniformity (DC2/DC2'):
//   * permanent crash — the recorder seals the process (R4: kCrash is its
//     last event); the transport abandons traffic toward it.  DC clauses
//     excuse it via their crash(q) disjuncts.
//   * restartable crash — NO kCrash is recorded (in the lifted run the
//     process is merely silent for a while, exactly the paper's reading of
//     a process that crashes and recovers with its state intact).  The
//     worker is torn down, its queued mail is lost, and after
//     `restart_after` ticks a fresh worker replays the process's recorded
//     history — the trace doubles as a write-ahead log — through a fresh
//     protocol instance, reconstructing its pre-crash protocol state.
//     Because the replayed state includes every do_p the process already
//     performed, a restart can never un-perform an action, so uniformity
//     is preserved by construction and re-verified by the checker.
//   * durable restart (`durable_dir` non-empty) — the write-ahead log moves
//     to DISK: every recorded event is mirrored into a per-process
//     store/ProcessStore (CRC-framed WAL + rotated snapshots), scripted
//     StorageFaults corrupt it at kill time, and the restarted worker
//     replays snapshot + repaired WAL tail instead of the in-memory trace.
//     Whatever the disk lost is a suffix of the process's history; the
//     recovery protocol re-learns it: the supervisor re-injects inits the
//     disk forgot (board vs. log diff), and the restarted worker broadcasts
//     a below-model kRejoin beacon so peers withdraw acks they hold from it
//     (see Process::on_peer_recovered) and retransmission re-teaches the
//     rest.  DC2' is then re-proven on the lifted run, not assumed.
#pragma once

#include <chrono>
#include <cstddef>
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
#include "udc/rt/transport.h"
#include "udc/sim/context.h"
#include "udc/sim/process.h"
#include "udc/store/process_store.h"

namespace udc {

// StoreOptions for the live runtime: identical to the store default except
// that group commit is ON (the standalone store tests exercise the inline
// fsync policies; the runtime's hot path should not pay per-append fsyncs).
inline StoreOptions rt_default_store_options() {
  // The shipping durable path (DESIGN.md §11): group commit over a
  // segmented, preallocated WAL with ring-staged appends.  Appends are two
  // memcpys into a fixed slot; the committer drains each store with one
  // gathered write and batches every store's fdatasync through one
  // SyncBarrier round (the flusher pool).  commit_every /
  // commit_interval are sized so a saturated store contributes roughly one
  // barrier round per ~1k events instead of per 32.
  StoreOptions s;
  s.group_commit = true;
  s.segment_bytes = 256 * 1024;
  s.ring_frames = 4096;
  s.commit_every = 1024;
  s.commit_interval = std::chrono::microseconds{5'000};
  s.snapshot_every = 1024;
  return s;
}

struct RtOptions {
  int n = 4;
  int t = 1;  // failure bound: sanitize_for_live caps scripted crashes at t
  // Protocol under test, by chaos-registry name.  Any protocol driven by
  // standard suspect reports works; "strongfd" and "majority" are the
  // conformance-tested ones (the generalized (S,k) family needs a
  // generalized detector, which the heartbeat module does not emit).
  std::string protocol = "strongfd";
  std::vector<InitDirective> workload;  // `at` in logical ticks
  FaultScript script;                   // sanitized internally
  double background_drop = 0.05;
  std::uint64_t seed = 1;

  HeartbeatOptions heartbeat{/*interval=*/24, /*initial_timeout=*/240,
                             /*timeout_backoff=*/2.0, /*max_timeout=*/4096};
  RtTransportOptions transport{};
  // Protocol retransmission pacing, in logical ticks.  Coarser than the
  // simulator's default: every protocol-level resend is a recorded send,
  // and R3 validation on the lifted run is quadratic in per-channel
  // duplicates of one message value.
  Time resend_interval = 64;
  Time grace = 0;  // spec-check grace for the lifted run

  // Restartable crashes: scripted crashes take the worker down for
  // `restart_after` ticks instead of sealing it; the supervisor restarts it
  // from the write-ahead log and the verdict checks DC2' (nUDC).  With
  // false, crashes are permanent and the verdict checks DC2 (UDC).
  bool restartable_crashes = false;
  Time restart_after = 600;

  // Durable restarts: when non-empty, each process keeps a disk WAL +
  // snapshots under this directory (created if missing; expected fresh per
  // run) and restartable crashes recover FROM DISK under the script's
  // StorageFaults instead of from the in-memory trace.  Ignored when
  // restartable_crashes is false.
  //
  // Live runs default to GROUP COMMIT (DESIGN.md §10): appends never fsync
  // inline; a background flusher batches the barriers, and seal/teardown
  // force a final flush.  Set store.group_commit = false to get the PR 4
  // inline-fsync path (the recovery soak cycles both).
  std::string durable_dir;
  StoreOptions store = rt_default_store_options();

  // Wall-clock envelope.  A budget without a deadline gets
  // `default_deadline` so a wedged live run can never hang the caller;
  // tripping either bound yields a kBudgetExceeded partial verdict.
  Budget budget;
  std::chrono::milliseconds default_deadline{10'000};
  std::size_t max_events = 250'000;
};

struct RtVerdict {
  BudgetStatus status = BudgetStatus::kComplete;
  std::optional<Run> run;  // the lifted trace (present even on budget trips)
  std::vector<ActionId> actions;
  CoordReport coord;  // DC2 variant per restartable_crashes (UDC vs nUDC)
  FdPropertyReport fd;
  EventualAccuracyReport accuracy;
  RuntimeCounters counters;

  // Completed within budget AND the lifted run passes DC1-DC3.
  bool conformant = false;
};

// Clamps a chaos script to something a live run can survive: crash victims
// deduped and capped at t, unbounded partition heals / silence and burst
// ends clamped to begin + window_cap ticks (a live run cannot wait for
// "never"), references to processes >= n dropped, lie directives dropped
// (there is no lying oracle below a real heartbeat detector).
FaultScript sanitize_for_live(const FaultScript& script, int n, int t,
                              Time window_cap = 2'000);

// Protocol registry for live runs: "strongfd" and "majority" get the coarser
// RT retransmission pacing; anything else resolves through the chaos
// registry.  Shared by run_live and the cross-process node (rt/remote).
ProtocolFactory live_protocol_factory(const std::string& name, int t,
                                      Time resend_interval);

// Executes the live system and returns the checked verdict.  Throws
// InvariantViolation only for malformed options; fault-induced misbehavior
// is reported through the verdict, and budget exhaustion through status.
RtVerdict run_live(const RtOptions& opts);

}  // namespace udc
