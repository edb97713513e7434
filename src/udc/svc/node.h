// run_svc_node: one replica of the replicated coordination service as one
// OS process.
//
// The node stacks the service on the PR-7 cross-process substrate: the same
// ProcessStore WAL shard (the node's model trace, merged and checked by the
// supervisor), the same Lamport clock discipline, the same epoll reactor —
// plus a second durable file, the service log (svc/svclog), which backs
// every replication ack.  Roles are FD-driven: the HeartbeatDetector over
// kSvcHb frames elects the lowest unsuspected id; a fresh leader syncs
// against a majority before admitting anything (two majorities intersect,
// so it cannot miss a committed batch), re-seals orphans under its term,
// and plugs slot holes with no-op batches so the applied floor can always
// advance.
//
// Model-event mapping (how chaos results get checked): sealing a batch
// records kInit(action) at the admitting leader; applying it records
// kDo(action) at every replica.  The batch propose leaves the leader only
// once the kInit is WAL-durable (the svc-level durable-send gate), and
// every svc frame carries a clock rider folded in before any recording, so
// in the merged run each kDo tick strictly exceeds its kInit tick — DC3's
// operational face, surviving kill -9 because a restarted owner re-records
// any kInit its WAL lost for a batch its service log still holds, before
// offering that batch for adoption.
//
// Exit codes match run_node: 0 on supervisor-ordered stop, 3 if orphaned.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/fd/heartbeat.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/node.h"
#include "udc/store/process_store.h"

namespace udc {

// Status-frame slots appended AFTER the rt slots (NodeCounterSlot): the
// node packs pack_node_counters + pack_svc_counters, the supervisor splits
// at kNodeCounterSlots.
enum SvcCounterSlot : std::size_t {
  kSvcSlotRequests = 0,
  kSvcSlotAdmitted,
  kSvcSlotDupsSuppressed,
  kSvcSlotRetryLater,
  kSvcSlotRedirects,
  kSvcSlotBatchesSealed,
  kSvcSlotBatchesCommitted,
  kSvcSlotOooCommits,
  kSvcSlotElections,
  kSvcSlotSyncRounds,
  kSvcSlotAdoptions,
  kSvcSlotLeaseReads,
  kSvcSlotLeaseDenied,
  kSvcCounterSlots,
};

std::vector<std::uint64_t> pack_svc_counters(const RuntimeCounters& c);
// Unpacks the svc slots from `v` starting at `offset` (the rt slot count in
// a status frame) into the matching fields of `c`.
void unpack_svc_counters(const std::vector<std::uint64_t>& v,
                         std::size_t offset, RuntimeCounters* c);

// A replica's worker input: one wire frame and its sender (a peer replica
// or a client).  kStop and kPeers never become mail; the node shell
// (rt/remote/node_shell.h) handles them.
struct SvcMail {
  ProcessId peer = kInvalidProcess;
  WireFrame frame;
};

struct SvcNodeOptions {
  ProcessId id = kInvalidProcess;
  int n = 0;
  std::uint64_t epoch = 0;   // incarnation; > 0 recovers WAL + service log
  std::uint64_t run_id = 0;
  std::uint16_t supervisor_port = 0;
  std::uint16_t data_port = 0;  // 0 = ephemeral
  std::string dir;              // run dir: WAL shard + svc-<id>.log
  std::string script_file;      // partition windows -> refuse windows
  std::uint64_t seed = 1;
  StoreOptions store = mp_store_options();
  // FD pacing in logical ticks, like the rt node.
  HeartbeatOptions heartbeat{/*interval=*/24, /*initial_timeout=*/240,
                             /*timeout_backoff=*/2.0, /*max_timeout=*/4096};
  // Lease window (wall clock): must sit well under the detector's effective
  // suspicion latency for the lease intersection argument to have slack.
  std::chrono::milliseconds lease_window{60};
  int max_batch_ops = 128;                     // seal size cap
  std::chrono::microseconds seal_interval{500};   // seal pacing (wall)
  int max_inflight_slots = 8;                  // uncommitted-slot admission cap
  std::size_t admission_cap = 4096;            // in-flight op budget (ops)
  std::chrono::microseconds resend_interval{20'000};  // re-propose pacing
  std::chrono::milliseconds orphan_after{2'000};
};

int run_svc_node(const SvcNodeOptions& opts);

}  // namespace udc
