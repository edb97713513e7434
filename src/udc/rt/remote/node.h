// run_node: one process of the paper's model as one OS process.
//
// The in-process runtime's worker thread becomes a real process: a Mailbox
// fed by an epoll reactor instead of a shared-memory transport, a protocol
// instance from the same registry, a HeartbeatDetector observing heartbeat
// frames off real sockets, and a ProcessStore WAL that IS the node's trace
// shard — every recorded event is durably appended, the supervisor later
// recovers each shard and merges them into one Run for the DC1-DC3/FD
// checkers.  Logical time is a Lamport clock (remote/lamport.h): ticked per
// event, bumped once per idle loop iteration (the same role the in-process
// supervisor's rec.bump() played), and folded in from every received
// envelope.
//
// Lifecycle: dial the supervisor (handshake carries id + epoch + run id),
// learn the peer directory from kPeers frames, dial peers with smaller ids,
// accept the rest.  Epoch 0 starts fresh; epoch > 0 means this is a
// relaunch after a real SIGKILL — recover the durable prefix from the WAL,
// replay it through a fresh protocol instance (exactly worker_main's replay
// branch), then broadcast the kRejoin beacon so peers withdraw ack-state the
// disk may have forgotten.  Status frames report ONLY durable state (inits,
// performs, clock, counters): anything less durable could un-happen at the
// next kill, and the supervisor's board must never know something no disk
// remembers.
//
// A node whose supervisor stream stays down past `orphan_after` exits with
// code 3: a SIGKILLed supervisor must not leave the fleet running forever.
// The process plumbing (store, recorder, mailbox, wire, main loop, exit) is
// the node shell (rt/remote/node_shell.h), shared with run_svc_node.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/fd/heartbeat.h"
#include "udc/net/reactor.h"
#include "udc/rt/remote/remote_transport.h"
#include "udc/rt/runtime.h"
#include "udc/store/process_store.h"

namespace udc {

// Store layout shared by nodes (writing) and the fleet merge (recovering):
// both sides MUST construct ProcessStore with the same options or recovery
// reads the wrong layout.  The commit interval is NOT on the protocol's
// critical path: every record the durable-send gate waits on requests its
// own commit round (EventRecorder::record_gated).  It only bounds how long
// ungated records (kDo, kRecv, kSuspect) stay undurable, which is how
// soon the supervisor's board, fed from the durable prefix, sees them.
inline StoreOptions mp_store_options() {
  StoreOptions s = rt_default_store_options();
  s.commit_every = 64;
  s.commit_interval = std::chrono::microseconds{1'000};
  s.snapshot_every = 512;
  return s;
}

// Fixed slot order for WireStatus::counters — the node packs, the
// supervisor unpacks; both sides compile against this enum so the wire
// stays in sync by construction.
enum NodeCounterSlot : std::size_t {
  kSlotSends = 0,
  kSlotDelivered,
  kSlotRetransmits,
  kSlotAcks,
  kSlotDedupSuppressed,
  kSlotAcksPiggybacked,
  kSlotHeartbeats,
  kSlotSuspicions,
  kSlotFalseSuspicions,
  kSlotTrustRestores,
  kSlotConnects,
  kSlotReconnects,
  kSlotHandshakeRejects,
  kSlotFramesTx,
  kSlotFramesRx,
  kSlotCrcDrops,
  kSlotWireResyncs,
  kSlotWireDrops,
  kSlotPartitionsEnforced,
  kSlotWalReplayed,
  kSlotSnapshotsWritten,
  kSlotSnapshotsLoaded,
  kSlotTornTails,
  kSlotRecoveries,
  kSlotGroupCommits,
  kNodeCounterSlots,
};

std::vector<std::uint64_t> pack_node_counters(const RuntimeCounters& c);
RuntimeCounters unpack_node_counters(const std::vector<std::uint64_t>& v);

// Folds the reactor's wire-plane tallies into the shared counter struct.
void fold_wire_counters(const WireCounters& w, RuntimeCounters* c);

struct NodeOptions {
  ProcessId id = kInvalidProcess;
  int n = 0;
  int t = 0;
  std::string protocol = "strongfd";
  Time resend_interval = 64;
  HeartbeatOptions heartbeat{/*interval=*/24, /*initial_timeout=*/240,
                             /*timeout_backoff=*/2.0, /*max_timeout=*/4096};
  std::uint64_t epoch = 0;   // incarnation; > 0 recovers from the WAL
  std::uint64_t run_id = 0;  // handshake guard: one fleet, one run id
  std::uint16_t supervisor_port = 0;
  std::uint16_t data_port = 0;  // 0 = ephemeral (the normal case)
  std::string wal_dir;          // must already exist
  std::string script_file;      // chaos script lowered at this node ("" = none)
  double background_drop = 0.0;
  std::uint64_t seed = 1;
  StoreOptions store = mp_store_options();
  RemoteTransportOptions transport{};
  std::chrono::milliseconds orphan_after{2'000};
};

// Runs the node until the supervisor says kStop (returns 0) or the
// supervisor stream stays down past orphan_after (returns 3).  Throws
// InvariantViolation for malformed options or an unbindable data port.
int run_node(const NodeOptions& opts);

}  // namespace udc
