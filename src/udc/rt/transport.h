// RtTransport: the paper's fair-lossy channels, realized operationally —
// and sharded so that traffic on independent channels never serializes.
//
// The simulator's Network realizes R1-R5 by construction inside one thread;
// here the same channel model runs for real.  PR 3 drove everything through
// ONE dispatcher thread behind ONE mutex; every channel in the system
// serialized on it.  This version shards the transport by UNORDERED process
// pair: the ordered channels p->q and q->p always land in the same shard, so
// a data message and the link ack it provokes — which travel opposite
// directions of the same pair — are handled entirely within one shard, with
// no cross-shard locking anywhere on the data path.  Each shard owns its
// dispatcher thread, op queue, pending-send map, dedup state, per-channel
// PRNG streams (same seeding formula as before, so one channel's traffic
// never perturbs another's draws), and a CLONE of the drop policy (a
// stateful policy such as Gilbert-Elliott keeps independent chains per
// shard, exactly as ChannelConfig::make_policy isolates simulator runs).
//
// Per-shard op kinds:
//
//   attempt   — evaluate the DropPolicy (same interface the simulator and
//               the chaos scripts use, with `now` read from the run's
//               logical clock so script windows line up with the recorded
//               trace).  A passed attempt schedules a delivery after a
//               random link delay; pass or drop, the send's next retry time
//               is computed from the jittered exponential backoff.
//   deliver   — hand the message (with its send tick) to the recipient.
//               First copy only: the receiver side dedups link-layer
//               retransmissions with a bounded watermark + out-of-order
//               window (overflow folds into the watermark — swallowed seqs
//               are channel loss, re-learned by protocol retransmission
//               under a fresh wire seq).  A delivered frame also carries,
//               for free, every ack owed in its direction (piggybacking);
//               remaining acks are batched into one flush op per channel.
//   retryscan — ONE op per shard that walks the shard's pending sends and
//               re-attempts every one whose backoff deadline has passed,
//               then re-arms itself at the earliest remaining deadline.
//               PR 3 queued one retry op per pending send; under load that
//               made the op heap the hot structure.  The scan replaces
//               O(pending) heap churn with one amortized pass.
//   ackflush  — deliver the batch of acks owed on one ordered channel: one
//               drop-policy draw and one delay draw for the whole batch
//               (the batch models one ack frame).  Each acked seq retires
//               its pending send; a dropped flush is channel loss and
//               retransmission re-learns it.
//
// Counters are relaxed atomics (AtomicRuntimeCounters): shards tally
// lock-free, and counters() never takes a shard lock.  Quiescence is a
// global atomic pending-count with a dedicated cv — waiting for the network
// to drain does not contend with deliveries.
//
// Fairness R5 falls out unchanged: as long as the drop policy eventually
// lets the channel pass, bounded-backoff retries deliver every pending
// message.  Heartbeats are fire-and-forget — one attempt, no ack, no retry —
// they sit below the model and are never recorded, so their loss is
// indistinguishable from a silent process, which is precisely what a
// heartbeat failure detector is supposed to suspect on.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <thread>
#include <vector>

#include "udc/common/rng.h"
#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/event/message.h"
#include "udc/net/backoff.h"
#include "udc/net/network.h"

namespace udc {

struct RtTransportOptions {
  // Link delay for a passed attempt, uniform in [min_delay, max_delay].
  std::chrono::microseconds min_delay{40};
  std::chrono::microseconds max_delay{400};
  // Retransmission schedule for unacked sends (values in microseconds).
  BackoffOptions backoff{/*base=*/300, /*growth=*/2.0, /*cap=*/8'000,
                         /*jitter=*/0.25};
  // Give up on a pending send after this many attempts; 0 = never.  The
  // supervisor's budget bounds total runtime either way.
  int max_attempts = 0;
  // Max out-of-order wire seqs remembered per ordered channel for
  // receiver-side dedup (>= 1).  Overflow folds into the watermark; see the
  // file comment for why that is loss, not corruption.
  std::size_t dedup_window = 64;
  // Dispatcher shards; 0 = auto (min(n, 8)).  Unordered process pairs are
  // mapped onto shards, so n = 1 shard reproduces the PR 3 single-dispatcher
  // schedule class.
  int shards = 0;
};

class RtTransport {
 public:
  // `deliver` is invoked from a shard's dispatcher thread, without transport
  // locks held; it returns false if the recipient refused the message
  // (process down), in which case the send stays pending and keeps retrying.
  // `send_tick` is the logical tick at which the sender RECORDED the kSend —
  // receivers assert their recv tick exceeds it (R3 made operational).
  // `clock` supplies the logical time handed to the drop policy.
  using DeliverFn = std::function<bool(ProcessId from, ProcessId to,
                                       const Message& msg, Time send_tick)>;

  RtTransport(int n, RtTransportOptions opts,
              std::shared_ptr<DropPolicy> policy, std::uint64_t seed,
              std::function<Time()> clock, DeliverFn deliver);
  ~RtTransport();

  RtTransport(const RtTransport&) = delete;
  RtTransport& operator=(const RtTransport&) = delete;

  // Reliable-with-retry send (protocol traffic).  The caller must already
  // have recorded the kSend event at `send_tick` — ordering of
  // record-then-send is what gives the lifted run R3.
  void send(ProcessId from, ProcessId to, const Message& msg,
            Time send_tick = 0);

  // Fire-and-forget, below the model: one attempt, no ack, no retry.
  void send_heartbeat(ProcessId from, ProcessId to, const Message& msg);

  // Drops every pending send addressed to `p`, and every later one on
  // arrival (permanent crash: the channel into a dead process delivers
  // nothing, and R5 does not apply to it).  Without the second half, peers
  // that keep addressing the dead process pile up sends that retry forever.
  void abandon_to(ProcessId p);

  // Waits until no protocol sends are pending, or `deadline` passes.
  // Returns true on quiescence.
  bool quiesce(std::chrono::steady_clock::time_point deadline);

  // Stops every shard dispatcher; pending sends are abandoned.
  void stop();

  RuntimeCounters counters() const;

  // High-water mark of out-of-order dedup entries across all channels —
  // the regression test's witness that dedup memory stays bounded.
  std::size_t dedup_peak() const;

 private:
  struct PendingSend {
    ProcessId from;
    ProcessId to;
    Message msg;
    Time send_tick = 0;
    std::uint64_t wire_seq = 0;  // per-ordered-channel, monotone from 1
    int attempt = 0;             // attempts made so far
    std::chrono::steady_clock::time_point next_at;  // backoff deadline
  };

  // Receiver-side dedup state for one ordered channel: everything at or
  // below `watermark` has been seen; `seen` holds the out-of-order seqs
  // above it, at most dedup_window of them.
  struct ChannelDedup {
    std::uint64_t watermark = 0;
    std::set<std::uint64_t> seen;
  };

  enum class OpKind { kDeliver, kRetryScan, kAckFlush };
  struct Op {
    std::chrono::steady_clock::time_point at;
    std::uint64_t id;  // tie-break: FIFO among equal deadlines
    OpKind kind;
    std::uint64_t seq = 0;   // pending-send key (0 for heartbeats)
    std::size_t chan = 0;    // ordered-channel index (kAckFlush)
    ProcessId hb_from = kInvalidProcess;  // heartbeat delivery
    ProcessId hb_to = kInvalidProcess;
    Message hb_msg;
    bool operator>(const Op& o) const {
      return at != o.at ? at > o.at : id > o.id;
    }
  };

  // One shard owns a disjoint set of unordered process pairs: both ordered
  // channels of a pair, their rngs, wire counters, dedup and owed-ack state,
  // every pending send between the pair, and a dispatcher thread.
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;  // dispatcher wake-up
    bool stopping = false;
    std::shared_ptr<DropPolicy> policy;  // per-shard clone
    std::uint64_t next_op_id = 1;
    std::map<std::uint64_t, PendingSend> pending;
    std::priority_queue<Op, std::vector<Op>, std::greater<Op>> ops;
    bool scan_scheduled = false;
    std::chrono::steady_clock::time_point scan_at;
    // Id of the one live scan op.  Re-arming earlier supersedes the queued
    // scan; the superseded op still fires and must be a no-op, or every
    // re-arm would start another self-perpetuating scan chain.
    std::uint64_t scan_op_id = 0;
    std::size_t dedup_peak = 0;
    std::thread dispatcher;
  };

  std::size_t channel_index(ProcessId from, ProcessId to) const;
  Shard& shard_of(ProcessId a, ProcessId b);
  std::chrono::microseconds draw_delay(Rng& rng);
  std::uint64_t push_op(Shard& sh, Op op);              // sh.mu held
  void ensure_scan(Shard& sh,
                   std::chrono::steady_clock::time_point at);  // sh.mu held
  void retire_locked(Shard& sh, std::uint64_t seq);     // sh.mu held
  void note_retired(std::size_t k);
  // One transmission attempt for pending send `seq`; schedules the delivery
  // on pass and always re-arms the backoff deadline (unless abandoned).
  void attempt_locked(Shard& sh, std::uint64_t seq,
                      std::chrono::steady_clock::time_point now);
  void dispatch_loop(Shard& sh);
  void handle_deliver(Shard& sh, std::unique_lock<std::mutex>& lock, Op op);
  void handle_retry_scan(Shard& sh);                    // sh.mu held
  void handle_ack_flush(Shard& sh, std::size_t chan);   // sh.mu held
  void owe_ack(Shard& sh, ProcessId acker, ProcessId to,
               std::uint64_t seq);                      // sh.mu held

  const int n_;
  const RtTransportOptions opts_;
  std::function<Time()> clock_;
  DeliverFn deliver_;

  // Indexed by ordered channel (from * n + to); each entry is touched only
  // under the owning shard's mutex, so none of these need their own locks.
  std::vector<Rng> channel_rngs_;
  std::vector<std::uint64_t> channel_next_wire_;
  std::vector<ChannelDedup> dedup_;
  std::vector<std::vector<std::uint64_t>> owed_acks_;
  std::vector<char> ack_flush_scheduled_;

  std::vector<std::unique_ptr<Shard>> shards_;
  // Per destination: set by abandon_to, read by send under the shard lock.
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::size_t> pending_total_{0};
  std::atomic<bool> stopped_{false};

  mutable std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;

  mutable AtomicRuntimeCounters counters_;
};

}  // namespace udc
