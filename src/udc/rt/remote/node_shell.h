// The node shell shared by run_node (rt/remote/node.h) and run_svc_node
// (svc/node.h): everything a node process does that is not its protocol.
//
//   * Durable state: the ProcessStore WAL shard (the node's trace) with its
//     GroupCommitter and, at epoch > 0, the recovery pass over what the
//     previous incarnation persisted before the SIGKILL landed.
//   * Time and recording: a LamportClock resumed past the recovered prefix,
//     and one EventRecorder (tick, durable append, in-memory mirror).
//   * The wire: one Reactor that dials the supervisor, learns the peer port
//     directory from kPeers, and turns kStop into a closed mailbox; every
//     other frame goes to the node.  Bidirectional partition windows of the
//     chaos script become refuse windows: real stream teardown plus
//     handshake bounce for as long as the window is open.
//   * The main loop: one mail per iteration (300 µs wait, wall time read
//     after the pop; an idle iteration ticks the clock), the node's step,
//     a status report every 2 ms, and the orphan watchdog — a supervisor
//     stream down past orphan_after ends the node with exit code 3, so a
//     SIGKILLed supervisor cannot leave the fleet running forever.
//   * Demand-driven durability: a gated record (record_gated) requests a
//     commit round at once, and the store's on_durable hook wakes the
//     mailbox, so the step that opens the durable-send gate runs as soon
//     as the floor moves.  A wake is not idle time and ticks nothing
//     (IdlePacer).
//   * The orderly exit: make everything durable, report the final durable
//     state with done=true, give the frame 30 ms to drain, tear down.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "udc/chaos/fault_script.h"
#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/event/event.h"
#include "udc/fd/heartbeat.h"
#include "udc/net/reactor.h"
#include "udc/net/wire.h"
#include "udc/rt/mailbox.h"
#include "udc/rt/remote/lamport.h"
#include "udc/rt/remote/node.h"
#include "udc/store/group_commit.h"
#include "udc/store/process_store.h"

namespace udc {

struct NodeShellOptions {
  ProcessId id = kInvalidProcess;
  int n = 0;
  std::uint64_t epoch = 0;  // > 0 recovers the WAL shard
  std::uint64_t run_id = 0;
  std::uint16_t supervisor_port = 0;
  std::uint16_t data_port = 0;  // 0 = ephemeral
  std::string dir;              // WAL shard directory; must exist
  std::string script_file;      // chaos script ("" = none)
  StoreOptions store;
  std::chrono::milliseconds orphan_after{2'000};
  std::uint64_t reactor_seed = 0;
  bool accept_clients = false;
};

// Parses the chaos script file; "" is the empty script.
FaultScript load_script(const std::string& path);

// True iff a partition window open at `now` cuts BOTH directions of the
// (self, peer) pair.  Such a window is lowered to a refuse window;
// one-directional windows stay in the drop shim (a live TCP stream that
// eats one direction).
bool bidirectional_cut(const FaultScript& script, ProcessId self,
                       ProcessId peer, Time now);

// Records one event: Lamport tick, durable append, in-memory mirror (status
// reports walk the mirror up to the store's durable floor).  Worker thread
// only — the reactor thread never records, it only enqueues mail.
class EventRecorder {
 public:
  EventRecorder(LamportClock& clock, ProcessStore& store,
                std::vector<Event>& mirror)
      : clock_(clock), store_(store), mirror_(mirror) {}

  // Returns the tick the event was recorded at.  For records nothing waits
  // on (kDo, kRecv, ...): the store's commit_interval bounds how long they
  // stay undurable.
  Time record(const Event& e) {
    const Time t = clock_.tick();
    store_.append(t, e);
    mirror_.push_back(e);
    return t;
  }

  // A record the durable-send gate waits on (a kSend, or the kInit of a
  // batch about to be proposed): records it, requests a commit round now,
  // and returns its tick and its gate, the durable floor that covers it.
  struct Gated {
    Time tick = 0;
    std::size_t gate = 0;
  };
  Gated record_gated(const Event& e) {
    const Time t = record(e);
    store_.request_commit();
    return {t, mirror_.size()};
  }

  std::size_t mirror_len() const { return mirror_.size(); }

 private:
  LamportClock& clock_;
  ProcessStore& store_;
  std::vector<Event>& mirror_;
};

// Idle pacing of the node loop.  Logical time advances by one idle tick per
// `period` of wall time that passes with no mail; heartbeat pacing,
// detector timeouts and script windows are all counted in those ticks.  A
// mailbox wake (the durable floor moved) cuts a wait short but is not idle
// time: it neither ticks nor restarts the period, and the next wait takes
// only what is left of it.  A wake that ticked would shrink every detector
// timeout in wall time and raise false suspicions under load.
class IdlePacer {
 public:
  using WallClock = std::chrono::steady_clock;

  explicit IdlePacer(std::chrono::microseconds period) : period_(period) {}

  // How long the pop starting at `now` may wait: a full period, or the
  // rest of the one a wake cut short.
  std::chrono::microseconds wait_from(WallClock::time_point now) {
    if (!resuming_) deadline_ = now + period_;
    if (deadline_ <= now) return std::chrono::microseconds{0};
    return std::chrono::ceil<std::chrono::microseconds>(deadline_ - now);
  }

  // Classifies the pop that returned at `wall`: true iff the iteration is
  // idle (the period ran out with no mail) and so ticks the clock.
  bool idle(bool got_mail, WallClock::time_point wall) {
    resuming_ = !got_mail && wall < deadline_;  // a wake
    return !got_mail && !resuming_;
  }

 private:
  std::chrono::microseconds period_;
  WallClock::time_point deadline_{};
  bool resuming_ = false;
};

// What the epoch > 0 recovery pass found in the WAL shard.
struct RecoveredShard {
  std::size_t events = 0;     // the mirror's recovered prefix
  std::set<ActionId> inits;   // recovered kInit actions
  std::vector<ActionId> dos;  // recovered kDo actions, in WAL order
};

template <class Mail>
class NodeShell {
 public:
  // Frames from peers and clients, and supervisor frames other than kStop
  // and kPeers.  Reactor thread.
  using FrameFn = Reactor::FrameFn;
  // A peer's stream came up.  Reactor thread.
  using PeerUpFn = std::function<void(ProcessId peer)>;

  // Opens (and at epoch > 0 recovers) the WAL shard, hooks durable-floor
  // advances to a mailbox wake, attaches the group committer, and binds
  // the data port.  The reactor starts in start().
  NodeShell(const NodeShellOptions& o, FrameFn on_frame,
            PeerUpFn on_peer_up = {})
      : o_(o),
        script_(load_script(o.script_file)),
        store_(o.dir, o.id, o.store, {}),
        clock_(recover()),
        rec_(clock_, store_, mirror_),
        on_frame_(std::move(on_frame)),
        on_peer_up_(std::move(on_peer_up)),
        reactor_(
            reactor_options(o),
            [this](ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
              route(peer, epoch, f);
            },
            [this](ProcessId peer, std::uint64_t /*epoch*/, bool up,
                   std::uint16_t /*data_port*/) { on_link(peer, up); }),
        refusing_(static_cast<std::size_t>(o.n), false) {
    // Before attach: attach's mutex publishes the hook to the flusher.
    store_.set_on_durable([this] { mailbox_.wake(); });
    if (o.store.group_commit) {
      committer_.emplace(
          GroupCommitOptions{o.store.barrier, o.store.flusher_threads});
      committer_->attach(&store_);
    }
    reactor_.listen(o.data_port);  // hellos advertise the bound port
  }

  NodeShell(const NodeShell&) = delete;
  NodeShell& operator=(const NodeShell&) = delete;

  const FaultScript& script() const { return script_; }
  ProcessStore& store() { return store_; }
  LamportClock& clock() { return clock_; }
  EventRecorder& recorder() { return rec_; }
  const std::vector<Event>& mirror() const { return mirror_; }
  const RecoveredShard& recovered() const { return recovered_; }
  Reactor& reactor() { return reactor_; }
  Mailbox<Mail>& mailbox() { return mailbox_; }

  // Dials the supervisor and starts the reactor thread.
  void start() {
    reactor_.set_endpoint(kSupervisorPeer, o_.supervisor_port);
    reactor_.start();
  }

  // `rc` plus the detector's, the reactor's and the store's tallies.
  RuntimeCounters counters(RuntimeCounters rc,
                           const HeartbeatDetector& detector) const {
    rc.suspicions = detector.suspicions_raised();
    rc.false_suspicions = detector.false_suspicions();
    rc.trust_restores = detector.trust_restores();
    fold_wire_counters(reactor_.counters(), &rc);
    const StoreCounters sc = store_.counters();
    rc.wal_frames_replayed = sc.wal_frames_replayed;
    rc.snapshots_written = sc.snapshots_written;
    rc.snapshots_loaded = sc.snapshots_loaded;
    rc.torn_tails_truncated = sc.torn_tails_truncated;
    rc.recoveries_total = sc.recoveries_total;
    rc.wal_group_commits = sc.group_commits;
    return rc;
  }

  // The main loop, then the orderly exit.  Per iteration: `on_mail(mail,
  // wall)` for the popped mail (an idle iteration ticks the clock instead,
  // a wake does neither), `step(now, wall)`, refuse windows,
  // `send_status(false)` every 2 ms, the watchdog.  Returns 0 after kStop,
  // 3 if orphaned.
  template <class OnMail, class Step, class SendStatus>
  int run(OnMail on_mail, Step step, SendStatus send_status) {
    constexpr auto kStatusEvery = std::chrono::milliseconds(2);
    IdlePacer pacer(std::chrono::microseconds(300));
    auto next_status = std::chrono::steady_clock::now();
    auto sup_down_since = next_status;
    int exit_code = 0;
    while (!mailbox_.closed()) {
      std::optional<Mail> mail =
          mailbox_.pop_for(pacer.wait_from(std::chrono::steady_clock::now()));
      const auto wall = std::chrono::steady_clock::now();
      if (mail) on_mail(*mail, wall);
      if (pacer.idle(mail.has_value(), wall)) clock_.tick();
      const Time now = clock_.now();
      step(now, wall);
      for (ProcessId q = 0; q < o_.n; ++q) {
        if (q == o_.id) continue;
        const bool cut = bidirectional_cut(script_, o_.id, q, now);
        if (cut != refusing_[static_cast<std::size_t>(q)]) {
          refusing_[static_cast<std::size_t>(q)] = cut;
          reactor_.set_refuse(q, cut);
        }
      }
      const bool sup_up = sup_up_.load(std::memory_order_relaxed);
      if (wall >= next_status) {
        if (sup_up) send_status(false);
        next_status = wall + kStatusEvery;
      }
      // The watchdog starts once we have connected at least once (startup
      // dialing is not orphanhood).
      if (sup_up || !sup_ever_up_.load(std::memory_order_relaxed)) {
        sup_down_since = wall;
      } else if (wall - sup_down_since > o_.orphan_after) {
        exit_code = 3;
        break;
      }
    }
    if (committer_) committer_->stop();
    store_.flush();
    if (exit_code == 0 && sup_up_.load(std::memory_order_relaxed)) {
      send_status(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    reactor_.stop();
    return exit_code;
  }

 private:
  static ReactorOptions reactor_options(const NodeShellOptions& o) {
    ReactorOptions r;
    r.self = o.id;
    r.n = o.n;
    r.epoch = o.epoch;
    r.run_id = o.run_id;
    r.seed = o.reactor_seed;
    r.accept_clients = o.accept_clients;
    return r;
  }

  // Fills the mirror from the WAL shard; returns the last recovered tick
  // (logical time resumes past it).
  Time recover() {
    Time last = 0;
    if (o_.epoch == 0) return last;
    for (const StoreRecord& r : store_.recover()) {
      mirror_.push_back(r.e);
      if (r.t > last) last = r.t;
      if (r.e.kind == EventKind::kInit) recovered_.inits.insert(r.e.action);
      if (r.e.kind == EventKind::kDo) recovered_.dos.push_back(r.e.action);
    }
    recovered_.events = mirror_.size();
    return last;
  }

  void route(ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
    if (peer == kSupervisorPeer && f.type == FrameType::kStop) {
      mailbox_.close();  // idempotent: the supervisor re-sends kStop
    } else if (peer == kSupervisorPeer && f.type == FrameType::kPeers) {
      if (auto p = decode_peers(f.payload.data(), f.payload.size())) {
        // One dialer per pair: we dial only peers below our id (we accept
        // the rest), so duplicate streams cannot arise.
        for (const auto& [pid, port] : p->ports) {
          if (pid >= 0 && pid < o_.id && port != 0) {
            reactor_.set_endpoint(pid, port);
          }
        }
      }
    } else {
      on_frame_(peer, epoch, f);
    }
  }

  void on_link(ProcessId peer, bool up) {
    if (peer == kSupervisorPeer) {
      sup_up_.store(up, std::memory_order_relaxed);
      if (up) sup_ever_up_.store(true, std::memory_order_relaxed);
    } else if (up && on_peer_up_) {
      on_peer_up_(peer);
    }
  }

  const NodeShellOptions o_;
  const FaultScript script_;
  ProcessStore store_;
  std::vector<Event> mirror_;
  RecoveredShard recovered_;
  Mailbox<Mail> mailbox_;  // before committer_: its flusher wakes it
  std::optional<GroupCommitter> committer_;
  LamportClock clock_;
  EventRecorder rec_;
  std::atomic<bool> sup_up_{false};
  std::atomic<bool> sup_ever_up_{false};
  FrameFn on_frame_;
  PeerUpFn on_peer_up_;
  Reactor reactor_;  // after everything its thread calls into
  std::vector<bool> refusing_;  // refuse-window edge tracking, per peer
};

}  // namespace udc
