#include "udc/rt/remote/node.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <utility>

#include "udc/chaos/fault_script.h"
#include "udc/common/check.h"
#include "udc/common/rng.h"
#include "udc/coord/action.h"
#include "udc/event/event.h"
#include "udc/net/wire.h"
#include "udc/rt/mailbox.h"
#include "udc/rt/remote/node_shell.h"
#include "udc/sim/process.h"

namespace udc {

std::vector<std::uint64_t> pack_node_counters(const RuntimeCounters& c) {
  std::vector<std::uint64_t> v(kNodeCounterSlots, 0);
  v[kSlotSends] = c.sends;
  v[kSlotDelivered] = c.delivered;
  v[kSlotRetransmits] = c.retransmits;
  v[kSlotAcks] = c.acks;
  v[kSlotDedupSuppressed] = c.dedup_suppressed;
  v[kSlotAcksPiggybacked] = c.acks_piggybacked;
  v[kSlotHeartbeats] = c.heartbeats;
  v[kSlotSuspicions] = c.suspicions;
  v[kSlotFalseSuspicions] = c.false_suspicions;
  v[kSlotTrustRestores] = c.trust_restores;
  v[kSlotConnects] = c.connects;
  v[kSlotReconnects] = c.reconnects;
  v[kSlotHandshakeRejects] = c.handshake_rejects;
  v[kSlotFramesTx] = c.frames_tx;
  v[kSlotFramesRx] = c.frames_rx;
  v[kSlotCrcDrops] = c.crc_drops;
  v[kSlotWireResyncs] = c.wire_resyncs;
  v[kSlotWireDrops] = c.wire_drops;
  v[kSlotPartitionsEnforced] = c.partitions_enforced;
  v[kSlotWalReplayed] = c.wal_frames_replayed;
  v[kSlotSnapshotsWritten] = c.snapshots_written;
  v[kSlotSnapshotsLoaded] = c.snapshots_loaded;
  v[kSlotTornTails] = c.torn_tails_truncated;
  v[kSlotRecoveries] = c.recoveries_total;
  v[kSlotGroupCommits] = c.wal_group_commits;
  return v;
}

RuntimeCounters unpack_node_counters(const std::vector<std::uint64_t>& v) {
  RuntimeCounters c;
  auto at = [&v](std::size_t slot) -> std::size_t {
    return slot < v.size() ? static_cast<std::size_t>(v[slot]) : 0;
  };
  c.sends = at(kSlotSends);
  c.delivered = at(kSlotDelivered);
  c.retransmits = at(kSlotRetransmits);
  c.acks = at(kSlotAcks);
  c.dedup_suppressed = at(kSlotDedupSuppressed);
  c.acks_piggybacked = at(kSlotAcksPiggybacked);
  c.heartbeats = at(kSlotHeartbeats);
  c.suspicions = at(kSlotSuspicions);
  c.false_suspicions = at(kSlotFalseSuspicions);
  c.trust_restores = at(kSlotTrustRestores);
  c.connects = at(kSlotConnects);
  c.reconnects = at(kSlotReconnects);
  c.handshake_rejects = at(kSlotHandshakeRejects);
  c.frames_tx = at(kSlotFramesTx);
  c.frames_rx = at(kSlotFramesRx);
  c.crc_drops = at(kSlotCrcDrops);
  c.wire_resyncs = at(kSlotWireResyncs);
  c.wire_drops = at(kSlotWireDrops);
  c.partitions_enforced = at(kSlotPartitionsEnforced);
  c.wal_frames_replayed = at(kSlotWalReplayed);
  c.snapshots_written = at(kSlotSnapshotsWritten);
  c.snapshots_loaded = at(kSlotSnapshotsLoaded);
  c.torn_tails_truncated = at(kSlotTornTails);
  c.recoveries_total = at(kSlotRecoveries);
  c.wal_group_commits = at(kSlotGroupCommits);
  return c;
}

void fold_wire_counters(const WireCounters& w, RuntimeCounters* c) {
  c->connects += static_cast<std::size_t>(w.connects);
  c->reconnects += static_cast<std::size_t>(w.reconnects);
  c->handshake_rejects += static_cast<std::size_t>(w.handshake_rejects);
  c->frames_tx += static_cast<std::size_t>(w.frames_tx);
  c->frames_rx += static_cast<std::size_t>(w.frames_rx);
  c->crc_drops += static_cast<std::size_t>(w.crc_drops);
  c->wire_resyncs += static_cast<std::size_t>(w.resyncs);
  c->wire_drops += static_cast<std::size_t>(w.shim_drops);
  c->partitions_enforced += static_cast<std::size_t>(w.partitions_enforced);
}

namespace {

// The cross-process Env: record-then-transmit with the durable-send gate.
// Replay mode mirrors RtEnv's (rt/runtime.cc): sends are swallowed — peers'
// ARQ retransmissions regrow them — and performs re-record only what the
// recovered log does not already contain.
class NodeEnv final : public Env {
 public:
  NodeEnv(ProcessId self, int n, LamportClock& clock, EventRecorder& rec,
          RemoteTransport& transport)
      : self_(self), n_(n), clock_(clock), rec_(rec), transport_(transport) {}

  void begin_replay(std::set<ActionId> already_performed) {
    live_ = false;
    wal_performed_ = std::move(already_performed);
  }
  void end_replay() { live_ = true; }

  ProcessId self() const override { return self_; }
  int n() const override { return n_; }
  Time now() const override { return clock_.now(); }

  void send(ProcessId to, const Message& msg) override {
    if (!live_) return;
    // Gate: this frame may not reach a socket until the store's durable
    // floor covers the kSend just appended (whose commit is requested now).
    const EventRecorder::Gated g = rec_.record_gated(Event::send(to, msg));
    transport_.send(to, msg, g.tick, g.gate);
  }

  void perform(ActionId alpha) override {
    if (!live_ && wal_performed_.count(alpha) > 0) return;
    rec_.record(Event::do_action(alpha));
  }

  bool outbox_empty() const override { return true; }
  std::size_t outbox_size() const override { return 0; }

 private:
  ProcessId self_;
  int n_;
  LamportClock& clock_;
  EventRecorder& rec_;
  RemoteTransport& transport_;
  bool live_ = true;
  std::set<ActionId> wal_performed_;
};

}  // namespace

int run_node(const NodeOptions& opts) {
  UDC_CHECK(opts.n >= 1 && opts.n <= kMaxProcesses, "node: bad n");
  UDC_CHECK(opts.id >= 0 && opts.id < opts.n, "node: bad process id");
  UDC_CHECK(opts.t >= 0 && opts.t < opts.n, "node: bad t");
  UDC_CHECK(opts.supervisor_port != 0, "node: bad supervisor port");
  UDC_CHECK(!opts.wal_dir.empty() &&
                std::filesystem::is_directory(opts.wal_dir),
            "node: wal dir missing");
  UDC_CHECK(opts.resend_interval >= 1, "node: bad resend interval");

  // --- wire plane -----------------------------------------------------------
  RemoteTransport* transport_ptr = nullptr;
  NodeShell<RtMail> shell(
      {.id = opts.id,
       .n = opts.n,
       .epoch = opts.epoch,
       .run_id = opts.run_id,
       .supervisor_port = opts.supervisor_port,
       .data_port = opts.data_port,
       .dir = opts.wal_dir,
       .script_file = opts.script_file,
       .store = opts.store,
       .orphan_after = opts.orphan_after,
       .reactor_seed = opts.seed ^ 0x77697265ull},  // "wire"
      [&](ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
        if (peer == kSupervisorPeer) {
          if (f.type != FrameType::kInit) return;
          if (auto i = decode_init(f.payload.data(), f.payload.size())) {
            RtMail m;
            m.kind = RtMail::Kind::kInit;
            m.action = i->action;
            shell.mailbox().push(std::move(m));
          }
        } else if (f.type == FrameType::kData) {
          if (auto d = decode_data(f.payload.data(), f.payload.size())) {
            transport_ptr->on_wire_data(peer, epoch, *d);
          }
        } else if (f.type == FrameType::kAck) {
          if (auto a = decode_ack(f.payload.data(), f.payload.size())) {
            transport_ptr->on_wire_ack(peer, *a);
          }
        }
      },
      // Reconnect-as-rejoin: the dead stream took in-flight frames with it;
      // re-arm every pending send for immediate retransmission.
      [&](ProcessId peer) { transport_ptr->on_peer_up(peer); });
  Reactor& reactor = shell.reactor();
  LamportClock& clock = shell.clock();
  EventRecorder& rec = shell.recorder();
  const std::vector<Event>& mirror = shell.mirror();
  std::set<ActionId> my_inits = shell.recovered().inits;  // recorded kInits
  AtomicRuntimeCounters atomic_counters;

  // Chaos shim: scripted silences, partitions and bursts become real
  // socket-level drops, applied to outbound kData frames only (handshake,
  // keepalive and acks are infrastructure beneath the script's channels).
  ScriptDropPolicy drop_policy(shell.script(), opts.background_drop);
  Rng shim_rng(opts.seed ^ 0x7368696dull);  // "shim"
  reactor.set_shim([&](ProcessId peer, const WireFrame& f) {
    if (f.type != FrameType::kData || peer == kSupervisorPeer) return true;
    auto d = decode_data(f.payload.data(), f.payload.size());
    if (!d) return true;
    return !drop_policy.drop(opts.id, peer, d->msg, clock.now(), shim_rng);
  });

  ProcessStore& store = shell.store();
  RemoteTransport transport(
      opts.id, opts.n, opts.transport, reactor,
      [&store] { return store.durable_floor(); },
      [&clock] { return clock.now(); },
      [&clock](Time remote) { clock.observe(remote); },
      [&](ProcessId from, const Message& msg, Time send_tick) {
        RtMail m;
        m.kind = RtMail::Kind::kDeliver;
        m.from = from;
        m.msg = msg;
        m.send_tick = send_tick;
        shell.mailbox().push(std::move(m));
      },
      atomic_counters, opts.seed);
  transport_ptr = &transport;
  shell.start();

  // --- protocol plane -------------------------------------------------------
  const ProtocolFactory factory =
      live_protocol_factory(opts.protocol, opts.t, opts.resend_interval);
  std::unique_ptr<Process> proto = factory(opts.id);
  NodeEnv env(opts.id, opts.n, clock, rec, transport);

  if (opts.epoch == 0) {
    proto->on_start(env);
  } else {
    // Replay the recovered prefix through a fresh protocol instance, then
    // tell every peer we restarted from a possibly lossy disk (kRejoin,
    // reliable but unrecorded) so they withdraw stale ack-state.
    const std::vector<ActionId>& dos = shell.recovered().dos;
    env.begin_replay(std::set<ActionId>(dos.begin(), dos.end()));
    proto->on_start(env);
    // Replay only the recovered prefix, by index and by copy: a replayed
    // handler may call env.perform (re-recording a kDo lost from the WAL
    // suffix), which appends to `mirror` and would invalidate range-for
    // iterators mid-loop.
    for (std::size_t i = 0; i < shell.recovered().events; ++i) {
      const Event e = mirror[i];
      switch (e.kind) {
        case EventKind::kInit:
          proto->on_init(e.action, env);
          break;
        case EventKind::kRecv:
          proto->on_receive(e.peer, e.msg, env);
          break;
        case EventKind::kSuspect:
          proto->on_suspect(e.suspects, env);
          break;
        case EventKind::kSuspectGen:
          proto->on_suspect_gen(e.suspects, e.k, env);
          break;
        case EventKind::kSend:
        case EventKind::kDo:
        case EventKind::kCrash:
          break;
      }
    }
    env.end_replay();
    Message rejoin;
    rejoin.kind = MsgKind::kRejoin;
    for (ProcessId q = 0; q < opts.n; ++q) {
      if (q != opts.id) transport.send_control(q, rejoin);
    }
  }

  HeartbeatDetector detector(opts.n, opts.id, opts.heartbeat, clock.now());
  Message hb_msg;
  hb_msg.kind = MsgKind::kHeartbeat;
  Time next_hb = 0;

  // Status plumbing: everything reported derives from the DURABLE prefix.
  std::set<ActionId> durable_inits;
  std::set<ActionId> durable_performs;
  std::size_t scanned = 0;
  auto send_status = [&](bool done) {
    const std::size_t floor = store.durable_floor();
    const std::size_t limit = std::min(floor, mirror.size());
    for (; scanned < limit; ++scanned) {
      const Event& e = mirror[scanned];
      if (e.kind == EventKind::kInit) durable_inits.insert(e.action);
      if (e.kind == EventKind::kDo) durable_performs.insert(e.action);
    }
    WireStatus s;
    s.id = opts.id;
    s.epoch = opts.epoch;
    s.clock = clock.now();
    s.durable_events = limit;
    s.inits.assign(durable_inits.begin(), durable_inits.end());
    s.performs.assign(durable_performs.begin(), durable_performs.end());
    s.counters = pack_node_counters(
        shell.counters(atomic_counters.snapshot(), detector));
    s.done = done;
    reactor.send(kSupervisorPeer, FrameType::kStatus, encode_status(s));
  };

  auto on_mail = [&](const RtMail& mail,
                     std::chrono::steady_clock::time_point) {
    if (mail.kind == RtMail::Kind::kInit) {
      // The supervisor re-sends kInit until our status proves the init is
      // durable; dedupe against everything this node ever recorded (the
      // recovered prefix plus this incarnation).  An init the WAL LOST is
      // correctly absent here and re-records — the shard is the only
      // source for this node's events, so no duplicate can arise.
      if (my_inits.insert(mail.action).second) {
        rec.record(Event::init(mail.action));
        proto->on_init(mail.action, env);
      }
    } else if (mail.msg.kind == MsgKind::kHeartbeat) {
      detector.observe_heartbeat(mail.from, clock.now());
    } else if (mail.msg.kind == MsgKind::kRejoin) {
      proto->on_peer_recovered(mail.from, env);
    } else {
      const Time rt = rec.record(Event::recv(mail.from, mail.msg));
      // R3 over real sockets: the sender recorded its kSend at send_tick,
      // the envelope carried the sender's clock, observe() folded it in
      // before this mail was enqueued — so our recv tick must exceed it.
      UDC_CHECK(mail.send_tick == 0 || rt > mail.send_tick,
                "node: recv tick did not exceed send tick (R3)");
      proto->on_receive(mail.from, mail.msg, env);
    }
  };

  auto step = [&](Time now, std::chrono::steady_clock::time_point) {
    if (now >= next_hb) {
      for (ProcessId q = 0; q < opts.n; ++q) {
        if (q != opts.id) transport.send_heartbeat(q, hb_msg);
      }
      next_hb = now + opts.heartbeat.interval;
    }
    if (auto report = detector.poll(now)) {
      rec.record(Event::suspect(*report));
      proto->on_suspect(*report, env);
    }
    proto->on_tick(env);
    transport.pump();
  };

  return shell.run(on_mail, step, send_status);
}

}  // namespace udc
