#include "udc/rt/runtime.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "udc/chaos/registry.h"
#include "udc/common/check.h"
#include "udc/common/rng.h"
#include "udc/coord/action.h"
#include "udc/coord/udc_majority.h"
#include "udc/coord/udc_strongfd.h"
#include "udc/rt/mailbox.h"
#include "udc/rt/record.h"
#include "udc/store/group_commit.h"
#include "udc/store/process_store.h"

namespace udc {

FaultScript sanitize_for_live(const FaultScript& script, int n, int t,
                              Time window_cap) {
  UDC_CHECK(n >= 1 && n <= kMaxProcesses, "sanitize_for_live: bad n");
  UDC_CHECK(t >= 0 && t < n, "sanitize_for_live: bad t");
  UDC_CHECK(window_cap >= 1, "sanitize_for_live: bad window cap");
  const ProcSet all = ProcSet::full(n);
  FaultScript out;

  // A process crashes once; the failure bound t caps how many do.  Keep the
  // earliest injection per victim, then the t earliest victims overall.
  std::map<ProcessId, Time> first_crash;
  for (const CrashInjection& c : script.crashes) {
    if (c.victim < 0 || c.victim >= n) continue;
    Time at = std::max<Time>(c.at, 1);
    auto [it, fresh] = first_crash.emplace(c.victim, at);
    if (!fresh) it->second = std::min(it->second, at);
  }
  for (const auto& [victim, at] : first_crash) {
    out.crashes.push_back({victim, at});
  }
  std::sort(out.crashes.begin(), out.crashes.end(),
            [](const CrashInjection& a, const CrashInjection& b) {
              return a.at != b.at ? a.at < b.at : a.victim < b.victim;
            });
  if (static_cast<int>(out.crashes.size()) > t) {
    out.crashes.resize(static_cast<std::size_t>(t));
  }

  // Unbounded fault windows would starve a live run forever; clamp every
  // "never heals" to begin + window_cap logical ticks, after which R5-style
  // retransmission delivers whatever is still pending.
  for (PartitionWindow w : script.partitions) {
    w.senders &= all;
    w.recipients &= all;
    if (w.senders.empty() || w.recipients.empty()) continue;
    if (w.heal == kTimeMax || w.heal > w.from + window_cap) {
      w.heal = w.from + window_cap;
    }
    out.partitions.push_back(w);
  }
  for (SilenceWindow s : script.silences) {
    if (s.from < 0 || s.from >= n || s.to < 0 || s.to >= n) continue;
    if (s.end == kTimeMax || s.end > s.begin + window_cap) {
      s.end = s.begin + window_cap;
    }
    out.silences.push_back(s);
  }
  for (BurstSegment b : script.bursts) {
    if (b.end == kTimeMax || b.end > b.begin + window_cap) {
      b.end = b.begin + window_cap;
    }
    out.bursts.push_back(b);
  }
  // Lies are oracle directives; the live runtime has no oracle to corrupt —
  // its detector is a real program whose misbehavior comes from real loss.

  // Storage faults attack durable state at kill/recovery time, not the
  // wire, so their windows need no clamping: an unbounded window just means
  // "whenever the kill lands".  kInvalidProcess targets every process.
  for (const StorageFault& f : script.storage_faults) {
    if (f.victim != kInvalidProcess && (f.victim < 0 || f.victim >= n)) {
      continue;
    }
    out.storage_faults.push_back(f);
  }
  return out;
}

// Protocols under live test get the coarser RT retransmission pacing;
// anything else resolves through the ordinary chaos registry.
ProtocolFactory live_protocol_factory(const std::string& name, int t,
                                      Time resend_interval) {
  if (name == "strongfd") {
    return [resend_interval](ProcessId) {
      return std::make_unique<UdcStrongFdProcess>(resend_interval);
    };
  }
  if (name == "majority") {
    return [resend_interval](ProcessId) {
      return std::make_unique<UdcMajorityProcess>(resend_interval);
    };
  }
  return protocol_factory_by_name(name, t);
}

namespace {

// Init/do bookkeeping shared by workers and the supervisor's completion
// detector.  `initiated` holds actions whose kInit was actually recorded;
// `performed` holds (process, action) pairs.
struct Board {
  std::mutex mu;
  std::set<ActionId> initiated;
  std::set<std::pair<ProcessId, ActionId>> performed;

  void note_init(ActionId a) {
    std::lock_guard<std::mutex> lock(mu);
    initiated.insert(a);
  }
  void note_do(ProcessId p, ActionId a) {
    std::lock_guard<std::mutex> lock(mu);
    performed.insert({p, a});
  }
  bool has_init(ActionId a) {
    std::lock_guard<std::mutex> lock(mu);
    return initiated.count(a) > 0;
  }
};

// The live Env.  In live mode every intent is recorded first, then acted
// on — record-before-send is what gives the lifted run R3.  In replay mode
// (rebuilding a restarted worker's protocol state from the write-ahead log)
// sends are swallowed — the peers' retransmissions make them moot — and
// perform() records only actions the log does NOT already contain a kDo
// for: that closes the crash-between-recv-and-do window without double
// recording the ones the previous incarnation did perform.
class RtEnv final : public Env {
 public:
  RtEnv(ProcessId self, int n, TraceRecorder& rec, RtTransport& transport,
        Board& board)
      : self_(self), n_(n), rec_(rec), transport_(transport), board_(board) {}

  void begin_replay(std::set<ActionId> already_performed) {
    live_ = false;
    wal_performed_ = std::move(already_performed);
  }
  void end_replay() { live_ = true; }

  ProcessId self() const override { return self_; }
  int n() const override { return n_; }
  Time now() const override { return rec_.now(); }

  void send(ProcessId to, const Message& msg) override {
    if (!live_ || dead_) return;
    if (auto tick = rec_.record(self_, Event::send(to, msg))) {
      // The recorded tick rides the transport envelope so the receiver can
      // assert recv_tick > send_tick — R3, checked operationally.
      transport_.send(self_, to, msg, *tick);
    } else {
      dead_ = true;
    }
  }

  void perform(ActionId alpha) override {
    if (dead_) return;
    if (!live_ && wal_performed_.count(alpha) > 0) {
      board_.note_do(self_, alpha);
      return;
    }
    if (rec_.record(self_, Event::do_action(alpha))) {
      board_.note_do(self_, alpha);
    } else {
      dead_ = true;
    }
  }

  bool outbox_empty() const override { return true; }
  std::size_t outbox_size() const override { return 0; }
  bool dead() const { return dead_; }

 private:
  ProcessId self_;
  int n_;
  TraceRecorder& rec_;
  RtTransport& transport_;
  Board& board_;
  bool live_ = true;
  bool dead_ = false;  // recorder sealed us: permanent crash took effect
  std::set<ActionId> wal_performed_;
};

// Mirrors every recorded event into the owning process's durable store.
// Runs inside the recorder's per-process critical section, so the on-disk
// order per process is exactly the recorded order (different processes'
// appends run concurrently; ProcessStore is per-process, so that is fine).
class StoreSink final : public WalSink {
 public:
  explicit StoreSink(std::vector<std::unique_ptr<ProcessStore>>& stores)
      : stores_(stores) {}
  void append(ProcessId p, Time t, const Event& e) override {
    stores_[static_cast<std::size_t>(p)]->append(t, e);
  }
  // flush_on_seal: a kCrash record must not sit in a group-commit batch —
  // it is the last thing this process will ever write.
  void seal(ProcessId p) override {
    stores_[static_cast<std::size_t>(p)]->flush();
  }

 private:
  std::vector<std::unique_ptr<ProcessStore>>& stores_;
};

// Detector counters a worker leaves behind at exit; accumulated across the
// incarnations of one process.
struct WorkerResult {
  std::size_t suspicions = 0;
  std::size_t false_suspicions = 0;
  std::size_t trust_restores = 0;
};

struct WorkerArgs {
  ProcessId id = 0;
  int n = 0;
  std::shared_ptr<Mailbox<RtMail>> mailbox;
  TraceRecorder* rec = nullptr;
  RtTransport* transport = nullptr;
  Board* board = nullptr;
  const ProtocolFactory* factory = nullptr;
  HeartbeatOptions hb;
  std::vector<Event> wal;  // empty for the first incarnation
  // Durable restarts only: inits the disk forgot (recorded by the previous
  // incarnation, absent from the recovered log) to re-apply during replay,
  // and whether to broadcast the below-model kRejoin beacon after it.
  std::vector<ActionId> reinit;
  bool announce_recovery = false;
  WorkerResult* result = nullptr;
};

void worker_main(WorkerArgs args) {
  std::unique_ptr<Process> proto = (*args.factory)(args.id);
  RtEnv env(args.id, args.n, *args.rec, *args.transport, *args.board);

  if (args.wal.empty() && args.reinit.empty()) {
    proto->on_start(env);
  } else {
    // Restarted incarnation: rebuild protocol state by replaying the local
    // history this process already recorded (its write-ahead log).
    std::set<ActionId> done;
    for (const Event& e : args.wal) {
      if (e.kind == EventKind::kDo) done.insert(e.action);
    }
    env.begin_replay(std::move(done));
    proto->on_start(env);
    for (const Event& e : args.wal) {
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
        case EventKind::kDo:
          args.board->note_do(args.id, e.action);
          break;
        case EventKind::kSend:
        case EventKind::kCrash:
          break;  // sends are regenerated by retransmission; kCrash cannot
                  // appear in a restartable process's log
      }
    }
    // Inits the durable log lost (its loss is a suffix, and kInit may be in
    // it) are re-applied here, still in replay mode: the board proves they
    // were recorded, so recording them again would duplicate the run's one
    // init event.  Sends regrow via on_tick; a lost kDo re-records (the run
    // model admits repeated do_p).
    for (ActionId a : args.reinit) proto->on_init(a, env);
    env.end_replay();
  }

  if (args.announce_recovery) {
    // Below the model: tell every peer this process restarted from disk so
    // they withdraw acks it may have forgotten (Process::on_peer_recovered).
    // Sent on the reliable ARQ path but never recorded — like heartbeats,
    // it is infrastructure beneath the paper's runs.
    Message rejoin;
    rejoin.kind = MsgKind::kRejoin;
    for (ProcessId q = 0; q < args.n; ++q) {
      if (q != args.id) args.transport->send(args.id, q, rejoin);
    }
  }

  HeartbeatDetector detector(args.n, args.id, args.hb, args.rec->now());
  Message hb_msg;
  hb_msg.kind = MsgKind::kHeartbeat;
  Time next_hb = 0;  // announce liveness immediately

  while (true) {
    auto mail = args.mailbox->pop_for(std::chrono::microseconds(300));
    if (!mail && args.mailbox->closed()) break;
    if (mail) {
      if (mail->kind == RtMail::Kind::kStop) break;
      if (mail->kind == RtMail::Kind::kInit) {
        if (args.rec->record(args.id, Event::init(mail->action))) {
          args.board->note_init(mail->action);
          proto->on_init(mail->action, env);
        } else {
          break;  // sealed: the crash tick preceded this init
        }
      } else if (mail->msg.kind == MsgKind::kHeartbeat) {
        // Below the model: observed by the detector, never recorded.
        detector.observe_heartbeat(mail->from, args.rec->now());
      } else if (mail->msg.kind == MsgKind::kRejoin) {
        // Below the model, like the heartbeat it rode in next to: the
        // sender restarted from a possibly lossy disk; withdraw protocol
        // state that certifies knowledge it may have lost.
        proto->on_peer_recovered(mail->from, env);
      } else {
        if (auto rt = args.rec->record(args.id,
                                       Event::recv(mail->from, mail->msg))) {
          // R3, operationally: the sender recorded its kSend (taking
          // send_tick from the shared clock) strictly before the transport
          // saw the message, so our tick must exceed it.
          UDC_CHECK(mail->send_tick == 0 || *rt > mail->send_tick,
                    "rt: recv tick did not exceed send tick (R3)");
          proto->on_receive(mail->from, mail->msg, env);
        } else {
          break;
        }
      }
    }
    if (env.dead()) break;

    Time now = args.rec->now();
    if (now >= next_hb) {
      for (ProcessId q = 0; q < args.n; ++q) {
        if (q != args.id) args.transport->send_heartbeat(args.id, q, hb_msg);
      }
      next_hb = now + args.hb.interval;
    }
    if (auto report = detector.poll(now)) {
      if (args.rec->record(args.id, Event::suspect(*report))) {
        proto->on_suspect(*report, env);
      } else {
        break;
      }
    }
    proto->on_tick(env);
    if (env.dead()) break;
  }

  args.result->suspicions += detector.suspicions_raised();
  args.result->false_suspicions += detector.false_suspicions();
  args.result->trust_restores += detector.trust_restores();
}

}  // namespace

RtVerdict run_live(const RtOptions& opts) {
  UDC_CHECK(opts.n >= 1 && opts.n <= kMaxProcesses, "run_live: bad n");
  UDC_CHECK(opts.t >= 0 && opts.t < opts.n, "run_live: bad t");
  UDC_CHECK(opts.resend_interval >= 1, "run_live: bad resend interval");
  UDC_CHECK(opts.restart_after >= 1, "run_live: bad restart delay");
  UDC_CHECK(opts.max_events >= 1, "run_live: bad event cap");
  for (const InitDirective& d : opts.workload) {
    UDC_CHECK(d.p >= 0 && d.p < opts.n, "run_live: workload names bad owner");
    UDC_CHECK(action_owner(d.action) == d.p,
              "run_live: directive owner mismatch");
  }

  const FaultScript script = sanitize_for_live(opts.script, opts.n, opts.t);
  Budget budget = opts.budget;
  if (!budget.has_deadline()) {
    budget.with_deadline(opts.default_deadline);
  }

  // Durable mode: every recorded event is mirrored to a per-process disk
  // store, and restarts recover from disk under the script's storage
  // faults.  Declared before the recorder so the sink outlives it.
  const bool durable = opts.restartable_crashes && !opts.durable_dir.empty();
  std::vector<std::unique_ptr<ProcessStore>> stores;
  StoreSink sink(stores);
  if (durable) {
    std::filesystem::create_directories(opts.durable_dir);
    stores.reserve(static_cast<std::size_t>(opts.n));
    for (ProcessId p = 0; p < opts.n; ++p) {
      std::vector<StorageFault> faults;
      for (const StorageFault& f : script.storage_faults) {
        if (f.victim == p || f.victim == kInvalidProcess) faults.push_back(f);
      }
      stores.push_back(std::make_unique<ProcessStore>(
          opts.durable_dir, p, opts.store, std::move(faults)));
    }
  }
  Rng fault_rng(opts.seed ^ 0x73746f7265ULL);  // "store"

  // Group commit: one flusher amortizes the fsync barriers across all
  // stores, batching each round through the configured SyncBarrier engine.
  // Declared after the stores (it holds raw pointers into them) and
  // stopped explicitly before counters are read.
  std::optional<GroupCommitter> committer;
  if (durable && opts.store.group_commit) {
    committer.emplace(
        GroupCommitOptions{opts.store.barrier, opts.store.flusher_threads});
    for (auto& ps : stores) committer->attach(ps.get());
  }

  TraceRecorder rec(opts.n, durable ? &sink : nullptr);
  Board board;
  const ProtocolFactory factory =
      live_protocol_factory(opts.protocol, opts.t, opts.resend_interval);

  // Mailbox registry: the transport's dispatcher resolves recipients here;
  // the supervisor swaps entries on restart, so access is mutex-guarded.
  std::mutex slots_mu;
  std::vector<std::shared_ptr<Mailbox<RtMail>>> slots(
      static_cast<std::size_t>(opts.n));
  for (auto& s : slots) s = std::make_shared<Mailbox<RtMail>>();

  std::atomic<std::size_t> mailbox_refused{0};
  RtTransport transport(
      opts.n, opts.transport,
      std::make_shared<ScriptDropPolicy>(script, opts.background_drop),
      opts.seed, [&rec] { return rec.now(); },
      [&slots_mu, &slots, &mailbox_refused](ProcessId from, ProcessId to,
                                            const Message& msg,
                                            Time send_tick) {
        std::shared_ptr<Mailbox<RtMail>> mb;
        {
          std::lock_guard<std::mutex> lock(slots_mu);
          mb = slots[static_cast<std::size_t>(to)];
        }
        RtMail m;
        m.kind = RtMail::Kind::kDeliver;
        m.from = from;
        m.msg = msg;
        m.send_tick = send_tick;
        if (mb->push(std::move(m)) == MailboxPush::kAccepted) return true;
        // Refused: the process is down.  The transport treats this as
        // channel loss and keeps retrying; we only account for it.
        mailbox_refused.fetch_add(1, std::memory_order_relaxed);
        return false;
      });

  struct WorkerState {
    std::thread thread;
    WorkerResult result;
    bool down = false;  // restartable-crash window: awaiting restart
    Time restart_at = 0;
  };
  std::vector<WorkerState> workers(static_cast<std::size_t>(opts.n));

  auto spawn = [&](ProcessId p, std::vector<Event> wal,
                   std::vector<ActionId> reinit, bool announce) {
    WorkerArgs args;
    args.id = p;
    args.n = opts.n;
    {
      std::lock_guard<std::mutex> lock(slots_mu);
      args.mailbox = slots[static_cast<std::size_t>(p)];
    }
    args.rec = &rec;
    args.transport = &transport;
    args.board = &board;
    args.factory = &factory;
    args.hb = opts.heartbeat;
    args.wal = std::move(wal);
    args.reinit = std::move(reinit);
    args.announce_recovery = announce;
    args.result = &workers[static_cast<std::size_t>(p)].result;
    workers[static_cast<std::size_t>(p)].thread =
        std::thread(worker_main, std::move(args));
  };
  for (ProcessId p = 0; p < opts.n; ++p) spawn(p, {}, {}, false);

  struct DirectiveState {
    InitDirective d;
    bool pushed = false;
    bool skipped = false;  // owner permanently crashed before injection
  };
  std::vector<DirectiveState> dirs;
  dirs.reserve(opts.workload.size());
  for (const InitDirective& d : opts.workload) dirs.push_back({d});

  struct CrashState {
    CrashInjection c;
    bool applied = false;
  };
  std::vector<CrashState> crashes;
  crashes.reserve(script.crashes.size());
  for (const CrashInjection& c : script.crashes) crashes.push_back({c});

  BudgetStatus status = BudgetStatus::kComplete;
  std::size_t crash_count = 0;
  std::size_t restart_count = 0;

  // Supervisor pacing: poll fast while events flow, back off (up to 4x)
  // while the system is quiet — an idle live run should not keep a core hot
  // just to advance the clock.  Logical windows are measured in ticks, so
  // the backoff stays small enough not to stretch heartbeat timeouts or
  // restart delays past the run's wall-clock budget.
  constexpr auto kPollMin = std::chrono::microseconds(200);
  constexpr auto kPollMax = std::chrono::microseconds(800);
  auto poll = kPollMin;
  std::size_t last_count = rec.event_count();

  for (;;) {
    std::this_thread::sleep_for(poll);
    // The idle bump keeps logical time flowing during network silence —
    // heartbeat timeouts and script windows are measured in these ticks.
    const Time tick = rec.bump();
    const std::size_t count = rec.event_count();
    poll = count == last_count ? std::min(poll * 2, kPollMax) : kPollMin;
    last_count = count;

    if (budget.deadline_expired() || rec.event_count() > opts.max_events) {
      status = BudgetStatus::kBudgetExceeded;
      break;
    }

    for (CrashState& cs : crashes) {
      if (cs.applied || tick < cs.c.at) continue;
      cs.applied = true;
      const ProcessId victim = cs.c.victim;
      if (opts.restartable_crashes) {
        // No kCrash event: in the lifted run the process merely goes silent
        // and later resumes — its queued mail (and nothing else) is lost.
        ++crash_count;
        workers[static_cast<std::size_t>(victim)].down = true;
        workers[static_cast<std::size_t>(victim)].restart_at =
            tick + opts.restart_after;
        {
          std::lock_guard<std::mutex> lock(slots_mu);
          slots[static_cast<std::size_t>(victim)]->close();
        }
        // Directives pushed into the dying mailbox but never recorded were
        // lost with it; re-arm them for after the restart.  (The guard at
        // push time re-checks the board, so a racing record is harmless.)
        std::lock_guard<std::mutex> lock(board.mu);
        for (DirectiveState& ds : dirs) {
          if (ds.d.p == victim && ds.pushed &&
              board.initiated.count(ds.d.action) == 0) {
            ds.pushed = false;
          }
        }
      } else {
        if (rec.record_crash(victim)) ++crash_count;
        {
          std::lock_guard<std::mutex> lock(slots_mu);
          slots[static_cast<std::size_t>(victim)]->close();
        }
        transport.abandon_to(victim);
      }
    }

    for (ProcessId p = 0; p < opts.n; ++p) {
      WorkerState& w = workers[static_cast<std::size_t>(p)];
      if (!w.down || tick < w.restart_at) continue;
      if (w.thread.joinable()) w.thread.join();
      ++restart_count;
      {
        std::lock_guard<std::mutex> lock(slots_mu);
        slots[static_cast<std::size_t>(p)] =
            std::make_shared<Mailbox<RtMail>>();
      }
      w.down = false;
      if (durable) {
        // Recover FROM DISK: corrupt the dead worker's files per the fault
        // script (it is joined, so nobody else touches them), repair, load
        // snapshot + tail.  The disk may have lost a recorded suffix; diff
        // against the board to re-inject forgotten inits, and have the new
        // incarnation announce itself so peers re-teach the rest.
        ProcessStore& ps = *stores[static_cast<std::size_t>(p)];
        ps.apply_kill_faults(tick, fault_rng);
        std::vector<StoreRecord> recovered = ps.recover();
        std::vector<Event> wal;
        wal.reserve(recovered.size());
        std::set<ActionId> disk_inits;
        for (const StoreRecord& r : recovered) {
          wal.push_back(r.e);
          if (r.e.kind == EventKind::kInit) disk_inits.insert(r.e.action);
        }
        std::vector<ActionId> reinit;
        {
          std::lock_guard<std::mutex> lock(board.mu);
          for (ActionId a : board.initiated) {
            if (action_owner(a) == p && disk_inits.count(a) == 0) {
              reinit.push_back(a);
            }
          }
        }
        spawn(p, std::move(wal), std::move(reinit), /*announce=*/true);
      } else {
        spawn(p, rec.history_of(p), {}, false);
      }
    }

    for (DirectiveState& ds : dirs) {
      if (ds.pushed || ds.skipped || tick < ds.d.at) continue;
      if (rec.sealed(ds.d.p)) {
        ds.skipped = true;
        continue;
      }
      if (board.has_init(ds.d.action)) {
        ds.pushed = true;  // recorded by a pre-crash incarnation
        continue;
      }
      if (workers[static_cast<std::size_t>(ds.d.p)].down) continue;
      std::shared_ptr<Mailbox<RtMail>> mb;
      {
        std::lock_guard<std::mutex> lock(slots_mu);
        mb = slots[static_cast<std::size_t>(ds.d.p)];
      }
      RtMail m;
      m.kind = RtMail::Kind::kInit;
      m.action = ds.d.action;
      if (mb->push(std::move(m)) == MailboxPush::kAccepted) ds.pushed = true;
    }

    // Completion: nobody awaiting restart, every directive either recorded
    // or excused by a permanent crash, and every initiated action performed
    // by every unsealed process.  (That is DC1-DC3 achieved operationally;
    // the lifted run re-proves it.)
    bool any_down = false;
    for (const WorkerState& w : workers) any_down |= w.down;
    if (any_down) continue;
    std::set<ActionId> initiated;
    std::set<std::pair<ProcessId, ActionId>> performed;
    {
      std::lock_guard<std::mutex> lock(board.mu);
      initiated = board.initiated;
      performed = board.performed;
    }
    bool resolved = true;
    for (const DirectiveState& ds : dirs) {
      // A sealed owner resolves its directives even when the init was
      // pushed but never recorded: the mail died with the process, and a
      // never-initiated action is vacuously coordinated.
      resolved &= ds.skipped || rec.sealed(ds.d.p) ||
                  (ds.pushed && initiated.count(ds.d.action) > 0);
    }
    if (!resolved) continue;
    bool done = true;
    for (ActionId a : initiated) {
      for (ProcessId p = 0; p < opts.n && done; ++p) {
        if (!rec.sealed(p) && performed.count({p, a}) == 0) done = false;
      }
      if (!done) break;
    }
    if (done) break;
  }

  {
    std::lock_guard<std::mutex> lock(slots_mu);
    for (auto& s : slots) s->close();
  }
  for (WorkerState& w : workers) {
    if (w.thread.joinable()) w.thread.join();
  }
  transport.stop();
  if (committer) committer->stop();  // final flush; counters now stable

  RtVerdict v;
  v.status = status;
  v.counters = transport.counters();
  for (const WorkerState& w : workers) {
    v.counters.suspicions += w.result.suspicions;
    v.counters.false_suspicions += w.result.false_suspicions;
    v.counters.trust_restores += w.result.trust_restores;
  }
  v.counters.crashes = crash_count;
  v.counters.restarts = restart_count;
  v.counters.events_recorded = rec.event_count();
  for (const auto& ps : stores) {
    const StoreCounters sc = ps->counters();
    v.counters.wal_frames_replayed += sc.wal_frames_replayed;
    v.counters.snapshots_written += sc.snapshots_written;
    v.counters.snapshots_loaded += sc.snapshots_loaded;
    v.counters.torn_tails_truncated += sc.torn_tails_truncated;
    v.counters.recoveries_total += sc.recoveries_total;
    v.counters.storage_faults_injected += sc.storage_faults_injected;
    v.counters.sync_failures += sc.sync_failures;
    v.counters.wal_group_commits += sc.group_commits;
  }
  v.counters.mailbox_refused +=
      mailbox_refused.load(std::memory_order_relaxed);

  v.run = rec.lift();
  v.actions = workload_actions(opts.workload);
  v.coord = opts.restartable_crashes
                ? check_nudc(*v.run, v.actions, opts.grace)
                : check_udc(*v.run, v.actions, opts.grace);
  v.fd = check_fd_properties(*v.run, opts.grace);
  v.accuracy = check_eventual_accuracy(*v.run);
  v.conformant = status == BudgetStatus::kComplete && v.coord.achieved();
  return v;
}

}  // namespace udc
