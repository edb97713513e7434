// The fleet supervisor shared by run_fleet (rt/remote/fleet.h) and
// run_svc_fleet (svc/fleet.h).
//
// Both fleets supervise OS processes the same way and lift the same kind of
// run from their disks; only the policy differs.  This header holds the
// plumbing, once:
//   * fork/exec of the node binary with a per-node log file, SIGKILL + reap,
//     relaunch at epoch+1, and reaping of nodes that exit on their own
//     (they become permanently dead: no relaunch comes for them);
//   * the supervisor's Reactor: a board of node views fed by status frames,
//     the latest counters per (node, epoch) — dead incarnations keep their
//     tallies — and the kPeers port directory, rebroadcast to every up node
//     whenever a stream comes up, so dialers chase restarted peers onto
//     their fresh ports;
//   * the 1 ms drive loop around the fleet's own step function;
//   * the kStop shutdown: re-sent every 100 ms until each node exits (a node
//     whose control stream was momentarily down would miss a one-shot
//     broadcast), 5 s grace, then SIGKILL of stragglers, and the
//     clean-exit accounting (exit 0, or a SIGKILL the supervisor sent);
//   * the WAL-shard merge: every shard recovered with the nodes' own
//     ProcessStore recovery, sorted by (Lamport tick, pid, per-shard index),
//     and renumbered one event per Run::Builder step.
// The policy stays with each fleet: the node argv, the status frame type
// and its decoder, what to do each iteration, the completion test, and the
// verdict.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "udc/common/budget.h"
#include "udc/common/types.h"
#include "udc/coord/metrics.h"
#include "udc/event/event.h"
#include "udc/event/run.h"
#include "udc/net/reactor.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/node.h"
#include "udc/store/process_store.h"

namespace udc {

// One node process as the supervisor tracks it.
struct Child {
  pid_t pid = -1;
  std::uint64_t epoch = 0;
  bool running = false;
  bool killed_by_us = false;      // SIGKILL we sent (chaos, not failure)
  bool permanently_dead = false;  // killed for good, or exited on its own
  bool awaiting_relaunch = false;
  int exit_status = 0;  // raw waitpid status once reaped (!running)
};

// "--key=value", the node binaries' flag syntax.
template <class V>
std::string node_flag(const std::string& key, const V& value) {
  std::ostringstream os;
  os << key << '=' << value;
  return os.str();
}

// Forks and execs argv[0]; the child's stdout and stderr append to
// `log_path` (kept across relaunches).  An exec failure exits 127, which
// the supervisor scores as a dirty exit.
pid_t spawn_node(const std::vector<std::string>& argv,
                 const std::string& log_path);

// SIGKILLs a running child and reaps it.
void hard_kill(Child& c);

// Reaps `c` without blocking if it has exited.  Returns true if it had.
bool reap_if_exited(Child& c);

// The kStop shutdown: `send_stop(p)` for every running node every 100 ms
// until all have exited or 5 s pass, then SIGKILL of the stragglers.
// Returns true iff every node exited 0 or by a SIGKILL the supervisor sent.
bool stop_children(std::vector<Child>& children,
                   const std::function<void(ProcessId)>& send_stop);

// One WAL record of one shard, keyed for the merge.
struct ShardRecord {
  Time tick = 0;
  ProcessId p = kInvalidProcess;
  std::size_t idx = 0;  // per-shard order, the sort tiebreaker
  Event e;
};

// Recovers p's shard from `run_dir` with the nodes' own store layout.
std::vector<ShardRecord> read_shard(const std::string& run_dir, ProcessId p,
                                    const StoreOptions& store);

// R4 for a node killed for good: SIGKILL writes nothing, so the kill was the
// process's last event only if the lift says so.  Appends kCrash one tick
// past everything p's shard remembers.
void append_crash(ProcessId p, std::vector<ShardRecord>* shard);

// Sorts by (tick, pid, idx) and builds one Run with one event per step: R2
// by construction, and the Lamport sort puts each kRecv on a strictly later
// step than its kSend (recv tick > send tick), so build()'s R3 validation
// passes iff the durable-send gate held.
Run merge_shards(int n, std::vector<ShardRecord> records);

// The control plane plus the process table, for nodes reporting `Status`.
template <class Status>
class Supervisor {
 public:
  // Everything the reactor thread learns about one node.
  struct View {
    bool up = false;
    std::uint64_t epoch = 0;      // epoch of the established stream
    std::uint16_t data_port = 0;  // from the node's hello
    bool have_status = false;
    Status status;  // latest report
  };
  using Board = std::vector<View>;

  // How this fleet's nodes report: the status frame type, its decoder, and
  // the counters one report carries.
  struct StatusCodec {
    FrameType type;
    std::optional<Status> (*decode)(const std::uint8_t*, std::size_t);
    RuntimeCounters (*counters)(const Status&);
  };

  using ArgvFn = std::function<std::vector<std::string>(
      ProcessId p, std::uint64_t epoch, std::uint16_t supervisor_port)>;

  // Starts the control reactor and launches every node at epoch 0.
  Supervisor(int n, std::string run_dir, std::uint64_t run_id,
             std::uint64_t seed, StatusCodec codec, ArgvFn argv)
      : n_(n),
        run_dir_(std::move(run_dir)),
        codec_(codec),
        argv_(std::move(argv)),
        views_(static_cast<std::size_t>(n)),
        children_(static_cast<std::size_t>(n)),
        reactor_(
            reactor_options(n, run_id, seed),
            [this](ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
              on_frame(peer, epoch, f);
            },
            [this](ProcessId peer, std::uint64_t epoch, bool up,
                   std::uint16_t data_port) {
              on_link(peer, epoch, up, data_port);
            }) {
    port_ = reactor_.listen(0);
    reactor_.start();
    for (ProcessId p = 0; p < n_; ++p) launch(p, 0);
  }

  // An unwinding supervisor leaves no node behind.
  ~Supervisor() {
    for (Child& c : children_) hard_kill(c);
  }

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  Reactor& reactor() { return reactor_; }
  const std::vector<Child>& children() const { return children_; }
  const Child& child(ProcessId p) const {
    return children_[static_cast<std::size_t>(p)];
  }

  // Chaos SIGKILL of p; `relaunch` marks it awaiting relaunch (the policy
  // calls relaunch() when due), otherwise it stays dead.
  void kill(ProcessId p, bool relaunch) {
    Child& c = children_[static_cast<std::size_t>(p)];
    if (!c.running) return;
    hard_kill(c);
    c.killed_by_us = true;
    ++crashes_;
    if (relaunch) {
      c.awaiting_relaunch = true;
    } else {
      c.permanently_dead = true;
    }
    std::lock_guard<std::mutex> lk(mu_);
    views_[static_cast<std::size_t>(p)].up = false;
  }

  // Re-execs p at epoch+1 against the same run directory: recovery is the
  // node's job.
  void relaunch(ProcessId p) {
    ++restarts_;
    launch(p, children_[static_cast<std::size_t>(p)].epoch + 1);
  }

  // Runs the drive loop until `step(wall, board)` reports completion
  // (kComplete) or `deadline` passes (kBudgetExceeded).  Each 1 ms
  // iteration snapshots the board, rebroadcasts the port directory if a
  // stream came up (handing it to `on_directory` too), and reaps nodes that
  // exited on their own before calling `step`.
  template <class Step>
  BudgetStatus drive(
      std::chrono::steady_clock::time_point deadline, Step step,
      const std::function<void(const WirePeers&)>& on_directory = {}) {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const auto wall = std::chrono::steady_clock::now();
      if (wall >= deadline) return BudgetStatus::kBudgetExceeded;
      Board board;
      bool dirty = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        board = views_;
        dirty = directory_dirty_;
        directory_dirty_ = false;
      }
      if (dirty) {
        WirePeers peers;
        for (ProcessId p = 0; p < n_; ++p) {
          const View& v = board[static_cast<std::size_t>(p)];
          if (v.data_port != 0) peers.ports.push_back({p, v.data_port});
        }
        const auto payload = encode_peers(peers);
        for (ProcessId p = 0; p < n_; ++p) {
          if (board[static_cast<std::size_t>(p)].up) {
            reactor_.send(p, FrameType::kPeers, payload);
          }
        }
        if (on_directory) on_directory(peers);
      }
      for (Child& c : children_) {
        if (c.running && reap_if_exited(c)) c.permanently_dead = true;
      }
      if (step(wall, board)) return BudgetStatus::kComplete;
    }
  }

  // The kStop shutdown (stop_children), then the reactor.  Returns the
  // clean-exit verdict.
  bool shutdown() {
    const bool clean = stop_children(children_, [this](ProcessId p) {
      reactor_.send(p, FrameType::kStop, {});
    });
    reactor_.stop();
    return clean;
  }

  // Every incarnation's latest counters, the supervisor's own wire tallies,
  // and the crash/restart counts.
  RuntimeCounters counters() {
    RuntimeCounters rc;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (const auto& [key, c] : counters_by_) rc.merge(c);
    }
    fold_wire_counters(reactor_.counters(), &rc);
    rc.crashes = crashes_;
    rc.restarts = restarts_;
    return rc;
  }

 private:
  static ReactorOptions reactor_options(int n, std::uint64_t run_id,
                                        std::uint64_t seed) {
    ReactorOptions o;
    o.self = kSupervisorPeer;
    o.n = n;
    o.run_id = run_id;
    o.seed = seed ^ 0x73757065ull;  // "supe"
    return o;
  }

  void launch(ProcessId p, std::uint64_t epoch) {
    Child& c = children_[static_cast<std::size_t>(p)];
    // Fresh incarnation, fresh exit accounting: a stale killed_by_us from a
    // chaos SIGKILL of the previous incarnation must not excuse THIS one
    // from the clean-exit check if it dies on its own.
    c = Child{};
    c.epoch = epoch;
    c.pid = spawn_node(argv_(p, epoch, port_),
                       run_dir_ + "/node-" + std::to_string(p) + ".log");
    c.running = true;
  }

  void on_frame(ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
    if (f.type != codec_.type || peer < 0 || peer >= n_) return;
    std::optional<Status> s = codec_.decode(f.payload.data(), f.payload.size());
    if (!s || s->id != peer) return;
    const RuntimeCounters rc = codec_.counters(*s);
    std::lock_guard<std::mutex> lk(mu_);
    View& v = views_[static_cast<std::size_t>(peer)];
    v.have_status = true;
    v.status = std::move(*s);
    counters_by_[{peer, epoch}] = rc;
  }

  void on_link(ProcessId peer, std::uint64_t epoch, bool up,
               std::uint16_t data_port) {
    if (peer < 0 || peer >= n_) return;
    std::lock_guard<std::mutex> lk(mu_);
    View& v = views_[static_cast<std::size_t>(peer)];
    v.up = up;
    if (up) {
      v.epoch = epoch;
      v.data_port = data_port;
      directory_dirty_ = true;
    }
  }

  const int n_;
  const std::string run_dir_;
  const StatusCodec codec_;
  const ArgvFn argv_;

  std::mutex mu_;  // guards views_, counters_by_, directory_dirty_
  Board views_;
  std::map<std::pair<ProcessId, std::uint64_t>, RuntimeCounters> counters_by_;
  bool directory_dirty_ = false;

  std::vector<Child> children_;  // supervisor thread only
  std::size_t crashes_ = 0;
  std::size_t restarts_ = 0;
  std::uint16_t port_ = 0;
  Reactor reactor_;  // last: its thread calls into everything above
};

}  // namespace udc
