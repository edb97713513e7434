// The benchmark's supervisor for one 3-replica udc_svc_node fleet: fork,
// port directory and status over the public Reactor, SIGKILL/relaunch,
// kStop, and the correctness gate over the survivors' disks.
//
// Single-threaded by contract: every method is called from the benchmark's
// main thread; only the status/peer callbacks run on the reactor thread,
// and they touch nothing but the mutex-guarded views.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "udc/coord/metrics.h"
#include "udc/net/reactor.h"
#include "udc/svc/checker.h"
#include "udc/svc/client.h"
#include "udc/svc/node.h"
#include "udc/svc/wire.h"

namespace perfbench {

struct FleetConfig {
  int n = 3;
  std::string node_binary;
  std::string run_dir;  // fresh per fleet: WAL shards, service logs, logs
  std::uint64_t seed = 1;
  udc::SvcNodeOptions node;  // knob template (defaults = the shipped node)
};

// The gate: DC1-DC3 over the merged WAL shards, sessions and log agreement
// over the durable kDo order joined to the service logs, clean exits, and
// convergence before stop.
struct Verdict {
  bool converged = false;
  bool clean_exits = false;
  bool dc_ok = false;
  bool sessions_ok = false;
  bool log_ok = false;
  std::vector<std::string> violations;
  std::size_t actions = 0;
  std::size_t events = 0;
  std::vector<std::uint64_t> svclog_bytes;  // per replica, on disk
  std::uint64_t wal_record_bytes = 0;       // encoded WAL records, all shards

  bool conformant() const {
    return converged && clean_exits && dc_ok && sessions_ok && log_ok;
  }
};

struct ReplicaState {
  udc::SvcNodeStatus status;       // latest report
  udc::RuntimeCounters counters;   // summed over this replica's epochs
};

class Fleet {
 public:
  explicit Fleet(FleetConfig cfg);
  ~Fleet();  // SIGKILLs and reaps anything still running

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::uint64_t run_id() const { return run_id_; }
  int n() const { return cfg_.n; }

  void launch_all();
  // Pushes a changed port directory to the nodes and the client, and reaps
  // unexpected deaths.  Call every millisecond or so.
  void pump(udc::SvcClient* client);
  bool all_ports_known() const;

  // The leader a majority of replicas report, or kInvalidProcess.
  udc::ProcessId majority_leader() const;
  void kill(udc::ProcessId p);  // SIGKILL + reap
  void relaunch(udc::ProcessId p);  // epoch + 1, same disks
  // Every replica up at its current epoch, agreeing on the applied floor,
  // nothing unapplied, syncing or orphaned.
  bool settled() const;

  // kStop to every running replica; SIGKILL after `grace`.  Returns true
  // iff every replica exited 0 (or died by a SIGKILL this fleet sent).
  bool stop(std::chrono::milliseconds grace);

  Verdict judge(const std::vector<udc::SvcClientRecord>& confirmed,
                bool converged, bool clean_exits) const;

  std::vector<ReplicaState> replicas() const;
  std::vector<pid_t> pids() const;

 private:
  struct Child {
    pid_t pid = -1;
    std::uint64_t epoch = 0;
    bool running = false;
    bool bad_exit = false;  // some incarnation exited unexpectedly
  };
  struct View {
    bool up = false;
    std::uint64_t epoch = 0;
    std::uint16_t data_port = 0;
    bool have_status = false;
    udc::SvcNodeStatus status;
    std::vector<std::pair<std::uint64_t, udc::RuntimeCounters>> by_epoch;
  };

  void launch(udc::ProcessId p, std::uint64_t epoch);
  void reap_nonblocking();

  FleetConfig cfg_;
  std::uint64_t run_id_ = 0;
  mutable std::mutex mu_;  // guards views_ and dirty_
  std::vector<View> views_;
  bool dirty_ = false;
  udc::Reactor reactor_;
  std::uint16_t sup_port_ = 0;
  std::vector<Child> children_;
};

}  // namespace perfbench
