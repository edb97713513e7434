#include "fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "udc/common/check.h"
#include "udc/consensus/spec.h"
#include "udc/coord/spec.h"
#include "udc/event/run.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/node.h"
#include "udc/store/codec.h"
#include "udc/store/process_store.h"
#include "udc/svc/svclog.h"

namespace perfbench {

using namespace udc;

namespace {

constexpr std::size_t kWalFrameHeaderBytes = 8;  // [u32 len][u32 crc]

std::vector<std::string> node_argv(const FleetConfig& cfg, ProcessId id,
                                   std::uint64_t epoch, std::uint64_t run_id,
                                   std::uint16_t sup_port) {
  auto arg = [](const std::string& k, const auto& v) {
    std::ostringstream os;
    os << k << '=' << v;
    return os.str();
  };
  const SvcNodeOptions& nd = cfg.node;
  return {cfg.node_binary,
          arg("--id", id),
          arg("--n", cfg.n),
          arg("--epoch", epoch),
          arg("--run-id", run_id),
          arg("--supervisor-port", sup_port),
          arg("--dir", cfg.run_dir),
          arg("--seed", cfg.seed + 0x9e37u * static_cast<std::uint64_t>(id + 1) +
                            epoch),
          arg("--hb-interval", nd.heartbeat.interval),
          arg("--hb-timeout", nd.heartbeat.initial_timeout),
          arg("--lease-ms", nd.lease_window.count()),
          arg("--batch-ops", nd.max_batch_ops),
          arg("--seal-us", nd.seal_interval.count()),
          arg("--inflight", nd.max_inflight_slots),
          arg("--admission-cap", nd.admission_cap),
          arg("--resend-us", nd.resend_interval.count()),
          arg("--orphan-ms", nd.orphan_after.count())};
}

pid_t spawn(const std::vector<std::string>& argv, const std::string& log) {
  std::vector<char*> cargv;
  for (const std::string& s : argv) cargv.push_back(const_cast<char*>(s.c_str()));
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  UDC_CHECK(pid >= 0, "perfbench: fork failed");
  if (pid == 0) {
    ::setpriority(PRIO_PROCESS, 0, 0);  // replicas run at the default nice
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    _exit(127);
  }
  return pid;
}

ReactorOptions supervisor_options(const FleetConfig& cfg,
                                  std::uint64_t run_id) {
  ReactorOptions r;
  r.self = kSupervisorPeer;
  r.n = cfg.n;
  r.run_id = run_id;
  r.seed = cfg.seed ^ 0x73757065ull;  // "supe"
  return r;
}

std::uint64_t make_run_id(std::uint64_t seed) {
  static std::uint64_t fleets = 0;
  return (static_cast<std::uint64_t>(::getpid()) << 32) ^ (seed << 8) ^
         ++fleets;
}

}  // namespace

Fleet::Fleet(FleetConfig cfg)
    : cfg_(std::move(cfg)),
      run_id_(make_run_id(cfg_.seed)),
      views_(static_cast<std::size_t>(cfg_.n)),
      reactor_(
          supervisor_options(cfg_, run_id_),
          [this](ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
            if (f.type != FrameType::kSvcStatus || peer < 0 ||
                peer >= cfg_.n) {
              return;
            }
            auto s = decode_svc_status(f.payload.data(), f.payload.size());
            if (!s || s->id != peer) return;
            RuntimeCounters rc = unpack_node_counters(s->counters);
            unpack_svc_counters(s->counters, kNodeCounterSlots, &rc);
            std::lock_guard<std::mutex> lk(mu_);
            View& v = views_[static_cast<std::size_t>(peer)];
            v.have_status = true;
            v.status = *s;
            auto it = std::find_if(
                v.by_epoch.begin(), v.by_epoch.end(),
                [epoch](const auto& e) { return e.first == epoch; });
            if (it == v.by_epoch.end()) {
              v.by_epoch.push_back({epoch, rc});
            } else {
              it->second = rc;
            }
          },
          [this](ProcessId peer, std::uint64_t epoch, bool up,
                 std::uint16_t data_port) {
            if (peer < 0 || peer >= cfg_.n) return;
            std::lock_guard<std::mutex> lk(mu_);
            View& v = views_[static_cast<std::size_t>(peer)];
            v.up = up;
            if (up) {
              v.epoch = epoch;
              v.data_port = data_port;
              dirty_ = true;
            }
          }),
      children_(static_cast<std::size_t>(cfg_.n)) {
  UDC_CHECK(cfg_.n >= 1 && cfg_.n <= 8, "perfbench: bad fleet size");
  UDC_CHECK(std::filesystem::exists(cfg_.node_binary),
            "perfbench: node binary missing");
  std::filesystem::create_directories(cfg_.run_dir);
  sup_port_ = reactor_.listen(0);
  reactor_.start();
}

Fleet::~Fleet() {
  for (Child& c : children_) {
    if (!c.running) continue;
    ::kill(c.pid, SIGKILL);
    int st = 0;
    ::waitpid(c.pid, &st, 0);
    c.running = false;
  }
  reactor_.stop();
}

void Fleet::launch(ProcessId p, std::uint64_t epoch) {
  Child& c = children_[static_cast<std::size_t>(p)];
  c.epoch = epoch;
  c.pid = spawn(node_argv(cfg_, p, epoch, run_id_, sup_port_),
                cfg_.run_dir + "/node-" + std::to_string(p) + ".log");
  c.running = true;
}

void Fleet::launch_all() {
  for (ProcessId p = 0; p < cfg_.n; ++p) launch(p, 0);
}

void Fleet::relaunch(ProcessId p) {
  launch(p, children_[static_cast<std::size_t>(p)].epoch + 1);
}

void Fleet::kill(ProcessId p) {
  Child& c = children_[static_cast<std::size_t>(p)];
  if (!c.running) return;
  ::kill(c.pid, SIGKILL);
  int st = 0;
  ::waitpid(c.pid, &st, 0);
  c.running = false;
  std::lock_guard<std::mutex> lk(mu_);
  views_[static_cast<std::size_t>(p)].up = false;
}

void Fleet::reap_nonblocking() {
  for (Child& c : children_) {
    if (!c.running) continue;
    int st = 0;
    if (::waitpid(c.pid, &st, WNOHANG) == c.pid) {
      c.running = false;
      if (!(WIFEXITED(st) && WEXITSTATUS(st) == 0)) c.bad_exit = true;
    }
  }
}

void Fleet::pump(SvcClient* client) {
  reap_nonblocking();
  WirePeers peers;
  std::vector<bool> up(static_cast<std::size_t>(cfg_.n));
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!dirty_) return;
    dirty_ = false;
    for (ProcessId p = 0; p < cfg_.n; ++p) {
      const View& v = views_[static_cast<std::size_t>(p)];
      if (v.data_port != 0) peers.ports.push_back({p, v.data_port});
      up[static_cast<std::size_t>(p)] = v.up;
    }
  }
  const auto payload = encode_peers(peers);
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (up[static_cast<std::size_t>(p)]) {
      reactor_.send(p, FrameType::kPeers, payload);
    }
  }
  if (client != nullptr) {
    for (const auto& [pid, port] : peers.ports) client->set_node_port(pid, port);
  }
}

bool Fleet::all_ports_known() const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const View& v : views_) {
    if (v.data_port == 0) return false;
  }
  return true;
}

ProcessId Fleet::majority_leader() const {
  std::map<ProcessId, int> votes;
  std::lock_guard<std::mutex> lk(mu_);
  for (const View& v : views_) {
    if (v.up && v.have_status && v.status.leader != kInvalidProcess) {
      ++votes[v.status.leader];
    }
  }
  for (const auto& [who, n] : votes) {
    if (n * 2 > cfg_.n) return who;
  }
  return kInvalidProcess;
}

bool Fleet::settled() const {
  std::lock_guard<std::mutex> lk(mu_);
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    const Child& c = children_[static_cast<std::size_t>(p)];
    const View& v = views_[static_cast<std::size_t>(p)];
    if (!c.running || !v.up || !v.have_status || v.status.epoch != c.epoch ||
        v.status.syncing || v.status.orphans != 0 ||
        v.status.log_size != v.status.applied ||
        v.status.floor != views_[0].status.floor) {
      return false;
    }
  }
  return true;
}

bool Fleet::stop(std::chrono::milliseconds grace) {
  const auto deadline = std::chrono::steady_clock::now() + grace;
  auto next_send = std::chrono::steady_clock::now();
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_send) {
      for (ProcessId p = 0; p < cfg_.n; ++p) {
        if (children_[static_cast<std::size_t>(p)].running) {
          reactor_.send(p, FrameType::kStop, {});
        }
      }
      next_send = now + std::chrono::milliseconds(100);
    }
    reap_nonblocking();
    const bool any = std::any_of(children_.begin(), children_.end(),
                                 [](const Child& c) { return c.running; });
    if (!any || now >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  bool clean = true;
  for (Child& c : children_) {
    if (c.running) {
      ::kill(c.pid, SIGKILL);
      int st = 0;
      ::waitpid(c.pid, &st, 0);
      c.running = false;
      clean = false;
    }
    if (c.bad_exit) clean = false;
  }
  return clean;
}

std::vector<ReplicaState> Fleet::replicas() const {
  std::vector<ReplicaState> out(static_cast<std::size_t>(cfg_.n));
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t p = 0; p < out.size(); ++p) {
    out[p].status = views_[p].status;
    for (const auto& [epoch, rc] : views_[p].by_epoch) out[p].counters.merge(rc);
  }
  return out;
}

std::vector<pid_t> Fleet::pids() const {
  std::vector<pid_t> out;
  for (const Child& c : children_) out.push_back(c.running ? c.pid : -1);
  return out;
}

Verdict Fleet::judge(const std::vector<SvcClientRecord>& confirmed,
                     bool converged, bool clean_exits) const {
  Verdict v;
  v.converged = converged;
  v.clean_exits = clean_exits;
  if (!converged) v.violations.push_back("fleet did not converge before stop");
  if (!clean_exits) v.violations.push_back("a replica did not exit cleanly");

  // The shards ARE the run: merge by tick, then DC1-DC3.
  struct Rec {
    Time tick;
    ProcessId p;
    std::size_t idx;
    Event e;
  };
  std::vector<Rec> merged;
  std::set<ActionId> initiated;
  std::vector<std::vector<ActionId>> do_order(static_cast<std::size_t>(cfg_.n));
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    ProcessStore shard(cfg_.run_dir, p, cfg_.node.store, {});
    std::size_t idx = 0;
    for (const StoreRecord& r : shard.recover()) {
      v.wal_record_bytes += encode_record(r).size() + kWalFrameHeaderBytes;
      merged.push_back({r.t, p, idx++, r.e});
      if (r.e.kind == EventKind::kInit) initiated.insert(r.e.action);
      if (r.e.kind == EventKind::kDo) {
        do_order[static_cast<std::size_t>(p)].push_back(r.e.action);
      }
    }
  }
  std::stable_sort(merged.begin(), merged.end(), [](const Rec& a, const Rec& b) {
    if (a.tick != b.tick) return a.tick < b.tick;
    if (a.p != b.p) return a.p < b.p;
    return a.idx < b.idx;
  });
  Run::Builder b(cfg_.n);
  for (const Rec& r : merged) {
    b.append(r.p, r.e);
    b.end_step();
  }
  const Run run = std::move(b).build();
  const std::vector<ActionId> actions(initiated.begin(), initiated.end());
  v.actions = actions.size();
  v.events = merged.size();
  const CoordReport coord = check_nudc(run, actions, /*grace=*/0);
  v.dc_ok = coord.achieved();
  if (!coord.dc1) v.violations.push_back("DC1 violated");
  if (!coord.dc2) v.violations.push_back("DC2 violated");
  if (!coord.dc3) v.violations.push_back("DC3 violated");

  // Replica apply sequences: durable kDo order joined to the service logs.
  std::vector<std::vector<SvcBatch>> applied(static_cast<std::size_t>(cfg_.n));
  std::vector<std::vector<std::pair<std::uint64_t, ActionId>>> slots(
      static_cast<std::size_t>(cfg_.n));
  bool join_ok = true;
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    const std::string path = cfg_.run_dir + "/svc-" + std::to_string(p) + ".log";
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    v.svclog_bytes.push_back(ec ? 0 : size);
    std::map<ActionId, SvcBatch> by_action;
    for (const SvcBatch& sb : SvcDurableLog::read(path)) by_action[sb.action] = sb;
    for (ActionId a : do_order[static_cast<std::size_t>(p)]) {
      auto it = by_action.find(a);
      if (it == by_action.end()) {
        join_ok = false;
        continue;
      }
      applied[static_cast<std::size_t>(p)].push_back(it->second);
      slots[static_cast<std::size_t>(p)].push_back({it->second.slot, a});
    }
  }
  const SvcSessionReport sessions = check_sessions(applied, confirmed);
  v.sessions_ok = sessions.achieved() && join_ok;
  if (!join_ok) {
    v.violations.push_back("durable kDo with no service-log record");
  }
  for (const std::string& s : sessions.violations) v.violations.push_back(s);
  const LogAgreementReport la = check_log_agreement(slots);
  v.log_ok = la.achieved();
  for (const std::string& s : la.violations) v.violations.push_back(s);
  return v;
}

}  // namespace perfbench
