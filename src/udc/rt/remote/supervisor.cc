#include "udc/rt/remote/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>

#include "udc/common/check.h"

namespace udc {

pid_t spawn_node(const std::vector<std::string>& argv,
                 const std::string& log_path) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& s : argv) {
    cargv.push_back(const_cast<char*>(s.c_str()));
  }
  cargv.push_back(nullptr);

  pid_t pid = ::fork();
  UDC_CHECK(pid >= 0, "fleet: fork failed");
  if (pid == 0) {
    int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
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

void hard_kill(Child& c) {
  if (!c.running) return;
  ::kill(c.pid, SIGKILL);
  int st = 0;
  ::waitpid(c.pid, &st, 0);
  c.exit_status = st;
  c.running = false;
}

bool reap_if_exited(Child& c) {
  int st = 0;
  if (::waitpid(c.pid, &st, WNOHANG) != c.pid) return false;
  c.exit_status = st;
  c.running = false;
  return true;
}

bool stop_children(std::vector<Child>& children,
                   const std::function<void(ProcessId)>& send_stop) {
  const auto stop_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5'000);
  auto next_stop_send = std::chrono::steady_clock::now();
  for (;;) {
    if (std::chrono::steady_clock::now() >= next_stop_send) {
      for (std::size_t p = 0; p < children.size(); ++p) {
        if (children[p].running) send_stop(static_cast<ProcessId>(p));
      }
      next_stop_send =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    }
    bool any_running = false;
    for (Child& c : children) {
      if (c.running && !reap_if_exited(c)) any_running = true;
    }
    if (!any_running || std::chrono::steady_clock::now() >= stop_deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  bool clean = true;
  for (Child& c : children) {
    if (c.running) {
      hard_kill(c);  // straggler: it ignored kStop within the grace window
      clean = false;
    } else if (!c.killed_by_us && !(WIFEXITED(c.exit_status) &&
                                    WEXITSTATUS(c.exit_status) == 0)) {
      clean = false;
    }
  }
  return clean;
}

std::vector<ShardRecord> read_shard(const std::string& run_dir, ProcessId p,
                                    const StoreOptions& store) {
  ProcessStore shard(run_dir, p, store, {});
  std::vector<ShardRecord> out;
  for (const StoreRecord& r : shard.recover()) {
    out.push_back({r.t, p, out.size(), r.e});
  }
  return out;
}

void append_crash(ProcessId p, std::vector<ShardRecord>* shard) {
  Time last_tick = 0;
  for (const ShardRecord& r : *shard) last_tick = std::max(last_tick, r.tick);
  shard->push_back({last_tick + 1, p, shard->size(), Event::crash()});
}

Run merge_shards(int n, std::vector<ShardRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const ShardRecord& a, const ShardRecord& b) {
                     if (a.tick != b.tick) return a.tick < b.tick;
                     if (a.p != b.p) return a.p < b.p;
                     return a.idx < b.idx;
                   });
  Run::Builder b(n);
  for (const ShardRecord& r : records) {
    b.append(r.p, r.e);
    b.end_step();
  }
  return std::move(b).build();
}

}  // namespace udc
