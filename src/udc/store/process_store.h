// ProcessStore: one process's durable state — a CRC-framed WAL plus a
// periodically rotated snapshot — and the scripted storage faults that
// attack it.
//
// The live runtime's TraceRecorder doubles as each process's in-memory
// write-ahead log; a ProcessStore is that log made durable.  Every recorded
// event is appended (under the recorder's per-process shard mutex, so the
// durable order IS the recorded order); every `snapshot_every` frames the
// WAL is compacted into an atomically-replaced snapshot.  When the
// supervisor hard-kills a worker it applies any scripted StorageFault whose
// window covers the kill tick (torn write, truncate-to-synced, bit flip,
// short read, fsync failure) and then recovers: repair the WAL tail to its
// longest valid frame prefix, load snapshot + tail, re-compact, and hand the
// recovered event prefix to the restarted worker.  Anything the disk lost
// is a SUFFIX of the process's history, which the recovery protocol
// re-learns via supervisor re-inits and the kRejoin beacon (DESIGN.md §9).
//
// Durability modes (DESIGN.md §10-§11): with `group_commit` off, the inline
// FsyncPolicy decides when append() itself issues the barrier — the PR 4
// behavior, write-through, single-file.  With `group_commit` on, append()
// NEVER fsyncs; a GroupCommitter commits the batch every `commit_every`
// frames or `commit_interval`, or at once when a caller that waits on a
// record asks for it (request_commit), and flush() is also forced when the
// process is sealed.  On top of that, `segment_bytes` > 0 shards the WAL
// into preallocated fixed-size segments rotated off the append path, and
// `ring_frames` > 0 stages appends in a fixed-slot ring the committer
// drains with one gathered write per batch (store/wal.h).  Staged frames
// live in user memory until the next commit, so in staged mode the loss
// window of ANY kill — plain process kill or machine-style kTruncate — is
// exactly "since the last group commit" (plus whatever the snapshot
// already made durable).
//
// Thread-safety: mu_ serializes append / rotate / kill / recover; the
// commit path holds mu_ only long enough to pin the writer, then drains
// and barriers under the WAL's own drain lock, so appends never wait out
// an fdatasync.  Lock order: WITHIN one store, mu_ before drain before
// ring; ACROSS stores, the committer holds many drain locks at once (in
// attach order) and therefore must never take any store's mu_ while it
// does — finish_commit is mutex-free by design.  flush()
// arrives on the committer's flusher thread or on seal;
// apply_kill_faults() / recover() on the supervisor thread strictly after
// the worker is joined.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "udc/chaos/fault_script.h"
#include "udc/common/rng.h"
#include "udc/common/types.h"
#include "udc/store/snapshot.h"
#include "udc/store/sync_barrier.h"
#include "udc/store/wal.h"

namespace udc {

class GroupCommitter;
class ProcessStore;

struct StoreOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryN;
  int fsync_every = 8;              // frames per fsync under kEveryN
  std::size_t snapshot_every = 128; // WAL frames before compaction
  // Group commit (overrides the inline fsync policy when true).
  bool group_commit = false;
  int commit_every = 32;            // kick the flusher at this many frames
  std::chrono::microseconds commit_interval{500};  // max batch staleness
  // Parallel durable-commit pipeline (PR 6).  Defaults keep the legacy
  // single-file write-through layout so the standalone store tests pin the
  // PR 4/5 semantics; the live runtime turns all of it on
  // (rt_default_store_options in rt/runtime.h).
  std::uint64_t segment_bytes = 0;  // >0: segmented WAL <wal>.seg-NNNNNN
  std::size_t ring_frames = 0;      // >0 + group_commit: staged appends
  CommitBarrier barrier = CommitBarrier::kPool;  // committer sync engine
  int flusher_threads = 4;          // pool size for the kPool engine
};

struct StoreCounters {
  std::size_t wal_frames_appended = 0;
  std::size_t wal_frames_replayed = 0;   // tail frames used by recoveries
  std::size_t snapshots_written = 0;
  std::size_t snapshots_loaded = 0;
  std::size_t torn_tails_truncated = 0;  // recoveries that had to repair
  std::size_t recoveries_total = 0;
  std::size_t storage_faults_injected = 0;
  std::size_t sync_failures = 0;
  std::size_t group_commits = 0;         // flushes that found pending work
};

// One store's leg of a batched commit round; see GroupCommitter::round().
// Holds the writer alive (against a concurrent recover() swap) and, while
// `wal.pending`, the writer's drain lock.
struct StoreCommitTicket {
  ProcessStore* store = nullptr;
  std::shared_ptr<WalWriter> writer;
  WalCommitTicket wal;
};

class ProcessStore {
 public:
  // `faults` are the (already sanitized) storage faults aimed at this
  // process (victim == p or kInvalidProcess).
  ProcessStore(std::string dir, ProcessId p, StoreOptions opts,
               std::vector<StorageFault> faults);
  ~ProcessStore();

  ProcessStore(const ProcessStore&) = delete;
  ProcessStore& operator=(const ProcessStore&) = delete;

  // Durably appends the event recorded at tick t.  kSyncFail windows are
  // evaluated against t; snapshot rotation happens here too.  Under group
  // commit the frame is staged or written but not fsynced; the committer
  // is kicked once commit_every frames are pending.
  void append(Time t, const Event& e);

  // Asks for a commit round now instead of at the next commit_interval:
  // the caller just appended a record something waits on (the durable-send
  // gate).  Kicks the attached committer; a store without one commits
  // inline.  Call it outside any lock the on_durable hook takes.
  void request_commit();

  // Runs after every commit round that advanced the durable floor, on the
  // thread that ran the round (the committer's flusher, or flush()'s
  // caller).  It runs inside finish_commit, whose round may still hold
  // other stores' drain locks, so finish_commit's rule binds it too: it
  // must take no store mutex and never block.  A leaf lock held for O(1)
  // work (a mailbox wake) cannot close a cycle and is allowed.  Set it
  // before GroupCommitter::attach, whose mutex orders the write before the
  // flusher's first read.
  void set_on_durable(std::function<void()> fn) {
    on_durable_ = std::move(fn);
  }

  // Commits the unsynced WAL tail, if any: drain + serial barrier.  Called
  // on seal (flush_on_seal), at teardown, and by tests; the committer's
  // batched rounds use start_commit/finish_commit instead.
  void flush();

  // Two-phase commit for GroupCommitter::round().  start_commit pins the
  // writer and drains its staged frames; if the ticket is pending, the
  // caller must barrier ticket.wal.fds and then call finish_commit exactly
  // once.
  StoreCommitTicket start_commit();
  void finish_commit(StoreCommitTicket& t);

  // Applies every at-kill fault (torn write / truncate / bit flip) whose
  // window contains `kill_time` to the on-disk WAL, and arms short-read
  // mode for the following recover().  Must be called after the worker
  // thread is joined and before recover().
  void apply_kill_faults(Time kill_time, Rng& rng);

  // Repairs the WAL, loads snapshot + tail, re-compacts, reopens the
  // writer, and returns the recovered event prefix in tick order.
  std::vector<StoreRecord> recover();

  // Counters are read after the run quiesces (workers joined, committer
  // stopped); the snapshot is taken under the store mutex.
  StoreCounters counters() const;

  // Records guaranteed to survive ANY kill at this instant: what the
  // snapshot covers plus every WAL frame a successful barrier has covered
  // since.  recover() must return at least this many records (and at most
  // everything appended) — the "loss window is since the last group
  // commit" property, asserted by the concurrent commit tests.
  std::size_t durable_floor() const;

  std::chrono::microseconds commit_interval() const {
    return opts_.commit_interval;
  }
  void set_committer(GroupCommitter* c) { committer_ = c; }

  std::string wal_path() const;
  std::string snapshot_path() const;

 private:
  std::shared_ptr<WalWriter> make_writer() const;
  void rotate_snapshot();  // mu_ held

  std::string dir_;
  ProcessId p_;
  StoreOptions opts_;
  std::vector<StorageFault> faults_;
  GroupCommitter* committer_ = nullptr;
  std::function<void()> on_durable_;  // see set_on_durable

  mutable std::mutex mu_;
  std::shared_ptr<WalWriter> writer_;
  std::vector<StoreRecord> mirror_;  // in-memory copy, for compaction
  std::size_t frames_since_snapshot_ = 0;
  std::size_t snapshot_records_ = 0;  // records the on-disk snapshot covers
  std::size_t sync_failures_base_ = 0;  // from writers already retired
  bool short_read_armed_ = false;
  StoreCounters counters_;
  // Advanced by finish_commit WITHOUT mu_ (the committer holds other
  // stores' drain locks at that point); folded into counters() at read
  // time alongside the writer's own sync-failure count.
  std::atomic<std::size_t> group_commits_{0};
};

}  // namespace udc
