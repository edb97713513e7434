#include "udc/store/process_store.h"

#include <unistd.h>

#include <algorithm>

#include "udc/common/check.h"
#include "udc/store/codec.h"
#include "udc/store/group_commit.h"

namespace udc {

namespace {

bool window_contains(const StorageFault& f, Time t) {
  return t >= f.begin && t < f.end;
}

void datasync_fd_local(int fd) {
#if defined(__APPLE__)
  (void)::fsync(fd);
#else
  (void)::fdatasync(fd);
#endif
}

}  // namespace

ProcessStore::ProcessStore(std::string dir, ProcessId p, StoreOptions opts,
                           std::vector<StorageFault> faults)
    : dir_(std::move(dir)), p_(p), opts_(opts), faults_(std::move(faults)) {
  UDC_CHECK(!dir_.empty(), "ProcessStore: empty directory");
  UDC_CHECK(!opts_.group_commit || opts_.commit_every >= 1,
            "ProcessStore: group commit needs commit_every >= 1");
  mirror_.reserve(std::min<std::size_t>(opts_.snapshot_every * 2, 1 << 16));
  writer_ = make_writer();
}

ProcessStore::~ProcessStore() = default;

std::shared_ptr<WalWriter> ProcessStore::make_writer() const {
  // Group commit owns durability: the writer's inline policy is disabled
  // and every barrier comes from a commit round.  The staging ring is only
  // safe under group commit (inline policies must stay write-through so a
  // plain process kill keeps the page-cache tail).
  WalOptions w;
  w.fsync = opts_.group_commit ? FsyncPolicy::kNever : opts_.fsync;
  w.sync_every = opts_.fsync_every;
  w.segment_bytes = opts_.segment_bytes;
  w.ring_frames = opts_.group_commit ? opts_.ring_frames : 0;
  w.preallocate = opts_.segment_bytes > 0;
  return std::make_shared<WalWriter>(wal_path(), w);
}

std::string ProcessStore::wal_path() const {
  return dir_ + "/p" + std::to_string(p_) + ".wal";
}

std::string ProcessStore::snapshot_path() const {
  return dir_ + "/p" + std::to_string(p_) + ".snap";
}

void ProcessStore::append(Time t, const Event& e) {
  bool kick = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Fault bookkeeping only when this store is actually under attack: the
    // common (and benchmarked) path skips the atomic flag write and the
    // failure-counter refresh entirely.
    if (!faults_.empty()) {
      bool sync_failing = false;
      for (const StorageFault& f : faults_) {
        if (f.kind == StorageFault::Kind::kSyncFail &&
            window_contains(f, t)) {
          sync_failing = true;
          break;
        }
      }
      writer_->set_sync_failing(sync_failing);
    }
    // emplace builds the record once, in place — the WAL encoder then reads
    // it straight out of the mirror (no temporary, no second Event copy).
    const StoreRecord& rec = mirror_.emplace_back(t, e);
    const std::uint64_t unsynced = writer_->append(rec);
    ++counters_.wal_frames_appended;
    if (++frames_since_snapshot_ >= opts_.snapshot_every) rotate_snapshot();
    kick = opts_.group_commit &&
           unsynced >= static_cast<std::uint64_t>(opts_.commit_every);
  }
  // Kick outside the store mutex: the committer's flusher takes the WAL
  // drain lock next round, and holding mu_ here would stall the worker
  // behind the batch.
  if (kick && committer_ != nullptr) committer_->kick();
}

void ProcessStore::request_commit() {
  if (committer_ != nullptr) {
    committer_->kick();
  } else {
    flush();
  }
}

StoreCommitTicket ProcessStore::start_commit() {
  StoreCommitTicket t;
  t.store = this;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t.writer = writer_;
  }
  // The drain (ring -> pwritev) happens under the WAL's own locks, NOT
  // mu_, so appends contend only with the memcpy into the ring, never with
  // the barrier.  The shared_ptr keeps the writer alive across a
  // concurrent recover() swap; a closed writer yields a non-pending
  // ticket.
  if (t.writer == nullptr) return t;
  t.wal = t.writer->start_commit();
  return t;
}

void ProcessStore::finish_commit(StoreCommitTicket& t) {
  if (!t.wal.pending) return;
  // NO store mutex here, ever: the committer finishes a round's tickets
  // while still holding the drain locks of the round's LATER pending
  // stores, and the kill path (apply_kill_faults) holds mu_ while close()
  // waits out a drain lock — taking mu_ here would close a lock-order
  // cycle across stores.  The counters a round advances are atomics, and
  // counters() derives sync_failures from the writer directly.
  t.writer->finish_commit(t.wal);
  group_commits_.fetch_add(1, std::memory_order_relaxed);
  // A failing barrier left the watermark where it was: nothing to report.
  if (!t.wal.sync_failing && on_durable_) on_durable_();
}

void ProcessStore::flush() {
  StoreCommitTicket t = start_commit();
  if (!t.wal.pending) return;
  for (int fd : t.wal.fds) datasync_fd_local(fd);
  finish_commit(t);
}

void ProcessStore::rotate_snapshot() {
  // Snapshot first, truncate the WAL second: a crash in the gap leaves
  // snapshot and WAL overlapping, which recovery resolves by tick.  The
  // snapshot covers mirror_ — including frames still staged in the ring —
  // and write_snapshot_file fsyncs, so after rotation the durable floor is
  // the whole history so far.
  write_snapshot_file(snapshot_path(), mirror_);
  writer_->truncate_all();
  frames_since_snapshot_ = 0;
  snapshot_records_ = mirror_.size();
  ++counters_.snapshots_written;
}

void ProcessStore::apply_kill_faults(Time kill_time, Rng& rng) {
  std::lock_guard<std::mutex> lock(mu_);
  // The writer's descriptors go away first; every fault below edits the
  // on-disk files the way a crashed machine or a bad disk would — from the
  // outside, segment by segment.  close() waits out any commit round in
  // flight (drain lock), and discards staged ring frames: frames the
  // process never handed to the kernel do not survive a kill of any kind.
  const std::uint64_t written = writer_->bytes_written();
  writer_->close();
  short_read_armed_ = false;

  for (const StorageFault& f : faults_) {
    if (!window_contains(f, kill_time)) continue;
    switch (f.kind) {
      case StorageFault::Kind::kTornWrite: {
        // The append in flight at the kill instant made it only partway:
        // fabricate a frame and write a strict prefix of it at the active
        // segment's tail.
        std::uint8_t frame[kMaxWalFrameBytes];
        const std::size_t len = encode_record_into(
            StoreRecord{kill_time, Event::crash()}, frame + 8);
        wal_frame_into(frame + 8, static_cast<std::uint32_t>(len), frame);
        const std::uint64_t cut = 1 + rng.next_below(std::uint64_t{8} + len - 1);
        writer_->inject_torn_write(frame, static_cast<std::size_t>(cut));
        ++counters_.storage_faults_injected;
        break;
      }
      case StorageFault::Kind::kTruncate:
        // Machine-crash semantics: the unsynced page-cache tail is gone.
        // This is where the durability window shows — inline kEveryAppend
        // loses nothing, kEveryN at most N-1 frames, group commit at most
        // one batch per segment.  Staged frames already died in close()
        // above, so only a write-through tail can be cut here.
        if (writer_->inject_truncate_to_synced()) {
          ++counters_.storage_faults_injected;
        }
        break;
      case StorageFault::Kind::kBitFlip:
        if (written > 0 && writer_->inject_bit_flip(rng.next_below(written))) {
          ++counters_.storage_faults_injected;
        }
        break;
      case StorageFault::Kind::kShortRead:
        short_read_armed_ = true;
        ++counters_.storage_faults_injected;
        break;
      case StorageFault::Kind::kSyncFail:
        break;  // applied at append time, not at kill time
    }
  }
}

std::vector<StoreRecord> ProcessStore::recover() {
  std::lock_guard<std::mutex> lock(mu_);
  // 1. Truncate the WAL — every segment of it — to its longest valid frame
  //    prefix.  A clean tail (including a preallocated segment's zero
  //    tail) is a no-op; a torn/flipped one is counted and cut.
  if (repair_wal(wal_path())) ++counters_.torn_tails_truncated;
  WalReadResult wal = read_wal(
      wal_path(), short_read_armed_ ? std::size_t{3} : std::size_t{0});
  short_read_armed_ = false;

  // 2. Snapshot + tail, deduplicated by tick (the snapshot-then-truncate
  //    crash window leaves overlap; ticks are globally unique).
  std::vector<StoreRecord> recovered;
  Time covered = 0;
  if (auto snap = read_snapshot_file(snapshot_path())) {
    recovered = std::move(snap->records);
    covered = recovered.empty() ? 0 : recovered.back().t;
    ++counters_.snapshots_loaded;
  }
  for (const StoreRecord& r : wal.records) {
    if (r.t > covered) {
      recovered.push_back(r);
      ++counters_.wal_frames_replayed;
    }
  }

  // 3. Re-compact: the recovered prefix becomes the new snapshot and the
  //    WAL restarts empty, so the next incarnation appends onto a durable
  //    base that an immediate second crash cannot tear.
  write_snapshot_file(snapshot_path(), recovered);
  ++counters_.snapshots_written;
  sync_failures_base_ += writer_->sync_failures();
  writer_ = make_writer();
  writer_->truncate_all();
  frames_since_snapshot_ = 0;
  snapshot_records_ = recovered.size();
  mirror_ = recovered;
  ++counters_.recoveries_total;
  return recovered;
}

StoreCounters ProcessStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreCounters c = counters_;
  // Derived live rather than cached by the paths that change them: the
  // committer's finish_commit must stay mutex-free (see there), so the
  // writer's own atomic failure count and the round counter are folded in
  // at read time.
  c.sync_failures = sync_failures_base_ + writer_->sync_failures();
  c.group_commits = group_commits_.load(std::memory_order_relaxed);
  return c;
}

std::size_t ProcessStore::durable_floor() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (writer_ == nullptr) return snapshot_records_;
  return snapshot_records_ +
         static_cast<std::size_t>(writer_->frames_synced());
}

}  // namespace udc
