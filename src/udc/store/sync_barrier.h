// SyncBarrier: a batched fdatasync engine for the group committer.
//
// A commit round must barrier one descriptor per store (plus any sealed
// segments awaiting their deferred sync).  Issued serially, n stores'
// barriers convoy: each fdatasync is ~100-300µs of mostly-idle wait, so the
// round costs n of them end to end.  The engines here overlap the waits:
//
//   * kPool — a persistent pool of flusher threads; each takes fds off a
//     shared index and fdatasyncs them.  The default.  A round with one
//     descriptor (a process with one store, between segment seals) has
//     nothing to overlap, so the caller syncs it inline and no worker
//     wakes.
//   * kSerial — the PR 5 behavior, one blocking fdatasync per fd.  Also
//     the degenerate pool (flusher_threads <= 1).
//
// An io_uring engine (one IORING_OP_FSYNC submission per fd, reaped by one
// io_uring_enter) was measured slower than the pool and removed
// (EXPERIMENTS.md, DESIGN.md §11).  sync() is called from one committer
// thread at a time; an internal mutex makes stray concurrent callers
// (stop() racing a late flush_all) safe rather than fast.
#pragma once

#include <memory>
#include <vector>

namespace udc {

enum class CommitBarrier { kPool, kSerial };

class SyncBarrier {
 public:
  virtual ~SyncBarrier() = default;

  // Issues a data barrier for every fd, returning when all have landed.
  // fdatasync errors are ignored (scripted sync failures are modeled ABOVE
  // this layer, by withholding fds; a real EIO here would also surface on
  // close/read during recovery).
  virtual void sync(const std::vector<int>& fds) = 0;

  virtual const char* name() const = 0;

  // Builds the requested engine; a pool of fewer than two threads is the
  // serial engine.
  static std::unique_ptr<SyncBarrier> make(CommitBarrier mode,
                                           int flusher_threads);
};

}  // namespace udc
