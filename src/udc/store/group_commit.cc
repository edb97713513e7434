#include "udc/store/group_commit.h"

#include <algorithm>

#include "udc/store/process_store.h"

namespace udc {

GroupCommitter::GroupCommitter(GroupCommitOptions opts)
    : barrier_(SyncBarrier::make(opts.barrier, opts.flusher_threads)) {
  flusher_ = std::thread([this] { loop(); });
}

GroupCommitter::~GroupCommitter() { stop(); }

void GroupCommitter::attach(ProcessStore* store) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stores_.push_back(store);
    ++attach_gen_;  // invalidate the cached interval
  }
  store->set_committer(this);
  cv_.notify_one();  // re-derive the wait interval promptly
}

void GroupCommitter::kick() {
  {
    // Set under the flusher's mutex: a kick landing between its predicate
    // check and its sleep would otherwise wait out a whole interval.
    std::lock_guard<std::mutex> lock(mu_);
    kicked_ = true;
  }
  cv_.notify_one();
}

void GroupCommitter::round() {
  std::vector<ProcessStore*> stores;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stores = stores_;
  }
  // Phase 1: drain every store's staged frames and collect the descriptors
  // that need a barrier.  Each pending store's drain lock stays held so the
  // batch the barrier covers is exactly the batch the watermark will claim.
  std::vector<StoreCommitTicket> tickets;
  std::vector<int> fds;
  tickets.reserve(stores.size());
  for (ProcessStore* s : stores) {
    StoreCommitTicket t = s->start_commit();
    if (!t.wal.pending) continue;
    fds.insert(fds.end(), t.wal.fds.begin(), t.wal.fds.end());
    tickets.push_back(std::move(t));
  }
  // Phase 2: one batched barrier for the whole round, then let every store
  // advance its watermark and counters.
  if (!fds.empty()) barrier_->sync(fds);
  for (StoreCommitTicket& t : tickets) t.store->finish_commit(t);
}

void GroupCommitter::flush_all() { round(); }

void GroupCommitter::stop() {
  bool already_stopping = false;
  {
    std::lock_guard<std::mutex> lock(mu_);  // same lost-wakeup rule as kick()
    already_stopping = stopping_.exchange(true);
  }
  if (already_stopping) {
    if (flusher_.joinable()) flusher_.join();
    return;
  }
  cv_.notify_one();
  if (flusher_.joinable()) flusher_.join();
  flush_all();  // nothing batched survives shutdown unsynced
}

void GroupCommitter::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    // Honor the TRUE shortest attached interval (no 1ms cap — a store
    // asking for a longer batch window gets it), recomputed only when the
    // attachment set changes.
    if (cached_gen_ != attach_gen_) {
      std::chrono::microseconds interval{1'000};  // default: no stores yet
      if (!stores_.empty()) {
        interval = stores_.front()->commit_interval();
        for (ProcessStore* s : stores_) {
          interval = std::min(interval, s->commit_interval());
        }
      }
      cached_interval_ = interval;
      cached_gen_ = attach_gen_;
    }
    cv_.wait_for(lock, cached_interval_, [this] {
      return stopping_.load(std::memory_order_acquire) || kicked_ ||
             cached_gen_ != attach_gen_;
    });
    if (stopping_.load(std::memory_order_acquire)) break;
    if (cached_gen_ != attach_gen_) continue;  // re-derive; keep any kick
    kicked_ = false;
    lock.unlock();  // never hold the list lock across a barrier
    round();
    lock.lock();
  }
}

}  // namespace udc
