#include "udc/rt/transport.h"

#include <algorithm>

#include "udc/common/check.h"

namespace udc {

namespace {

// Link-layer ack frame for a batch of pending sends.  Never recorded, never
// handed to a protocol — it exists only to retire the sender's
// retransmission timer, but it crosses the reverse channel, so the drop
// policy gets a say (one draw per batch: the batch IS one frame).
Message make_link_ack(std::uint64_t first_seq) {
  Message m;
  m.kind = MsgKind::kAck;
  m.a = static_cast<std::int64_t>(first_seq);
  return m;
}

}  // namespace

RtTransport::RtTransport(int n, RtTransportOptions opts,
                         std::shared_ptr<DropPolicy> policy,
                         std::uint64_t seed, std::function<Time()> clock,
                         DeliverFn deliver)
    : n_(n),
      opts_(opts),
      clock_(std::move(clock)),
      deliver_(std::move(deliver)),
      dead_(std::make_unique<std::atomic<bool>[]>(
          static_cast<std::size_t>(std::max(n, 0)))) {
  UDC_CHECK(n_ >= 1 && n_ <= kMaxProcesses, "RtTransport: bad process count");
  UDC_CHECK(policy != nullptr, "RtTransport: null drop policy");
  UDC_CHECK(opts_.min_delay.count() >= 0 &&
                opts_.max_delay >= opts_.min_delay,
            "RtTransport: bad delay range");
  UDC_CHECK(opts_.dedup_window >= 1, "RtTransport: bad dedup window");
  UDC_CHECK(opts_.shards >= 0, "RtTransport: bad shard count");
  // Per-ordered-channel PRNG streams, mirroring Network: traffic on one
  // channel never perturbs the draws of another.  Each stream is owned by
  // the shard that owns the channel's pair, so no stream needs a lock.
  const std::size_t channels = static_cast<std::size_t>(n_) * n_;
  channel_rngs_.reserve(channels);
  for (std::size_t i = 0; i < channels; ++i) {
    channel_rngs_.emplace_back(seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
  }
  channel_next_wire_.assign(channels, 0);
  dedup_.resize(channels);
  owed_acks_.resize(channels);
  ack_flush_scheduled_.assign(channels, 0);

  const int shard_count =
      opts_.shards > 0 ? opts_.shards : std::min(n_, 8);
  shards_.reserve(static_cast<std::size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->policy = policy->clone();
    shards_.push_back(std::move(sh));
  }
  for (auto& sh : shards_) {
    Shard* raw = sh.get();
    raw->dispatcher = std::thread([this, raw] { dispatch_loop(*raw); });
  }
}

RtTransport::~RtTransport() { stop(); }

std::size_t RtTransport::channel_index(ProcessId from, ProcessId to) const {
  return static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
         static_cast<std::size_t>(to);
}

RtTransport::Shard& RtTransport::shard_of(ProcessId a, ProcessId b) {
  // Keyed by the UNORDERED pair, so p->q data and its q->p acks always land
  // in the same shard and the ack path never crosses a shard boundary.
  const std::size_t lo = static_cast<std::size_t>(std::min(a, b));
  const std::size_t hi = static_cast<std::size_t>(std::max(a, b));
  return *shards_[(lo * static_cast<std::size_t>(n_) + hi) % shards_.size()];
}

std::chrono::microseconds RtTransport::draw_delay(Rng& rng) {
  auto span =
      static_cast<std::uint64_t>((opts_.max_delay - opts_.min_delay).count());
  return opts_.min_delay +
         std::chrono::microseconds(span == 0 ? 0 : rng.next_below(span + 1));
}

std::uint64_t RtTransport::push_op(Shard& sh, Op op) {
  const std::uint64_t id = sh.next_op_id++;
  op.id = id;
  sh.ops.push(std::move(op));
  sh.cv.notify_one();
  return id;
}

void RtTransport::ensure_scan(Shard& sh,
                              std::chrono::steady_clock::time_point at) {
  if (sh.scan_scheduled && sh.scan_at <= at) return;
  Op scan;
  scan.at = at;
  scan.kind = OpKind::kRetryScan;
  sh.scan_op_id = push_op(sh, std::move(scan));
  sh.scan_scheduled = true;
  sh.scan_at = at;
}

void RtTransport::note_retired(std::size_t k) {
  if (k == 0) return;
  if (pending_total_.fetch_sub(k, std::memory_order_acq_rel) == k) {
    std::lock_guard<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

void RtTransport::send(ProcessId from, ProcessId to, const Message& msg,
                       Time send_tick) {
  if (stopped_.load(std::memory_order_acquire)) return;
  Shard& sh = shard_of(from, to);
  std::lock_guard<std::mutex> lock(sh.mu);
  if (sh.stopping) return;
  counters_.add(counters_.sends);
  if (dead_[static_cast<std::size_t>(to)].load(std::memory_order_acquire)) {
    counters_.add(counters_.abandoned);
    return;
  }
  const std::uint64_t seq =
      next_seq_.fetch_add(1, std::memory_order_relaxed);
  PendingSend p{from, to, msg, send_tick};
  p.wire_seq = ++channel_next_wire_[channel_index(from, to)];
  sh.pending.emplace(seq, std::move(p));
  pending_total_.fetch_add(1, std::memory_order_acq_rel);
  // First attempt runs inline on the sender's thread — the common clean-
  // channel case schedules exactly one op (the delivery) and touches only
  // this pair's shard.
  attempt_locked(sh, seq, std::chrono::steady_clock::now());
}

void RtTransport::send_heartbeat(ProcessId from, ProcessId to,
                                 const Message& msg) {
  if (stopped_.load(std::memory_order_acquire)) return;
  Shard& sh = shard_of(from, to);
  std::lock_guard<std::mutex> lock(sh.mu);
  if (sh.stopping) return;
  counters_.add(counters_.heartbeats);
  Rng& rng = channel_rngs_[channel_index(from, to)];
  if (sh.policy->drop(from, to, msg, clock_(), rng)) {
    counters_.add(counters_.drops);
    return;
  }
  Op op;
  op.at = std::chrono::steady_clock::now() + draw_delay(rng);
  op.kind = OpKind::kDeliver;
  op.seq = 0;  // heartbeat: no pending entry
  op.hb_from = from;
  op.hb_to = to;
  op.hb_msg = msg;
  push_op(sh, std::move(op));
}

void RtTransport::abandon_to(ProcessId p) {
  UDC_CHECK(p >= 0 && p < n_, "RtTransport: abandon_to bad process");
  // Raised before any shard is swept: a send that takes its shard lock
  // after the sweep sees the flag, one that took it before is swept.
  dead_[static_cast<std::size_t>(p)].store(true, std::memory_order_release);
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    std::size_t retired = 0;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      for (auto it = sh.pending.begin(); it != sh.pending.end();) {
        if (it->second.to == p) {
          counters_.add(counters_.abandoned);
          it = sh.pending.erase(it);
          ++retired;
        } else {
          ++it;
        }
      }
    }
    note_retired(retired);
  }
}

bool RtTransport::quiesce(std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  quiesce_cv_.wait_until(lock, deadline, [this] {
    return pending_total_.load(std::memory_order_acquire) == 0 ||
           stopped_.load(std::memory_order_acquire);
  });
  return pending_total_.load(std::memory_order_acquire) == 0;
}

void RtTransport::stop() {
  const bool already = stopped_.exchange(true, std::memory_order_acq_rel);
  if (!already) {
    for (auto& shp : shards_) {
      std::lock_guard<std::mutex> lock(shp->mu);
      shp->stopping = true;
      shp->cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
  // Join unconditionally so a racing second stop() still waits for the
  // dispatchers to be gone before returning.
  for (auto& shp : shards_) {
    if (shp->dispatcher.joinable()) shp->dispatcher.join();
  }
}

RuntimeCounters RtTransport::counters() const {
  return counters_.snapshot();
}

std::size_t RtTransport::dedup_peak() const {
  std::size_t peak = 0;
  for (const auto& shp : shards_) {
    std::lock_guard<std::mutex> lock(shp->mu);
    peak = std::max(peak, shp->dedup_peak);
  }
  return peak;
}

void RtTransport::dispatch_loop(Shard& sh) {
  std::unique_lock<std::mutex> lock(sh.mu);
  while (!sh.stopping) {
    if (sh.ops.empty()) {
      sh.cv.wait(lock, [&sh] { return sh.stopping || !sh.ops.empty(); });
      continue;
    }
    auto now = std::chrono::steady_clock::now();
    // Copy the deadline out of the queue: wait_until releases the lock, and
    // a concurrent push_op may reallocate the queue's storage, so a
    // reference into ops.top() must not be held across the wait.
    const auto wake_at = sh.ops.top().at;
    if (wake_at > now) {
      sh.cv.wait_until(lock, wake_at);
      continue;
    }
    Op op = sh.ops.top();
    sh.ops.pop();
    switch (op.kind) {
      case OpKind::kDeliver:
        handle_deliver(sh, lock, std::move(op));
        break;
      case OpKind::kRetryScan:
        if (op.id == sh.scan_op_id) handle_retry_scan(sh);
        break;
      case OpKind::kAckFlush:
        handle_ack_flush(sh, op.chan);
        break;
    }
  }
}

void RtTransport::attempt_locked(Shard& sh, std::uint64_t seq,
                                 std::chrono::steady_clock::time_point now) {
  auto it = sh.pending.find(seq);
  if (it == sh.pending.end()) return;  // acked or abandoned meanwhile
  PendingSend& p = it->second;
  if (p.attempt > 0) counters_.add(counters_.retransmits);
  const int attempt = p.attempt++;
  if (opts_.max_attempts > 0 && p.attempt > opts_.max_attempts) {
    counters_.add(counters_.abandoned);
    sh.pending.erase(it);
    note_retired(1);
    return;
  }
  Rng& rng = channel_rngs_[channel_index(p.from, p.to)];
  if (sh.policy->drop(p.from, p.to, p.msg, clock_(), rng)) {
    counters_.add(counters_.drops);
  } else {
    Op del;
    del.at = now + draw_delay(rng);
    del.kind = OpKind::kDeliver;
    del.seq = seq;
    push_op(sh, std::move(del));
  }
  // Always arm the next attempt: it covers both a dropped attempt and a
  // delivered-but-ack-lost round trip.  A received ack erases the pending
  // entry and the re-attempt becomes a no-op.
  p.next_at = now + std::chrono::microseconds(
                        backoff_delay_jittered(opts_.backoff, attempt, rng));
  ensure_scan(sh, p.next_at);
}

void RtTransport::handle_retry_scan(Shard& sh) {
  sh.scan_scheduled = false;
  const auto now = std::chrono::steady_clock::now();
  // One pass over the shard's pending sends replaces the per-send retry op
  // of PR 3: collect what is due, re-attempt it, then re-arm at the
  // earliest remaining deadline.
  std::vector<std::uint64_t> due;
  for (const auto& [seq, p] : sh.pending) {
    if (p.next_at <= now) due.push_back(seq);
  }
  for (std::uint64_t seq : due) attempt_locked(sh, seq, now);
  if (sh.pending.empty()) return;
  auto next = std::chrono::steady_clock::time_point::max();
  for (const auto& [seq, p] : sh.pending) next = std::min(next, p.next_at);
  ensure_scan(sh, next);
}

void RtTransport::owe_ack(Shard& sh, ProcessId acker, ProcessId to,
                          std::uint64_t seq) {
  const std::size_t chan = channel_index(acker, to);
  owed_acks_[chan].push_back(seq);
  if (ack_flush_scheduled_[chan]) return;  // batch onto the queued flush
  ack_flush_scheduled_[chan] = 1;
  Rng& rng = channel_rngs_[chan];
  Op flush;
  flush.at = std::chrono::steady_clock::now() + draw_delay(rng);
  flush.kind = OpKind::kAckFlush;
  flush.chan = chan;
  push_op(sh, std::move(flush));
}

void RtTransport::handle_ack_flush(Shard& sh, std::size_t chan) {
  ack_flush_scheduled_[chan] = 0;
  std::vector<std::uint64_t> batch;
  batch.swap(owed_acks_[chan]);
  if (batch.empty()) return;  // everything already piggybacked
  const ProcessId acker = static_cast<ProcessId>(chan / n_);
  const ProcessId to = static_cast<ProcessId>(chan % n_);
  Rng& rng = channel_rngs_[chan];
  if (sh.policy->drop(acker, to, make_link_ack(batch.front()), clock_(),
                      rng)) {
    // The whole ack frame is lost; retransmission redelivers, dedup
    // suppresses, and the duplicate is re-acked.
    counters_.add(counters_.drops);
    return;
  }
  std::size_t retired = 0;
  for (std::uint64_t seq : batch) {
    if (sh.pending.erase(seq) > 0) {
      counters_.add(counters_.acks);
      ++retired;
    }
  }
  note_retired(retired);
}

void RtTransport::handle_deliver(Shard& sh, std::unique_lock<std::mutex>& lock,
                                 Op op) {
  if (op.seq == 0) {
    // Heartbeat: fire and forget.  Refusal (process down) is just loss.
    ProcessId from = op.hb_from;
    ProcessId to = op.hb_to;
    Message msg = std::move(op.hb_msg);
    lock.unlock();
    deliver_(from, to, msg, /*send_tick=*/0);
    lock.lock();
    return;
  }
  auto it = sh.pending.find(op.seq);
  if (it == sh.pending.end()) return;
  const ProcessId from = it->second.from;
  const ProcessId to = it->second.to;

  // Piggybacking: this frame physically crossed from->to, so every ack owed
  // in that direction rides it for free — no drop draw, no extra op.  (Acks
  // owed on from->to retire sends that travelled to->from; both directions
  // of the pair live in this shard.)
  {
    const std::size_t chan = channel_index(from, to);
    std::size_t retired = 0;
    for (std::uint64_t acked : owed_acks_[chan]) {
      if (sh.pending.erase(acked) > 0) {
        counters_.add(counters_.acks);
        counters_.add(counters_.acks_piggybacked);
        ++retired;
      }
    }
    owed_acks_[chan].clear();
    note_retired(retired);
  }
  it = sh.pending.find(op.seq);  // self-channel piggyback may retire op.seq
  if (it == sh.pending.end()) return;
  const std::uint64_t wire = it->second.wire_seq;
  const Message msg = it->second.msg;
  const Time send_tick = it->second.send_tick;

  ChannelDedup& d = dedup_[channel_index(from, to)];
  if (wire <= d.watermark || d.seen.count(wire) > 0) {
    // Already surfaced (or folded into the watermark): suppress, but still
    // ack — re-acking duplicates is what ends retransmission when the
    // first ack was lost.
    counters_.add(counters_.dedup_suppressed);
    owe_ack(sh, to, from, op.seq);
    return;
  }
  // First copy: hand it up, without transport locks (the recipient's
  // mailbox push takes its own lock, and the worker may call back into
  // send() meanwhile).
  lock.unlock();
  const bool accepted = deliver_(from, to, msg, send_tick);
  lock.lock();
  it = sh.pending.find(op.seq);  // re-validate: ack/abandon may have raced
  if (it == sh.pending.end()) return;
  if (!accepted) return;  // refused (process down): stays pending, retries
  counters_.add(counters_.delivered);
  d.seen.insert(wire);
  // Contiguous prefix folds into the watermark...
  while (d.seen.count(d.watermark + 1) > 0) {
    d.seen.erase(d.watermark + 1);
    ++d.watermark;
  }
  // ...and reordering beyond the window folds forcibly: seqs skipped over
  // here are suppressed if they ever arrive, i.e. channel loss, which
  // protocol retransmission (a fresh wire seq) re-learns.
  while (d.seen.size() > opts_.dedup_window) {
    d.watermark = *d.seen.begin();
    d.seen.erase(d.seen.begin());
    while (d.seen.count(d.watermark + 1) > 0) {
      d.seen.erase(d.watermark + 1);
      ++d.watermark;
    }
  }
  sh.dedup_peak = std::max(sh.dedup_peak, d.seen.size());
  owe_ack(sh, to, from, op.seq);
}

}  // namespace udc
