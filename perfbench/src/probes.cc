#include "probes.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "core.h"
#include "udc/common/check.h"
#include "udc/common/rng.h"
#include "udc/coord/action.h"
#include "udc/event/event.h"
#include "udc/net/reactor.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/node.h"
#include "udc/store/group_commit.h"
#include "udc/store/process_store.h"
#include "udc/svc/log.h"
#include "udc/svc/svclog.h"
#include "udc/svc/wire.h"

namespace perfbench {

using namespace udc;
using Clock = std::chrono::steady_clock;

namespace {

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

Dist dist_of(std::vector<double> v) {
  Dist d;
  d.count = v.size();
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  d.p50 = nearest_rank(v, 50);
  d.p99 = nearest_rank(v, 99);
  return d;
}

SvcBatch make_batch(std::uint64_t slot, int ops, std::uint64_t term) {
  SvcBatch b;
  b.slot = slot;
  b.term = term;
  b.action = make_action(0, static_cast<ActionId>(slot & kMaxActionSeq));
  for (int i = 0; i < ops; ++i) {
    SvcOp op;
    // Distinct sessions and registers per slot, as a steady stream of
    // small batches from many sessions looks.
    op.session = slot * 131 + static_cast<std::uint64_t>(i) + 1;
    op.seq = slot + 1;
    op.reg = static_cast<std::int32_t>((slot * 7 + i) % kRegisters);
    op.value = static_cast<std::int64_t>(slot);
    b.ops.push_back(op);
  }
  return b;
}

// Times `body` over `iters` calls and returns nanoseconds per call.
template <class F>
double ns_per_call(int iters, F&& body) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) body();
  return us_since(t0) * 1e3 / iters;
}

}  // namespace

WireProbe probe_wire(int batch_ops) {
  SvcRequest rq;
  rq.op = make_batch(1, 1, 1).ops[0];
  SvcPropose pr;
  pr.term = 3;
  pr.clock = 123456;
  pr.batch = make_batch(4242, std::max(batch_ops, 1), 3);
  SvcReply rp;
  rp.session = 77;
  rp.seq = 12;
  rp.value = 99;
  rp.version = 1234;

  constexpr int kIters = 20'000;
  std::size_t sink = 0;
  auto enc = [&](FrameType t, auto&& payload_fn) {
    return ns_per_call(kIters, [&] {
      sink += encode_frame(t, payload_fn()).size();
    });
  };
  const double e_rq = enc(FrameType::kSvcRequest, [&] { return encode_svc_request(rq); });
  const double e_pr = enc(FrameType::kSvcPropose, [&] { return encode_svc_propose(pr); });
  const double e_rp = enc(FrameType::kSvcReply, [&] { return encode_svc_reply(rp); });

  auto dec = [&](const std::vector<std::uint8_t>& frame, auto&& decode_fn) {
    FrameDecoder d;
    return ns_per_call(kIters, [&] {
      d.feed(frame.data(), frame.size());
      auto f = d.next();
      UDC_CHECK(f.has_value(), "perfbench: wire probe frame did not decode");
      auto p = decode_fn(f->payload.data(), f->payload.size());
      UDC_CHECK(p.has_value(), "perfbench: wire probe payload did not decode");
      sink += f->payload.size();
    });
  };
  const double d_rq = dec(encode_frame(FrameType::kSvcRequest, encode_svc_request(rq)),
                          decode_svc_request);
  const double d_pr = dec(encode_frame(FrameType::kSvcPropose, encode_svc_propose(pr)),
                          decode_svc_propose);
  const double d_rp = dec(encode_frame(FrameType::kSvcReply, encode_svc_reply(rp)),
                          decode_svc_reply);
  UDC_CHECK(sink > 0, "perfbench: wire probe did no work");
  return {(e_rq + e_pr + e_rp) / 3, (d_rq + d_pr + d_rp) / 3};
}

Dist probe_reactor_rtt(int round_trips) {
  std::unique_ptr<Reactor> echo;  // set before any frame can arrive
  ReactorOptions ao;
  ao.self = 0;
  ao.n = 2;
  ao.run_id = 0x7274740aull;
  ao.seed = 1;
  echo = std::make_unique<Reactor>(
      ao,
      [&echo](ProcessId peer, std::uint64_t, const WireFrame& f) {
        echo->send(peer, f.type, f.payload);
      },
      [](ProcessId, std::uint64_t, bool, std::uint16_t) {});
  const std::uint16_t port = echo->listen(0);
  echo->start();

  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t replies = 0;
  bool up = false;
  ReactorOptions bo = ao;
  bo.self = 1;
  bo.seed = 2;
  Reactor dialer(
      bo,
      [&](ProcessId, std::uint64_t, const WireFrame&) {
        std::lock_guard<std::mutex> lk(mu);
        ++replies;
        cv.notify_one();
      },
      [&](ProcessId, std::uint64_t, bool is_up, std::uint16_t) {
        std::lock_guard<std::mutex> lk(mu);
        up = is_up;
        cv.notify_one();
      });
  dialer.start();
  dialer.set_endpoint(0, port);

  std::vector<double> rtt;
  {
    std::unique_lock<std::mutex> lk(mu);
    UDC_CHECK(cv.wait_for(lk, std::chrono::seconds(5), [&] { return up; }),
              "perfbench: reactor probe could not connect");
  }
  SvcRequest rq;
  rq.op = make_batch(1, 1, 1).ops[0];
  const auto payload = encode_svc_request(rq);
  for (int i = 0; i < round_trips + 100; ++i) {
    const auto t0 = Clock::now();
    dialer.send(0, FrameType::kSvcRequest, payload);
    std::unique_lock<std::mutex> lk(mu);
    const std::uint64_t want = static_cast<std::uint64_t>(i) + 1;
    UDC_CHECK(cv.wait_for(lk, std::chrono::seconds(5),
                          [&] { return replies >= want; }),
              "perfbench: reactor probe lost a frame");
    if (i >= 100) rtt.push_back(us_since(t0));  // first 100: warm-up
  }
  dialer.stop();
  echo->stop();
  return dist_of(std::move(rtt));
}

Dist probe_durable_wait(const std::string& dir, int rounds,
                        int events_per_round, std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  const StoreOptions opts = mp_store_options();
  std::vector<double> waits;
  {
    ProcessStore store(dir, 0, opts, {});
    GroupCommitter committer(GroupCommitOptions{opts.barrier, opts.flusher_threads});
    committer.attach(&store);
    Rng rng(seed ^ 0x64757261ull);  // "dura"
    const auto interval_us = static_cast<std::uint64_t>(opts.commit_interval.count());
    Time tick = 0;
    std::size_t appended = 0;
    std::int64_t seq = 0;
    for (int r = 0; r < rounds; ++r) {
      // A random phase against the committer's interval, as protocol
      // events land at arbitrary times relative to it.
      std::this_thread::sleep_for(std::chrono::microseconds(rng.next_below(interval_us)));
      const auto t0 = Clock::now();
      for (int e = 0; e < events_per_round; ++e) {
        store.append(++tick, Event::init(make_action(0, ++seq & kMaxActionSeq)));
        ++appended;
      }
      while (store.durable_floor() < appended) std::this_thread::yield();
      waits.push_back(us_since(t0));
    }
    committer.stop();
  }
  std::filesystem::remove_all(dir);
  return dist_of(std::move(waits));
}

Dist probe_svclog_append(const std::string& dir, int appends, int batch_ops) {
  std::filesystem::create_directories(dir);
  std::vector<double> t;
  {
    SvcDurableLog log(dir + "/probe.log");
    for (int i = 0; i < appends; ++i) {
      const SvcBatch b = make_batch(static_cast<std::uint64_t>(i) + 1,
                                    std::max(batch_ops, 1), 1);
      const auto t0 = Clock::now();
      log.append(b);
      t.push_back(us_since(t0));
    }
  }
  std::filesystem::remove_all(dir);
  return dist_of(std::move(t));
}

LogProbe probe_log(std::size_t slots, int batch_ops, int inflight) {
  LogProbe p;
  p.slots = slots;
  slots = std::max<std::size_t>(slots, static_cast<std::size_t>(inflight) + 1);
  const int ops = std::max(batch_ops, 1);
  const std::uint64_t applied_top = slots - static_cast<std::uint64_t>(inflight);
  ReplicatedLog log;
  std::vector<SvcBatch> batches;
  batches.reserve(slots);
  for (std::uint64_t s = 1; s <= slots; ++s) batches.push_back(make_batch(s, ops, 1));

  // Per-op costs, measured while building the log.
  std::vector<double> accept, ack, commit, apply;
  for (std::uint64_t s = 1; s <= slots; ++s) {
    auto t0 = Clock::now();
    UDC_CHECK(log.accept(batches[s - 1]), "perfbench: log probe accept refused");
    accept.push_back(us_since(t0));
    t0 = Clock::now();
    log.ack(s, 0);
    log.ack(s, 1);
    ack.push_back(us_since(t0) / 2);
    if (s > applied_top) continue;
    t0 = Clock::now();
    log.mark_committed(s);
    commit.push_back(us_since(t0));
    t0 = Clock::now();
    log.mark_applied(s);
    apply.push_back(us_since(t0));
  }
  UDC_CHECK(log.applied_floor() == applied_top, "perfbench: log probe floor");

  // Scans: the calls the node makes on every loop turn / notice.
  constexpr int kReps = 7;
  std::vector<double> ready, learn, unc;
  std::size_t sink = 0;
  for (int r = 0; r < kReps; ++r) {
    auto t0 = Clock::now();
    sink += log.ready().size();
    ready.push_back(us_since(t0));
    t0 = Clock::now();
    log.learn_floor(applied_top, /*notice_term=*/0);  // term 0: marks nothing
    learn.push_back(us_since(t0));
    t0 = Clock::now();
    sink += log.uncommitted().size();
    unc.push_back(us_since(t0));
  }
  UDC_CHECK(sink == static_cast<std::size_t>(kReps) * static_cast<std::size_t>(inflight),
            "perfbench: log probe shape");
  auto med = [](std::vector<double> v) { return dist_of(std::move(v)).p50; };
  p.accept_us = med(accept);
  p.ack_us = med(ack);
  p.mark_committed_us = med(commit);
  p.mark_applied_us = med(apply);
  p.ready_us = med(ready);
  p.learn_floor_us = med(learn);
  p.uncommitted_us = med(unc);
  return p;
}

}  // namespace perfbench
