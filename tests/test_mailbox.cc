// Mailbox (rt/mailbox.h): the R2 one-event-at-a-time discipline, and the
// push/close protocol under the races the live runtime actually produces —
// transport dispatchers pushing while the supervisor closes a crashed
// worker's mailbox.  The concurrency test is a TSan target (the rt-tsan CI
// job runs it): the interesting output is the absence of data-race reports,
// the assertions are the accounting invariants.
#include "udc/rt/mailbox.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "udc/svc/node.h"

namespace udc {
namespace {

RtMail deliver_mail(std::int64_t tag) {
  RtMail m;
  m.kind = RtMail::Kind::kDeliver;
  m.from = 0;
  m.msg.kind = MsgKind::kApp;
  m.msg.a = tag;
  return m;
}

TEST(Mailbox, PushReportsAcceptanceAndCloseRefuses) {
  Mailbox<RtMail> mb;
  EXPECT_EQ(mb.push(deliver_mail(1)), MailboxPush::kAccepted);
  auto got = mb.pop_for(std::chrono::microseconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->msg.a, 1);

  mb.close();
  // A closed mailbox REPORTS the refusal — the producer decides what loss
  // means (the transport retries, the supervisor counts).
  EXPECT_EQ(mb.push(deliver_mail(2)), MailboxPush::kClosed);
  EXPECT_TRUE(mb.closed());
  EXPECT_FALSE(mb.pop_for(std::chrono::microseconds(1)).has_value());
}

TEST(Mailbox, CloseDiscardsQueuedMailAndWakesTheConsumer) {
  Mailbox<RtMail> mb;
  EXPECT_EQ(mb.push(deliver_mail(1)), MailboxPush::kAccepted);
  EXPECT_EQ(mb.push(deliver_mail(2)), MailboxPush::kAccepted);
  mb.close();
  // Queued mail dies with the process — a crash loses exactly its
  // undelivered input.
  EXPECT_FALSE(mb.pop_for(std::chrono::seconds(5)).has_value());
}

TEST(Mailbox, ConcurrentPushersVsCloseAccountForEveryMail) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2'000;
  Mailbox<RtMail> mb;
  std::atomic<std::size_t> pushed_ok{0};
  std::atomic<std::size_t> refused{0};
  std::atomic<std::size_t> consumed{0};

  std::thread consumer([&] {
    for (;;) {
      auto mail = mb.pop_for(std::chrono::microseconds(100));
      if (mail) {
        consumed.fetch_add(1);
      } else if (mb.closed()) {
        return;
      }
    }
  });

  std::vector<std::thread> producers;
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&, i] {
      for (int k = 0; k < kPerProducer; ++k) {
        if (mb.push(deliver_mail(i * kPerProducer + k)) ==
            MailboxPush::kAccepted) {
          pushed_ok.fetch_add(1);
        } else {
          refused.fetch_add(1);
        }
      }
    });
  }

  // Close mid-stream: everything after this point must be refused, and no
  // producer may observe a torn queue (that is TSan's half of the test).
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  mb.close();
  for (auto& t : producers) t.join();
  consumer.join();

  EXPECT_EQ(pushed_ok.load() + refused.load(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  // close() discards the queue, so consumption never exceeds acceptance.
  EXPECT_LE(consumed.load(), pushed_ok.load());
  // And the mailbox stays closed: a straggler is refused, not dropped.
  EXPECT_EQ(mb.push(deliver_mail(-1)), MailboxPush::kClosed);
}

// The service replica's mail (raw wire frames) rides the same mailbox: a
// stopped replica refuses late frames and drops what it had queued.
SvcMail frame_mail(ProcessId peer) {
  SvcMail m;
  m.peer = peer;
  m.frame.type = FrameType::kSvcRequest;
  m.frame.payload = {1, 2, 3};
  return m;
}

// The node loop's durability wake: it ends a long wait at once with no
// mail, a wake before the pop ends that pop, and wakes do not queue.
TEST(Mailbox, WakeEndsPopForEarlyWithNoMail) {
  Mailbox<RtMail> mb;
  const auto start = std::chrono::steady_clock::now();
  std::thread waker([&mb] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.wake();
  });
  EXPECT_FALSE(mb.pop_for(std::chrono::seconds(10)).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  waker.join();

  mb.wake();
  mb.wake();
  const auto again = std::chrono::steady_clock::now();
  EXPECT_FALSE(mb.pop_for(std::chrono::seconds(10)).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - again, std::chrono::seconds(5));
  // Both wakes were spent on that one pop: this one waits out its timeout.
  const auto third = std::chrono::steady_clock::now();
  EXPECT_FALSE(mb.pop_for(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - third,
            std::chrono::milliseconds(20));

  // A wake never hides mail.
  mb.wake();
  EXPECT_EQ(mb.push(deliver_mail(7)), MailboxPush::kAccepted);
  auto got = mb.pop_for(std::chrono::seconds(10));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->msg.a, 7);
}

TEST(Mailbox, SvcMailPushAfterCloseIsRefused) {
  Mailbox<SvcMail> mb;
  EXPECT_EQ(mb.push(frame_mail(kClientPeerBase)), MailboxPush::kAccepted);
  auto got = mb.pop_for(std::chrono::seconds(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->peer, kClientPeerBase);
  EXPECT_EQ(got->frame.payload, (std::vector<std::uint8_t>{1, 2, 3}));
  mb.close();
  EXPECT_EQ(mb.push(frame_mail(1)), MailboxPush::kClosed);
  EXPECT_FALSE(mb.pop_for(std::chrono::microseconds(1)).has_value());
}

TEST(Mailbox, SvcMailCloseClearsTheQueue) {
  Mailbox<SvcMail> mb;
  EXPECT_EQ(mb.push(frame_mail(1)), MailboxPush::kAccepted);
  EXPECT_EQ(mb.push(frame_mail(2)), MailboxPush::kAccepted);
  mb.close();
  EXPECT_TRUE(mb.closed());
  EXPECT_FALSE(mb.pop_for(std::chrono::seconds(5)).has_value());
}

}  // namespace
}  // namespace udc
