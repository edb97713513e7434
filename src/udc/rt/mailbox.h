// Per-process mailbox for the live runtime: the R2 "one event at a time"
// discipline, concurrently.
//
// Every worker thread owns exactly one Mailbox and is its only consumer; the
// transport dispatcher, the supervisor, and peer-driven deliveries are the
// producers.  The mail type is the worker's: RtMail for a model process,
// SvcMail (svc/node.h) for a service replica.  A closed mailbox models a
// down process: pushes are refused (the transport treats that as a channel
// loss and keeps retrying under its backoff schedule), and queued mail is
// discarded — a crashed process loses exactly its undelivered input,
// nothing else.  A wake (wake()) ends the consumer's wait with no mail:
// the node loop uses it to learn at once that its store's durable floor
// moved (rt/remote/node_shell.h).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "udc/common/types.h"
#include "udc/event/message.h"

namespace udc {

// One unit of worker input.  kDeliver carries a transport delivery (protocol
// message or heartbeat), kInit an environment init directive, kStop the
// shutdown request.
struct RtMail {
  enum class Kind { kDeliver, kInit, kStop };
  Kind kind = Kind::kStop;
  ProcessId from = kInvalidProcess;  // kDeliver: sender
  Message msg;                       // kDeliver payload
  Time send_tick = 0;  // kDeliver: tick at which the sender recorded the
                       // kSend (0 for below-model traffic) — the receiver
                       // asserts its recv tick is strictly larger (R3)
  ActionId action = kInvalidAction;  // kInit
};

// Outcome of a push, so no producer ever has to guess why its mail vanished:
// kAccepted means the consumer will see it; kClosed means the mailbox
// belongs to a down process and the mail was refused — the transport treats
// that as channel loss and keeps retrying, the supervisor counts it.
enum class MailboxPush { kAccepted, kClosed };

template <class Mail>
class Mailbox {
 public:
  // kClosed iff the mailbox is closed (the process is down); the mail is
  // then refused, exactly like a message lost on the wire.
  MailboxPush push(Mail mail) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return MailboxPush::kClosed;
      queue_.push_back(std::move(mail));
    }
    cv_.notify_one();
    return MailboxPush::kAccepted;
  }

  // Pops the next mail, waiting up to `timeout`.  nullopt on timeout,
  // close or wake — the worker loop uses the timeout slot for pacing
  // (heartbeats, detector polls, protocol on_tick).  Every return consumes
  // a pending wake: the caller is awake now either way.
  std::optional<Mail> pop_for(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, timeout,
                 [this] { return closed_ || woken_ || !queue_.empty(); });
    woken_ = false;
    if (queue_.empty()) return std::nullopt;
    Mail mail = std::move(queue_.front());
    queue_.pop_front();
    return mail;
  }

  // Ends the consumer's current pop_for, or its next one, early and with
  // no mail.  Wakes do not queue: any number of them before a pop end just
  // that one pop.  Takes only the mailbox's own (leaf) mutex, so a store's
  // on_durable hook may call it from the group committer's flusher.
  void wake() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      woken_ = true;
    }
    cv_.notify_one();
  }

  // Refuses future pushes, discards queued mail, and wakes the consumer.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      queue_.clear();
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Mail> queue_;
  bool closed_ = false;
  bool woken_ = false;
};

}  // namespace udc
