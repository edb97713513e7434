// Durable per-replica service log: the promise behind every replication ack.
//
// A follower acks a proposed batch only after the batch is ON DISK here
// (write + fdatasync), so a quorum of acks is a quorum of disks — the same
// discipline as the model WAL, reused at the service layer because a
// SIGKILLed follower that acked from RAM would silently shrink the quorum
// a committed batch stands on.
//
// Framing is the store WAL's: [u32le len][u32le crc32c(len||payload)]
// [payload], built by wal_frame(); the payload is the batch encoding the
// propose envelope embeds (put_svc_batch), so the frame a follower accepted
// and the record it persisted can never drift apart.  Recovery reads the
// longest valid frame prefix — a torn tail from a kill mid-append costs
// exactly the unacked record being written.
//
// Zero tail: the file is preallocated in chunks (preallocate_fd, as the
// WAL's segments are) and each frame is pwritten at a tracked offset, so an
// append's fdatasync carries data only, not a new file size.  An open log
// therefore ends in zeros; a zero length word ends the valid prefix, so
// read() sees exactly the appended frames, also in a copy taken while the
// log is open.  A clean close trims the zero tail, leaving file size equal
// to the data length.  Reopen rule: the constructor positions the next
// append at the end of the valid prefix, not at the file size, so a log
// reopened after a kill (zero tail, perhaps a torn frame) never appends
// behind a gap that would hide the new frames from every later read.
//
// The log is append-only and re-appends are meaningful: a batch re-sealed
// under a higher term (failover adoption) or accepted at a new slot appends
// a fresh record, and recovery keeps the LAST record per action id — the
// highest-term acceptance, which is the only one the cluster can have
// committed (a committed slot is quorum-durable, so a successor's sync
// majority always intersects it and never re-seals that action elsewhere).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "udc/svc/wire.h"

namespace udc {

class SvcDurableLog {
 public:
  // Opens `path` for appending (created if missing), positioned at the end
  // of its valid frame prefix.  Throws InvariantViolation if the file cannot
  // be opened.
  explicit SvcDurableLog(std::string path);
  ~SvcDurableLog();  // trims the zero tail

  SvcDurableLog(const SvcDurableLog&) = delete;
  SvcDurableLog& operator=(const SvcDurableLog&) = delete;

  // Durably appends one accepted/sealed batch: the call returns only after
  // fdatasync, so a subsequent ack or propose is backed by the disk.
  void append(const SvcBatch& b);

  std::uint64_t appended() const { return appended_; }
  const std::string& path() const { return path_; }

  // Tolerant whole-log read: every batch in the longest valid frame
  // prefix, in append order (re-acceptances of one action appear multiple
  // times; the caller keeps the last).  A missing file reads as empty.
  static std::vector<SvcBatch> read(const std::string& path);

  // read() plus truncation to the valid prefix (zero tail and torn frame
  // alike) — what recovery uses before re-opening for append, so the file
  // it leaves holds only valid frames.
  static std::vector<SvcBatch> recover(const std::string& path);

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t end_ = 0;        // offset of the next frame
  std::uint64_t allocated_ = 0;  // file size, preallocated through here
  std::uint64_t appended_ = 0;
};

}  // namespace udc
