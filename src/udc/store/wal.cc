#include "udc/store/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "udc/common/check.h"
#include "udc/store/crc32.h"

namespace udc {

namespace {

// Store records encode well under this, but the format allows any payload
// up to this bound; a corrupted length field beyond it is rejected without
// attempting a giant allocation.
constexpr std::uint32_t kMaxFramePayload = 1u << 16;
constexpr std::size_t kFrameHeader = 8;  // u32 len + u32 crc

std::uint32_t frame_crc(std::uint32_t len, const std::uint8_t* payload) {
  std::uint8_t len_bytes[4];
  for (int i = 0; i < 4; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  std::uint32_t c = crc32c(len_bytes, sizeof(len_bytes));
  return crc32c(payload, len, c);
}

void pwrite_all(int fd, const std::uint8_t* data, std::size_t len, off_t off,
                const std::string& path) {
  while (len > 0) {
    ssize_t put = ::pwrite(fd, data, len, off);
    if (put < 0) {
      if (errno == EINTR) continue;
      UDC_CHECK(false, "WAL write failed: " + path);
    }
    data += put;
    off += put;
    len -= static_cast<std::size_t>(put);
  }
}

int datasync_fd(int fd) {
#if defined(__APPLE__)
  return ::fsync(fd);
#else
  return ::fdatasync(fd);
#endif
}

}  // namespace

void preallocate_fd(int fd, std::uint64_t bytes) {
  // Keeping the inode size constant is the whole point: appends into the
  // preallocated region never dirty size metadata, so fdatasync stays a
  // data-only barrier.  Best effort — a filesystem without fallocate just
  // grows the file normally (ftruncate at least pins the size).
#if defined(__linux__)
  if (::fallocate(fd, 0, 0, static_cast<off_t>(bytes)) == 0) return;
#endif
  (void)::ftruncate(fd, static_cast<off_t>(bytes));
}

void wal_frame_into(const std::uint8_t* payload, std::uint32_t len,
                    std::uint8_t* out) {
  UDC_CHECK(len > 0 && len <= kMaxFramePayload,
            "WAL frame payload out of range");
  const std::uint32_t crc = frame_crc(len, payload);
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(len >> (8 * i));
    out[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  // Callers encoding in place pass payload == out + 8 already.
  if (payload != out + kFrameHeader) {
    std::memcpy(out + kFrameHeader, payload, len);
  }
}

std::vector<std::uint8_t> wal_frame(const std::vector<std::uint8_t>& payload) {
  UDC_CHECK(!payload.empty() && payload.size() <= kMaxFramePayload,
            "WAL frame payload out of range");
  std::vector<std::uint8_t> out(kFrameHeader + payload.size());
  wal_frame_into(payload.data(), static_cast<std::uint32_t>(payload.size()),
                 out.data());
  return out;
}

WalReadResult read_wal_file(const std::string& path,
                            std::size_t max_read_chunk) {
  WalReadResult res;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return res;  // missing == empty
  const std::size_t chunk = max_read_chunk > 0 ? max_read_chunk : 65'536;
  std::vector<std::uint8_t> rd(chunk);
  std::vector<std::uint8_t> carry;  // unparsed bytes, bounded by one frame
  bool scanning = true;             // still extending the valid prefix
  for (;;) {
    ssize_t got = ::read(fd, rd.data(), chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      break;  // unreadable tail: treat what we have as the file
    }
    if (got == 0) break;
    res.file_bytes += static_cast<std::uint64_t>(got);
    if (!scanning) {
      // Past the prefix already: only scanning for a nonzero junk byte.
      if (!res.tail_nonzero) {
        for (ssize_t i = 0; i < got; ++i) {
          if (rd[static_cast<std::size_t>(i)] != 0) {
            res.tail_nonzero = true;
            break;
          }
        }
      }
      continue;
    }
    carry.insert(carry.end(), rd.begin(), rd.begin() + got);
    std::size_t pos = 0;
    while (carry.size() - pos >= kFrameHeader) {
      const std::uint8_t* p = carry.data() + pos;
      std::uint32_t len = 0;
      std::uint32_t crc = 0;
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        crc |= static_cast<std::uint32_t>(p[4 + i]) << (8 * i);
      }
      if (len == 0 || len > kMaxFramePayload) {
        scanning = false;
        break;
      }
      if (carry.size() - pos - kFrameHeader < len) break;  // need more bytes
      if (frame_crc(len, p + kFrameHeader) != crc) {  // flipped bits
        scanning = false;
        break;
      }
      auto rec = decode_record(p + kFrameHeader, len);
      if (!rec) {  // checksum-valid but not a record we wrote
        scanning = false;
        break;
      }
      res.records.push_back(*rec);
      pos += kFrameHeader + len;
      res.valid_bytes += kFrameHeader + len;
    }
    carry.erase(carry.begin(), carry.begin() + static_cast<std::ptrdiff_t>(pos));
    if (!scanning) {
      for (std::uint8_t b : carry) {
        if (b != 0) {
          res.tail_nonzero = true;
          break;
        }
      }
      carry.clear();
    }
  }
  ::close(fd);
  if (scanning && !carry.empty()) {  // torn final frame
    for (std::uint8_t b : carry) {
      if (b != 0) {
        res.tail_nonzero = true;
        break;
      }
    }
  }
  res.tail_corrupt = res.file_bytes > res.valid_bytes;
  return res;
}

bool repair_wal_file(const std::string& path) {
  WalReadResult res = read_wal_file(path);
  if (!res.tail_corrupt) return false;
  UDC_CHECK(::truncate(path.c_str(),
                       static_cast<off_t>(res.valid_bytes)) == 0,
            "WAL repair truncate failed: " + path);
  return true;
}

std::string wal_segment_path(const std::string& base, unsigned seq) {
  char suffix[24];
  std::snprintf(suffix, sizeof(suffix), ".seg-%06u", seq);
  return base + suffix;
}

std::vector<std::pair<unsigned, std::string>> list_wal_segments(
    const std::string& base) {
  std::vector<std::pair<unsigned, std::string>> out;
  const std::filesystem::path base_path(base);
  const std::string prefix = base_path.filename().string() + ".seg-";
  std::filesystem::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code ec;
  for (const auto& ent : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.emplace_back(static_cast<unsigned>(std::stoul(digits)),
                     ent.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

WalReadResult read_wal(const std::string& base, std::size_t max_read_chunk) {
  const auto segs = list_wal_segments(base);
  if (segs.empty()) return read_wal_file(base, max_read_chunk);
  WalReadResult out;
  bool stopped = false;
  unsigned expect = segs.front().first;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto& [seq, path] = segs[i];
    const bool last = (i + 1 == segs.size());
    if (stopped || seq != expect) {
      // Past the global prefix (corruption upstream, or a hole in the
      // chain): whatever lives here is junk.
      stopped = true;
      WalReadResult r = read_wal_file(path, max_read_chunk);
      out.file_bytes += r.file_bytes;
      if (r.file_bytes > 0) {
        out.tail_corrupt = true;
        if (r.valid_bytes > 0 || r.tail_nonzero) out.tail_nonzero = true;
      }
      continue;
    }
    ++expect;
    WalReadResult r = read_wal_file(path, max_read_chunk);
    out.records.insert(out.records.end(), r.records.begin(), r.records.end());
    out.valid_bytes += r.valid_bytes;
    out.file_bytes += r.file_bytes;
    if (r.tail_nonzero) {
      // Real junk: the global prefix ends inside this segment.
      stopped = true;
      out.tail_corrupt = true;
      out.tail_nonzero = true;
    } else if (r.tail_corrupt) {
      // All-zero tail: the preallocated end of the active segment, or a
      // seal interrupted between its last write and its ftruncate.  Either
      // way the zeros carry no frames — keep stitching so synced data in
      // later segments still counts.
      out.tail_corrupt = true;
      (void)last;
    }
  }
  return out;
}

bool repair_wal(const std::string& base) {
  const auto segs = list_wal_segments(base);
  if (segs.empty()) return repair_wal_file(base);
  bool cut_nonzero = false;
  bool kill_rest = false;
  unsigned expect = segs.front().first;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto& [seq, path] = segs[i];
    if (kill_rest || seq != expect) {
      WalReadResult r = read_wal_file(path);
      if (r.valid_bytes > 0 || r.tail_nonzero) cut_nonzero = true;
      std::error_code ec;
      std::filesystem::remove(path, ec);
      kill_rest = true;
      continue;
    }
    ++expect;
    WalReadResult r = read_wal_file(path);
    if (r.tail_nonzero) {
      UDC_CHECK(::truncate(path.c_str(),
                           static_cast<off_t>(r.valid_bytes)) == 0,
                "WAL repair truncate failed: " + path);
      cut_nonzero = true;
      kill_rest = true;  // everything after is past the global prefix
    } else if (r.tail_corrupt) {
      // Zero tail (preallocation / interrupted seal): trim silently so the
      // next incarnation sees exact sizes, but this is not a torn tail.
      UDC_CHECK(::truncate(path.c_str(),
                           static_cast<off_t>(r.valid_bytes)) == 0,
                "WAL repair truncate failed: " + path);
    }
  }
  return cut_nonzero;
}

WalWriter::WalWriter(std::string path, WalOptions opts)
    : path_(std::move(path)), opts_(opts) {
  UDC_CHECK(opts_.fsync != FsyncPolicy::kEveryN || opts_.sync_every >= 1,
            "WalWriter: kEveryN needs sync_every >= 1");
  UDC_CHECK(opts_.segment_bytes == 0 ||
                opts_.segment_bytes >= kMaxWalFrameBytes,
            "WalWriter: segment_bytes must hold at least one frame");
  UDC_CHECK(opts_.ring_frames == 0 || opts_.fsync == FsyncPolicy::kNever,
            "WalWriter: staged appends need an external commit driver");
  UDC_CHECK((opts_.ring_frames & (opts_.ring_frames - 1)) == 0,
            "WalWriter: ring_frames must be a power of two");
  if (opts_.ring_frames > 0) {
    ring_.resize(opts_.ring_frames * kMaxWalFrameBytes);
    scratch_.reserve(opts_.ring_frames * kMaxWalFrameBytes);
    ring_mask_ = opts_.ring_frames - 1;
  }

  std::lock_guard<std::mutex> dl(drain_mu_);
  if (opts_.segment_bytes == 0) {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    UDC_CHECK(fd_ >= 0, "WalWriter: cannot open " + path_);
    struct stat st {};
    UDC_CHECK(::fstat(fd_, &st) == 0, "WalWriter: cannot stat " + path_);
    segs_.push_back({path_, 0, static_cast<std::uint64_t>(st.st_size)});
  } else {
    const auto existing = list_wal_segments(path_);
    std::uint64_t total = 0;
    for (const auto& [seq, spath] : existing) {
      // Reopening an intact chain (recovery truncates before reuse, so a
      // zero tail here is at worst preallocation): live data is the valid
      // frame prefix.
      WalReadResult r = read_wal_file(spath);
      segs_.push_back({spath, total, r.valid_bytes});
      total += r.valid_bytes;
      next_seq_ = seq + 1;
    }
    if (segs_.empty()) {
      open_fresh_tail_locked();
    } else {
      fd_ = ::open(segs_.back().path.c_str(), O_RDWR | O_CLOEXEC);
      UDC_CHECK(fd_ >= 0, "WalWriter: cannot open " + segs_.back().path);
    }
  }
  // Reopened after recovery: everything already on disk counts as synced
  // (recovery fsyncs what it keeps).
  const std::uint64_t on_disk = segs_.empty() ? 0 : segs_.back().start +
                                                        segs_.back().data;
  written_.store(on_disk, std::memory_order_relaxed);
  synced_.store(on_disk, std::memory_order_relaxed);
  open_.store(true, std::memory_order_relaxed);
}

WalWriter::~WalWriter() { close(); }

void WalWriter::open_fresh_tail_locked() { open_next_segment_locked(); }

void WalWriter::open_next_segment_locked() {
  const std::string spath = wal_segment_path(path_, next_seq_);
  int fd = ::open(spath.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  UDC_CHECK(fd >= 0, "WalWriter: cannot open " + spath);
  if (opts_.preallocate) preallocate_fd(fd, opts_.segment_bytes);
  segs_.push_back({spath, written_.load(std::memory_order_relaxed), 0});
  ++next_seq_;
  fd_ = fd;
}

void WalWriter::seal_active_locked() {
  Segment& s = segs_.back();
  if (opts_.preallocate) {
    // Cut the preallocated zero tail so the sealed file's size IS its data
    // length; the deferred fdatasync below makes both durable at once.
    (void)::ftruncate(fd_, static_cast<off_t>(s.data));
  }
  sealed_unsynced_.push_back(fd_);
  fd_ = -1;
}

void WalWriter::write_ring_frames_locked(std::uint64_t from,
                                         std::uint64_t frames) {
  // Slots are padded to a fixed stride but the disk image is packed, so
  // the drain compacts each segment's worth of frames into scratch_ and
  // hands it to the kernel as one pwrite.  The memcpy is cheap — frames
  // average a few tens of bytes — and buys back its cost many times over
  // in fdatasync writeback, which is priced per dirty byte.
  scratch_.clear();
  std::uint64_t batch_frames = 0;
  auto flush_batch = [&] {
    if (scratch_.empty()) return;
    Segment& s = segs_.back();
    pwrite_all(fd_, scratch_.data(), scratch_.size(),
               static_cast<off_t>(s.data), s.path);
    s.data += scratch_.size();
    written_.fetch_add(scratch_.size(), std::memory_order_relaxed);
    written_frames_.fetch_add(batch_frames, std::memory_order_relaxed);
    scratch_.clear();
    batch_frames = 0;
  };
  for (std::uint64_t i = from; i != from + frames; ++i) {
    const std::uint8_t* slot = ring_slot(i);
    std::uint32_t len = 0;
    for (int j = 0; j < 4; ++j) {
      len |= static_cast<std::uint32_t>(slot[j]) << (8 * j);
    }
    const std::size_t frame_bytes = kFrameHeader + len;
    if (opts_.segment_bytes > 0 &&
        segs_.back().data + scratch_.size() + frame_bytes >
            opts_.segment_bytes) {
      // The construction-time check segment_bytes >= kMaxWalFrameBytes
      // guarantees the fresh segment can hold this frame.
      flush_batch();
      seal_active_locked();
      open_next_segment_locked();
    }
    scratch_.insert(scratch_.end(), slot, slot + frame_bytes);
    ++batch_frames;
  }
  flush_batch();
}

void WalWriter::drain_locked() {
  // Consumer side of the SPSC ring (drain_mu_ held): acquire the producer's
  // published tail, push [head, tail) to the kernel, release the new head.
  const std::uint64_t head = ring_head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring_tail_.load(std::memory_order_acquire);
  if (head == tail) return;
  write_ring_frames_locked(head, tail - head);
  ring_head_.store(tail, std::memory_order_release);
}

std::uint64_t WalWriter::append(const StoreRecord& r) {
  UDC_CHECK(is_open(), "WalWriter: append after close");
  // Appends are externally serialized (one appender at a time), so every
  // counter below uses plain load+store instead of a lock-prefixed RMW —
  // they sit on the per-event hot path.
  if (opts_.ring_frames > 0) {
    // Staged fast path: encode straight into a free ring slot and publish
    // it with one release store — no lock, no heap allocation, no syscall.
    // A full ring makes the appender drain it itself (backpressure), which
    // can wait out a concurrent batch write but never an fdatasync.
    const std::uint64_t tail = ring_tail_.load(std::memory_order_relaxed);
    if (tail - ring_head_.load(std::memory_order_acquire) ==
        opts_.ring_frames) {
      std::lock_guard<std::mutex> dl(drain_mu_);
      drain_locked();
    }
    std::uint8_t* slot = ring_slot(tail);
    const std::size_t len = encode_record_into(r, slot + kFrameHeader);
    wal_frame_into(slot + kFrameHeader, static_cast<std::uint32_t>(len),
                   slot);
    ring_tail_.store(tail + 1, std::memory_order_release);
    const std::uint64_t appended =
        appended_frames_.load(std::memory_order_relaxed) + 1;
    appended_frames_.store(appended, std::memory_order_relaxed);
    return appended - synced_frames_cum_.load(std::memory_order_relaxed);
  }

  // Write-through path: one stack-buffered frame, one pwrite — the frame
  // reaches the page cache immediately, so a plain process kill loses
  // nothing that was appended.
  std::lock_guard<std::mutex> dl(drain_mu_);
  std::uint8_t frame[kMaxWalFrameBytes];
  const std::size_t len = encode_record_into(r, frame + kFrameHeader);
  wal_frame_into(frame + kFrameHeader, static_cast<std::uint32_t>(len),
                 frame);
  const std::size_t frame_bytes = kFrameHeader + len;
  Segment* s = &segs_.back();
  if (opts_.segment_bytes > 0 &&
      s->data + frame_bytes > opts_.segment_bytes) {
    seal_active_locked();
    open_next_segment_locked();
    s = &segs_.back();
  }
  pwrite_all(fd_, frame, frame_bytes, static_cast<off_t>(s->data), s->path);
  s->data += frame_bytes;
  written_.store(written_.load(std::memory_order_relaxed) + frame_bytes,
                 std::memory_order_relaxed);
  written_frames_.store(
      written_frames_.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  const std::uint64_t appended =
      appended_frames_.load(std::memory_order_relaxed) + 1;
  appended_frames_.store(appended, std::memory_order_relaxed);
  if (opts_.fsync == FsyncPolicy::kEveryAppend ||
      (opts_.fsync == FsyncPolicy::kEveryN &&
       unsynced_frames() >= opts_.sync_every)) {
    commit_locked();
  }
  return appended - synced_frames_cum_.load(std::memory_order_relaxed);
}

bool WalWriter::commit() {
  std::lock_guard<std::mutex> dl(drain_mu_);
  if (!is_open()) return false;
  drain_locked();
  return commit_locked();
}

bool WalWriter::commit_locked() {
  // drain_mu_ held; the staged ring (if any) has already been drained by
  // the caller, so written_ covers everything appended.
  const std::uint64_t written = written_.load(std::memory_order_relaxed);
  const bool pending = written > synced_.load(std::memory_order_relaxed) ||
                       !sealed_unsynced_.empty();
  if (!pending) return false;
  if (sync_failing_.load(std::memory_order_relaxed)) {
    // Scripted fsync failure: the kernel accepted the writes but the
    // barrier silently did nothing — the firmware-lies failure mode.
    sync_failures_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  for (int fd : sealed_unsynced_) {
    datasync_fd(fd);
    ::close(fd);
  }
  sealed_unsynced_.clear();
  if (fd_ >= 0) datasync_fd(fd_);
  const std::uint64_t wf = written_frames_.load(std::memory_order_relaxed);
  const std::uint64_t delta = wf - synced_frames_.load(std::memory_order_relaxed);
  synced_.store(written, std::memory_order_relaxed);
  synced_frames_.store(wf, std::memory_order_relaxed);
  synced_frames_cum_.fetch_add(delta, std::memory_order_relaxed);
  return true;
}

WalCommitTicket WalWriter::start_commit() {
  WalCommitTicket t;
  t.lock = std::unique_lock<std::mutex>(drain_mu_);
  if (!is_open()) {
    t.lock.unlock();
    return t;
  }
  drain_locked();
  const std::uint64_t written = written_.load(std::memory_order_relaxed);
  t.pending = written > synced_.load(std::memory_order_relaxed) ||
              !sealed_unsynced_.empty();
  if (!t.pending) {
    t.lock.unlock();
    return t;
  }
  t.sync_failing = sync_failing_.load(std::memory_order_relaxed);
  t.target_bytes = written;
  t.target_frames = written_frames_.load(std::memory_order_relaxed);
  if (!t.sync_failing) {
    t.fds = sealed_unsynced_;
    if (fd_ >= 0) t.fds.push_back(fd_);
  }
  return t;  // drain lock stays held until finish_commit
}

void WalWriter::finish_commit(WalCommitTicket& t) {
  UDC_CHECK(t.pending && t.lock.owns_lock(),
            "WalWriter: finish_commit without a pending ticket");
  if (t.sync_failing) {
    sync_failures_.fetch_add(1, std::memory_order_relaxed);
  } else {
    for (int fd : sealed_unsynced_) ::close(fd);
    sealed_unsynced_.clear();
    const std::uint64_t delta =
        t.target_frames - synced_frames_.load(std::memory_order_relaxed);
    synced_.store(t.target_bytes, std::memory_order_relaxed);
    synced_frames_.store(t.target_frames, std::memory_order_relaxed);
    synced_frames_cum_.fetch_add(delta, std::memory_order_relaxed);
  }
  t.lock.unlock();
}

void WalWriter::truncate_all() {
  // Must not race an append (see append()); the store's mutex guarantees
  // it, so resetting the ring counters here is safe.
  std::lock_guard<std::mutex> dl(drain_mu_);
  UDC_CHECK(is_open(), "WalWriter: truncate after close");
  ring_head_.store(0, std::memory_order_relaxed);
  ring_tail_.store(0, std::memory_order_relaxed);
  if (opts_.segment_bytes == 0) {
    UDC_CHECK(::ftruncate(fd_, 0) == 0,
              "WalWriter: truncate failed: " + path_);
    segs_.back().data = 0;
  } else {
    for (int fd : sealed_unsynced_) ::close(fd);
    sealed_unsynced_.clear();
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    for (const Segment& s : segs_) {
      std::error_code ec;
      std::filesystem::remove(s.path, ec);
    }
    segs_.clear();
    next_seq_ = 0;
    written_.store(0, std::memory_order_relaxed);
    open_next_segment_locked();
  }
  written_.store(0, std::memory_order_relaxed);
  synced_.store(0, std::memory_order_relaxed);
  written_frames_.store(0, std::memory_order_relaxed);
  synced_frames_.store(0, std::memory_order_relaxed);
  // Everything ever appended is now either durable via the snapshot that
  // triggered this rotation or intentionally discarded: the unsynced ledger
  // restarts empty.
  synced_frames_cum_.store(appended_frames_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
}

void WalWriter::close() {
  std::lock_guard<std::mutex> dl(drain_mu_);
  if (!is_open()) return;
  // This is the kill point: staged frames die with the process (they were
  // never handed to the kernel), while written-but-unsynced bytes survive
  // in the page cache until a scripted kTruncate models the machine crash.
  // Like truncate_all, close() must not race an append.
  ring_head_.store(ring_tail_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  for (int fd : sealed_unsynced_) ::close(fd);
  sealed_unsynced_.clear();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  open_.store(false, std::memory_order_relaxed);
}

void WalWriter::inject_torn_write(const std::uint8_t* bytes,
                                  std::size_t len) {
  UDC_CHECK(!is_open(), "inject_torn_write on an open writer");
  UDC_CHECK(!segs_.empty(), "inject_torn_write without a segment");
  const Segment& s = segs_.back();
  int fd = ::open(s.path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  UDC_CHECK(fd >= 0, "storage fault: cannot open " + s.path);
  pwrite_all(fd, bytes, len, static_cast<off_t>(s.data), s.path);
  ::close(fd);
}

bool WalWriter::inject_truncate_to_synced() {
  UDC_CHECK(!is_open(), "inject_truncate_to_synced on an open writer");
  const std::uint64_t synced = synced_.load(std::memory_order_relaxed);
  bool cut = false;
  for (const Segment& s : segs_) {
    const std::uint64_t keep =
        synced <= s.start ? 0
        : synced >= s.start + s.data ? s.data
                                     : synced - s.start;
    if (keep < s.data) {
      UDC_CHECK(::truncate(s.path.c_str(), static_cast<off_t>(keep)) == 0,
                "storage fault: truncate failed");
      cut = true;
    }
  }
  return cut;
}

bool WalWriter::inject_bit_flip(std::uint64_t offset) {
  UDC_CHECK(!is_open(), "inject_bit_flip on an open writer");
  for (const Segment& s : segs_) {
    if (offset < s.start || offset >= s.start + s.data) continue;
    int fd = ::open(s.path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) return false;  // nothing to corrupt
    std::uint8_t b = 0;
    bool flipped = false;
    if (::pread(fd, &b, 1, static_cast<off_t>(offset - s.start)) == 1) {
      b ^= 0xFFu;
      ::pwrite(fd, &b, 1, static_cast<off_t>(offset - s.start));
      flipped = true;
    }
    ::close(fd);
    return flipped;
  }
  return false;
}

}  // namespace udc
