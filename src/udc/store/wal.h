// Durable, CRC-framed, length-prefixed write-ahead log.
//
// On-disk layout: a sequence of frames
//
//   [u32le len] [u32le crc32c(len_bytes || payload)] [payload]
//
// (CRC-32C — x86 computes it in hardware; store/crc32.h dispatches and the
// torture tests pin both the check value and hardware/software agreement.)
//
// with the checksum covering the length prefix as well as the payload, so a
// corrupted length cannot silently re-frame the rest of the file.  The
// reader is TOLERANT: it scans frames until the first one that is short,
// oversized, checksum-mismatched, or undecodable, and reports everything
// before it — the longest valid frame prefix — plus whether a corrupt tail
// follows.  It never throws on corrupt input: a torn or flipped tail is a
// recoverable condition (truncate, rejoin, re-learn; DESIGN.md §9), not a
// programming error.
//
// PR 6 splits the log into two physical layouts behind one WalWriter:
//
//   * single-file (segment_bytes == 0) — the PR 4/5 layout: one file at the
//     base path, appends go straight to the fd.  All pre-existing tests and
//     the inline-fsync durability modes run here unchanged.
//   * segmented (segment_bytes > 0) — the log is a chain of fixed-capacity
//     files `<base>.seg-NNNNNN`, each preallocated at creation (so data
//     appends never grow the inode and `fdatasync` stays a data-only
//     barrier) and SEALED at rotation (ftruncate to its exact data length).
//     The reader stitches segments in sequence order; an all-zero tail is a
//     clean preallocated end, not corruption, and a mid-chain all-zero tail
//     (a seal interrupted between the last write and the ftruncate) is
//     skipped so later synced segments still count.
//
// Appends come in two flavors as well:
//
//   * write-through (ring_frames == 0) — every append issues write(2); what
//     a plain process kill leaves behind is everything appended, because
//     the page cache outlives the process.
//   * staged (ring_frames > 0, the group-commit fast path) — appends encode
//     the frame IN PLACE into a fixed-slot ring buffer (zero heap
//     allocations, no syscall) and the group committer drains the ring with
//     one pwritev(2) per batch.  Staged-but-undrained frames live only in
//     user memory, so the loss window of ANY kill — plain process kill or
//     machine-style kTruncate — is "since the last group commit".
//
// The writer tracks the append/drain/sync ladder in frames and bytes:
// appended (logical, includes staged) >= written (handed to the OS) >=
// synced (covered by a successful barrier).  The written/synced gap is what
// a scripted machine-crash kTruncate fault deletes; the appended/written
// gap is what staging risks between commits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "udc/store/codec.h"

namespace udc {

enum class FsyncPolicy {
  kNever,        // never fsync: a machine crash may lose the entire WAL
  kEveryAppend,  // fsync after every frame: nothing unsynced, slowest
  kEveryN,       // fsync every sync_every frames: bounded unsynced tail
};

// Upper bound on one framed record (8-byte header + the codec's worst
// case).  Frames are variable-length on disk — the varint codec makes a
// typical one a third of this — but the staging ring still uses fixed
// slots of this stride, trading a little idle RAM for an indexable ring.
inline constexpr std::size_t kMaxWalFrameBytes = 8 + kMaxStoreRecordBytes;

// Builds one frame around `payload`.
std::vector<std::uint8_t> wal_frame(const std::vector<std::uint8_t>& payload);

// Zero-allocation framing: writes the 8-byte header + payload into `out`,
// which must have room for `len + 8` bytes.
void wal_frame_into(const std::uint8_t* payload, std::uint32_t len,
                    std::uint8_t* out);

// Grows `fd`'s file to `bytes` of allocated zeros, so writes below that size
// never change the inode size and fdatasync stays a data-only barrier.
// Best effort: without fallocate the file is only extended (ftruncate).
// Callers only grow; `bytes` must not be below the current size.
void preallocate_fd(int fd, std::uint64_t bytes);

struct WalReadResult {
  std::vector<StoreRecord> records;  // decoded longest valid prefix
  std::uint64_t valid_bytes = 0;     // byte length of that prefix
  std::uint64_t file_bytes = 0;      // actual file size (0 if missing)
  bool tail_corrupt = false;         // any bytes (even zeros) past the prefix
  bool tail_nonzero = false;         // a NONZERO byte past the prefix —
                                     // distinguishes real corruption from a
                                     // preallocated segment's zero tail
};

// Tolerant streaming scan of one WAL file (no whole-file slurp: frames are
// parsed out of a bounded carry buffer as chunks arrive).  A missing file
// reads as empty.  `max_read_chunk` > 0 caps the bytes returned per read(2)
// call, exercising the partial-read loop (the kShortRead storage fault).
WalReadResult read_wal_file(const std::string& path,
                            std::size_t max_read_chunk = 0);

// Truncates `path` to its longest valid frame prefix.  Returns true if
// anything was cut.  Missing file is a no-op.
bool repair_wal_file(const std::string& path);

// Segmented layout helpers.  Segment files are `<base>.seg-NNNNNN` with a
// zero-padded decimal sequence number; the chain is read in sequence order
// and must be consecutive (a missing middle segment ends the valid prefix).
std::string wal_segment_path(const std::string& base, unsigned seq);

// Existing segment files for `base`, sorted by sequence number.
std::vector<std::pair<unsigned, std::string>> list_wal_segments(
    const std::string& base);

// Reads a WAL regardless of layout: stitches `<base>.seg-*` files when any
// exist, else falls back to the single file at `base`.  The global valid
// prefix ends at the first invalid frame anywhere in the chain; an all-zero
// tail on the LAST segment (or on a mid-chain segment whose successor is
// intact — an interrupted seal) does not invalidate anything.
WalReadResult read_wal(const std::string& base, std::size_t max_read_chunk = 0);

// Repairs a WAL regardless of layout: truncates the first segment with junk
// past its valid prefix and deletes every later segment (their content is
// past the global prefix by construction).  Returns true iff NONZERO bytes
// were cut — a preallocated zero tail is trimmed silently, so recovery
// counters only tick for real torn/corrupt tails.
bool repair_wal(const std::string& base);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kNever;
  int sync_every = 8;               // frames per barrier under kEveryN
  std::uint64_t segment_bytes = 0;  // >0: segmented layout, else single file
  std::size_t ring_frames = 0;      // >0: staged appends through a slot ring
  bool preallocate = true;          // segmented only: fallocate at creation
};

class SyncBarrier;

// Move-only handle for a two-phase group commit round.  start_commit()
// drains the ring (one pwritev per batch) and hands back the fds that still
// need a durability barrier while HOLDING the writer's drain lock, so the
// group committer can batch the fdatasyncs of many stores into one
// flusher-pool round and only then let each
// writer advance its synced watermark via finish_commit().
struct WalCommitTicket {
  std::unique_lock<std::mutex> lock;  // the writer's drain mutex
  std::vector<int> fds;               // need fdatasync (empty if failing)
  bool pending = false;               // there was staged or unsynced work
  bool sync_failing = false;          // scripted kSyncFail window active
  std::uint64_t target_frames = 0;    // synced watermark if the barrier lands
  std::uint64_t target_bytes = 0;
};

class WalWriter {
 public:
  // Opens (creating if needed) and appends at the end.  Throws
  // InvariantViolation if the log cannot be opened — an unusable log
  // directory is a configuration error, not a scripted fault.
  WalWriter(std::string path, WalOptions opts);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Appends one record and returns the number of frames not yet covered by
  // a successful barrier (same value as unsynced_frames(), computed without
  // extra atomic traffic — callers use it as the group-commit kick signal).
  // At most ONE thread may append at a time (ProcessStore's mutex provides
  // this); appends may overlap freely with commit/start_commit/drain, but
  // not with truncate_all() or close().
  std::uint64_t append(const StoreRecord& r);

  // Drain + policy-independent barrier for everything appended.  Returns
  // true iff there was pending (staged or unsynced) work.  A no-op barrier
  // (counted in sync_failures) while a scripted kSyncFail window is active.
  bool commit();

  // Two-phase commit for the batched group-commit round; see
  // WalCommitTicket.  finish_commit must be called exactly once per ticket
  // with pending == true.
  WalCommitTicket start_commit();
  void finish_commit(WalCommitTicket& t);

  void set_sync_failing(bool failing) {
    sync_failing_.store(failing, std::memory_order_relaxed);
  }

  // Snapshot rotation: empty the log (the snapshot now covers its content).
  // Discards staged frames, deletes every segment, restarts at sequence 0.
  void truncate_all();

  std::uint64_t bytes_written() const {
    return written_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_synced() const {
    return synced_.load(std::memory_order_relaxed);
  }
  std::size_t frames_appended() const {
    return appended_frames_.load(std::memory_order_relaxed);
  }
  // Frames covered by a successful barrier since the last truncate_all —
  // with the records covered by the owning store's snapshot, this is the
  // store's durable floor.
  std::uint64_t frames_synced() const {
    return synced_frames_.load(std::memory_order_relaxed);
  }
  std::size_t sync_failures() const {
    return sync_failures_.load(std::memory_order_relaxed);
  }
  // Frames appended (staged or written) but not yet covered by a
  // successful barrier — what a group committer looks at to decide whether
  // a batch is due, and what a machine-style crash at this instant loses.
  int unsynced_frames() const {
    return static_cast<int>(
        appended_frames_.load(std::memory_order_relaxed) -
        synced_frames_cum_.load(std::memory_order_relaxed));
  }
  bool is_open() const { return open_.load(std::memory_order_relaxed); }

  // Closes all descriptors.  Staged-but-undrained frames are DISCARDED —
  // this is the process-kill point, and under staging the ring dies with
  // the process.  Metadata (segment table, watermarks) survives for the
  // fault-injection methods below.
  void close();

  // Scripted storage faults, applied to the on-disk files after close()
  // the way a crashed machine or bad disk would — from the outside.
  // Appends `len` raw bytes at the end of the live data (used to fabricate
  // a torn frame).
  void inject_torn_write(const std::uint8_t* bytes, std::size_t len);
  // Machine-crash semantics: every byte past the synced watermark is gone.
  // Returns true iff any on-disk byte was cut.
  bool inject_truncate_to_synced();
  // Flips one byte at the given offset into the live data (global across
  // segments).  Returns true iff a byte was flipped.
  bool inject_bit_flip(std::uint64_t offset);

 private:
  struct Segment {
    std::string path;
    std::uint64_t start = 0;  // global byte offset of this segment's data
    std::uint64_t data = 0;   // live data bytes in this segment
  };

  void open_fresh_tail_locked();  // drain_mu_ held
  void open_next_segment_locked();
  void seal_active_locked();
  // Writes `frames` ring slots starting at monotonic slot counter `from`
  // to the active segment, rotating as capacity runs out.  drain_mu_ held.
  void write_ring_frames_locked(std::uint64_t from, std::uint64_t frames);
  void drain_locked();   // drain_mu_ held
  bool commit_locked();  // drain_mu_ held, ring already drained
  std::uint8_t* ring_slot(std::uint64_t i) {
    // ring_frames is checked to be a power of two at construction, so the
    // wrap is a mask, not a division — this sits on the per-append path.
    return ring_.data() + (i & ring_mask_) * kMaxWalFrameBytes;
  }

  std::string path_;
  WalOptions opts_;

  // Lock order: an external ProcessStore mutex, then drain_mu_.  The
  // staging ring is single-producer/single-consumer: appends (serialized
  // by the owner's mutex) publish slots with a release store of ring_tail_
  // and take NO lock at all on the fast path; the drain side (always under
  // drain_mu_) consumes [ring_head_, ring_tail_) and publishes ring_head_.
  // So an append never waits out a pwritev or an fdatasync — a full ring
  // is the only backpressure, and then the appender becomes the consumer
  // by taking drain_mu_ itself.  truncate_all()/close() reset the ring and
  // therefore must not race appends (the owning store's mutex guarantees
  // it; standalone users get the same rule documented on append()).
  std::mutex drain_mu_;

  // Segment table (single-file mode uses one never-sealed entry).  Guarded
  // by drain_mu_.
  std::vector<Segment> segs_;
  unsigned next_seq_ = 0;
  int fd_ = -1;                     // active tail fd
  std::vector<int> sealed_unsynced_;  // sealed fds awaiting their barrier

  // Staging ring: fixed kMaxWalFrameBytes slots holding variable-length
  // frames, SPSC (see lock order above).  head/tail are monotonic slot
  // counters; the slot index is the counter masked by the power-of-two
  // capacity.  scratch_ is the drain's packing buffer: slots are padded,
  // the disk image is not, so the drain compacts frames before writing.
  std::vector<std::uint8_t> ring_;
  std::vector<std::uint8_t> scratch_;  // drain packing buffer (drain_mu_)
  std::size_t ring_mask_ = 0;  // ring_frames - 1 (power-of-two capacity)
  std::atomic<std::uint64_t> ring_head_{0};  // next slot to drain
  std::atomic<std::uint64_t> ring_tail_{0};  // next slot to fill

  std::atomic<bool> open_{false};
  std::atomic<bool> sync_failing_{false};
  std::atomic<std::uint64_t> written_{0};  // on-disk bytes since truncate
  std::atomic<std::uint64_t> synced_{0};   // barrier-covered bytes, ditto
  std::atomic<std::uint64_t> appended_frames_{0};    // cumulative appends
  std::atomic<std::uint64_t> written_frames_{0};     // since truncate
  std::atomic<std::uint64_t> synced_frames_{0};      // since truncate
  std::atomic<std::uint64_t> synced_frames_cum_{0};  // cumulative ledger
  std::atomic<std::uint64_t> sync_failures_{0};
};

}  // namespace udc
