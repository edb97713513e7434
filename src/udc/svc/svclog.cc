#include "udc/svc/svclog.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "udc/common/check.h"
#include "udc/net/wire.h"
#include "udc/store/crc32.h"
#include "udc/store/wal.h"

namespace udc {

namespace {

// Growth step of the preallocated region: one size change per chunk, not
// one per append (a batch frame is tens of bytes).
constexpr std::uint64_t kPreallocChunk = 1u << 20;

struct ScanResult {
  std::vector<SvcBatch> entries;
  std::uint64_t valid_bytes = 0;
  std::uint64_t file_bytes = 0;
};

ScanResult scan_log(const std::string& path) {
  ScanResult res;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return res;  // missing log = empty log
  std::vector<std::uint8_t> data;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) break;
    data.insert(data.end(), buf, buf + r);
  }
  ::close(fd);
  res.file_bytes = data.size();
  // Longest valid frame prefix: stop at the first frame whose header,
  // length, or checksum does not hold (a torn tail, not corruption to
  // resync past — this file has exactly one writer).
  std::size_t pos = 0;
  while (data.size() - pos >= 8) {
    const std::uint8_t* p = data.data() + pos;
    std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                        (static_cast<std::uint32_t>(p[1]) << 8) |
                        (static_cast<std::uint32_t>(p[2]) << 16) |
                        (static_cast<std::uint32_t>(p[3]) << 24);
    std::uint32_t want = static_cast<std::uint32_t>(p[4]) |
                         (static_cast<std::uint32_t>(p[5]) << 8) |
                         (static_cast<std::uint32_t>(p[6]) << 16) |
                         (static_cast<std::uint32_t>(p[7]) << 24);
    if (len == 0 || len > kMaxWirePayload || data.size() - pos - 8 < len) {
      break;
    }
    std::uint32_t crc = crc32c(p, 4);
    crc = crc32c(p + 8, len, crc);
    if (crc != want) break;
    auto b = decode_svc_batch(p + 8, len);
    if (!b) break;
    res.entries.push_back(std::move(*b));
    pos += 8 + len;
  }
  res.valid_bytes = pos;
  return res;
}

}  // namespace

SvcDurableLog::SvcDurableLog(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  UDC_CHECK(fd_ >= 0, "svclog: open(" + path_ +
                          ") failed: " + std::strerror(errno));
  // Append after the valid prefix, never after the file's end: a log left
  // by a kill still carries its zero tail (and maybe a torn frame), and a
  // frame written past either would be invisible to every later read.
  end_ = scan_log(path_).valid_bytes;
  struct stat st {};
  UDC_CHECK(::fstat(fd_, &st) == 0, "svclog: fstat(" + path_ + ") failed");
  allocated_ = static_cast<std::uint64_t>(st.st_size);
}

SvcDurableLog::~SvcDurableLog() {
  if (fd_ < 0) return;
  // Trim the unused preallocation so the file size is the data length
  // again.  Only size metadata changes, and a zero tail that survived a
  // crash here would read the same.
  if (allocated_ > end_) (void)::ftruncate(fd_, static_cast<off_t>(end_));
  ::close(fd_);
}

void SvcDurableLog::append(const SvcBatch& b) {
  std::vector<std::uint8_t> payload;
  put_svc_batch(payload, b);
  const auto frame = wal_frame(payload);
  if (end_ + frame.size() > allocated_) {
    allocated_ = (end_ + frame.size() + kPreallocChunk - 1) / kPreallocChunk *
                 kPreallocChunk;
    preallocate_fd(fd_, allocated_);
  }
  std::size_t off = 0;
  while (off < frame.size()) {
    ssize_t w = ::pwrite(fd_, frame.data() + off, frame.size() - off,
                         static_cast<off_t>(end_ + off));
    if (w < 0) {
      if (errno == EINTR) continue;
      throw InvariantViolation("svclog: write failed: " +
                               std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(w);
  }
  UDC_CHECK(::fdatasync(fd_) == 0, "svclog: fdatasync failed");
  end_ += frame.size();
  ++appended_;
}

std::vector<SvcBatch> SvcDurableLog::read(const std::string& path) {
  return scan_log(path).entries;
}

std::vector<SvcBatch> SvcDurableLog::recover(const std::string& path) {
  ScanResult res = scan_log(path);
  if (res.valid_bytes < res.file_bytes) {
    int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd >= 0) {
      if (::ftruncate(fd, static_cast<off_t>(res.valid_bytes)) == 0) {
        ::fdatasync(fd);
      }
      ::close(fd);
    }
  }
  return std::move(res.entries);
}

}  // namespace udc
