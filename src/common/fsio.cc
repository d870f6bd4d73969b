#include "common/fsio.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

namespace spatter {

namespace {
std::atomic<bool> g_kill_before_rename{false};

Status CloseAndFail(int fd, const std::string& tmp, const char* what) {
  const int saved_errno = errno;
  if (fd >= 0) ::close(fd);
  ::unlink(tmp.c_str());
  return Status::Internal(std::string("cannot ") + what + " temp file '" +
                          tmp + "': " + std::strerror(saved_errno));
}
}  // namespace

void ArmAtomicWriteKillForTest() {
  g_kill_before_rename.store(true, std::memory_order_relaxed);
}

Status AtomicWriteFile(const std::string& path, const void* data,
                       size_t size) {
  // PID-suffixed so concurrent writers (two fleet supervisors pointed at
  // one dir by mistake) never clobber each other's temp file; the suffix
  // also keeps temp names from matching any reader's filename patterns
  // (cc-*.sptc, checkpoint.sptk, *.json).
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld",
                static_cast<long>(::getpid()));
  const std::string tmp = path + suffix;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return CloseAndFail(-1, tmp, "open");
  const char* p = static_cast<const char*>(data);
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, p + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return CloseAndFail(fd, tmp, "write");
    }
    off += static_cast<size_t>(n);
  }
  // fdatasync BEFORE the rename: without it the rename can hit stable
  // storage ahead of the data (journal reordering), and a power loss
  // would leave the target pointing at a zero-length or partial file —
  // with the previous good contents already replaced. The process-kill
  // case does not need it, but a checkpoint's whole purpose is surviving
  // the machine, not just the process.
  if (::fdatasync(fd) != 0) return CloseAndFail(fd, tmp, "sync");
  if (::close(fd) != 0) return CloseAndFail(-1, tmp, "close");
  if (g_kill_before_rename.exchange(false, std::memory_order_relaxed)) {
    ::_exit(3);  // test seam: die like a SIGKILLed writer, pre-rename
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    ::unlink(tmp.c_str());
    return Status::Internal("cannot rename '" + tmp + "' over '" + path +
                            "': " + ec.message());
  }
  // Best-effort directory sync so the rename itself is durable; failure
  // (e.g. an unsupported filesystem) costs durability of the very last
  // write, not atomicity, so it is not an error.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, const std::string& text) {
  return AtomicWriteFile(path, text.data(), text.size());
}

}  // namespace spatter
