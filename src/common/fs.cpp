#include "common/fs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"

namespace parmis {

namespace fs = std::filesystem;

void make_directories(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  require(!ec && fs::is_directory(dir),
          "fs: cannot create directory: " + dir + " (" + ec.message() + ")");
}

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  std::optional<std::string> out;
  if (::fstat(fd, &st) == 0) {
    // A regular file is read into one buffer of its stat size; anything
    // else (a pipe, a character device) has no size, so it is read in
    // chunks until end of file.
    const bool sized = S_ISREG(st.st_mode);
    std::string text(sized ? static_cast<std::size_t>(st.st_size) : 0, '\0');
    std::size_t got = 0;
    for (;;) {
      if (!sized && got == text.size()) text.resize(got + 65536);
      if (got == text.size()) break;
      const ssize_t n = ::read(fd, text.data() + got, text.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;
      if (n == 0) {
        if (!sized) text.resize(got);
        break;
      }
      got += static_cast<std::size_t>(n);
    }
    if (got == text.size()) out = std::move(text);  // else a short read
  }
  ::close(fd);
  return out;
}

void atomic_write_file(const std::string& path,
                       const std::string& contents) {
  // Unique per process *and* per thread: concurrent CampaignRunners —
  // in-process or separate processes — sharing one cache directory must
  // never share a temporary name.
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid() << "."
           << std::hash<std::thread::id>{}(std::this_thread::get_id()) << "."
           << counter.fetch_add(1);
  const std::string tmp = tmp_name.str();
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    require(os.good(), "fs: cannot open for writing: " + tmp);
    os.write(contents.data(),
             static_cast<std::streamsize>(contents.size()));
    os.flush();
    require(os.good(), "fs: write failed: " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    require(false, "fs: rename failed: " + tmp + " -> " + path);
  }
}

bool remove_file(const std::string& path) {
  std::error_code ec;
  return fs::remove(path, ec) && !ec;
}

std::vector<FileInfo> list_files(const std::string& dir,
                                 const std::string& suffix) {
  std::vector<FileInfo> out;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
    const std::string name = entry.path().filename().string();
    if (!suffix.empty() &&
        (name.size() < suffix.size() ||
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
             0)) {
      continue;
    }
    FileInfo info;
    info.path = entry.path().string();
    info.size = entry.file_size(entry_ec);
    if (entry_ec) info.size = 0;
    const auto mtime = entry.last_write_time(entry_ec);
    info.mtime_ns =
        entry_ec ? 0
                 : std::chrono::duration_cast<std::chrono::nanoseconds>(
                       mtime.time_since_epoch())
                       .count();
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(), [](const FileInfo& a, const FileInfo& b) {
    return a.mtime_ns != b.mtime_ns ? a.mtime_ns < b.mtime_ns
                                    : a.path < b.path;
  });
  return out;
}

}  // namespace parmis
