// Small filesystem helpers shared by the cache and report writers.
//
// The one non-trivial piece is atomic_write_file: the result cache is
// written concurrently by independent campaign processes sharing one
// directory, so entries must appear atomically — a reader may see the
// old file or the new file but never a torn half-write.  POSIX rename()
// within one directory gives exactly that, so every write goes to a
// unique temporary sibling first and is renamed into place.
#ifndef PARMIS_COMMON_FS_HPP
#define PARMIS_COMMON_FS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace parmis {

/// mkdir -p.  Throws parmis::Error if the directory cannot be created.
void make_directories(const std::string& dir);

/// Whole file -> string, byte for byte; std::nullopt if the file cannot
/// be opened or read, or yields fewer bytes than its size (it shrank
/// under the read).
std::optional<std::string> read_file(const std::string& path);

/// Writes `contents` to a unique temporary file in the target's
/// directory, then renames it over `path`.  Concurrent writers race
/// benignly: one complete version wins.  Throws parmis::Error on I/O
/// failure.
void atomic_write_file(const std::string& path, const std::string& contents);

/// Deletes a file if it exists; returns whether it was removed.
bool remove_file(const std::string& path);

/// One directory entry as seen by list_files.
struct FileInfo {
  std::string path;
  std::uintmax_t size = 0;
  std::int64_t mtime_ns = 0;  ///< filesystem clock, for LRU ordering only
};

/// Regular files directly inside `dir` whose names end with `suffix`
/// (empty = all), sorted oldest-first by mtime.  Missing dir = empty.
std::vector<FileInfo> list_files(const std::string& dir,
                                 const std::string& suffix = "");

}  // namespace parmis

#endif  // PARMIS_COMMON_FS_HPP
