// Minimal leveled logger used by the training loops and bench harnesses.
//
// The logger writes to stderr so that bench binaries can keep stdout clean
// for machine-readable tables.  Verbosity is a process-wide setting that
// defaults to Info; the PARMIS_LOG environment variable or
// set_log_level() raise or lower it.
#ifndef PARMIS_COMMON_LOG_HPP
#define PARMIS_COMMON_LOG_HPP

#include <sstream>
#include <string>
#include <string_view>

namespace parmis {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Returns the current process-wide verbosity threshold.
LogLevel log_level();

/// Sets the process-wide verbosity threshold.
void set_log_level(LogLevel level);

/// Parses "debug" / "info" / "warn" / "error" / "off"; defaults to Info.
LogLevel parse_log_level(std::string_view text);

namespace detail {
void log_emit(LogLevel level, std::string_view message);
}  // namespace detail

/// Stream-style log statement: `Log(LogLevel::Info) << "iter " << t;`
/// The message is emitted (with level prefix and timestamp) on destruction.
class Log {
 public:
  explicit Log(LogLevel level) : level_(level) {}
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;
  ~Log() {
    if (level_ >= log_level()) detail::log_emit(level_, stream_.str());
  }

  template <typename T>
  Log& operator<<(const T& value) {
    if (level_ >= log_level()) stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

inline Log log_info() { return Log(LogLevel::Info); }

}  // namespace parmis

#endif  // PARMIS_COMMON_LOG_HPP
