#ifndef QBASIS_UTIL_LOGGING_HPP
#define QBASIS_UTIL_LOGGING_HPP

/**
 * @file
 * Status-message helpers in the spirit of gem5's logging.hh.
 *
 * `fatal()` is for user-caused conditions the program cannot recover
 * from (bad configuration, impossible requests); `panic()` is for
 * conditions that indicate a bug in qbasis itself. `warn()`/`inform()`
 * never stop execution.
 */

#include <cstdarg>
#include <cstdint>
#include <exception>
#include <string>

namespace qbasis {

/**
 * Small sequential id of the calling thread (first caller gets 0).
 * Stable for the thread's lifetime; stamped onto every log line and
 * reused as the `tid` of trace exports (obs/trace.hpp) so log output
 * and Perfetto tracks attribute to the same thread numbers.
 */
uint32_t threadLogId();

/** Monotonic milliseconds since the first logging/trace call in this
 *  process -- the timestamp prefixed to every log line. */
double logElapsedMs();

/** Verbosity levels for the global logger. */
enum class LogLevel { Silent = 0, Warn = 1, Inform = 2, Debug = 3 };

/** Set the global verbosity; defaults to Inform. */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/** Print an informational message (printf formatting). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning about questionable-but-survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a debug trace message (only at LogLevel::Debug). */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable, user-caused error and throw.
 *
 * Throws std::runtime_error so tests can assert on failure paths
 * instead of killing the process.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal invariant violation (a qbasis bug) and throw. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** what() of a captured exception ("unknown error" for a non-
 *  std::exception). */
std::string describeError(const std::exception_ptr &error);

} // namespace qbasis

#endif // QBASIS_UTIL_LOGGING_HPP
