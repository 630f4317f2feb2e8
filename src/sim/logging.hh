/**
 * @file
 * Status / error reporting in the gem5 tradition.
 *
 * - panic():  an internal simulator bug; should never happen regardless of
 *             user input. Aborts (so it can core-dump under a debugger).
 * - fatal():  the simulation cannot continue because of a user error
 *             (bad configuration, impossible parameters). Exits cleanly.
 * - warn():   something is modelled approximately or suspiciously.
 * - inform(): plain status output.
 */

#ifndef CHARON_SIM_LOGGING_HH
#define CHARON_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace charon::sim
{

/** Verbosity control for inform(); warnings are always printed. */
enum class LogLevel { Quiet, Normal, Verbose };

/** Set the global log level (default Normal). */
void setLogLevel(LogLevel level);

/** printf-style formatting into a std::string. */
std::string vformat(const char *fmt, std::va_list ap);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Internal-bug abort; never returns. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** User-error exit; never returns. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr. */
void warn(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a status message to stderr (suppressed under Quiet). */
void inform(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a verbose trace message (only under Verbose). */
void trace(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Assert a simulator invariant; active in all build types (unlike
 * assert(), these guard simulation correctness, not just debugging).
 */
#define CHARON_ASSERT(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::charon::sim::panic("assertion '%s' failed at %s:%d: %s",      \
                                 #cond, __FILE__, __LINE__,                 \
                                 ::charon::sim::format(__VA_ARGS__)         \
                                     .c_str());                             \
        }                                                                   \
    } while (0)

} // namespace charon::sim

#endif // CHARON_SIM_LOGGING_HH
