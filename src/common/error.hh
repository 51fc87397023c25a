/**
 * @file
 * Error-reporting helpers in the gem5 fatal()/panic() idiom.
 *
 * fatal() is for user-caused conditions (bad configuration, invalid
 * arguments); panic() is for internal invariant violations that should
 * never happen regardless of user input. Both throw exceptions rather
 * than aborting so that unit tests can assert on failure paths.
 */

#ifndef QUAC_COMMON_ERROR_HH
#define QUAC_COMMON_ERROR_HH

#include <cstdio>
#include <stdexcept>
#include <string>

namespace quac
{

/** Raised by fatal(): the simulation cannot continue due to user error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Raised by panic(): an internal invariant was violated (a bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg) {}
};

/**
 * Report a user-caused error and abort the current operation.
 * @param fmt printf-style format string.
 */
[[noreturn]] void fatal(const char *fmt, ...);

/**
 * Report an internal invariant violation (a simulator bug).
 * @param fmt printf-style format string.
 */
[[noreturn]] void panic(const char *fmt, ...);

/**
 * Implementation hook for QUAC_ASSERT: formats the condition text and
 * the user's printf-style detail message into one panic.
 */
[[noreturn]] void panicAssert(const char *cond, const char *fmt, ...);

/** panic() unless the condition holds. */
#define QUAC_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond))                                                        \
            ::quac::panicAssert(#cond, __VA_ARGS__);                        \
    } while (0)

} // namespace quac

#endif // QUAC_COMMON_ERROR_HH
