#include "common/error.hh"

#include <cstdarg>
#include <vector>

namespace quac
{

namespace
{

/** Format a printf-style message into a std::string. */
std::string
vformat(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

} // anonymous namespace

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    throw FatalError("fatal: " + msg);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    throw PanicError("panic: " + msg);
}

void
panicAssert(const char *cond, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string detail = vformat(fmt, args);
    va_end(args);
    throw PanicError("panic: assertion '" + std::string(cond) +
                     "' failed: " + detail);
}

} // namespace quac
