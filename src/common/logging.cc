#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace espsim
{

namespace
{

/** -1 = not yet resolved from ESPSIM_LOG. */
std::atomic<int> g_level{-1};

int
resolveLevel()
{
    int level = static_cast<int>(LogLevel::Info);
    if (const char *env = std::getenv("ESPSIM_LOG")) {
        LogLevel parsed;
        if (parseLogLevel(env, parsed)) {
            level = static_cast<int>(parsed);
        } else if (*env) {
            std::fprintf(stderr,
                         "warn: ignoring malformed ESPSIM_LOG='%s' "
                         "(expected error|warn|info|debug)\n",
                         env);
        }
    }
    return level;
}

/** panic/fatal bypass the level gate: a dying process must say why. */
void
vreport(const char *prefix, const char *fmt, std::va_list args)
{
    std::fprintf(stderr, "%s: ", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Error: return "error";
      case LogLevel::Warn: return "warn";
      case LogLevel::Info: return "info";
      case LogLevel::Debug: return "debug";
    }
    return "unknown";
}

bool
parseLogLevel(const std::string &name, LogLevel &out)
{
    for (const LogLevel level :
         {LogLevel::Error, LogLevel::Warn, LogLevel::Info,
          LogLevel::Debug}) {
        if (name == logLevelName(level)) {
            out = level;
            return true;
        }
    }
    return false;
}

LogLevel
logLevel()
{
    int level = g_level.load(std::memory_order_relaxed);
    if (level < 0) {
        level = resolveLevel();
        // Racing first calls resolve the same env value; last store
        // wins harmlessly.
        g_level.store(level, std::memory_order_relaxed);
    }
    return static_cast<LogLevel>(level);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <= static_cast<int>(logLevel());
}

void
vlogLine(LogLevel level, const char *prefix, const char *fmt,
         std::va_list args)
{
    if (!logEnabled(level))
        return;
    if (prefix)
        std::fprintf(stderr, "%s: ", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

void
logLine(LogLevel level, const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vlogLine(level, nullptr, fmt, args);
    va_end(args);
}

void
logDebug(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vlogLine(LogLevel::Debug, "debug", fmt, args);
    va_end(args);
}


void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vlogLine(LogLevel::Warn, "warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vlogLine(LogLevel::Info, "info", fmt, args);
    va_end(args);
}

} // namespace espsim
