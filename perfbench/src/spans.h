/**
 * @file
 * Outside-in span recording for the benchmark's traced runs.
 *
 * The benchmark wraps each call it makes into a layer's public
 * function in timed(layer, name, fn). While a SpanLog is installed the
 * call is recorded as a span (layer, name, start, end, parent); with
 * no log installed timed() is a plain call, so untraced runs measure
 * the program alone. Spans stay in memory until the run ends.
 *
 * Parents follow the calling thread's open spans. Work a span hands to
 * other threads (fine-tune candidates on the RunExecutor) re-parents
 * itself under that span with AdoptParent.
 */

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    const char *layer = "";
    const char *name = "";
    std::uint32_t id = 0;
    /** 0 for a root span (a call made directly by the workload). */
    std::uint32_t parent = 0;
    Clock::time_point start;
    Clock::time_point end;
};

/** Self time of one (layer, name) pair, summed over its spans. */
struct SpanTotal
{
    std::uint64_t calls = 0;
    double selfSeconds = 0;
    double seconds = 0;
};

class SpanLog
{
  public:
    /** Installs this log as the process's active log. */
    SpanLog();
    /** Uninstalls it. */
    ~SpanLog();

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** The installed log, or nullptr when tracing is off. */
    static SpanLog *active();

    std::uint32_t open(const char *layer, const char *name,
                       std::uint32_t parent);
    void close(std::uint32_t id);

    /** Copy of every closed span, in opening order. */
    std::vector<Span> spans() const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Scoped span: opens on construction, closes on destruction. */
class SpanGuard
{
  public:
    SpanGuard(SpanLog &log, const char *layer, const char *name);
    ~SpanGuard();

    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint32_t id_;
    std::uint32_t saved_;
};

/** Re-parent spans opened on this thread under `parent` for a scope. */
class AdoptParent
{
  public:
    explicit AdoptParent(std::uint32_t parent);
    ~AdoptParent();

    AdoptParent(const AdoptParent &) = delete;
    AdoptParent &operator=(const AdoptParent &) = delete;

  private:
    std::uint32_t saved_;
};

/** Call fn(), recorded as a span when a SpanLog is installed. */
template <typename Fn>
decltype(auto)
timed(const char *layer, const char *name, Fn &&fn)
{
    SpanLog *log = SpanLog::active();
    if (!log)
        return std::forward<Fn>(fn)();
    SpanGuard guard(*log, layer, name);
    return std::forward<Fn>(fn)();
}

/**
 * Self time per "layer.name": a span's duration minus the union of
 * its children's intervals (clipped to the span). Children that ran
 * concurrently on other threads count once in the union, so a
 * parent's self time is the time nothing below it was running.
 */
std::map<std::string, SpanTotal>
selfTimes(const std::vector<Span> &spans);

/** Summed duration of root spans (calls made by the workload itself). */
double rootSeconds(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H_
