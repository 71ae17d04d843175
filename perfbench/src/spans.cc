#include "spans.h"

#include <algorithm>
#include <atomic>

namespace perfbench {

namespace {

std::atomic<SpanLog *> gActive{nullptr};
thread_local std::uint32_t tlParent = 0;

} // namespace

SpanLog::SpanLog()
{
    gActive.store(this);
}

SpanLog::~SpanLog()
{
    gActive.store(nullptr);
}

SpanLog *
SpanLog::active()
{
    return gActive.load(std::memory_order_relaxed);
}

std::uint32_t
SpanLog::open(const char *layer, const char *name, std::uint32_t parent)
{
    Span s;
    s.layer = layer;
    s.name = name;
    s.parent = parent;
    std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.start = Clock::now();
    spans_.push_back(s);
    return s.id;
}

void
SpanLog::close(std::uint32_t id)
{
    const Clock::time_point end = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = end;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

SpanGuard::SpanGuard(SpanLog &log, const char *layer, const char *name)
    : log_(log), id_(log.open(layer, name, tlParent)), saved_(tlParent)
{
    tlParent = id_;
}

SpanGuard::~SpanGuard()
{
    tlParent = saved_;
    log_.close(id_);
}

AdoptParent::AdoptParent(std::uint32_t parent) : saved_(tlParent)
{
    tlParent = parent;
}

AdoptParent::~AdoptParent()
{
    tlParent = saved_;
}

std::map<std::string, SpanTotal>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<const Span *>> children(spans.size() + 1);
    for (const Span &s : spans)
        children[s.parent].push_back(&s);

    std::map<std::string, SpanTotal> out;
    for (const Span &s : spans) {
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (const Span *c : children[s.id])
            iv.emplace_back(std::max(c->start, s.start),
                            std::min(c->end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0;
        Clock::time_point reach = s.start;
        for (const auto &[a, b] : iv) {
            const Clock::time_point from = std::max(a, reach);
            if (b > from) {
                covered += secondsBetween(from, b);
                reach = b;
            }
        }
        SpanTotal &t = out[std::string(s.layer) + "." + s.name];
        const double dur = secondsBetween(s.start, s.end);
        ++t.calls;
        t.seconds += dur;
        t.selfSeconds += std::max(0.0, dur - covered);
    }
    return out;
}

double
rootSeconds(const std::vector<Span> &spans)
{
    double total = 0;
    for (const Span &s : spans) {
        if (s.parent == 0)
            total += secondsBetween(s.start, s.end);
    }
    return total;
}

} // namespace perfbench
