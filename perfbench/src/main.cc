/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload serve|fleet|clone --seed N --seconds S --trace 0|1
 *
 * Repeats seeded iterations of one workload until S host seconds have
 * passed and prints, as the last stdout line, one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end host-time metrics (medians over the
 * iterations, tracing off). With --trace 1 untraced and traced
 * iterations alternate; the metrics are the per-layer counts, span
 * self times, probe costs, tracing overhead and span coverage.
 *
 * Correctness gate, on every run: each iteration's client outcomes
 * never exceed requests sent and some request completes Ok; every
 * iteration of the seed (traced or not, and for clone also one at a
 * single executor worker) yields the same digest of simulated outputs;
 * clone's fine-tune converges. Operations are simulated client
 * requests sent; failures are sent minus Ok, and a run that fails its
 * gate counts every operation as failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "probes.h"
#include "spans.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            a.trace = val == "1";
            if (val != "0" && val != "1")
                return false;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    const auto &names = workloadNames();
    return argc % 2 == 1 && haveWorkload && a.seconds > 0 &&
        std::find(names.begin(), names.end(), a.workload) != names.end();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename Fn>
double
medianOf(const std::vector<IterResult> &its, Fn &&fn)
{
    std::vector<double> v;
    for (const IterResult &r : its)
        v.push_back(fn(r));
    return median(std::move(v));
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Gate state and operation accounting over every iteration run. */
class Gate
{
  public:
    void
    check(const IterResult &r, const char *context)
    {
        client_.add(r.client);
        if (!r.gateError.empty())
            fail(r.gateError + " (" + context + ")");
        if (!haveDigest_) {
            digest_ = r.digest;
            haveDigest_ = true;
        } else if (r.digest != digest_) {
            fail(std::string("digest of simulated outputs differs (") +
                 context + ")");
        }
    }

    void
    fail(const std::string &why)
    {
        if (error_.empty())
            error_ = why;
    }

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    std::uint64_t attempted() const { return client_.sent; }

    std::uint64_t
    failed() const
    {
        return ok() ? client_.sent - client_.ok : client_.sent;
    }

  private:
    ClientCounts client_;
    std::uint64_t digest_ = 0;
    bool haveDigest_ = false;
    std::string error_;
};

void
printResult(const Gate &gate, const std::vector<Metric> &metrics)
{
    if (!gate.ok())
        std::fprintf(stderr, "perfbench: GATE FAILED: %s\n",
                     gate.error().c_str());
    std::string out = "{\"correct\": ";
    out += gate.ok() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(gate.attempted());
    out += ", \"failed\": " + std::to_string(gate.failed());
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        const double v = metrics[i].value;
        std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0);
        out += (i ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

unsigned
workerCount()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

void
logIteration(const char *kind, const IterResult &r)
{
    std::fprintf(stderr,
                 "perfbench: %-8s setup %.4fs sim %.4fs clone %.3fs "
                 "wall %.3fs ok %llu events %llu tune %u err %.2f%% "
                 "digest %016llx\n",
                 kind, r.setupS, r.simS, r.cloneS, r.wallS,
                 static_cast<unsigned long long>(r.windowOk),
                 static_cast<unsigned long long>(r.window.events),
                 r.tuneIterations, r.cloneErrPct,
                 static_cast<unsigned long long>(r.digest));
}

/**
 * Clone's gate compares against one iteration whose fine-tune runs on
 * a single worker; it is not part of the timed iterations.
 */
void
checkSerialClone(const Args &a, Gate &gate)
{
    if (a.workload != "clone")
        return;
    ditto::sim::RunExecutor serial(1);
    const IterResult r = runIteration(a.workload, a.seed, serial);
    logIteration("1-worker", r);
    gate.check(r, "clone at 1 worker vs 4");
}

/**
 * True while one more repeat is predicted to end within the run's
 * seconds (at least `minRepeats` always run).
 */
bool
anotherRepeat(Clock::time_point t0, std::size_t done, std::size_t minRepeats,
              double seconds)
{
    const double elapsed = secondsBetween(t0, Clock::now());
    return done < minRepeats ||
        elapsed + elapsed / static_cast<double>(done) <= seconds;
}

int
runPlain(const Args &a)
{
    Gate gate;
    checkSerialClone(a, gate);
    ditto::sim::RunExecutor executor(workerCount());
    std::vector<IterResult> its;
    const Clock::time_point t0 = Clock::now();
    do {
        its.push_back(runIteration(a.workload, a.seed, executor));
        logIteration("untraced", its.back());
        gate.check(its.back(), "repeat of the seed");
    } while (anotherRepeat(t0, its.size(), 2, a.seconds));

    const std::vector<Metric> metrics = {
        {"setup_s", medianOf(its, [](const IterResult &r) {
             return r.setupS;
         }), "s"},
        {"sim_s", medianOf(its, [](const IterResult &r) {
             return r.simS;
         }), "s"},
        {"sim_req_per_s", medianOf(its, [](const IterResult &r) {
             return static_cast<double>(r.windowOk) / r.simS;
         }), "req/s"},
        {"wall_s", medianOf(its, [](const IterResult &r) {
             return r.wallS;
         }), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    printResult(gate, metrics);
    return gate.ok() ? 0 : 1;
}

/** Per-iteration view of one traced iteration's spans. */
struct TracedIter
{
    IterResult result;
    std::map<std::string, SpanTotal> self;
    double rootSeconds = 0;

    double
    selfOf(const std::string &key) const
    {
        auto it = self.find(key);
        return it == self.end() ? 0 : it->second.selfSeconds;
    }

    double
    layerSelf(const std::string &layer) const
    {
        double total = 0;
        for (const auto &[key, t] : self) {
            if (key.compare(0, layer.size() + 1, layer + ".") == 0)
                total += t.selfSeconds;
        }
        return total;
    }
};

template <typename Fn>
double
medianTraced(const std::vector<TracedIter> &its, Fn &&fn)
{
    std::vector<double> v;
    for (const TracedIter &t : its)
        v.push_back(fn(t));
    return median(std::move(v));
}

/**
 * Layers whose spans do the work they time. The hw and os layers run
 * inside sim's runFor, so the probes estimate their share instead.
 */
const char *const kSelfTimedLayers[] = {"sim", "app", "cluster",
                                        "profile", "core"};

void
printSpanTable(const TracedIter &t)
{
    std::vector<std::pair<std::string, SpanTotal>> rows(t.self.begin(),
                                                        t.self.end());
    std::sort(rows.begin(), rows.end(), [](const auto &x, const auto &y) {
        return x.second.selfSeconds > y.second.selfSeconds;
    });
    const double wall = t.result.wallS;
    // Spans on executor threads overlap, so shares can sum past 100%.
    std::fprintf(stderr, "\nspan self time, summed over threads (last "
                         "traced iteration, wall %.3fs)\n%-28s %8s %10s %7s\n",
                 wall, "span", "calls", "self_s", "share");
    for (const auto &[key, s] : rows) {
        std::fprintf(stderr, "%-28s %8llu %10.4f %6.1f%%\n", key.c_str(),
                     static_cast<unsigned long long>(s.calls),
                     s.selfSeconds, 100.0 * s.selfSeconds / wall);
    }
    std::fprintf(stderr, "%-28s %8s %10.4f %6.1f%%\n", "(root spans)", "",
                 t.rootSeconds, 100.0 * t.rootSeconds / wall);
}

/** Consecutive slices of each phase, merged into at most 8 rows. */
void
printSliceTable(const IterResult &r)
{
    std::fprintf(stderr, "\nsim slices (last traced iteration)\n"
                         "%-8s %7s %10s %9s %12s\n",
                 "phase", "slices", "host_s", "events", "ns/event");
    std::size_t i = 0;
    while (i < r.slices.size()) {
        std::size_t end = i;
        while (end < r.slices.size() &&
               std::string(r.slices[end].phase) == r.slices[i].phase)
            ++end;
        const std::size_t group = std::max<std::size_t>(1, (end - i + 7) / 8);
        for (std::size_t g = i; g < end; g += group) {
            double secs = 0;
            std::uint64_t events = 0;
            const std::size_t stop = std::min(end, g + group);
            for (std::size_t k = g; k < stop; ++k) {
                secs += r.slices[k].seconds;
                events += r.slices[k].events;
            }
            std::fprintf(stderr, "%-8s %7zu %10.5f %9llu %12.1f\n",
                         r.slices[g].phase, stop - g, secs,
                         static_cast<unsigned long long>(events),
                         events ? secs * 1e9 / static_cast<double>(events)
                                : 0.0);
        }
        i = end;
    }
}

int
runTraced(const Args &a)
{
    Gate gate;
    checkSerialClone(a, gate);
    ditto::sim::RunExecutor executor(workerCount());
    std::vector<IterResult> plain;
    std::vector<TracedIter> traced;
    const Clock::time_point t0 = Clock::now();
    do {
        plain.push_back(runIteration(a.workload, a.seed, executor));
        logIteration("untraced", plain.back());
        gate.check(plain.back(), "repeat of the seed");

        TracedIter t;
        {
            SpanLog log;
            t.result = runIteration(a.workload, a.seed, executor);
            const std::vector<Span> spans = log.spans();
            t.self = selfTimes(spans);
            t.rootSeconds = rootSeconds(spans);
        }
        logIteration("traced", t.result);
        gate.check(t.result, "traced vs untraced");
        traced.push_back(std::move(t));
    } while (anotherRepeat(t0, traced.size(), 1, a.seconds));

    const TracedIter &last = traced.back();
    const IterResult &r = last.result;
    const Counters &c = r.window;
    const bool isClone = a.workload == "clone";
    const double simS = medianOf(plain, [](const IterResult &x) {
        return x.simS;
    });
    const double events = static_cast<double>(c.events);
    const ProbeResult probe =
        runProbes(*r.probeInput, events > 0 ? r.measureNs / events : 1);

    auto sliceStats = [&](const char *phase, bool nsPerEvent) {
        std::vector<double> secs;
        double s = 0, ev = 0;
        for (const TracedIter &t : traced) {
            for (const Slice &sl : t.result.slices) {
                if (std::string(sl.phase) != phase)
                    continue;
                secs.push_back(sl.seconds);
                s += sl.seconds;
                ev += static_cast<double>(sl.events);
            }
        }
        if (nsPerEvent)
            return ev > 0 ? s * 1e9 / ev : 0;
        return median(std::move(secs));
    };
    auto self = [&](const char *key) {
        return medianTraced(traced, [key](const TracedIter &t) {
            return t.selfOf(key);
        });
    };
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    const double tracedMain = medianTraced(traced, [&](const TracedIter &t) {
        return isClone ? t.result.cloneS : t.result.simS;
    });
    const double plainMain = medianOf(plain, [&](const IterResult &x) {
        return isClone ? x.cloneS : x.simS;
    });
    // Probe cost x deterministic count, as a share of untraced sim_s.
    const struct
    {
        const char *metric;
        const char *entry;
        double ns;
        double count;
    } estimates[] = {
        {"est.replay_share_pct", "CpuCore::run replay",
         probe.replayNsPerInst, r.instructions},
        {"est.ctx_switch_share_pct", "CpuCore::contextSwitch",
         probe.ctxSwitchNs, count(c.contextSwitches)},
        {"est.cache_access_share_pct", "Cache::access",
         probe.cacheAccessNs,
         count(c.l1iAccesses + c.l1dAccesses + c.l2Accesses +
               c.llcAccesses)},
        {"est.event_share_pct", "EventQueue event", probe.eventNs, events},
    };

    std::vector<Metric> m = {
        {"sim.events", events, "count"},
        {"sim.ns_per_event", events > 0 ? simS * 1e9 / events : 0, "ns"},
        {"sim.warm_s", self("sim.warm"), "s"},
        {"sim.measure_s", self("sim.measure"), "s"},
        {"sim.slice_s", sliceStats("measure", false), "s"},
        {"sim.warm_ns_per_event", sliceStats("warm", true), "ns"},
        {"sim.measure_ns_per_event", sliceStats("measure", true), "ns"},
        {"sim.probe.event_ns", probe.eventNs, "ns"},
        {"hw.instructions", r.instructions, "count"},
        {"hw.l1i.accesses", count(c.l1iAccesses), "count"},
        {"hw.l1i.misses", count(c.l1iMisses), "count"},
        {"hw.l1d.accesses", count(c.l1dAccesses), "count"},
        {"hw.l1d.misses", count(c.l1dMisses), "count"},
        {"hw.l2.accesses", count(c.l2Accesses), "count"},
        {"hw.l2.misses", count(c.l2Misses), "count"},
        {"hw.llc.accesses", count(c.llcAccesses), "count"},
        {"hw.llc.misses", count(c.llcMisses), "count"},
        {"hw.l1d.invalidations", count(c.l1dInvalidations), "count"},
        {"hw.l2.invalidations", count(c.l2Invalidations), "count"},
        {"hw.prefetch_fills", count(c.prefetchFills), "count"},
        {"hw.probe.replay_ns_per_inst", probe.replayNsPerInst, "ns"},
        {"hw.probe.exact_ns_per_inst", probe.exactNsPerInst, "ns"},
        {"hw.probe.ctx_switch_ns", probe.ctxSwitchNs, "ns"},
        {"hw.probe.cache_access_ns", probe.cacheAccessNs, "ns"},
        {"os.context_switches", count(c.contextSwitches), "count"},
        {"os.slices", count(c.slices), "count"},
        {"os.wakeups", count(c.wakeups), "count"},
        {"os.syscalls", count(c.syscalls), "count"},
        {"os.syscalls.read", count(c.sysRead), "count"},
        {"os.syscalls.write", count(c.sysWrite), "count"},
        {"os.syscalls.epoll_wait", count(c.sysEpollWait), "count"},
        {"os.syscalls.futex", count(c.sysFutex), "count"},
        {"os.net.msgs_sent", count(c.msgsSent), "count"},
        {"os.net.msgs_dropped", count(c.msgsDropped), "count"},
        {"cluster.topo_gen_s", self("cluster.generateTopology"), "s"},
        {"cluster.deploy_topology_s", self("cluster.deployTopology"), "s"},
        {"app.deploy_s", self("app.deploy"), "s"},
        {"app.wire_s", self("app.wireAll"), "s"},
        {"workload.sent", count(r.client.sent), "count"},
        {"workload.ok", count(r.client.ok), "count"},
        {"workload.error", count(r.client.error), "count"},
        {"workload.shed", count(r.client.shed), "count"},
        {"workload.timed_out", count(r.client.timedOut), "count"},
        {"profile.profile_s", self("profile.profileService"), "s"},
        {"profile.window_requests", r.profileWindowRequests, "count"},
        {"core.skeleton_s", self("core.analyzeSkeleton"), "s"},
        {"core.tune_s", medianTraced(traced, [](const TracedIter &t) {
             auto it = t.self.find("core.fineTune");
             return it == t.self.end() ? 0 : it->second.seconds;
         }), "s"},
        {"core.tune_candidates", count(r.tuneCandidates), "count"},
        {"core.tune_candidate_s", medianTraced(traced,
             [](const TracedIter &t) {
                 auto it = t.self.find("core.candidate");
                 return it == t.self.end() || it->second.calls == 0
                     ? 0
                     : it->second.seconds /
                         static_cast<double>(it->second.calls);
             }), "s"},
        {"core.tune_iterations", count(r.tuneIterations), "count"},
        {"core.generate_s", self("core.generateClone"), "s"},
        {"core.clone_s", medianOf(plain, [](const IterResult &x) {
             return x.cloneS;
         }), "s"},
        {"core.clone_err_pct", r.cloneErrPct, "%"},
        {"trace.overhead_pct",
         plainMain > 0 ? 100.0 * (tracedMain / plainMain - 1) : 0, "%"},
        {"layer.coverage_pct", medianTraced(traced,
             [](const TracedIter &t) {
                 return 100.0 * t.rootSeconds / t.result.wallS;
             }), "%"},
    };
    for (const char *layer : kSelfTimedLayers) {
        m.push_back({std::string(layer) + ".self_s",
                     medianTraced(traced, [layer](const TracedIter &t) {
                         return t.layerSelf(layer);
                     }), "s"});
    }

    printSpanTable(last);
    printSliceTable(r);
    std::fprintf(stderr, "\nestimated share of sim_s %.4fs (probe x count)\n",
                 simS);
    for (const auto &e : estimates) {
        const double pct = simS > 0 ? 100.0 * e.ns * e.count / (simS * 1e9)
                                    : 0;
        std::fprintf(stderr, "  %-24s %6.1f%%  (%.2f ns x %.0f)\n", e.entry,
                     pct, e.ns, e.count);
        m.push_back({e.metric, pct, "%"});
    }
    printResult(gate, m);
    return gate.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload serve|fleet|clone "
                     "--seed N --seconds S --trace 0|1\n");
        return 2;
    }
    return a.trace ? runTraced(a) : runPlain(a);
}
