#include "probes.h"

#include <cstdint>
#include <vector>

#include "hw/cache.h"
#include "hw/cpu_core.h"
#include "hw/platform.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "spans.h"

namespace perfbench {

using namespace ditto;

namespace {

/** Each probe repeats its step until this much host time has passed. */
constexpr double kProbeSeconds = 0.15;

/** Repeat step() until kProbeSeconds pass; returns elapsed seconds. */
template <typename Step>
double
repeatFor(Step &&step)
{
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0;
    do {
        step();
        elapsed = secondsBetween(t0, Clock::now());
    } while (elapsed < kProbeSeconds);
    return elapsed;
}

/** Records the data addresses a block touches. */
class AddressRecorder : public hw::ExecObserver
{
  public:
    std::vector<std::uint64_t> addrs;
    std::vector<bool> writes;

    void
    onDataAccess(std::uint64_t addr, bool isWrite, bool) override
    {
        addrs.push_back(addr);
        writes.push_back(isWrite);
    }
};

struct Platform
{
    hw::PlatformSpec spec = hw::platformA();
    hw::Cache llc{spec.llcBytes, spec.llcWays};
    hw::CacheHierarchy caches{spec.l1iBytes, spec.l1iWays, spec.l1dBytes,
                              spec.l1dWays,  spec.l2Bytes,  spec.l2Ways,
                              &llc,          spec.prefetchEnabled};
};

/** Calls every compute op once per round, iterations drawn as the
 *  service draws them. */
class HandlerRounds
{
  public:
    HandlerRounds(const ProbeInput &in, hw::CpuCore &core)
        : in_(in), core_(core)
    {
    }

    void
    operator()()
    {
        for (const ComputeCall &c : in_.calls) {
            const std::uint64_t iters = c.itersMin >= c.itersMax
                ? c.itersMin
                : static_cast<std::uint64_t>(rng_.uniformInt(
                      static_cast<std::int64_t>(c.itersMin),
                      static_cast<std::int64_t>(c.itersMax)));
            core_.run(in_.image, c.block, iters, ctx_, stats);
        }
    }

    hw::ExecStats stats;

  private:
    const ProbeInput &in_;
    hw::CpuCore &core_;
    hw::ExecContext ctx_{0, 1};
    sim::Rng rng_{11};
};

/** Host ns per simulated instruction of the handlers' compute calls. */
double
runNsPerInst(const ProbeInput &in, Platform &p, bool exact)
{
    hw::CpuCore core(0, p.spec, p.caches, nullptr);
    core.setExactMode(exact);
    HandlerRounds round(in, core);
    // Past kReplayMinCalls every block is in its replay steady state.
    for (unsigned i = 0; i <= hw::CpuCore::kReplayMinCalls; ++i)
        round();
    round.stats = hw::ExecStats{};
    const double secs = repeatFor(round);
    return round.stats.instructions > 0
        ? secs * 1e9 / round.stats.instructions
        : 0;
}

void
collectCalls(const app::Program &prog, std::vector<ComputeCall> &out)
{
    for (const app::Op &op : prog.ops) {
        if (op.kind == app::OpKind::Compute)
            out.push_back({op.block, op.itersMin, op.itersMax});
        for (const app::Program &sub : op.subs)
            collectCalls(sub, out);
    }
}

} // namespace

ProbeInput
probeInputOf(const app::ServiceInstance &svc)
{
    ProbeInput in{svc.image(), {}};
    for (const app::EndpointSpec &ep : svc.spec().endpoints)
        collectCalls(ep.handler, in.calls);
    return in;
}

ProbeResult
runProbes(const ProbeInput &input, double eventGapNs)
{
    ProbeResult out;
    Platform p;
    out.replayNsPerInst = runNsPerInst(input, p, false);
    out.exactNsPerInst = runNsPerInst(input, p, true);

    // Context switches pollute the hierarchy the runs above warmed.
    {
        hw::CpuCore core(0, p.spec, p.caches, nullptr);
        std::uint64_t salt = 1, calls = 0;
        const double secs = repeatFor([&] {
            for (int i = 0; i < 64; ++i)
                core.contextSwitch(++salt);
            calls += 64;
        });
        out.ctxSwitchNs = secs * 1e9 / static_cast<double>(calls);
    }

    // Cache::access replays the data addresses the code touches.
    {
        AddressRecorder rec;
        hw::CpuCore core(0, p.spec, p.caches, nullptr);
        core.setObserver(&rec);
        HandlerRounds round(input, core);
        round();
        core.setObserver(nullptr);
        if (!rec.addrs.empty()) {
            hw::Cache l1d(p.spec.l1dBytes, p.spec.l1dWays);
            std::uint64_t calls = 0;
            const double secs = repeatFor([&] {
                for (std::size_t i = 0; i < rec.addrs.size(); ++i)
                    l1d.access(rec.addrs[i], rec.writes[i]);
                calls += rec.addrs.size();
            });
            out.cacheAccessNs = secs * 1e9 / static_cast<double>(calls);
        }
    }

    // EventQueue::scheduleAt + runAll at the workload's event density.
    {
        constexpr std::uint64_t kEvents = 1 << 16;
        const double gap = eventGapNs > 1 ? eventGapNs : 1;
        const auto horizon =
            static_cast<std::uint64_t>(gap * static_cast<double>(kEvents));
        sim::Rng rng(7);
        std::uint64_t fired = 0, calls = 0;
        const double secs = repeatFor([&] {
            sim::EventQueue q;
            for (std::uint64_t i = 0; i < kEvents; ++i)
                q.scheduleAt(rng.uniformInt(horizon),
                             [&fired] { ++fired; });
            q.runAll();
            calls += kEvents;
        });
        out.eventNs = secs * 1e9 / static_cast<double>(calls);
    }
    return out;
}

} // namespace perfbench
