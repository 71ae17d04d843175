#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>

#include "app/deployment.h"
#include "apps/catalog.h"
#include "cluster/topo_gen.h"
#include "core/ditto.h"
#include "os/kernel.h"
#include "profile/perf_report.h"
#include "profile/session.h"
#include "spans.h"
#include "workload/loadgen.h"

namespace perfbench {

using namespace ditto;

Counters
Counters::operator-(const Counters &o) const
{
    Counters d;
    d.events = events - o.events;
    d.l1iAccesses = l1iAccesses - o.l1iAccesses;
    d.l1iMisses = l1iMisses - o.l1iMisses;
    d.l1dAccesses = l1dAccesses - o.l1dAccesses;
    d.l1dMisses = l1dMisses - o.l1dMisses;
    d.l2Accesses = l2Accesses - o.l2Accesses;
    d.l2Misses = l2Misses - o.l2Misses;
    d.llcAccesses = llcAccesses - o.llcAccesses;
    d.llcMisses = llcMisses - o.llcMisses;
    d.l1dInvalidations = l1dInvalidations - o.l1dInvalidations;
    d.l2Invalidations = l2Invalidations - o.l2Invalidations;
    d.prefetchFills = prefetchFills - o.prefetchFills;
    d.contextSwitches = contextSwitches - o.contextSwitches;
    d.slices = slices - o.slices;
    d.wakeups = wakeups - o.wakeups;
    d.syscalls = syscalls - o.syscalls;
    d.sysRead = sysRead - o.sysRead;
    d.sysWrite = sysWrite - o.sysWrite;
    d.sysEpollWait = sysEpollWait - o.sysEpollWait;
    d.sysFutex = sysFutex - o.sysFutex;
    d.msgsSent = msgsSent - o.msgsSent;
    d.msgsDropped = msgsDropped - o.msgsDropped;
    return d;
}

void
ClientCounts::add(const ClientCounts &o)
{
    sent += o.sent;
    ok += o.ok;
    error += o.error;
    shed += o.shed;
    timedOut += o.timedOut;
}

namespace {

/** FNV-1a over 64-bit words: the run's deterministic fingerprint. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

void
addCache(const hw::CacheStats &s, std::uint64_t &accesses,
         std::uint64_t &misses)
{
    accesses += s.accesses;
    misses += s.misses;
}

Counters
readCounters(app::Deployment &dep)
{
    return timed("hw", "readCounters", [&] {
        Counters c;
        c.events = dep.events().executedCount();
        for (const auto &mp : dep.machines()) {
            os::Machine &m = *mp;
            // SMT siblings share one hierarchy; count each once.
            const hw::CacheHierarchy *last = nullptr;
            for (unsigned i = 0; i < m.coreCount(); ++i) {
                const hw::CacheHierarchy &h = m.core(i).caches();
                if (&h == last)
                    continue;
                last = &h;
                addCache(h.l1i().stats(), c.l1iAccesses, c.l1iMisses);
                addCache(h.l1d().stats(), c.l1dAccesses, c.l1dMisses);
                addCache(h.l2().stats(), c.l2Accesses, c.l2Misses);
                c.l1dInvalidations += h.l1d().stats().invalidations;
                c.l2Invalidations += h.l2().stats().invalidations;
                c.prefetchFills += h.l1d().stats().prefetchFills +
                    h.l2().stats().prefetchFills;
            }
            addCache(m.llc().stats(), c.llcAccesses, c.llcMisses);

            const os::SchedStats &s = m.scheduler().stats();
            c.contextSwitches += s.contextSwitches;
            c.slices += s.slices;
            c.wakeups += s.wakeups;

            const os::SyscallCounts &k = m.kernel().counts();
            c.sysRead += k.read;
            c.sysWrite += k.write;
            c.sysEpollWait += k.epollWait;
            c.sysFutex += k.futex;
            c.syscalls += k.read + k.write + k.epollWait + k.pread +
                k.pwrite + k.futex + k.nanosleep + k.clone;
        }
        c.msgsSent = dep.network().messagesSent();
        c.msgsDropped = dep.network().messagesDropped();
        return c;
    });
}

ClientCounts
readClient(const workload::LoadGen &gen)
{
    ClientCounts c;
    c.sent = gen.sent();
    c.ok = gen.completedOk();
    c.error = gen.completedError();
    c.shed = gen.completedShed();
    c.timedOut = gen.timedOut();
    return c;
}

/** Simulated windows of one load phase. */
struct Windows
{
    /**
     * Lengths of the warm-up and the measured window. A phase with a
     * request count instead ends at the first slice boundary by which
     * that many requests completed Ok; its length is then the longest
     * it may run before the gate fails.
     */
    sim::Time warm;
    sim::Time measure;
    /**
     * Step of the sliced runFor calls. Traced runs always slice; a
     * request-count phase slices in both modes, so it ends at the same
     * simulated time traced or not.
     */
    sim::Time slice;
    /** Run after the load stops so every request reaches an outcome. */
    sim::Time drain;
    std::uint64_t warmRequests = 0;
    std::uint64_t measureRequests = 0;
};

// Windows are simulated time. A serve iteration costs about two host
// seconds, so a run holds enough repeats for a stable median. A fleet
// request costs about 0.2 host seconds and its call tree varies, so
// fixed-length windows would make fleet's host time track the seed's
// Poisson request count; its phases are instead the first 8 requests
// completed (warm-up) and the next 50 (measured).
const Windows kServe{sim::milliseconds(100), sim::milliseconds(250),
                     sim::milliseconds(25), sim::milliseconds(5)};
const Windows kFleet{sim::milliseconds(500), sim::milliseconds(500),
                     sim::milliseconds(1), sim::milliseconds(25), 8, 50};
const Windows kCloneRerun{sim::milliseconds(150), sim::milliseconds(500),
                          sim::milliseconds(25), sim::milliseconds(5)};

/*
 * The run's seed generates the client traffic (the LoadGen's arrival
 * times, endpoint mix and request sizes); the program's own seeds stay
 * fixed, so a seed changes what the program is asked to do, not the
 * program. Fixed: every deployment's seed (the services' own random
 * choices), the fleet topology (bench_scale's), and clone's profiled
 * traffic (the figure benches' clone seed). The tuner's trajectory --
 * its iteration count, so clone time, and whether it converges -- is
 * chaotic in the profiled traffic, so the seed drives the traffic that
 * scores the clone instead.
 */
constexpr std::uint64_t kDeploymentSeed = 77;
constexpr std::uint64_t kTopologySeed = 42;
constexpr std::uint64_t kProfileSeed = 79;

/**
 * Advance the simulation. Traced runs step in fixed slices, each its
 * own span, so warm-up and steady-state cost per event are visible;
 * runFor advances the clock to the slice end, so slicing changes no
 * simulated output.
 */
void
advance(app::Deployment &dep, sim::Time duration, sim::Time slice,
        const char *phase, IterResult &r)
{
    if (!SpanLog::active()) {
        dep.runFor(duration);
        return;
    }
    for (sim::Time done = 0; done < duration; done += slice) {
        const sim::Time step = std::min(slice, duration - done);
        const std::uint64_t ev0 = dep.events().executedCount();
        const Clock::time_point t0 = Clock::now();
        timed("sim", phase, [&] { dep.runFor(step); });
        r.slices.push_back({phase, secondsBetween(t0, Clock::now()),
                            dep.events().executedCount() - ev0});
    }
}

double
instructionsOf(app::Deployment &dep)
{
    double total = 0;
    for (const auto &svc : dep.services())
        total += svc->stats().exec.instructions;
    return total;
}

/**
 * Run one phase of the load: `length` of simulated time, or with a
 * request count the slices until that many more requests completed
 * Ok (at most `length`).
 */
void
runPhase(app::Deployment &dep, workload::LoadGen &gen, sim::Time length,
         std::uint64_t requests, sim::Time slice, const char *phase,
         IterResult &r)
{
    if (requests == 0) {
        advance(dep, length, slice, phase, r);
        return;
    }
    const std::uint64_t ok0 = gen.completedOk();
    const sim::Time t0 = dep.events().now();
    while (gen.completedOk() - ok0 < requests &&
           dep.events().now() - t0 < length)
        advance(dep, slice, slice, phase, r);
    if (gen.completedOk() - ok0 < requests && r.gateError.empty())
        r.gateError = std::string(phase) + " ended before its requests";
}

/**
 * Warm up, then run and count the measured window. The LoadGen must
 * be started. Leaves the load running.
 */
void
measureWindow(app::Deployment &dep, workload::LoadGen &gen,
              const Windows &w, IterResult &r, Digest &d)
{
    runPhase(dep, gen, w.warm, w.warmRequests, w.slice, "warm", r);
    timed("app", "beginMeasureAll", [&] { dep.beginMeasureAll(); });
    timed("workload", "beginMeasure", [&] { gen.beginMeasure(); });
    const Counters before = readCounters(dep);
    const std::uint64_t ok0 = gen.completedOk();

    const Clock::time_point t0 = Clock::now();
    const sim::Time m0 = dep.events().now();
    runPhase(dep, gen, w.measure, w.measureRequests, w.slice, "measure",
             r);
    r.simS = secondsBetween(t0, Clock::now());
    r.measureNs = static_cast<double>(dep.events().now() - m0);

    r.window = readCounters(dep) - before;
    r.windowOk = gen.completedOk() - ok0;
    r.instructions = instructionsOf(dep);

    const Counters &c = r.window;
    d.add(dep.events().executedCount());
    d.add(r.windowOk);
    d.add(gen.latency().percentile(0.50));
    d.add(gen.latency().percentile(0.99));
    d.add(r.instructions);
    d.add(c.l1iMisses + c.l1dMisses + c.l2Misses + c.llcMisses);
    d.add(c.syscalls);
    d.add(c.contextSwitches);
    if (r.windowOk == 0 && r.gateError.empty())
        r.gateError = "no request completed Ok in the measured window";
}

/** Stop the load, drain, and account every request of `gen`. */
void
drainLoad(app::Deployment &dep, workload::LoadGen &gen, const Windows &w,
          IterResult &r, Digest &d)
{
    timed("workload", "stop", [&] { gen.stop(); });
    advance(dep, w.drain, w.drain, "drain", r);
    const ClientCounts c = readClient(gen);
    if (c.ok + c.error + c.shed + c.timedOut > c.sent &&
        r.gateError.empty())
        r.gateError = "client outcomes exceed requests sent";
    if (c.ok == 0 && r.gateError.empty())
        r.gateError = "no request completed Ok";
    r.client.add(c);
    d.add(c.sent);
    d.add(c.ok);
    d.add(c.error);
    d.add(c.shed);
    d.add(c.timedOut);
}

/** Keep the service's code for the hw probes of traced runs. */
void
keepProbeInput(const app::ServiceInstance &svc, IterResult &r)
{
    if (SpanLog::active())
        r.probeInput = std::make_shared<const ProbeInput>(probeInputOf(svc));
}

/** One service on one platformA node, driven by a started LoadGen. */
struct SingleNode
{
    std::unique_ptr<app::Deployment> dep;
    app::ServiceInstance *svc = nullptr;
    std::unique_ptr<workload::LoadGen> gen;
};

SingleNode
deploySingleNode(std::uint64_t deploymentSeed, const char *machineName,
                 const app::ServiceSpec &spec,
                 const workload::LoadSpec &load, std::uint64_t trafficSeed)
{
    SingleNode n;
    n.dep = timed("app", "Deployment", [&] {
        return std::make_unique<app::Deployment>(deploymentSeed);
    });
    os::Machine &machine = timed("app", "addMachine",
                                 [&]() -> os::Machine & {
        return n.dep->addMachine(machineName, hw::platformA());
    });
    n.svc = &timed("app", "deploy", [&]() -> app::ServiceInstance & {
        return n.dep->deploy(spec, machine);
    });
    timed("app", "wireAll", [&] { n.dep->wireAll(); });
    n.gen = timed("workload", "LoadGen", [&] {
        return std::make_unique<workload::LoadGen>(*n.dep, *n.svc, load,
                                                   trafficSeed);
    });
    timed("workload", "start", [&] { n.gen->start(); });
    return n;
}

/** Destroy the load generator, then its deployment. */
void
tearDown(std::unique_ptr<workload::LoadGen> &gen,
         std::unique_ptr<app::Deployment> &dep)
{
    timed("workload", "~LoadGen", [&] { gen.reset(); });
    timed("app", "~Deployment", [&] { dep.reset(); });
}

IterResult
runServe(std::uint64_t seed)
{
    IterResult r;
    Digest d;
    const Clock::time_point start = Clock::now();

    const apps::AppLoad appLoad = apps::memcachedLoad();
    SingleNode n = deploySingleNode(kDeploymentSeed, "node",
                                    apps::memcachedSpec(),
                                    appLoad.at(appLoad.mediumQps), seed);
    r.setupS = secondsBetween(start, Clock::now());

    measureWindow(*n.dep, *n.gen, kServe, r, d);
    drainLoad(*n.dep, *n.gen, kServe, r, d);
    keepProbeInput(*n.svc, r);
    tearDown(n.gen, n.dep);
    r.wallS = secondsBetween(start, Clock::now());
    r.digest = d.value();
    return r;
}

IterResult
runFleet(std::uint64_t seed)
{
    IterResult r;
    Digest d;
    const Clock::time_point start = Clock::now();

    cluster::TopoSpec topoSpec;
    topoSpec.services = 1000;
    topoSpec.depth = 6;
    topoSpec.seed = kTopologySeed;
    const cluster::GeneratedTopology topo =
        timed("cluster", "generateTopology",
              [&] { return cluster::generateTopology(topoSpec); });
    // Sampled tracing, as bench_scale runs its large topologies.
    auto dep = timed("app", "Deployment", [&] {
        return std::make_unique<app::Deployment>(kDeploymentSeed, 0.05);
    });
    app::ServiceInstance &root =
        timed("cluster", "deployTopology",
              [&]() -> app::ServiceInstance & {
                  return cluster::deployTopology(*dep, topo, 8);
              });
    workload::LoadSpec load;
    load.qps = 600;
    load.connections = 8;
    load.openLoop = true;
    load.timeout = sim::milliseconds(20);
    auto gen = timed("workload", "LoadGen", [&] {
        return std::make_unique<workload::LoadGen>(*dep, root, load, seed);
    });
    timed("workload", "start", [&] { gen->start(); });
    r.setupS = secondsBetween(start, Clock::now());
    d.add(static_cast<std::uint64_t>(topo.edges));

    measureWindow(*dep, *gen, kFleet, r, d);
    drainLoad(*dep, *gen, kFleet, r, d);
    keepProbeInput(root, r);
    tearDown(gen, dep);
    r.wallS = secondsBetween(start, Clock::now());
    r.digest = d.value();
    return r;
}

/**
 * cloneService's stages called one by one from their public
 * functions, each its own span. The fine-tune runner deploys each
 * candidate the way cloneService's sandbox does (a platformA node,
 * the same seeds and windows), so the result equals cloneService's
 * on platformA.
 */
core::CloneResult
cloneByStages(app::Deployment &dep, app::ServiceInstance &svc,
              const workload::LoadSpec &loadSpec,
              const core::CloneOptions &opts, IterResult &r)
{
    core::CloneResult result;
    result.profile = timed("profile", "profileService", [&] {
        return profile::profileService(dep, svc, opts.profiling);
    });
    result.skeleton = timed("core", "analyzeSkeleton", [&] {
        return core::analyzeSkeleton(
            result.profile.threads, opts.profiling.window,
            loadSpec.connections, result.profile.asyncEvidence);
    });

    const std::map<std::string, std::string> nameMap = {
        {result.profile.serviceName,
         result.profile.serviceName + opts.cloneSuffix}};
    const std::vector<profile::EdgeProfile> noEdges;
    const workload::LoadSpec tuneLoad = core::cloneLoadSpec(loadSpec);
    const std::uint64_t sandboxSeed = dep.seed() ^ 0x745e5eedull;

    std::atomic<unsigned> candidates{0};
    std::uint32_t tuneSpan = 0;
    core::CloneRunner runner = [&](const core::GenerationConfig &cfg) {
        AdoptParent adopt(tuneSpan);
        return timed("core", "candidate", [&] {
            ++candidates;
            const app::ServiceSpec candidate =
                timed("core", "generateClone", [&] {
                    return core::generateClone(result.profile,
                                               result.skeleton, noEdges,
                                               nameMap, cfg);
                });
            SingleNode n = deploySingleNode(sandboxSeed, "tune", candidate,
                                            tuneLoad, sandboxSeed ^ 0x7e57);
            timed("sim", "candidate_warm",
                  [&] { n.dep->runFor(opts.tuneWarmup); });
            timed("app", "beginMeasureAll",
                  [&] { n.dep->beginMeasureAll(); });
            timed("workload", "beginMeasure",
                  [&] { n.gen->beginMeasure(); });
            timed("sim", "candidate_window",
                  [&] { n.dep->runFor(opts.tuneWindow); });
            profile::PerfReport report =
                timed("profile", "snapshotService",
                      [&] { return profile::snapshotService(*n.svc); });
            profile::overrideLatency(report, n.gen->latency());
            tearDown(n.gen, n.dep);
            return report;
        });
    };
    core::TuneOptions tuneOpts;
    tuneOpts.maxIterations = opts.maxTuneIterations;
    tuneOpts.tolerance = opts.tuneTolerance;
    tuneOpts.executor = opts.executor;
    {
        SpanGuard span(*SpanLog::active(), "core", "fineTune");
        tuneSpan = span.id();
        result.tuning = core::fineTune(result.profile.reference, opts.gen,
                                       runner, tuneOpts);
    }
    result.config = result.tuning.config;
    result.spec = timed("core", "generateClone", [&] {
        return core::generateClone(result.profile, result.skeleton,
                                   noEdges, nameMap, result.config);
    });
    r.tuneCandidates = candidates.load();
    return result;
}

/**
 * Largest relative error over the Fig. 5 counter set, in percent. As
 * in the figure benches' error summary, each denominator is floored so
 * a near-zero miss rate does not turn a tiny difference into a huge
 * relative error.
 */
double
counterErrorPct(const profile::PerfReport &clone,
                const profile::ReferenceCounters &ref)
{
    auto err = [](double synth, double orig, double floor) {
        return std::abs(synth - orig) / std::max(orig, floor);
    };
    const double errs[] = {
        err(clone.ipc, ref.ipc, 0.05),
        err(clone.branchMispredictRate, ref.branchMispredictRate, 0.01),
        err(clone.l1iMissRate, ref.l1iMissRate, 0.02),
        err(clone.l1dMissRate, ref.l1dMissRate, 0.02),
        err(clone.l2MissRate, ref.l2MissRate, 0.05),
        err(clone.llcMissRate, ref.llcMissRate, 0.05),
    };
    return 100.0 * *std::max_element(std::begin(errs), std::end(errs));
}

IterResult
runClone(std::uint64_t seed, sim::RunExecutor &executor)
{
    IterResult r;
    Digest d;
    const Clock::time_point start = Clock::now();

    const apps::AppLoad appLoad = apps::redisLoad();
    const workload::LoadSpec load = appLoad.at(appLoad.mediumQps);
    SingleNode orig = deploySingleNode(kProfileSeed, "node",
                                       apps::redisSpec(), load,
                                       kProfileSeed ^ 0x10ad);
    r.setupS = secondsBetween(start, Clock::now());

    // The profiling windows of bench_common's cloneSingleTier.
    core::CloneOptions opts;
    opts.fineTune = true;
    opts.executor = &executor;
    opts.profiling.warmup = sim::milliseconds(150);
    opts.profiling.window = sim::milliseconds(120);
    const Clock::time_point c0 = Clock::now();
    const core::CloneResult clone = SpanLog::active()
        ? cloneByStages(*orig.dep, *orig.svc, load, opts, r)
        : core::cloneService(*orig.dep, *orig.svc, load,
                             hw::platformA(), opts);
    r.cloneS = secondsBetween(c0, Clock::now());
    r.profileWindowRequests = clone.profile.requestsObserved;
    r.tuneIterations = clone.tuning.iterations;
    r.converged = clone.tuning.converged;
    if (!r.converged)
        r.gateError = "fine-tune did not converge";

    drainLoad(*orig.dep, *orig.gen, kCloneRerun, r, d);
    keepProbeInput(*orig.svc, r);
    tearDown(orig.gen, orig.dep);

    // Score the tuned clone in a fresh deployment under the run's
    // traffic, which the profile and the tuner's sandboxes never saw.
    SingleNode score = deploySingleNode(kDeploymentSeed, "node", clone.spec,
                                        core::cloneLoadSpec(load), seed);
    measureWindow(*score.dep, *score.gen, kCloneRerun, r, d);
    profile::PerfReport report = timed("profile", "snapshotService", [&] {
        return profile::snapshotService(*score.svc);
    });
    profile::overrideLatency(report, score.gen->latency());
    r.cloneErrPct = counterErrorPct(report, clone.profile.reference);
    drainLoad(*score.dep, *score.gen, kCloneRerun, r, d);
    tearDown(score.gen, score.dep);

    const core::GenerationConfig &cfg = clone.config;
    d.add(cfg.instScale);
    d.add(cfg.imemTailScale);
    d.add(cfg.dmemTailScale);
    d.add(cfg.chaseScale);
    d.add(static_cast<std::uint64_t>(cfg.branchExpShift));
    d.add(static_cast<std::uint64_t>(r.tuneIterations));
    d.add(static_cast<std::uint64_t>(r.converged));
    d.add(clone.tuning.finalIpcError);
    d.add(r.profileWindowRequests);
    d.add(r.cloneErrPct);
    r.wallS = secondsBetween(start, Clock::now());
    r.digest = d.value();
    return r;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"serve", "fleet",
                                                   "clone"};
    return names;
}

IterResult
runIteration(const std::string &workload, std::uint64_t seed,
             sim::RunExecutor &executor)
{
    if (workload == "serve")
        return runServe(seed);
    if (workload == "fleet")
        return runFleet(seed);
    return runClone(seed, executor);
}

} // namespace perfbench
