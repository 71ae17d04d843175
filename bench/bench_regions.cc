/**
 * @file
 * Multi-region failover benchmark: RTO and cross-region latency.
 *
 * Sweeps a replicated service from 1 to 4 serving regions behind a
 * front service homed in its own region, joined by a seeded WAN mesh
 * (cluster/region.h). Each case drives open-loop load through the
 * front (prefer-local balancing) and injects a region-outage window
 * on the first serving region plus -- when a second serving region
 * exists -- a WAN partition between the front's region and that
 * region. A RegionFailoverMonitor watches the group and re-routes:
 * per case the bench reports the client outcome mix, p50/p99, and the
 * monitor's failovers, recoveries, and last detection-to-reroute
 * interval (RTO).
 *
 * With one serving region the outage has nowhere to fail over to and
 * the client eats timeouts; from two regions on, traffic re-routes
 * across the WAN and requests keep completing at a higher p99 --
 * which is the multi-region availability story in one table.
 *
 * Cases fan out on the RunExecutor and stdout is printed after the
 * ordered join, so output is byte-identical at any --jobs (§8).
 * Results are published into BENCH_pipeline.json via
 * recordBenchEntry("bench_regions_failover", ...).
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "app/deployment.h"
#include "bench/bench_common.h"
#include "cluster/failover.h"
#include "cluster/region.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "hw/block_builder.h"
#include "obs/metrics.h"
#include "workload/loadgen.h"

using namespace ditto;

namespace {

struct RegionRow
{
    unsigned regions = 0;  //!< serving regions (front region excluded)
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t timedOut = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    std::uint64_t failovers = 0;
    std::uint64_t recoveries = 0;
    double rtoMs = 0;  //!< last detection-to-reroute interval
    double wallSeconds = 0;
};

std::string
regionName(unsigned i)
{
    return std::string("r").append(std::to_string(i));
}

app::ServiceSpec
computeService(const std::string &name, std::uint64_t seed)
{
    app::ServiceSpec s;
    s.name = name;
    s.threads.workers = 2;
    hw::BlockSpec bs;
    bs.label = name + ".h";
    bs.instCount = 64;
    bs.seed = seed;
    s.blocks.push_back(hw::buildBlock(bs));
    app::EndpointSpec ep;
    ep.name = "req";
    ep.handler.ops.push_back(app::opCompute(0, 2, 6));
    s.endpoints.push_back(std::move(ep));
    return s;
}

RegionRow
runRegionCase(unsigned servingRegions)
{
    const auto wallStart = std::chrono::steady_clock::now();

    app::Deployment dep(4242);

    // Region r0 homes the front; r1..rN each host one api replica.
    std::vector<cluster::RegionSpec> regions;
    regions.push_back({regionName(0), 1});
    for (unsigned r = 1; r <= servingRegions; ++r)
        regions.push_back({regionName(r), 1});
    cluster::WanProfile wan;
    wan.baseLatency = sim::microseconds(300);
    wan.latencySpread = sim::microseconds(150);
    wan.seed = 7;
    const std::vector<std::uint32_t> ids =
        cluster::buildRegions(dep, regions, wan);

    app::ServiceSpec api = computeService("api", 0x5eedbull);

    app::ServiceSpec front = computeService("front", 0xf207ull);
    front.name = "front";
    front.threads.workers = 8;
    front.downstreams.push_back("api");
    front.balancing.defaultPolicy = cluster::BalancerPolicy::PreferLocal;
    front.resilience.rpcDeadline = sim::milliseconds(4);
    front.resilience.retry.maxAttempts = 2;
    front.resilience.retry.baseBackoff = sim::microseconds(200);
    front.resilience.retry.maxBackoff = sim::milliseconds(1);
    front.resilience.propagateDeadline = true;
    front.endpoints[0].handler.ops.insert(
        front.endpoints[0].handler.ops.begin() + 1,
        app::opRpc(0, 0, 128, 256));

    dep.deployInRegion(api, regionName(1));
    for (unsigned r = 2; r <= servingRegions; ++r)
        dep.addReplicaInRegion("api", regionName(r));
    dep.deployInRegion(front, regionName(0));
    dep.wireAll();

    obs::MetricsRegistry metrics;
    cluster::RegionFailoverSpec fs;
    fs.period = sim::microseconds(500);
    fs.failureThreshold = 2;
    fs.viewRegion = ids.front();
    cluster::RegionFailoverMonitor monitor(dep, "api", metrics, fs);
    monitor.start();

    // Outage of the first serving region mid-run; once a second
    // serving region exists, also partition the front's region from
    // it later in the run (unreachable =/= crashed -- the monitor
    // must retire it all the same).
    fault::FaultPlan plan;
    plan.regionOutage(regionName(1), sim::milliseconds(30),
                      sim::milliseconds(20));
    if (servingRegions >= 2) {
        plan.regionPartition(regionName(0), regionName(2),
                             sim::milliseconds(60),
                             sim::milliseconds(15));
    }
    fault::FaultInjector inj(dep);
    inj.install(plan);

    workload::LoadSpec ls;
    ls.qps = 2000;
    ls.connections = 4;
    ls.openLoop = true;
    ls.timeout = sim::milliseconds(10);
    workload::LoadGen lg(dep, *dep.find("front"), ls, 91);

    lg.start();
    dep.runFor(sim::milliseconds(90));
    lg.stop();
    dep.runFor(sim::milliseconds(10));

    RegionRow row;
    row.regions = servingRegions;
    row.sent = lg.sent();
    row.ok = lg.completedOk();
    row.timedOut = lg.timedOut();
    row.p50Ms =
        static_cast<double>(lg.latency().percentile(0.5)) / 1e6;
    row.p99Ms =
        static_cast<double>(lg.latency().percentile(0.99)) / 1e6;
    row.failovers = monitor.stats().failovers;
    row.recoveries = monitor.stats().recoveries;
    row.rtoMs = static_cast<double>(monitor.stats().lastRtoNs) / 1e6;
    row.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wallStart)
                          .count();
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchRuntime rt(argc, argv, "regions");

    std::vector<std::function<RegionRow()>> tasks;
    for (unsigned n = 1; n <= 4; ++n)
        tasks.push_back([n] { return runRegionCase(n); });
    const std::vector<RegionRow> rows =
        rt.executor().runOrdered<RegionRow>(std::move(tasks));

    std::printf(
        "# bench_regions: failover RTO and cross-region latency\n");
    std::printf("%8s %8s %8s %8s %8s %8s %5s %5s %8s\n", "regions",
                "sent", "ok", "timeout", "p50_ms", "p99_ms", "fo",
                "rec", "rto_ms");
    std::string cases = "[";
    for (const RegionRow &r : rows) {
        std::printf(
            "%8u %8llu %8llu %8llu %8.3f %8.3f %5llu %5llu %8.3f\n",
            r.regions, static_cast<unsigned long long>(r.sent),
            static_cast<unsigned long long>(r.ok),
            static_cast<unsigned long long>(r.timedOut), r.p50Ms,
            r.p99Ms, static_cast<unsigned long long>(r.failovers),
            static_cast<unsigned long long>(r.recoveries), r.rtoMs);
        std::fprintf(stderr, "[regions %u] wall %.2fs\n", r.regions,
                     r.wallSeconds);
        char buf[256];
        std::snprintf(
            buf, sizeof buf,
            "%s{\"regions\": %u, \"sent\": %llu, \"ok\": %llu, "
            "\"timeout\": %llu, \"p99_ms\": %.3f, \"failovers\": "
            "%llu, \"rto_ms\": %.3f}",
            cases.size() > 1 ? ", " : "", r.regions,
            static_cast<unsigned long long>(r.sent),
            static_cast<unsigned long long>(r.ok),
            static_cast<unsigned long long>(r.timedOut), r.p99Ms,
            static_cast<unsigned long long>(r.failovers), r.rtoMs);
        cases += buf;
    }
    cases += "]";
    bench::recordBenchEntry("bench_regions_failover",
                            "{\"cases\": " + cases + "}");

    rt.finish();
    return 0;
}
