#include "cluster/topo_gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "app/deployment.h"
#include "cluster/placer.h"
#include "hw/block_builder.h"
#include "hw/platform.h"
#include "sim/rng.h"

namespace ditto::cluster {

namespace {

std::string
serviceName(unsigned idx)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "s%04u", idx);
    return buf;
}

std::string
backendName(unsigned idx)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "db%u", idx);
    return buf;
}

/**
 * Pareto-tailed fan-out count: floor(u^(-1/alpha) - 1), so most draws
 * are 0-2 while occasional services become large aggregators. Capped
 * by the caller against the available deeper population.
 */
unsigned
heavyTailCount(sim::Rng &rng, double alpha)
{
    const double u = std::max(rng.uniform(), 1e-12);
    const double x = std::pow(u, -1.0 / alpha) - 1.0;
    return x >= 64.0 ? 64u : static_cast<unsigned>(x);
}

} // namespace

GeneratedTopology
generateTopology(const TopoSpec &spec)
{
    GeneratedTopology topo;
    const unsigned n = std::max(1u, spec.services);
    const unsigned depth =
        n == 1 ? 1 : std::max(2u, std::min(spec.depth, n));
    sim::Rng rng(spec.seed ^ 0x70b0617e5ull);

    std::vector<std::vector<unsigned>> downstreamOf(n);
    auto addEdge = [&](unsigned from, unsigned to) {
        auto &list = downstreamOf[from];
        if (std::find(list.begin(), list.end(), to) != list.end())
            return;
        list.push_back(to);
        topo.edges++;
    };

    // Tree construction: every non-root service hangs off one
    // earlier-built parent, capped at maxChildren tree children so no
    // service's fan-in grows with the topology; its level is the
    // parent's plus one. Root-reachable by induction, and every edge
    // points strictly deeper, so the graph stays acyclic even after
    // the extra edges below.
    topo.level.assign(n, 0);
    const unsigned maxKids = std::max(1u, spec.maxChildren);
    std::vector<unsigned> treeKids(n, 0);
    std::vector<unsigned> cands;
    for (unsigned i = 1; i < n; ++i) {
        cands.clear();
        for (unsigned j = 0; j < i; ++j) {
            if (topo.level[j] + 1 < depth && treeKids[j] < maxKids)
                cands.push_back(j);
        }
        if (cands.empty()) {
            // Capped tree full: overflow the cap, not the depth.
            for (unsigned j = 0; j < i; ++j) {
                if (topo.level[j] + 1 < depth)
                    cands.push_back(j);
            }
        }
        const unsigned parent = cands[static_cast<std::size_t>(
            rng.uniformInt(cands.size()))];
        treeKids[parent]++;
        topo.level[i] = topo.level[parent] + 1;
        addEdge(parent, i);
    }

    // Diamond dependencies: a second parent one level up, so two
    // paths from a common ancestor reconverge on the same callee.
    // Gated on the knob so default topologies draw nothing here.
    if (spec.diamondProbability > 0.0) {
        for (unsigned i = 1; i < n; ++i) {
            if (topo.level[i] < 2)
                continue;
            if (rng.uniform() >= spec.diamondProbability)
                continue;
            cands.clear();
            for (unsigned j = 0; j < n; ++j) {
                if (topo.level[j] + 1 == topo.level[i])
                    cands.push_back(j);
            }
            if (cands.empty())
                continue;
            addEdge(cands[static_cast<std::size_t>(
                        rng.uniformInt(cands.size()))],
                    i);
        }
    }

    // Extra fan-out edges, also strictly deeper.
    for (unsigned i = 0; i < n; ++i) {
        std::vector<unsigned> deeper;
        for (unsigned j = 1; j < n; ++j) {
            if (topo.level[j] > topo.level[i])
                deeper.push_back(j);
        }
        if (deeper.empty())
            continue;
        const auto extra = spec.fanoutTailAlpha > 0.0
            ? heavyTailCount(rng, spec.fanoutTailAlpha)
            : static_cast<unsigned>(
                  rng.uniformInt(std::uint64_t{spec.extraFanout} + 1));
        for (unsigned e = 0; e < extra; ++e) {
            addEdge(i, deeper[static_cast<std::size_t>(
                           rng.uniformInt(deeper.size()))]);
        }
    }

    // Shared stateful backends: every leaf calls one sampled backend
    // per request, converging the call paths the way production
    // databases and caches do. Also knob-gated draws.
    const unsigned nBackends =
        n > 1 ? spec.sharedBackends : 0;
    std::vector<int> backendOf(n, -1);
    if (nBackends > 0) {
        for (unsigned i = 0; i < n; ++i) {
            if (!downstreamOf[i].empty())
                continue;
            backendOf[i] = static_cast<int>(
                rng.uniformInt(std::uint64_t{nBackends}));
            topo.edges++;
        }
    }

    // Emit the specs.
    topo.specs.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        app::ServiceSpec s;
        s.name = serviceName(i);
        // The root fronts the whole tree; give it a wider pool so the
        // interesting bottleneck is the topology, not its own intake.
        s.threads.workers = i == 0
            ? std::max(8u, spec.workersPerService * 4)
            : std::max(1u, spec.workersPerService);
        if (spec.rpcDeadline > 0)
            s.resilience.rpcDeadline = spec.rpcDeadline;

        hw::BlockSpec bs;
        bs.label = s.name + ".h";
        bs.instCount = std::max(1u, spec.handlerInsts);
        bs.seed = spec.seed ^ (0x5eedb10cull + i);
        s.blocks.push_back(hw::buildBlock(bs));

        for (unsigned d : downstreamOf[i])
            s.downstreams.push_back(serviceName(d));
        const bool multi = s.downstreams.size() > 1;
        if (multi && rng.uniform() < spec.asyncFraction)
            s.clientModel = app::ClientModel::Async;

        app::EndpointSpec ep;
        ep.name = "req";
        ep.handler.ops.push_back(app::opCompute(0, 2, 6));
        if (s.downstreams.empty()) {
            if (rng.uniform() < spec.leafFileFraction) {
                s.fileBytes.push_back(std::uint64_t{64} << 10);
                ep.handler.ops.push_back(
                    app::opFileRead(0, 256, 4096));
            }
        } else if (s.clientModel == app::ClientModel::Async) {
            std::vector<app::RpcCallSpec> calls;
            const auto cap = static_cast<std::uint32_t>(std::min(
                s.downstreams.size(),
                std::size_t{std::max(1u, spec.maxAsyncFanout)}));
            for (std::uint32_t t = 0; t < cap; ++t)
                calls.push_back(app::RpcCallSpec{t, 0, 128, 256});
            ep.handler.ops.push_back(app::opRpcFanout(calls));
        } else {
            // First downstream on every request; each extra edge only
            // with extraCallProbability, so the call tree stays
            // bounded as the graph grows.
            ep.handler.ops.push_back(app::opRpc(0, 0, 128, 256));
            const double p =
                std::clamp(spec.extraCallProbability, 0.0, 1.0);
            for (std::uint32_t t = 1; t < s.downstreams.size(); ++t) {
                if (p >= 1.0) {
                    ep.handler.ops.push_back(
                        app::opRpc(t, 0, 128, 256));
                    continue;
                }
                if (p <= 0.0)
                    continue;
                app::Program arm;
                arm.ops.push_back(app::opRpc(t, 0, 128, 256));
                ep.handler.ops.push_back(app::opChoice(
                    {p, 1.0 - p}, {arm, app::Program{}}));
            }
        }
        if (backendOf[i] >= 0) {
            s.downstreams.push_back(
                backendName(static_cast<unsigned>(backendOf[i])));
            ep.handler.ops.push_back(app::opRpc(
                static_cast<std::uint32_t>(s.downstreams.size() - 1),
                0, 128, 256));
        }
        ep.handler.ops.push_back(app::opCompute(0, 1, 3));
        s.endpoints.push_back(std::move(ep));
        // Extra entry queries: same call pattern as endpoint 0 with
        // progressively heavier compute and larger responses. No Rng
        // draws, so the knob leaves default topologies untouched.
        for (unsigned q = 1; q < spec.endpointsPerService; ++q) {
            app::EndpointSpec extra = s.endpoints.front();
            extra.name = "req" + std::to_string(q);
            extra.handler.ops.insert(
                extra.handler.ops.begin(),
                app::opCompute(0, 1 + q, 3 + 3 * q));
            const unsigned shift = q < 4 ? q : 4;
            extra.responseBytesMin = extra.responseBytesMax =
                64u << shift;
            s.endpoints.push_back(std::move(extra));
        }
        topo.specs.push_back(std::move(s));
    }

    // The shared backends themselves: lock-serialized file state with
    // a prewarmed working set.
    topo.backends = nBackends;
    for (unsigned b = 0; b < nBackends; ++b) {
        app::ServiceSpec s;
        s.name = backendName(b);
        s.threads.workers = std::max(2u, spec.workersPerService);
        if (spec.rpcDeadline > 0)
            s.resilience.rpcDeadline = spec.rpcDeadline;
        hw::BlockSpec bs;
        bs.label = s.name + ".h";
        bs.instCount = std::max(1u, spec.handlerInsts);
        bs.seed = spec.seed ^ (0xdb5eedull + b);
        s.blocks.push_back(hw::buildBlock(bs));
        s.locks = 1;
        s.fileBytes.push_back(std::uint64_t{256} << 10);
        s.filePrewarmFraction = 0.5;
        app::EndpointSpec ep;
        ep.name = "req";
        ep.handler.ops.push_back(app::opCompute(0, 1, 3));
        ep.handler.ops.push_back(app::opLock(0));
        ep.handler.ops.push_back(app::opFileRead(0, 256, 4096));
        ep.handler.ops.push_back(app::opUnlock(0));
        s.endpoints.push_back(std::move(ep));
        topo.level.push_back(depth);
        topo.specs.push_back(std::move(s));
    }
    return topo;
}

app::ServiceInstance &
deployTopology(app::Deployment &dep, const GeneratedTopology &topo,
               unsigned machineCount)
{
    machineCount = std::max(1u, machineCount);
    const auto slots = static_cast<unsigned>(
        (topo.specs.size() + machineCount - 1) / machineCount);
    Placer placer;
    for (unsigned m = 0; m < machineCount; ++m) {
        placer.addMachine(
            dep.addMachine(std::string("m").append(std::to_string(m)),
                           hw::platformA()),
            slots);
    }
    for (const app::ServiceSpec &s : topo.specs)
        dep.deploy(s, placer.place());
    dep.wireAll();
    return *dep.find(topo.specs.front().name);
}

} // namespace ditto::cluster
