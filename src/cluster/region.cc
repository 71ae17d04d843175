#include "cluster/region.h"

#include <algorithm>

#include "app/deployment.h"
#include "hw/platform.h"
#include "os/network.h"
#include "sim/rng.h"

namespace ditto::cluster {

std::vector<std::uint32_t>
buildRegions(app::Deployment &dep,
             const std::vector<RegionSpec> &regions,
             const WanProfile &wan)
{
    std::vector<std::uint32_t> ids;
    ids.reserve(regions.size());
    for (const RegionSpec &r : regions)
        ids.push_back(dep.defineRegion(r.name));

    auto idx = static_cast<unsigned>(dep.machines().size());
    for (const RegionSpec &r : regions) {
        for (unsigned k = 0; k < std::max(1u, r.machines); ++k) {
            dep.addMachine(std::string("m").append(std::to_string(idx++)),
                           hw::platformA(), r.name);
        }
    }

    for (std::uint32_t a : ids) {
        for (std::uint32_t b : ids) {
            if (a == b)
                continue;
            // Per-directed-pair latency and burst seed, derived from
            // the profile seed alone.
            std::uint64_t state = wan.seed ^
                (std::uint64_t{a} << 32) ^ b ^ 0xd1770ull;
            os::WanLinkSpec spec;
            spec.latency = wan.baseLatency;
            if (wan.latencySpread > 0)
                spec.latency += static_cast<sim::Time>(
                    sim::splitmix64(state) %
                    static_cast<std::uint64_t>(wan.latencySpread));
            spec.bytesPerNs = wan.bytesPerNs;
            spec.burstMeanInterval = wan.burstMeanInterval;
            spec.burstLength = wan.burstLength;
            spec.burstDropProb = wan.burstDropProb;
            spec.burstSeed = sim::splitmix64(state);
            dep.network().setWanLink(a, b, spec);
        }
    }
    return ids;
}

} // namespace ditto::cluster
