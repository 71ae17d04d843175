#include "hw/platform.h"

#include <cstdio>
#include <cstdlib>

namespace ditto::hw {

PlatformSpec
platformA()
{
    PlatformSpec p;
    p.name = 'A';
    p.cpuModel = "Gold 6152";
    p.cpuFamily = "Skylake";
    p.baseFrequencyGhz = 2.10;
    p.coresPerSocket = 22;
    p.sockets = 2;
    p.issueWidth = 4;
    p.mispredictPenalty = 16;
    p.mlp = 10;
    p.predictorLog2Entries = 14;
    p.predictorHistoryBits = 12;
    p.l2Bytes = 1024 * 1024;
    p.l2Ways = 16;
    p.llcBytes = 31719424;  // 30.25 MB
    p.llcWays = 11;
    p.latency = MemLatency{4, 12, 44, 220};
    p.ramBytes = 192ull << 30;
    p.ramMhz = 2666;
    p.disk = DiskKind::Ssd;
    p.diskBytes = 1ull << 40;
    p.nicGbps = 10.0;
    return p;
}

PlatformSpec
platformB()
{
    PlatformSpec p;
    p.name = 'B';
    p.cpuModel = "E5-2660 v3";
    p.cpuFamily = "Haswell";
    p.baseFrequencyGhz = 2.60;
    p.coresPerSocket = 10;
    p.sockets = 2;
    // Older generation: narrower effective issue, costlier recovery,
    // smaller predictor, fewer outstanding misses, slower memory.
    p.issueWidth = 3;
    p.mispredictPenalty = 18;
    p.mlp = 8;
    p.predictorLog2Entries = 13;
    p.predictorHistoryBits = 10;
    p.l2Bytes = 256 * 1024;
    p.l2Ways = 8;
    p.llcBytes = 25ull * 1024 * 1024;
    p.llcWays = 20;
    p.latency = MemLatency{4, 12, 36, 240};
    p.ramBytes = 128ull << 30;
    p.ramMhz = 2400;
    p.disk = DiskKind::Hdd;
    p.diskBytes = 2ull << 40;
    p.nicGbps = 1.0;
    return p;
}

PlatformSpec
platformC()
{
    PlatformSpec p;
    p.name = 'C';
    p.cpuModel = "E3-1240 v5";
    p.cpuFamily = "Skylake";
    p.baseFrequencyGhz = 3.50;
    p.coresPerSocket = 4;
    p.sockets = 1;
    p.issueWidth = 4;
    p.mispredictPenalty = 16;
    p.mlp = 10;
    p.predictorLog2Entries = 14;
    p.predictorHistoryBits = 12;
    p.l2Bytes = 256 * 1024;
    p.l2Ways = 4;
    p.llcBytes = 8ull * 1024 * 1024;
    p.llcWays = 16;
    p.latency = MemLatency{4, 12, 34, 200};
    p.ramBytes = 32ull << 30;
    p.ramMhz = 2133;
    p.disk = DiskKind::Hdd;
    p.diskBytes = 1ull << 40;
    p.nicGbps = 1.0;
    return p;
}

PlatformSpec
platformByName(const std::string &name)
{
    if (name == "A" || name == "a")
        return platformA();
    if (name == "B" || name == "b")
        return platformB();
    if (name == "C" || name == "c")
        return platformC();
    std::fprintf(stderr, "unknown platform: %s\n", name.c_str());
    std::abort();
}

PlatformSpec
withCoresAndFrequency(const PlatformSpec &base, unsigned cores,
                      double ghz)
{
    PlatformSpec p = base;
    p.coresPerSocket = cores;
    p.sockets = 1;
    p.baseFrequencyGhz = ghz;
    return p;
}

} // namespace ditto::hw
