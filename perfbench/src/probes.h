/**
 * @file
 * Layer probes: host cost of single hw and sim entry points, timed in
 * isolation on inputs taken from a workload. Multiplied by the
 * workload's deterministic counts they estimate each entry point's
 * share of sim_s from outside the program.
 */

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "app/service.h"
#include "hw/code.h"

namespace perfbench {

/** One compute op of a service's request handlers. */
struct ComputeCall
{
    std::uint32_t block = 0;
    std::uint64_t itersMin = 1;
    std::uint64_t itersMax = 1;
};

/** A workload's service code, as the probes replay it. */
struct ProbeInput
{
    ditto::hw::CodeImage image;
    /** Compute ops of every endpoint handler, in program order. */
    std::vector<ComputeCall> calls;
};

ProbeInput probeInputOf(const ditto::app::ServiceInstance &svc);

struct ProbeResult
{
    /** CpuCore::run with replay on (the serving default). */
    double replayNsPerInst = 0;
    /** CpuCore::run in exact mode (the profiling path). */
    double exactNsPerInst = 0;
    /** CpuCore::contextSwitch on a warmed platformA hierarchy. */
    double ctxSwitchNs = 0;
    /** Cache::access on the workload's own data addresses. */
    double cacheAccessNs = 0;
    /** EventQueue::scheduleAt plus its share of runAll, per event. */
    double eventNs = 0;
};

/**
 * Probe on a platformA core making the handlers' compute calls, with
 * iteration counts drawn from each op's range as the service draws
 * them. `eventGapNs` is the workload's mean simulated time between
 * events, which sets the probe queue's density.
 */
ProbeResult runProbes(const ProbeInput &input, double eventGapNs);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H_
