/**
 * @file
 * The benchmark's three workloads. Each call runs one complete,
 * seeded iteration of a workload and returns its host times, its
 * deterministic counts, and the correctness-gate verdict. The seed
 * generates the client traffic; everything else is fixed.
 *
 *  serve  the original Memcached at medium load (14k req/s, open
 *         loop, 16 connections) on one platformA node: request-dense
 *         steady state on the hw replay path and the syscall/network
 *         path; no profiling, tuning or topology set-up.
 *  fleet  a generated 1000-service, depth-6 layered topology on 8
 *         machines at 600 req/s (open loop, 8 connections, 20 ms
 *         client timeout): thread- and service-dense, with context
 *         switches, the multi-tier RPC path, and the only large
 *         set-up.
 *  clone  the Ditto pipeline on Redis at medium load (2.4k req/s,
 *         closed loop, 8 connections): profile, skeleton, parallel
 *         fine-tune, generate, then one re-run of the clone in a
 *         fresh deployment to score its counter error.
 *
 * With a SpanLog installed every call into a layer's public function
 * is a span, and the simulated windows run in fixed slices; the
 * simulated outputs (and so the digest) are the same either way.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"
#include "sim/run_executor.h"

namespace perfbench {

/** Deterministic work counts, summed over every machine. */
struct Counters
{
    std::uint64_t events = 0;
    std::uint64_t l1iAccesses = 0, l1iMisses = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    std::uint64_t llcAccesses = 0, llcMisses = 0;
    std::uint64_t l1dInvalidations = 0, l2Invalidations = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t contextSwitches = 0, slices = 0, wakeups = 0;
    std::uint64_t syscalls = 0, sysRead = 0, sysWrite = 0;
    std::uint64_t sysEpollWait = 0, sysFutex = 0;
    std::uint64_t msgsSent = 0, msgsDropped = 0;

    Counters operator-(const Counters &o) const;
};

/** Client outcomes of one LoadGen over its whole run. */
struct ClientCounts
{
    std::uint64_t sent = 0, ok = 0, error = 0, shed = 0, timedOut = 0;

    void add(const ClientCounts &o);
};

/** Host time and events of one fixed simulated slice (traced runs). */
struct Slice
{
    const char *phase = "";  //!< "warm", "measure" or "drain"
    double seconds = 0;
    std::uint64_t events = 0;
};

struct IterResult
{
    // Host seconds, measured by the benchmark around the calls.
    double setupS = 0;  //!< start of the iteration to the first runFor
    double simS = 0;    //!< runFor over the measured window
    double wallS = 0;   //!< the whole iteration
    double cloneS = 0;  //!< core::cloneService (clone)
    double measureNs = 0;  //!< simulated length of the measured window

    // Deterministic simulated outputs.
    Counters window;           //!< counter delta over the measured window
    double instructions = 0;   //!< retired in the measured window
    std::uint64_t windowOk = 0;  //!< Ok responses in the measured window
    ClientCounts client;       //!< every LoadGen of the iteration
    double cloneErrPct = 0;
    double profileWindowRequests = 0;
    unsigned tuneIterations = 0;
    unsigned tuneCandidates = 0;
    bool converged = false;
    std::uint64_t digest = 0;

    /** Empty when the gate passed, else the first failed check. */
    std::string gateError;

    /** Traced runs: per-slice host times of the simulated windows. */
    std::vector<Slice> slices;
    /** The workload's service code, for the hw probes (traced runs). */
    std::shared_ptr<const ProbeInput> probeInput;
};

/** Workload names accepted by runIteration. */
const std::vector<std::string> &workloadNames();

/**
 * Run one iteration of `workload` with client traffic from `seed`.
 * `executor` evaluates clone fine-tune candidates (ignored by serve
 * and fleet).
 */
IterResult runIteration(const std::string &workload, std::uint64_t seed,
                        ditto::sim::RunExecutor &executor);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
