/**
 * @file
 * The three workloads, the metric catalogue they report against, and
 * the full-precision digests their output checks compare.
 */
#ifndef MWBENCH_WORKLOADS_HH
#define MWBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/optimizer.hh"
#include "core/uncertainty.hh"
#include "support.hh"

namespace mwbench {

/** One benchmark invocation. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string moonwalk;   ///< the moonwalk CLI binary
    std::string work_dir;   ///< private scratch directory of this run
    std::string trace_path; ///< where a traced run writes its spans
};

/**
 * The set-up of an in-process workload, run in a fresh process whose
 * launch medianLaunchS() times: start the exec pool and build the
 * workload's stack.  Returns the exit code.
 */
int setUpOnly(const std::string &workload);

Outcome runSweepCold(const RunConfig &cfg);
Outcome runMonteCarlo(const RunConfig &cfg);
Outcome runServeMix(const RunConfig &cfg);

/** A metric's name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric, reported by every workload untraced. */
extern const std::vector<MetricSpec> kEndToEnd;
/** Every per-layer metric, reported by every workload traced. */
extern const std::vector<MetricSpec> kPerLayer;

/**
 * Append the metrics of @p specs to @p out, in catalogue order, taking
 * values from @p values; a catalogue entry without a value is an
 * error in the workload (std::logic_error).
 */
void emitMetrics(Outcome &out, const std::vector<MetricSpec> &specs,
                 const std::map<std::string, double> &values);

/**
 * op_p50_ms, op_tail_ms and ops_per_s of a run of back-to-back
 * operations lasting @p ms each, while the hypervisor stole @p steal
 * of the machine's CPU time (see cpuSample()).  Each time is counted
 * as it would read without steal, ms * (1 - steal): the operations are
 * CPU-bound on every core, so stolen time stretches them in
 * proportion.  On an unshared machine steal is 0 and nothing changes.
 * Reports the median, the mean of the slowest quarter, and operations
 * per second of their summed time.
 */
std::map<std::string, double> opMetrics(const std::vector<double> &ms,
                                        const std::vector<double> &steal);

/** Every per-layer metric at 0: the value for layers a workload does
 *  not exercise.  Workloads overwrite what they measure. */
std::map<std::string, double> perLayerZeros();

/** Bit-exact digest of one app's sweep: every field of each node's
 *  optimal design (through the result codec) and its NRE. */
void digestSweep(const std::vector<core::NodeResult> &sweep,
                 Digest &digest);
/** Bit-exact digest of an uncertainty result. */
uint64_t digestUncertainty(const core::UncertaintyResult &result);

/** The four paper applications, in the paper's order. */
std::vector<apps::AppSpec> paperApps();

} // namespace mwbench

#endif // MWBENCH_WORKLOADS_HH
