/**
 * @file
 * Outside-in layer probes for the traced run: the benchmark times its
 * own calls into each layer's public functions (core sweepNodes, dse
 * explore / evaluate / paretoFront / result codec, thermal solve) on a
 * workload's own inputs, and reads the counters the program exports
 * through the obs registry.
 */
#ifndef MWBENCH_LAYERS_HH
#define MWBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "apps/apps.hh"
#include "core/sensitivity.hh"
#include "support.hh"

namespace mwbench {

/** Samples gathered by probeLayers(). */
struct LayerProbe
{
    std::vector<double> sweep_ms;          ///< cold sweepNodes per app
    std::vector<double> explore_ms;        ///< cold explore per (app, node)
    std::vector<double> thermal_solve_ms;  ///< cold solve per visited pair
    std::vector<double> evaluate_ns;       ///< warm evaluate, per config
    std::vector<double> pareto_us;         ///< paretoFront on feasible sets
    std::vector<double> encode_us;         ///< result codec
    std::vector<double> decode_us;
    /** explore.accounted_ratio = accounted_ns / explore_cpu_ns. */
    double accounted_ns = 0;
    double explore_cpu_ns = 0;

    double accountedRatio() const
    {
        return explore_cpu_ns > 0 ? accounted_ns / explore_cpu_ns : 0.0;
    }
};

/**
 * Probe every layer on fresh stacks built from @p scenario and
 * @p options, for @p apps.  Each sweepNodes and each explore runs on
 * its own new stack, so every timing is cold; explores run with the
 * memo off.  Turns obs metrics on for its duration.  Spans go to
 * @p tracer under @p id.
 */
LayerProbe probeLayers(const core::Scenario &scenario,
                       const dse::ExplorerOptions &options,
                       const std::vector<apps::AppSpec> &apps,
                       Tracer &tracer, uint64_t id);

/** Value of counter @p name in the obs registry (0 if absent). */
double counterValue(const std::string &name);
/** Sum and count of histogram @p name in the obs registry. */
struct HistogramTotals
{
    double sum = 0;
    double count = 0;
};
HistogramTotals histogramTotals(const std::string &name);
double gaugeValue(const std::string &name);

} // namespace mwbench

#endif // MWBENCH_LAYERS_HH
