#include "layers.hh"

#include <memory>

#include "dse/pareto.hh"
#include "dse/result_codec.hh"
#include "obs/metrics.hh"
#include "thermal/lane.hh"

namespace mwbench {

namespace {

using moonwalk::obs::MetricSample;

double
sampleValue(MetricSample::Kind kind, const std::string &name,
            double *count = nullptr)
{
    for (const auto &s : moonwalk::obs::metrics().snapshot()) {
        if (s.kind == kind && s.name == name) {
            if (count)
                *count = static_cast<double>(s.count);
            return s.value;
        }
    }
    return 0.0;
}

double
elapsedUs(uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e3;
}

} // namespace

double
counterValue(const std::string &name)
{
    return sampleValue(MetricSample::Kind::Counter, name);
}

double
gaugeValue(const std::string &name)
{
    return sampleValue(MetricSample::Kind::Gauge, name);
}

HistogramTotals
histogramTotals(const std::string &name)
{
    HistogramTotals t;
    t.sum = sampleValue(MetricSample::Kind::Histogram, name, &t.count);
    return t;
}

LayerProbe
probeLayers(const core::Scenario &scenario,
            const dse::ExplorerOptions &options,
            const std::vector<apps::AppSpec> &apps, Tracer &tracer,
            uint64_t id)
{
    namespace obs = moonwalk::obs;
    const bool metrics_were_on = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    LayerProbe probe;
    Tracer::Scope all(tracer, "probe", id);

    struct Visited
    {
        const apps::AppSpec *app;
        dse::DesignPoint point;
    };
    std::vector<Visited> visited;
    std::unique_ptr<core::ScenarioRunner> last;

    // core: one cold sweepNodes per app, each on a fresh stack.
    for (const auto &app : apps) {
        auto runner =
            std::make_unique<core::ScenarioRunner>(scenario, options);
        const uint64_t t0 = nowNs();
        {
            Tracer::Scope span(tracer, "core.sweepNodes", id);
            for (const auto &r : runner->optimizer().sweepNodes(app))
                visited.push_back({&app, r.optimal});
        }
        probe.sweep_ms.push_back(elapsedUs(t0) / 1e3);
        last = std::move(runner);
    }

    // dse: each (app, node) explored cold with the memo off, keeping
    // the feasible set so paretoFront and the codec see real inputs.
    dse::ExplorerOptions cold = options;
    cold.cache_sweeps = false;
    cold.keep_feasible_points = true;
    struct Charged
    {
        double thermal_ns;
        double evaluations;
        double pareto_ns;
        double cpu_ns;
    };
    std::vector<Charged> charged;
    for (const auto &app : apps) {
        for (tech::NodeId node : tech::kAllNodes) {
            core::ScenarioRunner runner(scenario, cold);
            const auto &explorer = runner.optimizer().explorer();
            const auto th0 = histogramTotals("thermal.solve.ns");
            const uint64_t cpu0 = processCpuNs();
            const uint64_t t0 = nowNs();
            dse::ExplorationResult result;
            {
                Tracer::Scope span(tracer, "dse.explore", id);
                result = explorer.explore(app.rca, node);
            }
            probe.explore_ms.push_back(elapsedUs(t0) / 1e3);
            const double cpu_ns =
                static_cast<double>(processCpuNs() - cpu0);
            const auto th1 = histogramTotals("thermal.solve.ns");

            uint64_t p0 = nowNs();
            {
                Tracer::Scope span(tracer, "dse.paretoFront", id);
                (void)dse::paretoFront(result.all_feasible);
            }
            const double pareto_us = elapsedUs(p0);
            probe.pareto_us.push_back(pareto_us);

            result.all_feasible.clear();
            p0 = nowNs();
            std::string bytes;
            {
                Tracer::Scope span(tracer, "dse.encode", id);
                bytes = dse::encodeExplorationResult(result);
            }
            probe.encode_us.push_back(elapsedUs(p0));
            p0 = nowNs();
            {
                Tracer::Scope span(tracer, "dse.decode", id);
                (void)dse::decodeExplorationResult(bytes);
            }
            probe.decode_us.push_back(elapsedUs(p0));

            charged.push_back({th1.sum - th0.sum,
                               static_cast<double>(result.evaluated),
                               pareto_us * 1e3, cpu_ns});
        }
    }

    // thermal: one cold solve per (dies, area) pair the sweeps chose,
    // each on a fresh model so nothing is cached.
    const auto env = last->optimizer().explorer().evaluator()
                         .lane().environment();
    for (const auto &v : visited) {
        thermal::LaneThermalModel lane(env);
        const uint64_t t0 = nowNs();
        {
            Tracer::Scope span(tracer, "thermal.solve", id);
            (void)lane.solve(v.point.config.dies_per_lane,
                             v.point.die_area_mm2);
        }
        probe.thermal_solve_ms.push_back(elapsedUs(t0) / 1e3);
    }

    // dse: warm evaluate() on the chosen configurations, on a private
    // copy of the stack's evaluator (one thread, as its contract asks).
    dse::ServerEvaluator evaluator = last->optimizer().explorer()
                                         .evaluator();
    constexpr int kCalls = 200;
    for (const auto &v : visited) {
        (void)evaluator.evaluate(v.app->rca, v.point.config);
        const uint64_t t0 = nowNs();
        {
            Tracer::Scope span(tracer, "dse.evaluate", id);
            for (int i = 0; i < kCalls; ++i)
                (void)evaluator.evaluate(v.app->rca, v.point.config);
        }
        probe.evaluate_ns.push_back(
            static_cast<double>(nowNs() - t0) / kCalls);
    }

    // Accounting of the cold explores: thermal busy + evaluations at
    // the warm evaluate cost + Pareto, over explore CPU time.  The
    // explores ran without a disk cache, so no codec time is charged.
    const double eval_ns = median(probe.evaluate_ns);
    for (const auto &c : charged) {
        probe.accounted_ns +=
            c.thermal_ns + c.evaluations * eval_ns + c.pareto_ns;
        probe.explore_cpu_ns += c.cpu_ns;
    }
    obs::setMetricsEnabled(metrics_were_on);
    return probe;
}

} // namespace mwbench
