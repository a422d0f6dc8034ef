#include <algorithm>
#include <stdexcept>

#include "core/sensitivity.hh"
#include "dse/result_codec.hh"
#include "exec/thread_pool.hh"
#include "workloads.hh"

namespace mwbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_ratio", "ratio"},
    {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},
    {"ops_per_s", "1/s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"thermal.solves", "count"},
    {"thermal.busy_ms", "ms"},
    {"thermal.hit_ratio", "ratio"},
    {"thermal.solve_ms_p50", "ms"},
    {"dse.evaluations", "count"},
    {"dse.feasible_ratio", "ratio"},
    {"dse.evaluate_ns_p50", "ns"},
    {"dse.explore_ms_p50", "ms"},
    {"dse.explore_ms_max", "ms"},
    {"dse.pareto_us_p50", "us"},
    {"dse.codec_decode_us_p50", "us"},
    {"dse.codec_encode_us_p50", "us"},
    {"dse.memo_hit_ratio", "ratio"},
    {"explore.accounted_ratio", "ratio"},
    {"exec.threads", "count"},
    {"exec.busy_ms", "ms"},
    {"exec.utilization", "ratio"},
    {"exec.steals", "count"},
    {"exec.queue_depth_max", "count"},
    {"exec.disk.hits", "count"},
    {"exec.disk.load_us_p50", "us"},
    {"core.sweep_ms_p50", "ms"},
    {"serve.parse_us_p50", "us"},
    {"serve.parse_us_p99", "us"},
    {"serve.validate_us_p50", "us"},
    {"serve.validate_us_p99", "us"},
    {"serve.admission_us_p50", "us"},
    {"serve.admission_us_p99", "us"},
    {"serve.flight_wait_us_p50", "us"},
    {"serve.flight_wait_us_p99", "us"},
    {"serve.compute_us_p50", "us"},
    {"serve.compute_us_p99", "us"},
    {"serve.serialize_us_p50", "us"},
    {"serve.serialize_us_p99", "us"},
    {"serve.write_us_p50", "us"},
    {"serve.write_us_p99", "us"},
    {"serve.singleflight_hit_ratio", "ratio"},
    {"serve.source.memo", "count"},
    {"serve.source.disk", "count"},
    {"serve.source.flight", "count"},
    {"serve.source.computed", "count"},
    {"serve.rejected", "count"},
    {"serve.bytes_out_p50", "bytes"},
    {"serve.goodput_rps", "1/s"},
    {"obs.trace_overhead_pct", "%"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.sent", "count"},
};

void
emitMetrics(Outcome &out, const std::vector<MetricSpec> &specs,
            const std::map<std::string, double> &values)
{
    for (const auto &spec : specs) {
        auto it = values.find(spec.name);
        if (it == values.end())
            throw std::logic_error(std::string("metric ") + spec.name +
                                   " was not measured");
        out.metric(spec.name, it->second, spec.unit);
    }
}

std::map<std::string, double>
opMetrics(const std::vector<double> &ms, const std::vector<double> &steal)
{
    std::vector<double> own;
    double total_ms = 0;
    for (size_t i = 0; i < ms.size(); ++i) {
        own.push_back(ms[i] * (1.0 - steal[i]));
        total_ms += own.back();
    }
    // The tail as the mean of the slowest quarter: a run holds tens of
    // operations, too few for any percentile above the median to have
    // ten beyond it, and the slowest one alone swings with single
    // stalls of the host.
    std::vector<double> sorted = own;
    std::sort(sorted.begin(), sorted.end());
    const size_t quarter = std::max<size_t>(1, sorted.size() / 4);
    double tail_ms = 0;
    for (size_t i = sorted.size() - quarter; i < sorted.size(); ++i)
        tail_ms += sorted[i] / static_cast<double>(quarter);
    return {{"op_p50_ms", median(own)},
            {"op_tail_ms", tail_ms},
            {"ops_per_s", static_cast<double>(own.size()) * 1e3 / total_ms}};
}

std::map<std::string, double>
perLayerZeros()
{
    std::map<std::string, double> values;
    for (const auto &spec : kPerLayer)
        values[spec.name] = 0.0;
    return values;
}

void
digestSweep(const std::vector<core::NodeResult> &sweep, Digest &digest)
{
    for (const auto &r : sweep) {
        dse::ExplorationResult one;
        one.tco_optimal = r.optimal;
        digest.add(static_cast<uint64_t>(r.node))
            .add(dse::encodeExplorationResult(one));
        for (double v : {r.nre.mask, r.nre.package, r.nre.frontend_labor,
                         r.nre.frontend_cad, r.nre.backend_labor,
                         r.nre.backend_cad, r.nre.ip, r.nre.system_labor,
                         r.nre.pcb_design})
            digest.add(v);
    }
}

uint64_t
digestUncertainty(const core::UncertaintyResult &result)
{
    Digest d;
    for (const auto &[choice, fraction] : result.choice_fraction)
        d.add(choice).add(fraction);
    const auto &s = result.total_cost;
    d.add(static_cast<uint64_t>(s.count));
    for (double v : {s.mean, s.stddev, s.min, s.p10, s.median, s.p90,
                     s.max})
        d.add(v);
    d.add(result.modal_choice);
    return d.value();
}

int
setUpOnly(const std::string &workload)
{
    exec::setGlobalConcurrency(std::max(1, nproc() - 1));
    (void)exec::ThreadPool::global();
    dse::ExplorerOptions options;
    if (workload == "montecarlo")
        options = core::UncertaintyAnalysis::coarseOptions();
    else if (workload != "sweep_cold")
        return 2;
    core::ScenarioRunner runner(core::Scenario{}, options);
    return 0;
}

std::vector<apps::AppSpec>
paperApps()
{
    return apps::allApps();
}

} // namespace mwbench
