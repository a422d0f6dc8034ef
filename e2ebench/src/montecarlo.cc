/**
 * @file
 * montecarlo: core::UncertaintyAnalysis::run on Bitcoin with its
 * coarse options and the default lane.  Every sample rebuilds the
 * whole stack under drawn mask, wafer, salary, IP and electricity
 * multipliers, so thermal keys repeat across samples while every
 * sweep's answer differs: sharing pure thermal results across
 * rebuilds gains most here, and a memo that ignored TCO or tech-DB
 * inputs would return wrong answers here.  Each run() call is one
 * sample with its own seeded UncertaintySpec::seed.
 */
#include <malloc.h>

#include <algorithm>

#include "inputs.hh"
#include "layers.hh"
#include "obs/metrics.hh"
#include "workloads.hh"

namespace mwbench {

namespace {

namespace obs = moonwalk::obs;

constexpr int kSetupLaunches = 41;
constexpr int kMinSamples = 5;
constexpr int kTracedPairs = 6;
/** Samples recomputed serially by the output check. */
constexpr int kRechecks = 2;

core::UncertaintySpec
specOf(uint64_t seed, int index)
{
    core::UncertaintySpec spec;
    spec.samples = 1;
    spec.seed = monteCarloSeed(seed, index);
    return spec;
}

} // namespace

Outcome
runMonteCarlo(const RunConfig &cfg)
{
    Outcome out;
    Tracer tracer(cfg.trace);
    const auto app = apps::bitcoin();
    const double workload = monteCarloWorkload(cfg.seed);
    const auto coarse = core::UncertaintyAnalysis::coarseOptions();
    obs::setMetricsEnabled(false);
    obs::metrics().resetAll();

    // Set-up: what starting a one-shot run costs, from launching a
    // process to its stack being built (see setUpOnly()).
    const double setup_s = medianLaunchS(
        {"--setup-only", "--workload", "montecarlo"}, kSetupLaunches);

    std::vector<double> sample_ms, steal, traced_ms, untraced_ms;
    std::vector<uint64_t> digests;
    double thermal_hits = 0, thermal_misses = 0;
    const auto th0 = histogramTotals("thermal.solve.ns");
    const double evals0 = counterValue("dse.evaluations");
    const double feasible0 = counterValue("dse.feasible");
    const double steals0 = counterValue("exec.tasks.stolen");

    const auto cpu0 = threadCpuTicks();
    const uint64_t start = nowNs();
    auto elapsed = [&] {
        return static_cast<double>(nowNs() - start) / 1e9;
    };
    for (int i = 0;; ++i) {
        if (cfg.trace ? i >= 2 * kTracedPairs
                      : i >= kMinSamples && elapsed() >= cfg.seconds)
            break;
        // Hand the previous iteration's memory back, so the peak RSS
        // is one iteration's footprint, not allocator history.
        malloc_trim(0);
        const bool traced = cfg.trace && i % 2 == 1;
        obs::setMetricsEnabled(traced);
        core::UncertaintyAnalysis analysis(specOf(cfg.seed, i), coarse);
        const int span = traced ? tracer.begin("core.Uncertainty.run", i)
                                : -1;
        const CpuSample machine0 = cpuSample(0);
        const uint64_t t0 = nowNs();
        const auto result = analysis.run(app, workload);
        const double ms = static_cast<double>(nowNs() - t0) / 1e6;
        tracer.end(span);
        if (traced) {
            // The sample's stack publishes its thermal totals when its
            // last explore finishes.
            thermal_hits += gaugeValue("thermal.cache.hits");
            thermal_misses += gaugeValue("thermal.cache.misses");
        }
        obs::setMetricsEnabled(false);
        sample_ms.push_back(ms);
        steal.push_back(stealShare(machine0, cpuSample(0)));
        (traced ? traced_ms : untraced_ms).push_back(ms);
        digests.push_back(digestUncertainty(result));
    }
    const double window_s = elapsed();
    const auto use = threadUse(cpu0, threadCpuTicks());
    const double rss_mb = peakRssMb();
    if (use.threads > nproc())
        out.invalid.push_back("more threads took part than CPUs");

    // Output check: recompute seeded samples on fresh, serial,
    // memo-off stacks.
    dse::ExplorerOptions serial = coarse;
    serial.max_threads = 1;
    serial.cache_sweeps = false;
    Rng pick(Rng::derive(cfg.seed, "montecarlo.recheck"));
    for (int r = 0; r < kRechecks; ++r) {
        const size_t j = pick.below(digests.size());
        core::UncertaintyAnalysis reference(
            specOf(cfg.seed, static_cast<int>(j)), serial);
        if (digestUncertainty(reference.run(app, workload)) !=
            digests[j]) {
            ++out.failed;
            out.correct = false;
        }
    }
    out.attempted = digests.size();

    if (!cfg.trace) {
        // Samples are alike (one app, one set of options, the default
        // lane), so the half taken while the hypervisor stole least is
        // a fair subset; it halves what the linear steal correction
        // leaves behind.  sweep_cold keeps every iteration: its
        // scenarios differ in cost.
        std::vector<size_t> order(sample_ms.size());
        for (size_t k = 0; k < order.size(); ++k)
            order[k] = k;
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return steal[a] < steal[b];
        });
        order.resize((order.size() + 1) / 2);
        std::vector<double> quiet_ms, quiet_steal;
        for (size_t k : order) {
            quiet_ms.push_back(sample_ms[k]);
            quiet_steal.push_back(steal[k]);
        }
        auto e2e = opMetrics(quiet_ms, quiet_steal);
        e2e["setup_s"] = setup_s;
        e2e["peak_rss_mb"] = rss_mb;
        e2e["ok_ratio"] = static_cast<double>(out.attempted - out.failed) /
            static_cast<double>(out.attempted);
        emitMetrics(out, kEndToEnd, e2e);
        return out;
    }

    const auto th1 = histogramTotals("thermal.solve.ns");
    const double evals = counterValue("dse.evaluations") - evals0;
    auto v = perLayerZeros();
    v["thermal.solves"] = th1.count - th0.count;
    v["thermal.busy_ms"] = (th1.sum - th0.sum) / 1e6;
    v["thermal.hit_ratio"] = thermal_hits + thermal_misses > 0
        ? thermal_hits / (thermal_hits + thermal_misses)
        : 0.0;
    v["dse.evaluations"] = evals;
    v["dse.feasible_ratio"] =
        evals > 0 ? (counterValue("dse.feasible") - feasible0) / evals
                  : 0.0;
    v["exec.threads"] = use.threads;
    v["exec.busy_ms"] = use.busy_ms;
    v["exec.utilization"] = use.threads
        ? use.busy_ms / (window_s * 1e3 * use.threads)
        : 0.0;
    v["exec.steals"] = counterValue("exec.tasks.stolen") - steals0;
    v["exec.queue_depth_max"] = gaugeValue("exec.queue.depth.max");
    v["obs.trace_overhead_pct"] =
        (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0;

    // Probes on the nominal stack the samples perturb.
    const auto probe =
        probeLayers(core::Scenario{}, coarse, {app}, tracer, 0);
    v["thermal.solve_ms_p50"] = median(probe.thermal_solve_ms);
    v["dse.evaluate_ns_p50"] = median(probe.evaluate_ns);
    v["dse.explore_ms_p50"] = median(probe.explore_ms);
    v["dse.explore_ms_max"] = std::ranges::max(probe.explore_ms);
    v["dse.pareto_us_p50"] = median(probe.pareto_us);
    v["explore.accounted_ratio"] = probe.accountedRatio();
    v["core.sweep_ms_p50"] = median(probe.sweep_ms);
    tracer.write(cfg.trace_path);

    // The serve layer, measured here because serve_mix is not among
    // the gated workloads (see PREDICTIONS.md): a traced serve_mix run
    // whose head profile is this workload's stack.  Its output checks
    // and premises count toward this run.
    RunConfig serve_cfg = cfg;
    serve_cfg.trace_path = cfg.trace_path + ".serve.json";
    const Outcome served = runServeMix(serve_cfg);
    for (const auto &m : served.metrics)
        if (m.name.rfind("serve.", 0) == 0 ||
            m.name.rfind("exec.disk.", 0) == 0 ||
            m.name.rfind("loadgen.", 0) == 0 ||
            m.name.rfind("dse.codec_", 0) == 0 ||
            m.name == "dse.memo_hit_ratio")
            v[m.name] = m.value;
    out.correct = out.correct && served.correct;
    out.invalid.insert(out.invalid.end(), served.invalid.begin(),
                       served.invalid.end());

    emitMetrics(out, kPerLayer, v);
    return out;
}

} // namespace mwbench
