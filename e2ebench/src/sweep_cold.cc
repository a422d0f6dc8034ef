/**
 * @file
 * sweep_cold: what a one-shot report or ablation user pays.  Each
 * iteration builds a fresh ScenarioRunner under its own cooling
 * scenario (bench_ablation_cooling's envelope) and prefetches all four
 * paper apps at full resolution, with the disk cache off.  A fresh
 * LaneEnvironment per iteration means no cache at any scope can carry
 * thermal work from one iteration to the next.
 */
#include <malloc.h>

#include <algorithm>
#include <set>
#include <utility>

#include "inputs.hh"
#include "layers.hh"
#include "obs/metrics.hh"
#include "workloads.hh"

namespace mwbench {

namespace {

namespace obs = moonwalk::obs;

core::Scenario
scenarioOf(const Cooling &c, const std::string &name)
{
    core::Scenario s;
    s.name = name;
    s.fan_pressure_scale = c.fan_pressure_scale;
    s.tj_margin_c = c.tj_margin_c;
    return s;
}

/** Digest of every app's sweep on @p optimizer. */
uint64_t
digestAll(const core::MoonwalkOptimizer &optimizer,
          const std::vector<apps::AppSpec> &apps)
{
    Digest d;
    for (const auto &app : apps)
        digestSweep(optimizer.sweepNodes(app), d);
    return d.value();
}

constexpr int kSetupLaunches = 41;
constexpr int kMinIterations = 3;
/** Traced runs do a fixed amount of work so counts repeat exactly:
 *  this many untraced/traced iteration pairs. */
constexpr int kTracedPairs = 3;

} // namespace

Outcome
runSweepCold(const RunConfig &cfg)
{
    Outcome out;
    Tracer tracer(cfg.trace);
    const auto apps = paperApps();
    const dse::ExplorerOptions full;  // full resolution, memo on
    obs::setMetricsEnabled(false);
    obs::metrics().resetAll();

    // Set-up: what starting a one-shot run costs, from launching a
    // process to its stack being built (see setUpOnly()).
    const double setup_s = medianLaunchS(
        {"--setup-only", "--workload", "sweep_cold"}, kSetupLaunches);

    std::set<std::pair<double, double>> environments;
    std::vector<double> iter_ms, steal, traced_ms, untraced_ms;
    std::vector<uint64_t> digests;
    double thermal_hits = 0, thermal_misses = 0;
    double memo_hits = 0, memo_misses = 0;
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
                      : i >= kMinIterations && elapsed() >= cfg.seconds)
            break;
        // Hand the previous iteration's memory back, so the peak RSS
        // is one iteration's footprint, not allocator history.
        malloc_trim(0);
        const Cooling c = coolingScenario(cfg.seed, i);
        if (!environments.insert({c.fan_pressure_scale, c.tj_margin_c})
                 .second)
            out.invalid.push_back("a LaneEnvironment repeated");
        const bool traced = cfg.trace && i % 2 == 1;
        obs::setMetricsEnabled(traced);

        const auto scenario = scenarioOf(c, "iter-" + std::to_string(i));
        const int span = traced ? tracer.begin("iteration", i) : -1;
        const CpuSample machine0 = cpuSample(0);
        const uint64_t t0 = nowNs();
        int build = traced ? tracer.begin("core.ScenarioRunner", i) : -1;
        core::ScenarioRunner runner(scenario, full);
        tracer.end(build);
        int prefetch = traced ? tracer.begin("core.prefetch", i) : -1;
        runner.optimizer().prefetch(apps);
        tracer.end(prefetch);
        const double ms = static_cast<double>(nowNs() - t0) / 1e6;
        tracer.end(span);
        obs::setMetricsEnabled(false);

        iter_ms.push_back(ms);
        steal.push_back(stealShare(machine0, cpuSample(0)));
        (traced ? traced_ms : untraced_ms).push_back(ms);
        const auto &explorer = runner.optimizer().explorer();
        if (explorer.sweepCacheHits() != 0 ||
            explorer.diskCacheHits() != 0)
            out.invalid.push_back("iteration " + std::to_string(i) +
                                  " was answered from a sweep cache");
        if (traced) {
            thermal_hits += static_cast<double>(explorer.thermalCacheHits());
            thermal_misses +=
                static_cast<double>(explorer.thermalCacheMisses());
            memo_hits += static_cast<double>(explorer.sweepCacheHits());
            memo_misses += static_cast<double>(explorer.sweepCacheMisses());
        }
        digests.push_back(digestAll(runner.optimizer(), apps));
    }
    const double window_s = elapsed();
    const auto use = threadUse(cpu0, threadCpuTicks());
    const double rss_mb = peakRssMb();
    if (use.threads > nproc())
        out.invalid.push_back("more threads took part than CPUs");

    // Output check, outside the timed window: recompute one seeded
    // iteration on a fresh, serial, memo-off stack.
    const size_t j = Rng(Rng::derive(cfg.seed, "sweep_cold.recheck"))
                         .below(digests.size());
    dse::ExplorerOptions serial = full;
    serial.max_threads = 1;
    serial.cache_sweeps = false;
    {
        core::ScenarioRunner reference(
            scenarioOf(coolingScenario(cfg.seed, static_cast<int>(j)),
                       "recheck"),
            serial);
        if (digestAll(reference.optimizer(), apps) != digests[j]) {
            ++out.failed;
            out.correct = false;
        }
    }
    out.attempted = digests.size();

    if (!cfg.trace) {
        auto e2e = opMetrics(iter_ms, steal);
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
    v["dse.memo_hit_ratio"] = memo_hits + memo_misses > 0
        ? memo_hits / (memo_hits + memo_misses)
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

    const auto probe = probeLayers(
        scenarioOf(probeScenario(cfg.seed), "probe"), full, apps, tracer,
        0);
    v["thermal.solve_ms_p50"] = median(probe.thermal_solve_ms);
    v["dse.evaluate_ns_p50"] = median(probe.evaluate_ns);
    v["dse.explore_ms_p50"] = median(probe.explore_ms);
    v["dse.explore_ms_max"] = std::ranges::max(probe.explore_ms);
    v["dse.pareto_us_p50"] = median(probe.pareto_us);
    v["dse.codec_encode_us_p50"] = median(probe.encode_us);
    v["dse.codec_decode_us_p50"] = median(probe.decode_us);
    v["explore.accounted_ratio"] = probe.accountedRatio();
    v["core.sweep_ms_p50"] = median(probe.sweep_ms);
    tracer.write(cfg.trace_path);
    emitMetrics(out, kPerLayer, v);
    return out;
}

} // namespace mwbench
