/**
 * @file
 * e2ebench: runs one workload and prints one JSON result line.
 *
 *   e2ebench --workload sweep_cold|montecarlo|serve_mix --seed N
 *            --seconds S --trace 0|1 --moonwalk <cli> --work-dir <dir>
 *            [--trace-out <file>]
 *   e2ebench --setup-only --workload sweep_cold|montecarlo
 *
 * run.py builds it and passes the paths; see BENCHMARK.json.
 */
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "exec/thread_pool.hh"
#include "workloads.hh"

using namespace mwbench;

namespace {

int
usage(const std::string &why)
{
    std::cerr << "e2ebench: " << why << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 4 && std::string(argv[1]) == "--setup-only" &&
        std::string(argv[2]) == "--workload")
        return setUpOnly(argv[3]);

    RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            cfg.workload = v;
        else if (a == "--seed")
            cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            cfg.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            cfg.trace = v == "1";
        else if (a == "--moonwalk")
            cfg.moonwalk = v;
        else if (a == "--work-dir")
            cfg.work_dir = v;
        else if (a == "--trace-out")
            cfg.trace_path = v;
        else
            return usage("unknown flag " + a);
    }
    if (cfg.work_dir.empty() || cfg.seconds <= 0)
        return usage("need --work-dir and a positive --seconds");
    if (cfg.trace_path.empty())
        cfg.trace_path = cfg.work_dir + "/trace.json";

    // End-to-end runs see no disk cache unless the workload names one,
    // and `--jobs N` means N pool workers plus the calling thread.
    unsetenv("MOONWALK_CACHE_DIR");
    try {
        exec::setGlobalConcurrency(std::max(1, nproc() - 1));
        Outcome out;
        if (cfg.workload == "sweep_cold")
            out = runSweepCold(cfg);
        else if (cfg.workload == "montecarlo")
            out = runMonteCarlo(cfg);
        else if (cfg.workload == "serve_mix") {
            if (cfg.moonwalk.empty())
                return usage("serve_mix needs --moonwalk");
            out = runServeMix(cfg);
        } else
            return usage("unknown workload '" + cfg.workload + "'");
        for (const auto &why : out.invalid)
            std::cerr << "e2ebench: invalid run: " << why << "\n";
        for (const auto &m : out.metrics)
            std::cerr << "  " << m.name << " = " << formatDouble(m.value)
                      << " " << m.unit << "\n";
        std::cout << resultLine(out) << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "e2ebench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
