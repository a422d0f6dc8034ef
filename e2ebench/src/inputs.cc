#include "inputs.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support.hh"

namespace mwbench {

namespace {

const char *const kApps[] = {"Bitcoin", "Litecoin", "Video Transcode",
                             "Deep Learning"};
const char *const kNodes[] = {"250nm", "180nm", "130nm", "90nm",
                              "65nm",  "40nm",  "28nm",  "16nm"};

/** Seeded permutation of 0..n-1. */
std::vector<size_t>
shuffled(Rng &rng, size_t n)
{
    std::vector<size_t> v(n);
    std::iota(v.begin(), v.end(), 0);
    for (size_t i = n; i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
    return v;
}

Cooling
fromUnit(double u_fan, double u_tj)
{
    // The fan scale is drawn log-uniformly: 0.5x and 2x are equally
    // far from the baseline.
    Cooling c;
    c.fan_pressure_scale = kFanScaleLo *
        std::pow(kFanScaleHi / kFanScaleLo, u_fan);
    c.tj_margin_c = kTjMarginLo + (kTjMarginHi - kTjMarginLo) * u_tj;
    return c;
}

} // namespace

Cooling
coolingScenario(uint64_t seed, int index)
{
    const int block = index / kCoolingBlock;
    const int slot = index % kCoolingBlock;
    Rng rng(Rng::derive(seed, "sweep_cold.block." +
                                  std::to_string(block)));
    const auto fan_strata = shuffled(rng, kCoolingBlock);
    const auto tj_strata = shuffled(rng, kCoolingBlock);
    std::vector<double> jitter(2 * kCoolingBlock);
    for (auto &j : jitter)
        j = rng.uniform();
    const double n = kCoolingBlock;
    return fromUnit(
        (static_cast<double>(fan_strata[slot]) + jitter[2 * slot]) / n,
        (static_cast<double>(tj_strata[slot]) + jitter[2 * slot + 1]) /
            n);
}

Cooling
probeScenario(uint64_t seed)
{
    Rng rng(Rng::derive(seed, "sweep_cold.probe"));
    const double u_fan = rng.uniform();
    return fromUnit(u_fan, rng.uniform());
}

uint64_t
monteCarloSeed(uint64_t seed, int index)
{
    return Rng::derive(seed, "montecarlo.sample." +
                                 std::to_string(index));
}

double
monteCarloWorkload(uint64_t seed)
{
    // bench_uncertainty's three workload scales.
    static constexpr double kWorkloads[] = {2e6, 25e6, 400e6};
    Rng rng(Rng::derive(seed, "montecarlo.workload"));
    return kWorkloads[rng.below(3)];
}

std::string
requestJson(const ServePool &pool, int key, long id)
{
    const std::string id_field =
        id >= 0 ? ",\"id\":" + std::to_string(id) : "";
    if (key == kPing)
        return "{\"cmd\":\"ping\"" + id_field + "}";
    if (key == kStats)
        return "{\"cmd\":\"stats\"" + id_field + "}";
    const ServeKey &k = pool.keys.at(static_cast<size_t>(key));
    std::string s = "{\"cmd\":\"" + k.cmd + "\",\"app\":\"" + k.app + "\"";
    if (k.cmd == "explore")
        s += ",\"node\":\"" + k.node + "\"";
    if (k.cmd == "report")
        s += ",\"tco\":" + formatDouble(k.tco);
    return s + id_field + ",\"options\":" +
        pool.profiles.at(static_cast<size_t>(k.profile)) + "}";
}

ServePool
servePool(uint64_t seed)
{
    ServePool pool;
    // Profile 0 is UncertaintyAnalysis::coarseOptions(); the tail
    // profiles are cheaper grids, so filling them stays short.
    pool.profiles = {
        R"({"voltage_steps":8,"rca_count_steps":6,"max_drams_per_die":6,"dark_fractions":[0,0.1]})",
        R"({"voltage_steps":4,"rca_count_steps":3,"max_drams_per_die":2,"dark_fractions":[0]})",
        R"({"voltage_steps":5,"rca_count_steps":3,"max_drams_per_die":2,"dark_fractions":[0]})",
        R"({"voltage_steps":6,"rca_count_steps":4,"max_drams_per_die":3,"dark_fractions":[0]})",
    };
    Rng rng(Rng::derive(seed, "serve_mix.pool"));

    // Head, all on profile 0: every app's sweep, its report at two
    // seeded workloads, and two seeded explores per app.  Drawing the
    // explores per app keeps the mix's cost from hinging on which
    // keys the seed picks (explore payloads span 0.1 to 47 KB).
    static constexpr double kTcos[] = {3e6, 1e7, 3e7, 1e8, 3e8};
    for (const char *app : kApps) {
        pool.keys.push_back({"sweep", app, "", 0, 0});
        const size_t first = rng.below(5);
        const size_t second = (first + 1 + rng.below(4)) % 5;
        for (size_t t : {first, second})
            pool.keys.push_back({"report", app, "", kTcos[t], 0});
        const auto nodes = shuffled(rng, 8);
        for (size_t n : {nodes[0], nodes[1]})
            pool.keys.push_back({"explore", app, kNodes[n], 0, 0});
    }
    pool.head = shuffled(rng, pool.keys.size());

    // Tail: every (app, node) explore on every tail profile.
    const size_t tail_begin = pool.keys.size();
    for (int p = 1; p < static_cast<int>(pool.profiles.size()); ++p)
        for (const char *app : kApps)
            for (const char *node : kNodes)
                pool.keys.push_back({"explore", app, node, 0, p});
    for (size_t i : shuffled(rng, pool.keys.size() - tail_begin))
        pool.tail.push_back(tail_begin + i);
    return pool;
}

std::vector<Send>
serveSchedule(uint64_t seed, const std::string &stream,
              const ServePool &pool, double rate, double duration_s,
              int conns, size_t *tail_cursor)
{
    Rng rng(Rng::derive(seed, "serve_mix.schedule." + stream));
    // Zipf weights over the head, hottest first.
    std::vector<double> cdf;
    double total = 0;
    for (size_t i = 0; i < pool.head.size(); ++i) {
        total += std::pow(static_cast<double>(i + 1), -kHeadSkew);
        cdf.push_back(total);
    }
    std::vector<Send> out;
    double t = 0;
    int next_conn = 0;
    while (true) {
        t += rng.exponential(rate);
        if (t >= duration_s)
            break;
        const double u = rng.uniform();
        Send s;
        s.at_s = t;
        s.conn = next_conn;
        next_conn = (next_conn + 1) % conns;
        if (u < kControlShare) {
            s.key = rng.below(20) == 0 ? kStats : kPing;
        } else if (u < kControlShare + kTailShare) {
            s.key = static_cast<int>(
                pool.tail[(*tail_cursor)++ % pool.tail.size()]);
        } else {
            const double pick = rng.uniform() * total;
            const size_t rank = static_cast<size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), pick) -
                cdf.begin());
            s.key = static_cast<int>(
                pool.head[std::min(rank, pool.head.size() - 1)]);
            if (rng.uniform() < kBurstShare) {
                // The burst counts as one arrival of `conns` requests.
                for (int c = 0; c < conns; ++c) {
                    Send dup = s;
                    dup.conn = c;
                    out.push_back(dup);
                }
                continue;
            }
        }
        out.push_back(s);
    }
    return out;
}

} // namespace mwbench
