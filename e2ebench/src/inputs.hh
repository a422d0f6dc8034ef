/**
 * @file
 * Seeded inputs of every workload.  One seed derives sweep_cold's
 * cooling scenarios, montecarlo's UncertaintySpec seeds and workload,
 * and serve_mix's key pool, skew and send schedule; the program under
 * test only ever sees these generated inputs.
 */
#ifndef MWBENCH_INPUTS_HH
#define MWBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mwbench {

/** bench_ablation_cooling's envelope. */
inline constexpr double kFanScaleLo = 0.5;
inline constexpr double kFanScaleHi = 2.0;
inline constexpr double kTjMarginLo = 0.0;
inline constexpr double kTjMarginHi = 15.0;

/** One cooling scenario of sweep_cold. */
struct Cooling
{
    double fan_pressure_scale = 1.0;
    double tj_margin_c = 0.0;

    bool operator==(const Cooling &) const = default;
};

/**
 * Scenario @p index of the run seeded @p seed.  Scenarios come in
 * Latin-hypercube blocks of kCoolingBlock, so any run of a whole
 * block covers the envelope evenly and runs of different seeds do the
 * same amount of thermal work on average.  Every draw is jittered
 * within its stratum, so no two scenarios coincide.
 */
inline constexpr int kCoolingBlock = 8;
Cooling coolingScenario(uint64_t seed, int index);
/** An extra scenario, outside the timed sequence, for layer probes. */
Cooling probeScenario(uint64_t seed);

/** UncertaintySpec::seed of montecarlo sample @p index. */
uint64_t monteCarloSeed(uint64_t seed, int index);
/** Workload (pre-ASIC TCO, $) the montecarlo study prices. */
double monteCarloWorkload(uint64_t seed);

/** One distinct request of serve_mix's pool. */
struct ServeKey
{
    std::string cmd;      ///< explore | sweep | report
    std::string app;
    std::string node;     ///< explore only
    double tco = 0;       ///< report only
    int profile = 0;      ///< index into ServePool::profiles
};

/** serve_mix's key pool. */
struct ServePool
{
    /** Sweep-option profiles, as the "options" JSON object.  Profile
     *  0 serves the head; the others only the tail, so head sweeps
     *  never warm a tail key into the memo. */
    std::vector<std::string> profiles;
    std::vector<ServeKey> keys;
    std::vector<size_t> head;   ///< indices into keys, hottest first
    std::vector<size_t> tail;   ///< indices into keys, seeded order
};
ServePool servePool(uint64_t seed);

/** Pseudo-keys of the control stream. */
inline constexpr int kPing = -1;
inline constexpr int kStats = -2;

/** Request line (no newline) for pool key @p key or a control
 *  pseudo-key; @p id < 0 omits the id. */
std::string requestJson(const ServePool &pool, int key, long id);

/** One scheduled send. */
struct Send
{
    double at_s = 0;   ///< offset from the phase start
    int conn = 0;
    int key = 0;       ///< index into ServePool::keys, or kPing/kStats
};

/** Zipf exponent of the head: the hottest of its 20 keys draws about
 *  15% of head traffic. */
inline constexpr double kHeadSkew = 0.6;

/** Shares of the request mix. */
inline constexpr double kControlShare = 0.04;
inline constexpr double kTailShare = 0.06;
inline constexpr double kBurstShare = 0.08;

/**
 * Open-loop schedule of @p duration_s seconds at @p rate requests/s
 * over @p conns connections: Poisson arrivals; each arrival is a
 * control request (ping, or stats one time in twenty), a tail key
 * (next in the tail's seeded order, from @p tail_cursor on), or a
 * Zipf-skewed head key.  A share of head arrivals are bursts: the
 * same key on every connection at once, so duplicates meet in one
 * single flight.  @p stream names the phase so phases differ.
 */
std::vector<Send> serveSchedule(uint64_t seed, const std::string &stream,
                                const ServePool &pool, double rate,
                                double duration_s, int conns,
                                size_t *tail_cursor);

} // namespace mwbench

#endif // MWBENCH_INPUTS_HH
