/**
 * @file
 * serve_mix: a `moonwalk serve --cache-dir D` daemon under an
 * open-loop schedule of explore/sweep/report requests plus a small
 * ping/stats stream.  Set-up fills D through one daemon, restarts it,
 * and waits for the first ping.  A Zipf-skewed head of keys gives memo
 * hits and, in bursts, concurrent duplicates that join one single
 * flight; a tail of keys, each requested about once, is answered from
 * disk.  No timed request computes a sweep, so parse, admission,
 * single-flight, memo, disk decode, serialize and write do nearly all
 * the work.  The schedule runs at a reference rate well below the
 * knee and then at an overload rate past it.
 */
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "dse/explorer.hh"
#include "dse/result_codec.hh"
#include "exec/persistent_cache.hh"
#include "inputs.hh"
#include "layers.hh"
#include "loadgen.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"
#include "util/json.hh"
#include "workloads.hh"

namespace mwbench {

namespace {

using moonwalk::Json;
namespace fs = std::filesystem;

/** Offered rates (arrivals/s; bursts add about 20% requests),
 *  measured with the daemon on one CPU of a 4-vCPU x86-64 VM: the knee
 *  is near 4000, where ok answers per second stop growing.  The
 *  reference rate sits far below it, the overload rate past it. */
constexpr double kReferenceRps = 300.0;
constexpr double kOverloadRps = 5000.0;
constexpr int kConns = 4;
constexpr int kSetupReps = 3;
/** Share of the measured seconds spent at the reference rate. */
constexpr double kRefShare = 0.5;
/** Latency and throughput are read in windows of this length; see
 *  Phase::windows(). */
constexpr double kWindowS = 0.5;
/** Seconds of each phase before its windows start: the daemon's first
 *  moments at a new rate (new handler threads, allocator arenas). */
constexpr double kRefWarmupS = 1.0;
constexpr double kOverWarmupS = 3.0;
/** Goodput counts ok responses within this latency. */
constexpr double kLatencyLimitMs = 50.0;
/** The reference phase is invalid if sends leave later than this. */
constexpr double kLagBoundMs = 10.0;
constexpr double kDrainS = 10.0;
/**
 * The serving daemon and the load generator share one CPU (the last
 * one this process may use), and the daemon runs at this nice level
 * so its thread per request cannot starve the generator.  On a shared
 * virtual machine the hypervisor takes CPUs away for milliseconds at a
 * time; a request that hops across four CPUs meets such a pause far
 * more often than one that stays on one, and sub-millisecond latencies
 * then measure the host.  Memo-hit serving is single-threaded per
 * request, so one CPU serves this mix; real clients run elsewhere.
 */
constexpr int kDaemonNice = 5;

/** A `moonwalk serve` child process, stopped and reaped on scope exit. */
class Daemon
{
  public:
    /** @p cpu >= 0 pins the daemon to that CPU, with one pool
     *  worker. */
    Daemon(const std::string &bin, const std::string &cache_dir,
           const std::string &log_level, const std::string &log_path,
           int cpu = -1)
    {
        int out[2];
        if (pipe2(out, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe failed");
        const int log = open(log_path.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                             0644);
        const std::string jobs =
            std::to_string(cpu >= 0 ? 1 : std::max(1, nproc() - 1));
        cpu_set_t pin;
        CPU_ZERO(&pin);
        if (cpu >= 0)
            CPU_SET(cpu, &pin);
        std::vector<std::string> args = {
            bin,         "serve",     "--host",      "127.0.0.1",
            "--port",    "0",         "--cache-dir", cache_dir,
            "--jobs",    jobs,        "--log-level", log_level};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_ = fork();
        if (pid_ == 0) {
            // Only async-signal-safe calls between fork and exec.
            dup2(out[1], 1);
            if (log >= 0)
                dup2(log, 2);
            setpriority(PRIO_PROCESS, 0, kDaemonNice);
            if (cpu >= 0)
                sched_setaffinity(0, sizeof pin, &pin);
            execv(bin.c_str(), argv.data());
            _exit(127);
        }
        close(out[1]);
        if (log >= 0)
            close(log);
        out_fd_ = out[0];
        if (pid_ < 0)
            throw std::runtime_error("cannot start " + bin);
        // The daemon prints one "listening on <host>:<port>" line.
        std::string line;
        const uint64_t t0 = nowNs();
        while (line.find('\n') == std::string::npos) {
            pollfd p{out_fd_, POLLIN, 0};
            if (nowNs() - t0 > 60'000'000'000ull ||
                poll(&p, 1, 1000) < 0)
                break;
            char c;
            if (p.revents && read(out_fd_, &c, 1) == 1)
                line += c;
            else if (p.revents)
                break;
        }
        const auto colon = line.rfind(':');
        if (line.find("listening on") == std::string::npos ||
            colon == std::string::npos) {
            stop();
            throw std::runtime_error("daemon did not start: " + line);
        }
        port_ = std::atoi(line.c_str() + colon + 1);
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return port_; }
    pid_t pid() const { return pid_; }

    /** SIGTERM (graceful drain), then SIGKILL after 30 s; reaps. */
    void stop()
    {
        if (pid_ > 0) {
            kill(pid_, SIGTERM);
            int status = 0;
            const uint64_t t0 = nowNs();
            while (waitpid(pid_, &status, WNOHANG) == 0) {
                if (nowNs() - t0 > 30'000'000'000ull) {
                    kill(pid_, SIGKILL);
                    waitpid(pid_, &status, 0);
                    break;
                }
                usleep(2000);
            }
            pid_ = -1;
        }
        if (out_fd_ >= 0) {
            close(out_fd_);
            out_fd_ = -1;
        }
    }

  private:
    pid_t pid_ = -1;
    int out_fd_ = -1;
    int port_ = 0;
};

/** Send every line, each connection waiting for its previous answer
 *  (closed loop); true when every answer is ok. */
bool
closedLoop(int port, const std::vector<std::string> &lines)
{
    // An open-loop run whose requests are all due at once but whose
    // connections each carry one request at a time: schedule each
    // connection's requests back to back, one round per batch.
    for (size_t base = 0; base < lines.size(); base += kConns) {
        std::vector<LoadRequest> batch;
        for (size_t i = base; i < std::min(lines.size(), base + kConns);
             ++i)
            batch.push_back({0.0, static_cast<int>(i - base), i,
                             lines[i]});
        std::vector<LoadResult> results;
        std::string error;
        if (!runOpenLoop("127.0.0.1", port, kConns, batch, 300.0,
                         &results, &error))
            return false;
        for (const auto &r : results)
            if (!r.ok)
                return false;
    }
    return true;
}

/** Request lines (with ids) for every pool key in @p keys. */
std::vector<std::string>
linesFor(const ServePool &pool, const std::vector<size_t> &keys)
{
    std::vector<std::string> lines;
    for (size_t k : keys)
        lines.push_back(requestJson(pool, static_cast<int>(k),
                                    static_cast<long>(lines.size())));
    return lines;
}

/** Fill order: the head's sweeps first (they compute every profile-0
 *  explore), then everything else once. */
std::vector<size_t>
fillOrder(const ServePool &pool)
{
    std::vector<size_t> order;
    for (size_t k = 0; k < pool.keys.size(); ++k)
        if (pool.keys[k].cmd == "sweep")
            order.push_back(k);
    for (size_t k = 0; k < pool.keys.size(); ++k)
        if (pool.keys[k].cmd != "sweep")
            order.push_back(k);
    return order;
}

Json
stats(int port)
{
    // A daemon past its knee may be slow to accept; try a few times.
    std::string response;
    for (int attempt = 0; attempt < 5; ++attempt) {
        if (rpc(port, "{\"cmd\":\"stats\"}", &response))
            return Json::parse(response).at("result");
        usleep(200000);
    }
    throw std::runtime_error("stats request failed");
}

double
metricOf(const Json &stats, const char *section, const std::string &name,
         const char *field = nullptr)
{
    const Json &s = stats.at("metrics").at(section);
    if (!s.contains(name))
        return 0.0;
    return field ? s.at(name).at(field).asDouble()
                 : s.at(name).asDouble();
}

/** One parsed access-log line. */
struct Access
{
    uint64_t id = 0;
    std::map<std::string, std::string> fields;

    double ms(const std::string &key) const
    {
        auto it = fields.find(key);
        return it == fields.end() ? -1.0 : std::atof(it->second.c_str());
    }
    const std::string &get(const std::string &key) const
    {
        static const std::string empty;
        auto it = fields.find(key);
        return it == fields.end() ? empty : it->second;
    }
};

std::vector<Access>
readAccessLog(const std::string &path)
{
    std::vector<Access> out;
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("serve.access:") == std::string::npos)
            continue;
        Access a;
        std::istringstream tokens(line);
        std::string tok;
        while (tokens >> tok) {
            const auto eq = tok.find('=');
            if (eq != std::string::npos)
                a.fields[tok.substr(0, eq)] = tok.substr(eq + 1);
        }
        a.id = std::strtoull(a.get("id").c_str(), nullptr, 10);
        out.push_back(std::move(a));
    }
    return out;
}

/** The schedule of one phase as load requests with fresh ids. */
std::vector<LoadRequest>
toRequests(const ServePool &pool, const std::vector<Send> &sends,
           uint64_t *next_id, std::vector<int> *keys)
{
    std::vector<LoadRequest> out;
    for (const auto &s : sends) {
        const uint64_t id = (*next_id)++;
        out.push_back({s.at_s, s.conn, id,
                       requestJson(pool, s.key, static_cast<long>(id))});
        keys->push_back(s.key);
    }
    return out;
}

/** Expected answers, computed directly by an in-process service with
 *  no cache directory. */
struct Expected
{
    std::vector<serve::Request> requests;
    std::vector<std::shared_ptr<const std::string>> payloads;
    std::string pong;

    /** Hash of the exact response line for key @p key, id @p id;
     *  nullopt for stats, whose answer is a live snapshot. */
    std::optional<uint64_t> hash(int key, uint64_t id) const
    {
        if (key == kStats)
            return std::nullopt;
        serve::Request r;
        const std::string *payload = &pong;
        if (key != kPing) {
            r = requests[static_cast<size_t>(key)];
            payload = payloads[static_cast<size_t>(key)].get();
        }
        r.has_id = true;
        r.id = Json(static_cast<double>(id));
        return responseHash(serve::okEnvelope(*payload, &r));
    }
};

Expected
computeExpected(const ServePool &pool)
{
    Expected e;
    serve::SweepService service(serve::ServiceOptions{});
    for (size_t k = 0; k < pool.keys.size(); ++k) {
        serve::Request r;
        serve::RequestError err;
        if (!serve::parseRequest(requestJson(pool, static_cast<int>(k), -1),
                                 &r, &err))
            throw std::runtime_error("pool key rejected: " + err.message);
        e.payloads.push_back(service.handle(r));
        e.requests.push_back(std::move(r));
    }
    serve::Request ping;
    ping.cmd = "ping";
    e.pong = *service.handle(ping);
    return e;
}

/** Checked outcome of one phase. */
struct Phase
{
    std::vector<LoadResult> results;
    std::vector<int> keys;
    size_t ok = 0;          ///< ok and byte-identical
    size_t wrong = 0;       ///< ok but different bytes
    size_t errors = 0;      ///< 5xx, other errors, transport
    std::vector<double> latency_ms;  ///< failures count as +inf
    std::vector<double> lag_ms;      ///< unsent count as +inf
    double duration_s = 0;
    /** Samples of the serving CPU taken while the phase ran. */
    std::vector<CpuSample> cpu;

    /** Requests of one window, and the share of CPU stolen in it. */
    struct Window
    {
        std::vector<size_t> requests;
        double steal = 0;
    };

    /**
     * The phase after @p warmup_s cut into kWindowS windows by each
     * request's scheduled send time (or, with @p by_completion, the
     * time its answer arrived), with the CPU share the hypervisor
     * stole from the serving CPU in each.
     */
    std::vector<Window> windows(double warmup_s,
                                bool by_completion = false) const
    {
        const auto n = static_cast<size_t>(
            std::max(1.0, std::floor((duration_s - warmup_s) / kWindowS)));
        std::vector<Window> out(n);
        for (size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            if (by_completion && !r.answered())
                continue;
            const double t =
                (by_completion ? r.done_s : r.scheduled_s) - warmup_s;
            const auto w = static_cast<size_t>(std::floor(t / kWindowS));
            if (t >= 0 && w < n)
                out[w].requests.push_back(i);
        }
        for (size_t w = 0; w < n; ++w) {
            const double from = warmup_s + kWindowS * static_cast<double>(w);
            out[w].steal = stealShare(cpu, from, from + kWindowS);
        }
        return out;
    }

    /**
     * The least disturbed window's @p stat of latency, and that
     * window.  A shared virtual machine slows the serving CPU from
     * moment to moment (steal, and neighbours on sibling threads that
     * no counter shows), and sub-millisecond latencies stretch
     * several-fold; noise only ever adds, so the smallest window
     * statistic is the one that measures the daemon.
     */
    std::pair<double, const Window *>
    leastDisturbed(const std::vector<Window> &ws,
                   double (*stat)(const std::vector<double> &)) const
    {
        std::pair<double, const Window *> best = {0.0, nullptr};
        for (const auto &w : ws) {
            if (w.requests.empty())
                continue;
            std::vector<double> ms;
            for (size_t i : w.requests)
                ms.push_back(latency_ms[i]);
            const double s = stat(ms);
            if (!best.second || s < best.first)
                best = {s, &w};
        }
        return best;
    }
};

/**
 * Peak number of daemon threads busy within one sampling interval:
 * the daemon starts a thread per request, so threads that took part
 * are counted while they run.
 */
class ThreadSampler
{
  public:
    explicit ThreadSampler(pid_t pid) : pid_(pid), last_(threadCpuTicks(pid)) {}

    void sample()
    {
        auto now = threadCpuTicks(pid_);
        peak_ = std::max(peak_, threadUse(last_, now).threads);
        last_ = std::move(now);
    }
    int peak() const { return peak_; }

  private:
    pid_t pid_;
    std::map<int, uint64_t> last_;
    int peak_ = 0;
};

Phase
runPhase(int port, const ServePool &pool, const Expected &expected,
         const std::vector<Send> &sends, double duration_s,
         uint64_t *next_id, ThreadSampler *sampler = nullptr)
{
    Phase p;
    p.duration_s = duration_s;
    const auto requests = toRequests(pool, sends, next_id, &p.keys);
    std::string error;
    // The load generator shares the daemon's CPU; see kDaemonNice.
    PinnedThread pinned(lastCpu());
    const uint64_t t0 = nowNs();
    const auto tick = [&] {
        p.cpu.push_back(
            cpuSample(static_cast<double>(nowNs() - t0) / 1e9, lastCpu()));
        if (sampler)
            sampler->sample();
    };
    if (!runOpenLoop("127.0.0.1", port, kConns, requests, kDrainS,
                     &p.results, &error, tick))
        throw std::runtime_error(error);
    for (size_t i = 0; i < p.results.size(); ++i) {
        const auto &r = p.results[i];
        p.lag_ms.push_back(r.sent_s >= 0
                               ? r.lagS() * 1e3
                               : std::numeric_limits<double>::infinity());
        bool good = r.answered() && r.ok;
        if (good) {
            const auto want = expected.hash(p.keys[i], requests[i].id);
            if (want && *want != r.hash) {
                good = false;
                ++p.wrong;
            }
        } else if (!r.answered() || r.code != 429) {
            ++p.errors;  // 429s are expected past the knee
        }
        if (good)
            ++p.ok;
        p.latency_ms.push_back(
            good ? r.latencyS() * 1e3
                 : std::numeric_limits<double>::infinity());
    }
    return p;
}

double
p50(const std::vector<double> &ms)
{
    return median(ms);
}

/** The tail read per window: a half-second window holds a few
 *  hundred requests at the reference rate, so p90 has tens of
 *  requests beyond it. */
double
p90(const std::vector<double> &ms)
{
    return percentileOrMax(ms, 0.90);
}

/** Fill @p dir through a first daemon, restart on it, and wait for
 *  the first ping; returns the serving daemon. */
std::unique_ptr<Daemon>
setUp(const RunConfig &cfg, const ServePool &pool, const std::string &dir,
      const std::string &log_level, const std::string &log_path,
      bool fill)
{
    if (fill) {
        Daemon filler(cfg.moonwalk, dir, "warn", log_path);
        if (!closedLoop(filler.port(), linesFor(pool, fillOrder(pool))))
            throw std::runtime_error("filling the cache failed");
    }
    auto daemon = std::make_unique<Daemon>(cfg.moonwalk, dir, log_level,
                                           log_path, lastCpu());
    std::string response;
    if (!rpc(daemon->port(), "{\"cmd\":\"ping\"}", &response) ||
        response.find("\"pong\":true") == std::string::npos)
        throw std::runtime_error("first ping failed");
    return daemon;
}

} // namespace

Outcome
runServeMix(const RunConfig &cfg)
{
    Outcome out;
    Tracer tracer(cfg.trace);
    const ServePool pool = servePool(cfg.seed);
    const std::string log_path = cfg.work_dir + "/daemon.log";
    const std::string log_level = cfg.trace ? "info" : "warn";

    // Set-up, several times; the last daemon serves the run.
    std::vector<double> setup_s;
    std::unique_ptr<Daemon> daemon;
    std::string dir;
    for (int k = 0; k < kSetupReps; ++k) {
        daemon.reset();
        if (!dir.empty())
            fs::remove_all(dir);
        dir = cfg.work_dir + "/cache-" + std::to_string(k);
        // Counted without the share the hypervisor stole, like the
        // in-process workloads' operations: filling is CPU-bound.
        const CpuSample before = cpuSample(0);
        const uint64_t t0 = nowNs();
        daemon = setUp(cfg, pool, dir, log_level, log_path, true);
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9 *
                          (1.0 - stealShare(before, cpuSample(0))));
    }

    // Untimed: warm the head into the memo, and compute every key's
    // answer directly for the output check.
    if (!closedLoop(daemon->port(), linesFor(pool, pool.head)))
        throw std::runtime_error("warming the head failed");
    const Expected expected = computeExpected(pool);

    const double ref_s = cfg.seconds * kRefShare;
    const double over_s = cfg.seconds - ref_s;
    size_t tail_cursor = 0;
    const auto ref_sends = serveSchedule(cfg.seed, "ref", pool,
                                         kReferenceRps, ref_s, kConns,
                                         &tail_cursor);
    const auto over_sends = serveSchedule(cfg.seed, "over", pool,
                                          kOverloadRps, over_s, kConns,
                                          &tail_cursor);
    uint64_t next_id = 1;

    const Json s0 = stats(daemon->port());
    // Sampling /proc costs the load generator time, so only traced
    // runs do it.
    ThreadSampler sampler(daemon->pid());
    ThreadSampler *sample = cfg.trace ? &sampler : nullptr;
    const uint64_t cpu0 = processCpuTicks(daemon->pid());
    const uint64_t start = nowNs();
    const int ref_span = tracer.begin("loadgen.reference", 0);
    const Phase ref = runPhase(daemon->port(), pool, expected, ref_sends,
                               ref_s, &next_id, sample);
    tracer.end(ref_span);
    const Json s1 = stats(daemon->port());
    const int over_span = tracer.begin("loadgen.overload", 1);
    const Phase over = runPhase(daemon->port(), pool, expected,
                                over_sends, over_s, &next_id, sample);
    tracer.end(over_span);
    const double window_s = static_cast<double>(nowNs() - start) / 1e9;
    const double busy_ms =
        static_cast<double>(processCpuTicks(daemon->pid()) - cpu0) *
        msPerTick();
    const Json s2 = stats(daemon->port());
    const double rss_mb = peakRssMb(daemon->pid());

    // Checks and premises.
    if (ref.wrong + over.wrong > 0)
        out.correct = false;
    out.attempted = ref.results.size() + over.results.size();
    out.failed = (ref.results.size() - ref.ok) + over.wrong + over.errors;
    // The reference phase is read in its least disturbed windows; the
    // generator must have kept to the schedule there.
    const auto ref_windows = ref.windows(kRefWarmupS);
    const auto [ref_p50, p50_window] = ref.leastDisturbed(ref_windows, p50);
    const auto [ref_p90, p90_window] = ref.leastDisturbed(ref_windows, p90);
    std::vector<double> ref_lag_ms;
    for (const Phase::Window *w : {p50_window, p90_window})
        for (size_t i : w->requests)
            ref_lag_ms.push_back(ref.lag_ms[i]);
    const double lag_p99 = percentileOrMax(ref_lag_ms, 0.99);
    if (lag_p99 > kLagBoundMs)
        out.invalid.push_back("load generator lag p99 " +
                              formatDouble(lag_p99) + " ms");
    auto delta = [&](const char *section, const std::string &name,
                     const char *field = nullptr) {
        return metricOf(s2, section, name, field) -
            metricOf(s0, section, name, field);
    };
    if (delta("counters", "dse.evaluations") != 0)
        out.invalid.push_back("a timed request computed a sweep");
    if (kConns > nproc())
        out.invalid.push_back("more connections than CPUs");

    if (!cfg.trace) {
        // Overload throughput: ok answers arriving per second of the
        // serving CPU's time the hypervisor left, in the best window.
        double per_s = 0;
        for (const auto &w : over.windows(kOverWarmupS, true))
            per_s = std::max(
                per_s, static_cast<double>(std::count_if(
                           w.requests.begin(), w.requests.end(),
                           [&](size_t i) { return over.results[i].ok; })) /
                    (kWindowS * (1.0 - w.steal)));
        emitMetrics(out, kEndToEnd,
                    {{"setup_s", median(setup_s)},
                     {"peak_rss_mb", rss_mb},
                     {"ok_ratio", static_cast<double>(ref.ok) /
                          static_cast<double>(ref.results.size())},
                     {"op_p50_ms", ref_p50},
                     {"op_tail_ms", ref_p90},
                     {"ops_per_s", per_s}});
        daemon->stop();
        return out;
    }

    auto v = perLayerZeros();
    // From the daemon's access log: per-phase timings of the
    // reference phase, result sources of the whole window.
    daemon->stop();
    const uint64_t id0 =
        static_cast<uint64_t>(s0.at("requests").at("last_id").asDouble());
    const uint64_t id1 =
        static_cast<uint64_t>(s1.at("requests").at("last_id").asDouble());
    const uint64_t id2 =
        static_cast<uint64_t>(s2.at("requests").at("last_id").asDouble());
    std::map<std::string, std::vector<double>> phase_us;
    std::vector<double> bytes_out;
    double memo = 0, disk = 0, computed = 0, flight = 0;
    for (const auto &a : readAccessLog(log_path)) {
        if (a.id <= id0 || a.id >= id2)
            continue;
        const std::string &cmd = a.get("cmd");
        const std::string &source = a.get("source");
        const bool model = cmd == "explore" || cmd == "sweep" ||
            cmd == "report";
        if (model) {
            memo += source == "memo";
            disk += source == "disk";
            computed += source == "computed";
            flight += source == "flight";
        }
        if (a.id >= id1)
            continue;
        bytes_out.push_back(a.ms("bytes_out"));
        for (const char *phase : {"parse", "validate", "admission",
                                  "flight_wait", "compute", "serialize",
                                  "write"}) {
            const double ms = a.ms(std::string(phase) + "_ms");
            if (ms >= 0)
                phase_us[phase].push_back(ms * 1e3);
        }
    }
    for (const auto &[phase, us] : phase_us) {
        v["serve." + phase + "_us_p50"] = median(us);
        v["serve." + phase + "_us_p99"] = percentileOrMax(us, 0.99);
    }
    v["serve.source.memo"] = memo;
    v["serve.source.disk"] = disk;
    v["serve.source.computed"] = computed;
    v["serve.source.flight"] = flight;
    if (computed > 0)
        out.invalid.push_back("a timed request has source computed");
    v["serve.bytes_out_p50"] = median(bytes_out);
    v["serve.rejected"] = delta("counters", "serve.requests.rejected");
    const double fh = delta("gauges", "serve.singleflight.hits");
    const double fm = delta("gauges", "serve.singleflight.misses");
    v["serve.singleflight_hit_ratio"] = fh + fm > 0 ? fh / (fh + fm) : 0;
    v["dse.memo_hit_ratio"] =
        memo + disk + computed > 0 ? memo / (memo + disk + computed) : 0;
    v["exec.disk.hits"] = disk;

    // From the daemon's registry.
    const double evals = delta("counters", "dse.evaluations");
    v["dse.evaluations"] = evals;
    v["dse.feasible_ratio"] =
        evals > 0 ? delta("counters", "dse.feasible") / evals : 0.0;
    v["thermal.solves"] = delta("histograms", "thermal.solve.ns", "count");
    v["thermal.busy_ms"] =
        delta("histograms", "thermal.solve.ns", "sum") / 1e6;
    v["exec.steals"] = delta("counters", "exec.tasks.stolen");
    v["exec.queue_depth_max"] =
        metricOf(s2, "gauges", "exec.queue.depth.max");
    v["exec.threads"] = sampler.peak();
    v["exec.busy_ms"] = busy_ms;
    v["exec.utilization"] = sampler.peak()
        ? busy_ms / (window_s * 1e3 * sampler.peak())
        : 0.0;
    v["loadgen.lag_p99_ms"] = lag_p99;
    {
        std::vector<double> goodput;
        for (const auto &w : over.windows(kOverWarmupS))
            goodput.push_back(
                static_cast<double>(std::count_if(
                    w.requests.begin(), w.requests.end(),
                    [&](size_t i) {
                        return over.latency_ms[i] <= kLatencyLimitMs;
                    })) /
                kWindowS);
        v["serve.goodput_rps"] = median(goodput);
    }
    v["loadgen.sent"] = 0;
    for (const Phase *p : {&ref, &over})
        for (const auto &r : p->results)
            v["loadgen.sent"] += r.sent_s >= 0;

    // Disk loads and codec on the tail's entries, timed here.
    {
        exec::PersistentCache cache(dir, dse::sweepCacheVersionStamp());
        std::vector<double> load_us, decode_us, encode_us;
        for (size_t k : pool.tail) {
            const auto &r = expected.requests[k];
            dse::DesignSpaceExplorer explorer(r.options);
            const std::string key =
                explorer.sweepKey(r.app->rca, *r.node);
            uint64_t t0 = nowNs();
            int span = tracer.begin("exec.PersistentCache.load", k);
            const auto bytes = cache.load(key);
            tracer.end(span);
            load_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            if (!bytes) {
                out.invalid.push_back("a tail key is missing on disk");
                continue;
            }
            t0 = nowNs();
            span = tracer.begin("dse.decode", k);
            const auto decoded = dse::decodeExplorationResult(*bytes);
            tracer.end(span);
            decode_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            if (!decoded) {
                out.correct = false;
                continue;
            }
            t0 = nowNs();
            span = tracer.begin("dse.encode", k);
            const auto again = dse::encodeExplorationResult(*decoded);
            tracer.end(span);
            encode_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            if (again != *bytes)
                out.correct = false;
        }
        v["exec.disk.load_us_p50"] = median(load_us);
        v["dse.codec_decode_us_p50"] = median(decode_us);
        v["dse.codec_encode_us_p50"] = median(encode_us);
    }

    // The head profile's stack, probed layer by layer.
    {
        serve::Request head = expected.requests[pool.head.front()];
        const auto probe = probeLayers(core::Scenario{}, head.options,
                                       paperApps(), tracer, 0);
        v["thermal.solve_ms_p50"] = median(probe.thermal_solve_ms);
        v["dse.evaluate_ns_p50"] = median(probe.evaluate_ns);
        v["dse.explore_ms_p50"] = median(probe.explore_ms);
        v["dse.explore_ms_max"] = std::ranges::max(probe.explore_ms);
        v["dse.pareto_us_p50"] = median(probe.pareto_us);
        v["explore.accounted_ratio"] = probe.accountedRatio();
        v["core.sweep_ms_p50"] = median(probe.sweep_ms);
    }

    // Tracing overhead: the same reference schedule against an
    // untraced daemon on the same cache directory.
    {
        auto plain = setUp(cfg, pool, dir, "warn", log_path, false);
        if (!closedLoop(plain->port(), linesFor(pool, pool.head)))
            throw std::runtime_error("warming the head failed");
        uint64_t ids = next_id;
        const Phase again = runPhase(plain->port(), pool, expected,
                                     ref_sends, ref_s, &ids);
        v["obs.trace_overhead_pct"] =
            (ref_p50 /
                 again.leastDisturbed(again.windows(kRefWarmupS), p50)
                     .first -
             1.0) *
            100.0;
    }
    tracer.write(cfg.trace_path);
    emitMetrics(out, kPerLayer, v);
    return out;
}

} // namespace mwbench
