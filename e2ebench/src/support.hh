/**
 * @file
 * Building blocks shared by the benchmark's workloads: the clock, a
 * seeded generator, percentiles, bit-exact result digests, in-memory
 * spans, process statistics read from /proc, and the result line.
 */
#ifndef MWBENCH_SUPPORT_HH
#define MWBENCH_SUPPORT_HH

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace moonwalk {
namespace apps {}
namespace core {}
namespace dse {}
namespace exec {}
namespace serve {}
namespace tech {}
namespace thermal {}
} // namespace moonwalk

namespace mwbench {

namespace apps = moonwalk::apps;
namespace core = moonwalk::core;
namespace dse = moonwalk::dse;
namespace exec = moonwalk::exec;
namespace serve = moonwalk::serve;
namespace tech = moonwalk::tech;
namespace thermal = moonwalk::thermal;

/** Steady-clock nanoseconds. */
uint64_t nowNs();
/** CPU time of the whole process (every thread), nanoseconds. */
uint64_t processCpuNs();
/** CPUs this process may run on. */
int nproc();
/** The highest-numbered of them. */
int lastCpu();

/** Pins the calling thread to one CPU while in scope. */
class PinnedThread
{
  public:
    explicit PinnedThread(int cpu);
    ~PinnedThread();
    PinnedThread(const PinnedThread &) = delete;
    PinnedThread &operator=(const PinnedThread &) = delete;

  private:
    cpu_set_t saved_;
};

/**
 * SplitMix64: the whole benchmark draws from this, so one seed fixes
 * every input.  derive() splits off an independent stream per use.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n). */
    size_t below(size_t n);
    /** Exponential gap with mean 1 / @p rate. */
    double exponential(double rate);

    /** Seed of the stream named @p name under @p seed. */
    static uint64_t derive(uint64_t seed, std::string_view name);

  private:
    uint64_t state_;
};

/** Median (mean of the two middle values for an even count). */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile @p q in (0, 1), reported only when at least
 * ten samples lie beyond it; nullopt otherwise.
 */
std::optional<double> percentile(std::vector<double> values, double q);

/** @p q-th percentile when supported by ten samples beyond it, else
 *  the maximum (0 for no samples). */
double percentileOrMax(const std::vector<double> &values, double q);

/**
 * FNV-1a over the exact bytes of what is added: doubles by bit
 * pattern, so two digests agree only when every value agrees to the
 * last bit.
 */
class Digest
{
  public:
    Digest &add(double v);
    Digest &add(uint64_t v);
    Digest &add(std::string_view bytes);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** One timed interval of the benchmark's own calls into a layer. */
struct Span
{
    std::string name;
    uint64_t id = 0;    ///< iteration, sample or request number
    int parent = -1;    ///< index into the tracer's spans, -1 = root
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
};

/**
 * Keeps spans in memory and writes them at exit.  Disabled tracers
 * record nothing, so untraced runs pay one branch per span.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span (child of the innermost open one); returns its
     *  index, or -1 when disabled. */
    int begin(std::string name, uint64_t id);
    void end(int index);

    /** Self time (span minus the union of its children), summed per
     *  span name, in ms. */
    std::map<std::string, double> selfTimeMs() const;
    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span plus the self-time table as JSON. */
    bool write(const std::string &path) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name, uint64_t id)
            : t_(t), index_(t.begin(std::move(name), id))
        {}
        ~Scope() { t_.end(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int index_;
    };

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * Median seconds, over @p runs launches, from spawning this program
 * with @p args until it exits, less the share the hypervisor stole;
 * throws if a launch fails.  Times what a user pays to start a process
 * that builds a stack.
 */
double medianLaunchS(const std::vector<std::string> &args, int runs);

/** VmHWM of process @p pid (0 = this process), MB. */
double peakRssMb(pid_t pid = 0);

/** Per-thread CPU ticks of a process, keyed by thread id. */
std::map<int, uint64_t> threadCpuTicks(pid_t pid = 0);

/** CPU ticks of a whole process, exited threads included. */
uint64_t processCpuTicks(pid_t pid);
/** Milliseconds per CPU tick. */
double msPerTick();

/** CPU ticks at one moment, machine-wide or of one CPU: all, and
 *  stolen by the hypervisor (0 where the kernel does not account
 *  steal). */
struct CpuSample
{
    double t_s = 0;  ///< caller's clock
    uint64_t total = 0;
    uint64_t steal = 0;
};
/** @p cpu < 0 samples the whole machine. */
CpuSample cpuSample(double t_s, int cpu = -1);
/** Share of CPU time stolen between the samples bracketing
 *  [@p from_s, @p to_s]; 0 when unknown. */
double stealShare(const std::vector<CpuSample> &samples, double from_s,
                  double to_s);

/** Share of CPU time stolen between two samples; 0 when unknown. */
double stealShare(const CpuSample &from, const CpuSample &to);

/** Threads that used CPU between two samples, and their CPU ms. */
struct ThreadUse
{
    int threads = 0;
    double busy_ms = 0;
};
ThreadUse threadUse(const std::map<int, uint64_t> &before,
                    const std::map<int, uint64_t> &after);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a run prints as its last line. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Broken premises: the run measured something else than it
     *  claims, so it is reported as incorrect. */
    std::vector<std::string> invalid;

    void metric(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** The one-line JSON result. */
std::string resultLine(const Outcome &outcome);

/** Shortest decimal text that reads back as exactly @p v. */
std::string formatDouble(double v);

} // namespace mwbench

#endif // MWBENCH_SUPPORT_HH
