#include "support.hh"

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char **environ;

namespace mwbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
        static_cast<uint64_t>(ts.tv_nsec);
}

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

int
lastCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
            if (CPU_ISSET(cpu, &set))
                return cpu;
    return 0;
}

PinnedThread::PinnedThread(int cpu)
{
    CPU_ZERO(&saved_);
    pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

PinnedThread::~PinnedThread()
{
    pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
}

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

size_t
Rng::below(size_t n)
{
    return n ? static_cast<size_t>(next() % n) : 0;
}

double
Rng::exponential(double rate)
{
    return -std::log(1.0 - uniform()) / rate;
}

uint64_t
Rng::derive(uint64_t seed, std::string_view name)
{
    Digest d;
    d.add(seed).add(name);
    Rng r(d.value());
    return r.next();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double>
percentile(std::vector<double> values, double q)
{
    const size_t n = values.size();
    if (n == 0 || q <= 0.0 || q >= 1.0)
        return std::nullopt;
    // Nearest rank: the smallest value with at least q*n values at or
    // below it.  The epsilon keeps 0.99*1000 from rounding up to 991.
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (rank < 1 || n - rank < 10)
        return std::nullopt;
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

double
percentileOrMax(const std::vector<double> &values, double q)
{
    if (auto p = percentile(values, q))
        return *p;
    return values.empty()
        ? 0.0
        : *std::max_element(values.begin(), values.end());
}

Digest &
Digest::add(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
}

Digest &
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
    return *this;
}

Digest &
Digest::add(std::string_view bytes)
{
    add(static_cast<uint64_t>(bytes.size()));
    for (unsigned char c : bytes) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
    return *this;
}

int
Tracer::begin(std::string name, uint64_t id)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = std::move(name);
    s.id = id;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    spans_[static_cast<size_t>(index)].end_ns = nowNs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

std::map<std::string, double>
Tracer::selfTimeMs() const
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        spans_.size());
    for (const auto &s : spans_)
        if (s.parent >= 0)
            children[static_cast<size_t>(s.parent)].push_back(
                {s.start_ns, s.end_ns});
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent.
        uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : kids) {
            lo = std::clamp(lo, s.start_ns, s.end_ns);
            hi = std::clamp(hi, s.start_ns, s.end_ns);
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        out[s.name] +=
            static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    }
    return out;
}

namespace {

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

} // namespace

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
           << ",\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"start_us\":"
           << formatDouble(static_cast<double>(s.start_ns - t0) / 1e3)
           << ",\"end_us\":"
           << formatDouble(static_cast<double>(s.end_ns - t0) / 1e3)
           << "}";
    }
    os << "],\n\"self_time_ms\":{";
    bool first = true;
    for (const auto &[name, ms] : selfTimeMs()) {
        os << (first ? "" : ",") << jsonString(name) << ":"
           << formatDouble(ms);
        first = false;
    }
    os << "}}\n";
    return static_cast<bool>(os.flush());
}

double
medianLaunchS(const std::vector<std::string> &args, int runs)
{
    char self[4096];
    const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
    if (n <= 0)
        throw std::runtime_error("cannot find this program's path");
    self[n] = '\0';
    std::vector<std::string> all = {self};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (auto &a : all)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<double> seconds;
    for (int r = 0; r < runs; ++r) {
        pid_t pid = -1;
        const CpuSample before = cpuSample(0);
        const uint64_t t0 = nowNs();
        if (posix_spawn(&pid, self, nullptr, nullptr, argv.data(),
                        environ) != 0)
            throw std::runtime_error("cannot launch set-up");
        int status = 0;
        waitpid(pid, &status, 0);
        seconds.push_back(static_cast<double>(nowNs() - t0) / 1e9 *
                          (1.0 - stealShare(before, cpuSample(0))));
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("set-up launch failed");
    }
    return median(seconds);
}

double
peakRssMb(pid_t pid)
{
    const std::string path = pid ? "/proc/" + std::to_string(pid) +
            "/status"
                                  : "/proc/self/status";
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

namespace {

/** utime + stime from a /proc/.../stat line. */
uint64_t
statTicks(const std::string &stat)
{
    // Fields after the parenthesized command name: state is the 3rd
    // field overall, utime the 14th and stime the 15th.
    const auto close = stat.rfind(')');
    if (close == std::string::npos || close + 2 > stat.size())
        return 0;
    std::istringstream fields(stat.substr(close + 2));
    std::string f;
    uint64_t ticks = 0;
    for (int i = 3; i <= 15 && fields >> f; ++i)
        if (i >= 14)
            ticks += std::stoull(f);
    return ticks;
}

} // namespace

uint64_t
processCpuTicks(pid_t pid)
{
    std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(is, stat);
    return statTicks(stat);
}

double
msPerTick()
{
    return 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::map<int, uint64_t>
threadCpuTicks(pid_t pid)
{
    std::map<int, uint64_t> out;
    const std::string dir = (pid ? "/proc/" + std::to_string(pid)
                                 : std::string("/proc/self")) +
        "/task";
    DIR *d = opendir(dir.c_str());
    if (!d)
        return out;
    while (dirent *e = readdir(d)) {
        if (e->d_name[0] == '.')
            continue;
        std::ifstream is(dir + "/" + e->d_name + "/stat");
        std::string stat;
        std::getline(is, stat);
        out[std::atoi(e->d_name)] = statTicks(stat);
    }
    closedir(d);
    return out;
}

CpuSample
cpuSample(double t_s, int cpu)
{
    CpuSample s;
    s.t_s = t_s;
    std::ifstream is("/proc/stat");
    const std::string want =
        cpu < 0 ? std::string("cpu") : "cpu" + std::to_string(cpu);
    std::string line;
    while (std::getline(is, line) && line.rfind(want + " ", 0) != 0) {
    }
    std::istringstream fields(line.substr(std::min(line.size(), want.size())));
    uint64_t v = 0;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    for (int i = 0; i < 8 && fields >> v; ++i) {
        s.total += v;
        if (i == 7)
            s.steal = v;
    }
    return s;
}

double
stealShare(const CpuSample &from, const CpuSample &to)
{
    if (to.total <= from.total)
        return 0.0;
    return static_cast<double>(to.steal - from.steal) /
        static_cast<double>(to.total - from.total);
}

double
stealShare(const std::vector<CpuSample> &samples, double from_s,
           double to_s)
{
    const CpuSample *a = nullptr, *b = nullptr;
    for (const auto &s : samples) {
        if (s.t_s <= from_s)
            a = &s;
        if (!b && s.t_s >= to_s)
            b = &s;
    }
    return a && b ? stealShare(*a, *b) : 0.0;
}

ThreadUse
threadUse(const std::map<int, uint64_t> &before,
          const std::map<int, uint64_t> &after)
{
    ThreadUse use;
    for (const auto &[tid, ticks] : after) {
        auto it = before.find(tid);
        const uint64_t start = it == before.end() ? 0 : it->second;
        if (ticks > start) {
            ++use.threads;
            use.busy_ms += static_cast<double>(ticks - start) *
                msPerTick();
        }
    }
    return use;
}

std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
resultLine(const Outcome &o)
{
    std::ostringstream os;
    os << "{\"correct\": " << (o.correct && o.invalid.empty()
                                   ? "true"
                                   : "false")
       << ", \"attempted\": " << o.attempted
       << ", \"failed\": " << o.failed << ", \"metrics\": {";
    for (size_t i = 0; i < o.metrics.size(); ++i) {
        const auto &m = o.metrics[i];
        os << (i ? ", " : "") << jsonString(m.name)
           << ": {\"value\": " << formatDouble(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    os << "}}";
    return os.str();
}

} // namespace mwbench
