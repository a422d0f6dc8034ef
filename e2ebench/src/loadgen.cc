#include "loadgen.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "support.hh"

namespace mwbench {

uint64_t
responseHash(const std::string &line)
{
    return std::hash<std::string_view>{}(line);
}

namespace {

int
connectTo(const std::string &host, int port, std::string *error)
{
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        *error = "connect " + host + ":" + std::to_string(port) + ": " +
            std::strerror(errno);
        close(fd);
        return -1;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

/** Parse the unsigned integer after @p key in @p line; -1 if absent. */
long
fieldAfter(std::string_view line, std::string_view key)
{
    const auto at = line.find(key);
    if (at == std::string_view::npos)
        return -1;
    long v = -1;
    for (size_t i = at + key.size();
         i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i)
        v = (v < 0 ? 0 : v * 10) + (line[i] - '0');
    return v;
}

struct Conn
{
    int fd = -1;
    std::string out;          ///< bytes not yet written
    /** Byte offsets in `out` ending each queued request, with its
     *  schedule index, so the send time is taken when the last byte
     *  leaves. */
    std::vector<std::pair<size_t, size_t>> marks;
    size_t written = 0;       ///< total bytes written so far
    size_t queued = 0;        ///< total bytes queued so far
    std::string in;
    bool dead = false;
};

} // namespace

bool
runOpenLoop(const std::string &host, int port, int conns,
            const std::vector<LoadRequest> &schedule, double drain_s,
            std::vector<LoadResult> *results, std::string *error,
            const std::function<void()> &on_tick)
{
    std::vector<Conn> cs(static_cast<size_t>(conns));
    for (auto &c : cs) {
        c.fd = connectTo(host, port, error);
        if (c.fd < 0) {
            for (auto &o : cs)
                if (o.fd >= 0)
                    close(o.fd);
            return false;
        }
        fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }

    results->assign(schedule.size(), LoadResult{});
    std::unordered_map<uint64_t, size_t> by_id;
    for (size_t i = 0; i < schedule.size(); ++i) {
        (*results)[i].scheduled_s = schedule[i].at_s;
        by_id[schedule[i].id] = i;
    }

    const uint64_t t0 = nowNs();
    auto now = [&] { return static_cast<double>(nowNs() - t0) / 1e9; };
    const double deadline =
        (schedule.empty() ? 0.0 : schedule.back().at_s) + drain_s;
    size_t next = 0, answered = 0;
    double next_tick = 0.0;
    std::vector<pollfd> fds(cs.size());
    char buf[1 << 16];

    while (answered < schedule.size()) {
        double t = now();
        if (t > deadline)
            break;
        if (on_tick && t >= next_tick) {
            on_tick();
            next_tick = t + 0.05;
        }
        // Queue everything that is due.
        for (; next < schedule.size() && schedule[next].at_s <= t;
             ++next) {
            auto &c = cs[static_cast<size_t>(schedule[next].conn)];
            c.out += schedule[next].line;
            c.out += '\n';
            c.queued += schedule[next].line.size() + 1;
            c.marks.push_back({c.queued, next});
        }
        // Write what the sockets take.
        for (auto &c : cs) {
            while (!c.dead && !c.out.empty()) {
                const ssize_t n =
                    send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
                if (n < 0) {
                    if (errno != EAGAIN && errno != EWOULDBLOCK &&
                        errno != EINTR)
                        c.dead = true;
                    break;
                }
                c.out.erase(0, static_cast<size_t>(n));
                c.written += static_cast<size_t>(n);
                const double sent = now();
                size_t done = 0;
                while (done < c.marks.size() &&
                       c.marks[done].first <= c.written)
                    (*results)[c.marks[done++].second].sent_s = sent;
                c.marks.erase(c.marks.begin(),
                              c.marks.begin() +
                                  static_cast<long>(done));
            }
        }
        // Sleep until the next due time or socket activity.
        t = now();
        double wait = next < schedule.size()
            ? schedule[next].at_s - t
            : deadline - t;
        wait = std::max(0.0, std::min(wait, 0.05));
        for (size_t i = 0; i < cs.size(); ++i) {
            fds[i].fd = cs[i].dead ? -1 : cs[i].fd;
            fds[i].events = static_cast<short>(
                POLLIN | (cs[i].out.empty() ? 0 : POLLOUT));
            fds[i].revents = 0;
        }
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(wait);
        ts.tv_nsec = static_cast<long>((wait - ts.tv_sec) * 1e9);
        if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            continue;
        for (size_t i = 0; i < cs.size(); ++i) {
            auto &c = cs[i];
            if (c.dead || !(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            while (true) {
                const ssize_t n = recv(c.fd, buf, sizeof buf, 0);
                if (n == 0 || (n < 0 && errno != EAGAIN &&
                               errno != EWOULDBLOCK && errno != EINTR)) {
                    c.dead = true;
                    break;
                }
                if (n < 0)
                    break;
                // Acknowledge at once: the daemon leaves Nagle's
                // algorithm on, so a response written while an earlier
                // one is unacknowledged would otherwise wait for the
                // 40 ms delayed-ACK timer.
                const int one = 1;
                setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one,
                           sizeof one);
                const size_t old = c.in.size();
                c.in.append(buf, static_cast<size_t>(n));
                size_t start = 0;
                for (size_t nl = c.in.find('\n', old);
                     nl != std::string::npos;
                     nl = c.in.find('\n', start)) {
                    const double done = now();
                    const std::string line =
                        c.in.substr(start, nl - start);
                    start = nl + 1;
                    const long id = fieldAfter(line, "\"id\":");
                    auto it = by_id.find(static_cast<uint64_t>(id));
                    if (id < 0 || it == by_id.end())
                        continue;
                    auto &r = (*results)[it->second];
                    if (r.answered())
                        continue;
                    r.done_s = done;
                    r.ok = line.rfind("{\"ok\":true", 0) == 0;
                    if (!r.ok)
                        r.code = static_cast<int>(
                            fieldAfter(line, "\"code\":"));
                    r.hash = responseHash(line);
                    ++answered;
                }
                c.in.erase(0, start);
            }
        }
    }
    for (auto &c : cs)
        close(c.fd);
    return true;
}

bool
rpc(int port, const std::string &line, std::string *response,
    double timeout_s)
{
    std::string error;
    const int fd = connectTo("127.0.0.1", port, &error);
    if (fd < 0)
        return false;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    const std::string msg = line + "\n";
    bool ok = send(fd, msg.data(), msg.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(msg.size());
    response->clear();
    char buf[1 << 16];
    while (ok) {
        const ssize_t n = recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {
            ok = false;
            break;
        }
        response->append(buf, static_cast<size_t>(n));
        const auto nl = response->find('\n');
        if (nl != std::string::npos) {
            response->resize(nl);
            break;
        }
    }
    close(fd);
    return ok;
}

} // namespace mwbench
