/**
 * @file
 * Open-loop load generator: one thread, a few pipelined connections,
 * requests sent on a fixed schedule whether or not earlier ones have
 * been answered.  Each request is timed from the moment it was *due*
 * to be sent, so a stall anywhere (server or generator) is charged to
 * every request scheduled behind it.
 */
#ifndef MWBENCH_LOADGEN_HH
#define MWBENCH_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace mwbench {

/** One request of a schedule. */
struct LoadRequest
{
    double at_s = 0;     ///< due time, offset from the run's start
    int conn = 0;        ///< connection index
    uint64_t id = 0;     ///< echoed by the server; unique per run
    std::string line;    ///< request JSON, without the newline
};

/** What happened to one request. */
struct LoadResult
{
    double scheduled_s = 0;
    double sent_s = -1;     ///< last byte written; -1 = never sent
    double done_s = -1;     ///< response newline read; -1 = none
    bool ok = false;        ///< response had "ok":true
    int code = 0;           ///< error code of a failed response
    uint64_t hash = 0;      ///< hash of the response bytes

    bool answered() const { return done_s >= 0; }
    double latencyS() const { return done_s - scheduled_s; }
    double lagS() const { return sent_s - scheduled_s; }
};

/** Hash LoadResult::hash uses over a response line. */
uint64_t responseHash(const std::string &line);

/**
 * Connects @p conns sockets to @p host:@p port, runs @p schedule
 * (sorted by due time), and waits up to @p drain_s after the last due
 * time for outstanding responses; requests still unanswered then are
 * left unanswered.  Results are indexed like @p schedule.  @p on_tick,
 * when set, runs about every 50 ms (for sampling the server).  Returns
 * false (with @p error) only when a connection cannot be opened.
 */
bool runOpenLoop(const std::string &host, int port, int conns,
                 const std::vector<LoadRequest> &schedule,
                 double drain_s, std::vector<LoadResult> *results,
                 std::string *error,
                 const std::function<void()> &on_tick = {});

/** One blocking request/response on a fresh connection. */
bool rpc(int port, const std::string &line, std::string *response,
         double timeout_s = 60.0);

} // namespace mwbench

#endif // MWBENCH_LOADGEN_HH
