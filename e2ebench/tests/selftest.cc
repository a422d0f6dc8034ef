/**
 * @file
 * Tests of the benchmark's own parts: seeded inputs, the percentile
 * rule, open-loop timing, the bit-exact digests and span self time.
 */
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "inputs.hh"
#include "loadgen.hh"
#include "support.hh"
#include "workloads.hh"

using namespace mwbench;

namespace {

std::vector<std::string>
scheduleLines(uint64_t seed)
{
    const auto pool = servePool(seed);
    size_t cursor = 0;
    std::vector<std::string> out;
    for (const auto &s :
         serveSchedule(seed, "ref", pool, 200.0, 2.0, 4, &cursor))
        out.push_back(formatDouble(s.at_s) + " " +
                      std::to_string(s.conn) + " " +
                      requestJson(pool, s.key, -1));
    return out;
}

std::vector<Cooling>
scenarios(uint64_t seed)
{
    std::vector<Cooling> out;
    for (int i = 0; i < 3 * kCoolingBlock; ++i)
        out.push_back(coolingScenario(seed, i));
    return out;
}

} // namespace

TEST(Inputs, SameSeedSameInputs)
{
    EXPECT_EQ(scenarios(7), scenarios(7));
    EXPECT_EQ(probeScenario(7), probeScenario(7));
    EXPECT_EQ(monteCarloSeed(7, 3), monteCarloSeed(7, 3));
    EXPECT_EQ(monteCarloWorkload(7), monteCarloWorkload(7));
    EXPECT_EQ(scheduleLines(7), scheduleLines(7));
    const auto a = servePool(7), b = servePool(7);
    EXPECT_EQ(a.head, b.head);
    EXPECT_EQ(a.tail, b.tail);
}

TEST(Inputs, DifferentSeedsDifferentInputs)
{
    EXPECT_NE(scenarios(7), scenarios(8));
    EXPECT_NE(monteCarloSeed(7, 0), monteCarloSeed(8, 0));
    EXPECT_NE(monteCarloSeed(7, 0), monteCarloSeed(7, 1));
    EXPECT_NE(scheduleLines(7), scheduleLines(8));
    EXPECT_NE(servePool(7).tail, servePool(8).tail);
}

TEST(Inputs, CoolingScenariosStayInTheEnvelopeAndNeverRepeat)
{
    const auto all = scenarios(11);
    for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_GE(all[i].fan_pressure_scale, kFanScaleLo);
        EXPECT_LE(all[i].fan_pressure_scale, kFanScaleHi);
        EXPECT_GE(all[i].tj_margin_c, kTjMarginLo);
        EXPECT_LE(all[i].tj_margin_c, kTjMarginHi);
        for (size_t j = 0; j < i; ++j)
            EXPECT_FALSE(all[i] == all[j]);
    }
    // One block puts exactly one draw in each fan-scale stratum.
    std::vector<int> per_stratum(kCoolingBlock, 0);
    for (int i = 0; i < kCoolingBlock; ++i) {
        const double u = std::log(all[i].fan_pressure_scale / kFanScaleLo) /
            std::log(kFanScaleHi / kFanScaleLo);
        ++per_stratum[static_cast<size_t>(u * kCoolingBlock)];
    }
    for (int n : per_stratum)
        EXPECT_EQ(n, 1);
}

TEST(Inputs, TailKeysNeverShareTheHeadProfile)
{
    const auto pool = servePool(3);
    for (size_t k : pool.tail)
        EXPECT_NE(pool.keys[k].profile, 0);
    for (size_t k : pool.head)
        EXPECT_EQ(pool.keys[k].profile, 0);
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    ASSERT_TRUE(percentile(v, 0.99).has_value());
    EXPECT_EQ(*percentile(v, 0.99), 990.0);
    v.pop_back();  // 999 samples: only 9 lie beyond the p99 rank
    EXPECT_FALSE(percentile(v, 0.99).has_value());
    EXPECT_EQ(percentileOrMax(v, 0.99), 999.0);

    std::vector<double> twenty(20, 1.0), nineteen(19, 1.0);
    EXPECT_TRUE(percentile(twenty, 0.5).has_value());
    EXPECT_FALSE(percentile(nineteen, 0.5).has_value());
    EXPECT_FALSE(percentile({}, 0.5).has_value());
    EXPECT_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(OpenLoop, StallIsChargedToRequestsScheduledBehindIt)
{
    // A one-connection server that answers at once, except that it
    // stalls 200 ms before answering request 0.
    const int listener = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr),
              0);
    socklen_t len = sizeof addr;
    getsockname(listener, reinterpret_cast<sockaddr *>(&addr), &len);
    listen(listener, 1);
    constexpr double kStallS = 0.2;
    std::thread server([&] {
        const int fd = accept(listener, nullptr, nullptr);
        std::string in;
        char buf[4096];
        ssize_t n;
        while ((n = recv(fd, buf, sizeof buf, 0)) > 0) {
            in.append(buf, static_cast<size_t>(n));
            for (auto nl = in.find('\n'); nl != std::string::npos;
                 nl = in.find('\n')) {
                const std::string line = in.substr(0, nl);
                in.erase(0, nl + 1);
                const std::string id =
                    line.substr(line.find(':') + 1,
                                line.find('}') - line.find(':') - 1);
                if (id == "0")
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(kStallS));
                const std::string out =
                    "{\"ok\":true,\"id\":" + id + ",\"result\":{}}\n";
                send(fd, out.data(), out.size(), MSG_NOSIGNAL);
            }
        }
        close(fd);
    });

    std::vector<LoadRequest> schedule;
    for (uint64_t i = 0; i < 10; ++i)
        schedule.push_back({0.01 * static_cast<double>(i), 0, i,
                            "{\"id\":" + std::to_string(i) + "}"});
    std::vector<LoadResult> results;
    std::string error;
    ASSERT_TRUE(runOpenLoop("127.0.0.1", ntohs(addr.sin_port), 1,
                            schedule, 5.0, &results, &error))
        << error;
    server.join();
    close(listener);

    ASSERT_EQ(results.size(), schedule.size());
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        ASSERT_TRUE(r.answered() && r.ok) << i;
        // Sends left on schedule: the generator did not wait.
        EXPECT_LT(r.lagS(), 0.05) << i;
        // Each request is charged from its due time to the end of the
        // stall, not from when the server got around to it.
        EXPECT_GE(r.latencyS(), kStallS - r.scheduled_s - 0.005) << i;
    }
}

TEST(Digest, FlagsAOneUlpChange)
{
    core::NodeResult r;
    r.node = tech::kAllNodes[3];
    r.optimal.tco_per_ops = 1.2345e-9;
    r.optimal.die_area_mm2 = 100.0;
    r.nre.mask = 2.5e6;
    const std::vector<core::NodeResult> base = {r, r};

    auto digestOf = [](const std::vector<core::NodeResult> &sweep) {
        Digest d;
        digestSweep(sweep, d);
        return d.value();
    };
    EXPECT_EQ(digestOf(base), digestOf(base));

    auto point = base;
    point[1].optimal.tco_per_ops =
        std::nextafter(point[1].optimal.tco_per_ops, 1.0);
    EXPECT_NE(digestOf(point), digestOf(base));

    auto nre = base;
    nre[0].nre.mask = std::nextafter(nre[0].nre.mask, 0.0);
    EXPECT_NE(digestOf(nre), digestOf(base));

    core::UncertaintyResult u;
    u.choice_fraction["28nm"] = 1.0;
    u.total_cost.median = 3.0e7;
    auto v = u;
    v.total_cost.median = std::nextafter(v.total_cost.median, 0.0);
    EXPECT_NE(digestUncertainty(u), digestUncertainty(v));
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren)
{
    Tracer t(true);
    const int root = t.begin("root", 1);
    const int a = t.begin("child", 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    t.end(a);
    const int b = t.begin("child", 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    t.end(b);
    t.end(root);
    const auto self = t.selfTimeMs();
    const auto &r = t.spans()[static_cast<size_t>(root)];
    const double total = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    EXPECT_NEAR(self.at("root") + self.at("child"), total, 1e-6);
    EXPECT_LT(self.at("root"), 5.0);
    EXPECT_EQ(t.spans()[1].parent, root);

    Tracer off(false);
    EXPECT_EQ(off.begin("x", 0), -1);
    EXPECT_TRUE(off.spans().empty());
}
