#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sched.h>

#include "bench.hpp"
#include "support/json.hpp"

namespace perfbench {

namespace {

int64_t
nowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Shortest text that reads back as the same double. */
std::string
number(double value)
{
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    return ec == std::errc() ? std::string(buf, end) : "0";
}

} // namespace

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
moreSetup(int reps, double spentS)
{
    return reps < 7 || (spentS < 0.5 && reps < 500);
}

double
clockGhz()
{
    constexpr int kSteps = 250000;
    static volatile uint64_t seed = 1;
    double best = 0;
    for (int rep = 0; rep < 5; ++rep) {
        uint64_t x = seed;
        double start = nowS();
        for (int i = 0; i < kSteps; ++i)
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        double took = nowS() - start;
        seed = x;
        best = rep == 0 ? took : std::min(best, took);
    }
    return kSteps * 4.0 / best / 1e9;
}

int
coreFor(size_t turn)
{
    static const std::vector<int> cores = [] {
        std::vector<int> allowed;
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &set))
                    allowed.push_back(cpu);
            }
        }
        return allowed;
    }();
    return cores.empty() ? -1 : cores[turn % cores.size()];
}

void
pinToCore(int core)
{
    if (core < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(core, &set);
    sched_setaffinity(0, sizeof set, &set);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50);
}

SpanLog::Scope::Scope(SpanLog &log, const char *name) : log_(log)
{
    if (!log_.on_)
        return;
    index_ = static_cast<int>(log_.spans_.size());
    log_.spans_.push_back({name, log_.open_, nowUs(), 0});
    log_.open_ = index_;
}

void
SpanLog::Scope::close()
{
    if (index_ < 0)
        return;
    Span &span = log_.spans_[index_];
    span.durUs = nowUs() - span.startUs;
    log_.open_ = span.parent;
    index_ = -1;
}

std::map<std::string, double>
SpanLog::totalsMs(size_t first) const
{
    std::map<std::string, double> totals;
    for (size_t i = first; i < spans_.size(); ++i)
        totals[spans_[i].name] += spans_[i].durUs / 1000.0;
    return totals;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.startUs
            << ",\"dur\":" << s.durUs << ",\"args\":{\"parent\":"
            << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void
Report::set(const std::string &name, const std::string &unit, double value)
{
    if (!std::isfinite(value)) {
        problems.push_back("metric " + name + " is not finite");
        value = 0;
    }
    for (Metric &m : metrics) {
        if (m.name == name) {
            m = {name, unit, value};
            return;
        }
    }
    metrics.push_back({name, unit, value});
}

void
printReport(const Args &args, const Report &report)
{
    std::printf("workload %s, seed %llu, %g s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    for (const std::string &line : report.notes)
        std::printf("  %s\n", line.c_str());
    for (const std::string &line : report.problems)
        std::printf("  FAILED CHECK: %s\n", line.c_str());

    std::string json = "{\"correct\":";
    json += report.problems.empty() && report.failed == 0 ? "true"
                                                          : "false";
    json += ",\"attempted\":" + std::to_string(report.attempted);
    json += ",\"failed\":" + std::to_string(report.failed);
    json += ",\"metrics\":{";
    bool first = true;
    for (const Report::Metric &m : report.metrics) {
        json += first ? "" : ",";
        first = false;
        json += gpumc::jsonString(m.name) + ":{\"value\":" +
                number(m.value) + ",\"unit\":" + gpumc::jsonString(m.unit) +
                "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
