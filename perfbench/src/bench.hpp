/**
 * @file
 * Shared pieces of the gpumc benchmark program: the command line, the
 * span log of a traced run, sample statistics, and the report every
 * workload fills in.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    /** Checkout root (absolute): holds litmus/, cat/ and perfbench/. */
    std::string root;
    /** The gpumc-serve binary (absolute). */
    std::string serveBin;
    /** Directory that receives the span log of a traced run. */
    std::string outDir;
};

/** Seconds on the steady clock. */
double nowS();

/**
 * Whether set-up should run once more, after @p reps runs that took
 * @p spentS in total. Set-up is cheap next to a pass, so it repeats
 * until its median is steady; setup_s is that median.
 */
bool moreSetup(int reps, double spentS);

/**
 * The @p turn-th core (modulo their number) of those this process was
 * allowed to run on when first asked. A shared host loads its cores
 * unequally and the load moves, so a benchmark that takes each session
 * at its fastest turns it through every core.
 */
int coreFor(size_t turn);

/** Pin the calling thread to @p core (from coreFor). */
void pinToCore(int core);

/**
 * The clock that the end-to-end times are scaled to. A shared host
 * changes its cores' clock with its neighbours' load, so the benchmark
 * reports time × clockGhz() / kRefGhz: estimated core cycles, in
 * seconds of a 3 GHz core.
 */
constexpr double kRefGhz = 3;

/**
 * The calling thread's core clock now, in GHz: the fastest of five
 * runs of a chain of dependent 64-bit multiply-adds, 4 cycles a step
 * (about a millisecond in all).
 */
double clockGhz();

/** Percentile @p p in [0, 100], linear between closest ranks. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/**
 * Spans of a traced run, recorded around the benchmark's own calls into
 * gpumc's public entry points. They stay in memory until the run ends;
 * nothing is recorded when the log is off.
 */
class SpanLog {
  public:
    struct Span {
        const char *name;
        int parent; // index of the enclosing span, -1 at top level
        int64_t startUs;
        int64_t durUs;
    };

    /** Closes its span when it goes out of scope (or on close()). */
    class Scope {
      public:
        Scope(SpanLog &log, const char *name);
        ~Scope() { close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        void close();

      private:
        SpanLog &log_;
        int index_ = -1;
    };

    explicit SpanLog(bool on) : on_(on) {}

    bool on() const { return on_; }
    size_t size() const { return spans_.size(); }

    /** Summed duration in ms per span name, over spans from @p first. */
    std::map<std::string, double> totalsMs(size_t first) const;

    /** Write the log as Chrome trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    bool on_;
    int open_ = -1;
    std::vector<Span> spans_;
};

/** What one run measured and whether its outputs were right. */
struct Report {
    struct Metric {
        std::string name;
        std::string unit;
        double value;
    };

    int64_t attempted = 0;
    /** Wrong verdicts and errors; UNKNOWN lowers decided_share only. */
    int64_t failed = 0;
    /** Each entry is a failed self-check; any entry fails the run. */
    std::vector<std::string> problems;
    std::vector<Metric> metrics;
    /** Free-form lines printed above the metrics. */
    std::vector<std::string> notes;

    void set(const std::string &name, const std::string &unit,
             double value);
};

/** Print the report: notes, one line per metric, then a JSON line. */
void printReport(const Args &args, const Report &report);

Report runCorpus(const Args &args);
Report runServe(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
