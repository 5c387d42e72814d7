/**
 * @file
 * The serve workload: `gpumc-serve --jobs=2` on a unix socket, driven
 * by this process as one client. An open loop at a fixed offered rate
 * sends the corpus checks in an order drawn from the workload seed;
 * about half carry `no_cache` (session pool and solver), the rest hit
 * the result cache. Responses are matched by `id`: the daemon answers
 * out of request order (see README.md). Then one sequential caller
 * asks every check again with `no_cache`, pass after pass, each on a
 * fresh daemon.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "inputs.hpp"
#include "support/json.hpp"

namespace perfbench {

using namespace gpumc;

namespace {

/**
 * Offered rate. Its `no_cache` requests arrive at about 74/s, under
 * half the daemon's capacity for cold misses (167/s measured on a
 * 4-core machine, eight requests in flight).
 */
constexpr double kRequestsPerS = 135;
constexpr int kDaemonJobs = 2;
/** How long after the last scheduled send responses may still come. */
constexpr double kDrainS = 30;
/** Open-loop requests at least: their p99 has ten samples above it. */
constexpr size_t kMinStream = 1000;
/**
 * Sequential passes after the stream: at least this many, and more
 * while one more fits the rest of the run.
 */
constexpr size_t kMinPasses = 5;

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/** A gpumc-serve process, stopped and reaped on destruction. */
class Daemon {
  public:
    Daemon(const Args &args, const std::string &socket)
    {
        std::string unixArg = "--unix=" + socket;
        std::string jobsArg = "--jobs=" + std::to_string(kDaemonJobs);
        std::string catArg = "--cat-dir=" + args.root + "/cat";
        pid_ = fork();
        if (pid_ < 0)
            fail("fork");
        if (pid_ == 0) {
            int log = open("gpumc-serve.log",
                           O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (log >= 0) {
                dup2(log, STDOUT_FILENO);
                dup2(log, STDERR_FILENO);
            }
            execl(args.serveBin.c_str(), "gpumc-serve", unixArg.c_str(),
                  jobsArg.c_str(), catArg.c_str(),
                  static_cast<char *>(nullptr));
            _exit(127);
        }
    }

    ~Daemon()
    {
        if (pid_ > 0)
            reap();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Stop the daemon and reap it; its peak RSS in MB. */
    double stop()
    {
        double peakMb = reap();
        if (peakMb < 0)
            throw std::runtime_error("gpumc-serve did not stop on SIGTERM");
        return peakMb;
    }

  private:
    /** SIGTERM, then SIGKILL after 20 s; -1 if it took SIGKILL. */
    double reap()
    {
        kill(pid_, SIGTERM);
        struct rusage usage {};
        int status = 0;
        for (int i = 0; i < 2000; ++i) {
            if (wait4(pid_, &status, WNOHANG, &usage) == pid_) {
                pid_ = -1;
                return usage.ru_maxrss / 1024.0;
            }
            usleep(10000);
        }
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &usage);
        pid_ = -1;
        return -1;
    }

    pid_t pid_ = -1;
};

/** A connected socket with line-buffered reads. */
class Connection {
  public:
    /** Connect to @p path, retrying while the daemon starts. */
    explicit Connection(const std::string &path)
    {
        struct sockaddr_un sa {};
        sa.sun_family = AF_UNIX;
        if (path.size() >= sizeof sa.sun_path)
            throw std::runtime_error("socket path too long: " + path);
        std::memcpy(sa.sun_path, path.c_str(), path.size());
        double deadline = nowS() + 20;
        for (;;) {
            fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd_ < 0)
                fail("socket");
            if (connect(fd_, reinterpret_cast<struct sockaddr *>(&sa),
                        sizeof sa) == 0)
                return;
            close(fd_);
            fd_ = -1;
            if (nowS() > deadline)
                fail("connect " + path);
            usleep(200);
        }
    }

    ~Connection()
    {
        if (fd_ >= 0)
            close(fd_);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    void send(const std::string &line)
    {
        size_t done = 0;
        while (done < line.size()) {
            ssize_t n = ::send(fd_, line.data() + done, line.size() - done,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                fail("send");
            done += static_cast<size_t>(n);
        }
    }

    /** Next line, or false at end of stream or after @p deadline. */
    bool readLine(std::string &line, double deadline)
    {
        for (;;) {
            size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                line = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return true;
            }
            double left = deadline - nowS();
            if (left <= 0)
                return false;
            struct timeval tv {};
            tv.tv_sec = static_cast<time_t>(left);
            tv.tv_usec = static_cast<suseconds_t>(
                (left - static_cast<double>(tv.tv_sec)) * 1e6);
            setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
            char chunk[65536];
            ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
            if (n > 0)
                buffer_.append(chunk, static_cast<size_t>(n));
            else if (n == 0 || (errno != EINTR && errno != EAGAIN &&
                                errno != EWOULDBLOCK))
                return false;
        }
    }

    /** Send @p request and return the response whose id is @p id. */
    JsonValue call(const std::string &request, const std::string &id)
    {
        send(request);
        std::string line, error;
        while (readLine(line, nowS() + 20)) {
            JsonValue v = parseJson(line, error);
            const JsonValue *got = v.find("id");
            if (got && got->isString() && got->text == id)
                return v;
        }
        throw std::runtime_error("no response to " + request);
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** One request of the stream and its known answer. */
struct Request {
    std::string line;
    bool expectedHolds = false;
    bool proof = false;
};

struct Stream {
    /** Every check once, cacheable: sent before timing starts. */
    std::vector<std::string> warmUp;
    std::vector<Request> timed;
    /** Every check once with `no_cache`, for one sequential caller. */
    std::vector<Request> pass;
};

const char *
wireProperty(core::Property property)
{
    switch (property) {
      case core::Property::Safety: return "program_spec";
      case core::Property::Liveness: return "liveness";
      case core::Property::CatSpec: return "cat_spec";
    }
    return "?";
}

/**
 * The request stream, in blocks. Each block asks every corpus check
 * once with `no_cache` (session pool and solver) and once without
 * (a result-cache hit, as the warm-up asked it before), and every fifth
 * check once more with `no_cache`, in an order drawn from the seed.
 * Every seed thus sends the same requests, so the figures do not depend
 * on which heavy checks a seed drew; and with a little over half of
 * them `no_cache`, the median latency does not sit on the border
 * between cache hits and misses.
 */
Stream
makeStream(const Args &args, const Inputs &in, size_t blocks)
{
    struct Distinct {
        std::string fields;
        const Check *check;
    };
    std::vector<Distinct> distinct;
    for (const Job &job : in.jobs) {
        std::ifstream file(args.root + "/" + job.file);
        std::stringstream text;
        text << file.rdbuf();
        for (const Check &check : job.checks) {
            distinct.push_back(
                {",\"litmus\":" + jsonString(text.str()) +
                     ",\"model\":" + jsonString(job.modelName) +
                     ",\"property\":\"" + wireProperty(check.property) +
                     "\",\"bound\":" + std::to_string(job.options.bound),
                 &check});
        }
    }
    Stream stream;
    for (size_t i = 0; i < distinct.size(); ++i) {
        const Distinct &d = distinct[i];
        stream.warmUp.push_back("{\"id\":\"w" + std::to_string(i) + "\"" +
                                d.fields + "}\n");
        stream.pass.push_back({"{\"id\":\"s" + std::to_string(i) + "\"" +
                                   d.fields + ",\"no_cache\":true}\n",
                               d.check->expectedHolds, d.check->proof});
    }
    std::mt19937_64 rng(args.seed);
    // Item 3c asks check c without no_cache, 3c+1 and 3c+2 with it.
    std::vector<size_t> items;
    for (size_t c = 0; c < distinct.size(); ++c) {
        items.push_back(3 * c);
        items.push_back(3 * c + 1);
        if (c % 5 == 0)
            items.push_back(3 * c + 2);
    }
    for (size_t b = 0; b < blocks; ++b) {
        std::vector<size_t> block = items;
        std::shuffle(block.begin(), block.end(), rng);
        for (size_t item : block) {
            const Distinct &d = distinct[item / 3];
            bool noCache = item % 3 != 0;
            stream.timed.push_back(
                {"{\"id\":" + std::to_string(stream.timed.size()) +
                     d.fields +
                     (noCache ? ",\"no_cache\":true}\n" : "}\n"),
                 d.check->expectedHolds, d.check->proof});
        }
    }
    return stream;
}

/**
 * Send the warm-up requests, a few in flight at a time, so that timing
 * starts with the result cache filled: users of a long-lived daemon do
 * not pay its cold start on every request.
 */
void
warmUp(Connection &conn, const std::vector<std::string> &lines)
{
    const size_t window = 2 * kDaemonJobs;
    size_t sent = 0, answered = 0;
    std::string line, error;
    while (answered < lines.size()) {
        while (sent < lines.size() && sent - answered < window)
            conn.send(lines[sent++]);
        if (!conn.readLine(line, nowS() + 60))
            throw std::runtime_error("gpumc-serve stopped answering");
        JsonValue v = parseJson(line, error);
        const JsonValue *status = v.find("status");
        if (!status || status->text != "ok")
            throw std::runtime_error("warm-up request failed: " + line);
        answered++;
    }
}

/** What one pass of the sequential caller saw. */
struct SequentialPass {
    double wallS = 0;
    /** Reference seconds per measured second (see kRefGhz). */
    double scale = 1;
    std::vector<double> queryMs;
    int64_t decided = 0;
    int64_t correct = 0;
};

/**
 * Ask every check once with `no_cache`, waiting for each answer before
 * sending the next request. The order never changes, so with the
 * daemon's default pool of 32 sessions every request rebuilds its
 * session: the work is the same in every pass and every run.
 */
SequentialPass
sequentialPass(Connection &conn, const std::vector<Request> &pass)
{
    SequentialPass p;
    double passStart = nowS();
    for (size_t i = 0; i < pass.size(); ++i) {
        double sent = nowS();
        JsonValue v = conn.call(pass[i].line, 's' + std::to_string(i));
        double took = nowS() - sent;
        p.queryMs.push_back(took * 1000);
        const JsonValue *status = v.find("status");
        const JsonValue *unknown = v.find("unknown");
        const JsonValue *holds = v.find("holds");
        if (!status || status->text != "ok" || !unknown ||
            unknown->boolean || !holds)
            continue;
        p.decided++;
        p.correct += holds->boolean == pass[i].expectedHolds;
    }
    p.wallS = nowS() - passStart;
    return p;
}

/** What the client saw of one request. */
struct Seen {
    double sentS = -1;
    double receivedS = -1;
    bool ok = false;      // status ok and decided
    bool correct = false; // ok and the known answer
    double serverMs = 0;  // the response's time_ms
};

struct StreamRun {
    std::vector<Seen> seen;
    double startS = 0;
    double lastS = 0;
    JsonValue metrics;
};

/**
 * Send @p stream at kRequestsPerS from a sender thread; read responses
 * here and match them by id. Then ask the daemon for its metrics.
 */
StreamRun
drive(Connection &conn, const std::vector<Request> &stream, SpanLog &log)
{
    StreamRun run;
    run.seen.resize(stream.size());
    run.startS = nowS() + 0.05;
    std::atomic<bool> sendFailed{false};
    std::thread sender([&] {
        for (size_t i = 0; i < stream.size(); ++i) {
            double due = run.startS + static_cast<double>(i) / kRequestsPerS;
            double wait = due - nowS();
            if (wait > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(wait));
            run.seen[i].sentS = nowS();
            try {
                conn.send(stream[i].line);
            } catch (const std::exception &) {
                sendFailed = true;
                return;
            }
        }
    });
    struct Joiner {
        std::thread &t;
        ~Joiner() { t.join(); }
    } joiner{sender};

    double deadline = run.startS +
                      static_cast<double>(stream.size()) / kRequestsPerS +
                      kDrainS;
    size_t received = 0;
    std::string line, error;
    while (received < stream.size() && !sendFailed &&
           conn.readLine(line, deadline)) {
        double now = nowS();
        SpanLog::Scope span(log, "client.receive");
        JsonValue v = parseJson(line, error);
        const JsonValue *id = v.find("id");
        if (!id || !id->isNumber() || id->asInt() < 0 ||
            id->asInt() >= static_cast<int64_t>(stream.size()))
            continue;
        size_t i = static_cast<size_t>(id->asInt());
        Seen &s = run.seen[i];
        if (s.receivedS >= 0)
            continue;
        received++;
        s.receivedS = now;
        run.lastS = now;
        const JsonValue *status = v.find("status");
        const JsonValue *unknown = v.find("unknown");
        const JsonValue *holds = v.find("holds");
        const JsonValue *time = v.find("time_ms");
        s.ok = status && status->text == "ok" && unknown &&
               !unknown->boolean && holds;
        s.correct = s.ok && holds->boolean == stream[i].expectedHolds;
        s.serverMs = time ? time->number : 0;
    }
    run.metrics = conn.call("{\"op\":\"metrics\",\"id\":\"m\"}\n", "m");
    return run;
}

double
counter(const JsonValue &metrics, const char *group, const char *key)
{
    const JsonValue *g = metrics.find(group);
    const JsonValue *v = g ? g->find(key) : nullptr;
    return v ? v->number : 0;
}

/** The client's view of one stream, per request. */
struct Latencies {
    double runMs = 0;
    std::vector<double> latencyMs, serverMs, waitMs, lateMs;
    int64_t ok = 0;
    int64_t correct = 0;
};

/**
 * Latency counts from each request's scheduled send time. A request
 * that failed, was refused or never answered counts as missing any
 * latency limit: it takes the whole run as its latency.
 */
Latencies
measure(const std::vector<Request> &stream, const StreamRun &run,
        Report &report)
{
    Latencies lat;
    lat.runMs = (run.lastS - run.startS) * 1000;
    for (size_t i = 0; i < stream.size(); ++i) {
        const Seen &s = run.seen[i];
        double due = run.startS + static_cast<double>(i) / kRequestsPerS;
        if (s.sentS >= 0)
            lat.lateMs.push_back((s.sentS - due) * 1000);
        double ms = s.ok ? (s.receivedS - due) * 1000 : lat.runMs;
        lat.latencyMs.push_back(ms);
        if (!s.ok)
            continue;
        lat.ok++;
        lat.serverMs.push_back(s.serverMs);
        lat.waitMs.push_back(ms - s.serverMs);
        if (s.correct) {
            lat.correct++;
        } else {
            report.problems.push_back("request " + std::to_string(i) +
                                      ": wrong verdict");
        }
    }
    return lat;
}

} // namespace

Report
runServe(const Args &args)
{
    if (args.serveBin.empty())
        throw std::runtime_error("serve needs --serve-bin");
    std::string dir = args.outDir.empty() ? "." : args.outDir;
    std::filesystem::create_directories(dir);
    // The socket path is relative to this directory, so its length does
    // not depend on where the checkout lives.
    if (chdir(dir.c_str()) != 0)
        fail("chdir " + dir);
    std::string socket = "serve-" + std::to_string(getpid()) + ".sock";

    Report report;
    SpanLog log(args.trace);
    SpanLog off(false);

    // Set-up: inputs, then daemon start to the first ping reply.
    std::vector<double> setupS;
    std::vector<std::map<std::string, double>> setupLayers;
    Stream stream;
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Connection> conn;
    auto start = [&] {
        std::filesystem::remove(socket);
        daemon = std::make_unique<Daemon>(args, socket);
        conn = std::make_unique<Connection>(socket);
        JsonValue pong =
            conn->call("{\"op\":\"ping\",\"id\":\"p\"}\n", "p");
        const JsonValue *status = pong.find("status");
        if (!status || status->text != "ok")
            throw std::runtime_error("gpumc-serve did not answer ping");
    };
    double setupGhz = clockGhz();
    double setupStart = nowS();
    for (int rep = 0; moreSetup(rep, nowS() - setupStart); ++rep) {
        if (daemon) {
            conn.reset();
            daemon->stop();
        }
        size_t mark = log.size();
        double t0 = nowS();
        Inputs in = loadCorpus(args, log);
        // Whole blocks, the fewest that hold kMinStream requests.
        stream = makeStream(args, in, 1);
        size_t block = stream.timed.size();
        stream = makeStream(args, in, (kMinStream + block - 1) / block);
        start();
        setupS.push_back(nowS() - t0);
        setupLayers.push_back(log.totalsMs(mark));
    }
    setupGhz = (setupGhz + clockGhz()) / 2;

    const std::vector<Request> &timed = stream.timed;
    warmUp(*conn, stream.warmUp);
    StreamRun run = drive(*conn, timed, off);
    double peakMb = daemon->stop();
    std::vector<SequentialPass> passes;
    if (!args.trace) {
        // Each sequential pass gets a daemon of its own, so that the
        // heap the seeded stream left behind does not carry over, and
        // shares one core with it, turning through the cores pass by
        // pass: the hand-offs between client and daemon threads are
        // then switches on one core, whose cost does not depend on how
        // busy the host keeps the others.
        double begin = nowS();
        double budgetS =
            args.seconds - static_cast<double>(timed.size()) / kRequestsPerS;
        while (passes.size() < kMinPasses ||
               nowS() - begin + passes.back().wallS <= budgetS) {
            pinToCore(coreFor(passes.size()));
            start();
            double ghz = clockGhz();
            passes.push_back(sequentialPass(*conn, stream.pass));
            passes.back().scale = (ghz + clockGhz()) / 2 / kRefGhz;
            conn.reset();
            peakMb = std::max(peakMb, daemon->stop());
        }
    }
    Latencies lat = measure(timed, run, report);
    report.attempted = static_cast<int64_t>(timed.size());
    report.failed = report.attempted - lat.correct;
    int64_t decided = lat.ok;
    for (const SequentialPass &p : passes) {
        int64_t n = static_cast<int64_t>(stream.pass.size());
        report.attempted += n;
        report.failed += n - p.correct;
        decided += p.decided;
        if (p.decided != p.correct)
            report.problems.push_back("sequential pass: wrong verdict");
    }
    report.notes.push_back(
        std::to_string(timed.size()) + " requests at " +
        std::to_string(static_cast<int>(kRequestsPerS)) +
        "/s (open loop), one client, gpumc-serve --jobs=" +
        std::to_string(kDaemonJobs));
    if (!passes.empty())
        report.notes.push_back(std::to_string(passes.size()) +
                               " sequential passes of " +
                               std::to_string(stream.pass.size()) +
                               " requests");

    if (!args.trace) {
        std::filesystem::remove(socket);
        report.set("setup_s", "s", median(setupS) * setupGhz / kRefGhz);
        // As in the corpus workload, times are scaled to the reference
        // clock pass by pass, and each request counts at its fastest.
        std::vector<double> queryMs(stream.pass.size());
        double wallS = 0, unsatS = 0, satS = 0;
        for (size_t i = 0; i < stream.pass.size(); ++i) {
            queryMs[i] = passes.front().queryMs[i] * passes.front().scale;
            for (const SequentialPass &p : passes)
                queryMs[i] = std::min(queryMs[i], p.queryMs[i] * p.scale);
            wallS += queryMs[i] / 1000;
            (stream.pass[i].proof ? unsatS : satS) += queryMs[i] / 1000;
        }
        std::vector<double> passWallS, passGhz;
        for (const SequentialPass &p : passes) {
            passWallS.push_back(p.wallS);
            passGhz.push_back(p.scale * kRefGhz);
        }
        report.set("wall_s", "s", wallS);
        report.set("unsat_s", "s", unsatS);
        report.set("sat_s", "s", satS);
        report.set("query_ms_p50", "ms", percentile(queryMs, 50));
        report.set("query_ms_tail", "ms", percentile(queryMs, 90));
        report.set("query_samples", "count",
                   static_cast<double>(queryMs.size()));
        report.set("query_tail_percentile", "%", 90);
        report.set("pass_wall_s_median", "s", median(passWallS));
        report.set("clock_ghz", "GHz", median(passGhz));
        report.set("decided_share", "ratio",
                   static_cast<double>(decided) / report.attempted);
        report.set("wrong_verdicts", "count",
                   static_cast<double>(report.problems.size()));
        report.set("peak_rss_mb", "MB", peakMb);
        report.set("serve_p50_ms", "ms", percentile(lat.latencyMs, 50));
        report.set("serve_p99_ms", "ms", percentile(lat.latencyMs, 99));
        report.set("serve_rps", "1/s", lat.correct / (lat.runMs / 1000));
        report.set("serve_failed_share", "ratio",
                   static_cast<double>(report.failed) / report.attempted);
        return report;
    }

    // The traced run: the same stream on a fresh daemon, with spans.
    start();
    warmUp(*conn, stream.warmUp);
    StreamRun tracedRun = drive(*conn, timed, log);
    daemon->stop();
    std::filesystem::remove(socket);
    Latencies traced = measure(timed, tracedRun, report);
    report.attempted += static_cast<int64_t>(timed.size());
    report.failed += static_cast<int64_t>(timed.size()) - traced.correct;

    auto setupMs = [&](const std::string &span) {
        std::vector<double> values;
        for (const auto &layers : setupLayers)
            values.push_back(layers.count(span) ? layers.at(span) : 0);
        return median(values);
    };
    auto ratio = [&](const char *group) {
        double hits = counter(tracedRun.metrics, group, "hits");
        double misses = counter(tracedRun.metrics, group, "misses");
        return hits + misses > 0 ? hits / (hits + misses) : 0;
    };
    report.set("litmus.parse_ms", "ms", setupMs("litmus.parse"));
    report.set("cat.load_ms", "ms", setupMs("cat.load"));
    report.set("serve.server_ms_p50", "ms",
               percentile(traced.serverMs, 50));
    report.set("serve.wait_ms_p50", "ms", percentile(traced.waitMs, 50));
    report.set("serve.result_cache_hit_ratio", "ratio",
               ratio("result_cache"));
    report.set("serve.session_cache_hit_ratio", "ratio",
               ratio("session_cache"));
    report.set("serve.max_queue_depth", "count",
               counter(tracedRun.metrics, "executor", "max_queue_depth"));
    report.set("serve.rejected", "count",
               counter(tracedRun.metrics, "executor", "rejected"));
    report.set("client.late_ms_p99", "ms", percentile(traced.lateMs, 99));
    report.set("trace.overhead_pct", "%",
               (percentile(traced.latencyMs, 50) /
                    percentile(lat.latencyMs, 50) -
                1) * 100);
    std::string path = "serve-seed" + std::to_string(args.seed) + ".json";
    if (!log.write(path))
        report.problems.push_back("cannot write " + path);
    return report;
}

} // namespace perfbench
