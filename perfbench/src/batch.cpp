/**
 * @file
 * The corpus workload: one sequential caller runs every job through
 * `core::Verifier`, then `dpor::DporChecker`, pass after pass. A traced
 * run also replays the safety and cat_spec checks through the
 * pipeline's public calls to time each layer, and checks that the
 * replay reaches the same verdicts and clause counts.
 */

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <sys/resource.h>

#include "analysis/exec_analysis.hpp"
#include "analysis/relation_analysis.hpp"
#include "dpor/dpor_checker.hpp"
#include "encoder/program_encoder.hpp"
#include "encoder/relation_encoder.hpp"
#include "inputs.hpp"
#include "litmus/litmus_parser.hpp"
#include "program/unroller.hpp"
#include "smt/backend.hpp"

namespace perfbench {

using namespace gpumc;
using core::Property;
using Scope = SpanLog::Scope;

namespace {

// --- inputs ---------------------------------------------------------------

const cat::CatModel &
loadModel(const Args &args, Inputs &in, const std::string &name,
          SpanLog &log)
{
    Scope span(log, "cat.load");
    in.models.push_back(
        cat::CatModel::fromFile(args.root + "/cat/" + name + ".cat"));
    return in.models.back();
}

const prog::Program &
parseFile(Inputs &in, const std::string &path, SpanLog &log)
{
    Scope span(log, "litmus.parse");
    in.programs.push_back(litmus::parseLitmusFile(path));
    return in.programs.back();
}

std::string
metaOr(const prog::Program &p, const std::string &key,
       const std::string &fallback)
{
    auto it = p.meta.find(key);
    return it == p.meta.end() ? fallback : it->second;
}

/** A safety check proves UNSAT unless it asks for a reachable state. */
Check
safetyCheck(const prog::Program &p, bool expectedHolds)
{
    bool reach = p.assertKind == prog::AssertKind::Exists;
    return {Property::Safety, expectedHolds, expectedHolds != reach};
}

/** The `@expect` checks of @p p under one model, liveness last. */
std::vector<Check>
expectedChecks(const prog::Program &p, const cat::CatModel &model,
               const std::string &tag)
{
    std::vector<Check> checks;
    std::string safety =
        metaOr(p, "safety-" + tag, metaOr(p, "safety", ""));
    if (!safety.empty())
        checks.push_back(safetyCheck(p, safety == "holds"));
    std::string drf = metaOr(p, "drf", "");
    if (!drf.empty() && model.hasFlaggedAxioms()) {
        bool raceFree = drf == "racefree";
        checks.push_back({Property::CatSpec, raceFree, raceFree});
    }
    std::string liveness = metaOr(p, "liveness", "");
    if (!liveness.empty()) {
        bool live = liveness == "live";
        checks.push_back({Property::Liveness, live, live});
    }
    return checks;
}

core::VerifierOptions
baseOptions(int bound)
{
    core::VerifierOptions options;
    options.bound = bound;
    options.wantWitness = false;
    return options;
}

// --- one pass -------------------------------------------------------------

const char *
propertyName(Property property)
{
    switch (property) {
      case Property::Safety: return "safety";
      case Property::Liveness: return "liveness";
      case Property::CatSpec: return "cat_spec";
    }
    return "?";
}

struct CheckOutcome {
    bool decided = false;
    bool holds = false;
    double timeMs = 0;
    int64_t clauses = 0;
};

struct JobOutcome {
    double queryMs = 0; // Verifier construction to destruction
    double dporMs = 0;  // the job's DporChecker runs
    std::vector<CheckOutcome> checks;
    std::string error;
};

/** Totals of one pass; `counts` must repeat exactly between passes. */
struct Pass {
    double wallS = 0;
    /** Reference seconds per measured second (see kRefGhz). */
    double scale = 1;
    int64_t attempted = 0;
    int64_t decided = 0;
    int64_t failed = 0;
    int64_t sessionsReused = 0;
    std::map<std::string, int64_t> counts;
    std::vector<JobOutcome> jobs;
    /** Span totals (ms) and layer counts of a traced pass. */
    std::map<std::string, double> layers;
};

JobOutcome
verify(const Job &job, SpanLog &log, Pass &pass)
{
    JobOutcome out;
    out.checks.resize(job.checks.size());
    double start = nowS();
    try {
        std::optional<core::Verifier> verifier;
        verifier.emplace(*job.program, *job.model, job.options);
        for (size_t i = 0; i < job.checks.size(); ++i) {
            core::VerificationResult r;
            {
                Scope span(log, "core.check");
                r = verifier->check(job.checks[i].property);
            }
            CheckOutcome &c = out.checks[i];
            c.decided = !r.unknown;
            c.holds = r.holds;
            c.timeMs = r.timeMs;
            c.clauses = r.stats.get("smtClauses");
            pass.counts["encoder.clauses"] += c.clauses;
            pass.sessionsReused += r.stats.get("sessionsReused");
            if (c.decided) {
                pass.counts["smt.conflicts"] +=
                    r.stats.get("solver.conflicts");
                pass.counts["smt.propagations"] +=
                    r.stats.get("solver.propagations");
            }
        }
        Scope span(log, "core.teardown");
        verifier.reset();
    } catch (const std::exception &error) {
        out.error = error.what();
    }
    out.queryMs = (nowS() - start) * 1000;
    return out;
}

/**
 * Score @p out against the known answers: wrong verdicts and errors
 * fail, UNKNOWN only counts as undecided.
 */
void
score(const Job &job, const JobOutcome &out, Pass &pass,
      std::vector<std::string> &problems)
{
    for (size_t i = 0; i < job.checks.size(); ++i) {
        const Check &check = job.checks[i];
        const CheckOutcome &c = out.checks[i];
        pass.attempted++;
        std::string what = (job.file.empty() ? job.program->name
                                             : job.file) +
                           " [" + job.modelName + "] " +
                           propertyName(check.property);
        if (!out.error.empty()) {
            pass.failed++;
            problems.push_back(what + ": error: " + out.error);
        } else if (c.decided) {
            pass.decided++;
            if (c.holds != check.expectedHolds) {
                pass.failed++;
                problems.push_back(what + ": wrong verdict");
            }
        }
    }
}

/**
 * The DPOR engine on the same checks, one `DporChecker::run` per
 * safety or cat_spec check; it does not answer liveness.
 */
void
dporPass(const std::vector<Job> &jobs, SpanLog &log, Pass &pass,
         std::vector<std::string> &problems)
{
    for (size_t j = 0; j < jobs.size(); ++j) {
        const Job &job = jobs[j];
        double start = nowS();
        for (const Check &check : job.checks) {
            pass.attempted++;
            if (check.property == Property::Liveness)
                continue;
            dpor::DporResult r;
            {
                Scope span(log, "dpor.run");
                dpor::DporChecker checker(*job.program, *job.model);
                r = checker.run();
            }
            pass.counts["dpor.candidates"] += r.candidatesExplored;
            pass.counts["dpor.unsupported"] += r.supported ? 0 : 1;
            if (!r.supported || r.timedOut)
                continue;
            pass.decided++;
            bool holds = check.property == Property::Safety
                             ? r.conditionHolds
                             : !r.raceFound;
            if (holds != check.expectedHolds) {
                pass.failed++;
                problems.push_back(job.file + " [" + job.modelName +
                                   "] dpor: wrong verdict");
            }
        }
        pass.jobs[j].dporMs = (nowS() - start) * 1000;
    }
}

// --- layer replay ---------------------------------------------------------

/**
 * Rebuild one job's session from the pipeline's public calls, in the
 * order `core::Verifier` makes them, and answer its safety and cat_spec
 * checks. Returns one outcome per check; `clauses` stays -1 for checks
 * not replayed (liveness: its encoding lives inside the Verifier).
 */
std::vector<CheckOutcome>
replay(const Job &job, SpanLog &log, std::map<std::string, double> &layers)
{
    const prog::Program &program = *job.program;
    const core::VerifierOptions &opt = job.options;
    std::vector<CheckOutcome> out(job.checks.size());
    for (CheckOutcome &c : out)
        c.clauses = -1;

    std::optional<prog::UnrolledProgram> up;
    {
        Scope span(log, "program.unroll");
        up.emplace(prog::unroll(program, opt.bound));
    }
    std::optional<analysis::ExecAnalysis> exec;
    {
        Scope span(log, "analysis.exec");
        exec.emplace(*up);
    }
    std::optional<analysis::RelationAnalysis> ra;
    {
        Scope span(log, "analysis.relation");
        ra.emplace(*exec, *job.model);
    }
    std::unique_ptr<smt::Backend> backend;
    std::optional<smt::Circuit> circuit;
    std::optional<encoder::ProgramEncoder> pe;
    {
        Scope span(log, "encoder.structure");
        backend = smt::makeBackend(opt.backend,
                                   smt::BackendConfig{opt.cubeDepth});
        circuit.emplace(*backend);
        pe.emplace(*ra, *circuit,
                   encoder::EncoderOptions{
                       opt.valueBits > 0
                           ? opt.valueBits
                           : program.suggestedValueBits(opt.bound),
                       /*coTotal=*/program.arch != prog::Arch::Ptx,
                       opt.useLowerBounds, opt.forceClosureSoundness});
        pe->encodeStructure();
    }
    std::optional<encoder::RelationEncoder> re;
    {
        Scope span(log, "encoder.axioms");
        re.emplace(*ra, *pe);
        re->assertAxioms();
    }

    auto forbidSpinKills = [&](smt::Lit act) {
        for (int node : up->killNodes) {
            if (up->nodes[node].spinKill)
                backend->addClause({-act, circuit->mkNot(pe->guardOf(node))});
        }
    };
    std::map<Property, smt::Lit> active;
    bool common = false;
    for (size_t i = 0; i < job.checks.size(); ++i) {
        Property property = job.checks[i].property;
        if (property == Property::Liveness)
            break;
        CheckOutcome &c = out[i];
        Deadline deadline = Deadline::in(opt.solverTimeoutMs);
        bool trivial = false;
        {
            Scope span(log, "encoder.property");
            if (!common) {
                common = true;
                for (int node : up->killNodes) {
                    if (!up->nodes[node].spinKill)
                        circuit->assertLit(
                            circuit->mkNot(pe->guardOf(node)));
                }
                if (program.filter)
                    circuit->assertLit(pe->condLit(*program.filter));
            }
            if (property == Property::Safety) {
                smt::Lit act = backend->mkActivationLit();
                forbidSpinKills(act);
                smt::Lit cond = program.assertion
                                    ? pe->condLit(*program.assertion)
                                    : circuit->trueLit();
                if (program.assertKind == prog::AssertKind::Forall)
                    cond = circuit->mkNot(cond);
                backend->addClause({-act, cond});
                active[property] = act;
            } else {
                std::vector<encoder::FlagViolation> flags =
                    re->encodeFlags();
                trivial = flags.empty();
                if (!trivial) {
                    smt::Lit act = backend->mkActivationLit();
                    forbidSpinKills(act);
                    std::vector<smt::Lit> any;
                    for (const encoder::FlagViolation &f : flags)
                        any.push_back(f.lit);
                    backend->addClause({-act, circuit->mkOr(any)});
                    active[property] = act;
                }
            }
        }
        c.clauses = backend->numClauses();
        if (trivial) {
            c.decided = c.holds = true;
            continue;
        }
        smt::SolveResult r;
        {
            Scope span(log, "smt.solve");
            std::vector<smt::Lit> assumptions;
            for (const auto &[p, act] : active)
                assumptions.push_back(p == property ? act : -act);
            r = smt::armTimeLimit(*backend, deadline)
                    ? backend->solve(assumptions)
                    : smt::SolveResult::Unknown;
        }
        c.decided = r != smt::SolveResult::Unknown;
        bool sat = r == smt::SolveResult::Sat;
        c.holds = property == Property::Safety &&
                          program.assertKind == prog::AssertKind::Exists
                      ? sat
                      : !sat;
    }

    layers["program.events"] += up->numEvents();
    layers["encoder.vars"] += backend->numVars();
    layers["encoder.clauses"] += backend->numClauses();
    std::map<std::string, int64_t> solver = backend->statistics();
    for (const char *key : {"conflicts", "decisions", "propagations"})
        layers[std::string("smt.") + key] += solver[key];
    return out;
}

// --- the run --------------------------------------------------------------

/**
 * Run @p pass at least once, and again while one more pass of the
 * last pass's length still ends within @p budgetS.
 */
void
repeatFor(double budgetS, const std::function<void()> &pass)
{
    double start = nowS();
    for (;;) {
        double before = nowS();
        pass();
        double last = nowS() - before;
        if (nowS() - start + last > budgetS)
            return;
    }
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0;
}

/** Percentile reported as query_ms_tail: 136 sessions leave 14 above. */
constexpr double kTailPercentile = 90;

} // namespace

Report
runCorpus(const Args &args)
{
    Report report;
    SpanLog log(args.trace);
    SpanLog off(false);

    Inputs in;
    std::vector<double> setupS;
    std::vector<std::map<std::string, double>> setupLayers;
    pinToCore(coreFor(0));
    double setupGhz = clockGhz();
    double setupStart = nowS();
    for (int rep = 0; moreSetup(rep, nowS() - setupStart); ++rep) {
        size_t mark = log.size();
        double start = nowS();
        in = loadCorpus(args, log);
        setupS.push_back(nowS() - start);
        setupLayers.push_back(log.totalsMs(mark));
    }
    setupGhz = (setupGhz + clockGhz()) / 2;
    // The sessions run in a fixed order, whatever the seed: shuffling
    // them by seed moved median session times by up to a quarter
    // between seeds, as each session meets the memory its predecessor
    // left behind.

    std::vector<Pass> plain, traced;
    auto runPass = [&](SpanLog &spans) {
        pinToCore(coreFor(plain.size() + traced.size()));
        Pass pass;
        size_t mark = spans.size();
        double ghz = clockGhz();
        double start = nowS();
        for (const Job &job : in.jobs)
            pass.jobs.push_back(verify(job, spans, pass));
        for (size_t j = 0; j < in.jobs.size(); ++j)
            score(in.jobs[j], pass.jobs[j], pass, report.problems);
        dporPass(in.jobs, spans, pass, report.problems);
        pass.wallS = nowS() - start;
        pass.scale = (ghz + clockGhz()) / 2 / kRefGhz;
        if (spans.on()) {
            for (size_t j = 0; j < in.jobs.size(); ++j) {
                std::vector<CheckOutcome> layered =
                    replay(in.jobs[j], spans, pass.layers);
                for (size_t i = 0; i < layered.size(); ++i) {
                    const CheckOutcome &a = pass.jobs[j].checks[i];
                    const CheckOutcome &b = layered[i];
                    if (b.clauses < 0)
                        continue;
                    pass.layers["replay.checked"]++;
                    if (a.clauses != b.clauses ||
                        (a.decided && b.decided && a.holds != b.holds)) {
                        report.problems.push_back(
                            "layer replay differs from core::Verifier on " +
                            in.jobs[j].program->name + " [" +
                            in.jobs[j].modelName + "]");
                    }
                }
            }
            for (const auto &[name, ms] : spans.totalsMs(mark))
                pass.layers[name + "_ms"] = ms;
        }
        (spans.on() ? traced : plain).push_back(std::move(pass));
    };
    if (args.trace) {
        // Untraced passes first, for the tracing overhead.
        repeatFor(args.seconds / 2, [&] { runPass(off); });
        repeatFor(args.seconds / 2, [&] { runPass(log); });
    } else {
        repeatFor(args.seconds, [&] { runPass(off); });
    }

    std::vector<const Pass *> all;
    for (const Pass &p : plain)
        all.push_back(&p);
    for (const Pass &p : traced)
        all.push_back(&p);
    int64_t decided = 0;
    for (const Pass *p : all) {
        report.attempted += p->attempted;
        report.failed += p->failed;
        decided += p->decided;
        if (p->counts != all.front()->counts)
            report.problems.push_back(
                "work counts differ between passes of one run");
    }
    report.notes.push_back(std::to_string(plain.size()) +
                           " untraced and " +
                           std::to_string(traced.size()) +
                           " traced passes of " +
                           std::to_string(in.jobs.size()) + " sessions");
    if (all.size() > 1)
        report.notes.push_back("work counts repeat exactly over " +
                               std::to_string(all.size()) + " passes");

    auto med = [](const std::vector<const Pass *> &passes,
                  const std::function<double(const Pass &)> &get) {
        std::vector<double> values;
        for (const Pass *p : passes)
            values.push_back(get(*p));
        return median(values);
    };

    if (!args.trace) {
        // On a shared host the same work took up to twice as long in
        // some stretches as in others. Times are scaled to the
        // reference clock, pass by pass, and as the rest of the noise
        // only ever adds time, each session counts at its fastest over
        // the run's passes; the pass figures are sums of those.
        auto fastest = [&](const std::function<double(const Pass &)> &get) {
            double best = get(*all.front()) * all.front()->scale;
            for (const Pass *p : all)
                best = std::min(best, get(*p) * p->scale);
            return best;
        };
        std::vector<double> queryMs;
        double wallS = 0, unsatS = 0, satS = 0;
        for (size_t j = 0; j < in.jobs.size(); ++j) {
            queryMs.push_back(
                fastest([&](const Pass &p) { return p.jobs[j].queryMs; }));
            wallS += (queryMs.back() + fastest([&](const Pass &p) {
                          return p.jobs[j].dporMs;
                      })) / 1000;
            for (size_t i = 0; i < in.jobs[j].checks.size(); ++i) {
                (in.jobs[j].checks[i].proof ? unsatS : satS) +=
                    fastest([&](const Pass &p) {
                        return p.jobs[j].checks[i].timeMs;
                    }) / 1000;
            }
        }
        report.set("setup_s", "s", median(setupS) * setupGhz / kRefGhz);
        report.set("wall_s", "s", wallS);
        report.set("query_ms_p50", "ms", percentile(queryMs, 50));
        report.set("query_ms_tail", "ms",
                   percentile(queryMs, kTailPercentile));
        report.set("query_samples", "count",
                   static_cast<double>(queryMs.size()));
        report.set("query_tail_percentile", "%", kTailPercentile);
        report.set("pass_wall_s_median", "s",
                   med(all, [](const Pass &p) { return p.wallS; }));
        report.set("clock_ghz", "GHz",
                   med(all, [](const Pass &p) { return p.scale * kRefGhz; }));
        report.set("unsat_s", "s", unsatS);
        report.set("sat_s", "s", satS);
        report.set("decided_share", "ratio",
                   static_cast<double>(decided) / report.attempted);
        report.set("wrong_verdicts", "count",
                   static_cast<double>(report.failed));
        report.set("peak_rss_mb", "MB", peakRssMb());
        return report;
    }

    std::vector<const Pass *> tracedPasses;
    for (const Pass &p : traced)
        tracedPasses.push_back(&p);
    std::vector<const Pass *> plainPasses;
    for (const Pass &p : plain)
        plainPasses.push_back(&p);
    auto setupMs = [&](const std::string &span) {
        std::vector<double> values;
        for (const auto &layers : setupLayers) {
            auto it = layers.find(span);
            values.push_back(it == layers.end() ? 0 : it->second);
        }
        return median(values);
    };
    auto layer = [&](const std::string &key) {
        return med(tracedPasses, [&](const Pass &p) {
            auto it = p.layers.find(key);
            return it == p.layers.end() ? 0.0 : it->second;
        });
    };
    report.set("litmus.parse_ms", "ms", setupMs("litmus.parse"));
    report.set("cat.load_ms", "ms", setupMs("cat.load"));
    report.set("program.unroll_ms", "ms", layer("program.unroll_ms"));
    report.set("program.events", "count", layer("program.events"));
    report.set("analysis.exec_ms", "ms", layer("analysis.exec_ms"));
    report.set("analysis.relation_ms", "ms",
               layer("analysis.relation_ms"));
    report.set("encoder.structure_ms", "ms",
               layer("encoder.structure_ms"));
    report.set("encoder.axioms_ms", "ms", layer("encoder.axioms_ms"));
    report.set("encoder.property_ms", "ms", layer("encoder.property_ms"));
    report.set("encoder.clauses", "count", layer("encoder.clauses"));
    report.set("encoder.vars", "count", layer("encoder.vars"));
    report.set("encoder.clauses_per_event", "count",
               layer("encoder.clauses") / layer("program.events"));
    report.set("smt.solve_ms", "ms", layer("smt.solve_ms"));
    report.set("smt.conflicts", "count", layer("smt.conflicts"));
    report.set("smt.decisions", "count", layer("smt.decisions"));
    report.set("smt.propagations", "count", layer("smt.propagations"));
    report.set("smt.mprops_per_s", "1/us",
               layer("smt.propagations") / layer("smt.solve_ms") / 1000);
    report.set("core.check_ms", "ms", layer("core.check_ms"));
    report.set("core.teardown_ms", "ms", layer("core.teardown_ms"));
    report.set("core.sessions_reused", "count",
               static_cast<double>(traced.front().sessionsReused));
    report.set("dpor.run_ms", "ms", layer("dpor.run_ms"));
    report.set("dpor.candidates", "count",
               static_cast<double>(
                   traced.front().counts.at("dpor.candidates")));
    report.set("dpor.unsupported", "count",
               static_cast<double>(
                   traced.front().counts.at("dpor.unsupported")));
    double plainS = med(plainPasses, [](const Pass &p) { return p.wallS; });
    double tracedS =
        med(tracedPasses, [](const Pass &p) { return p.wallS; });
    report.set("trace.overhead_pct", "%", (tracedS / plainS - 1) * 100);
    report.notes.push_back(
        "layer replay: " +
        std::to_string(static_cast<int64_t>(
            traced.front().layers.at("replay.checked"))) +
        " safety/cat_spec checks per pass, verdicts and clause counts "
        "compared with core::Verifier");

    if (!args.outDir.empty()) {
        std::filesystem::create_directories(args.outDir);
        std::string path = args.outDir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
        if (!log.write(path))
            report.problems.push_back("cannot write " + path);
    }
    return report;
}

Inputs
loadCorpus(const Args &args, SpanLog &log)
{
    Inputs in;
    struct Model {
        const cat::CatModel *model;
        std::string name, tag;
    };
    std::vector<Model> ptx = {
        {&loadModel(args, in, "ptx-v6.0", log), "ptx-v6.0", "v60"},
        {&loadModel(args, in, "ptx-v7.5", log), "ptx-v7.5", "v75"}};
    std::vector<Model> vulkan = {
        {&loadModel(args, in, "vulkan", log), "vulkan", "vulkan"}};

    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::recursive_directory_iterator(
             args.root + "/litmus")) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".litmus")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    for (const std::string &file : files) {
        const prog::Program &p = parseFile(in, file, log);
        int bound = 2;
        auto meta = p.meta.find("bound");
        if (meta != p.meta.end())
            bound = std::stoi(meta->second);
        for (const Model &m : p.arch == prog::Arch::Ptx ? ptx : vulkan) {
            Job job;
            job.program = &p;
            job.model = m.model;
            job.options = baseOptions(bound);
            job.checks = expectedChecks(p, *m.model, m.tag);
            job.file = file.substr(args.root.size() + 1);
            job.modelName = m.name;
            if (!job.checks.empty())
                in.jobs.push_back(std::move(job));
        }
    }
    return in;
}

} // namespace perfbench
