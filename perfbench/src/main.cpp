/**
 * @file
 * perfbench: time to verdict for gpumc, with every verdict checked
 * against an answer that does not come from gpumc.
 *
 *   perfbench --workload=corpus|serve --seed=N
 *             --seconds=S --trace=0|1 --root=DIR [--serve-bin=PATH]
 *             [--out-dir=DIR]
 *
 * Prints notes, then one JSON line with every metric the workload
 * measured. run.py builds this program and turns that line into the
 * benchmark's result; see README.md for the workloads and metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload=corpus|"
                 "serve --seed=N --seconds=S "
                 "--trace=0|1 --root=DIR [--serve-bin=PATH] "
                 "[--out-dir=DIR]\n",
                 why.c_str());
    std::exit(2);
}

bool
option(const std::string &arg, const char *name, std::string &value)
{
    std::string prefix = std::string("--") + name + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    std::string seed, seconds, trace;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i], value;
        if (option(arg, "workload", value))
            args.workload = value;
        else if (option(arg, "seed", value))
            seed = value;
        else if (option(arg, "seconds", value))
            seconds = value;
        else if (option(arg, "trace", value))
            trace = value;
        else if (option(arg, "root", value))
            args.root = value;
        else if (option(arg, "serve-bin", value))
            args.serveBin = value;
        else if (option(arg, "out-dir", value))
            args.outDir = value;
        else
            usage("unknown argument '" + arg + "'");
    }
    try {
        size_t used = 0;
        args.seed = std::stoull(seed, &used);
        if (used != seed.size())
            usage("bad --seed");
        args.seconds = std::stod(seconds, &used);
        if (used != seconds.size() || !(args.seconds > 0) ||
            args.seconds > 3600)
            usage("bad --seconds");
    } catch (const std::exception &) {
        usage("--seed and --seconds need numbers");
    }
    if (trace != "0" && trace != "1")
        usage("--trace must be 0 or 1");
    args.trace = trace == "1";
    if (args.root.empty())
        usage("--root is required");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    try {
        Report report;
        if (args.workload == "corpus")
            report = runCorpus(args);
        else if (args.workload == "serve")
            report = runServe(args);
        else
            usage("unknown workload '" + args.workload + "'");
        printReport(args, report);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
    return 0;
}
