/**
 * @file
 * The benchmark's inputs: verifier sessions ("jobs"), each with the
 * checks asked of it and their known answers.
 */

#ifndef PERFBENCH_INPUTS_HPP
#define PERFBENCH_INPUTS_HPP

#include <deque>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cat/model.hpp"
#include "core/verifier.hpp"
#include "program/program.hpp"

namespace perfbench {

/** One verdict to reach, with its known answer. */
struct Check {
    gpumc::core::Property property = gpumc::core::Property::Safety;
    bool expectedHolds = false;
    /** The known answer needs an UNSAT proof (a correct or race-free
     *  row, or liveness=live); otherwise the query finds a witness. */
    bool proof = false;
};

/**
 * One `core::Verifier` session: a program, a model, the options, and
 * the checks asked of it in order. Liveness checks come last, so every
 * safety and cat_spec check can be replayed layer by layer.
 */
struct Job {
    const gpumc::prog::Program *program = nullptr;
    const gpumc::cat::CatModel *model = nullptr;
    gpumc::core::VerifierOptions options;
    std::vector<Check> checks;
    /** Source file (empty for generated programs) and model name. */
    std::string file;
    std::string modelName;
};

struct Inputs {
    std::deque<gpumc::prog::Program> programs;
    std::deque<gpumc::cat::CatModel> models;
    std::vector<Job> jobs;
};

/**
 * Every `@expect` check of the .litmus files under <root>/litmus, one
 * job per file x model as gpumc-corpus groups them. Times its calls to
 * `CatModel::fromFile` and `parseLitmusFile` as cat.load and
 * litmus.parse spans.
 */
Inputs loadCorpus(const Args &args, SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HPP
