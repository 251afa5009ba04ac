// bench_e2e: one workload of the end-to-end benchmark per process.
//
//   bench_e2e --workload <name> --work-dir <dir> [--seed N] [--seconds S]
//             [--quick] [--layers] [--spans <file>]
//             [--parallel-probe [--rss-probe]]
//
// Workloads: pipeline-cold, pipeline-warm, service-warm, service-mixed
// (README.md says what each runs and why). The last stdout line is one
// JSON object with the run's metrics, operation counts and output digest;
// the exit code is 0 only when every operation and output check passed.
// run.py builds this binary, sets the environment (TOPOGEN_THREADS,
// TOPOGEN_CACHE_DIR under the work dir) and runs it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "e2e.h"

namespace {

using namespace topogen::e2e;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload pipeline-cold|pipeline-warm|"
               "service-warm|service-mixed --work-dir DIR [--seed N] "
               "[--seconds S] [--quick] [--layers] [--spans FILE] "
               "[--parallel-probe [--rss-probe]]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--layers") {
      options.layers = true;
    } else if (arg == "--parallel-probe") {
      options.parallel_probe = true;
    } else if (arg == "--rss-probe") {
      options.rss_probe = true;
    } else {
      return Usage(argv[0]);
    }
  }
  const std::string& w = options.workload;
  const bool pipeline = w == "pipeline-cold" || w == "pipeline-warm";
  if ((!pipeline && w != "service-warm" && w != "service-mixed") ||
      options.work_dir.empty() || !(options.seconds > 0.0)) {
    return Usage(argv[0]);
  }
  if (options.layers) SpanLog::Get().Enable();

  Report report;
  try {
    const WorkloadInputs inputs =
        pipeline ? PipelineInputs(options) : ServiceInputs(options);
    if (options.parallel_probe) {
      RunParallelProbe(inputs, options, report);
    } else {
      if (w == "pipeline-cold") RunPipelineCold(options, report);
      if (w == "pipeline-warm") RunPipelineWarm(options, report);
      if (w == "service-warm") RunServiceWarm(options, report);
      if (w == "service-mixed") RunServiceMixed(options, report);
      // The probes run after the timed phase so they cannot warm it.
      if (options.layers) {
        RunLayerProbes(inputs, options, report);
        if (pipeline) RunServiceReplay(inputs, options, report);
      }
    }
  } catch (const std::exception& e) {
    report.Error(e.what());
  }
  if (!options.spans_path.empty() &&
      !SpanLog::Get().Write(options.spans_path)) {
    report.Error("cannot write " + options.spans_path);
  }
  report.Print(options);
  return report.correct() ? 0 : 1;
}
