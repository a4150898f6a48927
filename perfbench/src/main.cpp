// perfbench_sweep: the end-to-end sweep benchmark binary, normally started
// by perfbench/run.py (which builds it and gates its output):
//
//   perfbench_sweep --workload NAME --seed N --seconds S --traced 0|1
//                   --result-dir DIR
//
// prints the run's metrics, correctness accounting and provenance as one
// JSON object on the last line of stdout.  The same binary is its own tcp
// worker (--serve, reached through exp::handle_grid_flags, as every grid
// driver does) and its own bring-up probe (--bringup).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/flags.hpp"
#include "common/hostinfo.hpp"
#include "common/parallel.hpp"
#include "exp/driver.hpp"
#include "layers.hpp"
#include "sweep.hpp"
#include "tensor/gemm_tune.hpp"
#include "workloads.hpp"

namespace {

/// Knobs that change what a sweep does or how it is scheduled.  The
/// benchmark measures the program's defaults, so it refuses to run with any
/// of them set.
constexpr const char* kRefusedKnobs[] = {
    "FEDHISYN_GRID_JOBS",      "FEDHISYN_BUILD_CACHE_MB", "FEDHISYN_GEMM_KERNEL",
    "FEDHISYN_GEMM_TUNE",      "FEDHISYN_GEMM_TUNE_CACHE", "FEDHISYN_SPECULATE",
    "FEDHISYN_DISPATCH",       "FEDHISYN_TRACE",          "FEDHISYN_FULL",
    "FEDHISYN_CELL_TIMEOUT_S", "FEDHISYN_WORKER_RETRIES", "FEDHISYN_TEST_CRASH",
    "FEDHISYN_TEST_HANG"};

int usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench_sweep: %s\n"
               "usage: perfbench_sweep --workload NAME --seed N --seconds S "
               "--traced 0|1 --result-dir DIR\n",
               problem);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fh = fedhisyn;
  using namespace perfbench;
  const auto flags = fh::Flags::parse(argc - 1, argv + 1);
  // --serve and --worker-cell never return from here.
  fh::exp::handle_grid_flags(flags);

  for (const char* knob : kRefusedKnobs) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr,
                   "perfbench_sweep: %s is set; the benchmark measures the "
                   "program's defaults, unset it and run again\n",
                   knob);
      return 2;
    }
  }
  if (flags.has("bringup")) return bringup_main();

  const std::string name = flags.get("workload", "");
  const std::string dir = flags.get("result-dir", "");
  const double seconds = flags.get_double("seconds", 0.0);
  const long traced = flags.get_long("traced", -1);
  if (name.empty() || dir.empty() || !flags.has("seed")) {
    return usage("--workload, --seed and --result-dir are required");
  }
  if (seconds <= 0.0) return usage("--seconds must be positive");
  if (traced != 0 && traced != 1) return usage("--traced takes 0 or 1");

  // Workers and bring-up children inherit these: no progress or cache log
  // lines, and the pool sized from the cores this process may use.
  ::setenv("FEDHISYN_QUIET", "1", /*overwrite=*/1);
  fh::ParallelExecutor::global().set_thread_count(nproc());
  std::filesystem::create_directories(dir);

  try {
    const Workload w = make_workload(name, std::stoull(flags.get("seed", "")));
    const PassResult pass = traced == 1 ? measure_layers(w, dir)
                                        : measure_end_to_end(w, seconds, dir);
    std::string errors = "[";
    for (std::size_t i = 0; i < pass.errors.size(); ++i) {
      errors += (i > 0 ? ", " : "") + json_string(pass.errors[i]);
    }
    errors += "]";
    std::printf(
        "{\"workload\": %s, \"traced\": %ld, \"cells\": %zu, \"attempted\": %zu, "
        "\"failed\": %zu, \"errors\": %s, \"out_file\": %s, \"provenance\": {%s, "
        "\"nproc\": %zu, \"pool_threads\": %zu, \"build_type\": %s}, \"metrics\": %s}\n",
        json_string(w.name).c_str(), traced, w.specs.size(), pass.attempted, pass.failed,
        errors.c_str(), json_string(pass.out_path).c_str(),
        fh::host_json_field(fh::gemm_runtime_info().variant).c_str(), nproc(),
        fh::ParallelExecutor::global().thread_count(),
        json_string(PERFBENCH_BUILD_TYPE).c_str(), pass.metrics.to_json().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_sweep: %s\n", error.what());
    return 1;
  }
}
