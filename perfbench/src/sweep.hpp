// The sweep pass: brings the program up, runs a workload's cells through
// exp::run_grid as a user's sweep would, checks the output, and derives the
// end-to-end metrics.  The traced pass (layers.hpp) reuses the same pieces.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/subprocess.hpp"
#include "exp/scheduler.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Child side of `--bringup`: start the pool on every core, resolve the GEMM
/// runtime selection, print "ready" and exit.
int bringup_main();

/// The tcp backend's workers: kTcpWorkers `--serve` instances of this
/// binary on loopback ephemeral ports, kTcpWorkerThreads pool threads each.
/// The constructor returns once every worker has announced its port and
/// answered one connection with its hello line; the destructor kills and
/// reaps them.
class WorkerFleet {
 public:
  WorkerFleet();
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// "host:port,host:port" for GridDriverOptions::workers.
  const std::string& hosts() const { return hosts_; }
  /// CPU seconds the live workers have used so far.
  double cpu_s() const;

 private:
  std::vector<std::unique_ptr<fedhisyn::Subprocess>> workers_;
  std::string hosts_;
};

/// One exp::run_grid call over a workload's cells.
struct Sweep {
  /// One per spec, in spec order; empty when run_grid threw.
  std::vector<fedhisyn::exp::CellResult> cells;
  /// Non-empty when run_grid threw.
  std::string error;
  /// The --out JSONL as run_grid left it.
  std::string bytes;
  /// First cell submitted to --out rewritten.
  double wall_s = 0.0;
  /// CPU of this process plus the live tcp workers over the same interval.
  double cpu_s = 0.0;
  /// The tcp workers' share of cpu_s (0 on the thread backend).
  double worker_cpu_s = 0.0;
  /// Counter-registry deltas (common/counters.hpp) over the sweep.
  std::map<std::string, std::uint64_t> counters;

  std::uint64_t counter(const std::string& name) const;
};

/// Run every cell of `w` through exp::run_grid with the program's default
/// scheduling, streaming results to `out_path`.  `fleet` is required for
/// tcp workloads and ignored otherwise.
Sweep run_sweep(const Workload& w, const std::string& out_path, const WorkerFleet* fleet);

/// Problems with a finished sweep: run_grid's error, a cell whose spec is
/// not the one submitted, or an --out file that is not the cells' JSONL
/// lines in spec order.
std::vector<std::string> check_sweep(const Workload& w, const Sweep& sweep);

/// The --out file's lines (without their newlines).
std::vector<std::string> split_lines(const std::string& bytes);

/// What a pass reports: its metrics and its correctness accounting.
struct PassResult {
  MetricSet metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  /// The JSONL of the pass's first untraced sweep (the hash-gated file).
  std::string out_path;
};

/// The untraced pass: setup samples, then whole sweeps (a fresh tcp fleet
/// each) while another sweep of the mean length still ends within
/// `seconds`, at least one; then reference cells driven by hand against
/// the first sweep's lines.  Writes its JSONL files into `dir`.
PassResult measure_end_to_end(const Workload& w, double seconds, const std::string& dir);

}  // namespace perfbench
