#include "sweep.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>

#include <unistd.h>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/net.hpp"
#include "common/parallel.hpp"
#include "drive.hpp"
#include "exp/driver.hpp"
#include "exp/sinks.hpp"
#include "tensor/gemm_tune.hpp"

namespace perfbench {

namespace fh = fedhisyn;

int bringup_main() {
  auto& pool = fh::ParallelExecutor::global();
  pool.set_thread_count(nproc());
  // One empty batch: every pool thread has started and parked again.
  pool.parallel_for(pool.thread_count(), [](std::size_t, std::size_t) {});
  std::printf("ready %s\n", fh::gemm_runtime_info().variant.c_str());
  std::fflush(stdout);
  return 0;
}

namespace {

std::string read_line_or_fail(int fd, const char* what) {
  fh::net::LineReader reader(fd);
  std::string line;
  FEDHISYN_CHECK_MSG(reader.read_line(&line, fh::net::Deadline::after(30.0)) ==
                         fh::net::LineReader::Status::kLine,
                     what << " printed nothing within 30 s");
  return line;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Write "label<TAB>seconds" per cell, in spec order.
void write_cell_seconds(const Sweep& sweep, const std::string& path) {
  std::ofstream out(path);
  for (const auto& cell : sweep.cells) {
    out << cell.spec.label() << '\t' << json_number(cell.seconds) << '\n';
  }
}

/// Seconds from spawning this binary in `--bringup` mode to its "ready" line
/// (the child is reaped afterwards, untimed).
double bringup_seconds() {
  const double start = now_s();
  fh::Subprocess child({fh::current_executable_path(), "--bringup"}, {});
  const std::string line = read_line_or_fail(child.stdout_fd(), "--bringup child");
  const double seconds = now_s() - start;
  FEDHISYN_CHECK_MSG(line.rfind("ready", 0) == 0, "unexpected bring-up line: " << line);
  const fh::ExitStatus status = child.wait();
  FEDHISYN_CHECK_MSG(status.clean(), "--bringup child " << fh::describe(status));
  return seconds;
}

}  // namespace

WorkerFleet::WorkerFleet() {
  const std::vector<std::string> env = {"FEDHISYN_THREADS=" +
                                        std::to_string(kTcpWorkerThreads)};
  for (std::size_t i = 0; i < kTcpWorkers; ++i) {
    workers_.push_back(std::make_unique<fh::Subprocess>(
        std::vector<std::string>{fh::current_executable_path(), "--serve", "127.0.0.1:0"},
        env));
  }
  const std::string prefix = "fedhisyn-serve: listening on ";
  for (const auto& worker : workers_) {
    const std::string line = read_line_or_fail(worker->stdout_fd(), "--serve worker");
    FEDHISYN_CHECK_MSG(line.rfind(prefix, 0) == 0, "unexpected announce line: " << line);
    const std::string endpoint = line.substr(prefix.size());
    // The hello handshake a coordinator waits for before its first cell.
    const fh::net::HostPort address = fh::net::parse_host_port(endpoint, "127.0.0.1");
    const int fd =
        fh::net::tcp_connect(address.host, address.port, fh::net::Deadline::after(30.0));
    FEDHISYN_CHECK_MSG(fd >= 0, "cannot connect to --serve worker at " << endpoint);
    const std::string hello = read_line_or_fail(fd, "--serve worker hello");
    ::close(fd);
    FEDHISYN_CHECK_MSG(hello.find("\"hello\":\"fedhisyn-worker\"") != std::string::npos,
                       "unexpected hello line: " << hello);
    hosts_ += (hosts_.empty() ? "" : ",") + endpoint;
  }
}

double WorkerFleet::cpu_s() const {
  double total = 0.0;
  for (const auto& worker : workers_) total += proc_cpu_s(worker->pid());
  return total;
}

std::uint64_t Sweep::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

Sweep run_sweep(const Workload& w, const std::string& out_path, const WorkerFleet* fleet) {
  fh::exp::GridDriverOptions options;
  options.out = out_path;
  options.quiet = true;
  options.dispatch = fh::exp::CellBackend::kThread;
  if (w.backend == Backend::kTcp) {
    FEDHISYN_CHECK_MSG(fleet != nullptr, w.name << " needs tcp workers");
    options.dispatch = fh::exp::CellBackend::kTcp;
    options.workers = fleet->hosts();
  }
  const auto worker_cpu = [&] { return w.backend == Backend::kTcp ? fleet->cpu_s() : 0.0; };

  Sweep sweep;
  const auto before = fh::counters::snapshot();
  const double self_start = self_cpu_s();
  const double worker_start = worker_cpu();
  const double start = now_s();
  try {
    sweep.cells = fh::exp::run_grid(w.specs, options);
  } catch (const std::exception& error) {
    sweep.error = error.what();
  }
  sweep.wall_s = now_s() - start;
  sweep.worker_cpu_s = worker_cpu() - worker_start;
  sweep.cpu_s = self_cpu_s() - self_start + sweep.worker_cpu_s;
  for (auto& [name, value] : fh::counters::delta(before, fh::counters::snapshot())) {
    sweep.counters[name] = value;
  }
  sweep.bytes = read_file(out_path);
  return sweep;
}

std::vector<std::string> split_lines(const std::string& bytes) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < bytes.size()) {
    std::size_t end = bytes.find('\n', begin);
    if (end == std::string::npos) end = bytes.size();
    lines.push_back(bytes.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

std::vector<std::string> check_sweep(const Workload& w, const Sweep& sweep) {
  if (!sweep.error.empty()) return {"run_grid failed: " + sweep.error};
  std::vector<std::string> problems;
  if (sweep.cells.size() != w.specs.size()) {
    problems.push_back("run_grid returned " + std::to_string(sweep.cells.size()) +
                       " cells for " + std::to_string(w.specs.size()) + " specs");
    return problems;
  }
  std::string expected;
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    if (sweep.cells[i].spec.to_key() != w.specs[i].to_key()) {
      problems.push_back("cell " + std::to_string(i) + " came back with another spec");
    }
    expected += fh::exp::to_jsonl_line(sweep.cells[i]) + "\n";
  }
  if (sweep.bytes != expected) {
    problems.push_back("--out file is not the returned cells' lines in spec order");
  }
  return problems;
}

namespace {

/// Setup samples per run, after one discarded warm-up; the run reports
/// their median.
constexpr int kSetupSamples = 21;

/// One bring-up, plus one fleet start for tcp, in seconds.
double setup_sample(Backend backend) {
  double seconds = bringup_seconds();
  if (backend == Backend::kTcp) {
    const double start = now_s();
    const WorkerFleet fleet;
    seconds += now_s() - start;
  }
  return seconds;
}

}  // namespace

PassResult measure_end_to_end(const Workload& w, double seconds, const std::string& dir) {
  PassResult pass;
  setup_sample(w.backend);  // warm-up: the binary's pages into the page cache
  std::vector<double> setup;
  for (int i = 0; i < kSetupSamples; ++i) setup.push_back(setup_sample(w.backend));

  pass.out_path = dir + "/" + w.name + ".jsonl";
  std::string first_bytes;
  std::vector<double> rates;
  std::vector<double> cpu_per_cell;
  std::vector<double> cell_seconds;
  std::vector<double> tails;
  Tail tail;
  double wall_total = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  const double begin = now_s();
  do {
    const bool first = rates.empty();
    std::unique_ptr<WorkerFleet> fleet;
    if (w.backend == Backend::kTcp) fleet = std::make_unique<WorkerFleet>();
    const Sweep sweep =
        run_sweep(w, first ? pass.out_path : dir + "/" + w.name + ".again.jsonl", fleet.get());
    fleet.reset();

    for (const std::string& problem : check_sweep(w, sweep)) pass.errors.push_back(problem);
    if (first) {
      first_bytes = sweep.bytes;
      write_cell_seconds(sweep, dir + "/" + w.name + ".cells.tsv");
    } else if (sweep.bytes != first_bytes) {
      pass.errors.push_back("sweep " + std::to_string(rates.size()) +
                            " wrote other bytes than the first sweep");
    }
    const auto cells = static_cast<double>(w.specs.size());
    rates.push_back(cells / sweep.wall_s);
    cpu_per_cell.push_back(sweep.cpu_s / cells);
    std::vector<double> sweep_seconds;
    for (const auto& cell : sweep.cells) sweep_seconds.push_back(cell.seconds);
    cell_seconds.insert(cell_seconds.end(), sweep_seconds.begin(), sweep_seconds.end());
    // Per sweep, so the percentile does not depend on how many sweeps fit.
    tail = tail_percentile(sweep_seconds);
    tails.push_back(tail.value);
    wall_total += sweep.wall_s;
    retries += sweep.counter("dispatch.retries");
    timeouts += sweep.counter("dispatch.timeouts");
    pass.attempted += w.specs.size();
  } while (now_s() - begin + wall_total / static_cast<double>(rates.size()) <= seconds);

  // Oracle: the same cells driven by hand must reproduce the sweep's lines.
  const std::vector<std::string> lines = split_lines(first_bytes);
  for (const std::size_t i : w.reference_cells) {
    const auto built = fh::exp::build_for(w.specs[i]);
    const std::string line = fh::exp::to_jsonl_line(drive_cell(w.specs[i], *built));
    if (i >= lines.size() || lines[i] != line) {
      pass.errors.push_back("hand-driven cell " + std::to_string(i) + " (" +
                            w.specs[i].label() + ") differs from the sweep's line");
    }
  }

  pass.failed = pass.errors.empty()
                    ? std::min<std::size_t>(pass.attempted, retries + timeouts)
                    : pass.attempted;
  char note[128];
  std::snprintf(note, sizeof(note), "median over sweeps of p%d, %zu cells beyond it%s",
                tail.percentile, tail.beyond,
                tail.beyond == 0 ? " (fewer than 11 cells: the maximum)" : "");
  MetricSet& m = pass.metrics;
  m.add("cells_per_s", median(rates), "cells/s", rates.size(), "median over sweeps");
  m.add("cell_s_p50", median(cell_seconds), "s", cell_seconds.size());
  m.add("cell_s_tail", median(tails), "s", cell_seconds.size(), note);
  m.add("setup_s", median(setup), "s", setup.size(), "median over bring-ups");
  m.add("peak_rss_mb", peak_rss_mib(), "MiB", 1, "self and reaped children");
  m.add("cpu_s_per_cell", median(cpu_per_cell), "s", cpu_per_cell.size(),
        "median over sweeps");
  const double fail_ratio =
      static_cast<double>(pass.failed) / static_cast<double>(pass.attempted);
  m.add("cell_fail_ratio", fail_ratio, "ratio", pass.attempted,
        "(failed + retried + timed out) / attempted");
  m.add("cell_ok_ratio", 1.0 - fail_ratio, "ratio", pass.attempted, "1 - cell_fail_ratio");
  return pass;
}

}  // namespace perfbench
