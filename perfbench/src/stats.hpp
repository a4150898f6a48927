// Measurement helpers shared by the sweep and layer passes: a monotonic
// clock, order statistics, CPU and memory accounting, the named-metric
// record the benchmark prints, and the benchmark-side span log.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// Monotonic seconds (std::chrono::steady_clock).
double now_s();

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 100]; 0 when empty.
double percentile(std::vector<double> values, double q);

/// The highest whole percentile of `values` with at least ten samples
/// beyond it.  With ten or fewer samples no percentile qualifies and the
/// maximum is reported instead (percentile = 100, beyond = 0).
struct Tail {
  double value = 0.0;
  int percentile = 100;
  std::size_t beyond = 0;
};
Tail tail_percentile(const std::vector<double>& values);

/// Cores this process may run on (what `nproc` reports: the affinity mask).
std::size_t nproc();

/// user + system CPU seconds of this process (all threads).
double self_cpu_s();

/// user + system CPU seconds of a live child, from /proc/<pid>/stat.
double proc_cpu_s(pid_t pid);

/// max(ru_maxrss of this process, ru_maxrss of its reaped children) in MiB.
double peak_rss_mib();

/// One reported number: value, unit and how many samples it summarises.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  /// Free-form qualifier printed beside the value (e.g. which percentile).
  std::string note;
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit, std::size_t samples,
           std::string note = {});
  const std::vector<Metric>& all() const { return metrics_; }
  /// {"name": {"value": v, "unit": u, "samples": n, "note": s}, ...}
  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Spans the benchmark records around its own calls into the library: name,
/// start, end and the enclosing span.  Kept in memory and written out once
/// at the end of the run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  /// RAII: opens a span on construction, closes it on destruction; spans
  /// opened while it is live record it as their parent.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in seconds of every span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Write the spans as JSON lines {"name","start_s","dur_s","parent"}.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// `text` as a quoted JSON string literal.
std::string json_string(const std::string& text);

/// A number as JSON with all its digits ("%.17g"; non-finite -> 0).
std::string json_number(double value);

}  // namespace perfbench
