#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/json.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

Tail tail_percentile(const std::vector<double>& values) {
  Tail tail;
  const std::size_t n = values.size();
  for (int q = 99; q >= 1; --q) {
    // Nearest rank ceil(q n / 100) leaves n - rank samples above it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(q) * static_cast<double>(n) / 100.0));
    if (rank >= 1 && n - rank >= 10) {
      tail.value = percentile(values, q);
      tail.percentile = q;
      tail.beyond = n - rank;
      return tail;
    }
  }
  tail.value = values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
  return tail;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<std::size_t>(online) : 1;
}

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double self_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // The command name may hold spaces and parentheses; fields resume after
  // the last ')'.  utime and stime are fields 14 and 15 (1-based).
  const std::size_t close = stat.rfind(')');
  FEDHISYN_CHECK_MSG(close != std::string::npos, "unreadable /proc/" << pid << "/stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

void MetricSet::add(std::string name, double value, std::string unit,
                    std::size_t samples, std::string note) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) +
           ", \"note\": " + json_string(m.note) + "}";
  }
  return out + "}";
}

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log), index_(static_cast<int>(log.spans_.size())) {
  log_.spans_.push_back({std::move(name), now_s(), 0.0, log_.open_});
  log_.open_ = index_;
}

SpanLog::Scope::~Scope() {
  Span& span = log_.spans_[static_cast<std::size_t>(index_)];
  span.end_s = now_s();
  log_.open_ = span.parent;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_s - span.start_s);
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  FEDHISYN_CHECK_MSG(out.good(), "cannot write span log " << path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const Span& span : spans_) {
    out << "{\"name\": " << json_string(span.name)
        << ", \"start_s\": " << json_number(span.start_s - origin)
        << ", \"dur_s\": " << json_number(span.end_s - span.start_s)
        << ", \"parent\": " << span.parent << "}\n";
  }
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  out += fedhisyn::json::escape(text);
  out += '"';
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
