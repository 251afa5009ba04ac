// The report, bench spans, statistics and process probes the workloads
// share (e2e.h).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "e2e.h"
#include "obs/json.h"
#include "parallel/pool.h"

namespace topogen::e2e {

void Report::Add(std::string name, double value, std::string unit,
                 std::uint64_t samples) {
  metrics_[std::move(name)] = {value, std::move(unit), samples};
}

void Report::Error(std::string what) {
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
  if (errors_.size() < 20) errors_.push_back(std::move(what));
}

void Report::Print(const RunOptions& options) const {
  std::ostringstream out;
  out << "{\"workload\":\"" << obs::JsonEscape(options.workload)
      << "\",\"seed\":" << options.seed
      << ",\"seconds\":" << obs::JsonNumber(options.seconds)
      << ",\"quick\":" << (options.quick ? "true" : "false")
      << ",\"topogen_threads\":" << parallel::Pool::Get().threads()
      << ",\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"digest\":\"" << Hex(digest_) << "\",\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, m] : metrics_) {
    out << sep << "\"" << obs::JsonEscape(name)
        << "\":{\"value\":" << obs::JsonNumber(m.value) << ",\"unit\":\""
        << obs::JsonEscape(m.unit) << "\",\"n\":" << m.samples << "}";
    sep = ",";
  }
  out << "},\"notes\":{";
  sep = "";
  for (const auto& [name, v] : notes_) {
    out << sep << "\"" << obs::JsonEscape(name) << "\":" << obs::JsonNumber(v);
    sep = ",";
  }
  out << "},\"errors\":[";
  sep = "";
  for (const std::string& e : errors_) {
    out << sep << "\"" << obs::JsonEscape(e) << "\"";
    sep = ",";
  }
  out << "]}";
  std::cout << out.str() << std::endl;
}

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

std::size_t SpanLog::Begin(std::string_view name, std::string_view request) {
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back({std::string(name), std::string(request), Clock::now(),
                    Clock::time_point{}, parent});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::End(std::size_t index) {
  spans_[index].end = Clock::now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Add(std::string_view name, Clock::time_point start,
                  Clock::time_point end, std::string_view request) {
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(
      {std::string(name), std::string(request), start, end, parent});
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << obs::JsonEscape(s.name)
        << "\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << obs::JsonNumber(us(s.start))
        << ",\"dur\":" << obs::JsonNumber(us(s.end) - us(s.start))
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":\"" << obs::JsonEscape(s.request) << "\"}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              values.size();
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void FreshDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

namespace {

double StatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM"); }

void StartPhase(Report& report) {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  report.Note("rss_peak_is_phase_only", clear ? 1.0 : 0.0);
}

void AddPhaseMetrics(std::vector<double> latencies_ms, Center center,
                     double cpu_s, std::size_t ops, Report& report) {
  const std::uint64_t n = latencies_ms.size();
  report.Add("latency_ms",
             center == Center::kMean ? Mean(latencies_ms)
                                     : Quantile(latencies_ms, 0.5),
             "ms", n);
  report.Note("latency_p50_ms", Quantile(latencies_ms, 0.5));
  report.Note("latency_p99_ms", Quantile(latencies_ms, 0.99));
  report.Add("cpu_ms_per_op", ops == 0 ? 0.0 : 1e3 * cpu_s / ops, "ms", ops);
  report.Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
}
double CurrentRssMb() { return StatusMb("VmRSS"); }

}  // namespace topogen::e2e
