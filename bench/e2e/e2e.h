// Shared pieces of bench_e2e, the end-to-end benchmark (README.md in this
// directory): run options, the metric report, bench-side spans, and the
// small statistics and hashing helpers every workload uses.
//
// The benchmark measures topogen from outside: it calls only public
// library functions and times them with its own spans, so it adds nothing
// under src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"

namespace topogen::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Smoke sizing: 3 roster ids, one pass, 2 s service phases.
  bool quick = false;
  // Run the per-layer probes and record bench spans.
  bool layers = false;
  // Run only the parallel probe (run.py runs it at TOPOGEN_THREADS=4 and
  // 1), preceded by the link-value memory probe when `rss_probe` is set.
  bool parallel_probe = false;
  bool rss_probe = false;
  // Scratch root for artifact caches; everything the run writes lives here.
  std::string work_dir;
  // Chrome trace JSON of the bench spans; written when non-empty.
  std::string spans_path;
};

// Metrics, operation counts and failures of one run, printed as one JSON
// line (see Print).
class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::uint64_t samples);
  // One attempted operation (a pass, a request); `ok` false counts it
  // failed -- a transport error, a non-ok response or a failed output
  // check alike.
  void Attempt(bool ok) { Count(1, ok ? 0 : 1); }
  void Count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // Why an operation failed; printed to stderr and kept in the result.
  void Error(std::string what);
  void SetDigest(std::uint64_t digest) { digest_ = digest; }
  // A diagnostic value that is not a benchmark metric.
  void Note(std::string key, double value) { notes_[std::move(key)] = value; }

  bool correct() const { return failed_ == 0 && errors_.empty(); }
  void Print(const RunOptions& options) const;

 private:
  struct Metric {
    double value;
    std::string unit;
    std::uint64_t samples;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> notes_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t digest_ = 0;
};

// Bench-side spans: name, start, end, parent and request id, kept in
// memory and written as Chrome trace JSON at the end of the run. Used
// from the bench's main thread only. Disabled spans cost one branch.
class SpanLog {
 public:
  static SpanLog& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index.
  std::size_t Begin(std::string_view name, std::string_view request = {});
  void End(std::size_t index);
  // A closed span with explicit times under the innermost open one.
  void Add(std::string_view name, Clock::time_point start,
           Clock::time_point end, std::string_view request = {});
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string request;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent;
  };
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::string_view request = {}) {
    SpanLog& log = SpanLog::Get();
    if (log.enabled()) index_ = log.Begin(name, request);
  }
  ~ScopedSpan() {
    if (index_ != kNone) SpanLog::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t index_ = kNone;
};

// Linear-interpolated quantile (q in [0, 1]); sorts `values`.
double Quantile(std::vector<double>& values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(values, 0.5);
}
double Mean(const std::vector<double>& values);

// FNV-1a over raw bytes; over doubles it hashes their bit patterns, so
// equal digests mean bit-identical outputs.
class Digest {
 public:
  void AddBytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(std::span<const double> values) {
    AddBytes(values.data(), values.size_bytes());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex(std::uint64_t v);

// Empties (or creates) a scratch directory.
void FreshDir(const std::string& dir);

// Marks the start of a timed phase: resets VmHWM (/proc/self/clear_refs)
// so peak_rss_mb covers the phase alone. Where the kernel refuses, the
// peak covers the whole process and the result notes it.
void StartPhase(Report& report);
// How a phase's operation latencies reduce to latency_ms. The pipelines
// take the mean: the host's shared caches switch between fast and slow
// spells lasting seconds, a warm pass runs ~35% slower in a slow one, and
// the median of a run that is half fast and half slow jumps between the
// two while the mean moves in proportion. The service takes the median,
// which its heavy requests and queueing stalls do not move.
enum class Center { kMean, kMedian };
// The end-to-end metrics of a timed phase: the latency of its operations
// (the median and p99 as notes), process CPU per operation, and the
// phase's resident-memory peak.
void AddPhaseMetrics(std::vector<double> latencies_ms, Center center,
                     double cpu_s, std::size_t ops, Report& report);

// Process CPU time (user + system) in seconds.
double ProcessCpuSeconds();
// VmHWM / VmRSS of this process in MiB (from /proc/self/status).
double PeakRssMb();
double CurrentRssMb();

// One (topology, plain-or-policy) computation a workload asks for.
using Job = core::Session::MetricsRequest;

// What a workload feeds the library: the session configuration, the
// (id, policy) jobs it computes, and -- for the service -- its distinct
// request lines. The layer probes replay exactly these inputs.
struct WorkloadInputs {
  core::SessionOptions session;
  std::vector<Job> jobs;
  std::vector<std::string> request_lines;
};

// The paper's Section 4.4 table (bench/bench_fig2_classification.cc):
// expected Low/High signature per roster id, "(Policy)" for policy reruns.
const std::map<std::string, std::string>& PaperSignatures();
std::string JobName(const Job& job);

// The roster topology for a Session id, straight from the public
// core::Make* factories ("RL.core", derived from RL, has no factory).
core::Topology MakeById(std::string_view id, const core::RosterOptions& roster);

// Set-up repetitions for workloads whose set-up populates a cache;
// setup_s is their median. Quick runs set up once.
inline int SetupReps(const RunOptions& options) {
  return options.quick ? 1 : 3;
}

// Per-layer probes (probes.cc). RunLayerProbes adds every per-layer
// metric except the service-side ones, which the workloads add from
// their own traffic. RunParallelProbe times a cold MetricsBatch and the
// LinkValues calls on a fresh cache; run.py runs it again at
// TOPOGEN_THREADS=1 for the speed-ups.
void RunLayerProbes(const WorkloadInputs& inputs, const RunOptions& options,
                    Report& report);
void RunParallelProbe(const WorkloadInputs& inputs, const RunOptions& options,
                      Report& report);

// The service request lines for `jobs`: the light kinds (the signature
// or one basic series), plus one all-five-metrics line per job when
// `heavy` (service.cc).
std::vector<std::string> RequestLines(const std::vector<Job>& jobs,
                                      bool heavy);

// Workloads (pipeline.cc, service.cc).
WorkloadInputs PipelineInputs(const RunOptions& options);
void RunPipelineCold(const RunOptions& options, Report& report);
void RunPipelineWarm(const RunOptions& options, Report& report);
WorkloadInputs ServiceInputs(const RunOptions& options);
void RunServiceWarm(const RunOptions& options, Report& report);
void RunServiceMixed(const RunOptions& options, Report& report);
// The service probes for the pipeline workloads: their jobs replayed as
// light requests through an in-process server (service.cc).
void RunServiceReplay(const WorkloadInputs& inputs, const RunOptions& options,
                      Report& report);

}  // namespace topogen::e2e
