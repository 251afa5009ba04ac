// Per-layer probes: each layer's public functions called in isolation on
// the workload's own inputs, timed with bench-side spans. Layers are named
// after the src/ modules (README.md has the layer -> end-to-end map).
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>

#include "e2e.h"
#include "graph/bfs.h"
#include "graph/bfs_scratch.h"
#include "hierarchy/link_value.h"
#include "metrics/distortion.h"
#include "metrics/expansion.h"
#include "metrics/resilience.h"
#include "parallel/pool.h"
#include "service/protocol.h"
#include "store/artifact.h"
#include "store/hash.h"

namespace topogen::e2e {

namespace {

// Keeps a probe's result observable so the compiler cannot drop the call.
volatile std::size_t g_sink = 0;

// Distinct roster ids of the workload, in job order.
std::vector<std::string> Ids(const WorkloadInputs& in) {
  std::vector<std::string> ids;
  for (const Job& job : in.jobs) {
    if (!job.use_policy) ids.push_back(job.id);
  }
  return ids;
}

template <typename Fn>
double Seconds(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

// Runs `fn` (returning seconds of work) `reps` times; the median.
template <typename Fn>
double MedianOf(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return Median(v);
}

void ProbeGeneration(const WorkloadInputs& in, Report& report) {
  ScopedSpan span("probe.gen");
  constexpr int kReps = 5;
  const double s = MedianOf(kReps, [&] {
    double total = 0.0;
    for (const std::string& id : Ids(in)) {
      if (id == "RL.core") continue;  // derived from RL, not generated
      ScopedSpan call("gen.make", id);
      total += Seconds(
          [&] { g_sink = MakeById(id, in.session.roster).graph.num_edges(); });
    }
    return total;
  });
  report.Add("gen.roster_ms", 1e3 * s, "ms", kReps);
}

void ProbeGraph(const std::vector<const core::Topology*>& topologies,
                std::uint64_t seed, Report& report) {
  ScopedSpan span("probe.graph");
  constexpr int kReps = 5;
  const double build = MedianOf(kReps, [&] {
    double total = 0.0;
    for (const core::Topology* t : topologies) {
      ScopedSpan call("graph.csr_build", t->name);
      graph::GraphBuilder builder(t->graph.num_nodes());
      for (const graph::Edge& e : t->graph.edges()) builder.AddEdge(e.u, e.v);
      total += Seconds([&] { g_sink = std::move(builder).Build().num_edges(); });
    }
    return total;
  });
  report.Add("graph.csr_build_ms", 1e3 * build, "ms", kReps);

  // GAPBS-style: traversed edges per second over 64 seeded sources per
  // graph, counting the graph's edges once per search.
  constexpr int kSources = 64;
  std::mt19937_64 rng(seed);
  double edges = 0.0;
  double seconds = 0.0;
  graph::BfsScratchLease scratch = graph::AcquireBfsScratch();
  for (const core::Topology* t : topologies) {
    ScopedSpan call("graph.bfs", t->name);
    const graph::Graph& g = t->graph;
    std::vector<graph::NodeId> sources(kSources);
    for (graph::NodeId& s : sources) s = rng() % g.num_nodes();
    seconds += Seconds([&] {
      for (const graph::NodeId s : sources) {
        graph::BfsDistancesInto(g, s, *scratch);
        g_sink = scratch->reached();
      }
    });
    edges += static_cast<double>(kSources) * g.num_edges();
  }
  report.Add("graph.bfs_mteps", edges / seconds / 1e6, "Medges/s",
             topologies.size() * kSources);
}

void ProbeKernels(const WorkloadInputs& in, core::Session& session,
                  Report& report) {
  ScopedSpan span("probe.kernels");
  const core::SuiteOptions& suite = in.session.suite;
  double expansion = 0.0, resilience = 0.0, distortion = 0.0;
  double linkvalue = 0.0, policy_linkvalue = 0.0;
  std::uint64_t plain_jobs = 0, policy_jobs = 0;
  for (const Job& job : in.jobs) {
    const core::Topology& t = session.Topology(job.id);
    const graph::Graph& g = t.graph;
    const auto& rel = t.relationship;
    const std::string name = JobName(job);
    {
      ScopedSpan call("metrics.expansion", name);
      expansion += Seconds([&] {
        g_sink = (job.use_policy
                      ? metrics::PolicyExpansion(g, rel, suite.expansion)
                      : metrics::Expansion(g, suite.expansion))
                     .size();
      });
    }
    {
      ScopedSpan call("metrics.resilience", name);
      resilience += Seconds([&] {
        g_sink = (job.use_policy
                      ? metrics::PolicyResilience(g, rel, suite.ball)
                      : metrics::Resilience(g, suite.ball))
                     .size();
      });
    }
    {
      ScopedSpan call("metrics.distortion", name);
      distortion += Seconds([&] {
        g_sink = (job.use_policy
                      ? metrics::PolicyDistortion(g, rel, suite.ball)
                      : metrics::Distortion(g, suite.ball))
                     .size();
      });
    }
    if (job.use_policy) {
      ScopedSpan call("hierarchy.policy_linkvalue", name);
      policy_linkvalue += Seconds([&] {
        g_sink = hierarchy::ComputePolicyLinkValues(g, rel, in.session.link_value)
                     .value.size();
      });
      ++policy_jobs;
    } else {
      ScopedSpan call("hierarchy.linkvalue", name);
      linkvalue += Seconds([&] {
        g_sink = hierarchy::ComputeLinkValues(g, in.session.link_value)
                     .value.size();
      });
      ++plain_jobs;
    }
  }
  const std::uint64_t n = in.jobs.size();
  report.Add("metrics.expansion_ms", 1e3 * expansion, "ms", n);
  report.Add("metrics.resilience_ms", 1e3 * resilience, "ms", n);
  report.Add("metrics.distortion_ms", 1e3 * distortion, "ms", n);
  report.Add("hierarchy.linkvalue_ms", 1e3 * linkvalue, "ms", plain_jobs);
  report.Add("hierarchy.policy_linkvalue_ms", 1e3 * policy_linkvalue, "ms",
             policy_jobs);
}

// A cold pass through the Session on an empty cache at `dir`: the
// topologies, one MetricsBatch, then LinkValues per job.
struct ColdPass {
  double batch_s = 0.0;
  double batch_cpu_s = 0.0;
  double linkvalues_s = 0.0;
};

ColdPass RunColdPass(const WorkloadInputs& in, const std::string& dir,
                     Report& report) {
  ScopedSpan span("probe.cold_pass");
  FreshDir(dir);
  core::SessionOptions so = in.session;
  so.cache_dir = dir;
  core::Session session(so);
  for (const std::string& id : Ids(in)) session.Topology(id);
  ColdPass pass;
  const double cpu = ProcessCpuSeconds();
  {
    ScopedSpan call("core.metrics_batch");
    pass.batch_s = Seconds([&] {
      for (const core::BasicMetrics* m : session.MetricsBatch(in.jobs)) {
        report.Attempt(m != nullptr);
      }
    });
  }
  pass.batch_cpu_s = ProcessCpuSeconds() - cpu;
  for (const Job& job : in.jobs) {
    ScopedSpan call("core.linkvalues", JobName(job));
    pass.linkvalues_s += Seconds([&] {
      report.Attempt(session.TryLinkValues(job.id, job.use_policy) != nullptr);
    });
  }
  return pass;
}

// Warm Session costs on the cache RunColdPass populated at `dir`.
void ProbeWarmSession(const WorkloadInputs& in, const std::string& dir,
                      Report& report) {
  ScopedSpan span("probe.warm_session");
  core::SessionOptions so = in.session;
  so.cache_dir = dir;
  constexpr int kReps = 20;
  std::vector<double> open, topology, metrics, linkvalue;
  std::uint64_t hits = 0, lookups = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::optional<core::Session> session;
    {
      ScopedSpan call("core.session_open");
      open.push_back(Seconds([&] { session.emplace(so); }));
    }
    for (const std::string& id : Ids(in)) {
      ScopedSpan call("store.topology_hit", id);
      topology.push_back(
          Seconds([&] { g_sink = session->Topology(id).graph.num_edges(); }));
    }
    for (const Job& job : in.jobs) {
      {
        ScopedSpan call("store.metrics_hit", JobName(job));
        metrics.push_back(Seconds([&] {
          g_sink = session->Metrics(job.id, job.use_policy).expansion.size();
        }));
      }
      ScopedSpan call("store.linkvalue_hit", JobName(job));
      linkvalue.push_back(Seconds([&] {
        g_sink = session->LinkValues(job.id, job.use_policy).value.size();
      }));
    }
    const core::CacheStats& cs = session->cache_stats();
    const std::uint64_t h =
        cs.topology_hits + cs.metrics_hits + cs.linkvalue_hits;
    hits += h;
    lookups += h + cs.topology_misses + cs.metrics_misses +
               cs.linkvalue_misses;
  }
  report.Add("core.session_open_us", 1e6 * Median(open), "us", open.size());
  report.Add("core.cache_hit_ratio",
             lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups,
             "ratio", lookups);
  report.Add("store.topology_hit_us", 1e6 * Median(topology), "us",
             topology.size());
  report.Add("store.metrics_hit_us", 1e6 * Median(metrics), "us",
             metrics.size());
  report.Add("store.linkvalue_hit_us", 1e6 * Median(linkvalue), "us",
             linkvalue.size());
}

// ArtifactStore::Store / Load of payloads sized like the artifacts under
// `populated`, in a scratch store of their own.
void ProbeStore(const std::string& populated, const std::string& scratch,
                std::uint64_t seed, Report& report) {
  ScopedSpan span("probe.store");
  std::vector<std::string> payloads;
  std::mt19937_64 rng(seed);
  double bytes = 0.0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(populated)) {
    if (entry.path().extension() != ".art") continue;
    std::string payload(entry.file_size(), '\0');
    for (std::size_t i = 0; i < payload.size(); i += sizeof(std::uint64_t)) {
      const std::uint64_t r = rng();
      std::memcpy(payload.data() + i, &r,
                  std::min(sizeof r, payload.size() - i));
    }
    bytes += static_cast<double>(payload.size());
    payloads.push_back(std::move(payload));
  }
  FreshDir(scratch);
  store::ArtifactStore store(scratch);
  std::vector<store::Key> keys;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    keys.push_back(store::KeyHasher().Mix("e2e.store").Mix(i).Finish());
  }
  constexpr int kReps = 5;
  std::string loaded;
  const double store_s = MedianOf(kReps, [&] {
    ScopedSpan call("store.store");
    return Seconds([&] {
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        if (!store.Store("e2e", keys[i], payloads[i])) {
          report.Error("ArtifactStore::Store failed");
        }
      }
    });
  });
  const double load_s = MedianOf(kReps, [&] {
    ScopedSpan call("store.load");
    return Seconds([&] {
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        if (!store.Load("e2e", keys[i], loaded) || loaded != payloads[i]) {
          report.Error("ArtifactStore::Load returned other bytes");
        }
      }
    });
  });
  report.Add("store.store_mb_s", bytes / store_s / (1 << 20), "MiB/s",
             payloads.size());
  report.Add("store.load_mb_s", bytes / load_s / (1 << 20), "MiB/s",
             payloads.size());
}

// Repeats `fn` (returning bytes or items done) for at least `min_s`
// seconds; the units per second.
template <typename Fn>
double Rate(double min_s, Fn&& fn) {
  double units = 0.0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    units += fn();
    elapsed = SecondsSince(start);
  } while (elapsed < min_s);
  return units / elapsed;
}

void ProbeProtocol(const WorkloadInputs& in, core::Session& session,
                   Report& report) {
  ScopedSpan span("probe.protocol");
  for (const std::string& line : in.request_lines) {
    report.Attempt(service::ParseRequest(line).request.has_value());
  }
  constexpr int kReps = 3;
  const double parses_per_s = MedianOf(kReps, [&] {
    ScopedSpan call("protocol.parse");
    return Rate(0.2, [&] {
      for (const std::string& line : in.request_lines) {
        g_sink = service::ParseRequest(line).request->metrics.size();
      }
      return static_cast<double>(in.request_lines.size());
    });
  });
  report.Add("protocol.parse_ns", 1e9 / parses_per_s, "ns",
             in.request_lines.size());

  // Every series the workload serves, as one inline /1 response per job
  // plus its /2 chunk frames.
  std::vector<std::vector<metrics::Series>> series;
  for (const Job& job : in.jobs) {
    const core::BasicMetrics& m = session.Metrics(job.id, job.use_policy);
    series.push_back(
        {m.expansion, m.resilience, m.distortion,
         session.LinkValues(job.id, job.use_policy).RankDistribution()});
  }
  const char* const kFigures[] = {"expansion", "resilience", "distortion",
                                  "linkvalue"};
  const double bytes_per_s = MedianOf(kReps, [&] {
    ScopedSpan call("protocol.serialize");
    return Rate(0.2, [&] {
      double bytes = 0.0;
      for (const std::vector<metrics::Series>& job : series) {
        service::ResponseBuilder rb("probe");
        for (std::size_t f = 0; f < job.size(); ++f) {
          rb.AddFigure(kFigures[f], job[f]);
          for (std::size_t b = 0; b < job[f].size();
               b += service::kDefaultStreamChunkPoints) {
            bytes += static_cast<double>(
                service::StreamChunkFrame(
                    "probe", b, kFigures[f], job[f], b,
                    std::min(job[f].size(),
                             b + service::kDefaultStreamChunkPoints))
                    .size());
          }
        }
        bytes += static_cast<double>(std::move(rb).Finish().size());
      }
      return bytes;
    });
  });
  report.Add("protocol.serialize_mb_s", bytes_per_s / (1 << 20), "MiB/s",
             series.size());
}

std::vector<const core::Topology*> Topologies(const WorkloadInputs& in,
                                              core::Session& session) {
  std::vector<const core::Topology*> out;
  for (const std::string& id : Ids(in)) out.push_back(&session.Topology(id));
  return out;
}

core::SessionOptions InMemory(const WorkloadInputs& in) {
  core::SessionOptions so = in.session;
  so.cache_dir.clear();
  return so;
}

}  // namespace

void RunLayerProbes(const WorkloadInputs& in, const RunOptions& options,
                    Report& report) {
  ScopedSpan span("probe.layers");
  core::Session session(InMemory(in));
  ProbeGeneration(in, report);
  ProbeGraph(Topologies(in, session), options.seed, report);
  ProbeKernels(in, session, report);

  const std::string dir = options.work_dir + "/probe-cache";
  const ColdPass cold = RunColdPass(in, dir, report);
  report.Add("core.metrics_batch_ms", 1e3 * cold.batch_s, "ms", 1);
  report.Add("core.linkvalues_ms", 1e3 * cold.linkvalues_s, "ms",
             in.jobs.size());
  ProbeWarmSession(in, dir, report);
  ProbeStore(dir, options.work_dir + "/probe-store", options.seed, report);
  core::SessionOptions warm = in.session;
  warm.cache_dir = dir;
  core::Session cached(warm);
  ProbeProtocol(in, cached, report);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(options.work_dir + "/probe-store");
}

void RunParallelProbe(const WorkloadInputs& in, const RunOptions& options,
                      Report& report) {
  if (options.rss_probe) {
    // VmHWM after the link-value kernels minus VmRSS before them, first
    // thing in a fresh process so no earlier phase set the high-water mark.
    core::Session session(InMemory(in));
    Topologies(in, session);  // generated before the baseline is read
    const double rss = CurrentRssMb();
    for (const Job& job : in.jobs) {
      const core::Topology& t = session.Topology(job.id);
      g_sink = (job.use_policy ? hierarchy::ComputePolicyLinkValues(
                                     t.graph, t.relationship,
                                     in.session.link_value)
                               : hierarchy::ComputeLinkValues(
                                     t.graph, in.session.link_value))
                   .value.size();
    }
    report.Add("hierarchy.linkvalue_rss_mb", PeakRssMb() - rss, "MiB", 1);
  }
  const ColdPass cold =
      RunColdPass(in, options.work_dir + "/parallel-cache", report);
  const int threads = parallel::Pool::Get().threads();
  report.Add("parallel.metrics_batch_ms", 1e3 * cold.batch_s, "ms", 1);
  report.Add("parallel.linkvalues_ms", 1e3 * cold.linkvalues_s, "ms",
             in.jobs.size());
  report.Add("parallel.busy_ratio",
             cold.batch_cpu_s / (cold.batch_s * threads), "ratio", 1);
  std::filesystem::remove_all(options.work_dir + "/parallel-cache");
}

}  // namespace topogen::e2e
