// The paper pipeline workloads: roster -> generators -> basic metrics ->
// link values, through core::Session, cold (empty cache) and warm
// (populated cache).
#include <algorithm>
#include <filesystem>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/roster.h"
#include "core/scale.h"
#include "e2e.h"
#include "graph/components.h"

namespace topogen::e2e {

namespace {

// The pipeline measures the small tier's graphs (seed 42, so the paper's
// signature table applies) with the suite and link-value budgets cut
// (ball centers 8 -> 2, big-ball centers 3 -> 1, expansion sources
// 500 -> 250, link-value sources 600 -> 100). The kernels and code paths
// are the small tier's, and all 15 signatures still match the paper; one
// cold pass drops from ~9 s to ~2.5 s on a 4-core host. That leaves the
// time budget room for 15-second phases, which the warm pass needs to
// average over the host's slow spells.
core::SessionOptions PipelineSessionOptions() {
  core::SessionOptions so = core::ScaledSessionOptions("small");
  so.suite.ball.max_centers = 2;
  so.suite.ball.big_ball_centers = 1;
  so.suite.expansion.max_sources = 250;
  so.link_value.max_sources = 100;
  so.cache_dir.clear();
  so.journal_path.clear();
  so.cache_max_mb = 0;
  return so;
}

std::vector<std::string> PipelineIds(bool quick) {
  if (quick) return {"Tree", "TS", "AS"};
  std::vector<std::string> ids;
  for (const std::string_view id : core::Session::KnownIds()) {
    ids.emplace_back(id);
  }
  return ids;
}

// The generated inputs a pass must reproduce: an edge digest per roster
// id, from the public factories rather than the Session.
using Reference = std::map<std::string, std::uint64_t>;

std::uint64_t GraphDigest(const graph::Graph& g) {
  Digest d;
  const graph::NodeId n = g.num_nodes();
  d.AddBytes(&n, sizeof n);
  d.AddBytes(g.edges().data(), g.edges().size() * sizeof(graph::Edge));
  return d.value();
}

Reference GenerateReference(const WorkloadInputs& in) {
  Reference ref;
  for (const Job& job : in.jobs) {
    if (job.use_policy || ref.count(job.id) != 0) continue;
    ref[job.id] = GraphDigest(
        job.id == "RL.core"
            ? graph::CoreGraph(MakeById("RL", in.session.roster).graph).graph
            : MakeById(job.id, in.session.roster).graph);
  }
  return ref;
}

struct Pass {
  double seconds = 0.0;
  double cpu_s = 0.0;  // process CPU over the same span as `seconds`
  std::uint64_t digest = 0;
  core::CacheStats stats;
};

// One roster-to-figures pass on a fresh Session over `cache_dir`, in the
// shape of the figure benches: materialize each topology (its policy
// annotation decides the policy rerun), one MetricsBatch, then LinkValues
// per slot in seed-permuted order. Outputs are checked after the clock
// stops; a failed check is reported and leaves digest 0.
Pass RunPass(const WorkloadInputs& in, const std::string& cache_dir,
             std::uint64_t seed, const Reference& reference,
             Report& report) {
  Pass pass;
  ScopedSpan pass_span("pipeline.pass");
  core::SessionOptions so = in.session;
  so.cache_dir = cache_dir;
  std::vector<std::string> ids;
  for (const Job& job : in.jobs) {
    if (!job.use_policy) ids.push_back(job.id);
  }
  try {
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    std::optional<core::Session> session;
    {
      ScopedSpan span("core.session_open");
      session.emplace(so);
    }
    std::vector<Job> jobs;
    for (const std::string& id : ids) {
      ScopedSpan span("core.topology", id);
      const bool policy = session->Topology(id).has_policy();
      jobs.push_back({id});
      if (policy) jobs.push_back({id, /*use_policy=*/true});
    }
    std::vector<const core::BasicMetrics*> metrics;
    {
      ScopedSpan span("core.metrics_batch");
      metrics = session->MetricsBatch(jobs);
    }
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));
    std::vector<const hierarchy::LinkValueResult*> values(jobs.size());
    for (const std::size_t i : order) {
      ScopedSpan span("core.linkvalues", JobName(jobs[i]));
      values[i] = session->TryLinkValues(jobs[i].id, jobs[i].use_policy);
    }
    pass.seconds = SecondsSince(start);
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    pass.stats = session->cache_stats();

    ScopedSpan check_span("check.outputs");
    bool ok = session->degraded().empty() && jobs.size() == in.jobs.size();
    Digest digest;
    for (std::size_t i = 0; i < jobs.size() && ok; ++i) {
      if (metrics[i] == nullptr || values[i] == nullptr) {
        ok = false;
        break;
      }
      const auto expected = PaperSignatures().find(JobName(jobs[i]));
      if (expected != PaperSignatures().end() &&
          expected->second != metrics[i]->signature.ToString()) {
        report.Error("signature of " + JobName(jobs[i]) + " is " +
                    metrics[i]->signature.ToString() + ", paper " +
                    expected->second);
        return pass;
      }
      for (const metrics::Series* s : {&metrics[i]->expansion,
                                       &metrics[i]->resilience,
                                       &metrics[i]->distortion}) {
        digest.Add(s->x);
        digest.Add(s->y);
      }
      digest.Add(values[i]->value);
    }
    if (!ok) {
      report.Error("pipeline pass degraded a roster slot");
      return pass;
    }
    for (const std::string& id : ids) {
      const auto it = reference.find(id);
      if (it != reference.end() &&
          GraphDigest(session->Topology(id).graph) != it->second) {
        report.Error("topology " + id + " differs from its generator");
        return pass;
      }
    }
    pass.digest = digest.value();
  } catch (const std::exception& e) {
    report.Error(std::string("pipeline pass threw: ") + e.what());
  }
  return pass;
}

// Every pass must produce the first pass's digest; returns false (and
// reports) on a mismatch or a failed pass.
bool CheckDigest(const Pass& pass, std::uint64_t& expected, Report& report) {
  report.Attempt(pass.digest != 0);
  if (pass.digest == 0) return false;
  if (expected == 0) expected = pass.digest;
  if (pass.digest != expected) {
    report.Error("output digest " + Hex(pass.digest) + " != " + Hex(expected));
    return false;
  }
  return true;
}

// The timed phase: a closed loop with one caller, running passes on `dir`
// until the phase length is used up (at least three; exactly one in quick
// mode). Cold passes start from an empty cache; warm ones must hit it
// for every artifact.
void RunPasses(const WorkloadInputs& in, const std::string& dir, bool cold,
               const Reference& reference, std::uint64_t& digest,
               const RunOptions& options, Report& report) {
  const std::size_t min_passes = options.quick ? 1 : 3;
  std::vector<double> latencies_ms;
  double cpu = 0.0;
  StartPhase(report);
  const Clock::time_point phase = Clock::now();
  while (latencies_ms.size() < min_passes ||
         (!options.quick && SecondsSince(phase) < options.seconds)) {
    if (cold) FreshDir(dir);
    const Pass pass = RunPass(in, dir, options.seed + latencies_ms.size() + 1,
                              reference, report);
    cpu += pass.cpu_s;
    if (!CheckDigest(pass, digest, report)) break;
    if (!cold && pass.stats.topology_misses + pass.stats.metrics_misses +
                         pass.stats.linkvalue_misses !=
                     0) {
      report.Error("warm pass missed the cache");
      break;
    }
    latencies_ms.push_back(1e3 * pass.seconds);
  }
  AddPhaseMetrics(latencies_ms, Center::kMean, cpu, latencies_ms.size(),
                  report);
  report.SetDigest(digest);
}

}  // namespace

core::Topology MakeById(std::string_view id,
                        const core::RosterOptions& roster) {
  if (id == "Tree") return core::MakeTree(roster);
  if (id == "Mesh") return core::MakeMesh(roster);
  if (id == "Random") return core::MakeRandom(roster);
  if (id == "TS") return core::MakeTransitStub(roster);
  if (id == "Tiers") return core::MakeTiers(roster);
  if (id == "Waxman") return core::MakeWaxman(roster);
  if (id == "PLRG") return core::MakePlrg(roster);
  if (id == "B-A") return core::MakeBa(roster);
  if (id == "Brite") return core::MakeBrite(roster);
  if (id == "BT") return core::MakeBt(roster);
  if (id == "Inet") return core::MakeInet(roster);
  if (id == "AS") return core::MakeAs(roster);
  if (id == "RL") return core::MakeRl(roster).topology;
  throw std::invalid_argument("unknown roster id " + std::string(id));
}

const std::map<std::string, std::string>& PaperSignatures() {
  static const std::map<std::string, std::string> table{
      {"Mesh", "LHH"},       {"Random", "HHH"},     {"Tree", "HLL"},
      {"AS", "HHL"},         {"RL", "HHL"},         {"PLRG", "HHL"},
      {"Tiers", "LHL"},      {"TS", "HLL"},         {"Waxman", "HHH"},
      {"AS(Policy)", "HHL"}, {"RL(Policy)", "HHL"}, {"B-A", "HHL"},
      {"Brite", "HHL"},      {"BT", "HHL"},         {"Inet", "HHL"},
  };
  return table;
}

std::string JobName(const Job& job) {
  return job.use_policy ? job.id + "(Policy)" : job.id;
}

WorkloadInputs PipelineInputs(const RunOptions& options) {
  WorkloadInputs in;
  in.session = PipelineSessionOptions();
  for (const std::string& id : PipelineIds(options.quick)) {
    in.jobs.push_back({id});
    if (id == "AS" || id == "RL" || id == "RL.core") {
      in.jobs.push_back({id, /*use_policy=*/true});
    }
  }
  in.request_lines = RequestLines(in.jobs, /*heavy=*/false);
  return in;
}

void RunPipelineCold(const RunOptions& options, Report& report) {
  const WorkloadInputs in = PipelineInputs(options);
  const std::string dir = options.work_dir + "/cold";
  // Set-up: generate the reference inputs, repeated so their share of
  // setup_s is a median, then one untimed cold pass that warms the thread
  // pool and the allocator (a fresh process's first pass runs slower and
  // peaks up to ~20% higher in resident memory than the passes after it).
  constexpr int kReps = 15;
  std::vector<double> generation;
  Reference reference;
  for (int i = 0; i < kReps; ++i) {
    ScopedSpan span("setup.reference");
    const Clock::time_point start = Clock::now();
    reference = GenerateReference(in);
    generation.push_back(SecondsSince(start));
  }
  std::uint64_t digest = 0;
  {
    ScopedSpan span("setup.warmup_pass");
    FreshDir(dir);
    const Clock::time_point start = Clock::now();
    const Pass pass = RunPass(in, dir, options.seed, reference, report);
    if (!CheckDigest(pass, digest, report)) return;
    report.Add("setup_s", Median(generation) + SecondsSince(start), "s",
               generation.size());
  }
  RunPasses(in, dir, /*cold=*/true, reference, digest, options, report);
  std::filesystem::remove_all(dir);
}

void RunPipelineWarm(const RunOptions& options, Report& report) {
  const WorkloadInputs in = PipelineInputs(options);
  const Reference reference = GenerateReference(in);
  const std::string dir = options.work_dir + "/warm";
  // Set-up is one cold pass that populates the cache, repeated on a fresh
  // directory so setup_s is a median.
  std::uint64_t digest = 0;
  std::vector<double> setup;
  for (int i = 0; i < SetupReps(options); ++i) {
    ScopedSpan span("setup.cold_pass");
    FreshDir(dir);
    const Clock::time_point start = Clock::now();
    const Pass pass = RunPass(in, dir, options.seed, reference, report);
    setup.push_back(SecondsSince(start));
    if (!CheckDigest(pass, digest, report)) return;
  }
  report.Add("setup_s", Median(setup), "s", setup.size());
  RunPasses(in, dir, /*cold=*/false, reference, digest, options, report);
}

}  // namespace topogen::e2e
