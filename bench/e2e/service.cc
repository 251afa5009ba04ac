// The topogend workloads: an in-process service::Server on an ephemeral
// loopback port, driven open-loop by one generator thread over sixteen
// keep-alive /2 connections.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/scale.h"
#include "e2e.h"
#include "obs/json.h"
#include "service/protocol.h"
#include "service/server.h"

namespace topogen::e2e {

namespace {

// Keep-alive connections the generator spreads requests over. At the
// server's default cap of 8 unanswered requests per connection, 4
// connections at 1220 rps were shed during a 26 ms stall of the warm
// lane; the rate ladder in README.md was run with 16.
constexpr std::size_t kConnections = 16;
// The warm requests' offered rate in both service workloads: the largest
// step of a x1.25 ladder from 500 rps at or below 40% of the highest step
// that met the SLO (p99 <= 20 ms, nothing shed), 5815 rps on a 4-core
// host. README.md ("Calibration") has the ladder. Low rates leave the
// median to thread wake-up latency, which varied by 25% between runs at
// 500 rps.
constexpr double kWarmRate = 1906.0;
// The server's per-connection in-flight cap: more than one second of a
// connection's share of kWarmRate (119 requests).
constexpr std::size_t kInflightCap = 128;
// service-mixed: this many cold requests spread evenly over the phase.
constexpr std::size_t kColdRequests = 8;
// The pipeline workloads' service replay: light requests at this rate
// for this long.
constexpr double kReplayRate = 200.0;
constexpr double kReplaySeconds = 2.0;
// How long the generator waits for stragglers after its last send.
constexpr double kDrainSeconds = 20.0;

// One distinct request: everything after `{"v":2,"id":"..",`.
struct Kind {
  Job job;
  std::vector<std::string> figures;  // series the response streams
  bool signature = false;
  std::string body;
};

std::string Line(std::string_view id, std::string_view body) {
  std::string line = R"({"v":2,"id":")";
  line += id;
  line += "\",";
  line += body;
  return line;
}

// The id of the i-th request of a timed phase; the generator parses it
// back to find the request a frame answers.
std::string RequestId(std::size_t i) {
  std::string id = "r";
  id += std::to_string(i);
  return id;
}

std::string JobFields(const Job& job) {
  std::string s = R"("topology":")" + job.id + "\"";
  if (job.use_policy) s += R"(,"use_policy":true)";
  return s;
}

// The light requests: the signature or one basic series.
std::vector<Kind> LightKinds(const std::vector<Job>& jobs) {
  std::vector<Kind> kinds;
  for (const Job& job : jobs) {
    for (const std::string m :
         {"signature", "expansion", "resilience", "distortion"}) {
      Kind k;
      k.job = job;
      k.signature = m == "signature";
      if (!k.signature) k.figures = {m};
      k.body = JobFields(job) + R"(,"metrics":[")" + m +
               R"("],"scale":"small"})";
      kinds.push_back(std::move(k));
    }
  }
  return kinds;
}

// The heavy requests: all five metrics inline (90-245 KB at the small
// tier, most of it the link-value rank series).
std::vector<Kind> HeavyKinds(const std::vector<Job>& jobs) {
  std::vector<Kind> kinds;
  for (const Job& job : jobs) {
    Kind k;
    k.job = job;
    k.figures = {"expansion", "resilience", "distortion", "linkvalue"};
    k.signature = true;
    k.body = JobFields(job) +
             R"(,"metrics":["expansion","resilience","distortion",)"
             R"("signature","linkvalue"],"scale":"small"})";
    kinds.push_back(std::move(k));
  }
  return kinds;
}

// One blocking-send, non-blocking-receive client connection.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                              sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& line) {
    std::string framed = line;
    framed += '\n';
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Appends the complete lines the socket holds to `lines`; false when
  // the peer closed or the read failed.
  bool Receive(std::vector<std::string>& lines) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl;
         (nl = buffer_.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      lines.emplace_back(buffer_, begin, nl - begin);
    }
    buffer_.erase(0, begin);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

bool IsFinalFrame(std::string_view frame) {
  return frame.substr(0, 48).find(R"("more":false)") !=
         std::string_view::npos;
}

std::string_view FrameId(std::string_view frame) {
  constexpr std::string_view kKey = R"("id":")";
  const std::size_t at = frame.find(kKey);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + kKey.size();
  const std::size_t end = frame.find('"', begin);
  return end == std::string_view::npos ? std::string_view{}
                                       : frame.substr(begin, end - begin);
}

double FrameNumber(std::string_view frame, std::string_view key) {
  const std::size_t at = frame.find(key);
  if (at == std::string_view::npos) return 0.0;
  return std::strtod(frame.data() + at + key.size(), nullptr);
}

// Every frame of response `id`, through its final frame; empty on
// timeout or EOF.
std::vector<std::string> AwaitResponse(Connection& conn, std::string_view id,
                                       double timeout_s) {
  std::vector<std::string> frames;
  std::vector<std::string> lines;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < timeout_s) {
    pollfd p{conn.fd(), POLLIN, 0};
    if (::poll(&p, 1, 100) < 0) return {};
    if (p.revents == 0) continue;
    lines.clear();
    if (!conn.Receive(lines)) return {};
    for (std::string& line : lines) {
      if (FrameId(line) != id) continue;
      const bool final = IsFinalFrame(line);
      frames.push_back(std::move(line));
      if (final) return frames;
    }
  }
  return {};
}

// A running server with its client connections, and what setting it up
// took: the time of each set-up and the digest of the populated results.
struct Service {
  std::unique_ptr<service::Server> server;
  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<double> setup_s;
  std::uint64_t digest = 0;
};

Service StartService() {
  Service s;
  service::ServerOptions options = service::ServerOptions::FromEnv();
  options.port = 0;  // ephemeral, so runs never collide on a port
  // The workloads run at 40% of capacity, where nothing should be shed,
  // and any shed request fails the run. At the defaults (8 in flight per
  // connection, a 20 ms sojourn target) a ~100 ms stall of the shared host
  // shed 2 of 28590 requests in one of 30 runs. These limits let the
  // server ride out a one-second stall.
  options.inflight_cap = kInflightCap;
  options.target_ms = 1000;
  s.server = std::make_unique<service::Server>(options);
  s.server->Start();
  for (std::size_t i = 0; i < kConnections; ++i) {
    s.connections.push_back(std::make_unique<Connection>(s.server->port()));
    if (!s.connections.back()->ok()) {
      throw std::runtime_error("cannot connect to the in-process server");
    }
  }
  return s;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// One response's streamed series and signature, parsed in full.
struct Parsed {
  std::map<std::string, metrics::Series> figures;
  std::string signature;
  bool ok = false;
};

Parsed ParseResponse(const std::vector<std::string>& frames) {
  Parsed p;
  for (const std::string& frame : frames) {
    const std::optional<obs::Json> json = obs::Json::Parse(frame);
    if (!json) return {};
    if (const obs::Json* figure = json->Find("figure")) {
      const obs::Json* x = json->Find("x");
      const obs::Json* y = json->Find("y");
      if (x == nullptr || y == nullptr) return {};
      metrics::Series& s = p.figures[figure->AsString()];
      for (const obs::Json& v : x->AsArray()) s.x.push_back(v.AsDouble());
      for (const obs::Json& v : y->AsArray()) s.y.push_back(v.AsDouble());
      continue;
    }
    const obs::Json* status = json->Find("status");
    p.ok = status != nullptr && status->AsString() == "ok";
    if (const obs::Json* figures = json->Find("figures")) {
      if (const obs::Json* sig = figures->Find("signature")) {
        p.signature = sig->AsString();
      }
    }
  }
  return p;
}

// Sends every kind once and checks that the response is ok and its
// figures are bit-identical to `session`'s batch results.
void VerifyKinds(Service& service, const std::vector<Kind>& kinds,
                 core::Session& session, Report& report) {
  ScopedSpan span("setup.verify");
  Connection& conn = *service.connections.front();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const Kind& kind = kinds[i];
    const std::string id = "verify" + std::to_string(i);
    const std::vector<std::string> frames =
        conn.Send(Line(id, kind.body)) ? AwaitResponse(conn, id, 60.0)
                                       : std::vector<std::string>{};
    const Parsed got = ParseResponse(frames);
    bool ok = got.ok;
    const core::BasicMetrics& m =
        session.Metrics(kind.job.id, kind.job.use_policy);
    if (kind.signature) ok = ok && got.signature == m.signature.ToString();
    for (const std::string& figure : kind.figures) {
      const metrics::Series expected =
          figure == "expansion"    ? m.expansion
          : figure == "resilience" ? m.resilience
          : figure == "distortion"
              ? m.distortion
              : session.LinkValues(kind.job.id, kind.job.use_policy)
                    .RankDistribution();
      const auto it = got.figures.find(figure);
      ok = ok && it != got.figures.end() &&
           SameBits(it->second.x, expected.x) &&
           SameBits(it->second.y, expected.y);
    }
    report.Attempt(ok);
    if (!ok) {
      report.Error("service response differs from the batch Session: " +
                   kind.body);
    }
  }
}

// The service workloads' set-up: empty the cache, populate it with a
// batch Session, start a server on it and verify every distinct request
// once. Repeated `reps` times, keeping the last service.
Service SetUp(const WorkloadInputs& in, const std::vector<Kind>& kinds,
              bool with_linkvalues, int reps, const RunOptions& options,
              Report& report) {
  const std::string& dir = in.session.cache_dir;
  if (dir.empty() || dir.rfind(options.work_dir + "/", 0) != 0) {
    throw std::runtime_error(
        "service workloads need TOPOGEN_CACHE_DIR under --work-dir");
  }
  std::vector<double> setup;
  std::uint64_t digest = 0;
  Service service;
  for (int rep = 0; rep < reps; ++rep) {
    ScopedSpan span("setup.service");
    service = Service{};  // stops the previous repetition's server
    FreshDir(dir);
    const Clock::time_point start = Clock::now();
    core::Session session(in.session);
    Digest d;
    {
      ScopedSpan batch("core.metrics_batch");
      for (const core::BasicMetrics* m : session.MetricsBatch(in.jobs)) {
        report.Attempt(m != nullptr);
        if (m == nullptr) {
          report.Error("set-up batch degraded a slot");
          continue;
        }
        for (const metrics::Series* s :
             {&m->expansion, &m->resilience, &m->distortion}) {
          d.Add(s->x);
          d.Add(s->y);
        }
      }
    }
    if (with_linkvalues) {
      for (const Job& job : in.jobs) {
        ScopedSpan lv("core.linkvalues", JobName(job));
        d.Add(session.LinkValues(job.id, job.use_policy).value);
      }
    }
    service = StartService();
    VerifyKinds(service, kinds, session, report);
    setup.push_back(SecondsSince(start));
    if (digest != 0 && d.value() != digest) {
      report.Error("set-up results differ between repetitions");
    }
    digest = d.value();
  }
  service.setup_s = setup;
  service.digest = digest;
  return service;
}

struct Scheduled {
  double at_s = 0.0;
  std::string body;
  bool cold = false;
};

struct Completed {
  double latency_ms = 0.0;  // from the scheduled send time
  double rtt_us = 0.0;      // from the actual send time
  double queue_us = 0.0;
  double exec_us = 0.0;
  bool cold = false;
};

struct Load {
  std::vector<Completed> done;
  std::vector<double> late_ms;
  double cpu_s = 0.0;
};

// The open-loop generator: sends request i (id "r<i>") at its scheduled
// time on connection i % kConnections, polls every connection between
// sends, and times each response from its scheduled send, so a stall
// also charges the requests queued behind it. There are no retries: a
// response that is not ok, or never arrives, is a failed operation.
Load RunOpenLoop(Service& service, const std::vector<Scheduled>& schedule,
                 Report& report) {
  const std::size_t n = schedule.size();
  std::vector<std::string> lines(n);
  for (std::size_t i = 0; i < n; ++i) {
    lines[i] = Line(RequestId(i), schedule[i].body);
  }
  Load load;
  std::vector<Clock::time_point> sent(n);
  std::vector<bool> answered(n, false);
  std::vector<pollfd> fds;
  for (const auto& c : service.connections) {
    fds.push_back({c->fd(), POLLIN, 0});
  }
  std::vector<std::string> frames;
  SpanLog& spans = SpanLog::Get();

  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const Clock::time_point deadline =
      at((n == 0 ? 0.0 : schedule.back().at_s) + kDrainSeconds);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::size_t not_ok = 0;  // responses that were not ok; the first are kept
  while (next < n || outstanding > 0) {
    const Clock::time_point now = Clock::now();
    if (now > deadline) break;
    if (next < n && now >= at(schedule[next].at_s)) {
      sent[next] = now;
      load.late_ms.push_back(std::chrono::duration<double, std::milli>(
                                 now - at(schedule[next].at_s))
                                 .count());
      if (service.connections[next % kConnections]->Send(lines[next])) {
        ++outstanding;
      } else {
        answered[next] = true;
      }
      ++next;
      continue;
    }
    const Clock::time_point wake =
        next < n ? at(schedule[next].at_s) : deadline;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
            .count();
    const timespec timeout{static_cast<time_t>(ns / 1000000000),
                           static_cast<long>(ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].revents == 0) continue;
      frames.clear();
      if (!service.connections[c]->Receive(frames)) fds[c].fd = -1;
      const Clock::time_point got = Clock::now();
      for (const std::string& frame : frames) {
        if (!IsFinalFrame(frame)) continue;
        const std::string_view id = FrameId(frame);
        const std::size_t i =
            id.size() > 1 ? std::strtoull(id.data() + 1, nullptr, 10) : n;
        if (i >= next || answered[i]) continue;
        answered[i] = true;
        --outstanding;
        if (frame.find(R"("status":"ok")") == std::string::npos) {
          if (++not_ok <= 3) {
            report.Error("request " + std::string(id) +
                         " answered: " + frame.substr(0, 240));
          }
          continue;
        }
        Completed done;
        done.cold = schedule[i].cold;
        done.latency_ms = std::chrono::duration<double, std::milli>(
                              got - at(schedule[i].at_s))
                              .count();
        done.rtt_us =
            std::chrono::duration<double, std::micro>(got - sent[i]).count();
        done.queue_us = FrameNumber(frame, R"("queue_us":)");
        done.exec_us = FrameNumber(frame, R"("elapsed_us":)");
        load.done.push_back(done);
        if (spans.enabled()) {
          spans.Add(done.cold ? "service.cold_request" : "service.request",
                    sent[i], got, id);
        }
      }
    }
  }
  load.cpu_s = ProcessCpuSeconds() - cpu_start;
  // Everything not answered ok failed: send errors, non-ok responses, and
  // responses still missing at the deadline.
  const std::size_t failed = n - load.done.size();
  report.Count(n, failed);
  if (failed > 0) {
    report.Error(std::to_string(failed) + " of " + std::to_string(n) +
                 " service requests failed");
  }
  return load;
}

void AddLoadMetrics(const Load& load, const Service& service,
                    Report& report) {
  std::vector<double> warm, cold;
  for (const Completed& d : load.done) {
    (d.cold ? cold : warm).push_back(d.latency_ms);
  }
  report.Add("setup_s", Median(service.setup_s), "s", service.setup_s.size());
  report.SetDigest(service.digest);
  AddPhaseMetrics(warm, Center::kMedian, load.cpu_s, load.done.size(),
                  report);
  if (!cold.empty()) report.Note("cold_req_p50_ms", Median(cold));
}

// The service-side per-layer metrics, from the warm requests' response
// timings and the server's own counters.
void AddServiceLayerMetrics(const Load& load, const Service& service,
                            Report& report) {
  std::vector<double> queue, exec, wire;
  for (const Completed& d : load.done) {
    if (d.cold) continue;
    queue.push_back(d.queue_us);
    exec.push_back(d.exec_us);
    wire.push_back(d.rtt_us - d.queue_us - d.exec_us);
  }
  const std::uint64_t n = queue.size();
  report.Add("service.queue_us_mean", Mean(queue), "us", n);
  report.Add("service.queue_us_p99", Quantile(queue, 0.99), "us", n);
  report.Add("service.exec_us_mean", Mean(exec), "us", n);
  report.Add("service.wire_us_p50", Quantile(wire, 0.5), "us", n);
  std::vector<double> late = load.late_ms;
  report.Add("loadgen.late_ms_p99", Quantile(late, 0.99), "ms", late.size());

  const service::ServerStats st = service.server->stats();
  const std::uint64_t shed = st.rejected_overloaded +
                             st.rejected_inflight_cap +
                             st.rejected_queue_full;
  const std::uint64_t offered = st.admitted + shed;
  report.Add("server.shed_ratio",
             offered == 0 ? 0.0 : static_cast<double>(shed) / offered,
             "ratio", offered);
  report.Add("server.dedup_ratio",
             st.admitted == 0 ? 0.0
                              : static_cast<double>(st.deduped) / st.admitted,
             "ratio", st.admitted);
  const core::CacheStats cs = service.server->SessionCacheStats();
  const std::uint64_t hits =
      cs.topology_hits + cs.metrics_hits + cs.linkvalue_hits;
  const std::uint64_t lookups = hits + cs.topology_misses +
                                cs.metrics_misses + cs.linkvalue_misses;
  report.Add("server.session_hit_ratio",
             lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups,
             "ratio", lookups);
}

// `count` requests at `rate`: one in ten heavy (when there are heavy
// kinds), the rest cycling through the light kinds, in seed-shuffled
// order, so every seed sends the same multiset.
std::vector<Scheduled> Schedule(const std::vector<Kind>& light,
                                const std::vector<Kind>& heavy,
                                std::size_t count, double rate,
                                std::uint64_t seed) {
  std::vector<const Kind*> mix;
  for (std::size_t i = 0; i < count; ++i) {
    mix.push_back(!heavy.empty() && i % 10 == 0
                      ? &heavy[(i / 10) % heavy.size()]
                      : &light[i % light.size()]);
  }
  std::shuffle(mix.begin(), mix.end(), std::mt19937_64(seed));
  std::vector<Scheduled> schedule;
  for (std::size_t i = 0; i < count; ++i) {
    schedule.push_back({static_cast<double>(i) / rate, mix[i]->body, false});
  }
  return schedule;
}

// service-mixed's cold requests: {TS, AS, PLRG, B-A} twice, each on a
// roster seed no other request uses. The seeds are constants. They were
// picked once so that, with the default 2 lanes, service::LaneForKey puts
// every cold request on lane 1 and the seed-42 warm traffic on lane 0. A
// cold job on the warm lane would queue warm requests behind it. So this
// workload does not exercise head-of-line blocking on the warm lane.
struct ColdRequest {
  const char* topology;
  int seed;
};
constexpr ColdRequest kCold[kColdRequests] = {
    {"TS", 1001}, {"AS", 1100},  {"PLRG", 1201}, {"B-A", 1300},
    {"TS", 1401}, {"AS", 1500},  {"PLRG", 1601}, {"B-A", 1700},
};

// Roster sizes are cut so a cold job ends well inside the gap between
// cold arrivals.
std::string ColdBody(const ColdRequest& cold) {
  return R"("topology":")" + std::string(cold.topology) +
         R"(","metrics":["signature","expansion"],"scale":"small","seed":)" +
         std::to_string(cold.seed) +
         R"(,"as_nodes":600,"plrg_nodes":1500,"degree_based_nodes":1200})";
}

double PhaseSeconds(const RunOptions& options) {
  return options.quick ? 2.0 : options.seconds;
}

std::vector<Kind> Concat(std::vector<Kind> a, const std::vector<Kind>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace

WorkloadInputs ServiceInputs(const RunOptions& options) {
  WorkloadInputs in;
  in.session = core::ScaledSessionOptions("small");
  in.session.journal_path.clear();
  in.session.cache_max_mb = 0;
  if (options.quick) {
    in.jobs = {{"Tree"}, {"TS"}, {"AS"}};
  } else {
    in.jobs = {{"TS"}, {"AS"}, {"PLRG"}, {"B-A"}, {"RL"}};
  }
  in.request_lines = RequestLines(in.jobs, /*heavy=*/true);
  return in;
}

std::vector<std::string> RequestLines(const std::vector<Job>& jobs,
                                      bool heavy) {
  std::vector<std::string> lines;
  for (const Kind& k : Concat(LightKinds(jobs),
                              heavy ? HeavyKinds(jobs) : std::vector<Kind>{})) {
    lines.push_back(Line("probe", k.body));
  }
  return lines;
}

void RunServiceWarm(const RunOptions& options, Report& report) {
  const WorkloadInputs in = ServiceInputs(options);
  const std::vector<Kind> light = LightKinds(in.jobs);
  const std::vector<Kind> heavy = HeavyKinds(in.jobs);
  Service service = SetUp(in, Concat(light, heavy), /*with_linkvalues=*/true,
                          SetupReps(options), options, report);
  const std::size_t count =
      static_cast<std::size_t>(kWarmRate * PhaseSeconds(options));
  StartPhase(report);
  const Load load = RunOpenLoop(
      service, Schedule(light, heavy, count, kWarmRate, options.seed),
      report);
  service.server->Stop();
  AddLoadMetrics(load, service, report);
  if (options.layers) AddServiceLayerMetrics(load, service, report);
}

void RunServiceMixed(const RunOptions& options, Report& report) {
  const WorkloadInputs in = ServiceInputs(options);
  const std::vector<Kind> light = LightKinds(in.jobs);
  Service service = SetUp(in, light, /*with_linkvalues=*/false,
                          SetupReps(options), options, report);

  const double seconds = PhaseSeconds(options);
  std::vector<Scheduled> schedule =
      Schedule(light, {}, static_cast<std::size_t>(kWarmRate * seconds),
               kWarmRate, options.seed);
  // Cold requests: kCold (its first two in quick mode), at evenly spaced
  // times in seed-shuffled order. Their roster seeds are fixed, not drawn
  // from the run seed: a fresh graph costs what its realization costs, and
  // with seed-drawn graphs that cost alone spread cpu_ms_per_op by ~20%
  // across runs.
  const std::size_t cold = options.quick ? 2 : kColdRequests;
  std::vector<std::string> bodies;
  for (std::size_t j = 0; j < cold; ++j) bodies.push_back(ColdBody(kCold[j]));
  std::shuffle(bodies.begin(), bodies.end(), std::mt19937_64(options.seed));
  for (std::size_t j = 0; j < cold; ++j) {
    schedule.push_back(
        {(static_cast<double>(j) + 0.5) * seconds / cold, bodies[j], true});
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return a.at_s < b.at_s;
                   });
  StartPhase(report);
  const Load load = RunOpenLoop(service, schedule, report);
  service.server->Stop();
  AddLoadMetrics(load, service, report);
  if (options.layers) AddServiceLayerMetrics(load, service, report);
}

void RunServiceReplay(const WorkloadInputs& inputs, const RunOptions& options,
                      Report& report) {
  ScopedSpan span("probe.service_replay");
  WorkloadInputs in = ServiceInputs(options);
  in.jobs = inputs.jobs;
  const std::vector<Kind> light = LightKinds(in.jobs);
  Service service = SetUp(in, light, /*with_linkvalues=*/false, /*reps=*/1,
                          options, report);
  const Load load = RunOpenLoop(
      service,
      Schedule(light, {}, static_cast<std::size_t>(kReplayRate *
                                                   kReplaySeconds),
               kReplayRate, options.seed),
      report);
  service.server->Stop();
  AddServiceLayerMetrics(load, service, report);
}

}  // namespace topogen::e2e
