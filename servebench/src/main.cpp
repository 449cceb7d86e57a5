// servebench: the repository's serving benchmark.
//
// Serves the demo ECG/EEG/image artifacts in-process through
// serve::TcpServer over loopback, drives them with a closed-loop load
// generator of at most `nproc` client threads and connections, checks
// every answer against in-process predictions, and prints the end-to-end
// metrics of one workload. With --trace 1 it additionally replays a sample
// of the workload's requests through the public entry point of every module
// on the request path (serve, io, nn, core, engine/arch, health), records
// spans, and prints per-layer metrics instead. See README.md beside this
// file for the workloads, the metric -> layer -> workload map and the
// cost-table command.
//
//   servebench --prepare-fixtures DIR
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --fixtures DIR [--trace-out FILE] [--commit ID]
//   servebench --cost-table --seed N --fixtures DIR
//
// The last line of a measuring run is one JSON object with the keys
// correct, attempted, failed and metrics. Any served prediction that
// differs from the in-process prediction of the same artifact and backend
// exits with status 1 and prints no result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bitgemm.h"
#include "core/bitops.h"
#include "inputs.h"
#include "serve/demo_tasks.h"
#include "serve/model_server.h"
#include "serve/protocol.h"
#include "serve/tcp_transport.h"
#include "trace.h"

namespace {

using namespace rrambnn;
using servebench::Trace;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// -- Workloads ---------------------------------------------------------------

constexpr std::int64_t kTrainEpochs = 3;  // fixture training, untimed
// Generated rows per task (whole 60-row windows). Accuracy is taken over
// all of them, so these counts set its seed-to-seed spread.
std::int64_t RowsPerTask(const std::string& task) {
  if (task == "ecg") return 4800;
  if (task == "eeg") return 2400;
  return 9600;  // image rows are small and the task is hardest to call
}
constexpr int kSetupRepeats = 25;
/// Rows per request: one 60-row window, the demo tasks' serving batch.
constexpr std::int64_t kRowsPerRequest = 60;
/// Requests the traced run replays.
constexpr int kTracedRequests = 16;

struct Model {
  std::string alias;
  std::string task;
};

struct Workload {
  std::string name;
  std::string backend;
  std::vector<Model> models;
  /// Model index of each client connection.
  std::vector<int> connection_model;
  /// Latency limit of slo_attainment: twice the p99 the workload showed on
  /// a 4-core host with little outside load when it was defined (README.md).
  double latency_limit_ms = 0.0;
  /// The traced run injects drift and runs a health sweep after every this
  /// many replayed requests (0: never), on the served engines.
  int replay_health_every = 0;
};

constexpr double kDriftBer = 0.05;

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "biosignal-batch") {
    // The float nn prefix is nearly all of an ECG/EEG request; two
    // closed-loop connections per model send 60-row windows.
    w.backend = "rram-sharded";
    w.models = {{"ecg", "ecg"}, {"eeg", "eeg"}};
    w.connection_model = {0, 0, 1, 1};
    w.latency_limit_ms = 120.0;  // p99 ~60 ms
    // The daemon runs no health hooks here (they would serialize each
    // model's shared-lock predicts); the traced run still times one drift +
    // sweep per model on these rram-sharded engines.
    w.replay_health_every = 6;
  } else if (name == "conv-program") {
    // Packed core stages (patch gather + XNOR-popcount) dominate.
    w.backend = "reference";
    w.models = {{"image", "image"}};
    w.connection_model = {0, 0, 0, 0};
    w.latency_limit_ms = 32.0;  // p99 ~16 ms
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (biosignal-batch | conv-program)");
  }
  return w;
}

std::vector<std::string> Tasks(const Workload& w) {
  std::vector<std::string> tasks;
  for (const Model& m : w.models) {
    if (std::find(tasks.begin(), tasks.end(), m.task) == tasks.end()) {
      tasks.push_back(m.task);
    }
  }
  return tasks;
}

// -- Small helpers -------------------------------------------------------------

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

struct Usage {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

Tensor Window(const Tensor& x, std::int64_t first, std::int64_t rows) {
  const std::int64_t width = x.size() / x.dim(0);
  Shape shape = x.shape();
  shape[0] = rows;
  return Tensor(shape, std::vector<float>(x.data() + first * width,
                                          x.data() + (first + rows) * width));
}

std::string ArtifactPath(const std::string& fixtures, const std::string& task) {
  return (fs::path(fixtures) / (task + ".rbnn")).string();
}

// -- Inputs and expected answers ------------------------------------------------

/// Generated rows of one task plus the in-process prediction of every row.
struct TaskInputs {
  nn::Dataset rows;
  std::vector<std::int64_t> expected;
  std::int64_t windows = 0;

  Tensor Request(std::int64_t window) const {
    return Window(rows.x, window * kRowsPerRequest, kRowsPerRequest);
  }
};

engine::Engine LoadDeployed(const std::string& path,
                            const std::string& backend) {
  // Mirrors serve::ModelRegistry's load: artifact, backend override, deploy.
  engine::Engine eng = engine::Engine::FromArtifact(path);
  eng.config().WithBackend(backend);
  eng.EnsureDeployed();
  return eng;
}

TaskInputs MakeTaskInputs(const std::string& task, std::uint64_t seed,
                          const std::string& artifact,
                          const std::string& backend) {
  TaskInputs in;
  in.rows = servebench::MakeRequestRows(task, seed, RowsPerTask(task));
  servebench::CheckDisjointFromTraining(task, in.rows);
  in.windows = in.rows.size() / kRowsPerRequest;
  // Expected answers: the same artifact on the same backend, predicted
  // in-process with the same batch composition the daemon will serve
  // (sharded backends route rows to chips by their position in the batch).
  engine::Engine eng = LoadDeployed(artifact, backend);
  for (std::int64_t w = 0; w < in.windows; ++w) {
    const std::vector<std::int64_t> p = eng.Predict(in.Request(w));
    in.expected.insert(in.expected.end(), p.begin(), p.end());
  }
  return in;
}

double Accuracy(const std::map<std::string, TaskInputs>& inputs) {
  std::int64_t hits = 0, total = 0;
  for (const auto& [task, in] : inputs) {
    for (std::size_t i = 0; i < in.expected.size(); ++i) {
      hits += in.expected[i] == in.rows.y[i] ? 1 : 0;
      ++total;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(total);
}

/// Served answers that disagree with the in-process ones end the run.
[[noreturn]] void FailWrongPrediction(const std::string& what) {
  std::fprintf(stderr, "WRONG PREDICTION: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

// -- The daemon ----------------------------------------------------------------

std::unique_ptr<serve::ModelServer> MakeServer(const Workload& w,
                                               const std::string& fixtures) {
  serve::RegistryConfig rc;
  rc.capacity = w.models.size();
  rc.backend_override = w.backend;
  auto server = std::make_unique<serve::ModelServer>(rc);
  for (const Model& m : w.models) {
    server->registry().Register(m.alias, ArtifactPath(fixtures, m.task));
  }
  return server;
}

/// One in-process serving daemon: ModelServer + TcpServer on an ephemeral
/// loopback port, its event loops running on a background thread.
class Daemon {
 public:
  Daemon(const Workload& w, const std::string& fixtures)
      : server_(MakeServer(w, fixtures)) {
    serve::TcpServerConfig tc;
    tc.log_connections = false;
    tc.event_loops = 1;
    tc.worker_threads = std::max(1u, std::thread::hardware_concurrency());
    tcp_ = std::make_unique<serve::TcpServer>(*server_, tc);
    port_ = tcp_->Start();
    loop_ = std::thread([this] { tcp_->Run(); });
  }
  ~Daemon() {
    tcp_->RequestStop();
    loop_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  serve::ModelServer& server() { return *server_; }
  serve::TcpServer& tcp() { return *tcp_; }
  std::uint16_t port() const { return port_; }

 private:
  std::unique_ptr<serve::ModelServer> server_;
  std::unique_ptr<serve::TcpServer> tcp_;
  std::uint16_t port_ = 0;
  std::thread loop_;
};

serve::Request PredictRequest(std::uint64_t id, const std::string& model,
                              Tensor batch) {
  serve::Request r;
  r.id = id;
  r.kind = serve::RequestKind::kPredict;
  r.model = model;
  r.batch = std::move(batch);
  return r;
}

void CheckAnswer(const serve::Response& r, const TaskInputs& in,
                 std::int64_t window, const std::string& where) {
  const auto first = in.expected.begin() + window * kRowsPerRequest;
  if (!r.ok || !std::equal(r.predictions.begin(), r.predictions.end(), first,
                           first + kRowsPerRequest) ||
      static_cast<std::int64_t>(r.predictions.size()) != kRowsPerRequest) {
    FailWrongPrediction(where + ": window " + std::to_string(window) +
                        (r.ok ? " answered different labels"
                              : " failed: " + r.error));
  }
}

/// Daemon cold start: from constructing the server over the artifact paths
/// to the first correct answer from every model (artifact load, deploy /
/// RRAM programming and lazy init included). Returns the seconds it took;
/// `out` keeps the started daemon.
double ColdStart(const Workload& w, const std::string& fixtures,
                 const std::map<std::string, TaskInputs>& inputs,
                 std::unique_ptr<Daemon>& out) {
  const auto t0 = Clock::now();
  auto daemon = std::make_unique<Daemon>(w, fixtures);
  serve::TcpClient client("127.0.0.1", daemon->port());
  for (const Model& m : w.models) {
    const TaskInputs& in = inputs.at(m.task);
    const serve::Response r =
        client.Roundtrip(PredictRequest(1, m.alias, in.Request(0)));
    CheckAnswer(r, in, 0, "cold start " + m.alias);
  }
  const double s = Seconds(Clock::now() - t0);
  client.Close();
  out = std::move(daemon);
  return s;
}

// -- Load generation ------------------------------------------------------------

/// The measured window is cut into this many equal slices. End-to-end
/// figures come from the slices during which the hypervisor took the least
/// CPU time from the machine (see SummarizeSlices), so a spell of outside
/// load on a shared host moves a few slices rather than the result.
constexpr int kSlices = 10;

/// Process-wide usage, sampled by the thread that waits for the clients.
struct SliceUsage {
  double cpu_s = 0.0;       // user+sys CPU spent during the slice
  double ctx_switches = 0.0;
  double rss_mb = 0.0;      // highest sampled resident set size
  double steal = 0.0;       // share of machine CPU time stolen by the host
};

/// What one measured run saw.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // non-ok answers and requests never answered
  std::uint64_t within_limit = 0;
  std::vector<double> latency_ms;     // ok answers, client-observed
  std::vector<double> answered_s;     // ok answers: arrival, s after start
  std::vector<double> outside_us;     // client latency - server Predict
  std::uint64_t queued_peak = 0;
  std::vector<SliceUsage> slices;
  double seconds = 0.0;               // measured window

  void Merge(const RunResult& o) {
    attempted += o.attempted;
    failed += o.failed;
    within_limit += o.within_limit;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    answered_s.insert(answered_s.end(), o.answered_s.begin(),
                      o.answered_s.end());
    outside_us.insert(outside_us.end(), o.outside_us.begin(),
                      o.outside_us.end());
  }
  double failed_share() const {
    return attempted ? static_cast<double>(failed) / attempted : 0.0;
  }
};

/// Records one answer of a request sent at `start`; `t0` is the start of the
/// measured window.
void RecordAnswer(RunResult& r, const serve::Response& resp,
                  Clock::time_point t0, Clock::time_point start,
                  Clock::time_point now, double limit_ms) {
  if (!resp.ok) {
    ++r.failed;
    return;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(now - start).count();
  r.latency_ms.push_back(ms);
  r.answered_s.push_back(Seconds(now - t0));
  r.outside_us.push_back(ms * 1e3 - resp.latency_us);
  if (ms <= limit_ms) ++r.within_limit;
}

struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return t;
  double v[8] = {};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const double x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// Share of CPU time the hypervisor took from this machine since `since`
/// (the "steal" column of /proc/stat); printed with every run because it
/// explains slow runs on shared hosts. Negative when unavailable.
double StealShare(const CpuTimes& since) {
  const CpuTimes now = ReadCpuTimes();
  const double total = now.total - since.total;
  return total > 0.0 ? (now.steal - since.steal) / total : -1.0;
}

double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  long pages_total = 0, pages_resident = 0;
  if (f) {
    if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
      pages_resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Samples the transport's queue depth and the process's CPU time, context
/// switches and resident memory per slice of [t0, t0 + seconds] while the
/// client threads run.
template <class Done>
void SampleWhileRunning(Daemon& d, Clock::time_point t0, double seconds,
                        Done done, RunResult& out) {
  out.slices.assign(kSlices, SliceUsage{});
  Usage at_slice_start = ReadUsage();
  CpuTimes machine_at_slice_start = ReadCpuTimes();
  int slice = -1;
  while (!done()) {
    out.queued_peak = std::max(out.queued_peak, d.tcp().stats().queued_frames);
    const double t = Seconds(Clock::now() - t0);
    const int now_slice =
        t < 0.0 ? -1
                : std::min(kSlices, static_cast<int>(t / seconds * kSlices));
    if (now_slice != slice) {
      const Usage u = ReadUsage();
      if (slice >= 0 && slice < kSlices) {
        SliceUsage& su = out.slices[static_cast<std::size_t>(slice)];
        su.cpu_s = u.cpu_s - at_slice_start.cpu_s;
        su.ctx_switches = u.ctx_switches - at_slice_start.ctx_switches;
        su.steal = StealShare(machine_at_slice_start);
      }
      at_slice_start = u;
      machine_at_slice_start = ReadCpuTimes();
      slice = now_slice;
    }
    if (slice >= 0 && slice < kSlices) {
      SliceUsage& su = out.slices[static_cast<std::size_t>(slice)];
      su.rss_mb = std::max(su.rss_mb, ResidentMb());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Closed loop: each connection sends its next window as soon as the
/// previous answer arrived.
RunResult RunClosedLoop(const Workload& w, Daemon& d,
                        const std::map<std::string, TaskInputs>& inputs,
                        double seconds) {
  const int conns = static_cast<int>(w.connection_model.size());
  std::vector<RunResult> per(static_cast<std::size_t>(conns));
  std::atomic<int> running{conns};
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      RunResult& r = per[static_cast<std::size_t>(c)];
      const Model& m = w.models[static_cast<std::size_t>(
          w.connection_model[static_cast<std::size_t>(c)])];
      const TaskInputs& in = inputs.at(m.task);
      // Connections of one model start spread over its windows.
      int rank = 0, peers = 0;
      for (int o = 0; o < conns; ++o) {
        if (w.connection_model[static_cast<std::size_t>(o)] ==
            w.connection_model[static_cast<std::size_t>(c)]) {
          if (o < c) ++rank;
          ++peers;
        }
      }
      std::int64_t window = in.windows * rank / peers;
      try {
        serve::TcpClient client("127.0.0.1", d.port());
        for (std::uint64_t id = 1; Clock::now() < end; ++id) {
          serve::Request req = PredictRequest(id, m.alias, in.Request(window));
          const auto sent = Clock::now();
          const serve::Response resp = client.Roundtrip(req);
          const auto now = Clock::now();
          ++r.attempted;
          if (resp.ok) {
            CheckAnswer(resp, in, window, m.alias);
          }
          RecordAnswer(r, resp, t0, sent, now, w.latency_limit_ms);
          window = (window + 1) % in.windows;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %d: %s\n", c, e.what());
        ++r.failed;
      }
      running.fetch_sub(1);
    });
  }
  RunResult total;
  SampleWhileRunning(d, t0, seconds, [&] { return running.load() == 0; },
                     total);
  for (std::thread& t : threads) t.join();
  for (const RunResult& r : per) total.Merge(r);
  total.seconds = seconds;
  return total;
}

/// Medians over the run's slices (see kSlices).
struct SliceMedians {
  double requests_per_s = 0.0;
  double rows_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double cpu_us_per_row = 0.0;
  double ctx_switches_per_request = 0.0;
  double rss_mb = 0.0;
};

/// Steal share by which a slice may exceed the run's quietest one and still
/// count as quiet: below it, which slices to drop would be chosen by noise.
constexpr double kQuietSteal = 0.02;

/// Throughput, p50, CPU per row, context switches and resident memory are
/// medians over the quiet slices: those whose host steal share is at most
/// the run's median or within kQuietSteal of its lowest, whichever admits
/// more (at least half the slices; all of them where steal is not reported
/// or stays low). p99 needs at least ten samples beyond it, so it is the
/// median of the quiet slices' p99 when each holds 1000 answers, else the
/// p99 of their pooled answers.
SliceMedians SummarizeSlices(const RunResult& r) {
  const double len = r.seconds / kSlices;
  std::vector<std::vector<double>> latency(kSlices);
  for (std::size_t i = 0; i < r.latency_ms.size(); ++i) {
    const auto k = static_cast<std::size_t>(r.answered_s[i] / len);
    if (r.answered_s[i] >= 0.0 && k < latency.size()) {
      latency[k].push_back(r.latency_ms[i]);
    }
  }
  std::vector<double> steal;
  for (const SliceUsage& su : r.slices) steal.push_back(su.steal);
  const double quiet = std::max(
      Median(steal), *std::min_element(steal.begin(), steal.end()) + kQuietSteal);
  std::vector<double> rps, p50, p99, cpu, ctx, rss, pooled;
  std::size_t fewest = r.latency_ms.size();
  std::printf("slices (steal%% p50_ms p99_ms req/s):");
  for (std::size_t k = 0; k < latency.size(); ++k) {
    const double answers = static_cast<double>(latency[k].size());
    const double rows = answers * static_cast<double>(kRowsPerRequest);
    std::printf(" [%.1f %.3f %.3f %.1f]", 100.0 * r.slices[k].steal,
                Median(latency[k]), Percentile(latency[k], 0.99), answers / len);
    if (r.slices[k].steal > quiet) continue;
    fewest = std::min(fewest, latency[k].size());
    pooled.insert(pooled.end(), latency[k].begin(), latency[k].end());
    rps.push_back(answers / len);
    p50.push_back(Median(latency[k]));
    p99.push_back(Percentile(latency[k], 0.99));
    cpu.push_back(rows > 0 ? 1e6 * r.slices[k].cpu_s / rows : 0.0);
    ctx.push_back(answers > 0 ? r.slices[k].ctx_switches / answers : 0.0);
    rss.push_back(r.slices[k].rss_mb);
  }
  std::printf("; %zu quiet slices\n", rps.size());
  SliceMedians m;
  m.requests_per_s = Median(rps);
  m.rows_per_s = m.requests_per_s * static_cast<double>(kRowsPerRequest);
  m.latency_p50_ms = Median(p50);
  m.latency_p99_ms = fewest >= 1000 ? Median(p99) : Percentile(pooled, 0.99);
  m.cpu_us_per_row = Median(cpu);
  m.ctx_switches_per_request = Median(ctx);
  m.rss_mb = Median(rss);
  return m;
}

// -- Daemon counters -------------------------------------------------------------

struct DaemonCounters {
  double predict_requests = 0.0;
  double predict_latency_us = 0.0;
  double loads = 0.0;
  double resident_bytes = 0.0;
};

DaemonCounters ReadCounters(Daemon& d) {
  DaemonCounters c;
  for (const auto& info : d.server().registry().List()) {
    c.predict_requests += static_cast<double>(info.stats.requests);
    c.predict_latency_us += info.stats.total_latency_us;
  }
  c.loads = static_cast<double>(d.server().registry().loads());
  c.resident_bytes = static_cast<double>(d.server().registry().resident_bytes());
  return c;
}

// -- Traced replay ------------------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Replays one served predict step by step through each module's public
/// entry point, under a root span named "request": protocol codecs (serve),
/// registry lookup (serve), the float prefix layer by layer (nn), sign
/// packing (core) and the deployed backend (engine/arch). The steps between
/// the request decode and the response encode are the ones
/// ModelServer::Handle runs; RunTracedReplay checks the two against each
/// other. Returns the predictions.
std::vector<std::int64_t> ReplayRequest(Trace& tr, std::uint64_t rid,
                                        serve::ModelServer& server,
                                        const serve::Request& request,
                                        const std::string& task,
                                        core::BitMatrix* packed_out) {
  const int root = tr.Begin("request", rid, -1);
  const std::vector<std::uint8_t> payload =
      tr.Time("serve.protocol.encode_request", rid, root,
              [&] { return serve::EncodeRequest(request); });
  const serve::Request req = tr.Time("serve.protocol.decode_request", rid,
                                     root,
                                     [&] { return serve::DecodeRequest(payload); });
  const std::shared_ptr<serve::ServedModel> model =
      tr.Time("serve.registry.acquire", rid, root,
              [&] { return server.registry().Acquire(req.model); });
  engine::Engine& eng = model->engine();
  if (eng.config().threads > 1) {
    throw std::logic_error("replay assumes single-worker PredictRows");
  }

  // Engine::Features: minibatches of the configured size through the layers
  // before the classifier, flattened to [N, F].
  const int prefix = tr.Begin("nn.prefix", rid, root);
  const Tensor& x = req.batch;
  const std::int64_t n = x.dim(0);
  const std::int64_t batch = eng.config().batch_size;
  Tensor features;
  for (std::int64_t start = 0; start < n; start += batch) {
    const std::int64_t stop = std::min(n, start + batch);
    Tensor y = Window(x, start, stop - start);
    for (std::size_t i = 0; i < eng.classifier_start(); ++i) {
      char name[96];
      std::snprintf(name, sizeof(name), "nn.%s.layer.%02zu.%s", task.c_str(),
                    i, eng.net()[i].Name().c_str());
      y = tr.Time(name, rid, prefix, [&] { return eng.net()[i].Infer(y); });
    }
    if (y.rank() > 2) y = y.Reshape({stop - start, -1});
    if (features.size() == 0) features = Tensor({n, y.dim(1)});
    std::copy(y.data(), y.data() + y.size(),
              features.data() + start * y.dim(1));
  }
  tr.End(prefix);

  core::BitMatrix packed = tr.Time("core.sign_pack", rid, root, [&] {
    return core::BitMatrix::FromSignRows(
        std::span<const float>(features.data(),
                               static_cast<std::size_t>(features.size())),
        features.dim(0), features.dim(1));
  });
  serve::Response resp;
  resp.id = req.id;
  resp.model = req.model;
  resp.backend = eng.backend().name();
  resp.predictions = tr.Time("arch.backend", rid, root,
                             [&] { return eng.backend().PredictPacked(packed); });
  const std::vector<std::uint8_t> answer =
      tr.Time("serve.protocol.encode_response", rid, root,
              [&] { return serve::EncodeResponse(resp); });
  serve::Response decoded =
      tr.Time("serve.protocol.decode_response", rid, root,
              [&] { return serve::DecodeResponse(answer); });
  tr.End(root);
  if (packed_out) *packed_out = std::move(packed);
  return decoded.predictions;
}

/// The part of the request span at `root` that ModelServer::Handle runs:
/// the span minus its protocol codec children.
double HandledPartUs(const Trace& tr, int root) {
  const std::vector<servebench::Span>& spans = tr.spans();
  double us = spans[static_cast<std::size_t>(root)].duration_us();
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans.size();
       ++i) {
    if (spans[i].parent == root &&
        spans[i].name.rfind("serve.protocol.", 0) == 0) {
      us -= spans[i].duration_us();
    }
  }
  return us;
}

/// The daemon's post-predict health hook on a served engine, seeded the same
/// way: drift on every chip (health.drift), then a sweep that heals it before
/// the next predict (health.sweep).
void ReplayHealth(Trace& tr, std::uint64_t rid, engine::Engine& eng,
                  std::uint64_t drift_count) {
  const serve::HealthServingConfig defaults;
  health::BackendHealthAdapter& adapter = *eng.backend().health_adapter();
  tr.Time("health.drift", rid, -1, [&] {
    for (int chip = 0; chip < adapter.num_chips(); ++chip) {
      adapter.InjectChipDrift(
          chip, kDriftBer,
          defaults.drift_seed + drift_count * 1000003ull +
              static_cast<std::uint64_t>(chip) * 7919ull);
    }
  });
  tr.Time("health.sweep", rid, -1, [&] { eng.Health().CheckNow(); });
}

struct CoreCounts {
  double patch_bytes = 0.0;
  double xnor_word_ops = 0.0;
};

/// Replays the compiled program on a packed batch (core.program), then each
/// GEMM stage's kernels on its own geometry: patch gather (BuildPatchMatrix)
/// and XNOR-popcount (XnorPopcountGemm). The first stage runs on the real
/// packed batch; later stages on seeded bits of their input width (the
/// kernels' cost does not depend on the bit values). Returns predictions of
/// core.program.
std::vector<std::int64_t> ReplayCore(Trace& tr, std::uint64_t rid,
                                     const core::BnnProgram& program,
                                     const core::BitMatrix& packed,
                                     std::uint64_t seed, CoreCounts& counts) {
  const std::vector<const core::PackedGemmStage*> stages = program.GemmStages();
  std::vector<core::BitMatrix> inputs;
  Rng rng(seed);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (s == 0) {
      inputs.push_back(packed);
      continue;
    }
    const std::int64_t width = stages[s]->in_bits();
    std::vector<float> v(static_cast<std::size_t>(packed.rows() * width));
    for (float& f : v) f = rng.Uniform(-1.0f, 1.0f);
    inputs.push_back(core::BitMatrix::FromSignRows(v, packed.rows(), width));
  }
  const int root = tr.Begin("core.replay", rid, -1);
  std::vector<std::int64_t> preds = tr.Time(
      "core.program", rid, root, [&] { return program.PredictPacked(packed); });
  std::vector<std::int32_t> pops;
  auto gemm = [&](const core::BitMatrix& x, const core::BitMatrix& w) {
    tr.Time("core.xnor_gemm", rid, root,
            [&] { core::XnorPopcountGemm(x, w, pops); });
    counts.xnor_word_ops += static_cast<double>(x.rows() * w.rows() *
                                                x.words_per_row());
  };
  auto gather = [&](const core::BitMatrix& x, const core::StageGeometry& g,
                    std::int64_t c0, std::int64_t c1) {
    core::BitMatrix m = tr.Time("core.patch_gather", rid, root, [&] {
      return core::BuildPatchMatrix(x, g, c0, c1);
    });
    counts.patch_bytes += static_cast<double>(m.rows() * m.words_per_row() * 8);
    return m;
  };
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const core::PackedGemmStage& g = *stages[s];
    switch (g.lowering) {
      case core::GemmLowering::kDense:
        gemm(inputs[s], g.weights);
        break;
      case core::GemmLowering::kConv:
        gemm(gather(inputs[s], g.geom, 0, g.geom.in_channels), g.weights);
        break;
      case core::GemmLowering::kDepthwise:
        for (std::int64_t c = 0; c < g.units(); ++c) {
          gemm(gather(inputs[s], g.geom, c, c + 1), g.weights.RowSlice(c, c + 1));
        }
        break;
    }
  }
  tr.End(root);
  return preds;
}

struct ReplayResult {
  Metrics metrics;
  double untimed_share = 0.0;
  /// Replayed Handle steps over the measured ModelServer::Handle time of the
  /// same requests, minus 1: the median over each task's requests, for the
  /// task where it is furthest from 0.
  double handle_gap = 0.0;
};

/// Each replayed request runs this many times traced and as many times
/// through ModelServer::Handle, alternating. The fastest of each is compared:
/// outside load on a shared host only ever adds time.
constexpr int kReplayRounds = 5;
/// Largest |handle_gap| a complete replay shows. On a 4-core VM the gap sat
/// within +-2% on most runs, and reached -7% on EEG requests, whose float
/// prefix is dominated by fresh-page faults that the allocator's state
/// shifts between the two paths.
constexpr double kMaxHandleGap = 0.10;

/// The traced run: replays `kTracedRequests` requests of the workload
/// (evenly spaced over its windows, models in connection order) and turns
/// the spans into per-layer metrics.
ReplayResult RunTracedReplay(const Workload& w, const std::string& fixtures,
                             Daemon& daemon,
                             const std::map<std::string, TaskInputs>& inputs,
                             std::uint64_t seed, Trace& tr) {
  // Artifact loads (io) are traced once per task.
  std::uint64_t rid = 0;
  for (const std::string& task : Tasks(w)) {
    tr.Time("io.artifact_load", ++rid, -1, [&] {
      return engine::Engine::FromArtifact(ArtifactPath(fixtures, task));
    });
  }
  // An in-process server configured like the daemon, warmed so registry
  // lookups are steady-state ones.
  const std::unique_ptr<serve::ModelServer> local = MakeServer(w, fixtures);
  serve::ModelServer& server = *local;
  for (const Model& m : w.models) {
    const TaskInputs& in = inputs.at(m.task);
    CheckAnswer(server.Handle(PredictRequest(0, m.alias, in.Request(0))), in,
                0, "replay warm-up " + m.alias);
  }
  serve::TcpClient client("127.0.0.1", daemon.port());
  std::map<std::string, std::vector<double>> gaps;  // per task, per request
  std::map<std::string, int> task_replays;
  CoreCounts core_counts;
  double frame_bytes = 0.0;
  const int conns = static_cast<int>(w.connection_model.size());
  std::uint64_t drift_count = 0;
  for (int i = 0; i < kTracedRequests; ++i) {
    const Model& m = w.models[static_cast<std::size_t>(
        w.connection_model[static_cast<std::size_t>(i % conns)])];
    const TaskInputs& in = inputs.at(m.task);
    const std::int64_t window =
        (static_cast<std::int64_t>(i) * in.windows) / kTracedRequests;
    const serve::Request req = PredictRequest(++rid, m.alias, in.Request(window));
    frame_bytes += static_cast<double>(serve::EncodeRequest(req).size() + 4);
    task_replays[m.task] += kReplayRounds;

    // The same request replayed and served, alternating which goes first.
    core::BitMatrix packed;
    std::vector<double> replayed, handled;
    for (int round = 0; round < kReplayRounds; ++round) {
      for (int pass = 0; pass < 2; ++pass) {
        if ((pass == 0) == ((i + round) % 2 == 0)) {
          const int root = static_cast<int>(tr.spans().size());
          serve::Response as_response;
          as_response.predictions =
              ReplayRequest(tr, rid, server, req, m.task, &packed);
          replayed.push_back(HandledPartUs(tr, root));
          CheckAnswer(as_response, in, window, "traced replay " + m.alias);
        } else {
          const int span = tr.Begin("serve.handle", rid, -1);
          const serve::Response resp = server.Handle(req);
          tr.End(span);
          handled.push_back(tr.spans()[static_cast<std::size_t>(span)]
                                .duration_us());
          CheckAnswer(resp, in, window, "traced Handle " + m.alias);
        }
      }
    }
    gaps[m.task].push_back(
        *std::min_element(replayed.begin(), replayed.end()) /
            *std::min_element(handled.begin(), handled.end()) -
        1.0);
    CheckAnswer(tr.Time("serve.tcp.roundtrip", rid, -1,
                        [&] { return client.Roundtrip(req); }),
                in, window, "traced TCP " + m.alias);
    const std::shared_ptr<serve::ServedModel> sm =
        server.registry().Acquire(m.alias);
    serve::Response core_answer;
    core_answer.predictions =
        ReplayCore(tr, rid, sm->engine().compiled_program(), packed,
                   seed ^ rid, core_counts);
    // The program's own weights are the reference backend; RRAM backends
    // read programmed (noisy) cells and may legitimately differ.
    if (w.backend == "reference") {
      CheckAnswer(core_answer, in, window, "core replay " + m.alias);
    }
    if (w.replay_health_every > 0 && (i + 1) % w.replay_health_every == 0) {
      ReplayHealth(tr, rid, sm->engine(), ++drift_count);
    }
  }
  client.Close();

  // -- Aggregate spans -------------------------------------------------------
  const std::vector<servebench::Span>& spans = tr.spans();
  const std::vector<double> self = tr.SelfTimesUs();
  std::map<std::string, double> total_us;
  std::map<std::string, int> count;
  double root_us = 0.0, root_self_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    total_us[spans[i].name] += spans[i].duration_us();
    ++count[spans[i].name];
    if (spans[i].name == "request") {
      root_us += spans[i].duration_us();
      root_self_us += self[i];
    }
  }
  const double n = static_cast<double>(kTracedRequests);
  const double replays = n * kReplayRounds;
  // Spans of the replayed request, averaged over replays; the core replay
  // runs once per request.
  auto per_replay = [&](const std::string& name) {
    return total_us[name] / replays;
  };
  auto per_request = [&](const std::string& name) { return total_us[name] / n; };
  auto per_call = [&](const std::string& name) {
    return count[name] ? total_us[name] / count[name] : 0.0;
  };
  ReplayResult out;
  Metrics& m = out.metrics;
  m.push_back({"nn.prefix_us", {per_replay("nn.prefix"), "us"}});
  for (const auto& [name, us] : total_us) {
    if (name.rfind("nn.", 0) == 0 && name.find(".layer.") != std::string::npos) {
      const std::string task = name.substr(3, name.find('.', 3) - 3);
      m.push_back({name + "_us", {us / task_replays[task], "us"}});
    }
  }
  m.push_back({"core.sign_pack_us", {per_replay("core.sign_pack"), "us"}});
  m.push_back({"core.program_us", {per_request("core.program"), "us"}});
  m.push_back({"core.patch_gather_us", {per_request("core.patch_gather"), "us"}});
  m.push_back({"core.xnor_gemm_us", {per_request("core.xnor_gemm"), "us"}});
  m.push_back({"core.patch_bytes", {core_counts.patch_bytes / n, "B"}});
  m.push_back({"core.xnor_word_ops", {core_counts.xnor_word_ops / n, "count"}});
  m.push_back({"arch.backend_us", {per_replay("arch.backend"), "us"}});
  for (const char* p : {"encode_request", "decode_request", "encode_response",
                        "decode_response"}) {
    const std::string name = std::string("serve.protocol.") + p;
    m.push_back({name + "_us", {per_replay(name), "us"}});
  }
  m.push_back({"serve.frame_bytes", {frame_bytes / n, "B"}});
  m.push_back({"serve.handle_us", {per_call("serve.handle"), "us"}});
  m.push_back({"serve.registry.acquire_us",
               {per_replay("serve.registry.acquire"), "us"}});
  m.push_back({"serve.tcp.roundtrip_us", {per_call("serve.tcp.roundtrip"), "us"}});
  m.push_back({"io.artifact_load_us", {per_call("io.artifact_load"), "us"}});
  m.push_back({"health.sweep_us", {per_call("health.sweep"), "us"}});
  m.push_back({"health.drift_us", {per_call("health.drift"), "us"}});

  // Split of a served request, printed for reading only: the unloaded TCP
  // round trip against the replayed steps of each layer; serve is the rest
  // (transport, protocol, registry, locks, stats).
  const double rt = per_call("serve.tcp.roundtrip");
  const double nn_us = per_replay("nn.prefix");
  const double core_us = per_replay("core.sign_pack") + per_replay("arch.backend");
  std::printf("split of the unloaded round trip (%.0f us): nn %.1f%%, "
              "core+backend %.1f%%, serve %.1f%%\n",
              rt, 100.0 * nn_us / rt, 100.0 * core_us / rt,
              100.0 * std::max(0.0, rt - nn_us - core_us) / rt);

  out.untimed_share = root_self_us / root_us;
  for (const auto& [task, g] : gaps) {
    const double gap = Median(g);
    std::printf("replayed Handle steps of %s: %+.2f%% against "
                "ModelServer::Handle (median of %zu requests)\n",
                task.c_str(), 100.0 * gap, g.size());
    if (std::abs(gap) >= std::abs(out.handle_gap)) out.handle_gap = gap;
  }
  m.push_back({"trace.request_us", {root_us / replays, "us"}});
  m.push_back({"trace.untimed_share", {out.untimed_share, "share"}});
  m.push_back({"trace.overhead_share", {out.handle_gap, "share"}});
  std::printf("traced replay: %d requests x %d rounds; tracing overhead "
              "%+.2f%% (worst task); untimed share of the request span "
              "%.2f%%\n",
              kTracedRequests, kReplayRounds, 100.0 * out.handle_gap,
              100.0 * out.untimed_share);
  return out;
}

// -- Output -------------------------------------------------------------------------

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& metrics) {
  for (const auto& [name, v] : metrics) {
    std::printf("  %-44s %16.6f %s\n", name.c_str(), v.first, v.second.c_str());
  }
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].second.first);
    line += (i ? ", " : "") + Json(metrics[i].first) + ": {\"value\": " +
            value + ", \"unit\": " + Json(metrics[i].second.second) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::string HostFacts(const std::string& workload, std::uint64_t seed,
                      const std::string& commit) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"sign_pack_kernel\": " + Json(core::SignPackKernelName()) +
         ", \"xnor_gemm_kernel\": " + Json(core::XnorGemmKernelName()) +
         ", \"build_type\": " + Json(SERVEBENCH_BUILD_TYPE) +
         ", \"omp_num_threads\": " + Json(omp ? omp : "unset") +
         ", \"commit\": " + Json(commit) + ", \"workload\": " + Json(workload) +
         ", \"seed\": " + std::to_string(seed) + "}";
}

// -- Modes ----------------------------------------------------------------------------

int PrepareFixtures(const std::string& dir) {
  fs::create_directories(dir);
  for (const std::string task : {"ecg", "eeg", "image"}) {
    const std::string path = ArtifactPath(dir, task);
    if (fs::exists(path)) continue;
    const serve::DemoTask demo = serve::MakeDemoTask(task);
    engine::Engine trainer(serve::DemoServingConfig(kTrainEpochs), demo.factory);
    (void)trainer.Train(demo.train, demo.val);
    trainer.SaveArtifact(path);
    std::fprintf(stderr, "trained fixture %s\n", path.c_str());
  }
  return 0;
}

int RunWorkload(const std::string& name, std::uint64_t seed, double seconds,
                bool trace, const std::string& fixtures,
                const std::string& trace_out, const std::string& commit) {
  const Workload w = MakeWorkload(name);
  const std::string host = HostFacts(name, seed, commit);
  std::printf("host %s\n", host.c_str());

  std::map<std::string, TaskInputs> inputs;
  for (const std::string& task : Tasks(w)) {
    inputs[task] =
        MakeTaskInputs(task, seed, ArtifactPath(fixtures, task), w.backend);
    std::printf("inputs %s: %lld rows, digest %016llx\n", task.c_str(),
                static_cast<long long>(inputs[task].rows.size()),
                static_cast<unsigned long long>(
                    servebench::InputDigest(inputs[task].rows)));
  }

  std::unique_ptr<Daemon> daemon;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    daemon.reset();
    setups.push_back(ColdStart(w, fixtures, inputs, daemon));
  }
  std::printf("cold start %.4f s (median of %d)\n", Median(setups),
              kSetupRepeats);

  const DaemonCounters before = ReadCounters(*daemon);
  const CpuTimes cpu_before = ReadCpuTimes();
  const RunResult run = RunClosedLoop(w, *daemon, inputs, seconds);
  const DaemonCounters after = ReadCounters(*daemon);
  const SliceMedians med =
      SummarizeSlices(run);

  const std::size_t samples = run.latency_ms.size();
  std::printf("%s: %llu requests attempted, %llu failed, %zu latency samples "
              "(%zu beyond p99); host CPU steal %.1f%%\n",
              name.c_str(), static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), samples,
              samples / 100, 100.0 * StealShare(cpu_before));
  Metrics metrics;
  if (!trace) {
    metrics = {
        {"setup_s", {Median(setups), "s"}},
        {"rows_per_s", {med.rows_per_s, "rows/s"}},
        {"latency_p50_ms", {med.latency_p50_ms, "ms"}},
        {"latency_p99_ms", {med.latency_p99_ms, "ms"}},
        {"answered_share", {1.0 - run.failed_share(), "share"}},
        {"accuracy", {Accuracy(inputs), "share"}},
        {"peak_rss_mb", {med.rss_mb, "MB"}},
        {"cpu_us_per_row", {med.cpu_us_per_row, "us"}},
        {"slo_attainment",
         {static_cast<double>(run.within_limit) / run.attempted, "share"}},
    };
    PrintResult(true, run.attempted, run.failed, metrics);
    return 0;
  }

  Trace tr;
  const ReplayResult replay =
      RunTracedReplay(w, fixtures, *daemon, inputs, seed, tr);
  if (!trace_out.empty()) {
    fs::create_directories(fs::path(trace_out).parent_path());
    tr.WriteJsonLines(trace_out);
    std::printf("spans written to %s\n", trace_out.c_str());
  }
  // A request span whose children leave more than this uncovered is missing
  // a timer.
  constexpr double kMaxUntimedShare = 0.05;
  if (replay.untimed_share > kMaxUntimedShare) {
    std::fprintf(stderr,
                 "TRACE INCOMPLETE: %.2f%% of the replayed request span is "
                 "outside every layer span (limit %.0f%%)\n",
                 100.0 * replay.untimed_share, 100.0 * kMaxUntimedShare);
    return 4;
  }
  // Replayed Handle steps that take more or less time than ModelServer::Handle
  // on the same requests either miss work the served path does, time work it
  // does not do, or carry tracing overhead; the split would not be the
  // program's.
  if (std::abs(replay.handle_gap) > kMaxHandleGap) {
    std::fprintf(stderr,
                 "TRACE INCOMPLETE: the replayed Handle steps take %+.2f%% of "
                 "ModelServer::Handle's time on the same requests (limit "
                 "%.0f%%)\n",
                 100.0 * replay.handle_gap, 100.0 * kMaxHandleGap);
    return 4;
  }
  const double requests = after.predict_requests - before.predict_requests;
  metrics = replay.metrics;
  metrics.push_back({"engine.predict_mean_us",
                     {(after.predict_latency_us - before.predict_latency_us) /
                          requests,
                      "us"}});
  metrics.push_back({"serve.outside_predict_us", {Median(run.outside_us), "us"}});
  metrics.push_back({"serve.tcp.queued_frames_peak",
                     {static_cast<double>(run.queued_peak), "count"}});
  metrics.push_back({"serve.registry.loads", {after.loads, "count"}});
  metrics.push_back({"serve.registry.resident_bytes", {after.resident_bytes, "B"}});
  metrics.push_back({"proc.ctx_switches_per_request",
                     {med.ctx_switches_per_request, "count"}});
  metrics.push_back({"loadgen.sent", {static_cast<double>(run.attempted), "count"}});
  PrintResult(true, run.attempted, run.failed, metrics);
  return 0;
}

/// The ROADMAP cost table (task x backend x phase), reproduced from the
/// same decomposition the traced run records: medians over twenty 60-row
/// requests of the seed's rows, after a warm-up request.
int CostTable(std::uint64_t seed, const std::string& fixtures) {
  const std::vector<std::pair<std::string, std::string>> cells = {
      {"ecg", "reference"}, {"ecg", "rram-sharded"}, {"eeg", "reference"},
      {"eeg", "rram-sharded"}, {"image", "reference"}};
  constexpr int kRequests = 20;
  std::printf("| task / backend | served predict | float prefix | sign-pack | "
              "packed backend | decode / encode |\n"
              "|---|---|---|---|---|---|\n");
  for (const auto& [task, backend] : cells) {
    Workload w;
    w.backend = backend;
    w.models = {{task, task}};
    TaskInputs in =
        MakeTaskInputs(task, seed, ArtifactPath(fixtures, task), backend);
    const std::unique_ptr<serve::ModelServer> local = MakeServer(w, fixtures);
    serve::ModelServer& server = *local;
    CheckAnswer(server.Handle(PredictRequest(0, task, in.Request(0))), in, 0,
                "cost table warm-up");
    std::map<std::string, std::vector<double>> us;
    double frame_kb = 0.0;
    for (int i = 0; i < kRequests; ++i) {
      const std::int64_t window = (i * in.windows) / kRequests;
      const serve::Request req = PredictRequest(i + 1, task, in.Request(window));
      Trace tr;
      serve::Response as_response;
      as_response.predictions =
          ReplayRequest(tr, 1, server, req, task, nullptr);
      CheckAnswer(as_response, in, window, "cost table " + task);
      CheckAnswer(tr.Time("serve.handle", 2, -1, [&] { return server.Handle(req); }),
                  in, window, "cost table Handle " + task);
      std::map<std::string, double> sum;
      for (const servebench::Span& s : tr.spans()) sum[s.name] += s.duration_us();
      for (const char* k : {"serve.handle", "nn.prefix", "core.sign_pack",
                            "arch.backend", "serve.protocol.decode_request",
                            "serve.protocol.encode_response"}) {
        us[k].push_back(sum[k]);
      }
      frame_kb = static_cast<double>(serve::EncodeRequest(req).size() + 4) / 1024.0;
    }
    auto fmt = [&](const char* k) {
      const double v = Median(us[k]);
      char b[32];
      if (v >= 1000.0) {
        std::snprintf(b, sizeof(b), "%.1f ms", v / 1000.0);
      } else {
        std::snprintf(b, sizeof(b), "%.0f µs", v);
      }
      return std::string(b);
    };
    std::printf("| %s / %s | %s | %s | %s | %s | %s / %s (%.0f KB frame) |\n",
                task.c_str(), backend.c_str(), fmt("serve.handle").c_str(),
                fmt("nn.prefix").c_str(), fmt("core.sign_pack").c_str(),
                fmt("arch.backend").c_str(),
                fmt("serve.protocol.decode_request").c_str(),
                fmt("serve.protocol.encode_response").c_str(), frame_kb);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, fixtures, trace_out, commit = "unknown", prepare;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false, cost_table = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        seed = std::stoull(value());
      } else if (a == "--seconds") {
        seconds = std::stod(value());
      } else if (a == "--trace") {
        trace = value() != "0";
      } else if (a == "--fixtures") {
        fixtures = value();
      } else if (a == "--trace-out") {
        trace_out = value();
      } else if (a == "--commit") {
        commit = value();
      } else if (a == "--prepare-fixtures") {
        prepare = value();
      } else if (a == "--cost-table") {
        cost_table = true;
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
    if (!prepare.empty()) return PrepareFixtures(prepare);
    if (fixtures.empty()) throw std::invalid_argument("--fixtures is required");
    if (cost_table) return CostTable(seed, fixtures);
    if (workload.empty()) throw std::invalid_argument("--workload is required");
    if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    return RunWorkload(workload, seed, seconds, trace, fixtures, trace_out,
                       commit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
