// Tenant-facing serving benchmark for the multi-tenant tuning server.
//
//   serve_bench --workload sim_tenants|fleet_rounds --seed N --seconds S
//               --trace 0|1 --workdir DIR [--trace-out FILE] [--commit ID]
//
// Hosts TuningServer + Dispatcher + net::TcpServer in-process, wired the way
// `cdbtune_serve --listen ... --tcp` wires them, and drives them from four
// closed-loop FrameClient connections. The session list (workload family,
// Table 1 hardware preset, session seed, safety flag) is drawn from --seed;
// one run replays that fixed list in whole passes until --seconds of pass
// time measured without hypervisor steal. Every pass is checked bit for bit
// against an in-process re-drive of the same list through TuningServer at
// one compute thread.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same list
// with spans around the calls into each layer and prints per-layer metrics.
// The last stdout line is the result object; the lines before it carry the
// host context, per-verb failure accounting and sample counts. See
// servebench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "env/simulated_cdb.h"
#include "nn/simd/dispatch.h"
#include "rl/ddpg.h"
#include "rl/noise.h"
#include "server/dispatch.h"
#include "server/net/frame_client.h"
#include "server/net/tcp_server.h"
#include "server/protocol.h"
#include "server/tuning_server.h"
#include "trace.h"
#include "tuner/cdbtune.h"
#include "tuner/tuning_session.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace {

using namespace cdbtune;
using servebench::NowNs;
using servebench::ScopedSpan;
using servebench::Span;
using servebench::Tracer;

// ---------------------------------------------------------------------------
// Fixed benchmark parameters.

constexpr size_t kClients = 4;            // Closed-loop connections.
constexpr int kSetups = 3;                // Set-ups per run; setup_s is their median.
constexpr size_t kTenantSessions = 1024;  // sim_tenants pass size.
constexpr int kTenantSteps = 5;           // STEP requests per tenant episode.
constexpr size_t kFleetSessions = 64;     // fleet_rounds sessions per cycle.
constexpr size_t kFleetCycles = 4;        // Distinct cycles, run in rotation.
constexpr int kFleetSteps = 8;            // Step budget of a fleet session.
constexpr int kFleetRoundsBeforeSave = 4;
// Idle-server rounds in each sim_tenants operator tail.
constexpr int kTailRounds = 300;
constexpr int kPings = 2000;
constexpr int kTrainProbeSteps = 32;
constexpr double kLoadPerCoreThreshold = 1.0;
constexpr double kStealPctThreshold = 10.0;
// Passes measured while the hypervisor stole more than this share of the
// CPU are set aside, and measuring goes on for at most kMeasureCap times
// --seconds of wall time.
constexpr double kPassStealPct = 2.0;
constexpr double kMeasureCap = 2.0;
// Untimed passes before the measured ones: the first passes after set-up
// ran up to 2x slower (allocator, caches, worker wake-up).
constexpr double kWarmupSeconds = 1.5;
// Same derivation TuningServer applies to a session's exploration stream.
constexpr uint64_t kNoiseSeedSalt = 0x9E3779B97F4A7C15ULL;

const char* const kWorkloadNames[] = {"sysbench_rw", "sysbench_ro",
                                      "sysbench_wo", "tpcc",
                                      "tpch",        "ycsb"};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "serve_bench: %s\n", message.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  // Server threads may still run; end the process without unwinding them.
  std::_Exit(1);
}

template <typename T>
T Must(util::StatusOr<T> value, const std::string& what) {
  if (!value.ok()) Die(what + ": " + value.status().ToString());
  return std::move(value).value();
}

void MustOk(const util::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Statistics.

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Samples per window so that the q-th percentile has at least ten samples
/// beyond it.
size_t WindowFor(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

/// The q-th percentile of each run of WindowFor(q) consecutive samples, and
/// the median of those: one slow stretch of a shared host then moves the
/// figure by at most one window. Falls back to the pooled percentile when
/// there are fewer than two windows.
double WindowedPercentile(const std::vector<double>& samples, double q) {
  const size_t windows = samples.size() / WindowFor(q);
  if (windows < 2) return Percentile(samples, q);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = w * samples.size() / windows;
    const size_t end = (w + 1) * samples.size() / windows;
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + begin, samples.begin() + end), q));
  }
  return Median(std::move(per_window));
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// The seeded session list.

struct TenantSpec {
  std::string workload;
  env::HardwareSpec hardware;
  uint64_t seed = 0;
  int safety = 0;
  int steps = 0;
};

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Workload family, Table 1 preset and session seed are drawn per session;
/// safety is on for exactly half of the list, in seeded positions.
std::vector<TenantSpec> MakeSessionList(uint64_t seed, size_t count,
                                        int steps) {
  const std::vector<env::HardwareSpec> presets = {
      env::CdbA(), env::CdbB(), env::CdbC(), env::CdbD(), env::CdbE()};
  uint64_t state = seed * 0x2545F4914F6CDD1DULL + 0x1234567ULL;
  std::vector<int> safety(count);
  for (size_t i = 0; i < count; ++i) safety[i] = i < count / 2 ? 1 : 0;
  for (size_t i = count; i > 1; --i) {
    std::swap(safety[i - 1], safety[SplitMix64(&state) % i]);
  }
  std::vector<TenantSpec> list;
  list.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    TenantSpec t;
    t.workload = kWorkloadNames[SplitMix64(&state) % 6];
    t.hardware = presets[SplitMix64(&state) % presets.size()];
    t.seed = 1000 + SplitMix64(&state) % 1000000007ULL;
    t.safety = safety[i];
    t.steps = steps;
    list.push_back(std::move(t));
  }
  return list;
}

std::string OpenRequest(const TenantSpec& t) {
  return "OPEN engine=sim workload=" + t.workload +
         " ram_gb=" + server::FormatDouble(t.hardware.ram_gb) +
         " disk_gb=" + server::FormatDouble(t.hardware.disk_gb) +
         " seed=" + std::to_string(t.seed) +
         " steps=" + std::to_string(t.steps) +
         " safety=" + std::to_string(t.safety);
}

/// The SessionSpec the Dispatcher builds from OpenRequest(t).
server::SessionSpec ToSessionSpec(const TenantSpec& t) {
  server::SessionSpec spec;
  spec.engine = "sim";
  spec.workload = Must(server::WorkloadByName(t.workload), "workload");
  spec.seed = t.seed;
  spec.max_steps = t.steps;
  spec.safety = t.safety;
  spec.hardware =
      env::MakeInstance("custom", t.hardware.ram_gb, t.hardware.disk_gb);
  return spec;
}

// ---------------------------------------------------------------------------
// Session outcomes, compared bit for bit between the TCP run and the
// in-process reference.

struct Outcome {
  std::string close;   // "steps=.. tps0=.. best_tps=.. best_p99=.."
  std::string config;  // BEST_CONFIG rendering.
  double tps0 = 0.0;
  double best_tps = 0.0;

  bool operator==(const Outcome& other) const {
    return close == other.close && config == other.config;
  }
};

/// Value of `key` in an "OK k=v k=v" reply; empty when absent.
std::string ReplyValue(const std::string& reply, const std::string& key) {
  std::istringstream in(reply);
  std::string token;
  const std::string prefix = key + "=";
  while (in >> token) {
    if (token.compare(0, prefix.size(), prefix) == 0) {
      return token.substr(prefix.size());
    }
  }
  return "";
}

std::string CloseFields(const std::string& steps, const std::string& tps0,
                        const std::string& best_tps,
                        const std::string& best_p99) {
  return "steps=" + steps + " tps0=" + tps0 + " best_tps=" + best_tps +
         " best_p99=" + best_p99;
}

Outcome OutcomeFromReplies(const std::string& config_reply,
                           const std::string& close_reply) {
  Outcome o;
  o.config = ReplyValue(config_reply, "config");
  o.close = CloseFields(ReplyValue(close_reply, "steps"),
                        ReplyValue(close_reply, "tps0"),
                        ReplyValue(close_reply, "best_tps"),
                        ReplyValue(close_reply, "best_p99"));
  o.tps0 = std::atof(ReplyValue(close_reply, "tps0").c_str());
  o.best_tps = std::atof(ReplyValue(close_reply, "best_tps").c_str());
  return o;
}

Outcome OutcomeFromResult(const tuner::OnlineTuneResult& r,
                          const std::string& config) {
  Outcome o;
  o.config = config;
  o.close = CloseFields(std::to_string(r.steps),
                        server::FormatDouble(r.initial.throughput),
                        server::FormatDouble(r.best.throughput),
                        server::FormatDouble(r.best.latency));
  o.tps0 = r.initial.throughput;
  o.best_tps = r.best.throughput;
  return o;
}

/// Geometric mean of best_tps / tps0.
double TunedGain(const std::vector<Outcome>& outcomes) {
  double log_sum = 0.0;
  size_t n = 0;
  for (const Outcome& o : outcomes) {
    if (o.tps0 <= 0.0 || o.best_tps <= 0.0) continue;
    log_sum += std::log(o.best_tps / o.tps0);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

size_t CountMismatches(const std::vector<Outcome>& got,
                       const std::vector<Outcome>& want) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  size_t bad = 0;
  for (size_t i = 0; i < got.size(); ++i) bad += got[i] == want[i] ? 0 : 1;
  return bad;
}

// ---------------------------------------------------------------------------
// Server wiring and set-up.

bool IsFleet(const std::string& workload) { return workload == "fleet_rounds"; }

server::TuningServerOptions ServerOptionsFor(const std::string& workload) {
  server::TuningServerOptions options;
  if (IsFleet(workload)) {
    options.max_sessions = 64;
    options.train_iters_per_round = 1;
  }
  return options;
}

tuner::CdbTuneOptions StandardModelOptions() {
  tuner::CdbTuneOptions options;
  options.max_offline_steps = 200;
  options.seed = 41;
  return options;
}

/// One serving stack, built the way the daemon builds it: train the
/// standard model, persist it, load it into a fresh tuner, adopt it, start
/// the TCP front end. Members are declared so that destruction stops the
/// front end before the dispatcher and server it points to.
struct Stack {
  std::unique_ptr<env::SimulatedCdb> offline_db;
  std::unique_ptr<tuner::CdbTuner> offline;  // Keeps the offline memory pool.
  std::unique_ptr<env::SimulatedCdb> model_db;
  std::unique_ptr<tuner::CdbTuner> trained;  // The loaded standard model.
  std::unique_ptr<server::TuningServer> server;
  std::unique_ptr<server::Dispatcher> dispatcher;
  std::unique_ptr<server::net::TcpServer> tcp;
  double setup_s = 0.0;
};

/// Records [start, now) as a span under `parent` when tracing.
void AddSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request, int64_t start_ns) {
  if (tracer != nullptr) tracer->Add(name, parent, request, start_ns, NowNs());
}

/// Set-up runs at one compute thread: on a shared 4-core host the 4-thread
/// pool made OfflineTrain swing between 2 and 5 s, while one thread holds
/// 2.5-2.9 s and yields the same model bit for bit (the determinism
/// contract). Serving then runs at the configured thread count.
std::unique_ptr<Stack> SetUp(const std::string& workload,
                             const std::string& model_prefix, Tracer* tracer) {
  util::ComputeContext& compute = util::ComputeContext::Get();
  const size_t serving_threads = compute.threads();
  compute.SetThreads(1);
  auto stack = std::make_unique<Stack>();
  const uint64_t request = tracer != nullptr ? tracer->NewRequest() : 0;
  const int64_t t0 = NowNs();
  const uint64_t root =
      tracer != nullptr ? tracer->Begin("setup", 0, request) : 0;

  stack->offline_db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 41);
  stack->offline = std::make_unique<tuner::CdbTuner>(
      stack->offline_db.get(),
      knobs::KnobSpace::AllTunable(&stack->offline_db->registry()),
      StandardModelOptions());
  int64_t t = NowNs();
  stack->offline->OfflineTrain(workload::SysbenchReadWrite());
  AddSpan(tracer, "CdbTuner::OfflineTrain", root, request, t);

  t = NowNs();
  MustOk(stack->offline->SaveModel(model_prefix), "SaveModel");
  AddSpan(tracer, "CdbTuner::SaveModel", root, request, t);

  stack->model_db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 41);
  tuner::CdbTuneOptions load_options;
  load_options.seed = 41;
  stack->trained = std::make_unique<tuner::CdbTuner>(
      stack->model_db.get(),
      knobs::KnobSpace::AllTunable(&stack->model_db->registry()),
      load_options);
  t = NowNs();
  MustOk(stack->trained->LoadModel(model_prefix), "LoadModel");
  AddSpan(tracer, "CdbTuner::LoadModel", root, request, t);

  stack->server =
      std::make_unique<server::TuningServer>(ServerOptionsFor(workload));
  t = NowNs();
  MustOk(stack->server->AdoptModel(*stack->trained), "AdoptModel");
  AddSpan(tracer, "TuningServer::AdoptModel", root, request, t);

  stack->dispatcher = std::make_unique<server::Dispatcher>(stack->server.get());
  stack->tcp = std::make_unique<server::net::TcpServer>(
      stack->dispatcher.get(), server::net::TcpServerOptions{});
  stack->dispatcher->RegisterTransport(stack->tcp.get());
  t = NowNs();
  MustOk(stack->tcp->Start(), "TcpServer::Start");
  AddSpan(tracer, "TcpServer::Start", root, request, t);

  if (tracer != nullptr) tracer->End(root);
  stack->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  compute.SetThreads(serving_threads);
  return stack;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The model files written by SaveModel(prefix), keyed by suffix.
std::map<std::string, std::string> ModelFiles(const std::string& prefix) {
  namespace fs = std::filesystem;
  const fs::path p(prefix);
  const std::string stem = p.filename().string();
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(p.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, stem.size(), stem) == 0 && name.size() > stem.size() &&
        name[stem.size()] == '.') {
      files[name.substr(stem.size())] = ReadFile(entry.path().string());
    }
  }
  return files;
}

// ---------------------------------------------------------------------------
// Client side: closed-loop FrameClient connections with per-verb failure
// accounting.

struct VerbCounts {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t err = 0;        // "ERR ..." replies.
  uint64_t busy = 0;       // Typed BUSY frames (request shed).
  uint64_t transport = 0;  // Connection or protocol errors.

  uint64_t failed() const { return err + busy + transport; }
};

struct ClientLog {
  std::map<std::string, VerbCounts> verbs;
  std::vector<double> open_ms, step_ms, episode_ms, round_ms, save_ms,
      restore_ms;
  uint64_t episodes = 0;

  void Merge(const ClientLog& other) {
    for (const auto& [verb, c] : other.verbs) {
      VerbCounts& mine = verbs[verb];
      mine.attempted += c.attempted;
      mine.ok += c.ok;
      mine.err += c.err;
      mine.busy += c.busy;
      mine.transport += c.transport;
    }
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(open_ms, other.open_ms);
    append(step_ms, other.step_ms);
    append(episode_ms, other.episode_ms);
    append(round_ms, other.round_ms);
    append(save_ms, other.save_ms);
    append(restore_ms, other.restore_ms);
    episodes += other.episodes;
  }
};

/// Where a call's span goes in the traced run (tracer null = untraced).
struct TraceContext {
  Tracer* tracer = nullptr;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// One FrameClient::Call. Returns true on an "OK" reply; the reply payload
/// (or the error) lands in *reply and the round trip in *ms.
bool Call(server::net::FrameClient& client, const std::string& verb,
          const std::string& request, ClientLog* log, std::string* reply,
          double* ms, const TraceContext& trace = {}) {
  VerbCounts& counts = log->verbs[verb];
  ++counts.attempted;
  const int64_t start = NowNs();
  util::StatusOr<std::string> response = client.Call(request);
  const int64_t end = NowNs();
  *ms = Ms(end - start);
  if (trace.tracer != nullptr) {
    trace.tracer->Add("FrameClient::Call " + verb, trace.parent,
                      trace.request, start, end);
  }
  if (!response.ok()) {
    if (response.status().code() == util::StatusCode::kFailedPrecondition) {
      ++counts.busy;
    } else {
      ++counts.transport;
    }
    *reply = response.status().ToString();
    return false;
  }
  *reply = std::move(response).value();
  if (reply->compare(0, 2, "OK") == 0) {
    ++counts.ok;
    return true;
  }
  ++counts.err;
  return false;
}

/// Runs fn(c) on one thread per client and joins them.
void ForEachClient(size_t clients, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(fn, c);
  for (std::thread& thread : threads) thread.join();
}

struct Pass {
  size_t batch = 0;  // Index of the session batch this pass ran.
  double wall_s = 0.0;
  double steal_pct = 0.0;  // Hypervisor steal during the pass.
  std::vector<Outcome> outcomes;
  ClientLog log;
};

/// sim_tenants: every connection runs its share of the list back to back:
/// OPEN, STEP until the budget is spent, BEST_CONFIG, CLOSE.
Pass RunTenantPass(std::vector<server::net::FrameClient>& clients,
                   const std::vector<TenantSpec>& list, Tracer* tracer) {
  Pass pass;
  pass.outcomes.resize(list.size());
  std::vector<ClientLog> logs(clients.size());
  const int64_t start = NowNs();
  ForEachClient(clients.size(), [&](size_t c) {
    ClientLog& log = logs[c];
    for (size_t i = c; i < list.size(); i += clients.size()) {
      TraceContext trace;
      trace.tracer = tracer;
      if (tracer != nullptr) {
        trace.request = tracer->NewRequest();
        trace.parent = tracer->Begin("client.episode", 0, trace.request);
      }
      const int64_t t0 = NowNs();
      std::string reply, config_reply;
      double ms = 0.0;
      bool ok = Call(clients[c], "OPEN", OpenRequest(list[i]), &log, &reply,
                     &ms, trace);
      if (ok) log.open_ms.push_back(ms);
      const std::string id = ReplyValue(reply, "id");
      for (int s = 0; ok && s < list[i].steps; ++s) {
        ok = Call(clients[c], "STEP", "STEP id=" + id, &log, &reply, &ms,
                  trace);
        if (ok) log.step_ms.push_back(ms);
        if (ReplyValue(reply, "phase") != "TUNING") break;
      }
      ok = ok && Call(clients[c], "BEST_CONFIG", "BEST_CONFIG id=" + id, &log,
                      &config_reply, &ms, trace);
      ok = ok && Call(clients[c], "CLOSE", "CLOSE id=" + id, &log, &reply, &ms,
                      trace);
      if (tracer != nullptr) tracer->End(trace.parent);
      if (!ok) continue;
      log.episode_ms.push_back(Ms(NowNs() - t0));
      ++log.episodes;
      pass.outcomes[i] = OutcomeFromReplies(config_reply, reply);
    }
  });
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  for (const ClientLog& log : logs) pass.log.Merge(log);
  return pass;
}

/// fleet_rounds: one operator cycle over kFleetSessions sessions.
///   OPEN all (fixed order across the connections), ROUND x4, SAVE,
///   CLOSE all, RESTORE, ROUND until none is left, BEST_CONFIG + CLOSE all.
Pass RunFleetPass(std::vector<server::net::FrameClient>& clients,
                  const std::vector<TenantSpec>& list,
                  const std::string& checkpoint, Tracer* tracer) {
  Pass pass;
  pass.outcomes.resize(list.size());
  std::vector<ClientLog> logs(clients.size());
  std::vector<std::string> ids(list.size());
  std::vector<int64_t> opened_at(list.size(), 0);
  std::atomic<bool> failed{false};
  TraceContext trace;
  trace.tracer = tracer;
  if (tracer != nullptr) {
    trace.request = tracer->NewRequest();
    trace.parent = tracer->Begin("client.cycle", 0, trace.request);
  }
  const int64_t start = NowNs();

  // Opens go out in list order, round-robin over the connections, so that
  // session ids and experience shards are the same on every pass.
  std::mutex turn_mu;
  std::condition_variable turn_cv;
  size_t turn = 0;
  ForEachClient(clients.size(), [&](size_t c) {
    for (size_t i = c; i < list.size(); i += clients.size()) {
      std::unique_lock<std::mutex> lock(turn_mu);
      turn_cv.wait(lock, [&] { return turn == i; });
      lock.unlock();
      std::string reply;
      double ms = 0.0;
      opened_at[i] = NowNs();
      if (Call(clients[c], "OPEN", OpenRequest(list[i]), &logs[c], &reply, &ms,
               trace)) {
        logs[c].open_ms.push_back(ms);
        ids[i] = ReplyValue(reply, "id");
      } else {
        failed = true;
      }
      lock.lock();
      ++turn;
      turn_cv.notify_all();
    }
  });

  ClientLog& op = logs[0];
  server::net::FrameClient& operator_client = clients[0];
  std::string reply;
  double ms = 0.0;
  auto round = [&]() -> size_t {
    if (!Call(operator_client, "ROUND", "ROUND", &op, &reply, &ms, trace)) {
      failed = true;
      return 0;
    }
    op.round_ms.push_back(ms);
    const size_t stepped = std::strtoull(ReplyValue(reply, "sessions").c_str(),
                                         nullptr, 10);
    // Each stepped session's tenant sees its step complete with the round.
    for (size_t s = 0; s < stepped; ++s) op.step_ms.push_back(ms);
    return stepped;
  };
  for (int r = 0; r < kFleetRoundsBeforeSave && !failed; ++r) round();
  if (!failed && Call(operator_client, "SAVE", "SAVE path=" + checkpoint, &op,
                      &reply, &ms, trace)) {
    op.save_ms.push_back(ms);
  } else {
    failed = true;
  }
  ForEachClient(clients.size(), [&](size_t c) {
    for (size_t i = c; i < list.size() && !failed; i += clients.size()) {
      std::string r;
      double t = 0.0;
      if (!Call(clients[c], "CLOSE", "CLOSE id=" + ids[i], &logs[c], &r, &t,
                trace)) {
        failed = true;
      }
    }
  });
  if (!failed && Call(operator_client, "RESTORE", "RESTORE path=" + checkpoint,
                      &op, &reply, &ms, trace)) {
    op.restore_ms.push_back(ms);
  } else {
    failed = true;
  }
  while (!failed && round() > 0) {
  }
  ForEachClient(clients.size(), [&](size_t c) {
    for (size_t i = c; i < list.size() && !failed; i += clients.size()) {
      std::string config_reply, close_reply;
      double t = 0.0;
      if (Call(clients[c], "BEST_CONFIG", "BEST_CONFIG id=" + ids[i], &logs[c],
               &config_reply, &t, trace) &&
          Call(clients[c], "CLOSE", "CLOSE id=" + ids[i], &logs[c],
               &close_reply, &t, trace)) {
        logs[c].episode_ms.push_back(Ms(NowNs() - opened_at[i]));
        ++logs[c].episodes;
        pass.outcomes[i] = OutcomeFromReplies(config_reply, close_reply);
      } else {
        failed = true;
      }
    }
  });
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  if (tracer != nullptr) tracer->End(trace.parent);
  for (const ClientLog& log : logs) pass.log.Merge(log);
  return pass;
}

/// sim_tenants operator tail, between tenant passes and outside their
/// window: idle-server rounds, then a checkpoint and a restore of the
/// post-adoption base (so replay memory does not grow with run length).
ClientLog RunOperatorTail(server::net::FrameClient& client,
                          const std::string& checkpoint,
                          const std::string& base_checkpoint) {
  ClientLog log;
  std::string reply;
  double ms = 0.0;
  for (int r = 0; r < kTailRounds; ++r) {
    if (Call(client, "ROUND", "ROUND", &log, &reply, &ms)) {
      log.round_ms.push_back(ms);
    }
  }
  if (Call(client, "SAVE", "SAVE path=" + checkpoint, &log, &reply, &ms)) {
    log.save_ms.push_back(ms);
  }
  if (Call(client, "RESTORE", "RESTORE path=" + base_checkpoint, &log, &reply,
           &ms)) {
    log.restore_ms.push_back(ms);
  }
  return log;
}

// ---------------------------------------------------------------------------
// In-process reference: the same list straight through TuningServer at one
// compute thread.

std::string RenderConfig(const server::TuningServer& srv, int id) {
  return Must(srv.RenderBestConfig(id), "RenderBestConfig");
}

std::vector<Outcome> ReferenceOutcomes(tuner::CdbTuner& trained,
                                       const std::string& workload,
                                       const std::vector<TenantSpec>& list) {
  util::ComputeContext& compute = util::ComputeContext::Get();
  const size_t threads = compute.threads();
  compute.SetThreads(1);
  server::TuningServer srv(ServerOptionsFor(workload));
  MustOk(srv.AdoptModel(trained), "reference AdoptModel");
  std::vector<Outcome> outcomes;
  if (IsFleet(workload)) {
    std::vector<int> ids;
    for (const TenantSpec& t : list) {
      ids.push_back(Must(srv.Open(ToSessionSpec(t)), "reference Open"));
    }
    while (Must(srv.StepRound(), "reference StepRound") > 0) {
    }
    for (int id : ids) {
      const std::string config = RenderConfig(srv, id);
      outcomes.push_back(
          OutcomeFromResult(Must(srv.Close(id), "reference Close"), config));
    }
  } else {
    for (const TenantSpec& t : list) {
      const int id = Must(srv.Open(ToSessionSpec(t)), "reference Open");
      for (int s = 0; s < t.steps; ++s) {
        Must(srv.Step(id), "reference Step");
        if (Must(srv.GetStatus(id), "reference GetStatus").phase !=
            tuner::SessionPhase::kTuning) {
          break;
        }
      }
      const std::string config = RenderConfig(srv, id);
      outcomes.push_back(
          OutcomeFromResult(Must(srv.Close(id), "reference Close"), config));
    }
  }
  compute.SetThreads(threads);
  return outcomes;
}

// ---------------------------------------------------------------------------
// Host context and output.

struct HostContext {
  unsigned nproc = 0;
  double load_before = 0.0;
  double load_after = 0.0;
  std::string cpu_model;
  std::string simd_tier;
  size_t compute_threads = 0;
  size_t tcp_workers = 0;
  std::string build_type;
  std::string commit;
  double steal_pct = 0.0;  // CPU time the hypervisor took during the run.
  bool all_passes_stolen = false;
  bool loaded = false;
  std::vector<uint64_t> cpu_before;
};

/// The aggregate "cpu" line of /proc/stat (user nice system idle iowait irq
/// softirq steal ...), in clock ticks.
std::vector<uint64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::vector<uint64_t> ticks;
  uint64_t value = 0;
  for (int i = 0; i < 8 && in >> value; ++i) ticks.push_back(value);
  return ticks;
}

/// Share of CPU time stolen by the hypervisor between two CpuTicks().
double StealPct(const std::vector<uint64_t>& before,
                const std::vector<uint64_t>& after) {
  if (before.size() != 8 || after.size() != 8) return 0.0;
  uint64_t total = 0;
  for (size_t i = 0; i < 8; ++i) total += after[i] - before[i];
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(after[7] - before[7]) /
         static_cast<double>(total);
}

double LoadAverage1() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintHost(const HostContext& h) {
  std::printf(
      "{\"host\": {\"nproc\": %u, \"load1_before\": %s, \"load1_after\": %s, "
      "\"load_per_core_threshold\": %s, \"steal_pct\": %s, "
      "\"steal_pct_threshold\": %s, \"loaded\": %s, \"cpu_model\": %s, "
      "\"simd_tier\": %s, \"compute_threads\": %zu, \"tcp_workers\": %zu, "
      "\"clients\": %zu, \"build_type\": %s, \"commit\": %s}}\n",
      h.nproc, JsonNumber(h.load_before).c_str(),
      JsonNumber(h.load_after).c_str(),
      JsonNumber(kLoadPerCoreThreshold).c_str(),
      JsonNumber(h.steal_pct).c_str(), JsonNumber(kStealPctThreshold).c_str(),
      h.loaded ? "true" : "false",
      JsonString(h.cpu_model).c_str(), JsonString(h.simd_tier).c_str(),
      h.compute_threads, h.tcp_workers, kClients,
      JsonString(h.build_type).c_str(), JsonString(h.commit).c_str());
  if (h.loaded) {
    std::fprintf(stderr,
                 "serve_bench: WARNING host load per core %.2f/%.2f (limit "
                 "%.2f) or steal %.1f%% (limit %.1f%%) crossed its threshold; "
                 "this run is flagged loaded\n",
                 h.load_before / h.nproc, h.load_after / h.nproc,
                 kLoadPerCoreThreshold, h.steal_pct, kStealPctThreshold);
  }
}

void PrintOps(const std::string& workload, const ClientLog& log,
              const server::TransportStats& net) {
  std::string out = "{\"ops\": {\"workload\": " + JsonString(workload) +
                    ", \"verbs\": {";
  bool first = true;
  for (const auto& [verb, c] : log.verbs) {
    const double share =
        c.attempted == 0 ? 0.0
                         : static_cast<double>(c.failed()) /
                               static_cast<double>(c.attempted);
    out += std::string(first ? "" : ", ") + JsonString(verb) +
           ": {\"attempted\": " + std::to_string(c.attempted) +
           ", \"ok\": " + std::to_string(c.ok) +
           ", \"err\": " + std::to_string(c.err) +
           ", \"busy\": " + std::to_string(c.busy) +
           ", \"transport\": " + std::to_string(c.transport) +
           ", \"failed_share\": " + JsonNumber(share) + "}";
    first = false;
  }
  out += "}, \"transport\": {\"shed_busy\": " + std::to_string(net.shed_busy) +
         ", \"sendq_drops\": " + std::to_string(net.sendq_drops) +
         ", \"read_pauses\": " + std::to_string(net.read_pauses) +
         ", \"frames_in\": " + std::to_string(net.frames_in) +
         ", \"frames_out\": " + std::to_string(net.frames_out) +
         ", \"accepted\": " + std::to_string(net.accepted) + "}}}";
  std::printf("%s\n", out.c_str());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string samples = "{\"samples\": {";
  std::string body;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const char* sep = i == 0 ? "" : ", ";
    samples += sep + JsonString(m.name) + ": " + std::to_string(m.samples);
    body += sep + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("%s}}\n", samples.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), body.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Traced run: timing decorators over TuningSession's public seams.

/// Per-session trace cursor: the span new seam spans hang under, plus the
/// seam inputs kept for the shadow calls after the round.
struct SeamLog {
  Tracer* tracer = nullptr;
  uint64_t request = 0;
  uint64_t parent = 0;
  std::vector<env::StressResult> stresses;
  std::vector<std::vector<double>> actions;
  uint64_t applies = 0;
  uint64_t crashes = 0;
  int64_t forward_ns = 0;  // Time inside DdpgAgent::SelectAction.
};

class TimedDb : public env::DbInterface {
 public:
  TimedDb(std::unique_ptr<env::DbInterface> inner, SeamLog* log)
      : inner_(std::move(inner)), log_(log) {}

  const knobs::KnobRegistry& registry() const override {
    return inner_->registry();
  }
  const env::HardwareSpec& hardware() const override {
    return inner_->hardware();
  }
  util::Status ApplyConfig(const knobs::Config& config) override {
    ScopedSpan span(*log_->tracer, "DbInterface::ApplyConfig", log_->parent,
                    log_->request);
    util::Status status = inner_->ApplyConfig(config);
    ++log_->applies;
    if (status.code() == util::StatusCode::kCrashed) ++log_->crashes;
    return status;
  }
  const knobs::Config& current_config() const override {
    return inner_->current_config();
  }
  util::StatusOr<env::StressResult> RunStress(
      const workload::WorkloadSpec& spec, double duration_s) override {
    util::StatusOr<env::StressResult> result = [&] {
      ScopedSpan span(*log_->tracer, "DbInterface::RunStress", log_->parent,
                      log_->request);
      return inner_->RunStress(spec, duration_s);
    }();
    if (result.ok()) log_->stresses.push_back(*result);
    return result;
  }
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<env::DbInterface> inner_;
  SeamLog* log_;
};

/// The shared agent of the traced session layer, serialized by one lock
/// exactly like TuningServer's model lock.
struct SharedAgent {
  std::mutex mu;
  std::unique_ptr<rl::DdpgAgent> agent;
  std::vector<double> best_action;
};

class TimedPolicy : public tuner::PolicySource {
 public:
  TimedPolicy(SharedAgent* shared, rl::ActionNoise* noise, SeamLog* log)
      : shared_(shared), noise_(noise), log_(log) {}

  std::vector<double> ProposeAction(const std::vector<double>& state,
                                    bool explore) override {
    ScopedSpan span(*log_->tracer, "PolicySource::ProposeAction", log_->parent,
                    log_->request);
    std::lock_guard<std::mutex> lock(shared_->mu);
    const int64_t start = NowNs();
    std::vector<double> action =
        shared_->agent->SelectAction(state, explore ? noise_ : nullptr);
    const int64_t end = NowNs();
    log_->tracer->Add("DdpgAgent::SelectAction", span.id(), log_->request,
                      start, end);
    log_->forward_ns += end - start;
    log_->actions.push_back(action);
    return action;
  }
  std::vector<double> BestKnownAction() const override {
    return shared_->best_action;
  }

 private:
  SharedAgent* shared_;
  rl::ActionNoise* noise_;
  SeamLog* log_;
};

class TimedSink : public tuner::ExperienceSink {
 public:
  TimedSink(tuner::ShardedExperiencePool* pool, size_t shard, SeamLog* log)
      : pool_(pool), shard_(shard), log_(log) {}
  void Record(tuner::Experience experience) override {
    ScopedSpan span(*log_->tracer, "ExperienceSink::Record", log_->parent,
                    log_->request);
    pool_->Add(shard_, std::move(experience));
  }

 private:
  tuner::ShardedExperiencePool* pool_;
  size_t shard_;
  SeamLog* log_;
};

/// One tenant in the traced session layer, assembled the way TuningServer
/// assembles a session, with every seam wrapped.
struct TracedSession {
  TracedSession(const TenantSpec& t, size_t shard, SharedAgent* shared,
                const tuner::MetricsCollector& collector_template,
                tuner::ShardedExperiencePool* pool,
                const server::TuningServerOptions& server_options,
                Tracer* tracer)
      : spec(ToSessionSpec(t)),
        safety(t.safety == 1),
        collector(collector_template),
        scratch_collector(collector_template),
        noise(shared->agent->options().action_dim,
              shared->agent->options().noise_theta,
              shared->agent->options().noise_sigma,
              util::Rng(spec.seed ^ kNoiseSeedSalt)),
        policy(shared, &noise, &log),
        sink(pool, shard, &log) {
    log.tracer = tracer;
    log.request = tracer->NewRequest();
    db = std::make_unique<TimedDb>(
        env::SimulatedCdb::MysqlCdb(spec.hardware, spec.seed), &log);
    tuner::TuningSessionOptions options;
    options.max_steps = spec.max_steps;
    options.stress_duration_s = server_options.stress_duration_s;
    options.reward_type = server_options.reward_type;
    options.throughput_coeff = server_options.throughput_coeff;
    options.latency_coeff = server_options.latency_coeff;
    options.reward_clip = server_options.reward_clip;
    options.reward_scale = server_options.reward_scale;
    options.safety = server_options.safety;
    options.safety.enabled = safety;
    tuning = std::make_unique<tuner::TuningSession>(
        db.get(), knobs::KnobSpace::AllTunable(&db->registry()),
        spec.workload, &collector, &policy, &sink, options);
  }

  server::SessionSpec spec;
  bool safety;
  SeamLog log;
  std::unique_ptr<TimedDb> db;
  tuner::MetricsCollector collector;
  tuner::MetricsCollector scratch_collector;  // Shadow Process calls.
  rl::OrnsteinUhlenbeckNoise noise;
  TimedPolicy policy;
  TimedSink sink;
  std::unique_ptr<tuner::TuningSession> tuning;
  size_t shadowed_stresses = 0;
  size_t shadowed_actions = 0;
  std::vector<uint64_t> step_spans;
};

/// TuningServer::RenderBestConfig, over a traced session.
std::string RenderConfig(TracedSession& s) {
  const knobs::KnobRegistry& registry = s.db->registry();
  const knobs::Config defaults = registry.DefaultConfig();
  const knobs::Config& best = s.tuning->result().best_config;
  std::string out;
  for (size_t i = 0; i < registry.size() && i < best.size(); ++i) {
    if (best[i] == defaults[i]) continue;
    if (!out.empty()) out += ',';
    out += registry.def(i).name + "=" + server::FormatDouble(best[i]);
  }
  return out;
}

struct SessionLayer {
  std::vector<Outcome> outcomes;
  std::vector<double> fanout_ms, train_ms, policy_serial_ms, parallel_eff;
  uint64_t applies = 0, crashes = 0, rollbacks = 0, dropped = 0;
  std::vector<uint64_t> step_spans_safe, step_spans_plain;

  void Merge(const SessionLayer& other) {
    for (auto [to, from] :
         {std::pair{&fanout_ms, &other.fanout_ms},
          std::pair{&train_ms, &other.train_ms},
          std::pair{&policy_serial_ms, &other.policy_serial_ms},
          std::pair{&parallel_eff, &other.parallel_eff}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    step_spans_safe.insert(step_spans_safe.end(),
                           other.step_spans_safe.begin(),
                           other.step_spans_safe.end());
    step_spans_plain.insert(step_spans_plain.end(),
                            other.step_spans_plain.begin(),
                            other.step_spans_plain.end());
    applies += other.applies;
    crashes += other.crashes;
    rollbacks += other.rollbacks;
    dropped += other.dropped;
  }
};

/// Drives the list through traced TuningSessions. Each "round" fans the
/// sessions in `groups` out with ComputeContext::RunConcurrent (as
/// StepRound does), then merges new experiences into the shared agent and
/// takes `train_iters` gradient steps, then replays the round's seam inputs
/// through direct, timed MetricsCollector::Process, Recommender::BuildConfig
/// and RewardFunction::Compute calls.
///
/// sim_tenants: groups of kClients sessions, each task a whole episode
/// (the four concurrent tenants of the TCP run), frozen model.
/// fleet_rounds: all sessions begin in order, then rounds step every tuning
/// session once until none is left, one gradient step per round.
SessionLayer RunSessionLayer(Tracer& tracer, tuner::CdbTuner& trained,
                             const std::string& workload,
                             const std::vector<TenantSpec>& list) {
  const server::TuningServerOptions options = ServerOptionsFor(workload);
  const bool fleet = IsFleet(workload);
  SharedAgent shared;
  shared.agent = std::make_unique<rl::DdpgAgent>(trained.agent().options());
  shared.agent->CloneWeightsFrom(trained.agent());
  shared.best_action = trained.best_offline_action();
  tuner::ShardedExperiencePool pool(options.max_sessions,
                                    options.shard_capacity);
  const tuner::MetricsCollector collector_template = trained.collector();
  util::ComputeContext& compute = util::ComputeContext::Get();

  SessionLayer out;
  std::vector<std::unique_ptr<TracedSession>> sessions;
  const uint64_t open_request = tracer.NewRequest();

  auto begin = [&](TracedSession& s, uint64_t parent) {
    ScopedSpan span(tracer, "TuningSession::Begin", parent, s.log.request);
    s.log.parent = span.id();
    MustOk(s.tuning->Begin(), "traced Begin");
  };
  auto step = [&](TracedSession& s, uint64_t parent) {
    ScopedSpan span(tracer, "TuningSession::Step", parent, s.log.request);
    s.log.parent = span.id();
    s.step_spans.push_back(span.id());
    Must(s.tuning->Step(), "traced Step");
  };

  // One round over `round` (indices into sessions); `work` runs per task.
  auto run_round = [&](const std::vector<size_t>& round,
                       const std::function<void(TracedSession&, uint64_t)>&
                           work) {
    const uint64_t request = tracer.NewRequest();
    ScopedSpan root(tracer, "round", 0, request);
    const int64_t fan_start = NowNs();
    std::vector<int64_t> task_ns(round.size(), 0);
    int64_t forward_before = 0;
    for (size_t index : round) forward_before += sessions[index]->log.forward_ns;
    {
      ScopedSpan fanout(tracer, "ComputeContext::RunConcurrent", root.id(),
                        request);
      std::vector<std::function<void()>> tasks;
      for (size_t k = 0; k < round.size(); ++k) {
        tasks.push_back([&, k] {
          TracedSession& s = *sessions[round[k]];
          const int64_t start = NowNs();
          {
            ScopedSpan task(tracer, "round.task", fanout.id(), s.log.request);
            work(s, task.id());
          }
          task_ns[k] = NowNs() - start;
        });
      }
      compute.RunConcurrent(std::move(tasks));
    }
    const double fan_ms = Ms(NowNs() - fan_start);
    out.fanout_ms.push_back(fan_ms);

    const int64_t train_start = NowNs();
    {
      ScopedSpan train(tracer, "round.merge_train", root.id(), request);
      std::vector<tuner::Experience> fresh = pool.CollectNew();
      std::lock_guard<std::mutex> lock(shared.mu);
      for (tuner::Experience& e : fresh) {
        ScopedSpan observe(tracer, "DdpgAgent::Observe", train.id(), request);
        shared.agent->Observe(std::move(e.transition));
      }
      for (int i = 0; i < options.train_iters_per_round; ++i) {
        ScopedSpan train_step(tracer, "DdpgAgent::TrainStep", train.id(),
                              request);
        shared.agent->TrainStep();
      }
    }
    out.train_ms.push_back(Ms(NowNs() - train_start));

    // Shadow calls on copies of the seam inputs the round produced.
    ScopedSpan shadow(tracer, "round.shadow", root.id(), request);
    for (size_t index : round) {
      TracedSession& s = *sessions[index];
      tuner::Recommender recommender(&s.tuning->space());
      const knobs::Config base = s.db->registry().DefaultConfig();
      for (; s.shadowed_actions < s.log.actions.size(); ++s.shadowed_actions) {
        ScopedSpan call(tracer, "Recommender::BuildConfig", shadow.id(),
                        s.log.request);
        recommender.BuildConfig(s.log.actions[s.shadowed_actions], base);
      }
      tuner::RewardFunction reward(options.reward_type,
                                   options.throughput_coeff,
                                   options.latency_coeff);
      if (!s.log.stresses.empty()) {
        reward.SetInitial(
            tuner::MetricsCollector::ToPerfPoint(s.log.stresses[0].external));
      }
      for (; s.shadowed_stresses < s.log.stresses.size();
           ++s.shadowed_stresses) {
        const env::StressResult& stress = s.log.stresses[s.shadowed_stresses];
        {
          ScopedSpan call(tracer, "MetricsCollector::Process", shadow.id(),
                          s.log.request);
          s.scratch_collector.Process(stress);
        }
        if (s.shadowed_stresses == 0) continue;
        const tuner::PerfPoint prev = tuner::MetricsCollector::ToPerfPoint(
            s.log.stresses[s.shadowed_stresses - 1].external);
        const tuner::PerfPoint curr =
            tuner::MetricsCollector::ToPerfPoint(stress.external);
        ScopedSpan call(tracer, "RewardFunction::Compute", shadow.id(),
                        s.log.request);
        reward.Compute(prev, curr);
      }
    }
    // Parallel efficiency and the serialized policy time of this round.
    double task_total = 0.0;
    for (int64_t ns : task_ns) task_total += Ms(ns);
    int64_t forward_after = 0;
    for (size_t index : round) forward_after += sessions[index]->log.forward_ns;
    out.policy_serial_ms.push_back(Ms(forward_after - forward_before));
    const double threads = static_cast<double>(
        std::min(compute.threads(), std::max<size_t>(round.size(), 1)));
    if (fan_ms > 0.0) out.parallel_eff.push_back(task_total / (threads * fan_ms));
  };

  std::vector<size_t> all;
  for (size_t i = 0; i < list.size(); ++i) {
    sessions.push_back(std::make_unique<TracedSession>(
        list[i], fleet ? i : i % kClients, &shared, collector_template, &pool,
        options, &tracer));
    all.push_back(i);
  }
  if (fleet) {
    ScopedSpan open(tracer, "open", 0, open_request);
    for (auto& s : sessions) begin(*s, open.id());
    while (true) {
      std::vector<size_t> round;
      for (size_t i : all) {
        if (sessions[i]->tuning->phase() == tuner::SessionPhase::kTuning) {
          round.push_back(i);
        }
      }
      run_round(round, [&](TracedSession& s, uint64_t parent) {
        step(s, parent);
      });
      if (round.empty()) break;
    }
  } else {
    for (size_t g = 0; g < sessions.size(); g += kClients) {
      std::vector<size_t> round;
      for (size_t i = g; i < std::min(g + kClients, sessions.size()); ++i) {
        round.push_back(i);
      }
      run_round(round, [&](TracedSession& s, uint64_t parent) {
        begin(s, parent);
        for (int k = 0; k < s.spec.max_steps; ++k) {
          step(s, parent);
          if (s.tuning->phase() != tuner::SessionPhase::kTuning) break;
        }
      });
    }
  }
  for (auto& s : sessions) {
    const std::string config = RenderConfig(*s);
    MustOk(s->tuning->Finish(), "traced Finish");
    out.outcomes.push_back(OutcomeFromResult(s->tuning->result(), config));
    out.applies += s->log.applies;
    out.crashes += s->log.crashes;
    if (s->tuning->guardrail() != nullptr) {
      out.rollbacks += s->tuning->guardrail()->rollbacks();
    }
    auto& spans = s->safety ? out.step_spans_safe : out.step_spans_plain;
    spans.insert(spans.end(), s->step_spans.begin(), s->step_spans.end());
  }
  out.dropped = pool.total_dropped();
  return out;
}

/// In-process twin: server A is driven through Dispatcher::Dispatch, server
/// B by direct TuningServer calls, request by request on the same seeded
/// stream. Dispatch self time is A's span minus B's.
struct Twin {
  std::vector<Outcome> outcomes_dispatch, outcomes_direct;
  std::vector<double> dispatch_self_us;
  std::vector<double> round_us_per_session;  // StepRound / sessions stepped.
  double checkpoint_bytes = 0.0;              // The last checkpoint written.

  void Merge(const Twin& other) {
    dispatch_self_us.insert(dispatch_self_us.end(),
                            other.dispatch_self_us.begin(),
                            other.dispatch_self_us.end());
    round_us_per_session.insert(round_us_per_session.end(),
                                other.round_us_per_session.begin(),
                                other.round_us_per_session.end());
    checkpoint_bytes = other.checkpoint_bytes;
  }
};

Twin RunTwin(Tracer& tracer, tuner::CdbTuner& trained,
             const std::string& workload, const std::vector<TenantSpec>& list,
             const std::string& dir) {
  const server::TuningServerOptions options = ServerOptionsFor(workload);
  server::TuningServer a(options), b(options);
  MustOk(a.AdoptModel(trained), "twin AdoptModel");
  MustOk(b.AdoptModel(trained), "twin AdoptModel");
  server::Dispatcher dispatcher(&a);
  const std::string ckpt_a = dir + "/twin-a.ckpt";
  const std::string ckpt_b = dir + "/twin-b.ckpt";
  Twin twin;
  const uint64_t request = tracer.NewRequest();
  ScopedSpan root(tracer, "twin", 0, request);

  // One request on both servers; returns A's reply.
  auto both = [&](const std::string& verb, const std::string& line,
                  const char* direct_name, const std::function<void()>& direct) {
    const int64_t a0 = NowNs();
    server::DispatchResult result = dispatcher.Dispatch(line);
    const int64_t a1 = NowNs();
    tracer.Add("Dispatcher::Dispatch " + verb, root.id(), request, a0, a1);
    if (result.response.compare(0, 2, "OK") != 0) {
      Die("twin " + line + ": " + result.response);
    }
    const int64_t b0 = NowNs();
    direct();
    const int64_t b1 = NowNs();
    tracer.Add(direct_name, root.id(), request, b0, b1);
    twin.dispatch_self_us.push_back(static_cast<double>((a1 - a0) - (b1 - b0)) /
                                    1e3);
    return result.response;
  };
  auto open = [&](const TenantSpec& t, int* id_b) {
    const std::string reply =
        both("OPEN", OpenRequest(t), "TuningServer::Open", [&] {
          *id_b = Must(b.Open(ToSessionSpec(t)), "twin Open");
        });
    return ReplyValue(reply, "id");
  };
  auto finish = [&](const std::string& id_a, int id_b) {
    std::string config_b;
    tuner::OnlineTuneResult result_b;
    const std::string config_reply =
        both("BEST_CONFIG", "BEST_CONFIG id=" + id_a,
             "TuningServer::RenderBestConfig",
             [&] { config_b = RenderConfig(b, id_b); });
    const std::string close_reply =
        both("CLOSE", "CLOSE id=" + id_a, "TuningServer::Close",
             [&] { result_b = Must(b.Close(id_b), "twin Close"); });
    twin.outcomes_dispatch.push_back(
        OutcomeFromReplies(config_reply, close_reply));
    twin.outcomes_direct.push_back(OutcomeFromResult(result_b, config_b));
  };
  auto round = [&] {
    size_t stepped = 0;
    int64_t round_ns = 0;
    both("ROUND", "ROUND", "TuningServer::StepRound", [&] {
      const int64_t start = NowNs();
      stepped = Must(b.StepRound(), "twin StepRound");
      round_ns = NowNs() - start;
    });
    if (stepped > 0) {
      twin.round_us_per_session.push_back(static_cast<double>(round_ns) / 1e3 /
                                          static_cast<double>(stepped));
    }
    return stepped;
  };
  auto save = [&] {
    both("SAVE", "SAVE path=" + ckpt_a, "TuningServer::SaveCheckpoint",
         [&] { MustOk(b.SaveCheckpoint(ckpt_b), "twin SaveCheckpoint"); });
    twin.checkpoint_bytes =
        static_cast<double>(std::filesystem::file_size(ckpt_b));
  };
  auto restore = [&] {
    both("RESTORE", "RESTORE path=" + ckpt_a, "TuningServer::RestoreCheckpoint",
         [&] { Must(b.RestoreCheckpoint(ckpt_b), "twin RestoreCheckpoint"); });
  };

  if (IsFleet(workload)) {
    std::vector<std::string> ids_a;
    std::vector<int> ids_b(list.size());
    for (size_t i = 0; i < list.size(); ++i) ids_a.push_back(open(list[i], &ids_b[i]));
    for (int r = 0; r < kFleetRoundsBeforeSave; ++r) round();
    save();
    for (size_t i = 0; i < list.size(); ++i) {
      both("CLOSE", "CLOSE id=" + ids_a[i], "TuningServer::Close",
           [&] { Must(b.Close(ids_b[i]), "twin Close"); });
    }
    restore();
    while (round() > 0) {
    }
    for (size_t i = 0; i < list.size(); ++i) finish(ids_a[i], ids_b[i]);
  } else {
    for (const TenantSpec& t : list) {
      int id_b = -1;
      const std::string id_a = open(t, &id_b);
      for (int s = 0; s < t.steps; ++s) {
        const std::string reply =
            both("STEP", "STEP id=" + id_a, "TuningServer::Step",
                 [&] { Must(b.Step(id_b), "twin Step"); });
        if (ReplyValue(reply, "phase") != "TUNING") break;
      }
      finish(id_a, id_b);
    }
    // The operator tail as the timed run interleaves it, a few times over.
    for (int tail = 0; tail < 8; ++tail) {
      for (int r = 0; r < kTailRounds; ++r) round();
      save();
      restore();
    }
  }
  return twin;
}

// ---------------------------------------------------------------------------
// Span queries.

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.duration_ns()) / 1e3);
  }
  return out;
}

double MedianUs(const std::vector<Span>& spans, const std::string& name) {
  return Median(DurationsUs(spans, name));
}

// ---------------------------------------------------------------------------
// The two modes.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
  std::string commit = "unknown";
};

HostContext StartHost(const Args& args) {
  HostContext host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  host.load_before = LoadAverage1();
  host.cpu_before = CpuTicks();
  host.cpu_model = CpuModel();
  host.simd_tier = nn::simd::TierName(nn::simd::ActiveTier());
  host.compute_threads = util::ComputeContext::Get().threads();
  host.tcp_workers = server::net::TcpServerOptions{}.worker_threads;
  host.build_type = SERVEBENCH_BUILD_TYPE;
  host.commit = args.commit;
  return host;
}

void FinishHost(HostContext* host) {
  host->load_after = LoadAverage1();
  host->steal_pct = StealPct(host->cpu_before, CpuTicks());
  host->loaded = host->load_before / host->nproc > kLoadPerCoreThreshold ||
                 host->load_after / host->nproc > kLoadPerCoreThreshold ||
                 host->steal_pct > kStealPctThreshold ||
                 host->all_passes_stolen;
}

/// Set-up kSetups times (each stack replaces the last); checks every set-up
/// produced byte-identical model files.
std::unique_ptr<Stack> SetUpRepeatedly(const Args& args,
                                       std::vector<double>* setup_s,
                                       Tracer* tracer, bool* same_model) {
  std::unique_ptr<Stack> stack;
  std::map<std::string, std::string> first_model;
  *same_model = true;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    const std::string prefix = args.workdir + "/model-" + std::to_string(k);
    stack = SetUp(args.workload, prefix, tracer);
    setup_s->push_back(stack->setup_s);
    std::map<std::string, std::string> files = ModelFiles(prefix);
    if (k == 0) {
      first_model = std::move(files);
      if (first_model.empty()) *same_model = false;
    } else if (files != first_model) {
      *same_model = false;
    }
  }
  return stack;
}

std::vector<server::net::FrameClient> Connect(const Stack& stack) {
  std::vector<server::net::FrameClient> clients(kClients);
  for (auto& client : clients) {
    MustOk(client.Connect("127.0.0.1", stack.tcp->port()), "Connect");
  }
  return clients;
}

/// The seeded session list, split into the batches passes rotate through:
/// one batch of kTenantSessions for sim_tenants, kFleetCycles cycles of
/// kFleetSessions for fleet_rounds.
std::vector<std::vector<TenantSpec>> SessionBatches(const Args& args) {
  const bool fleet = IsFleet(args.workload);
  const size_t per_batch = fleet ? kFleetSessions : kTenantSessions;
  const size_t batches = fleet ? kFleetCycles : 1;
  const std::vector<TenantSpec> list = MakeSessionList(
      args.seed, per_batch * batches, fleet ? kFleetSteps : kTenantSteps);
  std::vector<std::vector<TenantSpec>> out;
  for (size_t b = 0; b < batches; ++b) {
    out.emplace_back(list.begin() + b * per_batch,
                     list.begin() + (b + 1) * per_batch);
  }
  return out;
}

Pass RunPass(Stack& stack, std::vector<server::net::FrameClient>& clients,
             const std::vector<std::vector<TenantSpec>>& batches, size_t batch,
             const Args& args, const std::string& base_checkpoint,
             Tracer* tracer) {
  Pass pass;
  if (IsFleet(args.workload)) {
    // Every cycle starts from the adopted model: reset outside the timing.
    Must(stack.server->RestoreCheckpoint(base_checkpoint), "reset restore");
    pass = RunFleetPass(clients, batches[batch], args.workdir + "/cycle.ckpt",
                        tracer);
  } else {
    pass = RunTenantPass(clients, batches[batch], tracer);
  }
  pass.batch = batch;
  return pass;
}

std::vector<std::vector<Outcome>> References(
    tuner::CdbTuner& trained, const std::string& workload,
    const std::vector<std::vector<TenantSpec>>& batches) {
  std::vector<std::vector<Outcome>> references;
  for (const auto& batch : batches) {
    references.push_back(ReferenceOutcomes(trained, workload, batch));
  }
  return references;
}

int RunTimed(const Args& args) {
  HostContext host = StartHost(args);
  std::vector<double> setup_s;
  bool same_model = true;
  std::unique_ptr<Stack> stack =
      SetUpRepeatedly(args, &setup_s, nullptr, &same_model);
  const double rss_after_setup = PeakRssMb();
  const std::vector<std::vector<TenantSpec>> batches = SessionBatches(args);
  const std::string base = args.workdir + "/base.ckpt";
  MustOk(stack->server->SaveCheckpoint(base), "base SaveCheckpoint");
  // The reference runs first, while the front end is idle, so that every
  // pass is checked as it ends and its outcomes need not be kept.
  const std::vector<std::vector<Outcome>> references =
      References(*stack->trained, args.workload, batches);
  const double rss_after_reference = PeakRssMb();
  std::vector<server::net::FrameClient> clients = Connect(*stack);

  // Passes rotate through the batches. Warm-up passes are checked like the
  // others but not timed; the sim_tenants operator tail runs between passes.
  // tuned_gain covers each batch once, from the first pass that ran it.
  std::vector<Pass> warmup, passes;
  ClientLog tail;
  size_t next_batch = 0;
  size_t mismatches = 0;
  std::vector<std::vector<Outcome>> first_outcomes(batches.size());
  auto run_pass = [&]() {
    const size_t batch = next_batch++ % batches.size();
    Pass pass = RunPass(*stack, clients, batches, batch, args, base, nullptr);
    mismatches += CountMismatches(pass.outcomes, references[batch]);
    if (first_outcomes[batch].empty()) {
      first_outcomes[batch] = std::move(pass.outcomes);
    }
    pass.outcomes = {};
    return pass;
  };
  const int64_t warm_until =
      NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
  do {
    warmup.push_back(run_pass());
  } while (NowNs() < warm_until);
  // Measure until --seconds of pass time ran with the hypervisor stealing
  // at most kPassStealPct of the CPU, or until kMeasureCap x --seconds of
  // wall time. A pass (with its operator tail) above that line is set aside:
  // on a shared VM, steal bursts of 10-25% halved throughput for tens of
  // seconds. When no pass qualifies, every pass counts and the run is
  // flagged loaded.
  ClientLog all_ops;
  for (const Pass& pass : warmup) all_ops.Merge(pass.log);
  std::vector<Pass> stolen;
  ClientLog stolen_tail;
  double kept_s = 0.0;
  const int64_t cap =
      NowNs() + static_cast<int64_t>(kMeasureCap * args.seconds * 1e9);
  do {
    const std::vector<uint64_t> ticks = CpuTicks();
    Pass pass = run_pass();
    ClientLog pass_tail;
    if (!IsFleet(args.workload)) {
      pass_tail =
          RunOperatorTail(clients[0], args.workdir + "/tail.ckpt", base);
    }
    pass.steal_pct = StealPct(ticks, CpuTicks());
    all_ops.Merge(pass.log);
    all_ops.Merge(pass_tail);
    if (pass.steal_pct <= kPassStealPct) {
      kept_s += pass.wall_s;
      tail.Merge(pass_tail);
      passes.push_back(std::move(pass));
    } else {
      stolen_tail.Merge(pass_tail);
      stolen.push_back(std::move(pass));
    }
  } while (kept_s < args.seconds && NowNs() < cap);
  if (passes.empty()) {
    passes = std::move(stolen);
    stolen.clear();
    tail = std::move(stolen_tail);
    host.all_passes_stolen = true;
  }

  // Throughput is the median over passes; latencies pool every sample.
  ClientLog log = tail;
  std::vector<double> pass_rates;
  for (const Pass& pass : passes) {
    log.Merge(pass.log);
    pass_rates.push_back(static_cast<double>(pass.log.episodes) / pass.wall_s);
  }
  const server::TransportStats net = stack->tcp->Scrape();
  for (auto& client : clients) client.Close();

  std::vector<Outcome> gained;
  for (const std::vector<Outcome>& outcomes : first_outcomes) {
    gained.insert(gained.end(), outcomes.begin(), outcomes.end());
  }
  stack.reset();
  FinishHost(&host);

  uint64_t attempted = 0, failed = 0;
  for (const auto& [verb, c] : all_ops.verbs) {
    attempted += c.attempted;
    failed += c.failed();
  }
  PrintHost(host);
  PrintOps(args.workload, all_ops, net);
  std::string pass_walls, pass_steal;
  for (const Pass& pass : passes) {
    pass_walls += (pass_walls.empty() ? "" : ", ") + JsonNumber(pass.wall_s);
    pass_steal += (pass_steal.empty() ? "" : ", ") + JsonNumber(pass.steal_pct);
  }
  std::printf(
      "{\"check\": {\"passes\": %zu, \"passes_set_aside_for_steal\": %zu, "
      "\"pass_steal_limit_pct\": %s, \"sessions_per_pass\": %zu, "
      "\"warmup_passes\": %zu, \"mismatched_sessions\": %zu, "
      "\"setups_same_model\": %s, \"pass_wall_s\": [%s], "
      "\"pass_steal_pct\": [%s], \"peak_rss_mb_after_setup\": %s, "
      "\"peak_rss_mb_after_reference\": %s}}\n",
      passes.size(), stolen.size(), JsonNumber(kPassStealPct).c_str(),
      batches[0].size(), warmup.size(), mismatches,
      same_model ? "true" : "false", pass_walls.c_str(), pass_steal.c_str(),
      JsonNumber(rss_after_setup).c_str(),
      JsonNumber(rss_after_reference).c_str());
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "serve_bench: %zu session outcomes differ from the "
                 "in-process reference\n",
                 mismatches);
  }

  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"sessions_per_s", Median(pass_rates), "episodes/s", pass_rates.size()},
      {"episode_ms.p50", WindowedPercentile(log.episode_ms, 0.5), "ms",
       log.episode_ms.size()},
      {"episode_ms.p99", WindowedPercentile(log.episode_ms, 0.99), "ms",
       log.episode_ms.size()},
      {"open_ms.p50", WindowedPercentile(log.open_ms, 0.5), "ms", log.open_ms.size()},
      {"step_ms.p50", WindowedPercentile(log.step_ms, 0.5), "ms", log.step_ms.size()},
      {"step_ms.p99", WindowedPercentile(log.step_ms, 0.99), "ms", log.step_ms.size()},
      {"round_ms.p50", WindowedPercentile(log.round_ms, 0.5), "ms",
       log.round_ms.size()},
      {"round_ms.p90", WindowedPercentile(log.round_ms, 0.9), "ms",
       log.round_ms.size()},
      {"save_ms.p50", WindowedPercentile(log.save_ms, 0.5), "ms", log.save_ms.size()},
      {"restore_ms.p50", WindowedPercentile(log.restore_ms, 0.5), "ms",
       log.restore_ms.size()},
      {"tuned_gain", TunedGain(gained), "ratio", gained.size()},
      {"peak_rss_mb", PeakRssMb(), "MB", 1},
  };
  const bool correct = mismatches == 0 && same_model;
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

int RunTraced(const Args& args) {
  HostContext host = StartHost(args);
  Tracer tracer;
  std::vector<double> setup_s;
  bool same_model = true;
  std::unique_ptr<Stack> stack =
      SetUpRepeatedly(args, &setup_s, &tracer, &same_model);
  const std::vector<std::vector<TenantSpec>> batches = SessionBatches(args);
  const std::string base = args.workdir + "/base.ckpt";
  if (IsFleet(args.workload)) {
    MustOk(stack->server->SaveCheckpoint(base), "base SaveCheckpoint");
  }
  std::vector<server::net::FrameClient> clients = Connect(*stack);
  const std::vector<std::vector<Outcome>> references =
      References(*stack->trained, args.workload, batches);
  size_t mismatches = 0;

  // Transport: after one untimed warm-up pass, an untraced and a traced
  // pass of each batch (at least two of each, alternating which goes
  // first); the wall-time ratio is the tracing overhead.
  double plain_s = 0.0, traced_s = 0.0;
  ClientLog log;
  {
    Pass warmup = RunPass(*stack, clients, batches, 0, args, base, nullptr);
    mismatches += CountMismatches(warmup.outcomes, references[0]);
    log.Merge(warmup.log);
  }
  for (size_t k = 0; k < std::max<size_t>(2, batches.size()); ++k) {
    const size_t b = k % batches.size();
    Pass plain, traced;
    if (k % 2 == 0) {
      plain = RunPass(*stack, clients, batches, b, args, base, nullptr);
      traced = RunPass(*stack, clients, batches, b, args, base, &tracer);
    } else {
      traced = RunPass(*stack, clients, batches, b, args, base, &tracer);
      plain = RunPass(*stack, clients, batches, b, args, base, nullptr);
    }
    plain_s += plain.wall_s;
    traced_s += traced.wall_s;
    mismatches += CountMismatches(plain.outcomes, references[b]) +
                  CountMismatches(traced.outcomes, references[b]);
    log.Merge(plain.log);
    log.Merge(traced.log);
  }
  // PING over the wire against PING dispatched in-process.
  {
    const uint64_t request = tracer.NewRequest();
    ScopedSpan root(tracer, "ping", 0, request);
    TraceContext trace{&tracer, root.id(), request};
    std::string reply;
    double ms = 0.0;
    for (int i = 0; i < kPings; ++i) {
      Call(clients[0], "PING", "PING", &log, &reply, &ms, trace);
      const int64_t t0 = NowNs();
      stack->dispatcher->Dispatch("PING");
      tracer.Add("Dispatcher::Dispatch PING", root.id(), request, t0, NowNs());
    }
  }
  const server::TransportStats net = stack->tcp->Scrape();
  for (auto& client : clients) client.Close();
  stack->tcp->Stop();

  // Dispatch twin and the session layer beneath a step, batch by batch.
  Twin twin;
  SessionLayer layer;
  for (size_t b = 0; b < batches.size(); ++b) {
    const Twin t = RunTwin(tracer, *stack->trained, args.workload, batches[b],
                           args.workdir);
    mismatches += CountMismatches(t.outcomes_dispatch, references[b]) +
                  CountMismatches(t.outcomes_direct, references[b]);
    twin.Merge(t);
    const SessionLayer l =
        RunSessionLayer(tracer, *stack->trained, args.workload, batches[b]);
    mismatches += CountMismatches(l.outcomes, references[b]);
    layer.Merge(l);
  }

  // Gradient-step probe: a clone of the standard model fed the offline
  // experiences, then timed TrainStep calls (batch 32, Table 5 shapes).
  {
    const uint64_t request = tracer.NewRequest();
    ScopedSpan root(tracer, "train_probe", 0, request);
    rl::DdpgAgent agent(stack->trained->agent().options());
    agent.CloneWeightsFrom(stack->trained->agent());
    const tuner::MemoryPool& pool = stack->offline->memory_pool();
    for (size_t i = 0; i < pool.size(); ++i) {
      ScopedSpan observe(tracer, "DdpgAgent::Observe", root.id(), request);
      agent.Observe(pool.at(i).transition);
    }
    for (int i = 0; i < kTrainProbeSteps; ++i) {
      ScopedSpan step(tracer, "DdpgAgent::TrainStep probe", root.id(), request);
      agent.TrainStep();
    }
  }
  const rl::DdpgOptions shapes = stack->trained->agent().options();
  stack.reset();
  FinishHost(&host);

  const std::vector<Span> spans = tracer.Snapshot();
  const std::vector<int64_t> self = servebench::SelfTimesNs(spans);
  auto self_us = [&](const std::vector<uint64_t>& ids) {
    std::vector<double> out;
    for (uint64_t id : ids) out.push_back(static_cast<double>(self[id - 1]) / 1e3);
    return out;
  };
  std::vector<uint64_t> all_steps = layer.step_spans_safe;
  all_steps.insert(all_steps.end(), layer.step_spans_plain.begin(),
                   layer.step_spans_plain.end());

  // Per-session StepRound cost in fleet_rounds; TuningServer::Step otherwise.
  const std::vector<double> server_steps =
      IsFleet(args.workload) ? twin.round_us_per_session
                             : DurationsUs(spans, "TuningServer::Step");

  // Table 5 shapes: multiply-accumulates of one actor and one critic forward.
  double actor_macs = 0.0;
  {
    size_t in = shapes.state_dim;
    for (size_t out : shapes.actor_hidden) {
      actor_macs += static_cast<double>(in * out);
      in = out;
    }
    actor_macs += static_cast<double>(in * shapes.action_dim);
  }
  double critic_macs = static_cast<double>(
      (shapes.state_dim + shapes.action_dim) * shapes.critic_embed);
  {
    size_t in = 2 * shapes.critic_embed;
    for (size_t out : shapes.critic_hidden) {
      critic_macs += static_cast<double>(in * out);
      in = out;
    }
    critic_macs += static_cast<double>(in);
  }
  // A gradient step: target actor + target critic + critic forwards, critic
  // backward (2x), actor + critic forwards for the policy gradient, critic
  // input backward, actor backward (2x) — 4 actor and 6 critic passes.
  const double train_flops = 2.0 * static_cast<double>(shapes.batch_size) *
                             (4.0 * actor_macs + 6.0 * critic_macs);
  const double select_us = MedianUs(spans, "DdpgAgent::SelectAction");
  const double train_probe_ms =
      MedianUs(spans, "DdpgAgent::TrainStep probe") / 1e3;

  const double save_ms = MedianUs(spans, "TuningServer::SaveCheckpoint") / 1e3;
  const std::vector<double> safe_self = self_us(layer.step_spans_safe);
  const std::vector<double> plain_self = self_us(layer.step_spans_plain);

  std::vector<Metric> metrics = {
      {"net.ping_rtt_us.p50",
       MedianUs(spans, "FrameClient::Call PING") -
           MedianUs(spans, "Dispatcher::Dispatch PING"),
       "us", static_cast<size_t>(kPings)},
      {"net.frames_in", static_cast<double>(net.frames_in), "count", 1},
      {"net.shed_busy", static_cast<double>(net.shed_busy), "count", 1},
      {"net.read_pauses", static_cast<double>(net.read_pauses), "count", 1},
      {"net.sendq_drops", static_cast<double>(net.sendq_drops), "count", 1},
      {"dispatch.self_us.p50", Median(twin.dispatch_self_us), "us",
       twin.dispatch_self_us.size()},
      {"server.open_us.p50", MedianUs(spans, "TuningServer::Open"), "us",
       DurationsUs(spans, "TuningServer::Open").size()},
      {"server.step_us.p50", Median(server_steps), "us", server_steps.size()},
      {"server.close_us.p50", MedianUs(spans, "TuningServer::Close"), "us",
       DurationsUs(spans, "TuningServer::Close").size()},
      {"server.round_ms.p50", MedianUs(spans, "TuningServer::StepRound") / 1e3,
       "ms", DurationsUs(spans, "TuningServer::StepRound").size()},
      {"round.fanout_ms.p50", Median(layer.fanout_ms), "ms",
       layer.fanout_ms.size()},
      {"round.train_ms.p50", Median(layer.train_ms), "ms",
       layer.train_ms.size()},
      {"round.parallel_eff", Median(layer.parallel_eff), "ratio",
       layer.parallel_eff.size()},
      {"rl.select_action_us.p50", select_us, "us",
       DurationsUs(spans, "DdpgAgent::SelectAction").size()},
      {"rl.policy_serial_ms", Median(layer.policy_serial_ms), "ms",
       layer.policy_serial_ms.size()},
      {"rl.train_step_ms.p50", train_probe_ms, "ms",
       static_cast<size_t>(kTrainProbeSteps)},
      {"rl.observe_us.p50", MedianUs(spans, "DdpgAgent::Observe"), "us",
       DurationsUs(spans, "DdpgAgent::Observe").size()},
      {"rl.offline_train_s",
       MedianUs(spans, "CdbTuner::OfflineTrain") / 1e6, "s",
       static_cast<size_t>(kSetups)},
      {"rl.model_load_ms", MedianUs(spans, "CdbTuner::LoadModel") / 1e3, "ms",
       static_cast<size_t>(kSetups)},
      {"rl.adopt_ms", MedianUs(spans, "TuningServer::AdoptModel") / 1e3, "ms",
       static_cast<size_t>(kSetups)},
      {"nn.actor_fwd_gflops",
       select_us > 0.0 ? 2.0 * actor_macs / (select_us * 1e3) : 0.0, "GFLOP/s",
       0},
      {"nn.train_gflops",
       train_probe_ms > 0.0 ? train_flops / (train_probe_ms * 1e6) : 0.0,
       "GFLOP/s", 0},
      {"session.step_self_us.p50",
       Median(self_us(all_steps)), "us", all_steps.size()},
      {"collector.process_us", MedianUs(spans, "MetricsCollector::Process"),
       "us", DurationsUs(spans, "MetricsCollector::Process").size()},
      {"recommender.build_config_us",
       MedianUs(spans, "Recommender::BuildConfig"), "us",
       DurationsUs(spans, "Recommender::BuildConfig").size()},
      {"reward.compute_us", MedianUs(spans, "RewardFunction::Compute"), "us",
       DurationsUs(spans, "RewardFunction::Compute").size()},
      {"safety.overhead_us", Median(safe_self) - Median(plain_self), "us",
       safe_self.size()},
      {"safety.rollbacks", static_cast<double>(layer.rollbacks), "count", 1},
      {"env.stress_us.p50", MedianUs(spans, "DbInterface::RunStress"), "us",
       DurationsUs(spans, "DbInterface::RunStress").size()},
      {"env.apply_us.p50", MedianUs(spans, "DbInterface::ApplyConfig"), "us",
       DurationsUs(spans, "DbInterface::ApplyConfig").size()},
      {"env.crash_frac",
       layer.applies == 0 ? 0.0
                          : static_cast<double>(layer.crashes) /
                                static_cast<double>(layer.applies),
       "ratio", static_cast<size_t>(layer.applies)},
      {"pool.record_us.p50", MedianUs(spans, "ExperienceSink::Record"), "us",
       DurationsUs(spans, "ExperienceSink::Record").size()},
      {"pool.dropped", static_cast<double>(layer.dropped), "count", 1},
      {"persist.checkpoint_bytes", twin.checkpoint_bytes, "bytes", 1},
      {"persist.save_mb_per_s",
       save_ms > 0.0 ? twin.checkpoint_bytes / 1e6 / (save_ms / 1e3) : 0.0,
       "MB/s", 0},
      {"server.save_ms", save_ms, "ms",
       DurationsUs(spans, "TuningServer::SaveCheckpoint").size()},
      {"server.restore_ms",
       MedianUs(spans, "TuningServer::RestoreCheckpoint") / 1e3, "ms",
       DurationsUs(spans, "TuningServer::RestoreCheckpoint").size()},
      {"trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s, "%", 2},
      {"trace.unattributed_frac", servebench::UnattributedFraction(spans, self),
       "ratio", spans.size()},
  };

  if (!args.trace_out.empty() && !tracer.WriteJson(args.trace_out)) {
    std::fprintf(stderr, "serve_bench: cannot write %s\n",
                 args.trace_out.c_str());
  }
  uint64_t attempted = 0, failed = 0;
  for (const auto& [verb, c] : log.verbs) {
    attempted += c.attempted;
    failed += c.failed();
  }
  PrintHost(host);
  PrintOps(args.workload, log, net);
  std::printf(
      "{\"check\": {\"mismatched_sessions\": %zu, \"setups_same_model\": %s, "
      "\"spans\": %zu}}\n",
      mismatches, same_model ? "true" : "false", spans.size());
  PrintResult(mismatches == 0 && same_model, attempted, failed, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return (args->workload == "sim_tenants" || IsFleet(args->workload)) &&
         !args->workdir.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0 || !ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload sim_tenants|fleet_rounds "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--trace-out FILE] [--commit ID]\n");
    return 2;
  }
  // Per-step guardrail warnings would turn the measurement into a test of
  // stderr throughput; errors still print.
  cdbtune::util::SetLogLevel(cdbtune::util::LogLevel::kError);
  return args.trace ? RunTraced(args) : RunTimed(args);
}
