// perfbench_runner — the measuring half of the repository benchmark. It
// drives tmhls only through its public functions, one workload per process,
// and prints one JSON line of RAW samples (per-op latencies, per-layer span
// durations, counters). perfbench/run.py builds this program, runs it and
// reduces the samples to the metrics named in BENCHMARK.json; the
// statistics live there, next to their tests.
//
//   perfbench_runner --workload frame_local|serve_loopback|stream_video
//                    --seed N --seconds S --trace 0|1
//
// Workloads (see perfbench/README.md for why each exists):
//   frame_local     closed loop, one caller: tone_map_image on 1024x768 RGB,
//                   97 taps, fused_stream backend, threads = nproc.
//   serve_loopback  closed loop: a transport::Server (default options) on
//                   loopback, two Client connections with 2 requests each in
//                   flight, 512x384 RGB frames, backend "auto", 1 thread.
//   stream_video    open loop: two wire-v3 streams (one connection each),
//                   384x384 pan + exposure-drift sequences at 24 fps,
//                   credits 4, standard QoS, backend "auto" on nproc / 2
//                   threads; latency from each frame's due time.
//
// Every op's output is checked against a golden computed before the timed
// window: byte-for-byte against tone_map() on separable_float for the two
// frame workloads; for stream_video against a 128-bit digest of each frame
// of a standalone video::VideoToneMapper fed the same sequence (the whole
// golden sequence would not fit in memory at these run lengths).
//
// --trace 0 runs the workload for --seconds after repeating its set-up
// kSetupReps times (setup_s is their median). --trace 1 runs it untraced
// for half the time and traced for the other half (their difference is the
// tracing overhead), then — so every traced run reports every layer — short
// traced passes of the serving and streaming paths it bypasses, and probes
// that time single calls into the tonemap, exec and transport::wire layers
// from outside.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/error.hpp"
#include "exec/executor.hpp"
#include "image/image.hpp"
#include "image/plane_pool.hpp"
#include "imageio/synthetic.hpp"
#include "serve/service.hpp"
#include "stream/session.hpp"
#include "tonemap/fused_stream.hpp"
#include "tonemap/pipeline.hpp"
#include "transport/client.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"
#include "video/sequence.hpp"
#include "video/video_tonemapper.hpp"

namespace {

using namespace tmhls;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Host fingerprint --------------------------------------------------------

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss); // KiB on Linux
}

/// Hand memory freed by earlier phases (input and golden generation,
/// torn-down set-ups) back to the system, so peak RSS measures the
/// workload rather than what the allocator happened to retain.
void release_freed_memory() { malloc_trim(0); }

// --- JSON output ------------------------------------------------------------

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(values[i]);
  }
  return out + "]";
}

/// Accumulates "key": value pairs; values are already-serialized JSON.
class JsonObject {
public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += json_string(key) + ':' + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  std::string dump() const { return "{" + body_ + "}"; }

private:
  std::string body_;
};

// --- Samples ------------------------------------------------------------------

/// Per-layer spans and counters of the traced passes, keyed by the
/// BENCHMARK.json per-layer metric name (samples are in that metric's unit;
/// generator.lag_ms feeds generator.lag_p90_ms).
struct Layers {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;

  void sample(const std::string& name, double v) { samples[name].push_back(v); }
  void count(const std::string& name, double v) { values[name] += v; }
  void set(const std::string& name, double v) { values[name] = v; }
  void merge(const Layers& other) {
    for (const auto& [name, v] : other.samples) {
      auto& dst = samples[name];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    for (const auto& [name, v] : other.values) values[name] += v;
  }
};

/// Outcome of one timed pass over a workload.
struct LoopResult {
  std::string workload;
  bool traced = false;
  std::vector<double> setup_s;
  double window_s = 0.0;
  std::uint64_t attempted = 0;
  /// Ops whose output was delivered at full quality and matched its golden.
  std::uint64_t ok = 0;
  std::uint64_t mismatches = 0; ///< outputs that differ from the golden
  std::uint64_t errors = 0;     ///< error replies (RemoteError)
  std::uint64_t timeouts = 0;   ///< socket timeouts / broken connections
  std::uint64_t shed = 0;       ///< frames shed or expired server-side
  std::uint64_t degraded = 0;   ///< frames delivered below full quality
  std::uint64_t rung_switches = 0;
  std::vector<double> latency_s; ///< per good op
  /// Per good op, when it completed, in seconds since the window opened.
  std::vector<double> done_s;
  Layers layers;                 ///< only filled by traced passes

  /// Fold a worker thread's partial result in (counters + samples).
  void merge(const LoopResult& part) {
    attempted += part.attempted;
    ok += part.ok;
    mismatches += part.mismatches;
    errors += part.errors;
    timeouts += part.timeouts;
    shed += part.shed;
    degraded += part.degraded;
    rung_switches += part.rung_switches;
    latency_s.insert(latency_s.end(), part.latency_s.begin(),
                     part.latency_s.end());
    done_s.insert(done_s.end(), part.done_s.begin(), part.done_s.end());
    layers.merge(part.layers);
  }

  /// Count one good op: its latency and when it completed.
  void good(double latency, Clock::time_point done, Clock::time_point start) {
    ++ok;
    latency_s.push_back(latency);
    done_s.push_back(std::chrono::duration<double>(done - start).count());
  }

  std::string dump() const {
    JsonObject o;
    o.str("workload", workload)
        .num("traced", traced ? 1 : 0)
        .raw("setup_s", json_array(setup_s))
        .num("window_s", window_s)
        .num("attempted", static_cast<double>(attempted))
        .num("ok", static_cast<double>(ok))
        .num("mismatches", static_cast<double>(mismatches))
        .num("errors", static_cast<double>(errors))
        .num("timeouts", static_cast<double>(timeouts))
        .num("shed", static_cast<double>(shed))
        .num("degraded", static_cast<double>(degraded))
        .num("rung_switches", static_cast<double>(rung_switches))
        .raw("latency_s", json_array(latency_s))
        .raw("done_s", json_array(done_s));
    return o.dump();
  }
};

// --- Inputs and goldens -------------------------------------------------------

constexpr io::SceneKind kKinds[] = {
    io::SceneKind::window_interior, io::SceneKind::light_probe,
    io::SceneKind::gradient_bars, io::SceneKind::night_street};
constexpr int kKindCount = 4;

std::uint64_t mix(std::uint64_t x) { // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool same_bytes(const img::ImageF& a, const img::ImageF& b) {
  if (!a.same_shape(b)) return false;
  const auto sa = a.samples();
  const auto sb = b.samples();
  return std::memcmp(sa.data(), sb.data(), sa.size_bytes()) == 0;
}

/// 128-bit digest of a plane's geometry and sample bytes (two independent
/// 64-bit multiply-xor hashes over 8-byte words).
struct Digest {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Digest&) const = default;
};

Digest digest(const img::ImageF& image) {
  const auto samples = image.samples();
  const auto* bytes = reinterpret_cast<const unsigned char*>(samples.data());
  const std::size_t n = samples.size_bytes();
  std::uint64_t a = 0xcbf29ce484222325ull ^
                    static_cast<std::uint64_t>(image.width()) << 32 ^
                    static_cast<std::uint64_t>(image.height());
  std::uint64_t b = 0x84222325cbf29ce4ull ^
                    static_cast<std::uint64_t>(image.channels());
  std::size_t i = 0;
  const auto step = [&](std::uint64_t word) {
    a = (a ^ word) * 0x100000001b3ull;
    b = (b + word) * 0x9e3779b97f4a7c15ull;
    b ^= b >> 29;
  };
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    step(word);
  }
  if (i < n) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, n - i);
    step(word);
  }
  return {a ^ (a >> 31), b};
}

/// One input frame per scene kind (round-robin order) and its golden.
struct FrameSet {
  std::vector<img::ImageF> inputs;
  std::vector<img::ImageF> golden;
};

FrameSet make_frames(std::uint64_t seed, int width, int height) {
  FrameSet fs;
  fs.inputs.resize(kKindCount);
  fs.golden.resize(kKindCount);
  tonemap::PipelineOptions reference;
  reference.backend = "separable_float";
  reference.threads = 1;
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> failures(kKindCount);
  for (int k = 0; k < kKindCount; ++k) {
    workers.emplace_back([&, k] {
      try {
        fs.inputs[k] = io::generate_hdr_scene(
            kKinds[k], width, height,
            mix(seed * kKindCount + static_cast<std::uint64_t>(k)));
        fs.golden[k] = tonemap::tone_map(fs.inputs[k], reference).output;
      } catch (...) {
        failures[k] = std::current_exception();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const std::exception_ptr& e : failures) {
    if (e) std::rethrow_exception(e);
  }
  return fs;
}

// --- Workload configurations --------------------------------------------------

constexpr int kFrameLocalWidth = 1024;
constexpr int kFrameLocalHeight = 768;
constexpr int kServeWidth = 512;
constexpr int kServeHeight = 384;
constexpr int kServeClients = 2;
constexpr int kServeInFlight = 2;
constexpr int kStreamSize = 384;
constexpr int kStreams = 2;
constexpr double kStreamFps = 24.0;
constexpr int kStreamCredits = 4;
/// Distinct rendered frames per stream; the stream plays them forwards and
/// backwards (a camera panning to and fro), so inputs stay in memory.
constexpr int kStreamDistinctFrames = 24;
/// Frames each stream sends during set-up, before the timed window.
constexpr int kStreamWarmupFrames = 4;
/// Minimum completed ops of a measured pass: p90 needs >= 10 samples beyond
/// it (run.py refuses it otherwise).
constexpr std::uint64_t kMinOps = 110;
/// Set-ups per --trace 0 run; setup_s is their median, not one sample.
constexpr int kSetupReps = 7;
/// Seconds of the short traced passes over the paths a workload bypasses.
constexpr double kProbeSeconds = 1.5;
/// Frames per stream of a streaming pass, at least (lag p90 needs >= 100).
constexpr int kMinStreamFrames = 60;

tonemap::PipelineOptions frame_local_options() {
  tonemap::PipelineOptions opt; // sigma 16 -> the 97-tap paper kernel
  opt.backend = "fused_stream";
  opt.threads = nproc();
  return opt;
}

/// Per-request options of serve_loopback and stream_video: the planner
/// picks the backend ("auto") for one thread, as a default-configured
/// client would ask.
tonemap::PipelineOptions serving_options() {
  tonemap::PipelineOptions opt;
  opt.backend = "auto";
  opt.threads = 1;
  return opt;
}

transport::ClientOptions client_options(std::uint16_t port) {
  transport::ClientOptions co;
  co.port = port;
  // A hung server fails the op instead of hanging the benchmark.
  co.request_timeout_seconds = 60.0;
  return co;
}

// --- frame_local --------------------------------------------------------------

LoopResult frame_local_loop(const FrameSet& fs, double seconds,
                            std::uint64_t min_ops, bool traced,
                            int setup_reps) {
  LoopResult r;
  r.workload = "frame_local";
  r.traced = traced;
  const tonemap::PipelineOptions opt = frame_local_options();
  // Set-up is the warm-up frame (first-touch of the executor's threads and
  // planes); there is no server or connection on this path.
  for (int rep = 0; rep < setup_reps; ++rep) {
    const auto t0 = Clock::now();
    const img::ImageF out =
        tonemap::tone_map_image(fs.inputs[rep % kKindCount], opt);
    r.setup_s.push_back(since(t0));
    if (!same_bytes(out, fs.golden[rep % kKindCount])) ++r.mismatches;
  }
  const auto start = Clock::now();
  for (std::uint64_t i = 0; since(start) < seconds || r.ok < min_ops; ++i) {
    const std::size_t k = i % kKindCount;
    ++r.attempted;
    const auto t0 = Clock::now();
    const img::ImageF out = tonemap::tone_map_image(fs.inputs[k], opt);
    const auto done = Clock::now();
    if (same_bytes(out, fs.golden[k])) {
      r.good(std::chrono::duration<double>(done - t0).count(), done, start);
    } else {
      ++r.mismatches;
    }
  }
  r.window_s = since(start);
  return r;
}

// --- serve_loopback -----------------------------------------------------------

serve::FrameJob serve_job(const FrameSet& fs, std::size_t k) {
  serve::FrameJob job;
  job.frame = fs.inputs[k];
  job.options = serving_options();
  return job;
}

/// One client connection's closed loop: keep kServeInFlight requests
/// outstanding until the window closes (and the pass has min_ops), then
/// drain. Returns the connection's partial result.
LoopResult serve_client_loop(transport::Client& client, const FrameSet& fs,
                             int client_index, Clock::time_point start,
                             double seconds, std::uint64_t min_ops,
                             std::atomic<std::uint64_t>& completed,
                             bool traced, Clock::time_point& end) {
  LoopResult r;
  struct Pending {
    Clock::time_point submitted;
    std::size_t kind = 0;
  };
  std::map<std::uint64_t, Pending> pending;
  std::uint64_t next = static_cast<std::uint64_t>(client_index);
  const auto submit_one = [&] {
    const std::size_t k = next % kKindCount;
    next += kServeClients;
    serve::FrameJob job = serve_job(fs, k);
    const auto t0 = Clock::now();
    const std::uint64_t id = client.submit(std::move(job));
    if (traced) r.layers.sample("transport.submit_ms", since(t0) * 1e3);
    pending[id] = Pending{t0, k};
    ++r.attempted;
  };
  const auto window_open = [&] {
    return since(start) < seconds ||
           completed.load(std::memory_order_relaxed) < min_ops;
  };
  std::this_thread::sleep_until(start);
  try {
    for (int i = 0; i < kServeInFlight; ++i) submit_one();
    while (!pending.empty()) {
      try {
        const transport::ClientResult reply = client.next_result();
        const auto done = Clock::now();
        const auto it = pending.find(reply.request_id);
        TMHLS_REQUIRE(it != pending.end(), "reply to an unknown request id");
        const double round_trip =
            std::chrono::duration<double>(done - it->second.submitted).count();
        const serve::FrameResult& res = reply.result;
        if (res.degrade != serve::DegradeLevel::none) {
          ++r.degraded;
        } else if (same_bytes(res.output, fs.golden[it->second.kind])) {
          r.good(round_trip, done, start);
          completed.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++r.mismatches;
        }
        if (traced) {
          r.layers.sample("serve.queue_ms", res.queue_seconds * 1e3);
          r.layers.sample("serve.service_ms", res.service_seconds * 1e3);
          r.layers.sample("transport.overhead_ms",
                          (round_trip - res.queue_seconds -
                           res.service_seconds) *
                              1e3);
        }
        pending.erase(it);
      } catch (const transport::RemoteError& e) {
        ++r.errors;
        pending.erase(e.request_id());
      }
      if (window_open()) submit_one();
    }
  } catch (const transport::TransportError&) {
    // Timeout or broken connection: everything still outstanding is lost.
    r.timeouts += pending.size();
  }
  end = Clock::now();
  return r;
}

LoopResult serve_loopback_loop(const FrameSet& fs, double seconds,
                               std::uint64_t min_ops, bool traced,
                               int setup_reps) {
  LoopResult r;
  r.workload = "serve_loopback";
  r.traced = traced;
  std::unique_ptr<transport::Server> server;
  std::vector<std::unique_ptr<transport::Client>> clients;
  for (int rep = 0; rep < setup_reps; ++rep) {
    clients.clear(); // tear the previous set-up down, untimed
    server.reset();
    release_freed_memory();
    const auto t0 = Clock::now();
    server = std::make_unique<transport::Server>(transport::ServerOptions{});
    for (int c = 0; c < kServeClients; ++c) {
      clients.push_back(
          std::make_unique<transport::Client>(client_options(server->port())));
    }
    // Warm-up: one round trip per in-flight slot of every connection; the
    // ties in least-loaded routing alternate them across both shards, which
    // builds both shard sessions and primes the plane pool.
    for (int c = 0; c < kServeClients; ++c) {
      for (int w = 0; w < kServeInFlight; ++w) {
        const std::size_t k =
            static_cast<std::size_t>(c * kServeInFlight + w) % kKindCount;
        const serve::FrameResult res = clients[c]->call(serve_job(fs, k));
        if (!same_bytes(res.output, fs.golden[k])) ++r.mismatches;
      }
    }
    r.setup_s.push_back(since(t0));
  }

  const std::uint64_t allocs_before = img::plane_allocation_count();
  const img::PoolStats pool_before = server->service().pool_stats();
  std::atomic<std::uint64_t> completed{0};
  std::vector<LoopResult> parts(kServeClients);
  std::vector<Clock::time_point> ends(kServeClients);
  std::vector<std::exception_ptr> failures(kServeClients);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          parts[c] = serve_client_loop(*clients[c], fs, c, start, seconds,
                                       min_ops, completed, traced, ends[c]);
        } catch (...) {
          failures[c] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : failures) {
    if (e) std::rethrow_exception(e);
  }
  r.window_s = std::chrono::duration<double>(
                   *std::max_element(ends.begin(), ends.end()) - start)
                   .count();
  for (const LoopResult& part : parts) r.merge(part);

  if (traced) {
    const std::uint64_t jobs = r.attempted;
    r.layers.set("image.allocs_per_job",
                 jobs > 0 ? static_cast<double>(img::plane_allocation_count() -
                                                allocs_before) /
                                static_cast<double>(jobs)
                          : 0.0);
    const img::PoolStats pool = server->service().pool_stats();
    const std::uint64_t acquires = pool.acquires - pool_before.acquires;
    r.layers.set("image.pool_hit_rate",
                 acquires > 0
                     ? static_cast<double>(pool.pool_hits -
                                           pool_before.pool_hits) /
                           static_cast<double>(acquires)
                     : 0.0);
    const serve::ServiceStats service = server->service().stats();
    for (const serve::ShardStats& shard : service.shards) {
      r.layers.count("serve.session_builds",
                     static_cast<double>(shard.session_builds));
    }
    r.layers.count("serve.rebalanced", static_cast<double>(service.rebalanced));
  }
  clients.clear();
  server->stop();
  r.layers.count("transport.protocol_errors",
                 static_cast<double>(server->stats().protocol_errors));
  return r;
}

// --- stream_video -------------------------------------------------------------

/// Each stream's rendered frames and the digest of every golden frame the
/// longest pass of this process will need.
struct StreamSet {
  std::vector<std::vector<img::ImageF>> inputs; ///< [stream][distinct frame]
  std::vector<std::vector<Digest>> golden;      ///< [stream][sequence]
  stream::StreamConfig config;

  /// The input of sequence number `k`: forwards, then backwards, through
  /// the distinct frames.
  const img::ImageF& frame(int s, int k) const {
    const int period = 2 * kStreamDistinctFrames - 2;
    const int i = k % period;
    return inputs[s][i < kStreamDistinctFrames ? i : period - i];
  }
};

stream::StreamConfig stream_config() {
  stream::StreamConfig sc;
  sc.pipeline = serving_options();
  // The cores split between the streams: at 1 thread the server's reader
  // (decode + tone map) takes ~70 % of the 1/24 s budget, so a host slowing
  // by half would tip the open loop into an ever-growing backlog.
  sc.pipeline.threads = std::max(1, nproc() / kStreams);
  sc.width = kStreamSize;
  sc.height = kStreamSize;
  sc.frame_interval_seconds = 1.0 / kStreamFps;
  sc.qos = serve::QosClass::standard;
  sc.credits = kStreamCredits;
  return sc;
}

int stream_frames_for(double seconds) {
  return std::max(kMinStreamFrames,
                  static_cast<int>(seconds * kStreamFps + 0.5));
}

StreamSet make_streams(std::uint64_t seed, int sequence_length) {
  StreamSet ss;
  ss.config = stream_config();
  ss.inputs.resize(kStreams);
  ss.golden.resize(kStreams);
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> failures(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    workers.emplace_back([&, s] {
      try {
        video::SceneSequence::Config cfg;
        cfg.kind = kKinds[(mix(seed) + static_cast<std::uint64_t>(s)) %
                          kKindCount];
        cfg.frame_size = kStreamSize;
        cfg.frames = kStreamDistinctFrames;
        cfg.master_size = 2 * kStreamSize;
        cfg.seed = mix(seed * kStreams + static_cast<std::uint64_t>(s) + 17);
        const video::SceneSequence sequence(cfg);
        for (int f = 0; f < kStreamDistinctFrames; ++f) {
          ss.inputs[s].push_back(sequence.frame(f));
        }
        video::VideoToneMapperOptions vopt;
        vopt.pipeline = ss.config.pipeline;
        vopt.adaptation_rate = ss.config.adaptation_rate;
        vopt.pipeline_depth = 1;
        vopt.frame_width = kStreamSize;
        vopt.frame_height = kStreamSize;
        video::VideoToneMapper mapper(vopt);
        for (int k = 0; k < sequence_length; ++k) {
          ss.golden[s].push_back(digest(mapper.process(ss.frame(s, k))));
        }
      } catch (...) {
        failures[s] = std::current_exception();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const std::exception_ptr& e : failures) {
    if (e) std::rethrow_exception(e);
  }
  return ss;
}

/// Check one delivered stream frame against its golden; true when it
/// counts as a good op.
bool check_stream_result(const StreamSet& ss, int s,
                         const transport::wire::StreamResult& res,
                         LoopResult& r) {
  if (res.rung != serve::DegradeLevel::none) {
    ++r.degraded;
    return false;
  }
  if (res.sequence >= ss.golden[s].size() ||
      !(digest(res.output) == ss.golden[s][res.sequence])) {
    ++r.mismatches;
    return false;
  }
  return true;
}

// A stream is spoken at the wire level, through the public wire codec,
// read_message and transport::Socket, rather than through transport::Client.
// A Client is one single-threaded conversation: a sender that keeps to its
// schedule could not also timestamp each delivery as it arrives, so every
// frame would wait for the previous one and the open loop would turn into a
// closed one. Here one thread sends while another receives; one writer and
// one reader need no further synchronisation on a TCP socket.

/// The client-assigned id of the one stream each connection carries.
constexpr std::uint64_t kStreamId = 1;

void send_message(transport::Socket& socket,
                  const std::vector<std::uint8_t>& message) {
  if (socket.send_all(message) != transport::SendStatus::ok) {
    throw transport::TransportError("stream: send failed");
  }
}

transport::InboundMessage read_one(transport::Socket& socket) {
  transport::InboundMessage message;
  if (transport::read_message(socket, message) !=
      transport::ReadMessageStatus::ok) {
    throw transport::TransportError("stream: connection closed");
  }
  return message;
}

/// Connect and open one stream (blocking for the server's StreamOpened).
transport::Socket open_stream(std::uint16_t port,
                              const stream::StreamConfig& config) {
  transport::Socket socket = transport::Socket::connect("127.0.0.1", port);
  // A hung server fails the pass instead of hanging the benchmark.
  socket.set_recv_timeout(60.0);
  socket.set_send_timeout(60.0);
  send_message(socket, transport::wire::encode_stream_open({kStreamId, config}));
  TMHLS_REQUIRE(read_one(socket).header.type ==
                    transport::wire::MessageType::stream_opened,
                "the server refused the stream");
  return socket;
}

void send_frame(transport::Socket& socket, const StreamSet& ss, int s,
                int sequence) {
  transport::wire::StreamFrame frame;
  frame.stream_id = kStreamId;
  frame.sequence = static_cast<std::uint64_t>(sequence);
  frame.frame = ss.frame(s, sequence);
  send_message(socket, transport::wire::encode_stream_frame(frame));
}

/// One stream's open loop over its connection: frame j of the window is due
/// at start + j/fps and is sent then (after waiting for a credit, if none
/// is left), while a receiver thread times each delivery from its frame's
/// due time.
LoopResult stream_pass(transport::Socket& socket, const StreamSet& ss, int s,
                       Clock::time_point start, int frames, bool traced,
                       Clock::time_point& end) {
  namespace wire = transport::wire;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(ss.config.frame_interval_seconds));
  std::vector<Clock::time_point> due(static_cast<std::size_t>(frames));
  for (int j = 0; j < frames; ++j) due[j] = start + j * interval;

  std::mutex mutex;
  std::condition_variable credit_freed;
  int credits = ss.config.credits; // set-up left every credit returned
  bool finished = false;
  const auto release = [&](int n, bool last) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      credits += n;
      finished = finished || last;
    }
    credit_freed.notify_one();
  };

  LoopResult received; // written by the receiver only
  wire::StreamClosed closed;
  std::exception_ptr receive_failure;
  end = start;
  std::thread receiver([&] {
    try {
      for (;;) {
        const transport::InboundMessage message = read_one(socket);
        switch (message.header.type) {
          case wire::MessageType::stream_result: {
            const wire::StreamResult res =
                wire::decode_stream_result(message.payload);
            const auto done = Clock::now();
            const auto j = static_cast<std::int64_t>(res.sequence) -
                           kStreamWarmupFrames;
            TMHLS_REQUIRE(j >= 0 && j < frames, "stream result out of range");
            if (traced) {
              received.layers.sample("stream.service_ms",
                                     res.service_seconds * 1e3);
            }
            if (check_stream_result(ss, s, res, received)) {
              received.good(
                  std::chrono::duration<double>(done - due[j]).count(), done,
                  start);
            }
            end = done;
            release(1, false);
            break;
          }
          case wire::MessageType::stream_credit:
            release(static_cast<int>(
                        wire::decode_stream_credit(message.payload).credits),
                    false);
            break;
          case wire::MessageType::error: // one frame refused; credit back
            ++received.errors;
            release(1, false);
            break;
          case wire::MessageType::stream_closed:
            closed = wire::decode_stream_closed(message.payload);
            release(0, true);
            return;
          default:
            throw transport::WireError("stream: unexpected message type");
        }
      }
    } catch (...) {
      receive_failure = std::current_exception();
      release(0, true);
    }
  });

  LoopResult r;
  std::exception_ptr send_failure;
  try {
    for (int j = 0; j < frames; ++j) {
      std::this_thread::sleep_until(due[j]);
      const auto t0 = Clock::now();
      if (traced) {
        r.layers.sample("generator.lag_ms",
                        std::chrono::duration<double>(t0 - due[j]).count() *
                            1e3);
      }
      {
        std::unique_lock<std::mutex> lock(mutex);
        credit_freed.wait(lock, [&] { return credits > 0 || finished; });
        if (finished) break; // the server ended the stream
        --credits;
      }
      ++r.attempted;
      send_frame(socket, ss, s, kStreamWarmupFrames + j);
      if (traced) r.layers.sample("stream.send_ms", since(t0) * 1e3);
    }
    send_message(socket, wire::encode_stream_close({kStreamId}));
  } catch (const transport::TransportError&) {
    // The receiver sees the broken connection too and ends.
  } catch (...) {
    send_failure = std::current_exception();
    socket.shutdown_both(); // unblock the receiver
  }
  receiver.join();
  if (send_failure) std::rethrow_exception(send_failure);
  r.merge(received);
  if (receive_failure) {
    try {
      std::rethrow_exception(receive_failure);
    } catch (const transport::TransportError&) {
      ++r.timeouts;
    }
  }
  r.shed += closed.frames_shed + closed.frames_expired;
  r.rung_switches += closed.rung_switches;
  if (traced) {
    r.layers.count("stream.rung_switches", closed.rung_switches);
    r.layers.count("stream.frames_shed",
                   static_cast<double>(closed.frames_shed));
    r.layers.count("stream.frames_expired",
                   static_cast<double>(closed.frames_expired));
  }
  return r;
}

LoopResult stream_video_loop(const StreamSet& ss, int frames, bool traced,
                             int setup_reps) {
  LoopResult r;
  r.workload = "stream_video";
  r.traced = traced;
  std::unique_ptr<transport::Server> server;
  std::vector<transport::Socket> sockets;
  for (int rep = 0; rep < setup_reps; ++rep) {
    sockets.clear(); // tear the previous set-up down, untimed
    server.reset();
    release_freed_memory();
    const auto t0 = Clock::now();
    server = std::make_unique<transport::Server>(transport::ServerOptions{});
    for (int s = 0; s < kStreams; ++s) {
      sockets.push_back(open_stream(server->port(), ss.config));
    }
    // Warm-up: the first frames of each sequence, one credit window.
    for (int k = 0; k < kStreamWarmupFrames; ++k) {
      for (int s = 0; s < kStreams; ++s) {
        send_frame(sockets[s], ss, s, k);
        const transport::InboundMessage reply = read_one(sockets[s]);
        TMHLS_REQUIRE(reply.header.type ==
                          transport::wire::MessageType::stream_result,
                      "warm-up frame not delivered");
        check_stream_result(
            ss, s, transport::wire::decode_stream_result(reply.payload), r);
      }
    }
    r.setup_s.push_back(since(t0));
  }

  std::vector<LoopResult> parts(kStreams);
  std::vector<Clock::time_point> ends(kStreams);
  std::vector<std::exception_ptr> failures(kStreams);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  {
    std::vector<std::thread> threads;
    for (int s = 0; s < kStreams; ++s) {
      threads.emplace_back([&, s] {
        try {
          parts[s] = stream_pass(sockets[s], ss, s, start, frames, traced,
                                 ends[s]);
        } catch (...) {
          failures[s] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : failures) {
    if (e) std::rethrow_exception(e);
  }
  r.window_s = std::chrono::duration<double>(
                   *std::max_element(ends.begin(), ends.end()) - start)
                   .count();
  for (const LoopResult& part : parts) r.merge(part);
  sockets.clear();
  server->stop();
  r.layers.count("transport.protocol_errors",
                 static_cast<double>(server->stats().protocol_errors));
  return r;
}

// --- Layer probes -------------------------------------------------------------

/// Time single calls into the tonemap and exec layers on frame_local's
/// frames, exec::Planner on serve_loopback's options, and transport::wire
/// on serve_loopback's frames. Returns the number of probe outputs that
/// differed from their golden.
std::uint64_t run_probes(const FrameSet& local, const FrameSet& served,
                         Layers& layers) {
  constexpr int kReps = 2; // passes over the four scene kinds
  std::uint64_t mismatches = 0;
  const auto ms = [](Clock::time_point t0) { return since(t0) * 1e3; };

  const tonemap::PipelineOptions opt = frame_local_options();
  tonemap::PipelineOptions opt_1t = opt;
  opt_1t.threads = 1;
  const tonemap::GaussianKernel kernel = opt.kernel();
  exec::ExecutorOptions eo;
  eo.threads = nproc();
  const exec::PipelineExecutor blur_n("fused_stream", eo);
  eo.threads = 1;
  const exec::PipelineExecutor blur_1("fused_stream", eo);
  for (int rep = 0; rep < kReps; ++rep) {
    for (int k = 0; k < kKindCount; ++k) {
      const img::ImageF& hdr = local.inputs[k];
      auto t0 = Clock::now();
      const img::ImageF normalized = tonemap::stages::normalize(hdr, opt);
      layers.sample("tonemap.normalize_ms", ms(t0));
      t0 = Clock::now();
      const img::ImageF intensity = tonemap::stages::intensity(normalized);
      layers.sample("tonemap.intensity_ms", ms(t0));
      t0 = Clock::now();
      const img::ImageF mask = tonemap::stages::mask(intensity, kernel, blur_n);
      layers.sample("exec.mask_blur_ms", ms(t0));
      t0 = Clock::now();
      const img::ImageF mask_1t =
          tonemap::stages::mask(intensity, kernel, blur_1);
      layers.sample("exec.mask_blur_1t_ms", ms(t0));
      t0 = Clock::now();
      const img::ImageF masked = tonemap::stages::masking(normalized, mask);
      layers.sample("tonemap.masking_ms", ms(t0));
      t0 = Clock::now();
      const img::ImageF out = tonemap::stages::adjust(masked, opt);
      layers.sample("tonemap.adjust_ms", ms(t0));
      t0 = Clock::now();
      const tonemap::FusedToneMapResult fused =
          tonemap::tone_map_fused(hdr, opt_1t);
      layers.sample("tonemap.fused_1t_ms", ms(t0));
      if (!same_bytes(out, local.golden[k])) ++mismatches;
      if (!same_bytes(fused.output, local.golden[k])) ++mismatches;
      if (!same_bytes(mask, mask_1t)) ++mismatches;
    }
  }

  const tonemap::PipelineOptions served_opt = serving_options();
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    const exec::ExecutionPlan plan = served_opt.plan(kServeWidth, kServeHeight);
    layers.sample("exec.plan_us", since(t0) * 1e6);
  }

  for (int rep = 0; rep < kReps; ++rep) {
    for (int k = 0; k < kKindCount; ++k) {
      transport::wire::Request request;
      request.request_id = static_cast<std::uint64_t>(rep * kKindCount + k);
      request.job = serve_job(served, static_cast<std::size_t>(k));
      auto t0 = Clock::now();
      const std::vector<std::uint8_t> bytes =
          transport::wire::encode_request(request);
      layers.sample("transport.encode_request_ms", ms(t0));
      const std::span<const std::uint8_t> payload(
          bytes.data() + transport::wire::kHeaderBytes,
          bytes.size() - transport::wire::kHeaderBytes);
      t0 = Clock::now();
      const std::uint32_t sum = transport::wire::checksum(payload);
      layers.sample("transport.checksum_ms", ms(t0));
      if (sum != transport::wire::decode_header(
                     std::span(bytes).first(transport::wire::kHeaderBytes))
                     .checksum) ++mismatches;

      transport::wire::Response response;
      response.request_id = request.request_id;
      response.result.output = served.golden[k];
      response.result.backend = "probe";
      const std::vector<std::uint8_t> reply =
          transport::wire::encode_response(response);
      const transport::wire::Header header =
          transport::wire::decode_header(
              std::span(reply).first(transport::wire::kHeaderBytes));
      const std::span<const std::uint8_t> reply_payload(
          reply.data() + transport::wire::kHeaderBytes,
          reply.size() - transport::wire::kHeaderBytes);
      t0 = Clock::now();
      transport::wire::verify_checksum(header, reply_payload);
      const transport::wire::Response decoded =
          transport::wire::decode_response(reply_payload);
      layers.sample("transport.decode_response_ms", ms(t0));
      if (!same_bytes(decoded.result.output, served.golden[k])) ++mismatches;
    }
  }
  return mismatches;
}

// --- Driver -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else {
      throw InvalidArgument("unknown argument " + key);
    }
  }
  TMHLS_REQUIRE(argc % 2 == 1, "arguments come in --key value pairs");
  TMHLS_REQUIRE(have_workload && (o.workload == "frame_local" ||
                                  o.workload == "serve_loopback" ||
                                  o.workload == "stream_video"),
                "--workload must be frame_local, serve_loopback or "
                "stream_video");
  TMHLS_REQUIRE(o.seconds > 0.0 && o.seconds <= 120.0,
                "--seconds must be in (0, 120]");
  return o;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    // Inputs and goldens, generated from the seed before any timing.
    const bool need_local = o.workload == "frame_local" || o.trace;
    const bool need_served = o.workload == "serve_loopback" || o.trace;
    const bool need_stream = o.workload == "stream_video" || o.trace;
    const double e2e_seconds = o.trace ? o.seconds / 2.0 : o.seconds;
    FrameSet local;
    FrameSet served;
    StreamSet streams;
    if (need_local) {
      local = make_frames(o.seed, kFrameLocalWidth, kFrameLocalHeight);
    }
    if (need_served) served = make_frames(o.seed, kServeWidth, kServeHeight);
    const int stream_frames =
        stream_frames_for(o.workload == "stream_video" ? e2e_seconds
                                                       : kProbeSeconds);
    if (need_stream) {
      streams = make_streams(o.seed, kStreamWarmupFrames + stream_frames);
    }

    release_freed_memory();

    const auto run_pass = [&](const std::string& workload, double seconds,
                              std::uint64_t min_ops, bool traced,
                              int setup_reps) {
      if (workload == "frame_local") {
        return frame_local_loop(local, seconds, min_ops, traced, setup_reps);
      }
      if (workload == "serve_loopback") {
        return serve_loopback_loop(served, seconds, min_ops, traced,
                                   setup_reps);
      }
      return stream_video_loop(streams, stream_frames_for(seconds), traced,
                               setup_reps);
    };

    JsonObject out;
    out.str("workload", o.workload)
        .num("seed", static_cast<double>(o.seed))
        .num("seconds", o.seconds)
        .num("trace", o.trace ? 1 : 0);
    JsonObject host;
    host.num("nproc", nproc())
        .str("cpu", cpu_model())
        .str("compiler", compiler())
        .str("build_type", PERFBENCH_BUILD_TYPE);
    out.raw("host", host.dump());

    std::string passes = "[";
    Layers layers;
    std::uint64_t probe_mismatches = 0;
    if (!o.trace) {
      const LoopResult main_pass =
          run_pass(o.workload, e2e_seconds, kMinOps, false, kSetupReps);
      passes += main_pass.dump();
    } else {
      const LoopResult plain =
          run_pass(o.workload, e2e_seconds, kMinOps, false, 1);
      const LoopResult traced =
          run_pass(o.workload, e2e_seconds, kMinOps, true, 1);
      passes += plain.dump() + "," + traced.dump();
      layers.merge(traced.layers);
      for (const std::string other : {"serve_loopback", "stream_video"}) {
        if (other == o.workload) continue;
        const LoopResult probe = run_pass(other, kProbeSeconds, 0, true, 1);
        passes += "," + probe.dump();
        layers.merge(probe.layers);
      }
      probe_mismatches = run_probes(local, served, layers);
    }
    passes += "]";
    out.raw("passes", passes);

    JsonObject samples;
    for (const auto& [name, v] : layers.samples) {
      samples.raw(name, json_array(v));
    }
    JsonObject values;
    for (const auto& [name, v] : layers.values) values.num(name, v);
    out.raw("layers", JsonObject()
                          .raw("samples", samples.dump())
                          .raw("values", values.dump())
                          .dump());
    out.num("probe_mismatches", static_cast<double>(probe_mismatches));
    out.num("peak_rss_kb", peak_rss_kb());
    std::cout << out.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: error: " << e.what() << '\n';
    return 1;
  }
}
