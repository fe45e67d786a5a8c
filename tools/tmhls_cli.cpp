// tmhls command-line tool: tone-map images, generate synthetic HDR scenes,
// compare operators and evaluate design points without writing code.
//
// Subcommands:
//   tonemap <in> <out.ppm>  [--operator moroney|reinhard|log|gamma|
//                            histogram|durand] [--sigma S] [--radius R]
//                            [--fixed|--datapath float|fixed]
//                            [--brightness B] [--contrast C]
//                            [--backend separable_float|streaming_fixed|
//                             hlscode|fused_stream|auto]
//                            [--threads N]
//   video                   [--frames N] [--size N] [--kind K] [--seed N]
//                            [--drift D] [--adaptation R] [--out prefix]
//                            [--backend B] [--threads N]
//   serve                   [--shards N] [--clients C] [--jobs J]
//                            [--size N] [--queue Q] [--backend B]
//                            [--threads N]
//                            [--kind K] [--seed N]
//                            [--qos best_effort|standard|critical]
//                            [--deadline S] [--assumed-service S]
//                            [--pool-bytes B]  (plane-pool retention bound
//                             of the service, which runs request jobs and
//                             stream frames alike; 0 disables pooling)
//                            [--listen PORT [--window W] [--max-connections M]]
//   client                  --port PORT [--host H] [--jobs J] [--size N]
//                            [--window W] [--backend B]
//                            [--threads N] [--kind K] [--seed N]
//                            [--connect-timeout S] [--no-check]
//                            [--qos best_effort|standard|critical]
//                            [--deadline S] [--request-timeout S]
//                            [--retries N]
//                            [--stream N [--frames F] [--fps R]
//                             [--adaptation A] [--reorder-window W]
//                             [--credits C]]  (streaming sessions, wire v3)
//   scene   <out.hdr|.pfm>  [--kind window_interior|light_probe|
//                            gradient_bars|night_street] [--size N]
//                            [--seed N]
//   analyze                 [--design sw_source|marked_hw|
//                            sequential_access|hls_pragmas|fixed_point]
//   compare <in>            (PSNR/SSIM of every operator vs moroney-float)
//
// Inputs: Radiance .hdr or .pfm (by extension). Outputs: .ppm (8-bit),
// .hdr, or .pfm. A command rejects any option it does not use.
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "accel/system.hpp"
#include "common/args.hpp"
#include "common/math.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exec/executor.hpp"
#include "exec/registry.hpp"
#include "image/stats.hpp"
#include "imageio/pfm.hpp"
#include "imageio/pnm.hpp"
#include "imageio/rgbe.hpp"
#include "imageio/synthetic.hpp"
#include "metrics/quality.hpp"
#include "metrics/ssim.hpp"
#include "platform/zynq.hpp"
#include "serve/service.hpp"
#include "tonemap/bilateral.hpp"
#include "tonemap/global_operators.hpp"
#include "tonemap/pipeline.hpp"
#include "tonemap/pow_kernel.hpp"
#include "transport/client.hpp"
#include "transport/server.hpp"
#include "video/sequence.hpp"
#include "video/video_tonemapper.hpp"

namespace {

using namespace tmhls;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

img::ImageF load_image(const std::string& path) {
  if (ends_with(path, ".pfm")) return io::read_pfm(path);
  return io::read_rgbe(path);
}

void save_image(const std::string& path, const img::ImageF& image) {
  if (ends_with(path, ".ppm") || ends_with(path, ".pgm")) {
    io::write_pnm(path, img::to_u8(image));
  } else if (ends_with(path, ".pfm")) {
    io::write_pfm(path, image);
  } else {
    io::write_rgbe(path, image);
  }
}

tonemap::PipelineOptions pipeline_options_from(const Args& args) {
  tonemap::PipelineOptions opt;
  opt.sigma = args.get_double("sigma", opt.sigma);
  opt.radius = args.get_int("radius", opt.radius);
  opt.brightness =
      static_cast<float>(args.get_double("brightness", opt.brightness));
  opt.contrast =
      static_cast<float>(args.get_double("contrast", opt.contrast));
  // Execution selection: any backend by name plus the datapath of
  // dual-datapath backends (--fixed is shorthand for --datapath fixed).
  // Thread counts are validated centrally by the exec layer.
  opt.backend = args.get_or("backend", "");
  std::string datapath = args.get_or("datapath", "");
  if (args.has("fixed")) {
    TMHLS_REQUIRE(datapath.empty() ||
                      tonemap::datapath_from_string(datapath) ==
                          tonemap::Datapath::fixed_point,
                  "--fixed contradicts --datapath " + datapath);
    datapath = "fixed";
  }
  if (!datapath.empty()) {
    opt.datapath = tonemap::datapath_from_string(datapath);
  }
  opt.threads = args.get_int("threads", opt.threads);
  return opt;
}

using Operator = std::function<img::ImageF(const img::ImageF&)>;

/// The operator `name` with its options read from `args` now, so a command
/// can reject unread options before it loads anything.
Operator make_operator(const std::string& name, const Args& args) {
  if (name == "moroney") {
    const tonemap::PipelineOptions opt = pipeline_options_from(args);
    return [opt](const img::ImageF& hdr) {
      return tonemap::tone_map_image(hdr, opt);
    };
  }
  if (name == "reinhard") {
    return [](const img::ImageF& hdr) { return tonemap::reinhard_global(hdr); };
  }
  if (name == "log") {
    return [](const img::ImageF& hdr) { return tonemap::global_log(hdr); };
  }
  if (name == "gamma") {
    const auto gamma = static_cast<float>(args.get_double("gamma", 2.2));
    return [gamma](const img::ImageF& hdr) {
      return tonemap::global_gamma(hdr, gamma);
    };
  }
  if (name == "histogram") {
    return [](const img::ImageF& hdr) {
      return tonemap::histogram_adjustment(hdr);
    };
  }
  if (name == "durand") {
    tonemap::BilateralOptions bopt;
    bopt.spatial_sigma = args.get_double("spatial-sigma", 4.0);
    return [bopt](const img::ImageF& hdr) {
      return tonemap::durand_local(hdr, bopt);
    };
  }
  throw InvalidArgument("unknown operator: " + name);
}

int cmd_tonemap(const Args& args) {
  TMHLS_REQUIRE(args.positional().size() == 3,
                "usage: tmhls_cli tonemap <in> <out>");
  const std::string op = args.get_or("operator", "moroney");
  const Operator tone_map = make_operator(op, args);
  args.reject_unread();
  const img::ImageF hdr = load_image(args.positional()[1]);
  const img::DynamicRange dr =
      img::compute_dynamic_range(img::luminance(hdr));
  std::cout << "input " << hdr.width() << "x" << hdr.height() << ", "
            << format_fixed(dr.decades, 1) << " decades of range\n";
  const img::ImageF out = tone_map(hdr);
  save_image(args.positional()[2], out);
  std::cout << "wrote " << args.positional()[2] << " (" << op << ")\n";
  return 0;
}

int cmd_scene(const Args& args) {
  TMHLS_REQUIRE(args.positional().size() == 2,
                "usage: tmhls_cli scene <out>");
  const io::SceneKind kind =
      io::scene_kind_from_string(args.get_or("kind", "window_interior"));
  const int size = args.get_int("size", 512);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2018));
  args.reject_unread();
  const img::ImageF scene = io::generate_hdr_scene(kind, size, size, seed);
  save_image(args.positional()[1], scene);
  std::cout << "wrote " << args.positional()[1] << " (" << to_string(kind)
            << ", " << size << "x" << size << ", seed " << seed << ")\n";
  return 0;
}

int cmd_analyze(const Args& args) {
  const std::string wanted = args.get_or("design", "");
  args.reject_unread();
  const accel::ToneMappingSystem system(zynq::ZynqPlatform::zc702(),
                                        accel::Workload::paper());
  TextTable t({"design", "blur (s)", "total (s)", "energy (J)"});
  for (accel::Design d : accel::all_designs()) {
    if (!wanted.empty() && wanted != accel::short_name(d)) continue;
    const accel::DesignReport r = system.analyze(d);
    t.add_row({accel::display_name(d), format_fixed(r.timing.blur_s, 2),
               format_fixed(r.timing.total_s(), 2),
               format_fixed(r.energy.total_j(), 2)});
    if (!wanted.empty() && r.hls_report.has_value()) {
      std::cout << r.hls_report->render() << '\n';
    }
  }
  TMHLS_REQUIRE(t.row_count() > 0, "unknown design: " + wanted);
  std::cout << t.render();
  return 0;
}

int cmd_backends(const Args& args) {
  // Geometry and execution parameters the "auto" pick in the footer is
  // planned for (defaults: the paper's 1024x768 frame and 97-tap kernel).
  const int width = args.get_int("width", 1024);
  const int height = args.get_int("height", 768);
  TMHLS_REQUIRE(width > 0 && height > 0,
                "--width and --height must be positive");
  tonemap::PipelineOptions popt;
  popt.sigma = args.get_double("sigma", popt.sigma);
  popt.radius = args.get_int("radius", popt.radius);
  const tonemap::GaussianKernel kernel = popt.kernel();
  popt.backend = "auto";
  popt.datapath = args.has("fixed") ? tonemap::Datapath::fixed_point
                                    : tonemap::Datapath::float32;
  popt.threads = args.get_int("threads", popt.threads);
  args.reject_unread();
  const exec::PipelineExecutor choice = popt.plan(width, height);

  const exec::BackendRegistry& registry = exec::BackendRegistry::global();
  TextTable t({"backend", "datapath", "streaming", "synthesizable",
               "tiled threads", "data bits", "simd lanes"});
  for (const std::string& name : registry.names()) {
    const auto backend = registry.resolve(name);
    const exec::BackendCapabilities caps = backend->capabilities();
    std::string datapath;
    if (caps.float_datapath) datapath += "float";
    if (caps.fixed_datapath) datapath += datapath.empty() ? "fixed" : "+fixed";
    std::string bits = std::to_string(caps.data_bits);
    if (caps.dual_fixed_data_bits > 0) {
      // Appended in two steps: the `"/" + to_string(...)` temporary trips
      // a GCC 12 -Wrestrict false positive (PR105651).
      bits += '/';
      bits += std::to_string(caps.dual_fixed_data_bits);
    }
    t.add_row({name, datapath, caps.streaming ? "yes" : "no",
               caps.synthesizable ? "yes" : "no",
               caps.tiled_threads ? "yes" : "no", bits,
               std::to_string(caps.simd_lanes)});
  }
  std::cout << t.render();
  std::cout << "\nfor " << width << "x" << height << ", "
            << kernel.taps() << " taps, " << popt.threads
            << " thread(s), '--backend auto' would pick: "
            << choice.backend().name() << "\n"
            << "point-wise kernel (pow/masking): "
            << tonemap::pow_kernel_lanes() << " lanes\n";
  return 0;
}

int cmd_video(const Args& args) {
  // A synthetic pan-and-drift sequence driven through the temporally
  // adapted video tone mapper, one frame at a time.
  video::SceneSequence::Config cfg;
  cfg.kind = io::scene_kind_from_string(args.get_or("kind", "window_interior"));
  cfg.frame_size = args.get_int("size", 256);
  cfg.frames = args.get_int("frames", 24);
  cfg.master_size = args.get_int("master-size", 2 * cfg.frame_size);
  cfg.exposure_drift = args.get_double("drift", cfg.exposure_drift);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2018));
  video::VideoToneMapperOptions vopt;
  vopt.pipeline = pipeline_options_from(args);
  vopt.adaptation_rate = args.get_double("adaptation", vopt.adaptation_rate);
  vopt.frame_width = cfg.frame_size;
  vopt.frame_height = cfg.frame_size;
  const std::string out_prefix = args.get_or("out", "");
  args.reject_unread();
  const video::SceneSequence sequence(cfg);
  video::VideoToneMapper mapper(vopt);

  // Pre-render the frames so the timed loop measures tone mapping, not
  // scene synthesis.
  std::vector<img::ImageF> frames;
  frames.reserve(static_cast<std::size_t>(sequence.frame_count()));
  for (int i = 0; i < sequence.frame_count(); ++i) {
    frames.push_back(sequence.frame(i));
  }

  std::vector<img::ImageF> outputs;
  outputs.reserve(frames.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const img::ImageF& frame : frames) {
    outputs.push_back(mapper.process(frame));
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();

  std::vector<double> means;
  means.reserve(outputs.size());
  for (const img::ImageF& out : outputs) {
    means.push_back(video::mean_luminance(out));
  }

  if (!out_prefix.empty()) {
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      std::string path = out_prefix;
      path += i < 10 ? "000" : i < 100 ? "00" : i < 1000 ? "0" : "";
      path += std::to_string(i);
      path += ".ppm";
      save_image(path, outputs[i]);
    }
    std::cout << "wrote " << outputs.size() << " frames to " << out_prefix
              << "*.ppm\n";
  }

  TextTable t({"frames", "size", "backend", "threads", "total (s)", "fps",
               "flicker", "peak flicker"});
  t.add_row({std::to_string(sequence.frame_count()),
             std::to_string(cfg.frame_size),
             mapper.engine().executor().backend().name(),
             std::to_string(mapper.engine().executor().options().threads),
             format_fixed(seconds, 3),
             seconds > 0.0
                 ? format_fixed(static_cast<double>(outputs.size()) / seconds,
                                2)
                 : "-",
             format_fixed(video::flicker_metric(means), 4),
             format_fixed(video::peak_flicker(means), 4)});
  std::cout << t.render();
  return 0;
}

// Set by SIGINT/SIGTERM while `serve --listen` runs; the serve loop polls
// it and drains the server cleanly (async-signal-safe: the handler only
// writes the flag).
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve_listen(const Args& args) {
  // The socket transport front: serve framed FrameJobs over loopback TCP
  // until SIGINT/SIGTERM, then drain (in-flight jobs complete and their
  // responses are written) and report the transport + service statistics.
  const int port = args.get_int("listen", 0);
  TMHLS_REQUIRE(port >= 0 && port <= 65535,
                "--listen port must be in [0, 65535] (0 = ephemeral)");
  transport::ServerOptions so;
  so.port = static_cast<std::uint16_t>(port);
  so.service.shards = args.get_int("shards", so.service.shards);
  so.service.queue_capacity =
      args.get_int("queue", so.service.queue_capacity);
  so.max_in_flight_per_connection =
      args.get_int("window", so.max_in_flight_per_connection);
  so.max_connections = args.get_int("max-connections", so.max_connections);
  // Admission-control floor for the per-job service estimate: deadlined
  // jobs are shed or degraded when the estimated wait misses the
  // deadline (0 trusts the observed EWMA alone).
  so.service.overload.assumed_service_seconds = args.get_double(
      "assumed-service", so.service.overload.assumed_service_seconds);
  // Plane-pool retention bound of the service, the one pool request jobs
  // and stream frames share; 0 disables pooling entirely.
  const int pool_bytes_listen =
      args.get_int("pool-bytes", static_cast<int>(so.service.pool_bytes));
  TMHLS_REQUIRE(pool_bytes_listen >= 0, "--pool-bytes must be >= 0");
  so.service.pool_bytes = static_cast<std::size_t>(pool_bytes_listen);
  args.reject_unread();

  transport::Server server(so);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  // stdout and flushed: scripts (and the CI smoke test) wait for this
  // line to learn the bound port.
  std::cout << "listening on 127.0.0.1:" << server.port() << " ("
            << so.service.shards << " shard(s), window "
            << so.max_in_flight_per_connection
            << "; SIGINT/SIGTERM drains and exits)\n"
            << std::flush;
  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();

  // Every layer's counters through the one reporting interface: the
  // transport, the service (total + per shard) and the stream session
  // manager, rendered by the common serializer.
  std::vector<common::StatsSnapshot> snaps;
  snaps.push_back(snapshot(server.stats()));
  for (common::StatsSnapshot& s : snapshot(server.service().stats())) {
    snaps.push_back(std::move(s));
  }
  snaps.push_back(snapshot(server.sessions().stats()));
  std::cout << '\n' << common::render_stats_table(snaps);
  return 0;
}

int cmd_client_stream(const Args& args) {
  // Stream mode: open --stream N streaming sessions on one connection,
  // drive a synthetic pan-and-drift sequence through each (round-robin,
  // under the server's credit window), and check every full-rung frame
  // byte-for-byte against a local VideoToneMapper fed the same frames —
  // the stream identity contract, exercised over the wire.
  transport::ClientOptions copt;
  copt.host = args.get_or("host", copt.host);
  const int port = args.get_int("port", 0);
  TMHLS_REQUIRE(port >= 1 && port <= 65535,
                "client: --port must be in [1, 65535]");
  copt.port = static_cast<std::uint16_t>(port);
  copt.connect_timeout_seconds =
      args.get_double("connect-timeout", copt.connect_timeout_seconds);

  const int streams = args.get_int("stream", 1);
  const int frames = args.get_int("frames", 16);
  const int size = args.get_int("size", 128);
  const double fps = args.get_double("fps", 30.0);
  TMHLS_REQUIRE(streams >= 1 && frames >= 1 && size >= 1 && fps > 0.0,
                "--stream, --frames, --size and --fps must be positive");
  const bool check = !args.has("no-check");
  const io::SceneKind kind =
      io::scene_kind_from_string(args.get_or("kind", "window_interior"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2018));
  const tonemap::PipelineOptions popt = pipeline_options_from(args);

  stream::StreamConfig sc;
  sc.pipeline = popt;
  sc.width = size;
  sc.height = size;
  sc.frame_interval_seconds = 1.0 / fps;
  sc.qos = serve::qos_from_string(args.get_or("qos", "standard"));
  sc.adaptation_rate = args.get_double("adaptation", sc.adaptation_rate);
  sc.reorder_window = args.get_int("reorder-window", sc.reorder_window);
  sc.credits = args.get_int("credits", sc.credits);
  args.reject_unread();

  // Pre-render each stream's sequence (and, when checking, the golden
  // outputs of a local VideoToneMapper fed the same frames in order).
  std::vector<std::vector<img::ImageF>> inputs(
      static_cast<std::size_t>(streams));
  std::vector<std::vector<img::ImageF>> golden(
      static_cast<std::size_t>(streams));
  for (int s = 0; s < streams; ++s) {
    video::SceneSequence::Config cfg;
    cfg.kind = kind;
    cfg.frame_size = size;
    cfg.frames = frames;
    cfg.master_size = 2 * size;
    cfg.seed = seed + static_cast<std::uint64_t>(s);
    const video::SceneSequence sequence(cfg);
    for (int f = 0; f < frames; ++f) {
      inputs[static_cast<std::size_t>(s)].push_back(sequence.frame(f));
    }
    if (check) {
      video::VideoToneMapperOptions vopt;
      vopt.pipeline = popt;
      vopt.adaptation_rate = sc.adaptation_rate;
      vopt.frame_width = size;
      vopt.frame_height = size;
      video::VideoToneMapper mapper(vopt);
      for (int f = 0; f < frames; ++f) {
        golden[static_cast<std::size_t>(s)].push_back(mapper.process(
            inputs[static_cast<std::size_t>(s)][static_cast<std::size_t>(f)]));
      }
    }
  }

  transport::Client client(copt);
  std::vector<std::uint64_t> ids;
  std::map<std::uint64_t, std::size_t> index_of;
  for (int s = 0; s < streams; ++s) {
    ids.push_back(client.open_stream(sc));
    index_of[ids.back()] = static_cast<std::size_t>(s);
  }

  std::vector<std::vector<img::ImageF>> outputs(
      static_cast<std::size_t>(streams),
      std::vector<img::ImageF>(static_cast<std::size_t>(frames)));
  std::vector<std::vector<serve::DegradeLevel>> rungs(
      static_cast<std::size_t>(streams),
      std::vector<serve::DegradeLevel>(static_cast<std::size_t>(frames),
                                       serve::DegradeLevel::none));
  std::vector<bool> dead(static_cast<std::size_t>(streams), false);
  std::vector<double> latencies;
  std::uint64_t delivered = 0;

  const auto consume_buffered = [&] {
    while (client.buffered_stream_results() > 0) {
      transport::wire::StreamResult r = client.next_stream_result();
      const std::size_t s = index_of.at(r.stream_id);
      const auto f = static_cast<std::size_t>(r.sequence);
      rungs[s][f] = r.rung;
      outputs[s][f] = std::move(r.output);
      latencies.push_back(r.service_seconds);
      ++delivered;
    }
  };

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  for (int f = 0; f < frames; ++f) {
    for (int s = 0; s < streams; ++s) {
      if (dead[static_cast<std::size_t>(s)]) continue;
      try {
        // Moved in: each pre-rendered input is sent once, from its plane.
        client.send_stream_frame(
            ids[static_cast<std::size_t>(s)], static_cast<std::uint64_t>(f),
            std::move(inputs[static_cast<std::size_t>(s)]
                            [static_cast<std::size_t>(f)]));
      } catch (const transport::RemoteError&) {
        // Terminated server-side (shed under overload): stop feeding it;
        // close_stream below still reports its final counters.
        dead[static_cast<std::size_t>(s)] = true;
      }
      consume_buffered();
    }
  }
  std::vector<transport::wire::StreamClosed> finals;
  for (int s = 0; s < streams; ++s) {
    finals.push_back(client.close_stream(ids[static_cast<std::size_t>(s)]));
    consume_buffered();
  }
  const double total_s =
      std::chrono::duration<double>(clock::now() - t0).count();

  // Full-rung frames must match the local VideoToneMapper bit-for-bit;
  // the adaptation trajectory depends only on the input frames, so this
  // holds even for frames after a degraded stretch.
  bool identical = true;
  if (check) {
    for (int s = 0; s < streams; ++s) {
      for (int f = 0; f < frames; ++f) {
        const img::ImageF& got =
            outputs[static_cast<std::size_t>(s)][static_cast<std::size_t>(f)];
        if (got.empty() || rungs[static_cast<std::size_t>(s)]
                                [static_cast<std::size_t>(f)] !=
                               serve::DegradeLevel::none) {
          continue;
        }
        const img::ImageF& want =
            golden[static_cast<std::size_t>(s)][static_cast<std::size_t>(f)];
        if (!got.same_shape(want) ||
            std::memcmp(got.samples().data(), want.samples().data(),
                        want.samples().size_bytes()) != 0) {
          identical = false;
          std::cerr << "stream " << s << " frame " << f
                    << " differs from local VideoToneMapper\n";
        }
      }
    }
  }

  TextTable t({"stream", "status", "delivered", "shed", "expired",
               "rung switches"});
  for (int s = 0; s < streams; ++s) {
    const transport::wire::StreamClosed& fin =
        finals[static_cast<std::size_t>(s)];
    const char* status =
        fin.status == transport::wire::StreamStatus::closed ? "closed"
        : fin.status == transport::wire::StreamStatus::shed ? "shed"
                                                            : "failed";
    t.add_row({std::to_string(s), status,
               std::to_string(fin.frames_delivered),
               std::to_string(fin.frames_shed),
               std::to_string(fin.frames_expired),
               std::to_string(fin.rung_switches)});
  }
  std::cout << t.render();
  std::cout << "delivered " << delivered << " frames over " << streams
            << " stream(s) in " << format_fixed(total_s, 3) << " s ("
            << (total_s > 0.0
                    ? format_fixed(static_cast<double>(delivered) / total_s,
                                   2)
                    : "-")
            << " frames/s, p99 service "
            << (latencies.empty()
                    ? "-"
                    : format_fixed(percentile(latencies, 0.99) * 1e3, 2))
            << " ms)\n";
  if (check) {
    std::cout << "\nfull-rung frames bit-identical to VideoToneMapper: "
              << (identical ? "yes" : "NO — this is a bug, please report")
              << '\n';
  }
  return identical ? 0 : 1;
}

int cmd_client(const Args& args) {
  if (args.has("stream")) return cmd_client_stream(args);
  // Drive a transport::Server over one socket: J synthetic frames
  // submitted pipelined (up to --window in flight), every response
  // checked byte-for-byte against the local blocking tone_map() unless
  // --no-check, and the same throughput/latency table the in-process
  // serve mode prints.
  transport::ClientOptions copt;
  copt.host = args.get_or("host", copt.host);
  const int port = args.get_int("port", 0);
  TMHLS_REQUIRE(port >= 1 && port <= 65535,
                "client: --port must be in [1, 65535]");
  copt.port = static_cast<std::uint16_t>(port);
  copt.connect_timeout_seconds =
      args.get_double("connect-timeout", copt.connect_timeout_seconds);
  copt.request_timeout_seconds =
      args.get_double("request-timeout", copt.request_timeout_seconds);
  copt.max_request_retries =
      args.get_int("retries", copt.max_request_retries);

  const serve::QosClass qos =
      serve::qos_from_string(args.get_or("qos", "standard"));
  const double deadline = args.get_double("deadline", 0.0);
  const int jobs = args.get_int("jobs", 8);
  const int size = args.get_int("size", 192);
  const int window = args.get_int("window", 4);
  TMHLS_REQUIRE(jobs >= 1 && size >= 1 && window >= 1,
                "--jobs, --size and --window must be positive");
  const bool check = !args.has("no-check");
  const io::SceneKind kind =
      io::scene_kind_from_string(args.get_or("kind", "window_interior"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2018));
  const tonemap::PipelineOptions popt = pipeline_options_from(args);
  args.reject_unread();

  // Pre-render frames (and, when checking, the local golden outputs) so
  // the timed region measures the transport + service, not synthesis.
  std::vector<img::ImageF> frames;
  std::vector<img::ImageF> golden;
  for (int j = 0; j < jobs; ++j) {
    frames.push_back(io::generate_hdr_scene(
        kind, size, size, seed + static_cast<std::uint64_t>(j)));
    if (check) golden.push_back(tonemap::tone_map_image(frames.back(), popt));
  }

  transport::Client client(copt);
  using clock = std::chrono::steady_clock;
  std::vector<clock::time_point> submitted(static_cast<std::size_t>(jobs));
  std::vector<double> latencies;
  std::vector<double> queue_seconds;
  std::vector<img::ImageF> outputs(static_cast<std::size_t>(jobs));
  std::vector<serve::DegradeLevel> degrades(
      static_cast<std::size_t>(jobs), serve::DegradeLevel::none);
  std::string backend_used;
  std::uint64_t shed = 0, expired = 0, other_errors = 0, degraded = 0;

  const auto consume_one = [&] {
    // Non-const: the output plane is moved out below; a const result
    // would silently copy ~frame-size bytes inside the timed region.
    // A typed server-side rejection (shed / expired) is an expected
    // outcome under overload: counted, and the connection continues.
    transport::wire::Response r;
    try {
      r = client.next_result();
    } catch (const transport::RemoteError& e) {
      switch (e.code()) {
        case transport::wire::ErrorCode::overloaded: ++shed; break;
        case transport::wire::ErrorCode::deadline_exceeded:
          ++expired;
          break;
        default: ++other_errors; break;
      }
      return;
    }
    const auto id = static_cast<std::size_t>(r.request_id);
    latencies.push_back(std::chrono::duration<double>(
                            clock::now() - submitted[id]).count());
    queue_seconds.push_back(r.result.queue_seconds);
    backend_used = r.result.backend;
    if (r.result.degrade != serve::DegradeLevel::none) ++degraded;
    degrades[id] = r.result.degrade;
    outputs[id] = std::move(r.result.output);
  };

  const auto t0 = clock::now();
  for (int j = 0; j < jobs; ++j) {
    serve::FrameJob job;
    job.frame = frames[static_cast<std::size_t>(j)];
    job.options = popt;
    job.qos = qos;
    // Flag-level convention: --deadline 0 (the default) means "no
    // deadline" and leaves FrameJob::deadline_seconds disengaged.
    if (deadline > 0.0) job.deadline_seconds = deadline;
    while (client.in_flight() >= static_cast<std::size_t>(window)) {
      consume_one();
    }
    submitted[static_cast<std::size_t>(j)] = clock::now();
    client.submit(std::move(job));
  }
  while (client.in_flight() > 0) consume_one();
  const double total_s =
      std::chrono::duration<double>(clock::now() - t0).count();

  bool identical = true;
  if (check) {
    for (int j = 0; j < jobs; ++j) {
      const img::ImageF& got = outputs[static_cast<std::size_t>(j)];
      // Shed/expired jobs produced no frame, and degraded frames match a
      // different (reduced/global) pipeline — only full-quality results
      // are compared against the blocking golden.
      if (got.empty() ||
          degrades[static_cast<std::size_t>(j)] !=
              serve::DegradeLevel::none) {
        continue;
      }
      const img::ImageF& want = golden[static_cast<std::size_t>(j)];
      if (!got.same_shape(want) ||
          std::memcmp(got.samples().data(), want.samples().data(),
                      want.samples().size_bytes()) != 0) {
        identical = false;
        std::cerr << "frame " << j << " differs from blocking tone_map()\n";
      }
    }
  }

  TextTable t({"jobs", "size", "backend", "window", "total (s)", "jobs/s",
               "p50 (ms)", "p99 (ms)", "queue p50 (ms)"});
  t.add_row({std::to_string(jobs), std::to_string(size), backend_used,
             std::to_string(window), format_fixed(total_s, 3),
             total_s > 0.0 ? format_fixed(jobs / total_s, 2) : "-",
             latencies.empty()
                 ? "-"
                 : format_fixed(percentile(latencies, 0.5) * 1e3, 2),
             latencies.empty()
                 ? "-"
                 : format_fixed(percentile(latencies, 0.99) * 1e3, 2),
             queue_seconds.empty()
                 ? "-"
                 : format_fixed(percentile(queue_seconds, 0.5) * 1e3, 2)});
  std::cout << t.render();
  if (shed + expired + other_errors + degraded > 0) {
    std::cout << "overload outcomes: shed " << shed << ", expired "
              << expired << ", degraded " << degraded << ", other errors "
              << other_errors << "\n";
  }
  if (check) {
    std::cout << "\nbit-identical to blocking tone_map(): "
              << (identical ? "yes" : "NO — this is a bug, please report")
              << '\n';
  }
  return identical ? 0 : 1;
}

int cmd_serve(const Args& args) {
  if (args.has("listen")) return cmd_serve_listen(args);
  // A synthetic multi-client workload through the in-process serving
  // layer: C client threads each submit J whole-frame jobs into a
  // serve::ToneMapService and wait for their futures, measuring the
  // client-observed end-to-end latency of every job plus the service-side
  // queue/service split the FrameResult reports.
  const int shards = args.get_int("shards", 2);
  const int clients = args.get_int("clients", 4);
  const int jobs = args.get_int("jobs", 8); // per client
  const int size = args.get_int("size", 192);
  TMHLS_REQUIRE(clients >= 1 && jobs >= 1 && size >= 1,
                "--clients, --jobs and --size must be positive");
  const io::SceneKind kind =
      io::scene_kind_from_string(args.get_or("kind", "window_interior"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2018));

  serve::ToneMapServiceOptions so;
  so.shards = shards;
  so.queue_capacity = args.get_int("queue", so.queue_capacity);
  so.overload.assumed_service_seconds = args.get_double(
      "assumed-service", so.overload.assumed_service_seconds);
  const int pool_bytes =
      args.get_int("pool-bytes", static_cast<int>(so.pool_bytes));
  TMHLS_REQUIRE(pool_bytes >= 0, "--pool-bytes must be >= 0");
  so.pool_bytes = static_cast<std::size_t>(pool_bytes);
  const serve::QosClass qos =
      serve::qos_from_string(args.get_or("qos", "standard"));
  const double deadline = args.get_double("deadline", 0.0);
  const tonemap::PipelineOptions popt = pipeline_options_from(args);
  args.reject_unread();

  // Pre-render per-client frames so the timed region measures serving,
  // not scene synthesis.
  std::vector<std::vector<img::ImageF>> frames(
      static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    for (int j = 0; j < jobs; ++j) {
      frames[static_cast<std::size_t>(c)].push_back(io::generate_hdr_scene(
          kind, size, size,
          seed + static_cast<std::uint64_t>(c * jobs + j)));
    }
  }

  serve::ToneMapService service(so);
  using clock = std::chrono::steady_clock;
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients)); // end-to-end seconds per job
  std::vector<double> queue_seconds_all;
  std::mutex queue_seconds_mutex;
  std::string backend_used;
  // First client-side error, rethrown on the main thread after the join
  // so bad arguments reach main()'s clean error path instead of
  // std::terminate'ing inside a client thread. Typed overload outcomes
  // (Overloaded at submit, DeadlineExceeded through the future) are
  // expected under pressure and tallied instead.
  std::exception_ptr client_error;
  std::atomic<std::uint64_t> client_shed{0}, client_expired{0};

  const auto t0 = clock::now();
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      try {
        std::vector<clock::time_point> submitted;
        std::vector<std::future<serve::FrameResult>> futures;
        for (const img::ImageF& frame :
             frames[static_cast<std::size_t>(c)]) {
          serve::FrameJob job;
          job.frame = frame;
          job.options = popt;
          job.qos = qos;
          // --deadline 0 (default): no deadline, optional stays disengaged.
          if (deadline > 0.0) job.deadline_seconds = deadline;
          const clock::time_point at = clock::now();
          try {
            futures.push_back(service.submit(std::move(job)));
          } catch (const serve::Overloaded&) {
            client_shed.fetch_add(1);
            continue;
          }
          submitted.push_back(at);
        }
        for (std::size_t j = 0; j < futures.size(); ++j) {
          serve::FrameResult r;
          try {
            r = futures[j].get();
          } catch (const serve::DeadlineExceeded&) {
            client_expired.fetch_add(1);
            continue;
          }
          latencies[static_cast<std::size_t>(c)].push_back(
              std::chrono::duration<double>(clock::now() - submitted[j])
                  .count());
          std::lock_guard<std::mutex> lock(queue_seconds_mutex);
          queue_seconds_all.push_back(r.queue_seconds);
          backend_used = r.backend;
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(queue_seconds_mutex);
        if (!client_error) client_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : client_threads) t.join();
  if (client_error) std::rethrow_exception(client_error);
  const double total_s =
      std::chrono::duration<double>(clock::now() - t0).count();

  // Snapshot the statistics now, so the tables reconcile: the
  // bit-identity check below submits one more job that is not part of
  // the measured workload.
  const serve::ServiceStats stats = service.stats();

  // Sanity check the serving path against the blocking one: the service
  // must never change bits, whatever the shard configuration.
  const img::ImageF check_frame = frames[0][0];
  const img::ImageF blocking =
      tonemap::tone_map_image(check_frame, popt);
  serve::FrameJob check;
  check.frame = check_frame;
  check.options = popt;
  const img::ImageF served = service.submit(std::move(check)).get().output;
  const bool identical =
      blocking.same_shape(served) &&
      std::memcmp(blocking.samples().data(), served.samples().data(),
                  blocking.samples().size_bytes()) == 0;

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  const int total_jobs = clients * jobs;

  TextTable t({"shards", "clients", "jobs", "size", "backend", "total (s)",
               "jobs/s", "p50 (ms)", "p99 (ms)", "queue p50 (ms)"});
  t.add_row({std::to_string(shards), std::to_string(clients),
             std::to_string(total_jobs), std::to_string(size), backend_used,
             format_fixed(total_s, 3),
             total_s > 0.0 ? format_fixed(total_jobs / total_s, 2) : "-",
             all.empty() ? "-"
                         : format_fixed(percentile(all, 0.5) * 1e3, 2),
             all.empty() ? "-"
                         : format_fixed(percentile(all, 0.99) * 1e3, 2),
             queue_seconds_all.empty()
                 ? "-"
                 : format_fixed(
                       percentile(queue_seconds_all, 0.5) * 1e3, 2)});
  std::cout << t.render() << '\n';

  // Service counters (total + per shard) through the common serializer —
  // the same table every other layer's stats render as.
  std::cout << common::render_stats_table(snapshot(stats));
  if (stats.shed + stats.expired > 0) {
    std::cout << "client-observed outcomes: shed " << client_shed.load()
              << ", expired " << client_expired.load() << "\n";
  }
  std::cout << "\nbit-identical to blocking tone_map(): "
            << (identical ? "yes" : "NO — this is a bug, please report")
            << "\n(shard count beyond the core count only adds queueing on "
               "this host)\n";
  return identical ? 0 : 1;
}

int cmd_compare(const Args& args) {
  TMHLS_REQUIRE(args.positional().size() == 2,
                "usage: tmhls_cli compare <in>");
  const Operator moroney = make_operator("moroney", args);
  std::vector<std::pair<std::string, Operator>> ops;
  for (const char* op :
       {"reinhard", "log", "gamma", "histogram", "durand"}) {
    ops.emplace_back(op, make_operator(op, args));
  }
  args.reject_unread();
  const img::ImageF hdr = load_image(args.positional()[1]);
  const img::ImageF reference = moroney(hdr);
  TextTable t({"operator", "PSNR vs moroney (dB)", "SSIM vs moroney"});
  for (const auto& [op, tone_map] : ops) {
    const img::ImageF out = tone_map(hdr);
    const double p = metrics::psnr(reference, out);
    t.add_row({op,
               std::isinf(p) ? std::string("inf") : format_fixed(p, 1),
               format_fixed(metrics::ssim(reference, out), 3)});
  }
  std::cout << t.render();
  std::cout << "\n(low scores are expected: different operators render the\n"
               "same scene differently; the table quantifies how far apart)\n";
  return 0;
}

void usage() {
  std::cout <<
      "usage: tmhls_cli <command> [options]\n"
      "  tonemap <in> <out>   tone-map an HDR image\n"
      "                       (--backend <name|auto> selects the execution\n"
      "                        backend, --datapath float|fixed the numeric\n"
      "                        datapath, --threads N the fused engine's\n"
      "                        row bands)\n"
      "  video                tone-map a synthetic HDR sequence through the\n"
      "                       temporally adapted mapper (--frames, --size,\n"
      "                       --kind, --adaptation, --backend, --threads,\n"
      "                       --out <prefix>)\n"
      "  serve                drive a synthetic multi-client workload\n"
      "                       through the in-process serving layer\n"
      "                       (--shards, --clients, --jobs, --size,\n"
      "                       --queue, --backend, --threads) and print a\n"
      "                       throughput/latency table; with --listen PORT\n"
      "                       serve framed jobs and streams over loopback\n"
      "                       TCP instead; both run on one service\n"
      "                       (--window bounds per-connection pipelining,\n"
      "                       --pool-bytes the service's plane pool;\n"
      "                       SIGINT/SIGTERM drains and exits)\n"
      "  client               submit synthetic frames to a `serve --listen`\n"
      "                       server (--port, --host, --jobs, --size,\n"
      "                       --window, --backend, --threads,\n"
      "                       --connect-timeout, --no-check); verifies\n"
      "                       responses byte-for-byte against the local\n"
      "                       blocking pipeline and prints the\n"
      "                       throughput/latency table; with --stream N\n"
      "                       drive N streaming sessions instead (--frames,\n"
      "                       --fps, --adaptation, --reorder-window,\n"
      "                       --credits), checked frame-for-frame against a\n"
      "                       local VideoToneMapper\n"
      "  scene <out>          generate a synthetic HDR scene\n"
      "  analyze              evaluate the Table II design points\n"
      "  backends             list the four execution backends and what\n"
      "                       '--backend auto' picks for a geometry\n"
      "                       (--width, --height, --sigma, --radius,\n"
      "                       --threads, --fixed)\n"
      "  compare <in>         compare operators against moroney\n";
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv, {"fixed", "no-check"});
    if (args.positional().empty()) {
      usage();
      return 1;
    }
    const std::string cmd = args.positional()[0];
    if (cmd == "tonemap") return cmd_tonemap(args);
    if (cmd == "video") return cmd_video(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "client") return cmd_client(args);
    if (cmd == "scene") return cmd_scene(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "backends") return cmd_backends(args);
    if (cmd == "compare") return cmd_compare(args);
    usage();
    return 1;
  } catch (const tmhls::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
