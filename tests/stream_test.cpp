// Tests for the streaming session subsystem: byte-identity of streamed
// frames against a standalone video::VideoToneMapper (per backend, per
// thread count, in-order and shuffled within the reorder window, and
// with four streams driven concurrently); the reorder-window semantics
// (gap skip, late-arrival expiry, flow-control exhaustion) and the
// frames_submitted == delivered + shed + expired balance they must keep;
// the deterministic rate-controller contract (one switch per sweep under
// 2x overload for standard, shed-as-a-unit for best_effort, immovable
// critical, hysteresis against flapping, and the same trajectories through
// a session at 1x and 2x load); bit-identity of the degraded rungs
// against their standalone counterparts; fault injection at the per-frame
// processing site; and the transport integration — streams over the wire
// match the local mapper and run as jobs of the server's one
// ToneMapService (also mixed with request traffic), every reply carries
// the client's stream id rather than the session's, a frame sent by move
// is not copied, and a mid-stream disconnect makes the server abort the
// connection's streams (opened == closed).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "image/plane_pool.hpp"
#include "serve/service.hpp"
#include "stream/rate_controller.hpp"
#include "stream/session.hpp"
#include "tonemap/global_operators.hpp"
#include "tonemap/pipeline.hpp"
#include "transport/client.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "video/video_tonemapper.hpp"

namespace tmhls::stream {
namespace {

img::ImageF random_hdr(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, 3);
  for (float& v : im.samples()) {
    v = static_cast<float>(rng.uniform() * 50.0 + 1e-3);
  }
  return im;
}

::testing::AssertionResult bit_identical(const img::ImageF& a,
                                         const img::ImageF& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  auto sa = a.samples();
  auto sb = b.samples();
  if (std::memcmp(sa.data(), sb.data(), sa.size_bytes()) != 0) {
    return ::testing::AssertionFailure() << "bit pattern difference";
  }
  return ::testing::AssertionSuccess();
}

/// A wall-clock-free stream config: the rate controller sees no service
/// measurements and no assumed estimate, so the rung never moves.
StreamConfig quiet_config(const std::string& backend, int w, int h,
                          int threads = 1) {
  StreamConfig sc;
  sc.pipeline.sigma = 2.0;
  sc.pipeline.radius = 6;
  sc.pipeline.backend = backend;
  sc.pipeline.threads = threads;
  sc.width = w;
  sc.height = h;
  sc.measure_service = false;
  return sc;
}

/// The standalone trajectory the stream must reproduce bit-for-bit.
std::vector<img::ImageF> golden_sequence(const StreamConfig& sc,
                                         const std::vector<img::ImageF>&
                                             frames) {
  video::VideoToneMapperOptions vopt;
  vopt.pipeline = sc.pipeline;
  vopt.adaptation_rate = sc.adaptation_rate;
  vopt.frame_width = sc.width;
  vopt.frame_height = sc.height;
  video::VideoToneMapper mapper(vopt);
  std::vector<img::ImageF> out;
  for (const img::ImageF& frame : frames) out.push_back(mapper.process(frame));
  return out;
}

/// Drive `frames` through one stream in arrival order `order`, close, and
/// return the delivered outputs indexed by sequence number.
std::vector<img::ImageF> run_stream(SessionManager& manager,
                                    const StreamConfig& sc,
                                    const std::vector<img::ImageF>& frames,
                                    const std::vector<std::size_t>& order) {
  const std::uint64_t id = manager.open(sc);
  std::vector<img::ImageF> outputs(frames.size());
  const auto place = [&](std::vector<StreamFrameResult> results) {
    for (StreamFrameResult& r : results) {
      outputs[static_cast<std::size_t>(r.sequence)] = std::move(r.output);
    }
  };
  for (const std::size_t f : order) {
    place(manager.submit_frame(id, f, frames[f]).results);
  }
  place(manager.close(id).results);
  return outputs;
}

// --- identity contract -----------------------------------------------------

TEST(StreamSessionTest, ByteIdenticalToVideoToneMapperAcrossBackends) {
  std::vector<img::ImageF> frames;
  for (int f = 0; f < 6; ++f) frames.push_back(random_hdr(48, 40, 7u + f));
  std::vector<std::size_t> in_order(frames.size());
  for (std::size_t i = 0; i < in_order.size(); ++i) in_order[i] = i;

  for (const std::string backend :
       {"separable_float", "hlscode", "fused_stream"}) {
    for (const int threads : {1, 2}) {
      const StreamConfig sc = quiet_config(backend, 48, 40, threads);
      const std::vector<img::ImageF> golden = golden_sequence(sc, frames);
      serve::ToneMapService service;
      SessionManager manager(service);
      const std::vector<img::ImageF> outputs =
          run_stream(manager, sc, frames, in_order);
      for (std::size_t f = 0; f < frames.size(); ++f) {
        EXPECT_TRUE(bit_identical(outputs[f], golden[f]))
            << backend << " threads=" << threads << " frame " << f;
      }
    }
  }
}

TEST(StreamSessionTest, ServiceSecondsTimesTheEngineRun) {
  // A 256x256 frame through the paper's 97-tap kernel costs milliseconds
  // on any host; the stream must report that cost (what its rate
  // controller holds against the frame interval), not the bookkeeping
  // after the frame already ran.
  StreamConfig sc;
  sc.width = 256;
  sc.height = 256;
  sc.measure_service = false;
  ASSERT_EQ(sc.pipeline.kernel().taps(), 97);
  serve::ToneMapService service;
  SessionManager manager(service);
  const std::uint64_t id = manager.open(sc);
  const SubmitOutcome outcome =
      manager.submit_frame(id, 0, random_hdr(256, 256, 5));
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.results[0].rung, serve::DegradeLevel::none);
  EXPECT_GT(outcome.results[0].service_seconds, 1e-3);
  manager.close(id);
}

TEST(StreamSessionTest, ShuffledArrivalWithinWindowDeliversInOrder) {
  std::vector<img::ImageF> frames;
  for (int f = 0; f < 8; ++f) frames.push_back(random_hdr(32, 24, 40u + f));
  StreamConfig sc = quiet_config("separable_float", 32, 24);
  sc.reorder_window = 4;
  sc.credits = 8;
  const std::vector<img::ImageF> golden = golden_sequence(sc, frames);

  // Jittered arrival, never more than the window out of order.
  const std::vector<std::size_t> order = {1, 0, 3, 2, 4, 6, 7, 5};
  serve::ToneMapService service;
  SessionManager manager(service);
  const std::vector<img::ImageF> outputs =
      run_stream(manager, sc, frames, order);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    EXPECT_TRUE(bit_identical(outputs[f], golden[f])) << "frame " << f;
  }
  const SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.frames_submitted, frames.size());
  EXPECT_EQ(stats.frames_delivered, frames.size());
  EXPECT_EQ(stats.frames_shed, 0u);
  EXPECT_EQ(stats.frames_expired, 0u);
}

TEST(StreamSessionTest, FourConcurrentStreamsStayByteIdenticalPerStream) {
  // The acceptance scenario: four streams driven from four threads, each
  // checked frame-for-frame against its own standalone VideoToneMapper.
  constexpr int kStreams = 4;
  constexpr int kFrames = 5;
  std::vector<std::vector<img::ImageF>> frames(kStreams);
  std::vector<std::vector<img::ImageF>> golden(kStreams);
  const StreamConfig sc = quiet_config("separable_float", 32, 24);
  for (int s = 0; s < kStreams; ++s) {
    for (int f = 0; f < kFrames; ++f) {
      frames[s].push_back(random_hdr(32, 24, 100u * s + f));
    }
    golden[s] = golden_sequence(sc, frames[s]);
  }

  serve::ToneMapService service;
  SessionManager manager(service);
  std::vector<std::vector<img::ImageF>> outputs(kStreams);
  std::vector<std::size_t> in_order(kFrames);
  for (std::size_t i = 0; i < in_order.size(); ++i) in_order[i] = i;
  std::vector<std::thread> threads;
  for (int s = 0; s < kStreams; ++s) {
    threads.emplace_back([&, s] {
      outputs[s] = run_stream(manager, sc, frames[s], in_order);
    });
  }
  for (std::thread& t : threads) t.join();

  for (int s = 0; s < kStreams; ++s) {
    for (int f = 0; f < kFrames; ++f) {
      EXPECT_TRUE(bit_identical(outputs[s][f], golden[s][f]))
          << "stream " << s << " frame " << f;
    }
  }
  const SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.streams_opened, static_cast<std::uint64_t>(kStreams));
  EXPECT_EQ(stats.streams_closed, static_cast<std::uint64_t>(kStreams));
  EXPECT_EQ(stats.frames_delivered,
            static_cast<std::uint64_t>(kStreams * kFrames));
  EXPECT_EQ(stats.frames_submitted,
            stats.frames_delivered + stats.frames_shed +
                stats.frames_expired);
}

// --- reorder window and flow control ---------------------------------------

TEST(StreamSessionTest, GapSkipAndLateArrivalExpiry) {
  StreamConfig sc = quiet_config("separable_float", 16, 12);
  sc.reorder_window = 2;
  sc.credits = 8;
  serve::ToneMapService service;
  SessionManager manager(service);
  const std::uint64_t id = manager.open(sc);
  const img::ImageF frame = random_hdr(16, 12, 5);

  EXPECT_EQ(manager.submit_frame(id, 0, frame).results.size(), 1u);
  // Sequence 1 never arrives; 2 and 3 buffer inside the window...
  EXPECT_EQ(manager.submit_frame(id, 2, frame).results.size(), 0u);
  EXPECT_EQ(manager.submit_frame(id, 3, frame).results.size(), 0u);
  // ...and 4 overflows it: the gap at 1 is skipped, 2..4 deliver.
  EXPECT_EQ(manager.submit_frame(id, 4, frame).results.size(), 3u);
  StreamStats st = manager.stream_stats(id);
  EXPECT_EQ(st.sequence_gaps, 1u);
  EXPECT_EQ(st.frames_delivered, 4u);

  // The straggler arrives after its slot was skipped: expired, credit
  // returned, no delivery.
  const SubmitOutcome late = manager.submit_frame(id, 1, frame);
  EXPECT_TRUE(late.results.empty());
  EXPECT_EQ(late.credits_released, 1u);
  // A duplicate of a delivered frame expires the same way.
  EXPECT_TRUE(manager.submit_frame(id, 2, frame).results.empty());

  st = manager.stream_stats(id);
  EXPECT_EQ(st.frames_expired, 2u);
  EXPECT_EQ(st.frames_submitted,
            st.frames_delivered + st.frames_shed + st.frames_expired);
  manager.close(id);
}

TEST(StreamSessionTest, ExhaustedCreditWindowThrowsOverloaded) {
  StreamConfig sc = quiet_config("separable_float", 16, 12);
  sc.reorder_window = 16;
  sc.credits = 3;
  serve::ToneMapService service;
  SessionManager manager(service);
  const std::uint64_t id = manager.open(sc);
  const img::ImageF frame = random_hdr(16, 12, 6);
  // Hold the gap at 0 open so every frame buffers undelivered.
  (void)manager.submit_frame(id, 1, frame);
  (void)manager.submit_frame(id, 2, frame);
  (void)manager.submit_frame(id, 3, frame);
  EXPECT_THROW((void)manager.submit_frame(id, 4, frame), serve::Overloaded);
  // The end-of-stream drain skips the gap and delivers the buffer.
  const CloseResult done = manager.close(id);
  EXPECT_EQ(done.results.size(), 3u);
  EXPECT_EQ(done.stats.sequence_gaps, 1u);
  EXPECT_EQ(done.stats.frames_submitted,
            done.stats.frames_delivered + done.stats.frames_shed +
                done.stats.frames_expired);
}

TEST(StreamSessionTest, CapacityShedsStandardAdmitsCritical) {
  SessionManagerOptions mo;
  mo.max_streams = 1;
  serve::ToneMapService service;
  SessionManager manager(service, mo);
  const StreamConfig sc = quiet_config("separable_float", 16, 12);
  (void)manager.open(sc);
  EXPECT_THROW((void)manager.open(sc), serve::Overloaded);
  StreamConfig critical = sc;
  critical.qos = serve::QosClass::critical;
  EXPECT_NO_THROW((void)manager.open(critical));
}

TEST(StreamSessionTest, GeometryMismatchAndDarkFramesRejectAtSubmit) {
  serve::ToneMapService service;
  SessionManager manager(service);
  const std::uint64_t id =
      manager.open(quiet_config("separable_float", 16, 12));
  EXPECT_THROW((void)manager.submit_frame(id, 0, random_hdr(8, 8, 1)),
               InvalidArgument);
  img::ImageF dark(16, 12, 3); // all zeros: no light to adapt to
  EXPECT_THROW((void)manager.submit_frame(id, 0, dark), InvalidArgument);
  // Rejected frames never entered the stream: the balance is untouched.
  const StreamStats st = manager.stream_stats(id);
  EXPECT_EQ(st.frames_submitted, 0u);
}

// --- rate controller (deterministic: driven by the assumed estimate) -------

RateControllerOptions fast_rate() {
  RateControllerOptions r;
  r.reevaluate_every = 4;
  r.min_dwell_frames = 4;
  r.up_stability = 2;
  return r;
}

TEST(StreamRateTest, TwoTimesOverloadSwitchesStandardExactlyOnce) {
  RateControllerOptions r = fast_rate();
  r.assumed_service_seconds = 2.0; // 2x the 1s interval
  RateController rate(r, serve::QosClass::standard, 1.0);
  for (int f = 0; f < 64; ++f) {
    const RateDecision d = rate.on_frame(0);
    EXPECT_FALSE(d.shed);
  }
  // One step down to reduced_blur (cost 0.25 -> 0.5s, inside budget),
  // and the hysteresis holds it there: exactly one switch per sweep.
  EXPECT_EQ(rate.decision().rung, serve::DegradeLevel::reduced_blur);
  EXPECT_EQ(rate.switches(), 1u);
}

TEST(StreamRateTest, BestEffortShedsAsAUnitAndStaysShed) {
  RateControllerOptions r = fast_rate();
  r.assumed_service_seconds = 2.0;
  RateController rate(r, serve::QosClass::best_effort, 1.0);
  bool shed = false;
  for (int f = 0; f < 16; ++f) shed = rate.on_frame(0).shed || shed;
  EXPECT_TRUE(shed);
  EXPECT_TRUE(rate.decision().shed); // terminal
  EXPECT_EQ(rate.switches(), 0u);    // shedding is not a rung switch
}

TEST(StreamRateTest, CriticalNeverDegradesOrSheds) {
  RateControllerOptions r = fast_rate();
  r.assumed_service_seconds = 16.0; // hopeless overload
  RateController rate(r, serve::QosClass::critical, 1.0);
  for (int f = 0; f < 64; ++f) {
    const RateDecision d = rate.on_frame(8);
    EXPECT_FALSE(d.shed);
    EXPECT_EQ(d.rung, serve::DegradeLevel::none);
  }
  EXPECT_EQ(rate.switches(), 0u);
}

TEST(StreamRateTest, StepsBackUpOnlyAfterSustainedHeadroom) {
  RateControllerOptions r = fast_rate();
  r.ewma_alpha = 1.0; // estimate == last sample, for exact control
  RateController rate(r, serve::QosClass::standard, 1.0);
  // Overloaded: one switch down.
  rate.record_service(serve::DegradeLevel::none, 2.0);
  for (int f = 0; f < 4; ++f) rate.on_frame(0);
  ASSERT_EQ(rate.decision().rung, serve::DegradeLevel::reduced_blur);
  ASSERT_EQ(rate.switches(), 1u);
  // Load vanishes (full-quality equivalent 0.1s << 0.5 up-utilization
  // band). One eligible evaluation is NOT enough (up_stability = 2)...
  rate.record_service(serve::DegradeLevel::reduced_blur, 0.1 * 0.25);
  for (int f = 0; f < 4; ++f) rate.on_frame(0);
  EXPECT_EQ(rate.decision().rung, serve::DegradeLevel::reduced_blur);
  // ...the second sustained one is.
  for (int f = 0; f < 4; ++f) rate.on_frame(0);
  EXPECT_EQ(rate.decision().rung, serve::DegradeLevel::none);
  EXPECT_EQ(rate.switches(), 2u);
}

TEST(StreamRateTest, BorderlineLoadDoesNotFlap) {
  // Sitting just past the down threshold: the decision moves once and
  // then holds, even though the load signal keeps straddling the band.
  RateControllerOptions r = fast_rate();
  r.ewma_alpha = 1.0;
  RateController rate(r, serve::QosClass::standard, 1.0);
  for (int f = 0; f < 64; ++f) {
    rate.record_service(rate.decision().rung, f % 2 == 0 ? 1.05 : 0.95);
    rate.on_frame(0);
  }
  EXPECT_LE(rate.switches(), 1u);
}

TEST(StreamRateTest, SessionTrajectoryAtOneAndTwoTimesOverload) {
  // The whole-stream decisions through a session, per QoS class: at 1x
  // load both streams keep full quality; at 2x the standard stream makes
  // exactly one rung switch and the best_effort stream is shed as a unit.
  for (const double factor : {1.0, 2.0}) {
    SCOPED_TRACE(factor);
    serve::ToneMapService service;
    SessionManager manager(service);
    const img::ImageF frame = random_hdr(16, 12, 31);
    for (const serve::QosClass qos :
         {serve::QosClass::standard, serve::QosClass::best_effort}) {
      StreamConfig sc = quiet_config("separable_float", 16, 12);
      sc.qos = qos;
      sc.rate = fast_rate();
      sc.rate.assumed_service_seconds = factor;
      sc.frame_interval_seconds = 1.0;
      const std::uint64_t id = manager.open(sc);
      bool stream_shed = false;
      for (std::uint64_t f = 0; f < 16; ++f) {
        stream_shed = manager.submit_frame(id, f, frame).stream_shed ||
                      stream_shed;
      }
      const StreamStats st = manager.close(id).stats;
      EXPECT_EQ(st.frames_submitted,
                st.frames_delivered + st.frames_shed + st.frames_expired);
      const bool overloaded = factor > 1.0;
      if (qos == serve::QosClass::standard) {
        EXPECT_EQ(st.rung_switches, overloaded ? 1u : 0u);
        EXPECT_EQ(st.frames_delivered, 16u);
      } else {
        EXPECT_EQ(stream_shed, overloaded);
        EXPECT_EQ(st.state,
                  overloaded ? StreamState::shed : StreamState::open);
        EXPECT_EQ(st.rung_switches, 0u);
        EXPECT_EQ(st.frames_shed > 0u, overloaded);
      }
    }
  }
}

// --- degraded rungs stay bit-identical to their standalone counterparts ----

TEST(StreamSessionTest, ReducedBlurRungMatchesDegradedVideoToneMapper) {
  std::vector<img::ImageF> frames;
  for (int f = 0; f < 8; ++f) frames.push_back(random_hdr(32, 24, 60u + f));
  StreamConfig sc = quiet_config("separable_float", 32, 24);
  sc.rate = fast_rate();
  sc.rate.assumed_service_seconds = 2.0; // 2x: down to reduced_blur
  sc.frame_interval_seconds = 1.0;

  // The standalone counterpart: a VideoToneMapper running the exact
  // degraded options a serving job would run. The adaptation trajectory
  // depends only on the input frames, so it is shared across rungs.
  StreamConfig degraded = sc;
  degraded.pipeline = serve::degraded_options(
      sc.pipeline, serve::ToneMapServiceOptions{}.overload);
  const std::vector<img::ImageF> golden_reduced =
      golden_sequence(degraded, frames);
  const std::vector<img::ImageF> golden_full = golden_sequence(sc, frames);

  serve::ToneMapService service;
  SessionManager manager(service);
  const std::uint64_t id = manager.open(sc);
  std::vector<img::ImageF> outputs(frames.size());
  std::vector<serve::DegradeLevel> rungs(frames.size(),
                                         serve::DegradeLevel::none);
  const auto place = [&](std::vector<StreamFrameResult> results) {
    for (StreamFrameResult& r : results) {
      rungs[static_cast<std::size_t>(r.sequence)] = r.rung;
      outputs[static_cast<std::size_t>(r.sequence)] = std::move(r.output);
    }
  };
  for (std::size_t f = 0; f < frames.size(); ++f) {
    place(manager.submit_frame(id, f, frames[f]).results);
  }
  const CloseResult done = manager.close(id);
  place(done.results);
  EXPECT_EQ(done.stats.rung_switches, 1u);

  bool saw_reduced = false;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (rungs[f] == serve::DegradeLevel::reduced_blur) {
      saw_reduced = true;
      EXPECT_TRUE(bit_identical(outputs[f], golden_reduced[f]))
          << "reduced frame " << f;
    } else {
      EXPECT_TRUE(bit_identical(outputs[f], golden_full[f]))
          << "full frame " << f;
    }
  }
  EXPECT_TRUE(saw_reduced);
}

TEST(StreamSessionTest, GlobalOperatorRungMatchesReinhardGlobal) {
  std::vector<img::ImageF> frames;
  for (int f = 0; f < 8; ++f) frames.push_back(random_hdr(32, 24, 80u + f));
  StreamConfig sc = quiet_config("separable_float", 32, 24);
  sc.rate = fast_rate();
  // 16x overload: even reduced_blur (x0.25 -> 4x) misses the budget, so
  // a standard stream lands on the bottom rung.
  sc.rate.assumed_service_seconds = 16.0;
  sc.frame_interval_seconds = 1.0;

  serve::ToneMapService service;
  SessionManager manager(service);
  const std::uint64_t id = manager.open(sc);
  bool saw_global = false;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    for (StreamFrameResult& r :
         manager.submit_frame(id, f, frames[f]).results) {
      if (r.rung == serve::DegradeLevel::global_operator) {
        saw_global = true;
        EXPECT_EQ(r.backend, "reinhard_global");
        EXPECT_TRUE(bit_identical(
            r.output,
            tonemap::reinhard_global(frames[static_cast<std::size_t>(
                r.sequence)])))
            << "global frame " << r.sequence;
      }
    }
  }
  manager.close(id);
  EXPECT_TRUE(saw_global);
}

// --- fault injection and reclamation ---------------------------------------

class StreamFaultTest : public ::testing::Test {
protected:
  ~StreamFaultTest() override { fault::disarm_all(); }
};

TEST_F(StreamFaultTest, ProcessingFaultCountsFrameShedAndPropagates) {
  serve::ToneMapService service;
  SessionManager manager(service);
  const std::uint64_t id =
      manager.open(quiet_config("separable_float", 16, 12));
  const img::ImageF frame = random_hdr(16, 12, 9);
  (void)manager.submit_frame(id, 0, frame);

  fault::FaultSpec spec;
  spec.action = fault::Action::throw_error;
  spec.message = "injected mid-stream failure";
  spec.max_fires = 1;
  fault::arm("stream.session.process", spec);
  EXPECT_THROW((void)manager.submit_frame(id, 1, frame),
               fault::InjectedFault);

  // The failing frame is accounted shed; the balance survives the error.
  const StreamStats st = manager.stream_stats(id);
  EXPECT_EQ(st.frames_submitted, 2u);
  EXPECT_EQ(st.frames_delivered, 1u);
  EXPECT_EQ(st.frames_shed, 1u);
  EXPECT_EQ(st.frames_submitted,
            st.frames_delivered + st.frames_shed + st.frames_expired);

  // The owner decides the stream's fate; disarmed, it keeps working.
  EXPECT_EQ(manager.submit_frame(id, 2, frame).results.size(), 1u);
  manager.close(id);
  const SessionManagerStats total = manager.stats();
  EXPECT_EQ(total.streams_opened, total.streams_closed);
  EXPECT_EQ(total.frames_submitted,
            total.frames_delivered + total.frames_shed +
                total.frames_expired);
}

// --- counter invariants under concurrency (the TSan target) ----------------

TEST(StreamSessionTest, ConcurrentMixedTrafficKeepsTheBalance) {
  serve::ToneMapService service;
  SessionManager manager(service);
  constexpr int kThreads = 4;
  constexpr int kFrames = 12;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StreamConfig sc = quiet_config("separable_float", 16, 12);
      sc.reorder_window = 2;
      sc.credits = 8;
      const std::uint64_t id = manager.open(sc);
      const img::ImageF frame = random_hdr(16, 12, 11u + t);
      for (int f = 0; f < kFrames; ++f) {
        // Every 4th frame skipped, occasionally duplicated: gaps, skips
        // and expiries all exercised while other threads run their own
        // streams against the same manager.
        if (f % 4 == 3) continue;
        (void)manager.submit_frame(id, static_cast<std::uint64_t>(f),
                                   frame);
        if (f % 5 == 1) {
          (void)manager.submit_frame(id, static_cast<std::uint64_t>(f),
                                     frame);
        }
      }
      if (t % 2 == 0) {
        manager.close(id);
      } else {
        manager.abort(id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.streams_opened, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.streams_closed, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.streams_active, 0);
  EXPECT_EQ(stats.frames_submitted,
            stats.frames_delivered + stats.frames_shed +
                stats.frames_expired);
}

// --- transport integration -------------------------------------------------

TEST(StreamTransportTest, StreamedFramesOverTheWireMatchTheLocalMapper) {
  transport::Server server;
  transport::Client client("127.0.0.1", server.port());

  std::vector<img::ImageF> frames;
  for (int f = 0; f < 5; ++f) frames.push_back(random_hdr(32, 24, 21u + f));
  const StreamConfig sc = quiet_config("separable_float", 32, 24);
  const std::vector<img::ImageF> golden = golden_sequence(sc, frames);

  const std::uint64_t id = client.open_stream(sc);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    client.send_stream_frame(id, f, frames[f]);
  }
  std::vector<img::ImageF> outputs(frames.size());
  const transport::wire::StreamClosed fin = client.close_stream(id);
  while (client.buffered_stream_results() > 0) {
    transport::wire::StreamResult r = client.next_stream_result();
    EXPECT_EQ(r.rung, serve::DegradeLevel::none);
    outputs[static_cast<std::size_t>(r.sequence)] = std::move(r.output);
  }
  EXPECT_EQ(fin.status, transport::wire::StreamStatus::closed);
  EXPECT_EQ(fin.frames_delivered, frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    EXPECT_TRUE(bit_identical(outputs[f], golden[f])) << "frame " << f;
  }
  const transport::ServerStats stats = server.stats();
  EXPECT_EQ(stats.streams_opened, 1u);
  EXPECT_EQ(stats.streams_closed, 1u);
  EXPECT_EQ(stats.stream_results_sent, frames.size());
}

TEST(StreamTransportTest, RepliesCarryTheClientsStreamIdNotTheSessions) {
  // Client stream ids are per connection, session ids per server: A's
  // stream is session 1, so B's stream, client id 1 on its own
  // connection, is session 2. Every reply B reads must name id 1. B
  // speaks the wire directly, so nothing on its side can mend an id.
  namespace wire = transport::wire;
  transport::Server server;
  const StreamConfig sc = quiet_config("separable_float", 16, 12);
  transport::Client a("127.0.0.1", server.port());
  const std::uint64_t a_id = a.open_stream(sc);

  transport::Socket b = transport::Socket::connect("127.0.0.1", server.port());
  b.set_recv_timeout(30.0);
  const auto send = [&b](const std::vector<std::uint8_t>& message) {
    ASSERT_EQ(b.send_all(message), transport::SendStatus::ok);
  };
  const auto next = [&b](wire::MessageType type) {
    transport::InboundMessage message;
    EXPECT_EQ(transport::read_message(b, message),
              transport::ReadMessageStatus::ok);
    EXPECT_EQ(message.header.type, type);
    return message.payload;
  };
  constexpr std::uint64_t kId = 1;
  send(wire::encode_stream_open({kId, sc}));
  EXPECT_EQ(wire::decode_stream_opened(next(wire::MessageType::stream_opened))
                .stream_id,
            kId);
  EXPECT_NO_THROW((void)server.sessions().stream_stats(2)); // B's session

  const img::ImageF frame = random_hdr(16, 12, 5);
  send(wire::encode_stream_frame({kId, 0, frame}));
  EXPECT_EQ(wire::decode_stream_result(next(wire::MessageType::stream_result))
                .stream_id,
            kId);
  send(wire::encode_stream_frame({kId, 0, frame})); // duplicate: a credit
  EXPECT_EQ(wire::decode_stream_credit(next(wire::MessageType::stream_credit))
                .stream_id,
            kId);
  send(wire::encode_stream_frame({kId, 2, frame})); // held behind a gap
  send(wire::encode_stream_close({kId}));           // delivered by the close
  const wire::StreamResult tail =
      wire::decode_stream_result(next(wire::MessageType::stream_result));
  EXPECT_EQ(tail.stream_id, kId);
  EXPECT_EQ(tail.sequence, 2u);
  const wire::StreamClosed closed =
      wire::decode_stream_closed(next(wire::MessageType::stream_closed));
  EXPECT_EQ(closed.stream_id, kId);
  EXPECT_EQ(closed.frames_delivered, 2u);
  EXPECT_EQ(closed.frames_expired, 1u);
  EXPECT_EQ(a.close_stream(a_id).status, wire::StreamStatus::closed);
}

TEST(StreamTransportTest, SendingAFrameByMoveMakesNoCopy) {
  // A moved-in frame is sent from its own plane. A copy would acquire a
  // plane on the client thread, here from `pool`.
  transport::Server server;
  transport::Client client("127.0.0.1", server.port());
  const StreamConfig sc = quiet_config("separable_float", 24, 16);
  const std::uint64_t id = client.open_stream(sc);
  std::vector<img::ImageF> frames;
  for (int f = 0; f < sc.credits; ++f) {
    frames.push_back(random_hdr(24, 16, 700u + f));
  }
  img::PlanePool pool;
  {
    const img::PlanePool::Scope scope(pool);
    const std::uint64_t before = pool.stats().acquires;
    // No more frames than credits: no send waits, so none reads a reply.
    for (std::size_t f = 0; f < frames.size(); ++f) {
      client.send_stream_frame(id, f, std::move(frames[f]));
    }
    EXPECT_EQ(pool.stats().acquires, before);
  }
  EXPECT_EQ(client.close_stream(id).frames_delivered, frames.size());
}

TEST(StreamTransportTest, MidStreamDisconnectAbortsTheConnectionsStreams) {
  transport::Server server;
  {
    transport::Client client("127.0.0.1", server.port());
    const std::uint64_t id =
        client.open_stream(quiet_config("separable_float", 16, 12));
    client.send_stream_frame(id, 0, random_hdr(16, 12, 2));
    client.close(); // abrupt: no StreamClose, the socket just drops
  }
  // The server's reader observes the disconnect and reclaims the stream.
  for (int i = 0; i < 200 && server.stats().streams_closed == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const transport::ServerStats stats = server.stats();
  EXPECT_EQ(stats.streams_opened, 1u);
  EXPECT_EQ(stats.streams_closed, 1u);
  const SessionManagerStats sessions = server.sessions().stats();
  EXPECT_EQ(sessions.streams_opened, sessions.streams_closed);
  EXPECT_EQ(sessions.streams_active, 0);
  EXPECT_EQ(sessions.frames_submitted,
            sessions.frames_delivered + sessions.frames_shed +
                sessions.frames_expired);
}

TEST(StreamTransportTest, StreamFramesRunAsServiceJobs) {
  // One execution path: every delivered stream frame is a completed job
  // of the server's ToneMapService, and its planes come from the
  // service's pool (the decoded frame, then the shard's intermediates and
  // output — more than one acquire per frame).
  transport::Server server;
  const serve::ServiceStats before = server.service().stats();
  const img::PoolStats pool_before = server.service().pool_stats();
  constexpr std::uint64_t kFrames = 6;
  {
    transport::Client client("127.0.0.1", server.port());
    const std::uint64_t id =
        client.open_stream(quiet_config("separable_float", 24, 16));
    for (std::uint64_t f = 0; f < kFrames; ++f) {
      client.send_stream_frame(id, f, random_hdr(24, 16, 120u + f));
    }
    EXPECT_EQ(client.close_stream(id).frames_delivered, kFrames);
  }
  const serve::ServiceStats after = server.service().stats();
  EXPECT_EQ(after.completed - before.completed, kFrames);
  EXPECT_EQ(after.submitted - before.submitted, kFrames);
  const img::PoolStats pool = server.service().pool_stats();
  EXPECT_GE(pool.acquires - pool_before.acquires, 2 * kFrames);
}

TEST(StreamTransportTest, MixedTrafficOnOneServerKeepsEveryBalance) {
  // Request jobs and two streams at once on one 2-shard server (the TSan
  // target of the shared execution path): every account balances, and
  // full-rung stream frames still match a standalone VideoToneMapper.
  transport::ServerOptions so;
  so.service.shards = 2;
  transport::Server server(so);
  constexpr int kStreams = 2;
  constexpr int kFrames = 6;
  constexpr int kRequestThreads = 2;
  constexpr int kRequests = 4;

  std::vector<std::vector<img::ImageF>> frames(kStreams);
  std::vector<std::vector<img::ImageF>> golden(kStreams);
  const StreamConfig sc = quiet_config("separable_float", 24, 16);
  for (int s = 0; s < kStreams; ++s) {
    for (int f = 0; f < kFrames; ++f) {
      frames[s].push_back(random_hdr(24, 16, 300u + 10u * s + f));
    }
    golden[s] = golden_sequence(sc, frames[s]);
  }

  std::vector<transport::wire::StreamClosed> finals(kStreams);
  std::vector<std::vector<transport::wire::StreamResult>> results(kStreams);
  std::vector<int> requests_ok(kRequestThreads, 0);
  std::vector<std::thread> threads;
  for (int s = 0; s < kStreams; ++s) {
    threads.emplace_back([&, s] {
      transport::Client client("127.0.0.1", server.port());
      const std::uint64_t id = client.open_stream(sc);
      for (int f = 0; f < kFrames; ++f) {
        client.send_stream_frame(id, static_cast<std::uint64_t>(f),
                                 frames[s][f]);
      }
      finals[s] = client.close_stream(id);
      while (client.buffered_stream_results() > 0) {
        results[s].push_back(client.next_stream_result());
      }
    });
  }
  for (int t = 0; t < kRequestThreads; ++t) {
    threads.emplace_back([&, t] {
      transport::Client client("127.0.0.1", server.port());
      tonemap::PipelineOptions opt = sc.pipeline;
      opt.sigma = 1.5; // a second options mix on the same shards
      opt.radius = 4;
      for (int r = 0; r < kRequests; ++r) {
        serve::FrameJob job;
        job.frame = random_hdr(20, 14, 500u + 10u * t + r);
        job.options = opt;
        const img::ImageF expected =
            tonemap::tone_map(job.frame, opt).output;
        if (bit_identical(client.call(std::move(job)).output, expected)) {
          ++requests_ok[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int s = 0; s < kStreams; ++s) {
    const transport::wire::StreamClosed& fin = finals[s];
    EXPECT_EQ(fin.status, transport::wire::StreamStatus::closed);
    EXPECT_EQ(static_cast<std::uint64_t>(kFrames),
              fin.frames_delivered + fin.frames_shed + fin.frames_expired);
    ASSERT_EQ(results[s].size(), static_cast<std::size_t>(kFrames));
    for (const transport::wire::StreamResult& r : results[s]) {
      ASSERT_EQ(r.rung, serve::DegradeLevel::none);
      EXPECT_TRUE(bit_identical(r.output,
                                golden[s][static_cast<std::size_t>(
                                    r.sequence)]))
          << "stream " << s << " frame " << r.sequence;
    }
  }
  for (int t = 0; t < kRequestThreads; ++t) {
    EXPECT_EQ(requests_ok[t], kRequests) << "request thread " << t;
  }
  const SessionManagerStats sessions = server.sessions().stats();
  EXPECT_EQ(sessions.frames_submitted,
            sessions.frames_delivered + sessions.frames_shed +
                sessions.frames_expired);
  const serve::ServiceStats service = server.service().stats();
  EXPECT_EQ(service.submitted,
            service.completed + service.failed + service.expired);
  EXPECT_EQ(service.completed,
            static_cast<std::uint64_t>(kStreams * kFrames +
                                       kRequestThreads * kRequests));
}

TEST_F(StreamFaultTest, ServerTerminatesStreamSpontaneouslyOverTheWire) {
  // The rate-controller internals (assumed service estimate,
  // measure_service) are server-side policy and deliberately NOT on the
  // wire, so a deterministic rate shed cannot be staged from the client.
  // Force the spontaneous-StreamClosed path instead: a processing fault
  // in the (in-process) server makes it abort the stream and push
  // StreamClosed(failed) unprompted; the client's next blocking send
  // must surface it as a RemoteError.
  transport::Server server;
  transport::Client client("127.0.0.1", server.port());
  const std::uint64_t id =
      client.open_stream(quiet_config("separable_float", 16, 12));
  const img::ImageF frame = random_hdr(16, 12, 13);

  fault::FaultSpec spec;
  spec.action = fault::Action::throw_error;
  spec.message = "injected stream failure";
  spec.max_fires = 1;
  fault::arm("stream.session.process", spec);

  bool terminated = false;
  std::string remote_message;
  for (std::uint64_t f = 0; f < 32 && !terminated; ++f) {
    try {
      client.send_stream_frame(id, f, frame);
    } catch (const transport::RemoteError& e) {
      remote_message = e.what();
      terminated = true;
    }
  }
  ASSERT_TRUE(terminated);
  EXPECT_NE(remote_message.find("injected stream failure"),
            std::string::npos);
  // The terminal verdict is still retrievable through close_stream.
  const transport::wire::StreamClosed fin = client.close_stream(id);
  EXPECT_EQ(fin.status, transport::wire::StreamStatus::failed);
  const transport::ServerStats stats = server.stats();
  EXPECT_EQ(stats.streams_opened, 1u);
  EXPECT_EQ(stats.streams_closed, 1u);
  const SessionManagerStats sessions = server.sessions().stats();
  EXPECT_EQ(sessions.frames_submitted,
            sessions.frames_delivered + sessions.frames_shed +
                sessions.frames_expired);
}

} // namespace
} // namespace tmhls::stream
