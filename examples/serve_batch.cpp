// Batch serving walkthrough: submit a mixed bag of tone-mapping jobs to an
// in-process serve::ToneMapService, collect the futures, and check the
// serving layer's core guarantee — every result is bit-identical to the
// blocking tonemap::tone_map() under that job's own options, whatever the
// shard count or backend.
//
// This file doubles as the compilable excerpt behind docs/serving.md; the
// CI docs job builds it so the guide cannot rot.
#include <cstring>
#include <future>
#include <iostream>
#include <vector>

#include "imageio/synthetic.hpp"
#include "serve/service.hpp"
#include "tonemap/pipeline.hpp"

using namespace tmhls;

int main() {
  // A service with 2 shard workers, each running jobs through its engine.
  serve::ToneMapServiceOptions options;
  options.shards = 2;
  options.queue_capacity = 8;
  serve::ToneMapService service(options);

  // Per-job pipeline options may differ job to job; runs of equal options
  // reuse the shard's engine, switches rebuild it.
  tonemap::PipelineOptions fast;
  fast.backend = "fused_stream";
  fast.sigma = 4.0;
  tonemap::PipelineOptions fixed;
  fixed.backend = "streaming_fixed";
  fixed.sigma = 4.0;

  std::vector<serve::FrameJob> batch;
  for (int i = 0; i < 6; ++i) {
    serve::FrameJob job;
    job.frame = io::generate_hdr_scene(io::SceneKind::window_interior, 96,
                                       96, 2018u + static_cast<unsigned>(i));
    job.options = i < 4 ? fast : fixed;
    batch.push_back(std::move(job));
  }

  // Submit everything (futures), then consume. submit() blocks only when
  // the target shard's bounded queue is full — that is the backpressure.
  std::vector<std::future<serve::FrameResult>> futures;
  std::vector<serve::FrameJob> reference = batch; // for the blocking check
  for (serve::FrameJob& job : batch) {
    futures.push_back(service.submit(std::move(job)));
  }

  bool all_identical = true;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::FrameResult result = futures[i].get(); // throws on job failure
    const img::ImageF blocking =
        tonemap::tone_map_image(reference[i].frame, reference[i].options);
    const bool identical =
        blocking.same_shape(result.output) &&
        std::memcmp(blocking.samples().data(), result.output.samples().data(),
                    blocking.samples().size_bytes()) == 0;
    all_identical = all_identical && identical;
    std::cout << "job " << result.job_id << " on shard " << result.shard
              << " via " << result.backend << ": queued "
              << result.queue_seconds * 1e3 << " ms, served "
              << result.service_seconds * 1e3 << " ms, "
              << (identical ? "bit-identical" : "MISMATCH") << '\n';
  }

  const serve::ServiceStats stats = service.stats();
  std::cout << "completed " << stats.completed << ", failed " << stats.failed
            << ", engine builds";
  for (const serve::ShardStats& shard : stats.shards) {
    std::cout << ' ' << shard.session_builds;
  }
  std::cout << '\n';
  return all_identical ? 0 : 1;
}
