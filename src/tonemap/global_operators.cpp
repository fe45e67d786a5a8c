#include "tonemap/global_operators.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "image/image.hpp"
#include "tonemap/pow_kernel.hpp"

namespace tmhls::tonemap {

namespace {

// Apply a luminance ratio map to an RGB (or single-channel) image:
// out = in * (new_luma / old_luma), clamped to [0, 1].
img::ImageF apply_luminance_ratio(const img::ImageF& hdr,
                                  const img::ImageF& old_luma,
                                  const img::ImageF& new_luma) {
  img::ImageF out(hdr.width(), hdr.height(), hdr.channels());
  for (int y = 0; y < hdr.height(); ++y) {
    for (int x = 0; x < hdr.width(); ++x) {
      const float lo = old_luma.at_unchecked(x, y);
      const float ln = new_luma.at_unchecked(x, y);
      const float ratio = lo > 0.0f ? ln / lo : 0.0f;
      for (int c = 0; c < hdr.channels(); ++c) {
        out.at_unchecked(x, y, c) =
            clamp(hdr.at_unchecked(x, y, c) * ratio, 0.0f, 1.0f);
      }
    }
  }
  return out;
}

} // namespace

img::ImageF global_gamma(const img::ImageF& hdr, float gamma) {
  TMHLS_REQUIRE(gamma > 0.0f, "global_gamma: gamma must be positive");
  const float max_v =
      max_sample_row(hdr.samples().data(), hdr.sample_count());
  TMHLS_REQUIRE(max_v > 0.0f, "global_gamma: image has no positive sample");
  img::ImageF out(hdr.width(), hdr.height(), hdr.channels());
  auto si = hdr.samples();
  auto so = out.samples();
  const float inv_gamma = 1.0f / gamma;
  for (std::size_t i = 0; i < si.size(); ++i) {
    const float norm = std::max(si[i], 0.0f) / max_v;
    so[i] = clamp(std::pow(norm, inv_gamma), 0.0f, 1.0f);
  }
  return out;
}

img::ImageF global_log(const img::ImageF& hdr) {
  const img::ImageF luma = img::luminance(hdr);
  const float max_l =
      max_sample_row(luma.samples().data(), luma.sample_count());
  TMHLS_REQUIRE(max_l > 0.0f, "global_log: image has no positive luminance");
  img::ImageF mapped(luma.width(), luma.height(), 1);
  const float denom = std::log1p(max_l);
  auto si = luma.samples();
  auto so = mapped.samples();
  for (std::size_t i = 0; i < si.size(); ++i) {
    so[i] = std::log1p(std::max(si[i], 0.0f)) / denom;
  }
  return apply_luminance_ratio(hdr, luma, mapped);
}

img::ImageF reinhard_global(const img::ImageF& hdr, float key, float lwhite) {
  TMHLS_REQUIRE(key > 0.0f, "reinhard_global: key must be positive");
  const img::ImageF luma = img::luminance(hdr);
  // Log-average luminance (geometric mean with a small delta for zeros).
  double log_sum = 0.0;
  float max_l = 0.0f;
  constexpr double kDelta = 1e-6;
  for (float v : luma.samples()) {
    log_sum += std::log(kDelta + std::max(v, 0.0f));
    max_l = std::max(max_l, v);
  }
  TMHLS_REQUIRE(max_l > 0.0f, "reinhard_global: image has no positive luminance");
  const double log_avg =
      std::exp(log_sum / static_cast<double>(luma.pixel_count()));
  const float scale = static_cast<float>(key / log_avg);
  const float white = lwhite > 0.0f ? lwhite : max_l * scale;
  const float white_sq = white * white;

  img::ImageF mapped(luma.width(), luma.height(), 1);
  auto si = luma.samples();
  auto so = mapped.samples();
  for (std::size_t i = 0; i < si.size(); ++i) {
    const float l = std::max(si[i], 0.0f) * scale;
    so[i] = l * (1.0f + l / white_sq) / (1.0f + l);
  }
  return apply_luminance_ratio(hdr, luma, mapped);
}

img::ImageF histogram_adjustment(const img::ImageF& hdr, int bins,
                                 double ceiling_factor) {
  TMHLS_REQUIRE(bins >= 2, "histogram_adjustment: need at least 2 bins");
  TMHLS_REQUIRE(ceiling_factor > 1.0,
                "histogram_adjustment: ceiling factor must exceed 1");
  const img::ImageF luma = img::luminance(hdr);

  // Log-luminance bounds over positive samples.
  constexpr float kFloor = 1e-8f;
  float lmin = 0.0f;
  float lmax = 0.0f;
  bool first = true;
  for (float v : luma.samples()) {
    if (v <= kFloor) continue;
    const float lv = std::log(v);
    if (first) {
      lmin = lmax = lv;
      first = false;
    } else {
      lmin = std::min(lmin, lv);
      lmax = std::max(lmax, lv);
    }
  }
  TMHLS_REQUIRE(!first, "histogram_adjustment: no positive luminance");
  if (lmax - lmin < 1e-6f) lmax = lmin + 1e-6f;

  // Histogram of log luminance.
  std::vector<double> hist(static_cast<std::size_t>(bins), 0.0);
  const float scale = static_cast<float>(bins) / (lmax - lmin);
  std::int64_t counted = 0;
  for (float v : luma.samples()) {
    if (v <= kFloor) continue;
    auto bin = static_cast<int>((std::log(v) - lmin) * scale);
    bin = clamp(bin, 0, bins - 1);
    hist[static_cast<std::size_t>(bin)] += 1.0;
    ++counted;
  }

  // Ward's ceiling: clamp bins to ceiling_factor x the uniform share,
  // iterating because clamping changes the total.
  const double uniform = static_cast<double>(counted) / bins;
  for (int iter = 0; iter < 8; ++iter) {
    double total = 0.0;
    for (double c : hist) total += c;
    const double ceiling = ceiling_factor * uniform * (total /
                                                       static_cast<double>(counted));
    bool changed = false;
    for (double& c : hist) {
      if (c > ceiling) {
        c = ceiling;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Cumulative distribution -> display mapping.
  std::vector<double> cdf(static_cast<std::size_t>(bins) + 1, 0.0);
  for (int b = 0; b < bins; ++b) {
    cdf[static_cast<std::size_t>(b) + 1] =
        cdf[static_cast<std::size_t>(b)] + hist[static_cast<std::size_t>(b)];
  }
  const double cdf_total = std::max(cdf.back(), 1.0);

  img::ImageF mapped(luma.width(), luma.height(), 1);
  {
    auto si = luma.samples();
    auto so = mapped.samples();
    for (std::size_t i = 0; i < si.size(); ++i) {
      if (si[i] <= kFloor) {
        so[i] = 0.0f;
        continue;
      }
      const float pos = (std::log(si[i]) - lmin) * scale;
      const int bin = clamp(static_cast<int>(pos), 0, bins - 1);
      const double frac = clamp(static_cast<double>(pos) - bin, 0.0, 1.0);
      const double c =
          lerp(cdf[static_cast<std::size_t>(bin)],
               cdf[static_cast<std::size_t>(bin) + 1], frac);
      so[i] = static_cast<float>(c / cdf_total);
    }
  }
  return apply_luminance_ratio(hdr, luma, mapped);
}

} // namespace tmhls::tonemap
