// Image containers used throughout tmhls.
//
// Images are interleaved row-major (`pixel = (y * width + x) * channels + c`)
// with 1 to 4 channels. `Image<float>` holds linear-light HDR data; the
// tone-mapping pipeline produces display-referred values in [0, 1].
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/default_init_allocator.hpp"
#include "common/error.hpp"

namespace tmhls::img {

namespace detail {

/// Sample storage of every image; resize() leaves new samples unwritten.
template <typename T>
using Storage = std::vector<T, DefaultInitAllocator<T>>;

/// Shared free-list state of a PlanePool (defined in plane_pool.cpp). A
/// float plane acquired under a pool scope carries a shared_ptr to its
/// recycler — "where my storage goes when I die" — which keeps the
/// recycler alive for planes that outlive their pool and makes returns
/// safe from any thread.
class PlaneRecycler;
using RecyclerPtr = std::shared_ptr<PlaneRecycler>;

/// A float plane's storage plus the recycler it is bound to (null when
/// the acquiring thread had no pool scope installed).
struct AcquiredPlane {
  Storage<float> storage;
  RecyclerPtr recycler;
};

/// Acquire storage for `samples` floats, consulting the calling thread's
/// installed recycler: a retained buffer of the exact sample count when
/// the pool has one (no heap allocation), a fresh one otherwise. Fresh
/// allocations advance the process-wide plane_allocation_count().
/// `zero_fill` zeroes the samples; otherwise they are left as they are
/// (a recycled buffer's old samples, or unwritten fresh memory) — and in
/// AddressSanitizer builds set to a NaN pattern, so a sample read before
/// it is written shows in every digest and memcmp test.
AcquiredPlane acquire_plane(std::size_t samples, bool zero_fill);

/// Hand a dying plane's storage back to the recycler it was acquired
/// from. Never called with a null recycler.
void release_plane(const RecyclerPtr& recycler,
                   Storage<float>&& storage) noexcept;

} // namespace detail

/// Tag for the constructor that leaves an image's samples unwritten.
struct Uninitialized {};
inline constexpr Uninitialized uninitialized{};

/// Interleaved row-major image with `channels` samples per pixel.
///
/// Float images participate in plane pooling: construction routes storage
/// acquisition through the calling thread's recycler hook (see
/// plane_pool.hpp), and a pool-backed image returns its buffer to the
/// pool on destruction. This is invisible to users — a pooled image is
/// zero-filled and behaves exactly like a fresh one, unless constructed
/// with `uninitialized` — but it is why the special members below are
/// spelled out instead of defaulted.
template <typename T>
class Image {
public:
  /// Empty 0x0 image.
  Image() = default;

  /// Allocate a width x height image with `channels` samples per pixel,
  /// value-initialised (zeros for arithmetic T).
  Image(int width, int height, int channels = 1)
      : Image(width, height, channels, true) {}

  /// The same, with the samples left unwritten (see detail::acquire_plane)
  /// — only for a producer that writes every sample before any is read.
  Image(int width, int height, int channels, Uninitialized)
      : Image(width, height, channels, false) {}

  Image(const Image& other)
      : width_(other.width_), height_(other.height_),
        channels_(other.channels_) {
    init_storage(other.data_.size(), false);
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  }

  Image& operator=(const Image& other) {
    if (this == &other) return *this;
    // Matching sample count: copy in place, keeping this image's storage
    // (and its pool binding, if any). Otherwise release and re-acquire.
    if (data_.size() != other.data_.size()) {
      release_storage();
      init_storage(other.data_.size(), false);
    }
    width_ = other.width_;
    height_ = other.height_;
    channels_ = other.channels_;
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
    return *this;
  }

  Image(Image&& other) noexcept
      : width_(other.width_), height_(other.height_),
        channels_(other.channels_), data_(std::move(other.data_)),
        recycler_(std::move(other.recycler_)) {
    other.reset_to_empty();
  }

  Image& operator=(Image&& other) noexcept {
    if (this == &other) return *this;
    release_storage();
    width_ = other.width_;
    height_ = other.height_;
    channels_ = other.channels_;
    data_ = std::move(other.data_);
    recycler_ = std::move(other.recycler_);
    other.reset_to_empty();
    return *this;
  }

  ~Image() { release_storage(); }

  int width() const { return width_; }
  int height() const { return height_; }
  int channels() const { return channels_; }
  /// Total number of samples (width * height * channels).
  std::size_t sample_count() const { return data_.size(); }
  /// Total number of pixels (width * height).
  std::size_t pixel_count() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  bool empty() const { return data_.empty(); }

  /// Sample accessor; (x, y) must be inside the image, c < channels.
  T& at(int x, int y, int c = 0) {
    TMHLS_ASSERT(in_bounds(x, y, c), "image access out of bounds");
    return data_[index(x, y, c)];
  }
  const T& at(int x, int y, int c = 0) const {
    TMHLS_ASSERT(in_bounds(x, y, c), "image access out of bounds");
    return data_[index(x, y, c)];
  }

  /// Unchecked accessor for inner loops (bounds guaranteed by the caller).
  T& at_unchecked(int x, int y, int c = 0) { return data_[index(x, y, c)]; }
  const T& at_unchecked(int x, int y, int c = 0) const {
    return data_[index(x, y, c)];
  }

  /// Flat view over all samples.
  std::span<T> samples() { return data_; }
  std::span<const T> samples() const { return data_; }

  /// View over one row (all channels interleaved).
  std::span<T> row(int y) {
    TMHLS_ASSERT(y >= 0 && y < height_, "row out of bounds");
    return std::span<T>(data_).subspan(index(0, y, 0),
                                       static_cast<std::size_t>(width_) *
                                           static_cast<std::size_t>(channels_));
  }
  std::span<const T> row(int y) const {
    TMHLS_ASSERT(y >= 0 && y < height_, "row out of bounds");
    return std::span<const T>(data_).subspan(
        index(0, y, 0),
        static_cast<std::size_t>(width_) * static_cast<std::size_t>(channels_));
  }

  /// Fill every sample with `v`.
  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// True if the two images have identical dimensions and channel count.
  bool same_shape(const Image& other) const {
    return width_ == other.width_ && height_ == other.height_ &&
           channels_ == other.channels_;
  }

private:
  Image(int width, int height, int channels, bool zero_fill)
      : width_(width), height_(height), channels_(channels) {
    TMHLS_REQUIRE(width > 0 && height > 0, "image dimensions must be positive");
    TMHLS_REQUIRE(channels >= 1 && channels <= 4,
                  "channels must be in [1, 4]");
    init_storage(static_cast<std::size_t>(width) *
                 static_cast<std::size_t>(height) *
                 static_cast<std::size_t>(channels), zero_fill);
  }

  /// Acquire storage for `samples` samples, zero-filled or left
  /// unwritten. Float planes consult the calling thread's recycler hook;
  /// every other sample type allocates plainly.
  void init_storage(std::size_t samples, bool zero_fill) {
    if constexpr (std::is_same_v<T, float>) {
      detail::AcquiredPlane plane = detail::acquire_plane(samples, zero_fill);
      data_ = std::move(plane.storage);
      recycler_ = std::move(plane.recycler);
    } else if (zero_fill) {
      data_.assign(samples, T{});
    } else {
      data_.resize(samples);
    }
  }

  /// Hand pool-backed storage home; plain storage just frees normally.
  void release_storage() noexcept {
    if constexpr (std::is_same_v<T, float>) {
      if (recycler_ != nullptr) {
        detail::release_plane(recycler_, std::move(data_));
        recycler_.reset();
        data_.clear();
      }
    }
  }

  /// Restore the moved-from state the default constructor produces.
  void reset_to_empty() noexcept {
    width_ = 0;
    height_ = 0;
    channels_ = 1;
    data_.clear();
    recycler_.reset();
  }

  bool in_bounds(int x, int y, int c) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_ && c >= 0 &&
           c < channels_;
  }
  std::size_t index(int x, int y, int c) const {
    return (static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
            static_cast<std::size_t>(x)) *
               static_cast<std::size_t>(channels_) +
           static_cast<std::size_t>(c);
  }

  int width_ = 0;
  int height_ = 0;
  int channels_ = 1;
  detail::Storage<T> data_;
  /// Non-null only for pool-backed float planes (see init_storage).
  detail::RecyclerPtr recycler_;
};

using ImageF = Image<float>;
using ImageU8 = Image<std::uint8_t>;

/// ITU-R BT.709 relative luminance of an RGB image; a 1-channel image passes
/// through unchanged (copied).
ImageF luminance(const ImageF& rgb);

/// luminance() over one interleaved row of `width` pixels with `channels`
/// samples each, into a 1-channel row; channels == 1 copies. The row form
/// is shared with the tone-map fused streaming engine so the per-sample
/// arithmetic has one source of truth. `channels` must be 1 or >= 3.
void luminance_row(const float* row, float* out, int width, int channels);

/// Extract one channel as a 1-channel image.
ImageF extract_channel(const ImageF& src, int channel);

/// Per-sample absolute difference.
ImageF absolute_difference(const ImageF& a, const ImageF& b);

/// Convert a [0,1] float image to 8-bit with rounding and clamping.
ImageU8 to_u8(const ImageF& src);

/// Convert an 8-bit image to floats in [0, 1].
ImageF to_float(const ImageU8& src);

} // namespace tmhls::img
