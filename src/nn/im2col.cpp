#include "nn/im2col.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace rrambnn::nn {

void ConvGeometry::Validate() const {
  if (in_channels <= 0 || in_h <= 0 || in_w <= 0) {
    throw std::invalid_argument("ConvGeometry: non-positive input dims");
  }
  if (kernel_h <= 0 || kernel_w <= 0 || stride_h <= 0 || stride_w <= 0) {
    throw std::invalid_argument("ConvGeometry: non-positive kernel/stride");
  }
  if (pad_h < 0 || pad_w < 0) {
    throw std::invalid_argument("ConvGeometry: negative padding");
  }
  if (in_h + 2 * pad_h < kernel_h || in_w + 2 * pad_w < kernel_w) {
    throw std::invalid_argument(
        "ConvGeometry: kernel " + std::to_string(kernel_h) + "x" +
        std::to_string(kernel_w) + " does not fit padded input " +
        std::to_string(in_h + 2 * pad_h) + "x" +
        std::to_string(in_w + 2 * pad_w));
  }
}

namespace {

/// Half-open range [lo, hi) of output positions o in [0, count) whose input
/// coordinate o * stride + offset lies in [0, extent).
struct ValidRange {
  std::int64_t lo;
  std::int64_t hi;

  ValidRange(std::int64_t offset, std::int64_t stride, std::int64_t extent,
             std::int64_t count) {
    lo = std::min(count, offset >= 0 ? 0 : (stride - 1 - offset) / stride);
    const std::int64_t last = extent - 1 - offset;
    hi = std::max(lo, last < 0 ? 0 : std::min(count, last / stride + 1));
  }
};

/// dst[i] = src[i * step] for i < count. Blocks of 8 let the compiler
/// assemble each block in registers and store it at once.
void StridedCopy(const float* src, std::int64_t step, std::int64_t count,
                 float* dst) {
  std::int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    for (std::int64_t t = 0; t < 8; ++t) dst[i + t] = src[(i + t) * step];
  }
  for (; i < count; ++i) dst[i] = src[i * step];
}

}  // namespace

void Im2Col(const float* x, const ConvGeometry& g, float* cols) {
  const std::int64_t oh = g.OutH(), ow = g.OutW(), q = oh * ow;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const float* plane = x + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
      const ValidRange ys(ky - g.pad_h, g.stride_h, g.in_h, oh);
      for (std::int64_t kx = 0; kx < g.kernel_w; ++kx) {
        float* out_row = cols + ((c * g.kernel_h + ky) * g.kernel_w + kx) * q;
        // Patch entries that fall in the vertical padding.
        std::fill(out_row, out_row + ys.lo * ow, 0.0f);
        std::fill(out_row + ys.hi * ow, out_row + q, 0.0f);
        if (ys.lo == ys.hi) continue;
        const ValidRange xs(kx - g.pad_w, g.stride_w, g.in_w, ow);
        const std::int64_t ix0 = kx - g.pad_w;
        if (g.stride_h == 1 && g.stride_w == 1 && ix0 == 0 && ow == g.in_w) {
          // Each patch row is whole input rows (k x 1 kernels over ECG and
          // EEG time): the valid rows are one contiguous block.
          std::memcpy(out_row + ys.lo * ow,
                      plane + (ys.lo + ky - g.pad_h) * ow,
                      static_cast<std::size_t>((ys.hi - ys.lo) * ow) *
                          sizeof(float));
          continue;
        }
        if (ow == 1 && xs.lo < xs.hi) {
          // One column per output row (1 x W EEG spatial kernels): a strided
          // copy down the plane.
          StridedCopy(plane + (ys.lo * g.stride_h + ky - g.pad_h) * g.in_w + ix0,
                      g.stride_h * g.in_w, ys.hi - ys.lo, out_row + ys.lo);
          continue;
        }
        for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
          const float* src = plane + (oy * g.stride_h + ky - g.pad_h) * g.in_w;
          float* dst = out_row + oy * ow;
          std::fill(dst, dst + xs.lo, 0.0f);
          if (g.stride_w == 1) {
            std::memcpy(dst + xs.lo, src + xs.lo + ix0,
                        static_cast<std::size_t>(xs.hi - xs.lo) *
                            sizeof(float));
          } else {
            for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox) {
              dst[ox] = src[ox * g.stride_w + ix0];
            }
          }
          std::fill(dst + xs.hi, dst + ow, 0.0f);
        }
      }
    }
  }
}

void Col2Im(const float* cols, const ConvGeometry& g, float* x) {
  const std::int64_t oh = g.OutH(), ow = g.OutW();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel_w; ++kx, ++row) {
        const float* in_row = cols + row * (oh * ow);
        float* plane = x + c * g.in_h * g.in_w;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * g.stride_h + ky - g.pad_h;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst = plane + iy * g.in_w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * g.stride_w + kx - g.pad_w;
            if (ix >= 0 && ix < g.in_w) dst[ix] += in_row[oy * ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace rrambnn::nn
