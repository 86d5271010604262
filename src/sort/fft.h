// Out-of-core FFT — FFT(N) = Θ((N/B)·log_{M/B}(N/B)) I/Os (the FFT row
// of the survey's Table 1).
//
// Bailey's six-step (transpose) method: view the length-N = N1·N2 signal
// as an N2×N1 matrix, then
//   transpose → N2-point FFT per row (+ twiddle) → transpose →
//   N1-point FFT per row → transpose.
// Every step is either a tiled transpose (Θ(N/B) with M >= B²) or a
// sequential row scan with in-RAM FFTs, so the whole thing is a constant
// number of passes when sqrt(N) <= M — the single-level version of the
// bound (larger N would recurse on the row FFTs; we report
// NotSupported past the single-level regime rather than silently
// degrade).
//
// The paged-butterfly baseline (FftPagedBaseline) performs the textbook
// in-place iterative FFT through a buffer pool: Θ(N log N) random
// accesses once N >> M.
#pragma once

#include <cmath>
#include <numbers>
#include <vector>

#include "core/ext_vector.h"
#include "io/buffer_pool.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Complex double as a trivially-copyable POD.
struct Complex {
  double re = 0, im = 0;

  Complex operator+(const Complex& o) const { return {re + o.re, im + o.im}; }
  Complex operator-(const Complex& o) const { return {re - o.re, im - o.im}; }
  Complex operator*(const Complex& o) const {
    return {re * o.re - im * o.im, re * o.im + im * o.re};
  }
};

namespace fft_internal {

/// e^{-2*pi*i * k / n} (forward transform kernel).
inline Complex Twiddle(uint64_t k, uint64_t n, bool inverse) {
  double angle = 2.0 * std::numbers::pi * static_cast<double>(k % n) /
                 static_cast<double>(n);
  if (!inverse) angle = -angle;
  return {std::cos(angle), std::sin(angle)};
}

/// In-place iterative radix-2 Cooley-Tukey on a RAM buffer.
inline void FftInMemory(std::vector<Complex>* a, bool inverse) {
  size_t n = a->size();
  if (n <= 1) return;
  // Bit-reversal permutation.
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap((*a)[i], (*a)[j]);
  }
  for (size_t len = 2; len <= n; len <<= 1) {
    Complex wl = Twiddle(1, len, inverse);
    for (size_t i = 0; i < n; i += len) {
      Complex w{1, 0};
      for (size_t k = 0; k < len / 2; ++k) {
        Complex u = (*a)[i + k];
        Complex v = (*a)[i + k + len / 2] * w;
        (*a)[i + k] = u + v;
        (*a)[i + k + len / 2] = u - v;
        w = w * wl;
      }
    }
  }
}

/// Tiled out-of-core transpose of a rows×cols row-major ExtVector<T>.
/// `out` must be empty and share the input's device; uses its own pool.
template <typename T>
Status TransposeTiledT(const ExtVector<T>& in, size_t rows, size_t cols,
                       ExtVector<T>* out, const Options& opts) {
  BlockDevice* dev = out->device();
  BufferPool pool(dev,
                  std::max<size_t>(opts.memory_budget / dev->block_size(), 4));
  ExtVector<T> result(dev, &pool);
  {
    typename ExtVector<T>::Writer w(&result);
    T zero{};
    for (size_t i = 0; i < rows * cols; ++i) {
      if (!w.Append(zero)) return w.status();
    }
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  size_t t = static_cast<size_t>(std::sqrt(
      static_cast<double>(opts.memory_budget) / (2 * sizeof(T))));
  if (t == 0) t = 1;
  std::vector<T> tile;
  for (size_t r0 = 0; r0 < rows; r0 += t) {
    size_t rend = std::min(rows, r0 + t);
    for (size_t c0 = 0; c0 < cols; c0 += t) {
      size_t cend = std::min(cols, c0 + t);
      tile.assign((rend - r0) * (cend - c0), T{});
      for (size_t r = r0; r < rend; ++r) {
        typename ExtVector<T>::Reader reader(&in, r * cols + c0);
        for (size_t c = c0; c < cend; ++c) {
          T v;
          if (!reader.Next(&v)) return reader.status();
          tile[(r - r0) * (cend - c0) + (c - c0)] = v;
        }
      }
      for (size_t c = c0; c < cend; ++c) {
        for (size_t r = r0; r < rend; ++r) {
          VEM_RETURN_IF_ERROR(result.Set(
              c * rows + r, tile[(r - r0) * (cend - c0) + (c - c0)]));
        }
      }
    }
  }
  VEM_RETURN_IF_ERROR(pool.FlushAll());
  result.DetachPool();  // the local pool dies with this scope
  *out = std::move(result);
  return Status::OK();
}

}  // namespace fft_internal

/// Out-of-core FFT engine.
class ExternalFft {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`.
  ExternalFft(BlockDevice* dev, const Options& opts)
      : dev_(dev), opts_(opts) {}

  /// Forward DFT: out[k] = sum_n in[n] e^{-2 pi i nk / N}. N must be a
  /// power of two with sqrt(N) <= M/sizeof(Complex) (single-level regime).
  Status Forward(const ExtVector<Complex>& in, ExtVector<Complex>* out) {
    return Run(in, out, /*inverse=*/false);
  }

  /// Inverse DFT including the 1/N normalization.
  Status Inverse(const ExtVector<Complex>& in, ExtVector<Complex>* out) {
    return Run(in, out, /*inverse=*/true);
  }

 private:
  Status Run(const ExtVector<Complex>& in, ExtVector<Complex>* out,
             bool inverse) {
    using namespace fft_internal;
    const uint64_t n = in.size();
    if (n == 0) return Status::OK();
    if ((n & (n - 1)) != 0) {
      return Status::InvalidArgument("FFT size must be a power of two");
    }
    const size_t mem_items = opts_.memory_budget / sizeof(Complex);
    if (n <= mem_items) {
      // Fits in memory: one read pass + in-RAM FFT + one write pass.
      std::vector<Complex> buf;
      VEM_RETURN_IF_ERROR(in.ReadAll(&buf));
      FftInMemory(&buf, inverse);
      if (inverse) Normalize(&buf);
      return out->AppendAll(buf.data(), buf.size());
    }
    // Split N = N1 * N2, both powers of two, N1 <= N2.
    uint64_t log_n = 0;
    while ((1ull << log_n) < n) log_n++;
    uint64_t n1 = 1ull << (log_n / 2);
    uint64_t n2 = n / n1;
    if (n2 > mem_items) {
      return Status::NotSupported(
          "FFT size beyond the single-level six-step regime (sqrt(N) > M)");
    }
    // Input x[n2_idx * N1 + n1_idx] as an N2 x N1 row-major matrix.
    // Step 1: transpose -> N1 x N2 (rows indexed by n1).
    ExtVector<Complex> t1(dev_);
    VEM_RETURN_IF_ERROR(
        TransposeTiledT(in, n2, n1, &t1, opts_));
    // Steps 2+3: N2-point FFT per row, then twiddle by w_N^{n1*k2}.
    ExtVector<Complex> s2(dev_);
    VEM_RETURN_IF_ERROR(RowFftPass(t1, n1, n2, inverse,
                                   /*twiddle_n=*/n, &s2));
    t1.Destroy();
    // Step 4: transpose -> N2 x N1 (rows indexed by k2).
    ExtVector<Complex> t2(dev_);
    VEM_RETURN_IF_ERROR(
        TransposeTiledT(s2, n1, n2, &t2, opts_));
    s2.Destroy();
    // Step 5: N1-point FFT per row.
    ExtVector<Complex> s3(dev_);
    VEM_RETURN_IF_ERROR(RowFftPass(t2, n2, n1, inverse, /*twiddle_n=*/0,
                                   &s3));
    t2.Destroy();
    // Step 6: transpose -> N1 x N2 so index = k1*N2 + k2.
    ExtVector<Complex> t3(dev_);
    VEM_RETURN_IF_ERROR(
        TransposeTiledT(s3, n2, n1, &t3, opts_));
    s3.Destroy();
    if (!inverse) {
      *out = std::move(t3);
      return Status::OK();
    }
    // Inverse: scale by 1/N in one pass.
    typename ExtVector<Complex>::Reader r(&t3);
    typename ExtVector<Complex>::Writer w(out);
    Complex c;
    double inv = 1.0 / static_cast<double>(n);
    while (r.Next(&c)) {
      if (!w.Append(Complex{c.re * inv, c.im * inv})) return w.status();
    }
    VEM_RETURN_IF_ERROR(r.status());
    VEM_RETURN_IF_ERROR(w.Finish());
    t3.Destroy();
    return Status::OK();
  }

  /// FFT each of `rows` rows of length `row_len`; if twiddle_n != 0 also
  /// multiply element (r, k) by w_{twiddle_n}^{r*k}. One sequential pass.
  Status RowFftPass(const ExtVector<Complex>& in, size_t rows, size_t row_len,
                    bool inverse, uint64_t twiddle_n,
                    ExtVector<Complex>* out) {
    using namespace fft_internal;
    typename ExtVector<Complex>::Reader r(&in);
    typename ExtVector<Complex>::Writer w(out);
    std::vector<Complex> row(row_len);
    for (size_t rr = 0; rr < rows; ++rr) {
      for (size_t i = 0; i < row_len; ++i) {
        if (!r.Next(&row[i])) return r.status();
      }
      FftInMemory(&row, inverse);
      if (twiddle_n != 0) {
        for (size_t k = 0; k < row_len; ++k) {
          row[k] = row[k] * Twiddle(rr * k, twiddle_n, inverse);
        }
      }
      for (size_t i = 0; i < row_len; ++i) {
        if (!w.Append(row[i])) return w.status();
      }
    }
    return w.Finish();
  }

  static void Normalize(std::vector<Complex>* a) {
    double inv = 1.0 / static_cast<double>(a->size());
    for (auto& c : *a) {
      c.re *= inv;
      c.im *= inv;
    }
  }

  BlockDevice* dev_;
  Options opts_;
};

/// Baseline: textbook in-place iterative FFT over a pooled
/// vector — the butterflies' strided random access pages badly once
/// N >> M.
inline Status FftPagedBaseline(ExtVector<Complex>* data, bool inverse) {
  using namespace fft_internal;
  const size_t n = data->size();
  if (n <= 1) return Status::OK();
  if (data->pool() == nullptr) {
    return Status::InvalidArgument("paged FFT needs a pooled vector");
  }
  auto get = [&](size_t i) {
    Complex c;
    (void)data->Get(i, &c);
    return c;
  };
  auto set = [&](size_t i, const Complex& c) { (void)data->Set(i, c); };
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      Complex a = get(i), b = get(j);
      set(i, b);
      set(j, a);
    }
  }
  for (size_t len = 2; len <= n; len <<= 1) {
    Complex wl = Twiddle(1, len, inverse);
    for (size_t i = 0; i < n; i += len) {
      Complex w{1, 0};
      for (size_t k = 0; k < len / 2; ++k) {
        Complex u = get(i + k);
        Complex v = get(i + k + len / 2) * w;
        set(i + k, u + v);
        set(i + k + len / 2, u - v);
        w = w * wl;
      }
    }
  }
  return Status::OK();
}

}  // namespace vem
