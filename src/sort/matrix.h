// Out-of-core dense matrices: transpose and multiply (survey §"matrix
// transposition and FFT").
//
// Transpose:
//  - TransposeTiled: t×t tiles with t chosen so two tiles fit in M.
//    When M >= B^2 this is the survey's one-pass Θ(N/B) algorithm; for
//    smaller M the per-tile cost degrades gracefully (extra factor ~B/t),
//    mirroring the general bound's log term.
//  - TransposeNaive: walk the output row-major, reading input columns —
//    ~1 I/O per item once a column no longer fits in cache. The baseline.
//
// Multiply: classic blocked matmul with s×s tiles, Θ(n^3/(B·sqrt(M)))
// I/Os for n×n inputs.
#pragma once

#include <cmath>
#include <vector>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "io/buffer_pool.h"
#include "serve/execution_context.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// Dense row-major matrix of doubles on a device.
class ExtMatrix {
 public:
  ExtMatrix(BlockDevice* dev, size_t rows, size_t cols,
            BufferPool* pool = nullptr)
      : rows_(rows), cols_(cols), data_(dev, pool) {}

  /// Serving-plane wiring: tiles paged through an ExecutionContext (one
  /// tenant of a possibly shared M; serve/execution_context.h).
  ExtMatrix(ExecutionContext* ctx, size_t rows, size_t cols)
      : ExtMatrix(ctx->device(), rows, cols, ctx->pool()) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  ExtVector<double>& data() { return data_; }
  const ExtVector<double>& data() const { return data_; }

  /// Bulk-load from a row-major buffer of rows*cols doubles.
  Status Load(const double* values) {
    return data_.AppendAll(values, rows_ * cols_);
  }

  /// Sequential zero-fill.
  Status Zero() {
    ExtVector<double>::Writer w(&data_);
    for (size_t i = 0; i < rows_ * cols_; ++i) {
      if (!w.Append(0.0)) return w.status();
    }
    return w.Finish();
  }

  size_t Index(size_t r, size_t c) const { return r * cols_ + c; }

 private:
  size_t rows_, cols_;
  ExtVector<double> data_;
};

/// Tiled out-of-core transpose. `out` must be empty with shape (cols,rows)
/// and a BufferPool sized to the memory budget (frames = M/block). The
/// tile side comes from `opts.memory_budget`.
inline Status TransposeTiled(const ExtMatrix& in, ExtMatrix* out,
                             const Options& opts) {
  if (out->rows() != in.cols() || out->cols() != in.rows()) {
    return Status::InvalidArgument("transpose shape mismatch");
  }
  VEM_RETURN_IF_ERROR(out->Zero());
  if (out->data().pool() == nullptr) {
    return Status::InvalidArgument("TransposeTiled needs a pooled output");
  }
  // Tile side: one input tile is buffered in RAM (t*t doubles), and the
  // dirtied output tile blocks live in the pool — budget half each.
  size_t t = static_cast<size_t>(std::sqrt(
      static_cast<double>(opts.memory_budget) / (2 * sizeof(double))));
  if (t == 0) t = 1;

  std::vector<double> tile;
  tile.reserve(t * t);
  for (size_t r0 = 0; r0 < in.rows(); r0 += t) {
    size_t rend = std::min(in.rows(), r0 + t);
    for (size_t c0 = 0; c0 < in.cols(); c0 += t) {
      size_t cend = std::min(in.cols(), c0 + t);
      // Read the tile row-segment by row-segment (sequential within rows).
      tile.assign((rend - r0) * (cend - c0), 0.0);
      for (size_t r = r0; r < rend; ++r) {
        ExtVector<double>::Reader reader(&in.data(), in.Index(r, c0));
        for (size_t c = c0; c < cend; ++c) {
          double v;
          if (!reader.Next(&v)) return reader.status();
          tile[(r - r0) * (cend - c0) + (c - c0)] = v;
        }
      }
      // Write the transposed tile: output rows are input columns.
      for (size_t c = c0; c < cend; ++c) {
        for (size_t r = r0; r < rend; ++r) {
          VEM_RETURN_IF_ERROR(out->data().Set(
              out->Index(c, r), tile[(r - r0) * (cend - c0) + (c - c0)]));
        }
      }
    }
  }
  return out->data().pool()->FlushAll();
}

/// Naive transpose baseline: emit output row-major; each output row is an
/// input column, read by strided Gets through the pool.
inline Status TransposeNaive(const ExtMatrix& in, ExtMatrix* out) {
  if (out->rows() != in.cols() || out->cols() != in.rows()) {
    return Status::InvalidArgument("transpose shape mismatch");
  }
  if (in.data().pool() == nullptr) {
    return Status::InvalidArgument("TransposeNaive needs a pooled input");
  }
  ExtVector<double>::Writer w(&out->data());
  for (size_t c = 0; c < in.cols(); ++c) {
    for (size_t r = 0; r < in.rows(); ++r) {
      double v;
      VEM_RETURN_IF_ERROR(in.data().Get(in.Index(r, c), &v));
      if (!w.Append(v)) return w.status();
    }
  }
  return w.Finish();
}

/// Blocked out-of-core matrix multiply C = A * B with s×s tiles, three
/// tiles resident (s = sqrt(M/3), M = `opts.memory_budget`).
/// Θ(n³/(B·sqrt(M))) I/Os.
inline Status MultiplyTiled(const ExtMatrix& a, const ExtMatrix& b,
                            ExtMatrix* c, const Options& opts) {
  if (a.cols() != b.rows() || c->rows() != a.rows() || c->cols() != b.cols()) {
    return Status::InvalidArgument("matmul shape mismatch");
  }
  if (c->data().pool() == nullptr) {
    return Status::InvalidArgument("MultiplyTiled needs a pooled output");
  }
  VEM_RETURN_IF_ERROR(c->Zero());
  size_t s = static_cast<size_t>(std::sqrt(
      static_cast<double>(opts.memory_budget) / (3 * sizeof(double))));
  if (s == 0) s = 1;

  std::vector<double> ta, tb, tc;
  for (size_t i0 = 0; i0 < a.rows(); i0 += s) {
    size_t iend = std::min(a.rows(), i0 + s);
    for (size_t j0 = 0; j0 < b.cols(); j0 += s) {
      size_t jend = std::min(b.cols(), j0 + s);
      tc.assign((iend - i0) * (jend - j0), 0.0);
      for (size_t k0 = 0; k0 < a.cols(); k0 += s) {
        size_t kend = std::min(a.cols(), k0 + s);
        // Load A tile (i0..iend, k0..kend) and B tile (k0..kend, j0..jend).
        ta.assign((iend - i0) * (kend - k0), 0.0);
        for (size_t i = i0; i < iend; ++i) {
          ExtVector<double>::Reader r(&a.data(), a.Index(i, k0));
          for (size_t k = k0; k < kend; ++k) {
            double v;
            if (!r.Next(&v)) return r.status();
            ta[(i - i0) * (kend - k0) + (k - k0)] = v;
          }
        }
        tb.assign((kend - k0) * (jend - j0), 0.0);
        for (size_t k = k0; k < kend; ++k) {
          ExtVector<double>::Reader r(&b.data(), b.Index(k, j0));
          for (size_t j = j0; j < jend; ++j) {
            double v;
            if (!r.Next(&v)) return r.status();
            tb[(k - k0) * (jend - j0) + (j - j0)] = v;
          }
        }
        for (size_t i = 0; i < iend - i0; ++i) {
          for (size_t k = 0; k < kend - k0; ++k) {
            double av = ta[i * (kend - k0) + k];
            if (av == 0.0) continue;
            for (size_t j = 0; j < jend - j0; ++j) {
              tc[i * (jend - j0) + j] += av * tb[k * (jend - j0) + j];
            }
          }
        }
      }
      for (size_t i = i0; i < iend; ++i) {
        for (size_t j = j0; j < jend; ++j) {
          VEM_RETURN_IF_ERROR(
              c->data().Set(c->Index(i, j), tc[(i - i0) * (jend - j0) + (j - j0)]));
        }
      }
    }
  }
  return c->data().pool()->FlushAll();
}

}  // namespace vem
