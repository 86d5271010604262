// External sparse matrix-vector multiply — O(Sort(nnz)) I/Os (survey
// §scientific computing: out-of-core numerical linear algebra).
//
// y = A·x with A in coordinate (COO) form and x, y dense on disk.
// The naive loop needs a random access into x per nonzero (~nnz I/Os);
// the sorting formulation needs none:
//   1. sort entries by column; merge-join with x (sorted by index) to
//      attach x[col] to every entry;
//   2. sort the products by row; accumulate runs into y in one scan.
#pragma once

#include "core/ext_vector.h"
#include "io/buffer_pool.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {

/// One nonzero of a sparse matrix.
struct CooEntry {
  uint64_t row, col;
  double value;
};

/// External SpMV engine.
class SparseMatVec {
 public:
  /// M is `opts.memory_budget`; B comes from `dev`. `opts.prefetch_depth`
  /// K arms K-block read-ahead/write-behind on the internal sorts and the
  /// join/accumulate scans (0 = synchronous). Never changes IoStats.
  SparseMatVec(BlockDevice* dev, const Options& opts)
      : dev_(dev), opts_(opts) {}

  /// y = A x. A: nnz COO entries with row < rows, col == index into x;
  /// x: dense vector of `cols` doubles; y: output, `rows` doubles
  /// (zeros for empty rows).
  Status Multiply(const ExtVector<CooEntry>& a, const ExtVector<double>& x,
                  uint64_t rows, ExtVector<double>* y) {
    struct ColProduct {
      uint64_t row;
      double value;
      bool operator<(const ColProduct& o) const { return row < o.row; }
    };
    const size_t depth = opts_.prefetch_depth;
    // 1. Sort by column, join with x.
    struct ByCol {
      bool operator()(const CooEntry& p, const CooEntry& q) const {
        return p.col != q.col ? p.col < q.col : p.row < q.row;
      }
    };
    ExtVector<CooEntry> by_col(dev_);
    VEM_RETURN_IF_ERROR(
        ExternalSort<CooEntry, ByCol>(a, &by_col, opts_));
    ExtVector<ColProduct> products(dev_);
    {
      typename ExtVector<CooEntry>::Reader ar(&by_col, 0, depth);
      ExtVector<double>::Reader xr(&x, 0, depth);
      typename ExtVector<ColProduct>::Writer w(&products, depth);
      CooEntry e;
      double xv = 0;
      uint64_t xi = 0;
      bool have_x = xr.Next(&xv);
      while (ar.Next(&e)) {
        while (have_x && xi < e.col) {
          have_x = xr.Next(&xv);
          xi++;
        }
        if (!have_x || xi != e.col) {
          return Status::InvalidArgument("matrix column beyond x length");
        }
        if (!w.Append(ColProduct{e.row, e.value * xv})) return w.status();
      }
      VEM_RETURN_IF_ERROR(ar.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    by_col.Destroy();
    // 2. Sort by row, accumulate into dense y.
    ExtVector<ColProduct> by_row(dev_);
    VEM_RETURN_IF_ERROR(ExternalSort(products, &by_row, opts_));
    products.Destroy();
    {
      typename ExtVector<ColProduct>::Reader pr(&by_row, 0, depth);
      ExtVector<double>::Writer w(y, depth);
      ColProduct p{};
      bool have_p = pr.Next(&p);
      for (uint64_t r = 0; r < rows; ++r) {
        double acc = 0;
        while (have_p && p.row == r) {
          acc += p.value;
          have_p = pr.Next(&p);
        }
        if (have_p && p.row < r) {
          return Status::InvalidArgument("matrix row out of range");
        }
        if (!w.Append(acc)) return w.status();
      }
      if (have_p) return Status::InvalidArgument("matrix row >= rows");
      VEM_RETURN_IF_ERROR(pr.status());
      VEM_RETURN_IF_ERROR(w.Finish());
    }
    return Status::OK();
  }

 private:
  BlockDevice* dev_;
  Options opts_;
};

/// Baseline: stream the entries in given order and fetch x[col] through
/// x's own buffer pool — ~1 I/O per nonzero for scattered columns.
inline Status SparseMatVecNaive(const ExtVector<CooEntry>& a,
                                const ExtVector<double>& x, uint64_t rows,
                                ExtVector<double>* y) {
  if (x.pool() == nullptr) {
    return Status::InvalidArgument("naive SpMV needs a pooled x");
  }
  // Accumulate y in RAM? No — that would hide the cost model. y is built
  // via a pooled vector of partial sums.
  BlockDevice* dev = y->device();
  BufferPool ypool(dev, 4);
  ExtVector<double> acc(dev, &ypool);
  {
    ExtVector<double>::Writer w(&acc);
    for (uint64_t r = 0; r < rows; ++r) {
      if (!w.Append(0.0)) return w.status();
    }
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  typename ExtVector<CooEntry>::Reader ar(&a);
  CooEntry e;
  while (ar.Next(&e)) {
    double xv, cur;
    VEM_RETURN_IF_ERROR(x.Get(e.col, &xv));
    VEM_RETURN_IF_ERROR(acc.Get(e.row, &cur));
    VEM_RETURN_IF_ERROR(acc.Set(e.row, cur + e.value * xv));
  }
  VEM_RETURN_IF_ERROR(ar.status());
  VEM_RETURN_IF_ERROR(ypool.FlushAll());
  // Copy to the caller's output.
  ExtVector<double>::Reader r(&acc);
  ExtVector<double>::Writer w(y);
  double v;
  while (r.Next(&v)) {
    if (!w.Append(v)) return w.status();
  }
  VEM_RETURN_IF_ERROR(r.status());
  return w.Finish();
}

}  // namespace vem
