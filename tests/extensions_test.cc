// Tests for the extension modules: sorted-set operations, external SpMV,
// suffix-array search, Euler-tour depths.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/set_ops.h"
#include "graph/euler_tour.h"
#include "io/memory_block_device.h"
#include "sort/spmv.h"
#include "string/sa_search.h"
#include "string/suffix_array.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 256;
constexpr size_t kMem = 4096;
const Options kOpts{.memory_budget = kMem};

// -------------------------------------------------------------- set ops

class SetOpsFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SetOpsFuzz, AllOpsMatchStdAlgorithms) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(GetParam());
  std::set<uint32_t> sa, sb;
  size_t na = rng.Uniform(3000), nb = rng.Uniform(3000);
  for (size_t i = 0; i < na; ++i) sa.insert(static_cast<uint32_t>(rng.Uniform(4000)));
  for (size_t i = 0; i < nb; ++i) sb.insert(static_cast<uint32_t>(rng.Uniform(4000)));
  std::vector<uint32_t> va(sa.begin(), sa.end()), vb(sb.begin(), sb.end());

  ExtVector<uint32_t> a(&dev), b(&dev);
  ASSERT_TRUE(a.AppendAll(va.data(), va.size()).ok());
  ASSERT_TRUE(b.AppendAll(vb.data(), vb.size()).ok());

  auto check = [&](auto op, auto std_op) {
    ExtVector<uint32_t> out(&dev);
    ASSERT_TRUE(op(a, b, &out).ok());
    std::vector<uint32_t> got, expect;
    ASSERT_TRUE(out.ReadAll(&got).ok());
    std_op(va, vb, &expect);
    ASSERT_EQ(got, expect);
  };
  check(
      [](auto& x, auto& y, auto* o) { return SortedUnion(x, y, o); },
      [](auto& x, auto& y, auto* e) {
        std::set_union(x.begin(), x.end(), y.begin(), y.end(),
                       std::back_inserter(*e));
      });
  check(
      [](auto& x, auto& y, auto* o) { return SortedIntersection(x, y, o); },
      [](auto& x, auto& y, auto* e) {
        std::set_intersection(x.begin(), x.end(), y.begin(), y.end(),
                              std::back_inserter(*e));
      });
  check(
      [](auto& x, auto& y, auto* o) { return SortedDifference(x, y, o); },
      [](auto& x, auto& y, auto* e) {
        std::set_difference(x.begin(), x.end(), y.begin(), y.end(),
                            std::back_inserter(*e));
      });
  check(
      [](auto& x, auto& y, auto* o) { return SortedMerge(x, y, o); },
      [](auto& x, auto& y, auto* e) {
        std::merge(x.begin(), x.end(), y.begin(), y.end(),
                   std::back_inserter(*e));
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetOpsFuzz, ::testing::Values(1, 2, 3, 4, 5));

TEST(SetOps, EmptyAndDisjointEdgeCases) {
  MemoryBlockDevice dev(kBlock);
  ExtVector<uint32_t> empty(&dev), a(&dev), out1(&dev), out2(&dev), out3(&dev);
  std::vector<uint32_t> va{1, 5, 9};
  ASSERT_TRUE(a.AppendAll(va.data(), va.size()).ok());
  ASSERT_TRUE(SortedUnion(a, empty, &out1).ok());
  std::vector<uint32_t> got;
  ASSERT_TRUE(out1.ReadAll(&got).ok());
  EXPECT_EQ(got, va);
  ASSERT_TRUE(SortedIntersection(a, empty, &out2).ok());
  EXPECT_EQ(out2.size(), 0u);
  ASSERT_TRUE(SortedDifference(empty, a, &out3).ok());
  EXPECT_EQ(out3.size(), 0u);
}

TEST(SetOps, UniqueCollapsesRuns) {
  MemoryBlockDevice dev(kBlock);
  ExtVector<uint32_t> a(&dev), out(&dev);
  std::vector<uint32_t> va{1, 1, 1, 2, 3, 3, 7, 7, 7, 7};
  ASSERT_TRUE(a.AppendAll(va.data(), va.size()).ok());
  ASSERT_TRUE(SortedUnique(a, &out).ok());
  std::vector<uint32_t> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  EXPECT_EQ(got, (std::vector<uint32_t>{1, 2, 3, 7}));
}

TEST(SetOps, CostIsScanBounded) {
  MemoryBlockDevice dev(kBlock);
  const size_t kB = kBlock / sizeof(uint32_t);
  const size_t kN = 40000;
  ExtVector<uint32_t> a(&dev), b(&dev);
  {
    ExtVector<uint32_t>::Writer wa(&a), wb(&b);
    for (uint32_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(wa.Append(2 * i));
      ASSERT_TRUE(wb.Append(3 * i));
    }
    ASSERT_TRUE(wa.Finish().ok());
    ASSERT_TRUE(wb.Finish().ok());
  }
  ExtVector<uint32_t> out(&dev);
  IoProbe probe(dev);
  ASSERT_TRUE(SortedUnion(a, b, &out).ok());
  EXPECT_LE(probe.delta().block_ios(), 2 * (2 * kN + out.size()) / kB + 8);
}

// ----------------------------------------------------------------- SpMV

TEST(SparseMatVec, MatchesDenseReference) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(7);
  const uint64_t kRows = 300, kCols = 200, kNnz = 4000;
  std::vector<CooEntry> entries;
  std::vector<double> xv(kCols);
  for (auto& v : xv) v = rng.NextDouble() * 2 - 1;
  for (uint64_t i = 0; i < kNnz; ++i) {
    entries.push_back({rng.Uniform(kRows), rng.Uniform(kCols),
                       rng.NextDouble() * 2 - 1});
  }
  std::vector<double> expect(kRows, 0.0);
  for (const auto& e : entries) expect[e.row] += e.value * xv[e.col];

  ExtVector<CooEntry> a(&dev);
  ExtVector<double> x(&dev), y(&dev);
  ASSERT_TRUE(a.AppendAll(entries.data(), entries.size()).ok());
  ASSERT_TRUE(x.AppendAll(xv.data(), xv.size()).ok());
  SparseMatVec spmv(&dev, kOpts);
  ASSERT_TRUE(spmv.Multiply(a, x, kRows, &y).ok());
  std::vector<double> got;
  ASSERT_TRUE(y.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), kRows);
  for (uint64_t r = 0; r < kRows; ++r) {
    ASSERT_NEAR(got[r], expect[r], 1e-9) << "row " << r;
  }
}

TEST(SparseMatVec, EmptyRowsAreZero) {
  MemoryBlockDevice dev(kBlock);
  std::vector<CooEntry> entries = {{0, 0, 2.0}, {4, 1, 3.0}};
  std::vector<double> xv = {10, 100};
  ExtVector<CooEntry> a(&dev);
  ExtVector<double> x(&dev), y(&dev);
  ASSERT_TRUE(a.AppendAll(entries.data(), entries.size()).ok());
  ASSERT_TRUE(x.AppendAll(xv.data(), xv.size()).ok());
  SparseMatVec spmv(&dev, kOpts);
  ASSERT_TRUE(spmv.Multiply(a, x, 6, &y).ok());
  std::vector<double> got;
  ASSERT_TRUE(y.ReadAll(&got).ok());
  EXPECT_EQ(got, (std::vector<double>{20, 0, 0, 0, 300, 0}));
}

TEST(SparseMatVec, ColumnOutOfRangeRejected) {
  MemoryBlockDevice dev(kBlock);
  std::vector<CooEntry> entries = {{0, 5, 1.0}};
  std::vector<double> xv = {1, 2};
  ExtVector<CooEntry> a(&dev);
  ExtVector<double> x(&dev), y(&dev);
  ASSERT_TRUE(a.AppendAll(entries.data(), entries.size()).ok());
  ASSERT_TRUE(x.AppendAll(xv.data(), xv.size()).ok());
  SparseMatVec spmv(&dev, kOpts);
  EXPECT_TRUE(spmv.Multiply(a, x, 1, &y).IsInvalidArgument());
}

TEST(SparseMatVec, SortBasedBeatsNaiveOnIos) {
  MemoryBlockDevice dev(4096);
  BufferPool pool(&dev, 8);
  Rng rng(8);
  const uint64_t kRows = 20000, kCols = 20000, kNnz = 60000;
  std::vector<CooEntry> entries;
  for (uint64_t i = 0; i < kNnz; ++i) {
    entries.push_back({rng.Uniform(kRows), rng.Uniform(kCols),
                       rng.NextDouble()});
  }
  std::vector<double> xv(kCols);
  for (auto& v : xv) v = rng.NextDouble();
  ExtVector<CooEntry> a(&dev);
  ExtVector<double> x(&dev, &pool);
  ASSERT_TRUE(a.AppendAll(entries.data(), entries.size()).ok());
  ASSERT_TRUE(x.AppendAll(xv.data(), xv.size()).ok());

  ExtVector<double> y1(&dev), y2(&dev);
  IoProbe p1(dev);
  SparseMatVec spmv(&dev, Options{.memory_budget = 64 * 1024});
  ASSERT_TRUE(spmv.Multiply(a, x, kRows, &y1).ok());
  uint64_t sort_ios = p1.delta().block_ios();

  IoProbe p2(dev);
  ASSERT_TRUE(SparseMatVecNaive(a, x, kRows, &y2).ok());
  uint64_t naive_ios = p2.delta().block_ios();
  EXPECT_LT(sort_ios * 3, naive_ios)
      << "sort=" << sort_ios << " naive=" << naive_ios;

  std::vector<double> v1, v2;
  ASSERT_TRUE(y1.ReadAll(&v1).ok());
  ASSERT_TRUE(y2.ReadAll(&v2).ok());
  ASSERT_EQ(v1.size(), v2.size());
  for (size_t i = 0; i < v1.size(); ++i) ASSERT_NEAR(v1[i], v2[i], 1e-9);
}

// ------------------------------------------------------ suffix array search

TEST(SuffixArraySearch, FindsAllOccurrences) {
  MemoryBlockDevice dev(kBlock);
  std::string text = "abracadabra_abracadabra_banana";
  ExtVector<uint8_t> tv(&dev);
  ASSERT_TRUE(tv.AppendAll(reinterpret_cast<const uint8_t*>(text.data()),
                           text.size())
                  .ok());
  SuffixArrayBuilder builder(&dev, kOpts);
  ExtVector<uint64_t> sa(&dev);
  ASSERT_TRUE(builder.Build(tv, &sa).ok());
  SuffixArraySearcher searcher(&tv, &sa);

  auto expect_count = [&](const std::string& p) {
    uint64_t c = 0;
    for (size_t i = 0; i + p.size() <= text.size(); ++i) {
      if (text.compare(i, p.size(), p) == 0) c++;
    }
    return c;
  };
  const std::vector<std::string> patterns = {
      "abra", "a", "banana", "cad", "zzz", "abracadabra", "_"};
  for (const std::string& p : patterns) {
    uint64_t count;
    ASSERT_TRUE(searcher.Count(p, &count).ok());
    EXPECT_EQ(count, expect_count(p)) << "pattern " << p;
    std::vector<uint64_t> hits;
    ASSERT_TRUE(searcher.Find(p, &hits).ok());
    EXPECT_EQ(hits.size(), count);
    for (uint64_t pos : hits) {
      EXPECT_EQ(text.compare(pos, p.size(), p), 0) << "pos " << pos;
    }
  }
}

TEST(SuffixArraySearch, RandomTextProperty) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(44);
  std::string text;
  for (int i = 0; i < 3000; ++i) {
    text.push_back('a' + static_cast<char>(rng.Uniform(3)));
  }
  ExtVector<uint8_t> tv(&dev);
  ASSERT_TRUE(tv.AppendAll(reinterpret_cast<const uint8_t*>(text.data()),
                           text.size())
                  .ok());
  SuffixArrayBuilder builder(&dev, kOpts);
  ExtVector<uint64_t> sa(&dev);
  ASSERT_TRUE(builder.Build(tv, &sa).ok());
  SuffixArraySearcher searcher(&tv, &sa);
  for (int t = 0; t < 30; ++t) {
    size_t len = 1 + rng.Uniform(6);
    std::string p;
    for (size_t i = 0; i < len; ++i) {
      p.push_back('a' + static_cast<char>(rng.Uniform(3)));
    }
    uint64_t expect = 0;
    for (size_t i = 0; i + p.size() <= text.size(); ++i) {
      if (text.compare(i, p.size(), p) == 0) expect++;
    }
    uint64_t count;
    ASSERT_TRUE(searcher.Count(p, &count).ok());
    ASSERT_EQ(count, expect) << "pattern " << p;
  }
}

// ------------------------------------------------------- Euler tour depths

TEST(EulerTourDepths, MatchesBfsDepths) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(17);
  const uint64_t n = 3000;
  std::vector<Edge> e;
  std::vector<uint64_t> parent(n, 0);
  std::vector<uint64_t> ref(n, 0);
  for (uint64_t v = 1; v < n; ++v) {
    parent[v] = rng.Uniform(v);
    ref[v] = ref[parent[v]] + 1;
    e.push_back({parent[v], v});
  }
  ExtVector<Edge> tree(&dev);
  ASSERT_TRUE(tree.AppendAll(e.data(), e.size()).ok());
  EulerTour et(&dev, kOpts);
  ExtVector<TourArc> arcs(&dev);
  ASSERT_TRUE(et.Run(tree, n, 0, &arcs).ok());
  ExtVector<VertexDepth2> depths(&dev);
  ASSERT_TRUE(et.Depths(arcs, 0, &depths).ok());
  std::vector<VertexDepth2> got;
  ASSERT_TRUE(depths.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), n);
  for (uint64_t v = 0; v < n; ++v) {
    ASSERT_EQ(got[v].vertex, v);
    ASSERT_EQ(got[v].depth, ref[v]) << "vertex " << v;
  }
}

TEST(EulerTourDepths, PathAndStar) {
  MemoryBlockDevice dev(kBlock);
  // Path 0-1-2-...-9 rooted at 0: depth(v) = v.
  {
    std::vector<Edge> e;
    for (uint64_t v = 1; v < 10; ++v) e.push_back({v - 1, v});
    ExtVector<Edge> tree(&dev);
    ASSERT_TRUE(tree.AppendAll(e.data(), e.size()).ok());
    EulerTour et(&dev, kOpts);
    ExtVector<TourArc> arcs(&dev);
    ASSERT_TRUE(et.Run(tree, 10, 0, &arcs).ok());
    ExtVector<VertexDepth2> depths(&dev);
    ASSERT_TRUE(et.Depths(arcs, 0, &depths).ok());
    std::vector<VertexDepth2> got;
    ASSERT_TRUE(depths.ReadAll(&got).ok());
    for (uint64_t v = 0; v < 10; ++v) ASSERT_EQ(got[v].depth, v);
  }
  // Star rooted at the hub: all leaves depth 1.
  {
    std::vector<Edge> e;
    for (uint64_t v = 1; v < 10; ++v) e.push_back({0, v});
    ExtVector<Edge> tree(&dev);
    ASSERT_TRUE(tree.AppendAll(e.data(), e.size()).ok());
    EulerTour et(&dev, kOpts);
    ExtVector<TourArc> arcs(&dev);
    ASSERT_TRUE(et.Run(tree, 10, 0, &arcs).ok());
    ExtVector<VertexDepth2> depths(&dev);
    ASSERT_TRUE(et.Depths(arcs, 0, &depths).ok());
    std::vector<VertexDepth2> got;
    ASSERT_TRUE(depths.ReadAll(&got).ok());
    EXPECT_EQ(got[0].depth, 0u);
    for (uint64_t v = 1; v < 10; ++v) ASSERT_EQ(got[v].depth, 1u);
  }
}

}  // namespace
}  // namespace vem
