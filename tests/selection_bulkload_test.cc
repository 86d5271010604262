// Tests for external selection and B+-tree bulk loading.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "io/memory_block_device.h"
#include "search/bplus_tree.h"
#include "sort/external_sort.h"
#include "sort/selection.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 256;
constexpr size_t kMem = 2048;
const Options kOpts{.memory_budget = kMem};

// ---------------------------------------------------------------- selection

class SelectionSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SelectionSweep, FindsEveryPercentile) {
  const size_t n = GetParam();
  MemoryBlockDevice dev(kBlock);
  Rng rng(n * 3 + 1);
  std::vector<uint64_t> data(n);
  for (auto& v : data) v = rng.Uniform(n);  // duplicates galore
  ExtVector<uint64_t> vec(&dev);
  ASSERT_TRUE(vec.AppendAll(data.data(), data.size()).ok());
  std::vector<uint64_t> sorted = data;
  std::sort(sorted.begin(), sorted.end());

  ExternalSelector<uint64_t> sel(&dev, kOpts);
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99}) {
    uint64_t k = static_cast<uint64_t>(q * (n - 1));
    uint64_t got;
    ASSERT_TRUE(sel.Select(vec, k, &got).ok());
    ASSERT_EQ(got, sorted[k]) << "n=" << n << " k=" << k;
  }
  uint64_t got;
  ASSERT_TRUE(sel.Select(vec, n - 1, &got).ok());
  EXPECT_EQ(got, sorted[n - 1]);
  EXPECT_TRUE(sel.Select(vec, n, &got).IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SelectionSweep,
                         ::testing::Values(1, 50, 5000, 60000));

TEST(Selection, CheaperThanSorting) {
  const size_t n = 100000;
  MemoryBlockDevice dev(kBlock);
  Rng rng(12);
  ExtVector<uint64_t> vec(&dev);
  {
    ExtVector<uint64_t>::Writer w(&vec);
    for (size_t i = 0; i < n; ++i) ASSERT_TRUE(w.Append(rng.Next()));
    ASSERT_TRUE(w.Finish().ok());
  }
  uint64_t median;
  IoProbe p1(dev);
  ASSERT_TRUE(ExternalMedian(vec, &median, kOpts).ok());
  uint64_t select_ios = p1.delta().block_ios();

  ExtVector<uint64_t> sorted(&dev);
  IoProbe p2(dev);
  ASSERT_TRUE(ExternalSort(vec, &sorted, kOpts).ok());
  uint64_t sort_ios = p2.delta().block_ios();
  EXPECT_LT(select_ios, sort_ios)
      << "select=" << select_ios << " sort=" << sort_ios;
  // Geometric shrinkage: a handful of partition rounds.
  ExternalSelector<uint64_t> sel(&dev, kOpts);
  uint64_t v;
  ASSERT_TRUE(sel.Select(vec, n / 2, &v).ok());
  EXPECT_LE(sel.rounds(), 30u);
}

TEST(Selection, AllEqualInput) {
  MemoryBlockDevice dev(kBlock);
  ExtVector<uint64_t> vec(&dev);
  {
    ExtVector<uint64_t>::Writer w(&vec);
    for (int i = 0; i < 10000; ++i) ASSERT_TRUE(w.Append(42));
    ASSERT_TRUE(w.Finish().ok());
  }
  ExternalSelector<uint64_t> sel(&dev, kOpts);
  uint64_t got;
  ASSERT_TRUE(sel.Select(vec, 5000, &got).ok());
  EXPECT_EQ(got, 42u);
}

// -------------------------------------------------------------- bulk load

TEST(BulkLoad, BuildsSearchableTree) {
  MemoryBlockDevice dev(512);
  BufferPool pool(&dev, 16);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  const size_t n = 50000;
  using KV = BPlusTree<uint64_t, uint64_t>::KV;
  ExtVector<KV> input(&dev);
  {
    ExtVector<KV>::Writer w(&input);
    for (uint64_t i = 0; i < n; ++i) ASSERT_TRUE(w.Append(KV{i * 3, i}));
    ASSERT_TRUE(w.Finish().ok());
  }
  IoProbe probe(dev);
  ASSERT_TRUE(tree.BulkLoad(input).ok());
  // Build cost is ~N/B_leaf writes, far below N inserts.
  EXPECT_LT(probe.delta().block_ios(), n / 4);
  EXPECT_EQ(tree.size(), n);
  uint64_t v;
  for (uint64_t i : {0ull, 1ull, 2998ull, 149997ull}) {
    Status s = tree.Get(i, &v);
    if (i % 3 == 0 && i / 3 < n) {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ(v, i / 3);
    } else {
      EXPECT_TRUE(s.IsNotFound()) << i;
    }
  }
  // Scan order intact.
  uint64_t prev = 0;
  size_t count = 0;
  ASSERT_TRUE(tree.Scan(0, ~0ull, [&](const uint64_t& k, const uint64_t&) {
    EXPECT_TRUE(count == 0 || k > prev);
    prev = k;
    count++;
    return true;
  }).ok());
  EXPECT_EQ(count, n);
}

TEST(BulkLoad, TreeRemainsFullyMutable) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 16);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  using KV = BPlusTree<uint64_t, uint64_t>::KV;
  ExtVector<KV> input(&dev);
  std::map<uint64_t, uint64_t> ref;
  {
    ExtVector<KV>::Writer w(&input);
    for (uint64_t i = 0; i < 5000; ++i) {
      ASSERT_TRUE(w.Append(KV{i * 2, i}));
      ref[i * 2] = i;
    }
    ASSERT_TRUE(w.Finish().ok());
  }
  ASSERT_TRUE(tree.BulkLoad(input).ok());
  // Hammer it with mixed mutations against the reference.
  Rng rng(15);
  for (int t = 0; t < 20000; ++t) {
    uint64_t k = rng.Uniform(12000);
    switch (rng.Uniform(3)) {
      case 0: {
        uint64_t v = rng.Next();
        ASSERT_TRUE(tree.Insert(k, v).ok());
        ref[k] = v;
        break;
      }
      case 1: {
        bool erased;
        ASSERT_TRUE(tree.Delete(k, &erased).ok());
        EXPECT_EQ(erased, ref.erase(k) > 0) << "op " << t;
        break;
      }
      case 2: {
        uint64_t v;
        Status s = tree.Get(k, &v);
        auto it = ref.find(k);
        if (it == ref.end()) {
          EXPECT_TRUE(s.IsNotFound());
        } else {
          ASSERT_TRUE(s.ok());
          EXPECT_EQ(v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(tree.size(), ref.size());
  }
}

TEST(BulkLoad, TinyInputs) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 8);
  using KV = BPlusTree<uint64_t, uint64_t>::KV;
  for (size_t n : {0u, 1u, 2u, 7u, 33u}) {
    BPlusTree<uint64_t, uint64_t> tree(&pool);
    ASSERT_TRUE(tree.Init().ok());
    ExtVector<KV> input(&dev);
    {
      ExtVector<KV>::Writer w(&input);
      for (uint64_t i = 0; i < n; ++i) ASSERT_TRUE(w.Append(KV{i, i + 100}));
      ASSERT_TRUE(w.Finish().ok());
    }
    ASSERT_TRUE(tree.BulkLoad(input).ok());
    EXPECT_EQ(tree.size(), n);
    uint64_t v;
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(tree.Get(i, &v).ok()) << "n=" << n << " i=" << i;
      EXPECT_EQ(v, i + 100);
    }
  }
}

}  // namespace
}  // namespace vem
