// Tests for B+-tree, external priority queue, and buffer tree.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "io/memory_block_device.h"
#include "search/bplus_tree.h"
#include "search/buffer_tree.h"
#include "search/external_pq.h"
#include "util/random.h"

namespace vem {
namespace {

/// Options with internal memory M = `bytes`, everything else default.
Options Opts(size_t bytes) { return Options{.memory_budget = bytes}; }

// ---------------------------------------------------------------- BPlusTree

TEST(BPlusTree, InsertGetBasic) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 16);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(i * 2, i).ok());
  }
  EXPECT_EQ(tree.size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t v;
    ASSERT_TRUE(tree.Get(i * 2, &v).ok());
    EXPECT_EQ(v, i);
    EXPECT_TRUE(tree.Get(i * 2 + 1, &v).IsNotFound());
  }
}

TEST(BPlusTree, UpsertReplaces) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 16);
  BPlusTree<uint32_t, uint32_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  bool replaced;
  ASSERT_TRUE(tree.Insert(5, 10, &replaced).ok());
  EXPECT_FALSE(replaced);
  ASSERT_TRUE(tree.Insert(5, 20, &replaced).ok());
  EXPECT_TRUE(replaced);
  EXPECT_EQ(tree.size(), 1u);
  uint32_t v;
  ASSERT_TRUE(tree.Get(5, &v).ok());
  EXPECT_EQ(v, 20u);
}

TEST(BPlusTree, HeightIsLogB) {
  MemoryBlockDevice dev(512);
  BufferPool pool(&dev, 32);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  const size_t kN = 50000;
  Rng rng(4);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.Insert(rng.Next(), i).ok());
  }
  // height <= ceil(log_{cap/2}(N)) + 1.
  double base = static_cast<double>(tree.leaf_capacity()) / 2;
  double bound = std::ceil(std::log(static_cast<double>(kN)) / std::log(base)) + 1;
  EXPECT_LE(tree.height(), static_cast<size_t>(bound));
}

TEST(BPlusTree, PointQueryIoIsHeight) {
  MemoryBlockDevice dev(512);
  // Pool with few frames: a cold lookup costs ~height I/Os, never more.
  BufferPool pool(&dev, 4);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  const size_t kN = 20000;
  for (uint64_t i = 0; i < kN; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  Rng rng(6);
  for (int t = 0; t < 50; ++t) {
    uint64_t key = rng.Uniform(kN);
    IoProbe probe(dev);
    uint64_t v;
    ASSERT_TRUE(tree.Get(key, &v).ok());
    EXPECT_LE(probe.delta().block_reads, tree.height());
  }
}

TEST(BPlusTree, RangeScanInOrder) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 16);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  std::set<uint64_t> keys;
  Rng rng(10);
  for (int i = 0; i < 5000; ++i) {
    uint64_t k = rng.Uniform(100000);
    keys.insert(k);
    ASSERT_TRUE(tree.Insert(k, k * 2).ok());
  }
  uint64_t lo = 20000, hi = 60000;
  std::vector<uint64_t> expect;
  for (uint64_t k : keys) {
    if (k >= lo && k <= hi) expect.push_back(k);
  }
  std::vector<uint64_t> got;
  ASSERT_TRUE(tree.Scan(lo, hi, [&](const uint64_t& k, const uint64_t& v) {
    EXPECT_EQ(v, k * 2);
    got.push_back(k);
    return true;
  }).ok());
  EXPECT_EQ(got, expect);
}

TEST(BPlusTree, ScanEarlyStop) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 16);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  for (uint64_t i = 0; i < 1000; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  int count = 0;
  ASSERT_TRUE(tree.Scan(0, 999, [&](const uint64_t&, const uint64_t&) {
    return ++count < 10;
  }).ok());
  EXPECT_EQ(count, 10);
}

TEST(BPlusTree, DeleteSimple) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 16);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  for (uint64_t i = 0; i < 2000; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  bool erased;
  for (uint64_t i = 0; i < 2000; i += 2) {
    ASSERT_TRUE(tree.Delete(i, &erased).ok());
    EXPECT_TRUE(erased);
  }
  ASSERT_TRUE(tree.Delete(0, &erased).ok());
  EXPECT_FALSE(erased);
  EXPECT_EQ(tree.size(), 1000u);
  uint64_t v;
  for (uint64_t i = 0; i < 2000; ++i) {
    Status s = tree.Get(i, &v);
    if (i % 2 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << i;
    } else {
      EXPECT_TRUE(s.ok()) << i;
    }
  }
}

TEST(BPlusTree, DeleteEverythingThenReuse) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 16);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  for (uint64_t i = 0; i < 3000; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  for (uint64_t i = 0; i < 3000; ++i) ASSERT_TRUE(tree.Delete(i).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);  // shrank back to a single leaf
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(tree.Insert(i, 7).ok());
  uint64_t v;
  ASSERT_TRUE(tree.Get(50, &v).ok());
  EXPECT_EQ(v, 7u);
}

struct FuzzCase {
  size_t block_bytes;
  size_t ops;
  uint64_t key_space;
};

class BPlusTreeFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(BPlusTreeFuzz, MatchesStdMap) {
  const FuzzCase& c = GetParam();
  MemoryBlockDevice dev(c.block_bytes);
  BufferPool pool(&dev, 16);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  std::map<uint64_t, uint64_t> ref;
  Rng rng(c.block_bytes * 131 + c.ops);
  for (size_t t = 0; t < c.ops; ++t) {
    uint64_t k = rng.Uniform(c.key_space);
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {  // insert
        uint64_t v = rng.Next();
        ASSERT_TRUE(tree.Insert(k, v).ok());
        ref[k] = v;
        break;
      }
      case 2: {  // delete
        bool erased;
        ASSERT_TRUE(tree.Delete(k, &erased).ok());
        EXPECT_EQ(erased, ref.erase(k) > 0) << "key " << k << " op " << t;
        break;
      }
      case 3: {  // lookup
        uint64_t v;
        Status s = tree.Get(k, &v);
        auto it = ref.find(k);
        if (it == ref.end()) {
          EXPECT_TRUE(s.IsNotFound()) << "key " << k << " op " << t;
        } else {
          ASSERT_TRUE(s.ok()) << "key " << k << " op " << t;
          EXPECT_EQ(v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(tree.size(), ref.size());
  }
  // Full-order check via scan.
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  ASSERT_TRUE(tree.Scan(0, ~0ull, [&](const uint64_t& k, const uint64_t& v) {
    scanned.push_back({k, v});
    return true;
  }).ok());
  std::vector<std::pair<uint64_t, uint64_t>> expect(ref.begin(), ref.end());
  EXPECT_EQ(scanned, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BPlusTreeFuzz,
    ::testing::Values(FuzzCase{128, 20000, 500},   // tiny nodes, hot keys
                      FuzzCase{256, 20000, 100000},
                      FuzzCase{512, 10000, 50},    // heavy duplication
                      FuzzCase{4096, 20000, 1000000}));

// ------------------------------------------------------ ExternalPriorityQueue

TEST(ExternalPQ, PushPopSorted) {
  MemoryBlockDevice dev(256);
  ExternalPriorityQueue<uint64_t> pq(&dev, Opts(1024));
  Rng rng(20);
  const size_t kN = 50000;
  std::vector<uint64_t> ref;
  for (size_t i = 0; i < kN; ++i) {
    uint64_t v = rng.Next();
    ref.push_back(v);
    ASSERT_TRUE(pq.Push(v).ok());
  }
  EXPECT_GT(pq.spills(), 0u);   // must actually have gone external
  std::sort(ref.begin(), ref.end());
  for (size_t i = 0; i < kN; ++i) {
    uint64_t v;
    ASSERT_TRUE(pq.Pop(&v).ok());
    ASSERT_EQ(v, ref[i]) << "at " << i;
  }
  EXPECT_TRUE(pq.empty());
  uint64_t v;
  EXPECT_TRUE(pq.Pop(&v).IsNotFound());
}

TEST(ExternalPQ, InterleavedMatchesStdPq) {
  MemoryBlockDevice dev(128);
  ExternalPriorityQueue<uint64_t> pq(&dev, Opts(512));
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> ref;
  Rng rng(21);
  for (int t = 0; t < 60000; ++t) {
    if (ref.empty() || rng.Uniform(100) < 60) {
      uint64_t v = rng.Uniform(1 << 20);
      ASSERT_TRUE(pq.Push(v).ok());
      ref.push(v);
    } else {
      uint64_t got, want = ref.top();
      ref.pop();
      ASSERT_TRUE(pq.Pop(&got).ok());
      ASSERT_EQ(got, want) << "op " << t;
    }
    ASSERT_EQ(pq.size(), ref.size());
  }
}

TEST(ExternalPQ, TopDoesNotConsume) {
  MemoryBlockDevice dev(128);
  ExternalPriorityQueue<int> pq(&dev, Opts(512));
  ASSERT_TRUE(pq.Push(5).ok());
  ASSERT_TRUE(pq.Push(3).ok());
  int v;
  ASSERT_TRUE(pq.Top(&v).ok());
  EXPECT_EQ(v, 3);
  EXPECT_EQ(pq.size(), 2u);
  ASSERT_TRUE(pq.Pop(&v).ok());
  EXPECT_EQ(v, 3);
  ASSERT_TRUE(pq.Pop(&v).ok());
  EXPECT_EQ(v, 5);
}

TEST(ExternalPQ, CustomComparatorMaxHeap) {
  MemoryBlockDevice dev(128);
  ExternalPriorityQueue<int, std::greater<int>> pq(&dev, Opts(512),
                                                   std::greater<int>());
  for (int v : {3, 9, 1, 7}) ASSERT_TRUE(pq.Push(v).ok());
  int out;
  ASSERT_TRUE(pq.Pop(&out).ok());
  EXPECT_EQ(out, 9);
}

// ----------------------------------------------------------------- BufferTree

TEST(BufferTree, InsertExtractSorted) {
  MemoryBlockDevice dev(256);
  BufferTree<uint64_t, uint64_t> tree(&dev, Opts(2048));
  const size_t kN = 30000;
  Rng rng(30);
  std::map<uint64_t, uint64_t> ref;
  for (size_t i = 0; i < kN; ++i) {
    uint64_t k = rng.Uniform(1 << 24);
    ref[k] = i;
    ASSERT_TRUE(tree.Insert(k, i).ok());
  }
  ExtVector<BufferTree<uint64_t, uint64_t>::Pair> out(&dev);
  ASSERT_TRUE(tree.ExtractAll(&out).ok());
  std::vector<BufferTree<uint64_t, uint64_t>::Pair> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), ref.size());
  auto it = ref.begin();
  for (size_t i = 0; i < got.size(); ++i, ++it) {
    ASSERT_EQ(got[i].key, it->first);
    ASSERT_EQ(got[i].value, it->second);
  }
}

TEST(BufferTree, DeletesAndUpserts) {
  MemoryBlockDevice dev(256);
  BufferTree<uint64_t, uint64_t> tree(&dev, Opts(2048));
  std::map<uint64_t, uint64_t> ref;
  Rng rng(31);
  for (int t = 0; t < 50000; ++t) {
    uint64_t k = rng.Uniform(5000);
    if (rng.Uniform(3) != 0) {
      uint64_t v = rng.Next();
      ASSERT_TRUE(tree.Insert(k, v).ok());
      ref[k] = v;
    } else {
      ASSERT_TRUE(tree.Delete(k).ok());
      ref.erase(k);
    }
  }
  ExtVector<BufferTree<uint64_t, uint64_t>::Pair> out(&dev);
  ASSERT_TRUE(tree.ExtractAll(&out).ok());
  std::vector<BufferTree<uint64_t, uint64_t>::Pair> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), ref.size());
  auto it = ref.begin();
  for (size_t i = 0; i < got.size(); ++i, ++it) {
    ASSERT_EQ(got[i].key, it->first) << i;
    ASSERT_EQ(got[i].value, it->second) << i;
  }
}

TEST(BufferTree, QueryAfterFlush) {
  MemoryBlockDevice dev(256);
  BufferTree<uint64_t, uint64_t> tree(&dev, Opts(2048));
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(tree.Insert(i * 3, i).ok());
  }
  uint64_t v;
  bool found;
  ASSERT_TRUE(tree.Query(300, &v, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(v, 100u);
  ASSERT_TRUE(tree.Query(301, &v, &found).ok());
  EXPECT_FALSE(found);
  // Delete then re-query.
  ASSERT_TRUE(tree.Delete(300).ok());
  ASSERT_TRUE(tree.Query(300, &v, &found).ok());
  EXPECT_FALSE(found);
}

TEST(BufferTree, AmortizedInsertIoBeatsBTree) {
  // The survey's headline for buffer trees: N inserts cost ~Sort(N) I/Os,
  // an order of magnitude below N * log_B(N) for one-at-a-time B-tree
  // inserts at the same pool size.
  MemoryBlockDevice dev(1024);  // B = 32 ops / 64 pairs per block
  const size_t kN = 100000;
  const size_t kMem = 32768;  // m = 32 blocks of internal memory

  BufferTree<uint64_t, uint64_t> btree(&dev, Opts(kMem));
  Rng rng(33);
  IoProbe probe(dev);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(btree.Insert(rng.Next(), i).ok());
  }
  ASSERT_TRUE(btree.FlushAll().ok());
  uint64_t buffered_ios = probe.delta().block_ios();

  BufferPool pool(&dev, kMem / 1024);
  BPlusTree<uint64_t, uint64_t> ptree(&pool);
  ASSERT_TRUE(ptree.Init().ok());
  Rng rng2(33);
  IoProbe probe2(dev);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(ptree.Insert(rng2.Next(), i).ok());
  }
  uint64_t online_ios = probe2.delta().block_ios();

  EXPECT_LT(buffered_ios * 5, online_ios)
      << "buffered=" << buffered_ios << " online=" << online_ios;
}

TEST(BufferTree, DuplicateKeyLastWriteWins) {
  MemoryBlockDevice dev(256);
  BufferTree<uint32_t, uint32_t> tree(&dev, Opts(1024));
  for (uint32_t round = 0; round < 200; ++round) {
    for (uint32_t k = 0; k < 50; ++k) {
      ASSERT_TRUE(tree.Insert(k, round * 100 + k).ok());
    }
  }
  ExtVector<BufferTree<uint32_t, uint32_t>::Pair> out(&dev);
  ASSERT_TRUE(tree.ExtractAll(&out).ok());
  std::vector<BufferTree<uint32_t, uint32_t>::Pair> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), 50u);
  for (uint32_t k = 0; k < 50; ++k) {
    EXPECT_EQ(got[k].key, k);
    EXPECT_EQ(got[k].value, 199u * 100 + k);
  }
}

}  // namespace
}  // namespace vem
