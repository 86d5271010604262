// Tests for external sorting, permuting, and out-of-core matrices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "io/memory_block_device.h"
#include "sort/distribution_sort.h"
#include "sort/external_sort.h"
#include "sort/loser_tree.h"
#include "sort/matrix.h"
#include "sort/permute.h"
#include "util/random.h"

namespace vem {
namespace {

/// Options with internal memory M = `bytes`, everything else default.
Options Opts(size_t bytes) { return Options{.memory_budget = bytes}; }

// ---------------------------------------------------------------- LoserTree

TEST(LoserTree, MergesKSortedSequences) {
  const size_t kK = 5;
  Rng rng(3);
  std::vector<std::vector<int>> seqs(kK);
  std::vector<int> all;
  for (auto& s : seqs) {
    size_t len = rng.Uniform(50);
    for (size_t i = 0; i < len; ++i) s.push_back(static_cast<int>(rng.Uniform(1000)));
    std::sort(s.begin(), s.end());
    all.insert(all.end(), s.begin(), s.end());
  }
  std::sort(all.begin(), all.end());

  LoserTree<int> lt(kK);
  std::vector<size_t> pos(kK, 0);
  for (size_t i = 0; i < kK; ++i) {
    if (!seqs[i].empty()) lt.SetSource(i, seqs[i][pos[i]++]);
  }
  lt.Build();
  std::vector<int> merged;
  while (lt.HasWinner()) {
    merged.push_back(lt.top());
    size_t s = lt.winner();
    if (pos[s] < seqs[s].size()) {
      lt.ReplaceWinner(seqs[s][pos[s]++]);
    } else {
      lt.ExhaustWinner();
    }
  }
  EXPECT_EQ(merged, all);
}

TEST(LoserTree, SingleSource) {
  LoserTree<int> lt(1);
  lt.SetSource(0, 42);
  lt.Build();
  ASSERT_TRUE(lt.HasWinner());
  EXPECT_EQ(lt.top(), 42);
  lt.ExhaustWinner();
  EXPECT_FALSE(lt.HasWinner());
}

TEST(LoserTree, AllSourcesEmpty) {
  LoserTree<int> lt(4);
  lt.Build();
  EXPECT_FALSE(lt.HasWinner());
}

TEST(LoserTree, NonPowerOfTwoSources) {
  for (size_t k : {2, 3, 5, 6, 7, 9, 13}) {
    LoserTree<uint64_t> lt(k);
    for (size_t i = 0; i < k; ++i) lt.SetSource(i, 1000 - i);
    lt.Build();
    std::vector<uint64_t> out;
    while (lt.HasWinner()) {
      out.push_back(lt.top());
      lt.ExhaustWinner();
    }
    ASSERT_EQ(out.size(), k);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end())) << "k=" << k;
  }
}

// ---------------------------------------------------------------- MergeSort

struct SortCase {
  size_t n;
  size_t block_bytes;
  size_t memory_bytes;
};

class MergeSortSweep : public ::testing::TestWithParam<SortCase> {};

TEST_P(MergeSortSweep, SortsRandomInput) {
  const SortCase& c = GetParam();
  MemoryBlockDevice dev(c.block_bytes);
  ExtVector<uint64_t> input(&dev);
  std::vector<uint64_t> ref;
  Rng rng(c.n * 31 + c.block_bytes);
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (size_t i = 0; i < c.n; ++i) {
      uint64_t v = rng.Uniform(c.n * 2 + 1);  // plenty of duplicates
      ref.push_back(v);
      ASSERT_TRUE(w.Append(v));
    }
    ASSERT_TRUE(w.Finish().ok());
  }
  std::sort(ref.begin(), ref.end());

  ExternalSorter<uint64_t> sorter(&dev, Opts(c.memory_bytes));
  ExtVector<uint64_t> output(&dev);
  ASSERT_TRUE(sorter.Sort(input, &output).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(output.ReadAll(&got).ok());
  EXPECT_EQ(got, ref);

  // Metrics sanity: run count = ceil(N / run_length).
  size_t expect_runs =
      (c.n + sorter.run_length() - 1) / std::max<size_t>(1, sorter.run_length());
  EXPECT_EQ(sorter.metrics().initial_runs, expect_runs);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MergeSortSweep,
    ::testing::Values(SortCase{0, 256, 1024}, SortCase{1, 256, 1024},
                      SortCase{100, 256, 1024}, SortCase{5000, 256, 1024},
                      SortCase{50000, 256, 2048},   // many merge passes
                      SortCase{20000, 64, 256},     // brutal: tiny M and B
                      SortCase{10000, 4096, 65536}  // single pass
                      ));

TEST(MergeSort, IoMatchesSortBound) {
  // Measured I/Os must be within a small constant of
  // 2*(N/B)*(passes + 1) (run formation + each merge pass reads+writes).
  const size_t kBlock = 256, kMem = 2048, kN = 100000;
  const size_t kB = kBlock / sizeof(uint64_t);
  MemoryBlockDevice dev(kBlock);
  ExtVector<uint64_t> input(&dev);
  Rng rng(17);
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (size_t i = 0; i < kN; ++i) ASSERT_TRUE(w.Append(rng.Next()));
    ASSERT_TRUE(w.Finish().ok());
  }
  ExternalSorter<uint64_t> sorter(&dev, Opts(kMem));
  ExtVector<uint64_t> output(&dev);
  IoProbe probe(dev);
  ASSERT_TRUE(sorter.Sort(input, &output).ok());
  const auto& m = sorter.metrics();
  double blocks = static_cast<double>(kN) / kB;
  double bound = 2.0 * blocks * (m.merge_passes + 1);
  EXPECT_LE(probe.delta().block_ios(), bound * 1.2 + 16)
      << "passes=" << m.merge_passes;
  // And the pass count matches ceil(log_k(runs)).
  double expect_passes =
      std::ceil(std::log(static_cast<double>(m.initial_runs)) /
                std::log(static_cast<double>(m.fan_in)));
  EXPECT_EQ(m.merge_passes, static_cast<size_t>(expect_passes));
}

TEST(MergeSort, AlreadySortedAndReverse) {
  MemoryBlockDevice dev(256);
  for (bool reverse : {false, true}) {
    ExtVector<uint32_t> input(&dev);
    ExtVector<uint32_t>::Writer w(&input);
    for (uint32_t i = 0; i < 10000; ++i) {
      ASSERT_TRUE(w.Append(reverse ? 10000 - i : i));
    }
    ASSERT_TRUE(w.Finish().ok());
    ExtVector<uint32_t> output(&dev);
    ASSERT_TRUE(ExternalSort(input, &output, Opts(1024)).ok());
    std::vector<uint32_t> got;
    ASSERT_TRUE(output.ReadAll(&got).ok());
    ASSERT_EQ(got.size(), 10000u);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  }
}

TEST(MergeSort, CustomComparatorDescending) {
  MemoryBlockDevice dev(256);
  ExtVector<int> input(&dev);
  std::vector<int> data{5, -3, 8, 0, 8, -3, 100, 7};
  ASSERT_TRUE(input.AppendAll(data.data(), data.size()).ok());
  ExtVector<int> output(&dev);
  ASSERT_TRUE(
      ExternalSort(input, &output, Opts(512), std::greater<int>()).ok());
  std::vector<int> got;
  ASSERT_TRUE(output.ReadAll(&got).ok());
  std::sort(data.begin(), data.end(), std::greater<int>());
  EXPECT_EQ(got, data);
}

TEST(MergeSort, TemporariesFreed) {
  MemoryBlockDevice dev(256);
  ExtVector<uint64_t> input(&dev);
  Rng rng(5);
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (size_t i = 0; i < 20000; ++i) ASSERT_TRUE(w.Append(rng.Next()));
    ASSERT_TRUE(w.Finish().ok());
  }
  uint64_t before = dev.num_allocated();
  {
    ExtVector<uint64_t> output(&dev);
    ASSERT_TRUE(ExternalSort(input, &output, Opts(1024)).ok());
    // Only input + output remain allocated.
    EXPECT_EQ(dev.num_allocated(), before + output.num_blocks());
  }
  EXPECT_EQ(dev.num_allocated(), before);
}

TEST(MergeSort, SingleRunOutputKeepsPool) {
  // The output's pool must survive the sort whether the input fits in
  // one run (M = 1 MiB) or needs a merge (M = 12 KiB).
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 8);
  const size_t kN = 5000;
  ExtVector<uint64_t> input(&dev);
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (size_t i = 0; i < kN; ++i) ASSERT_TRUE(w.Append(kN - 1 - i));
    ASSERT_TRUE(w.Finish().ok());
  }
  for (size_t budget : {size_t{1} << 20, size_t{12} << 10}) {
    ExtVector<uint64_t> out(&dev, &pool);
    ASSERT_TRUE(ExternalSort(input, &out, Opts(budget)).ok()) << budget;
    EXPECT_EQ(out.pool(), &pool) << budget;
    uint64_t v = 0;
    ASSERT_TRUE(out.Get(5, &v).ok()) << budget;
    EXPECT_EQ(v, 5u) << budget;
  }
}

// ---------------------------------------------------- Sliced run formation

// Records whose comparators look only at the key: heavy key duplication
// leaves distinct payloads among equal keys, so the output bytes expose
// the tie order.
struct KeyedRec {
  uint64_t key;
  uint64_t payload;
};
struct KeyLess {
  bool operator()(const KeyedRec& a, const KeyedRec& b) const {
    return a.key < b.key;
  }
};
struct KeyGreater {
  bool operator()(const KeyedRec& a, const KeyedRec& b) const {
    return a.key > b.key;
  }
};

// Order-independent checksum term of one record (key and payload).
uint64_t RecHash(const KeyedRec& r) {
  uint64_t x = r.key * 0x9E3779B97F4A7C15ull ^ r.payload;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// A run well above the slice threshold, a multiple of neither the slice
// count nor the 16 records of a 256-byte block.
constexpr size_t kSlicedRun = ExternalSorter<KeyedRec>::kMinSlicedRun + 4003;
static_assert(ExternalSorter<KeyedRec>::kRunSlices >= 2 &&
              kSlicedRun % ExternalSorter<KeyedRec>::kRunSlices != 0);

// n records with 64 distinct keys (seeded by n); adds their checksum
// terms to *sum.
void WriteKeyed(size_t n, ExtVector<KeyedRec>* v, uint64_t* sum) {
  Rng rng(n);
  ExtVector<KeyedRec>::Writer w(v);
  for (size_t i = 0; i < n; ++i) {
    KeyedRec r{rng.Uniform(64), i};
    *sum += RecHash(r);
    ASSERT_TRUE(w.Append(r));
  }
  ASSERT_TRUE(w.Finish().ok());
}

template <typename Cmp>
void CheckSlicedSort(size_t n) {
  using Sorter = ExternalSorter<KeyedRec, Cmp>;
  const size_t kRun = kSlicedRun;
  const size_t kBlock = 256, kPerBlock = kBlock / sizeof(KeyedRec);
  MemoryBlockDevice dev(kBlock);
  ExtVector<KeyedRec> input(&dev);
  uint64_t in_sum = 0;
  WriteKeyed(n, &input, &in_sum);

  Sorter sorter(&dev, Opts(kRun * sizeof(KeyedRec)));
  ASSERT_EQ(sorter.run_length(), kRun);
  ExtVector<KeyedRec> out(&dev);
  IoProbe probe(dev);
  ASSERT_TRUE(sorter.Sort(input, &out).ok());
  const IoStats io = probe.delta();

  // Exact cost: run formation reads the input and writes each run; with
  // more than one run, the single merge pass reads the runs back and
  // writes the output.
  auto blocks = [&](size_t items) {
    return (items + kPerBlock - 1) / kPerBlock;
  };
  const size_t runs = (n + kRun - 1) / kRun;
  uint64_t run_blocks = 0;
  for (size_t r = 0; r < runs; ++r) {
    run_blocks += blocks(std::min(kRun, n - r * kRun));
  }
  const uint64_t merge = runs > 1 ? 1 : 0;
  EXPECT_EQ(io.block_reads, blocks(n) + merge * run_blocks);
  EXPECT_EQ(io.block_writes, run_blocks + merge * blocks(n));
  EXPECT_EQ(io.parallel_ios(), io.block_ios());
  EXPECT_EQ(sorter.metrics().initial_runs, runs);
  EXPECT_EQ(sorter.metrics().merge_passes, merge);

  // Ordered under Cmp, same multiset (count and key+payload checksum).
  std::vector<KeyedRec> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), n);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), Cmp()));
  uint64_t out_sum = 0;
  for (const KeyedRec& r : got) out_sum += RecHash(r);
  EXPECT_EQ(out_sum, in_sum);

  // A second sort writes byte-identical blocks: tie order is fixed.
  ExtVector<KeyedRec> again(&dev);
  ASSERT_TRUE(
      Sorter(&dev, Opts(kRun * sizeof(KeyedRec))).Sort(input, &again).ok());
  ASSERT_EQ(again.num_blocks(), out.num_blocks());
  std::vector<char> a(kBlock), b(kBlock);
  for (size_t i = 0; i < out.num_blocks(); ++i) {
    ASSERT_TRUE(dev.Read(out.block_id(i), a.data()).ok());
    ASSERT_TRUE(dev.Read(again.block_id(i), b.data()).ok());
    ASSERT_EQ(a, b) << "block " << i;
  }
}

TEST(SlicedRunFormation, EdgeSizesBothOrders) {
  const size_t run = kSlicedRun;
  for (size_t n : {run - 1, run, run + 1, 3 * run + 5}) {
    SCOPED_TRACE(n);
    CheckSlicedSort<KeyLess>(n);
    CheckSlicedSort<KeyGreater>(n);
  }
}

TEST(SlicedRunFormation, ConcurrentSortersMatchSerialOutput) {
  // Four sorters at once contend for the kRunSlices - 1 process-wide
  // helper slots. A slice that gets none is sorted by its caller, which
  // must not change a byte of the output.
  const size_t n = 3 * kSlicedRun + 5, kMem = kSlicedRun * sizeof(KeyedRec);
  auto sort_keyed = [&](std::vector<KeyedRec>* got) {
    MemoryBlockDevice dev(256);
    ExtVector<KeyedRec> input(&dev), out(&dev);
    uint64_t sum = 0;
    WriteKeyed(n, &input, &sum);
    ExternalSorter<KeyedRec, KeyLess> sorter(&dev, Opts(kMem));
    ASSERT_TRUE(sorter.Sort(input, &out).ok());
    ASSERT_TRUE(out.ReadAll(got).ok());
  };
  std::vector<KeyedRec> serial;
  sort_keyed(&serial);
  ASSERT_EQ(serial.size(), n);
  std::vector<std::vector<KeyedRec>> got(4);
  {
    std::vector<std::jthread> sorters;
    for (auto& g : got) sorters.emplace_back(sort_keyed, &g);
  }
  for (const auto& g : got) {
    ASSERT_EQ(g.size(), n);
    EXPECT_EQ(std::memcmp(g.data(), serial.data(), n * sizeof(KeyedRec)), 0);
  }
  EXPECT_EQ(detail::run_sort_helpers.load(), 0u);
}

TEST(SlicedRunFormation, HelperComparatorExceptionReachesCaller) {
  // The poisoned key sits in the last slice, which a helper thread sorts.
  const uint64_t kPoison = kSlicedRun - 1;
  auto cmp = [kPoison](const KeyedRec& a, const KeyedRec& b) {
    if (a.key == kPoison || b.key == kPoison) throw std::runtime_error("cmp");
    return a.key < b.key;
  };
  MemoryBlockDevice dev(256);
  ExtVector<KeyedRec> input(&dev);
  {
    ExtVector<KeyedRec>::Writer w(&input);
    for (uint64_t i = 0; i < kSlicedRun; ++i) ASSERT_TRUE(w.Append({i, i}));
    ASSERT_TRUE(w.Finish().ok());
  }
  ExternalSorter<KeyedRec, decltype(cmp)> sorter(
      &dev, Opts(kSlicedRun * sizeof(KeyedRec)), cmp);
  ExtVector<KeyedRec> out(&dev);
  EXPECT_THROW((void)sorter.Sort(input, &out), std::runtime_error);
}

// --------------------------------------------------------- DistributionSort

class DistSortSweep : public ::testing::TestWithParam<SortCase> {};

TEST_P(DistSortSweep, SortsRandomInput) {
  const SortCase& c = GetParam();
  MemoryBlockDevice dev(c.block_bytes);
  ExtVector<uint64_t> input(&dev);
  std::vector<uint64_t> ref;
  Rng rng(c.n * 7 + 1);
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (size_t i = 0; i < c.n; ++i) {
      uint64_t v = rng.Uniform(c.n + 1);
      ref.push_back(v);
      ASSERT_TRUE(w.Append(v));
    }
    ASSERT_TRUE(w.Finish().ok());
  }
  std::sort(ref.begin(), ref.end());
  DistributionSorter<uint64_t> sorter(&dev, Opts(c.memory_bytes));
  ExtVector<uint64_t> output(&dev);
  ASSERT_TRUE(sorter.Sort(input, &output).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(output.ReadAll(&got).ok());
  EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DistSortSweep,
    ::testing::Values(SortCase{0, 256, 1024}, SortCase{1, 256, 1024},
                      SortCase{5000, 256, 1024}, SortCase{50000, 256, 2048},
                      SortCase{20000, 64, 512}));

TEST(DistributionSort, AllEqualKeysTerminates) {
  // Regression guard: duplicate-only input must not recurse forever.
  MemoryBlockDevice dev(256);
  ExtVector<uint64_t> input(&dev);
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (size_t i = 0; i < 20000; ++i) ASSERT_TRUE(w.Append(7));
    ASSERT_TRUE(w.Finish().ok());
  }
  DistributionSorter<uint64_t> sorter(&dev, Opts(1024));
  ExtVector<uint64_t> output(&dev);
  ASSERT_TRUE(sorter.Sort(input, &output).ok());
  EXPECT_EQ(output.size(), 20000u);
  std::vector<uint64_t> got;
  ASSERT_TRUE(output.ReadAll(&got).ok());
  for (uint64_t v : got) ASSERT_EQ(v, 7u);
}

TEST(DistributionSort, ZipfSkewedKeys) {
  MemoryBlockDevice dev(256);
  ExtVector<uint64_t> input(&dev);
  ZipfGenerator zipf(1000, 0.9, 123);
  std::vector<uint64_t> ref;
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (size_t i = 0; i < 30000; ++i) {
      uint64_t v = zipf.Next();
      ref.push_back(v);
      ASSERT_TRUE(w.Append(v));
    }
    ASSERT_TRUE(w.Finish().ok());
  }
  std::sort(ref.begin(), ref.end());
  DistributionSorter<uint64_t> sorter(&dev, Opts(2048));
  ExtVector<uint64_t> output(&dev);
  ASSERT_TRUE(sorter.Sort(input, &output).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(output.ReadAll(&got).ok());
  EXPECT_EQ(got, ref);
}

TEST(DistributionSort, AgreesWithMergeSort) {
  MemoryBlockDevice dev(128);
  ExtVector<uint64_t> input(&dev);
  Rng rng(321);
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (size_t i = 0; i < 40000; ++i) ASSERT_TRUE(w.Append(rng.Next() % 997));
    ASSERT_TRUE(w.Finish().ok());
  }
  ExtVector<uint64_t> a(&dev), b(&dev);
  ASSERT_TRUE(ExternalSort(input, &a, Opts(1024)).ok());
  DistributionSorter<uint64_t> ds(&dev, Opts(1024));
  ASSERT_TRUE(ds.Sort(input, &b).ok());
  std::vector<uint64_t> va, vb;
  ASSERT_TRUE(a.ReadAll(&va).ok());
  ASSERT_TRUE(b.ReadAll(&vb).ok());
  EXPECT_EQ(va, vb);
}

// ------------------------------------------------------------------ Permute

TEST(Permute, SortingStrategyReversesAndShuffles) {
  MemoryBlockDevice dev(256);
  const size_t kN = 5000;
  ExtVector<uint64_t> values(&dev);
  ExtVector<uint64_t> dest(&dev);
  std::vector<uint64_t> perm(kN);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(8);
  rng.Shuffle(&perm);
  {
    ExtVector<uint64_t>::Writer vw(&values), dw(&dest);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(vw.Append(i * 10));
      ASSERT_TRUE(dw.Append(perm[i]));
    }
    ASSERT_TRUE(vw.Finish().ok());
    ASSERT_TRUE(dw.Finish().ok());
  }
  ExtVector<uint64_t> out(&dev);
  ASSERT_TRUE(PermuteBySorting(values, dest, &out, Opts(1024)).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), kN);
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(got[perm[i]], i * 10);
}

TEST(Permute, DirectMatchesSorting) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 8);
  const size_t kN = 3000;
  ExtVector<uint32_t> values(&dev);
  ExtVector<uint64_t> dest(&dev);
  std::vector<uint64_t> perm(kN);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(9);
  rng.Shuffle(&perm);
  {
    ExtVector<uint32_t>::Writer vw(&values);
    ExtVector<uint64_t>::Writer dw(&dest);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(vw.Append(static_cast<uint32_t>(i)));
      ASSERT_TRUE(dw.Append(perm[i]));
    }
    ASSERT_TRUE(vw.Finish().ok());
    ASSERT_TRUE(dw.Finish().ok());
  }
  ExtVector<uint32_t> by_sort(&dev), by_direct(&dev, &pool);
  ASSERT_TRUE(PermuteBySorting(values, dest, &by_sort, Opts(2048)).ok());
  ASSERT_TRUE(PermuteDirect(values, dest, &by_direct).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  std::vector<uint32_t> a, b;
  ASSERT_TRUE(by_sort.ReadAll(&a).ok());
  ASSERT_TRUE(by_direct.ReadAll(&b).ok());
  EXPECT_EQ(a, b);
}

TEST(Permute, AutoPrefersSortingForLargeRandomPermutation) {
  // With small B the sorting estimate beats N; check the decision.
  auto est = PermuteCostModel::Estimate(/*n=*/1 << 20, sizeof(uint64_t),
                                        /*block=*/4096, /*mem=*/1 << 20);
  EXPECT_LT(est.sorting_ios, est.direct_ios);
}

TEST(Permute, AutoPrefersDirectForTinyBlocks) {
  // The survey's crossover: direct (N I/Os) beats sorting exactly when the
  // block size is below the log term — e.g. ~2 items per block.
  auto est = PermuteCostModel::Estimate(/*n=*/1 << 16, sizeof(uint64_t),
                                        /*block=*/16, /*mem=*/1 << 12);
  EXPECT_LE(est.direct_ios, est.sorting_ios);
}

// ------------------------------------------------------------------- Matrix

TEST(Matrix, TiledTransposeCorrect) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 64);
  const size_t kR = 37, kC = 53;
  ExtMatrix a(&dev, kR, kC);
  std::vector<double> data(kR * kC);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i);
  ASSERT_TRUE(a.Load(data.data()).ok());
  ExtMatrix at(&dev, kC, kR, &pool);
  ASSERT_TRUE(TransposeTiled(a, &at, Opts(4096)).ok());
  std::vector<double> got;
  ASSERT_TRUE(at.data().ReadAll(&got).ok());
  for (size_t r = 0; r < kR; ++r) {
    for (size_t c = 0; c < kC; ++c) {
      ASSERT_EQ(got[c * kR + r], data[r * kC + c]) << r << "," << c;
    }
  }
}

TEST(Matrix, TiledMatchesNaive) {
  MemoryBlockDevice dev(128);
  BufferPool pool(&dev, 128);
  const size_t kR = 24, kC = 31;
  ExtMatrix a(&dev, kR, kC, &pool);
  std::vector<double> data(kR * kC);
  Rng rng(13);
  for (auto& v : data) v = rng.NextDouble();
  ASSERT_TRUE(a.Load(data.data()).ok());
  ExtMatrix t1(&dev, kC, kR, &pool), t2(&dev, kC, kR, &pool);
  ASSERT_TRUE(TransposeTiled(a, &t1, Opts(2048)).ok());
  ASSERT_TRUE(TransposeNaive(a, &t2).ok());
  std::vector<double> v1, v2;
  ASSERT_TRUE(t1.data().ReadAll(&v1).ok());
  ASSERT_TRUE(t2.data().ReadAll(&v2).ok());
  EXPECT_EQ(v1, v2);
}

TEST(Matrix, MultiplyMatchesReference) {
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 64);
  const size_t kN = 20, kK = 15, kM = 17;
  std::vector<double> da(kN * kK), db(kK * kM);
  Rng rng(77);
  for (auto& v : da) v = std::floor(rng.NextDouble() * 10);
  for (auto& v : db) v = std::floor(rng.NextDouble() * 10);
  ExtMatrix a(&dev, kN, kK), b(&dev, kK, kM), c(&dev, kN, kM, &pool);
  ASSERT_TRUE(a.Load(da.data()).ok());
  ASSERT_TRUE(b.Load(db.data()).ok());
  ASSERT_TRUE(MultiplyTiled(a, b, &c, Opts(2048)).ok());
  std::vector<double> got;
  ASSERT_TRUE(c.data().ReadAll(&got).ok());
  for (size_t i = 0; i < kN; ++i) {
    for (size_t j = 0; j < kM; ++j) {
      double expect = 0;
      for (size_t k = 0; k < kK; ++k) expect += da[i * kK + k] * db[k * kM + j];
      ASSERT_DOUBLE_EQ(got[i * kM + j], expect);
    }
  }
}

TEST(Matrix, TiledTransposeBeatsNaiveOnIos) {
  // The headline shape: tiled transpose ~ Scan I/Os, naive ~ item I/Os.
  MemoryBlockDevice dev(512);
  BufferPool pool(&dev, 8);  // small pool => naive thrashes
  const size_t kR = 128, kC = 128;
  ExtMatrix a(&dev, kR, kC, &pool);
  std::vector<double> data(kR * kC, 1.5);
  ASSERT_TRUE(a.Load(data.data()).ok());

  ExtMatrix t1(&dev, kC, kR, &pool);
  IoProbe p1(dev);
  ASSERT_TRUE(TransposeTiled(a, &t1, Opts(4096)).ok());
  uint64_t tiled_ios = p1.delta().block_ios();

  ExtMatrix t2(&dev, kC, kR, &pool);
  IoProbe p2(dev);
  ASSERT_TRUE(TransposeNaive(a, &t2).ok());
  uint64_t naive_ios = p2.delta().block_ios();

  EXPECT_LT(tiled_ios * 4, naive_ios)
      << "tiled=" << tiled_ios << " naive=" << naive_ios;
}

}  // namespace
}  // namespace vem
