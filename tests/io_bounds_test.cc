// Table-1 conformance suite: every I/O bound of the survey's Table 1 that
// the library reproduces, asserted against its closed form.
//
// One row per bound. A row measures the parallel I/Os of one algorithm
// over a sweep of N (>= 3 points spanning >= 16x), of M/DB (>= 2 values)
// and of D in {1, 4}. D = 4 runs on a StripedDevice(4, B): its block is
// DB bytes, so every algorithm runs unchanged and each bound is written
// with DB as the block size and M = (M/DB) * DB.
//
// Every point's ratio measured / bound must sit in the row's band
// [lo, hi], and for each (D, B, M/DB) the largest ratio over the N sweep
// divided by the smallest must stay under the row's flatness cap — the
// Θ(1) claim, checked as slope rather than as one constant. Rows with an
// exact closed form (Scan, merge Sort) use the band [1, 1]: any stray
// read or write anywhere in the stack fails them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_util.h"
#include "core/ext_vector.h"
#include "geometry/batched_stabbing.h"
#include "geometry/segment_intersection.h"
#include "graph/bfs.h"
#include "graph/connected_components.h"
#include "graph/euler_tour.h"
#include "graph/list_ranking.h"
#include "io/buffer_pool.h"
#include "io/memory_block_device.h"
#include "io/striped_device.h"
#include "search/bplus_tree.h"
#include "search/buffer_tree.h"
#include "search/ext_hash_table.h"
#include "search/external_pq.h"
#include "sort/distribution_sort.h"
#include "sort/external_sort.h"
#include "sort/fft.h"
#include "sort/matrix.h"
#include "sort/permute.h"
#include "string/string_sort.h"
#include "string/suffix_array.h"
#include "util/options.h"
#include "util/random.h"

namespace vem {
namespace {

using bench::SortBound;

/// One machine of the sweep: D disks of B-byte blocks, M = mem_blocks * DB.
struct Pdm {
  size_t d;
  size_t block;       ///< B, bytes per block on one disk
  size_t mem_blocks;  ///< M / DB
  size_t db() const { return d * block; }
  size_t mem() const { return mem_blocks * db(); }
  Options opts() const { return Options{.memory_budget = mem()}; }
  /// Items of `item` bytes per striped block.
  double b(size_t item) const { return static_cast<double>(db()) / item; }
};

/// What one run of an algorithm cost.
struct Cost {
  uint64_t ios = 0;   ///< parallel I/Os charged to the algorithm
  double z = 0;       ///< output size, for bounds with an output term
  double rounds = 1;  ///< iterations, for bounds stated per round
};

struct Row {
  const char* name;
  std::vector<size_t> blocks;      ///< B in bytes
  std::vector<size_t> mem_blocks;  ///< the M/DB sweep
  std::vector<size_t> ns;          ///< the N sweep
  Cost (*measure)(BlockDevice* dev, const Pdm& p, size_t n);
  double (*bound)(double n, const Cost& c, const Pdm& p);
  double lo, hi;  ///< band on measured / bound
  double flat;    ///< cap on max / min ratio over the N sweep
};

void Ok(const Status& s) { EXPECT_TRUE(s.ok()) << s.ToString(); }

std::unique_ptr<BlockDevice> MakeDevice(const Pdm& p) {
  if (p.d == 1) return std::make_unique<MemoryBlockDevice>(p.block);
  return std::make_unique<StripedDevice>(p.d, p.block);
}

/// Scan(N) = N/DB, rounded up to whole blocks.
double ScanBound(double n, double b) { return std::ceil(n / b); }

/// ceil(log_k runs) merge passes; one run needs none.
double MergePasses(double runs, double k) {
  return runs > 1 ? std::ceil(std::log(runs) / std::log(k)) : 0;
}

template <typename T>
void AppendRandom(ExtVector<T>* v, size_t n, uint64_t seed) {
  Rng rng(seed);
  typename ExtVector<T>::Writer w(v);
  for (size_t i = 0; i < n; ++i) w.Append(static_cast<T>(rng.Next()));
  Ok(w.Finish());
}

// ------------------------------------------------------------- measures

/// Writes N items, then reads them back: each pass moves every block
/// once, and the write pass reads nothing and the read pass writes
/// nothing.
Cost MeasureScan(BlockDevice* dev, const Pdm& p, size_t n) {
  ExtVector<uint64_t> v(dev);
  const uint64_t blocks = static_cast<uint64_t>(ScanBound(n, p.b(8)));
  IoProbe write_probe(*dev);
  AppendRandom(&v, n, n);
  const IoStats w = write_probe.delta();
  EXPECT_EQ(w.parallel_writes, blocks);
  EXPECT_EQ(w.block_reads, 0u);
  IoProbe read_probe(*dev);
  ExtVector<uint64_t>::Reader r(&v);
  uint64_t x;
  size_t count = 0;
  while (r.Next(&x)) count++;
  EXPECT_EQ(count, n);
  const IoStats rd = read_probe.delta();
  EXPECT_EQ(rd.parallel_reads, blocks);
  EXPECT_EQ(rd.block_writes, 0u);
  // Striping moves one block on each of the D disks per parallel step.
  EXPECT_EQ(w.block_ios() + rd.block_ios(),
            p.d * (w.parallel_ios() + rd.parallel_ios()));
  return {w.parallel_ios() + rd.parallel_ios()};
}

template <typename Sorter>
Cost MeasureSort(BlockDevice* dev, const Pdm& p, size_t n) {
  ExtVector<uint64_t> in(dev), out(dev);
  AppendRandom(&in, n, n);
  Sorter sorter(dev, p.opts());
  IoProbe probe(*dev);
  Ok(sorter.Sort(in, &out));
  const Cost c{probe.delta().parallel_ios()};
  if constexpr (std::is_same_v<Sorter, ExternalSorter<uint64_t>>) {
    // Fan-in k = M/DB - 1 and runs of M items take ceil(log_k runs)
    // merge passes.
    const auto& m = sorter.metrics();
    EXPECT_EQ(m.fan_in, p.mem_blocks - 1);
    EXPECT_EQ(m.initial_runs, (n * 8 + p.mem() - 1) / p.mem());
    EXPECT_EQ(m.merge_passes, MergePasses(m.initial_runs, m.fan_in))
        << "N=" << n << " runs=" << m.initial_runs;
  }
  std::vector<uint64_t> sorted;
  Ok(out.ReadAll(&sorted));
  EXPECT_EQ(sorted.size(), n);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  return c;
}

Cost MeasurePermute(BlockDevice* dev, const Pdm& p, size_t n) {
  ExtVector<uint64_t> values(dev), dest(dev);
  {
    std::vector<uint64_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    Rng rng(n);
    rng.Shuffle(&perm);
    ExtVector<uint64_t>::Writer vw(&values), dw(&dest);
    for (size_t i = 0; i < n; ++i) {
      vw.Append(i);
      dw.Append(perm[i]);
    }
    Ok(vw.Finish());
    Ok(dw.Finish());
  }
  BufferPool pool(dev, p.mem_blocks);
  ExtVector<uint64_t> out(dev, &pool);
  IoProbe probe(*dev);
  Ok(PermuteAuto(values, dest, &out, p.opts()));
  Ok(pool.FlushAll());
  return {probe.delta().parallel_ios()};
}

Cost MeasureTranspose(BlockDevice* dev, const Pdm& p, size_t n) {
  const size_t side = static_cast<size_t>(std::sqrt(static_cast<double>(n)));
  BufferPool pool(dev, p.mem_blocks);
  ExtMatrix a(dev, side, side, &pool), t(dev, side, side, &pool);
  std::vector<double> data(side * side);
  std::iota(data.begin(), data.end(), 0.0);
  Ok(a.Load(data.data()));
  Ok(pool.FlushAll());
  IoProbe probe(*dev);
  Ok(TransposeTiled(a, &t, p.opts()));
  Ok(pool.FlushAll());
  return {probe.delta().parallel_ios()};
}

Cost MeasureFft(BlockDevice* dev, const Pdm& p, size_t n) {
  ExtVector<Complex> in(dev), out(dev);
  {
    Rng rng(n);
    ExtVector<Complex>::Writer w(&in);
    for (size_t i = 0; i < n; ++i) {
      w.Append(Complex{rng.NextDouble(), rng.NextDouble()});
    }
    Ok(w.Finish());
  }
  EXPECT_GT(n * sizeof(Complex), p.mem()) << "six-step needs N > M";
  ExternalFft fft(dev, p.opts());
  IoProbe probe(*dev);
  Ok(fft.Forward(in, &out));
  EXPECT_EQ(out.size(), n);
  return {probe.delta().parallel_ios()};
}

Cost MeasureListRanking(BlockDevice* dev, const Pdm& p, size_t n) {
  std::vector<uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(n);
  rng.Shuffle(&order);
  std::vector<ListNode> nodes(n);
  for (size_t i = 0; i < n; ++i) {
    nodes[order[i]] =
        ListNode{order[i], i + 1 < n ? order[i + 1] : kNoVertex, 1};
  }
  ExtVector<ListNode> list(dev);
  Ok(list.AppendAll(nodes.data(), nodes.size()));
  ListRanker ranker(dev, p.opts());
  ExtVector<ListRank> ranks(dev);
  IoProbe probe(*dev);
  Ok(ranker.Rank(list, &ranks));
  EXPECT_EQ(ranks.size(), n);
  return {probe.delta().parallel_ios()};
}

/// N = V + E with E = 3V random edges.
Cost MeasureConnectedComponents(BlockDevice* dev, const Pdm& p, size_t n) {
  const uint64_t v = n / 4;
  ExtVector<Edge> edges(dev);
  {
    Rng rng(n);
    ExtVector<Edge>::Writer w(&edges);
    for (size_t i = 0; i < 3 * v; ++i) {
      w.Append(Edge{rng.Uniform(v), rng.Uniform(v)});
    }
    Ok(w.Finish());
  }
  ConnectedComponents cc(dev, p.opts());
  ExtVector<VertexLabel> labels(dev);
  IoProbe probe(*dev);
  Ok(cc.Run(edges, v, &labels));
  EXPECT_EQ(labels.size(), v);
  return {probe.delta().parallel_ios(), 0, static_cast<double>(cc.rounds())};
}

/// N = V: a Hamiltonian cycle plus 2V random chords, symmetrized.
Cost MeasureBfs(BlockDevice* dev, const Pdm& p, size_t n) {
  ExtVector<Edge> edges(dev);
  {
    Rng rng(n);
    ExtVector<Edge>::Writer w(&edges);
    for (uint64_t i = 0; i < n; ++i) w.Append(Edge{i, (i + 1) % n});
    for (size_t i = 0; i < 2 * n; ++i) {
      w.Append(Edge{rng.Uniform(n), rng.Uniform(n)});
    }
    Ok(w.Finish());
  }
  BufferPool pool(dev, p.mem_blocks);
  ExtGraph g(dev, &pool);
  Ok(g.Build(edges, n, p.opts(), /*symmetrize=*/true));
  ExternalBfs bfs(dev, p.opts());
  ExtVector<VertexDist> out(dev);
  IoProbe probe(*dev);
  Ok(bfs.Run(g, 0, &out));
  EXPECT_EQ(out.size(), n);
  return {probe.delta().parallel_ios()};
}

/// A random tree: vertex i > 0 hangs off a random earlier vertex.
Cost MeasureEulerTour(BlockDevice* dev, const Pdm& p, size_t n) {
  ExtVector<Edge> tree(dev);
  {
    Rng rng(n);
    ExtVector<Edge>::Writer w(&tree);
    for (uint64_t i = 1; i < n; ++i) w.Append(Edge{rng.Uniform(i), i});
    Ok(w.Finish());
  }
  EulerTour tour(dev, p.opts());
  ExtVector<TourArc> arcs(dev);
  IoProbe probe(*dev);
  Ok(tour.Run(tree, n, 0, &arcs));
  EXPECT_EQ(arcs.size(), 2 * (n - 1));
  return {probe.delta().parallel_ios()};
}

/// N pushes, then N pops that must come out in order.
Cost MeasurePriorityQueue(BlockDevice* dev, const Pdm& p, size_t n) {
  ExternalPriorityQueue<uint64_t> pq(dev, p.opts());
  Rng rng(n);
  IoProbe probe(*dev);
  for (size_t i = 0; i < n; ++i) Ok(pq.Push(rng.Next()));
  uint64_t prev = 0, x = 0;
  bool ordered = true;
  for (size_t i = 0; i < n; ++i) {
    Ok(pq.Pop(&x));
    ordered = ordered && x >= prev;
    prev = x;
  }
  EXPECT_TRUE(ordered);
  EXPECT_TRUE(pq.empty());
  return {probe.delta().parallel_ios()};
}

/// N inserts, then one flush down to the leaves.
Cost MeasureBufferTree(BlockDevice* dev, const Pdm& p, size_t n) {
  BufferTree<uint64_t, uint64_t> tree(dev, p.opts());
  Rng rng(n);
  IoProbe probe(*dev);
  for (size_t i = 0; i < n; ++i) Ok(tree.Insert(rng.Next(), i));
  Ok(tree.FlushAll());
  return {probe.delta().parallel_ios()};
}

constexpr size_t kQueries = 256;

/// kQueries random point lookups in a tree of N keys; the pool is M.
Cost MeasureBTreeSearch(BlockDevice* dev, const Pdm& p, size_t n) {
  BufferPool pool(dev, p.mem_blocks);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  Ok(tree.Init());
  for (uint64_t i = 0; i < n; ++i) Ok(tree.Insert(i * 2, i));
  Ok(pool.FlushAll());
  Rng rng(n);
  IoProbe probe(*dev);
  uint64_t v;
  for (size_t q = 0; q < kQueries; ++q) Ok(tree.Get(rng.Uniform(n) * 2, &v));
  return {probe.delta().parallel_ios()};
}

/// Four range reports of Z = N/8 keys each from a tree of N keys.
Cost MeasureRangeOutput(BlockDevice* dev, const Pdm& p, size_t n) {
  BufferPool pool(dev, p.mem_blocks);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  Ok(tree.Init());
  for (uint64_t i = 0; i < n; ++i) Ok(tree.Insert(i, i));
  Ok(pool.FlushAll());
  Rng rng(n);
  const uint64_t z = n / 8;
  size_t reported = 0;
  IoProbe probe(*dev);
  for (int q = 0; q < 4; ++q) {
    uint64_t lo = rng.Uniform(n - z);
    Ok(tree.Scan(lo, lo + z - 1, [&](const uint64_t&, const uint64_t&) {
      reported++;
      return true;
    }));
  }
  EXPECT_EQ(reported, 4 * z);
  return {probe.delta().parallel_ios(), static_cast<double>(z)};
}

/// kQueries random Gets in an extendible hash table of N keys.
Cost MeasureHashGet(BlockDevice* dev, const Pdm& p, size_t n) {
  BufferPool pool(dev, p.mem_blocks);
  ExtHashTable<uint64_t, uint64_t> table(&pool);
  Ok(table.Init());
  for (uint64_t i = 0; i < n; ++i) Ok(table.Insert(i, i));
  Ok(pool.FlushAll());
  Rng rng(n);
  IoProbe probe(*dev);
  uint64_t v;
  for (size_t q = 0; q < kQueries; ++q) Ok(table.Get(rng.Uniform(n), &v));
  return {probe.delta().parallel_ios()};
}

/// N/2 short horizontals and N/2 short verticals in a 1000 x 1000 square.
Cost MeasureSegmentIntersection(BlockDevice* dev, const Pdm& p, size_t n) {
  ExtVector<HSegment> hs(dev);
  ExtVector<VSegment> vs(dev);
  {
    Rng rng(n);
    ExtVector<HSegment>::Writer hw(&hs);
    ExtVector<VSegment>::Writer vw(&vs);
    for (size_t i = 0; i < n / 2; ++i) {
      double x = rng.NextDouble() * 1000, y = rng.NextDouble() * 1000;
      hw.Append(HSegment{y, x, x + rng.NextDouble() * 20, i});
      double vx = rng.NextDouble() * 1000, vy = rng.NextDouble() * 1000;
      vw.Append(VSegment{vx, vy, vy + rng.NextDouble() * 20, i});
    }
    Ok(hw.Finish());
    Ok(vw.Finish());
  }
  OrthogonalSegmentIntersection osi(dev, p.opts());
  ExtVector<IntersectionPair> out(dev);
  IoProbe probe(*dev);
  Ok(osi.Run(hs, vs, &out));
  return {probe.delta().parallel_ios(), static_cast<double>(out.size())};
}

/// N/2 intervals and N/2 stabbing points on [0, 1000); each point hits 16
/// intervals on average, so Z = 4N.
Cost MeasureBatchedStabbing(BlockDevice* dev, const Pdm& p, size_t n) {
  ExtVector<Interval> intervals(dev);
  ExtVector<StabQuery> queries(dev);
  {
    Rng rng(n);
    ExtVector<Interval>::Writer iw(&intervals);
    ExtVector<StabQuery>::Writer qw(&queries);
    const double max_len = 64000.0 / static_cast<double>(n);
    for (size_t i = 0; i < n / 2; ++i) {
      double lo = rng.NextDouble() * 1000;
      iw.Append(Interval{lo, lo + rng.NextDouble() * max_len, i});
      qw.Append(StabQuery{rng.NextDouble() * 1000, i});
    }
    Ok(iw.Finish());
    Ok(qw.Finish());
  }
  ExtVector<StabHit> out(dev);
  IoProbe probe(*dev);
  Ok(BatchedStabbingReport(intervals, queries, &out, p.opts()));
  return {probe.delta().parallel_ios(), static_cast<double>(out.size())};
}

/// Fixed-length 32-byte strings whose first 8 bytes come from only 64
/// values, so every string needs a second 8-byte refinement round.
constexpr size_t kStringBytes = 32;

Cost MeasureStringSort(BlockDevice* dev, const Pdm& p, size_t n) {
  StringCorpus corpus(dev);
  Rng rng(n);
  for (size_t i = 0; i < n; ++i) {
    std::string s = "key-";
    s += std::to_string(1000 + rng.Uniform(64));
    while (s.size() < kStringBytes) s.push_back('a' + rng.Uniform(26));
    Ok(corpus.Add(s));
  }
  Ok(corpus.Finalize());
  ExternalStringSort sorter(dev, p.opts());
  ExtVector<uint64_t> ids(dev);
  IoProbe probe(*dev);
  Ok(sorter.Sort(corpus, &ids));
  EXPECT_EQ(ids.size(), n);
  return {probe.delta().parallel_ios(), 0,
          static_cast<double>(sorter.rounds())};
}

/// A text of N random bytes over a 4-letter alphabet.
Cost MeasureSuffixArray(BlockDevice* dev, const Pdm& p, size_t n) {
  ExtVector<uint8_t> text(dev);
  {
    Rng rng(n);
    ExtVector<uint8_t>::Writer w(&text);
    for (size_t i = 0; i < n; ++i) w.Append("acgt"[rng.Uniform(4)]);
    Ok(w.Finish());
  }
  SuffixArrayBuilder builder(dev, p.opts());
  ExtVector<uint64_t> sa(dev);
  IoProbe probe(*dev);
  Ok(builder.Build(text, &sa));
  EXPECT_EQ(sa.size(), n);
  return {probe.delta().parallel_ios(), 0,
          static_cast<double>(builder.rounds())};
}

// ------------------------------------------------------------- bounds

/// Sort(N) for items of `item` bytes.
double Sort(double n, size_t item, const Pdm& p) {
  return SortBound(n, p.b(item), static_cast<double>(p.mem()) / item);
}

/// Search(N) = log_B N for 16-byte key-value pairs, at least one block.
double Search(double n, const Pdm& p) {
  return std::max(1.0, std::log(n) / std::log(p.b(16)));
}

// ------------------------------------------------------------- the table

const Row kRows[] = {
    // Scan(N) = N/DB: one write pass and one read pass, exactly.
    {"Scan", {256, 1024, 4096}, {8, 32}, {1u << 10, 1u << 13, 1u << 16},
     MeasureScan,
     [](double n, const Cost&, const Pdm& p) {
       return 2 * ScanBound(n, p.b(8));
     },
     1, 1, 1},
    // Sort(N) = 2(N/DB)(1 + ceil(log_{M/DB-1}(N/M))): run formation plus
    // merge passes at fan-in k = M/DB - 1 and run length M, exactly. With
    // N <= M (the large blocks) that is one run and no merge pass.
    {"MergeSort", {256, 1024, 4096}, {8, 32}, {1u << 13, 1u << 15, 1u << 17},
     MeasureSort<ExternalSorter<uint64_t>>,
     [](double n, const Cost&, const Pdm& p) {
       const double runs = std::ceil(n * 8 / p.mem());
       return 2 * ScanBound(n, p.b(8)) *
              (1 + MergePasses(runs, p.mem_blocks - 1));
     },
     1, 1, 1},
    // Distribution sort: the same Sort(N), up to a constant.
    {"DistributionSort", {256}, {8, 32}, {1u << 13, 1u << 15, 1u << 17},
     MeasureSort<DistributionSorter<uint64_t>>,
     [](double n, const Cost&, const Pdm& p) { return Sort(n, 8, p); },
     1, 2.75, 1.5},
    // Permute(N) = min(N/D, Sort(N)). Striping makes the D disks one disk
    // of block DB, so the direct term is N for the striped device. The
    // 16-byte block is the regime where direct placement wins.
    {"Permute", {16, 1024}, {16, 64}, {1u << 10, 1u << 12, 1u << 14},
     MeasurePermute,
     [](double n, const Cost&, const Pdm& p) {
       return std::min(n, Sort(n, 8, p));
     },
     1, 6, 2},
    // Transpose with M >= B^2: one read and one write of every block.
    {"Transpose", {64}, {64, 256}, {1u << 12, 1u << 14, 1u << 16},
     MeasureTranspose,
     [](double n, const Cost&, const Pdm& p) {
       return 2 * ScanBound(n, p.b(8));
     },
     1, 2.5, 1.25},
    // FFT(N) = Sort(N), here with N > M in the six-step regime.
    {"Fft", {32}, {128, 256}, {1u << 12, 1u << 14, 1u << 16}, MeasureFft,
     [](double n, const Cost&, const Pdm& p) {
       return Sort(n, sizeof(Complex), p);
     },
     1, 6, 2},
    // List ranking by independent-set contraction: O(Sort(N)).
    {"ListRanking", {256}, {8, 32}, {1u << 11, 1u << 13, 1u << 15},
     MeasureListRanking,
     [](double n, const Cost&, const Pdm& p) {
       return Sort(n, sizeof(ListNode), p);
     },
     1, 20, 2},
    // Sort(V + E) per hook-and-contract round.
    {"ConnectedComponents", {512}, {16, 64}, {1u << 11, 1u << 13, 1u << 15},
     MeasureConnectedComponents,
     [](double n, const Cost& c, const Pdm& p) {
       return c.rounds * Sort(n, sizeof(Edge), p);
     },
     1, 7, 2},
    // MR-BFS: V adjacency-list fetches plus Sort(E) over all levels, with
    // E = 6V arcs.
    {"Bfs", {512}, {16, 64}, {1u << 10, 1u << 12, 1u << 14}, MeasureBfs,
     [](double n, const Cost&, const Pdm& p) {
       return n + Sort(6 * n, sizeof(Edge), p);
     },
     0.5, 1.5, 1.5},
    // Euler tour: O(Sort(N)), mostly the list ranking of its 2(N-1) arcs.
    {"EulerTour", {256}, {8, 32}, {1u << 10, 1u << 12, 1u << 14},
     MeasureEulerTour,
     [](double n, const Cost&, const Pdm& p) {
       return Sort(n, sizeof(TourArc), p);
     },
     1, 50, 2},
    // N pushes + N pops cost O(Sort(N)).
    {"PriorityQueue", {256}, {16, 64}, {1u << 14, 1u << 16, 1u << 18},
     MeasurePriorityQueue,
     [](double n, const Cost&, const Pdm& p) { return Sort(n, 8, p); },
     0.5, 1.5, 2},
    // N inserts at amortized Sort(N)/N I/Os each.
    {"BufferTree", {256}, {8, 32}, {1u << 12, 1u << 14, 1u << 16},
     MeasureBufferTree,
     [](double n, const Cost&, const Pdm& p) { return Sort(n, 16, p); },
     1, 5, 2},
    // Search(N) = log_B N per query.
    {"BTreeSearch", {128}, {4, 16}, {1u << 12, 1u << 14, 1u << 16},
     MeasureBTreeSearch,
     [](double n, const Cost&, const Pdm& p) {
       return kQueries * Search(n, p);
     },
     0.5, 2, 2},
    // Output(Z) = Z/DB + log_B N per range query.
    {"RangeOutput", {128}, {4, 16}, {1u << 12, 1u << 14, 1u << 16},
     MeasureRangeOutput,
     [](double n, const Cost& c, const Pdm& p) {
       return 4 * (c.z / p.b(16) + Search(n, p));
     },
     1, 3, 2},
    // Extendible hashing: one I/O per Get.
    {"HashGet", {512}, {2, 8}, {1u << 12, 1u << 14, 1u << 16}, MeasureHashGet,
     [](double, const Cost&, const Pdm&) { return double{kQueries}; },
     0.5, 1, 1.25},
    // Distribution sweep: Sort(N) + Z/DB, for segment intersection and for
    // batched stabbing reduced to it.
    {"SegmentIntersection", {512}, {16, 64}, {1u << 12, 1u << 14, 1u << 16},
     MeasureSegmentIntersection,
     [](double n, const Cost& c, const Pdm& p) {
       return Sort(n, sizeof(HSegment), p) +
              c.z / p.b(sizeof(IntersectionPair));
     },
     1, 5.5, 2},
    {"BatchedStabbing", {512}, {16, 64}, {1u << 12, 1u << 14, 1u << 16},
     MeasureBatchedStabbing,
     [](double n, const Cost& c, const Pdm& p) {
       return Sort(n, sizeof(HSegment), p) + c.z / p.b(sizeof(StabHit));
     },
     1, 5, 2},
    // Per refinement round: sort N 24-byte (group, key, id) records and
    // scan the corpus.
    {"StringSort", {512}, {16, 64}, {1u << 10, 1u << 12, 1u << 14},
     MeasureStringSort,
     [](double n, const Cost& c, const Pdm& p) {
       return c.rounds *
              (Sort(n, 24, p) + ScanBound(n * kStringBytes, p.b(1)));
     },
     1, 3.5, 2},
    // Prefix doubling: Sort(N) of 24-byte (rank, rank, position) tuples
    // per round.
    {"SuffixArray", {512}, {16, 64}, {1u << 10, 1u << 12, 1u << 14},
     MeasureSuffixArray,
     [](double n, const Cost& c, const Pdm& p) {
       return c.rounds * Sort(n, 24, p);
     },
     1, 4.5, 2},
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

class Table1 : public ::testing::TestWithParam<Row> {};

TEST_P(Table1, MeasuredTracksBound) {
  const Row& row = GetParam();
  ASSERT_GE(row.ns.size(), 3u);
  ASSERT_GE(row.ns.back(), 16 * row.ns.front());
  ASSERT_GE(row.mem_blocks.size(), 2u);
  std::vector<Pdm> machines;
  for (size_t d : {1u, 4u}) {
    for (size_t block : row.blocks) {
      for (size_t mb : row.mem_blocks) machines.push_back(Pdm{d, block, mb});
    }
  }
  std::string table;
  for (const Pdm& p : machines) {
    double lo = 1e300, hi = 0;
    for (size_t n : row.ns) {
      auto dev = MakeDevice(p);
      const Cost c = row.measure(dev.get(), p, n);
      const double bound = row.bound(static_cast<double>(n), c, p);
      const double ratio = static_cast<double>(c.ios) / bound;
      lo = std::min(lo, ratio);
      hi = std::max(hi, ratio);
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  D=%zu B=%-4zu M/DB=%-4zu N=%-7zu I/Os=%-9llu "
                    "bound=%-10.1f ratio=%.3f\n",
                    p.d, p.block, p.mem_blocks, n,
                    static_cast<unsigned long long>(c.ios), bound, ratio);
      table += line;
      EXPECT_GE(ratio, row.lo - 1e-9) << row.name << ": below band\n" << line;
      EXPECT_LE(ratio, row.hi + 1e-9) << row.name << ": above band\n" << line;
    }
    EXPECT_LE(hi / lo, row.flat + 1e-9)
        << row.name << " D=" << p.d << " B=" << p.block
        << " M/DB=" << p.mem_blocks << ": ratio not flat over N\n"
        << table;
  }
  std::printf("%s\n%s", row.name, table.c_str());
}

INSTANTIATE_TEST_SUITE_P(Survey, Table1, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

// ------------------------------------------------------------- pool costs

TEST(ExactCost, ExtVectorRandomAccessChargesOnePerMiss) {
  // With a 1-frame pool, every access to a different block costs exactly
  // one read (plus one write-back if dirty).
  MemoryBlockDevice dev(256);
  BufferPool pool(&dev, 1);
  const size_t kB = 256 / sizeof(uint64_t);
  ExtVector<uint64_t> v(&dev, &pool);
  std::vector<uint64_t> data(kB * 10);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i;
  ASSERT_TRUE(v.AppendAll(data.data(), data.size()).ok());
  IoProbe probe(dev);
  uint64_t x;
  for (size_t blk = 0; blk < 10; ++blk) {
    ASSERT_TRUE(v.Get(blk * kB, &x).ok());  // one block each
  }
  EXPECT_EQ(probe.delta().block_reads, 10u);
  // Re-read a resident block repeatedly: zero additional I/O.
  ASSERT_TRUE(v.Get(0, &x).ok());  // prime the single frame with block 0
  IoProbe probe2(dev);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(v.Get(0, &x).ok());
  EXPECT_EQ(probe2.delta().block_ios(), 0u);
}

TEST(ExactCost, WriterPartialTailReuseCostsOneReadOneWrite) {
  MemoryBlockDevice dev(256);
  ExtVector<uint64_t> v(&dev);
  std::vector<uint64_t> a{1, 2, 3};
  ASSERT_TRUE(v.AppendAll(a.data(), a.size()).ok());
  // Appending to the partial tail must re-read it once and rewrite it.
  IoProbe probe(dev);
  std::vector<uint64_t> b{4, 5};
  ASSERT_TRUE(v.AppendAll(b.data(), b.size()).ok());
  EXPECT_EQ(probe.delta().block_reads, 1u);
  EXPECT_EQ(probe.delta().block_writes, 1u);
  EXPECT_EQ(dev.num_allocated(), 1u);  // still one block
}

}  // namespace
}  // namespace vem
