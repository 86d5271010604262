// Robustness & integration tests: failure injection across modules,
// Reader::Seek, algorithms on striped devices, time-forward processing,
// rectangle counting.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "core/ext_vector.h"
#include "geometry/range_counting.h"
#include "graph/time_forward.h"
#include "io/faulty_device.h"
#include "io/memory_block_device.h"
#include "io/striped_device.h"
#include "search/bplus_tree.h"
#include "search/buffer_tree.h"
#include "sort/external_sort.h"
#include "util/random.h"

namespace vem {
namespace {

/// Options with internal memory M = `bytes`, everything else default.
Options Opts(size_t bytes) { return Options{.memory_budget = bytes}; }

// ------------------------------------------------------------ fault injection

// Sweep the fault position over the whole I/O schedule of an external
// sort: every injected fault must surface as a non-OK Status, never a
// crash or a silently wrong result.
TEST(FaultInjection, ExternalSortPropagatesEveryReadFault) {
  // First, count the fault-free I/O schedule.
  uint64_t total_reads;
  {
    MemoryBlockDevice inner(256);
    FaultyBlockDevice dev(&inner);
    ExtVector<uint64_t> input(&dev);
    Rng rng(1);
    ExtVector<uint64_t>::Writer w(&input);
    for (int i = 0; i < 3000; ++i) ASSERT_TRUE(w.Append(rng.Next()));
    ASSERT_TRUE(w.Finish().ok());
    ExtVector<uint64_t> out(&dev);
    ASSERT_TRUE(ExternalSort(input, &out, Opts(1024)).ok());
    total_reads = dev.reads_seen();
  }
  ASSERT_GT(total_reads, 50u);
  // Inject at a spread of positions.
  // Loading the input performs no reads (write-only), so every read
  // position in [1, total_reads] lands inside the sort itself.
  for (uint64_t pos : {uint64_t{1}, total_reads / 4, total_reads / 2,
                       total_reads}) {
    MemoryBlockDevice inner(256);
    FaultyBlockDevice dev(&inner, /*fail_read_at=*/pos);
    ExtVector<uint64_t> input(&dev);
    Rng rng(1);
    ExtVector<uint64_t>::Writer w(&input);
    for (int i = 0; i < 3000; ++i) ASSERT_TRUE(w.Append(rng.Next()));
    ASSERT_TRUE(w.Finish().ok());
    ExtVector<uint64_t> out(&dev);
    Status s = ExternalSort(input, &out, Opts(1024));
    // Loading consumed no reads, so the fault hits during the sort.
    EXPECT_TRUE(s.IsIOError()) << "pos=" << pos << " got " << s.ToString();
  }
}

TEST(FaultInjection, ExternalSortPropagatesWriteFaults) {
  for (uint64_t pos : {uint64_t{1}, uint64_t{40}, uint64_t{77}}) {
    MemoryBlockDevice inner(256);
    FaultyBlockDevice dev(&inner, FaultyBlockDevice::kNever, pos);
    ExtVector<uint64_t> input(&dev);
    Rng rng(2);
    ExtVector<uint64_t>::Writer w(&input);
    bool load_failed = false;
    for (int i = 0; i < 3000; ++i) {
      if (!w.Append(rng.Next())) {
        load_failed = true;
        break;
      }
    }
    Status load = w.Finish();
    if (load_failed || !load.ok()) {
      EXPECT_TRUE(load.IsIOError());
      continue;  // fault hit during load: also correctly reported
    }
    ExtVector<uint64_t> out(&dev);
    Status s = ExternalSort(input, &out, Opts(1024));
    EXPECT_TRUE(s.IsIOError()) << "pos=" << pos;
  }
}

TEST(FaultInjection, BPlusTreeSurfacesPinFaults) {
  MemoryBlockDevice inner(256);
  FaultyBlockDevice dev(&inner, /*fail_read_at=*/50);
  BufferPool pool(&dev, 4);
  BPlusTree<uint64_t, uint64_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  Status first_error;
  for (uint64_t i = 0; i < 5000; ++i) {
    Status s = tree.Insert(i * 7919 % 5000, i);
    if (!s.ok()) {
      first_error = s;
      break;
    }
  }
  EXPECT_TRUE(first_error.IsIOError());
}

TEST(FaultInjection, BufferTreeSurfacesFlushFaults) {
  MemoryBlockDevice inner(256);
  FaultyBlockDevice dev(&inner, /*fail_read_at=*/30);
  BufferTree<uint64_t, uint64_t> tree(&dev, Opts(2048));
  Status first_error;
  for (uint64_t i = 0; i < 50000 && first_error.ok(); ++i) {
    first_error = tree.Insert(i, i);
  }
  if (first_error.ok()) first_error = tree.FlushAll();
  EXPECT_TRUE(first_error.IsIOError());
}

// ------------------------------------------------------------- Reader::Seek

TEST(ReaderSeek, ForwardBackwardAndWithinBlock) {
  MemoryBlockDevice dev(64);  // 8 u64 per block
  ExtVector<uint64_t> v(&dev);
  std::vector<uint64_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_TRUE(v.AppendAll(data.data(), data.size()).ok());

  ExtVector<uint64_t>::Reader r(&v);
  uint64_t x;
  ASSERT_TRUE(r.Next(&x));
  EXPECT_EQ(x, 0u);
  r.Seek(50);
  ASSERT_TRUE(r.Next(&x));
  EXPECT_EQ(x, 50u);
  r.Seek(3);  // backward
  ASSERT_TRUE(r.Next(&x));
  EXPECT_EQ(x, 3u);
  // Seek within the same block must not re-read.
  IoProbe probe(dev);
  r.Seek(1);
  ASSERT_TRUE(r.Next(&x));
  EXPECT_EQ(x, 1u);
  EXPECT_EQ(probe.delta().block_reads, 0u);
  r.Seek(1000);  // past the end
  EXPECT_FALSE(r.Next(&x));
  EXPECT_TRUE(r.status().ok());
}

TEST(ReaderSeek, SparseForwardScanReadsOnlyTouchedBlocks) {
  MemoryBlockDevice dev(64);
  const size_t kB = 8, kN = 800;
  ExtVector<uint64_t> v(&dev);
  std::vector<uint64_t> data(kN, 7);
  ASSERT_TRUE(v.AppendAll(data.data(), data.size()).ok());
  ExtVector<uint64_t>::Reader r(&v);
  IoProbe probe(dev);
  uint64_t x;
  for (size_t i = 0; i < kN; i += 10 * kB) {  // every 10th block
    r.Seek(i);
    ASSERT_TRUE(r.Next(&x));
  }
  EXPECT_EQ(probe.delta().block_reads, kN / (10 * kB));
}

// ------------------------------------------ algorithms on a striped device

TEST(StripedIntegration, SortAndBTreeOnStripedDevice) {
  StripedDevice dev(4, 128);  // logical block 512 bytes over 4 disks
  ExtVector<uint64_t> input(&dev);
  Rng rng(3);
  std::vector<uint64_t> ref;
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (int i = 0; i < 20000; ++i) {
      uint64_t v = rng.Next();
      ref.push_back(v);
      ASSERT_TRUE(w.Append(v));
    }
    ASSERT_TRUE(w.Finish().ok());
  }
  std::sort(ref.begin(), ref.end());
  ExtVector<uint64_t> out(&dev);
  ASSERT_TRUE(ExternalSort(input, &out, Opts(4096)).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  EXPECT_EQ(got, ref);
  // Parallel I/O steps must be 1/4 of physical transfers.
  EXPECT_EQ(dev.stats().block_ios(), 4 * dev.stats().parallel_ios());

  BufferPool pool(&dev, 8);
  BPlusTree<uint64_t, uint32_t> tree(&pool);
  ASSERT_TRUE(tree.Init().ok());
  for (uint32_t i = 0; i < 1000; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  uint32_t val;
  ASSERT_TRUE(tree.Get(567, &val).ok());
  EXPECT_EQ(val, 567u);
}

// -------------------------------------------------- time-forward processing

TEST(TimeForward, DagLongestPath) {
  MemoryBlockDevice dev(256);
  // Random DAG on 5000 vertices, edges (u, v) with u < v.
  const uint64_t n = 5000;
  Rng rng(4);
  std::vector<Edge> e;
  for (uint64_t v = 1; v < n; ++v) {
    size_t indeg = 1 + rng.Uniform(3);
    for (size_t i = 0; i < indeg; ++i) e.push_back({rng.Uniform(v), v});
  }
  // Reference longest path (in-memory DP).
  std::vector<uint64_t> ref(n, 0);
  {
    std::vector<std::vector<uint64_t>> in(n);
    for (const Edge& ed : e) in[ed.v].push_back(ed.u);
    for (uint64_t v = 0; v < n; ++v) {
      for (uint64_t u : in[v]) ref[v] = std::max(ref[v], ref[u] + 1);
    }
  }
  ExtVector<Edge> edges(&dev);
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  TimeForwardProcessor<uint64_t> tfp(&dev, Opts(2048));
  ExtVector<TimeForwardProcessor<uint64_t>::VertexValue> out(&dev);
  ASSERT_TRUE(tfp.Run(edges, n,
                      [](uint64_t, const std::vector<uint64_t>& in) {
                        uint64_t best = 0;
                        for (uint64_t x : in) best = std::max(best, x + 1);
                        return best;
                      },
                      &out)
                  .ok());
  std::vector<TimeForwardProcessor<uint64_t>::VertexValue> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), n);
  for (uint64_t v = 0; v < n; ++v) {
    ASSERT_EQ(got[v].v, v);
    ASSERT_EQ(got[v].value, ref[v]) << "vertex " << v;
  }
}

TEST(TimeForward, CircuitEvaluation) {
  MemoryBlockDevice dev(256);
  // A chain of alternating NAND gates fed by constants:
  //   v0 = 1, v1 = 0, v_k = NAND(v_{k-2}, v_{k-1}).
  const uint64_t n = 1000;
  std::vector<Edge> e;
  for (uint64_t v = 2; v < n; ++v) {
    e.push_back({v - 2, v});
    e.push_back({v - 1, v});
  }
  std::vector<uint8_t> ref(n);
  ref[0] = 1;
  ref[1] = 0;
  for (uint64_t v = 2; v < n; ++v) ref[v] = !(ref[v - 2] && ref[v - 1]);
  ExtVector<Edge> edges(&dev);
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  TimeForwardProcessor<uint8_t> tfp(&dev, Opts(1024));
  ExtVector<TimeForwardProcessor<uint8_t>::VertexValue> out(&dev);
  ASSERT_TRUE(tfp.Run(edges, n,
                      [](uint64_t v, const std::vector<uint8_t>& in) {
                        if (v == 0) return uint8_t{1};
                        if (v == 1) return uint8_t{0};
                        uint8_t acc = 1;
                        for (uint8_t x : in) acc = acc && x;
                        return static_cast<uint8_t>(!acc);
                      },
                      &out)
                  .ok());
  std::vector<TimeForwardProcessor<uint8_t>::VertexValue> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  for (uint64_t v = 0; v < n; ++v) ASSERT_EQ(got[v].value, ref[v]) << v;
}

TEST(TimeForward, RejectsNonTopologicalEdges) {
  MemoryBlockDevice dev(256);
  ExtVector<Edge> edges(&dev);
  std::vector<Edge> e = {{0, 1}, {2, 1}};  // 2 -> 1 goes backward
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  TimeForwardProcessor<uint64_t> tfp(&dev, Opts(1024));
  ExtVector<TimeForwardProcessor<uint64_t>::VertexValue> out(&dev);
  Status s = tfp.Run(edges, 3,
                     [](uint64_t, const std::vector<uint64_t>&) {
                       return uint64_t{0};
                     },
                     &out);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// ------------------------------------------------------- rectangle counting

TEST(RectangleCount, MatchesBruteForce) {
  MemoryBlockDevice dev(256);
  Rng rng(5);
  std::vector<Point2> ps;
  std::vector<RectQuery> qs;
  for (size_t i = 0; i < 4000; ++i) {
    ps.push_back({rng.NextDouble() * 100, rng.NextDouble() * 100});
  }
  for (size_t i = 0; i < 500; ++i) {
    double x1 = rng.NextDouble() * 90, y1 = rng.NextDouble() * 90;
    qs.push_back({x1, x1 + rng.NextDouble() * 10, y1,
                  y1 + rng.NextDouble() * 10, i});
  }
  ExtVector<Point2> pv(&dev);
  ExtVector<RectQuery> qv(&dev);
  ASSERT_TRUE(pv.AppendAll(ps.data(), ps.size()).ok());
  ASSERT_TRUE(qv.AppendAll(qs.data(), qs.size()).ok());
  ExtVector<RectCount> out(&dev);
  ASSERT_TRUE(BatchedRectangleCount(pv, qv, &out, Opts(4096)).ok());
  std::vector<RectCount> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), qs.size());
  std::map<uint64_t, uint64_t> by_id;
  for (auto& rc : got) by_id[rc.id] = rc.count;
  for (const auto& q : qs) {
    uint64_t expect = 0;
    for (const auto& p : ps) {
      if (q.x1 <= p.x && p.x <= q.x2 && q.y1 <= p.y && p.y <= q.y2) expect++;
    }
    ASSERT_EQ(by_id[q.id], expect) << "rect " << q.id;
  }
}

TEST(RectangleCount, BoundaryPointsInclusive) {
  MemoryBlockDevice dev(256);
  std::vector<Point2> ps = {{1, 1}, {1, 5}, {5, 1}, {5, 5}, {3, 3}};
  std::vector<RectQuery> qs = {{1, 5, 1, 5, 0},   // all corners + center
                               {1, 1, 1, 1, 1},   // degenerate point rect
                               {2, 4, 2, 4, 2}};  // center only
  ExtVector<Point2> pv(&dev);
  ExtVector<RectQuery> qv(&dev);
  ASSERT_TRUE(pv.AppendAll(ps.data(), ps.size()).ok());
  ASSERT_TRUE(qv.AppendAll(qs.data(), qs.size()).ok());
  ExtVector<RectCount> out(&dev);
  ASSERT_TRUE(BatchedRectangleCount(pv, qv, &out, Opts(4096)).ok());
  std::vector<RectCount> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  std::map<uint64_t, uint64_t> by_id;
  for (auto& rc : got) by_id[rc.id] = rc.count;
  EXPECT_EQ(by_id[0], 5u);
  EXPECT_EQ(by_id[1], 1u);
  EXPECT_EQ(by_id[2], 1u);
}

}  // namespace
}  // namespace vem
