// Stats-identity tests for prefetch armed across the scan-bound
// algorithm layers: join, group-by, merge sort, distribution sort,
// distribution sweep, BFS, connected components, list ranking, the
// external priority queue, Euler tour, selection, SpMV, time-forward
// processing, suffix array, string sort and dominance counting. Each
// case runs the same workload twice on fresh file devices — the layer
// built from Options at depth 0 vs the same layer at depth K (with or
// without an IoEngine, with or without an adaptive PrefetchGovernor) —
// and demands identical outputs and bit-identical IoStats: overlap is a
// wall-clock property, never a cost-model one, and the governor only
// ever moves depth. In the rows whose Options carry a block size unlike
// the device's, the same equality pins that B comes from the device. A
// striped-device case covers the forwarded uncounted plane on D-disk
// configurations, and FaultyDevice cases check that armed layers
// (including a striped device with a faulty child) still propagate
// device errors as Status.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/relational.h"
#include "geometry/range_counting.h"
#include "geometry/segment_intersection.h"
#include "graph/bfs.h"
#include "graph/connected_components.h"
#include "graph/euler_tour.h"
#include "graph/list_ranking.h"
#include "graph/time_forward.h"
#include "io/faulty_device.h"
#include "io/file_block_device.h"
#include "io/io_engine.h"
#include "io/memory_block_device.h"
#include "io/prefetch_governor.h"
#include "io/striped_device.h"
#include "search/external_pq.h"
#include "sort/distribution_sort.h"
#include "sort/external_sort.h"
#include "sort/selection.h"
#include "sort/spmv.h"
#include "string/string_sort.h"
#include "string/suffix_array.h"
#include "util/options.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 256;
constexpr size_t kMem = 4096;

std::string ScratchPath(const char* name) {
  return std::string("/tmp/vem_prefetch_layers_") + name + ".bin";
}

/// One armed configuration: stream depth K, engine on/off, adaptive
/// governor on/off, and the block size in the layer's Options (0 = the
/// device's).
struct Cfg {
  size_t depth;
  bool engine;
  bool governor;
  size_t opts_block = 0;
};
std::string CfgName(const Cfg& c) {
  std::string name = "K";
  name += std::to_string(c.depth);
  name += c.engine ? "_engine" : "_sync";
  if (c.governor) name += "_gov";
  if (c.opts_block != 0) {
    name += "_optsB";
    name += std::to_string(c.opts_block);
  }
  return name;
}
std::ostream& operator<<(std::ostream& os, const Cfg& c) {
  return os << CfgName(c);
}

PrefetchGovernor::Config SmallGovConfig() {
  PrefetchGovernor::Config cfg;
  cfg.budget_blocks = 64;  // tight: exercises refusals and partial grants
  cfg.min_depth = 2;
  cfg.max_depth = 16;
  cfg.adapt_windows = 2;  // adapt often: exercises grow/shrink mid-run
  return cfg;
}

class PrefetchLayers : public ::testing::TestWithParam<Cfg> {
 protected:
  /// Options for `armed` runs: M = kMem and the config's depth and block
  /// size. The baseline gets M = kMem and depth 0.
  static Options LayerOptions(bool armed) {
    const Cfg& cfg = GetParam();
    Options opts;
    opts.block_size = cfg.opts_block != 0 && armed ? cfg.opts_block : kBlock;
    opts.memory_budget = kMem;
    opts.prefetch_depth = armed ? cfg.depth : 0;
    return opts;
  }

  /// Invoke `run(dev, opts, armed)` twice — sync baseline vs the
  /// parameterized armed config — on fresh file devices and return both
  /// stats deltas. `run` must produce its comparable output via
  /// out-params it captures.
  template <typename Run>
  void RunBothConfigs(const char* tag, Run run, IoStats* sync_cost,
                      IoStats* armed_cost) {
    Cfg cfg = GetParam();
    {
      FileBlockDevice dev(ScratchPath((std::string(tag) + "_sync").c_str()),
                          kBlock);
      ASSERT_TRUE(dev.valid());
      IoProbe probe(dev);
      run(&dev, LayerOptions(false), /*armed=*/false);
      *sync_cost = probe.delta();
    }
    {
      FileBlockDevice dev(ScratchPath((std::string(tag) + "_armed").c_str()),
                          kBlock);
      ASSERT_TRUE(dev.valid());
      IoEngine engine(2);
      PrefetchGovernor governor(SmallGovConfig());
      if (cfg.engine) dev.set_io_engine(&engine);
      if (cfg.governor) dev.set_prefetch_governor(&governor);
      IoProbe probe(dev);
      run(&dev, LayerOptions(true), /*armed=*/true);
      *armed_cost = probe.delta();
      // The depth reached the layer: its streams asked for leases.
      if (cfg.governor) {
        EXPECT_GT(governor.arms_granted() + governor.arms_refused(), 0u)
            << tag;
      }
      dev.set_io_engine(nullptr);
      dev.set_prefetch_governor(nullptr);
    }
  }

  /// RunBothConfigs for a layer whose whole result is the bytes
  /// `layer(dev, opts)` returns: demands a non-empty result, equal
  /// results and bit-identical IoStats.
  template <typename Layer>
  void ExpectIdentity(const char* tag, Layer layer) {
    std::vector<char> out_sync, out_armed;
    IoStats sync_cost, armed_cost;
    RunBothConfigs(
        tag,
        [&](BlockDevice* dev, const Options& opts, bool armed) {
          (armed ? out_armed : out_sync) = layer(dev, opts);
        },
        &sync_cost, &armed_cost);
    EXPECT_FALSE(out_sync.empty());
    EXPECT_TRUE(out_sync == out_armed) << tag;
    EXPECT_TRUE(sync_cost == armed_cost)
        << tag << " sync " << sync_cost.ToString() << " vs armed "
        << armed_cost.ToString();
  }
};

/// The bytes of `v`'s items, for byte-exact output comparison (item
/// types here have no padding).
template <typename T>
std::vector<char> Bytes(const ExtVector<T>& v) {
  std::vector<T> items;
  EXPECT_TRUE(v.ReadAll(&items).ok());
  const char* p = reinterpret_cast<const char*>(items.data());
  return std::vector<char>(p, p + items.size() * sizeof(T));
}

// ------------------------------------------------------------------- join

struct OrderRow {
  uint64_t order_id;
  uint64_t cust;
};
struct CustRow {
  uint64_t cust;
  uint32_t region;
};
struct JoinedRow {
  uint64_t order_id;
  uint64_t cust;
  uint32_t region;
  bool operator==(const JoinedRow&) const = default;
};

TEST_P(PrefetchLayers, SortMergeJoinIdentity) {
  Rng rng(71);
  const size_t kOrders = 6000, kCust = 300;
  std::vector<OrderRow> orders;
  std::vector<CustRow> custs;
  for (size_t i = 0; i < kOrders; ++i) {
    orders.push_back({i, rng.Uniform(kCust * 2)});
  }
  for (uint64_t c = 0; c < kCust; ++c) {
    custs.push_back({c, static_cast<uint32_t>(c % 7)});
  }
  std::vector<JoinedRow> out_sync, out_armed;
  IoStats sync_cost, armed_cost;
  auto run = [&](BlockDevice* dev, const Options& opts, bool armed) {
    ExtVector<OrderRow> ov(dev);
    ExtVector<CustRow> cv(dev);
    ASSERT_TRUE(ov.AppendAll(orders.data(), orders.size()).ok());
    ASSERT_TRUE(cv.AppendAll(custs.data(), custs.size()).ok());
    ExtVector<JoinedRow> out(dev);
    Status s = SortMergeJoin<OrderRow, CustRow, JoinedRow, uint64_t>(
        ov, cv, &out, opts, [](const OrderRow& o) { return o.cust; },
        [](const CustRow& c) { return c.cust; },
        [](const OrderRow& o, const CustRow& c) {
          return JoinedRow{o.order_id, o.cust, c.region};
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(out.ReadAll(armed ? &out_armed : &out_sync).ok());
  };
  RunBothConfigs("join", run, &sync_cost, &armed_cost);
  EXPECT_EQ(out_sync, out_armed);
  EXPECT_FALSE(out_sync.empty());
  EXPECT_TRUE(sync_cost == armed_cost)
      << "sync " << sync_cost.ToString() << " vs armed "
      << armed_cost.ToString();
}

// --------------------------------------------------------------- group-by

struct SaleRow {
  uint32_t region;
  uint32_t amount;
};
struct RegionStat {
  uint32_t region;
  uint64_t total;
  uint64_t count;
  bool operator==(const RegionStat&) const = default;
};

TEST_P(PrefetchLayers, GroupByAggregateIdentity) {
  Rng rng(72);
  std::vector<SaleRow> rows;
  for (size_t i = 0; i < 9000; ++i) {
    rows.push_back({static_cast<uint32_t>(rng.Uniform(40)),
                    static_cast<uint32_t>(rng.Uniform(1000))});
  }
  struct Acc {
    uint64_t sum = 0;
    uint64_t n = 0;
  };
  std::vector<RegionStat> out_sync, out_armed;
  IoStats sync_cost, armed_cost;
  auto run = [&](BlockDevice* dev, const Options& opts, bool armed) {
    ExtVector<SaleRow> rv(dev);
    ASSERT_TRUE(rv.AppendAll(rows.data(), rows.size()).ok());
    ExtVector<RegionStat> out(dev);
    Status s = GroupByAggregate<SaleRow, uint32_t, Acc, RegionStat>(
        rv, &out, opts, [](const SaleRow& r) { return r.region; },
        [](const uint32_t&) { return Acc{}; },
        [](Acc* a, const SaleRow& r) {
          a->sum += r.amount;
          a->n++;
        },
        [](const uint32_t& k, const Acc& a) {
          return RegionStat{k, a.sum, a.n};
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(out.ReadAll(armed ? &out_armed : &out_sync).ok());
  };
  RunBothConfigs("groupby", run, &sync_cost, &armed_cost);
  EXPECT_EQ(out_sync, out_armed);
  EXPECT_EQ(out_sync.size(), 40u);
  EXPECT_TRUE(sync_cost == armed_cost)
      << "sync " << sync_cost.ToString() << " vs armed "
      << armed_cost.ToString();
}

// ------------------------------------------------------------- merge sort

TEST_P(PrefetchLayers, ExternalSortIdentity) {
  Rng rng(70);
  std::vector<uint64_t> data(30000);
  for (auto& v : data) v = rng.Uniform(5000);
  std::vector<uint64_t> want = data;
  std::sort(want.begin(), want.end());

  std::vector<uint64_t> out_sync, out_armed;
  IoStats sync_cost, armed_cost;
  auto run = [&](BlockDevice* dev, const Options& opts, bool armed) {
    ExtVector<uint64_t> input(dev);
    ASSERT_TRUE(input.AppendAll(data.data(), data.size()).ok());
    ExternalSorter<uint64_t> sorter(dev, opts);
    ExtVector<uint64_t> out(dev);
    ASSERT_TRUE(sorter.Sort(input, &out).ok());
    ASSERT_TRUE(out.ReadAll(armed ? &out_armed : &out_sync).ok());
  };
  RunBothConfigs("mergesort", run, &sync_cost, &armed_cost);
  EXPECT_EQ(out_sync, want);
  EXPECT_EQ(out_armed, want);
  EXPECT_TRUE(sync_cost == armed_cost)
      << "sync " << sync_cost.ToString() << " vs armed "
      << armed_cost.ToString();
}

// ------------------------------------------------------ distribution sort

TEST_P(PrefetchLayers, DistributionSortIdentity) {
  Rng rng(73);
  std::vector<uint64_t> data(30000);
  for (auto& v : data) v = rng.Uniform(5000);  // duplicates galore
  std::vector<uint64_t> want = data;
  std::sort(want.begin(), want.end());

  std::vector<uint64_t> out_sync, out_armed;
  IoStats sync_cost, armed_cost;
  auto run = [&](BlockDevice* dev, const Options& opts, bool armed) {
    ExtVector<uint64_t> input(dev);
    ASSERT_TRUE(input.AppendAll(data.data(), data.size()).ok());
    DistributionSorter<uint64_t> sorter(dev, opts);
    ExtVector<uint64_t> out(dev);
    ASSERT_TRUE(sorter.Sort(input, &out).ok());
    ASSERT_TRUE(out.ReadAll(armed ? &out_armed : &out_sync).ok());
  };
  RunBothConfigs("distsort", run, &sync_cost, &armed_cost);
  EXPECT_EQ(out_sync, want);
  EXPECT_EQ(out_armed, want);
  EXPECT_TRUE(sync_cost == armed_cost)
      << "sync " << sync_cost.ToString() << " vs armed "
      << armed_cost.ToString();
}

// ----------------------------------------------------- distribution sweep

TEST_P(PrefetchLayers, SegmentSweepIdentity) {
  Rng rng(74);
  const size_t n = 1200;
  std::vector<HSegment> hs;
  std::vector<VSegment> vs;
  for (size_t i = 0; i < n; ++i) {
    double x = rng.NextDouble() * 100, y = rng.NextDouble() * 100;
    hs.push_back({y, x, x + rng.NextDouble() * 8, i});
    double vx = rng.NextDouble() * 100, vy = rng.NextDouble() * 100;
    vs.push_back({vx, vy, vy + rng.NextDouble() * 8, i});
  }
  std::vector<IntersectionPair> out_sync, out_armed;
  IoStats sync_cost, armed_cost;
  auto run = [&](BlockDevice* dev, const Options& opts, bool armed) {
    ExtVector<HSegment> hv(dev);
    ExtVector<VSegment> vv(dev);
    ASSERT_TRUE(hv.AppendAll(hs.data(), hs.size()).ok());
    ASSERT_TRUE(vv.AppendAll(vs.data(), vs.size()).ok());
    OrthogonalSegmentIntersection osi(dev, opts);
    ExtVector<IntersectionPair> out(dev);
    ASSERT_TRUE(osi.Run(hv, vv, &out).ok());
    std::vector<IntersectionPair>* sink = armed ? &out_armed : &out_sync;
    ASSERT_TRUE(out.ReadAll(sink).ok());
    std::sort(sink->begin(), sink->end());
  };
  RunBothConfigs("sweep", run, &sync_cost, &armed_cost);
  EXPECT_EQ(out_sync, out_armed);
  EXPECT_FALSE(out_sync.empty());
  EXPECT_TRUE(sync_cost == armed_cost)
      << "sync " << sync_cost.ToString() << " vs armed "
      << armed_cost.ToString();
}

// -------------------------------------------------------------------- BFS

TEST_P(PrefetchLayers, ExternalBfsIdentity) {
  const uint64_t v = 1500;
  Rng rng(75);
  std::vector<Edge> edge_list;
  for (uint64_t i = 0; i < v; ++i) edge_list.push_back({i, (i + 1) % v});
  for (size_t i = 0; i < 2 * v; ++i) {
    edge_list.push_back({rng.Uniform(v), rng.Uniform(v)});
  }
  std::vector<VertexDist> out_sync, out_armed;
  IoStats sync_cost, armed_cost;
  auto run = [&](BlockDevice* dev, const Options& opts, bool armed) {
    BufferPool pool(dev, 8);
    ExtVector<Edge> edges(dev);
    ASSERT_TRUE(edges.AppendAll(edge_list.data(), edge_list.size()).ok());
    ExtGraph g(dev, &pool);
    ASSERT_TRUE(g.Build(edges, v, opts, /*symmetrize=*/true).ok());
    ExternalBfs bfs(dev, opts);
    ExtVector<VertexDist> out(dev);
    ASSERT_TRUE(bfs.Run(g, 0, &out).ok());
    std::vector<VertexDist>* sink = armed ? &out_armed : &out_sync;
    ASSERT_TRUE(out.ReadAll(sink).ok());
    ASSERT_TRUE(pool.FlushAll().ok());
  };
  RunBothConfigs("bfs", run, &sync_cost, &armed_cost);
  ASSERT_EQ(out_sync.size(), out_armed.size());
  EXPECT_EQ(out_sync.size(), v);  // the cycle connects everything
  for (size_t i = 0; i < out_sync.size(); ++i) {
    EXPECT_EQ(out_sync[i].v, out_armed[i].v) << i;
    EXPECT_EQ(out_sync[i].dist, out_armed[i].dist) << i;
  }
  EXPECT_TRUE(sync_cost == armed_cost)
      << "sync " << sync_cost.ToString() << " vs armed "
      << armed_cost.ToString();
}

// ----------------------------------------------------- connected components

TEST_P(PrefetchLayers, ConnectedComponentsIdentity) {
  const uint64_t n = 1200;
  Rng rng(76);
  std::vector<Edge> edge_list;
  // Three chains plus random intra-chain chords: 3 components.
  for (uint64_t c = 0; c < 3; ++c) {
    for (uint64_t i = c; i + 3 < n; i += 3) edge_list.push_back({i, i + 3});
  }
  std::vector<VertexLabel> out_sync, out_armed;
  IoStats sync_cost, armed_cost;
  auto run = [&](BlockDevice* dev, const Options& opts, bool armed) {
    ExtVector<Edge> edges(dev);
    ASSERT_TRUE(edges.AppendAll(edge_list.data(), edge_list.size()).ok());
    ConnectedComponents cc(dev, opts);
    ExtVector<VertexLabel> out(dev);
    ASSERT_TRUE(cc.Run(edges, n, &out).ok());
    std::vector<VertexLabel>* sink = armed ? &out_armed : &out_sync;
    ASSERT_TRUE(out.ReadAll(sink).ok());
  };
  RunBothConfigs("cc", run, &sync_cost, &armed_cost);
  ASSERT_EQ(out_sync.size(), out_armed.size());
  for (size_t i = 0; i < out_sync.size(); ++i) {
    EXPECT_EQ(out_sync[i].v, out_armed[i].v) << i;
    EXPECT_EQ(out_sync[i].label, out_armed[i].label) << i;
    EXPECT_EQ(out_armed[i].label, out_armed[i].v % 3) << i;
  }
  EXPECT_TRUE(sync_cost == armed_cost)
      << "sync " << sync_cost.ToString() << " vs armed "
      << armed_cost.ToString();
}

// ------------------------------------------------------------ list ranking

TEST_P(PrefetchLayers, ListRankingIdentity) {
  const uint64_t n = 4000;
  Rng rng(77);
  // A random permutation as one linked list.
  std::vector<uint64_t> perm(n);
  for (uint64_t i = 0; i < n; ++i) perm[i] = i;
  for (uint64_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Uniform(i + 1)]);
  }
  std::vector<ListNode> nodes(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t succ = (i + 1 < n) ? perm[i + 1] : kNoVertex;
    nodes[perm[i]] = ListNode{perm[i], succ, 1};
  }
  std::vector<ListRank> out_sync, out_armed;
  IoStats sync_cost, armed_cost;
  auto run = [&](BlockDevice* dev, const Options& opts, bool armed) {
    ExtVector<ListNode> nv(dev);
    std::vector<ListNode> by_id(n);
    for (uint64_t i = 0; i < n; ++i) by_id[nodes[i].id] = nodes[i];
    ASSERT_TRUE(nv.AppendAll(by_id.data(), by_id.size()).ok());
    ListRanker ranker(dev, opts);
    ExtVector<ListRank> out(dev);
    ASSERT_TRUE(ranker.Rank(nv, &out).ok());
    std::vector<ListRank>* sink = armed ? &out_armed : &out_sync;
    ASSERT_TRUE(out.ReadAll(sink).ok());
  };
  RunBothConfigs("listrank", run, &sync_cost, &armed_cost);
  ASSERT_EQ(out_sync.size(), out_armed.size());
  EXPECT_EQ(out_sync.size(), n);
  for (size_t i = 0; i < out_sync.size(); ++i) {
    EXPECT_EQ(out_sync[i].id, out_armed[i].id) << i;
    EXPECT_EQ(out_sync[i].rank, out_armed[i].rank) << i;
  }
  // Spot-check correctness: head has rank n, tail rank 1.
  EXPECT_EQ(out_sync[perm[0]].rank, n);
  EXPECT_EQ(out_sync[perm[n - 1]].rank, 1u);
  EXPECT_TRUE(sync_cost == armed_cost)
      << "sync " << sync_cost.ToString() << " vs armed "
      << armed_cost.ToString();
}

// -------------------------------------------------- external priority queue

TEST_P(PrefetchLayers, ExternalPqIdentity) {
  Rng rng(78);
  std::vector<uint64_t> data(25000);
  for (auto& v : data) v = rng.Next() % 100000;
  std::vector<uint64_t> want = data;
  std::sort(want.begin(), want.end());

  std::vector<uint64_t> out_sync, out_armed;
  size_t spills_sync = 0, spills_armed = 0;
  IoStats sync_cost, armed_cost;
  auto run = [&](BlockDevice* dev, Options opts, bool armed) {
    opts.memory_budget = kMem / 2;
    ExternalPriorityQueue<uint64_t> pq(dev, opts);
    for (uint64_t v : data) ASSERT_TRUE(pq.Push(v).ok());
    std::vector<uint64_t>* sink = armed ? &out_armed : &out_sync;
    sink->reserve(data.size());
    uint64_t v;
    while (!pq.empty()) {
      ASSERT_TRUE(pq.Pop(&v).ok());
      sink->push_back(v);
    }
    (armed ? spills_armed : spills_sync) = pq.spills();
  };
  RunBothConfigs("pq", run, &sync_cost, &armed_cost);
  EXPECT_EQ(out_sync, want);
  EXPECT_EQ(out_armed, want);
  EXPECT_GT(spills_sync, 0u);  // the workload actually went external
  EXPECT_EQ(spills_sync, spills_armed);
  EXPECT_TRUE(sync_cost == armed_cost)
      << "sync " << sync_cost.ToString() << " vs armed "
      << armed_cost.ToString();
}

// ------------------------------------------ Euler tour, selection, ...

TEST_P(PrefetchLayers, EulerTourIdentity) {
  Rng rng(80);
  const uint64_t n = 3000;
  std::vector<Edge> edges;
  for (uint64_t v = 1; v < n; ++v) edges.push_back({rng.Uniform(v), v});
  ExpectIdentity("euler", [&](BlockDevice* dev, const Options& opts) {
    ExtVector<Edge> tree(dev);
    EXPECT_TRUE(tree.AppendAll(edges.data(), edges.size()).ok());
    EulerTour tour(dev, opts);
    ExtVector<TourArc> arcs(dev);
    ExtVector<Preorder> pre(dev);
    EXPECT_TRUE(tour.Run(tree, n, 0, &arcs, &pre).ok());
    std::vector<char> out = Bytes(arcs), pre_bytes = Bytes(pre);
    out.insert(out.end(), pre_bytes.begin(), pre_bytes.end());
    return out;
  });
}

TEST_P(PrefetchLayers, SelectionIdentity) {
  Rng rng(81);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Uniform(1000000);
  ExpectIdentity("select", [&](BlockDevice* dev, const Options& opts) {
    ExtVector<uint64_t> input(dev);
    EXPECT_TRUE(input.AppendAll(data.data(), data.size()).ok());
    ExternalSelector<uint64_t> sel(dev, opts);
    uint64_t v = 0;
    EXPECT_TRUE(sel.Select(input, data.size() / 3, &v).ok());
    EXPECT_GT(sel.rounds(), 1u);  // at least one external partition
    return std::vector<char>(reinterpret_cast<char*>(&v),
                             reinterpret_cast<char*>(&v + 1));
  });
}

TEST_P(PrefetchLayers, SparseMatVecIdentity) {
  Rng rng(82);
  const uint64_t kRows = 700, kCols = 500;
  std::vector<CooEntry> entries;
  for (size_t i = 0; i < 6000; ++i) {
    entries.push_back({rng.Uniform(kRows), rng.Uniform(kCols),
                       rng.NextDouble()});
  }
  std::vector<double> xv(kCols);
  for (auto& x : xv) x = rng.NextDouble();
  ExpectIdentity("spmv", [&](BlockDevice* dev, const Options& opts) {
    ExtVector<CooEntry> a(dev);
    ExtVector<double> x(dev), y(dev);
    EXPECT_TRUE(a.AppendAll(entries.data(), entries.size()).ok());
    EXPECT_TRUE(x.AppendAll(xv.data(), xv.size()).ok());
    EXPECT_TRUE(SparseMatVec(dev, opts).Multiply(a, x, kRows, &y).ok());
    return Bytes(y);
  });
}

TEST_P(PrefetchLayers, TimeForwardIdentity) {
  Rng rng(83);
  const uint64_t n = 3000;
  std::vector<Edge> edges;
  for (uint64_t v = 1; v < n; ++v) {
    for (size_t i = 0; i < 3; ++i) edges.push_back({rng.Uniform(v), v});
  }
  using Tfp = TimeForwardProcessor<uint64_t>;
  auto longest = [](uint64_t, const std::vector<uint64_t>& in) {
    uint64_t best = 0;
    for (uint64_t d : in) best = std::max(best, d + 1);
    return best;
  };
  ExpectIdentity("tfp", [&](BlockDevice* dev, const Options& opts) {
    ExtVector<Edge> ev(dev);
    EXPECT_TRUE(ev.AppendAll(edges.data(), edges.size()).ok());
    ExtVector<Tfp::VertexValue> out(dev);
    EXPECT_TRUE(Tfp(dev, opts).Run(ev, n, longest, &out).ok());
    return Bytes(out);
  });
}

TEST_P(PrefetchLayers, SuffixArrayIdentity) {
  Rng rng(84);
  std::vector<uint8_t> text(6000);
  for (auto& c : text) c = static_cast<uint8_t>('a' + rng.Uniform(4));
  ExpectIdentity("sa", [&](BlockDevice* dev, const Options& opts) {
    ExtVector<uint8_t> tv(dev);
    EXPECT_TRUE(tv.AppendAll(text.data(), text.size()).ok());
    ExtVector<uint64_t> sa(dev);
    EXPECT_TRUE(SuffixArrayBuilder(dev, opts).Build(tv, &sa).ok());
    return Bytes(sa);
  });
}

TEST_P(PrefetchLayers, StringSortIdentity) {
  Rng rng(85);
  std::vector<std::string> strings(1500);
  for (auto& str : strings) {
    str.resize(1 + rng.Uniform(20));
    for (auto& c : str) c = static_cast<char>('a' + rng.Uniform(3));
  }
  ExpectIdentity("strsort", [&](BlockDevice* dev, const Options& opts) {
    StringCorpus corpus(dev);
    for (const auto& str : strings) EXPECT_TRUE(corpus.Add(str).ok());
    EXPECT_TRUE(corpus.Finalize().ok());
    ExtVector<uint64_t> ids(dev);
    EXPECT_TRUE(ExternalStringSort(dev, opts).Sort(corpus, &ids).ok());
    return Bytes(ids);
  });
}

TEST_P(PrefetchLayers, DominanceCountIdentity) {
  Rng rng(86);
  std::vector<Point2> points(3000);
  for (auto& pt : points) pt = {rng.NextDouble(), rng.NextDouble()};
  std::vector<DomQuery> queries;
  for (uint64_t i = 0; i < 1500; ++i) {
    queries.push_back({rng.NextDouble(), rng.NextDouble(), i, 0});
  }
  ExpectIdentity("dominance", [&](BlockDevice* dev, const Options& opts) {
    ExtVector<Point2> pv(dev);
    ExtVector<DomQuery> qv(dev);
    EXPECT_TRUE(pv.AppendAll(points.data(), points.size()).ok());
    EXPECT_TRUE(qv.AppendAll(queries.data(), queries.size()).ok());
    ExtVector<DomCount> out(dev);
    EXPECT_TRUE(DominanceCounter(dev, opts).Run(pv, qv, &out).ok());
    return Bytes(out);
  });
}

// -------------------------------------------------- armed empty-input edge

TEST_P(PrefetchLayers, EmptyInputsStayWellBehaved) {
  Cfg cfg = GetParam();
  FileBlockDevice dev(ScratchPath("empty"), kBlock);
  ASSERT_TRUE(dev.valid());
  IoEngine engine(2);
  if (cfg.engine) dev.set_io_engine(&engine);

  const Options opts = LayerOptions(/*armed=*/true);
  ExtVector<uint64_t> input(&dev);
  DistributionSorter<uint64_t> sorter(&dev, opts);
  ExtVector<uint64_t> out(&dev);
  ASSERT_TRUE(sorter.Sort(input, &out).ok());
  EXPECT_EQ(out.size(), 0u);

  ExtVector<OrderRow> ov(&dev);
  ExtVector<CustRow> cv(&dev);
  ExtVector<JoinedRow> jout(&dev);
  Status s = SortMergeJoin<OrderRow, CustRow, JoinedRow, uint64_t>(
      ov, cv, &jout, opts, [](const OrderRow& o) { return o.cust; },
      [](const CustRow& c) { return c.cust; },
      [](const OrderRow& o, const CustRow& c) {
        return JoinedRow{o.order_id, o.cust, c.region};
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(jout.size(), 0u);
  dev.set_io_engine(nullptr);
}

// ----------------------------------------------------- striped device

/// Build a D=4 striped device over fresh file-backed children. With the
/// forwarded uncounted plane, armed streams overlap on the D-disk
/// configuration instead of silently falling back to synchronous — and
/// parent AND per-child stats must stay bit-identical to the sync run.
std::unique_ptr<StripedDevice> MakeStripedFiles(const char* tag) {
  std::vector<std::unique_ptr<BlockDevice>> disks;
  for (int d = 0; d < 4; ++d) {
    auto child = std::make_unique<FileBlockDevice>(
        ScratchPath((std::string(tag) + "_d" + std::to_string(d)).c_str()),
        kBlock);
    if (!child->valid()) return nullptr;
    disks.push_back(std::move(child));
  }
  return std::make_unique<StripedDevice>(std::move(disks));
}

TEST_P(PrefetchLayers, StripedDeviceIdentity) {
  Cfg cfg = GetParam();
  Rng rng(79);
  std::vector<uint64_t> data(30000);
  for (auto& v : data) v = rng.Uniform(5000);
  std::vector<uint64_t> want = data;
  std::sort(want.begin(), want.end());

  std::vector<uint64_t> out_sync, out_armed;
  IoStats sync_cost, armed_cost, sync_disk0, armed_disk0;
  auto run = [&](StripedDevice* dev, bool armed) {
    ASSERT_TRUE(dev->SupportsUncounted());
    ExtVector<uint64_t> input(dev);
    ASSERT_TRUE(input.AppendAll(data.data(), data.size()).ok());
    Options opts = LayerOptions(armed);
    opts.memory_budget = 4 * kMem;
    DistributionSorter<uint64_t> sorter(dev, opts);
    ExtVector<uint64_t> out(dev);
    ASSERT_TRUE(sorter.Sort(input, &out).ok());
    ASSERT_TRUE(out.ReadAll(armed ? &out_armed : &out_sync).ok());
  };
  {
    auto dev = MakeStripedFiles("striped_sync");
    ASSERT_NE(dev, nullptr);
    ASSERT_TRUE(dev->valid());
    IoProbe probe(*dev);
    run(dev.get(), /*armed=*/false);
    sync_cost = probe.delta();
    sync_disk0 = dev->disk_stats(0);
  }
  {
    auto dev = MakeStripedFiles("striped_armed");
    ASSERT_NE(dev, nullptr);
    ASSERT_TRUE(dev->valid());
    IoEngine engine(2);
    PrefetchGovernor governor(SmallGovConfig());
    if (cfg.engine) dev->set_io_engine(&engine);
    if (cfg.governor) dev->set_prefetch_governor(&governor);
    IoProbe probe(*dev);
    run(dev.get(), /*armed=*/true);
    armed_cost = probe.delta();
    armed_disk0 = dev->disk_stats(0);
    dev->set_io_engine(nullptr);
    dev->set_prefetch_governor(nullptr);
  }
  EXPECT_EQ(out_sync, want);
  EXPECT_EQ(out_armed, want);
  EXPECT_TRUE(sync_cost == armed_cost)
      << "sync " << sync_cost.ToString() << " vs armed "
      << armed_cost.ToString();
  // Deferred accounting must reach the children too: disk 0 saw the
  // same traffic in both runs, and one parent parallel step moved D=4
  // physical blocks.
  EXPECT_TRUE(sync_disk0 == armed_disk0)
      << "disk0 sync " << sync_disk0.ToString() << " vs armed "
      << armed_disk0.ToString();
  EXPECT_EQ(armed_cost.block_reads, 4 * armed_cost.parallel_reads);
  EXPECT_EQ(armed_cost.block_writes, 4 * armed_cost.parallel_writes);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PrefetchLayers,
    ::testing::Values(Cfg{2, false, false}, Cfg{4, true, false},
                      Cfg{16, true, false}, Cfg{4, false, true},
                      Cfg{16, true, true},
                      Cfg{4, true, false, /*opts_block=*/kBlock / 4}),
    [](const ::testing::TestParamInfo<Cfg>& info) {
      return CfgName(info.param);
    });

// --------------------------------------------------- error propagation

// Armed layers must surface injected IOErrors as Status — no crash, no
// silent truncation — whether the fault fires on the counted plane or
// inside a speculative window fill (FaultyBlockDevice forwards the
// uncounted plane of its inner device with the same injection schedule).
TEST(PrefetchLayersFaults, DistributionSortPropagatesReadError) {
  MemoryBlockDevice inner(kBlock);
  Rng rng(80);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Next();
  FaultyBlockDevice dev(&inner, /*fail_read_at=*/50);
  DistributionSorter<uint64_t> sorter(
      &dev, Options{.memory_budget = kMem, .prefetch_depth = 8});
  ExtVector<uint64_t> input(&dev);
  ASSERT_TRUE(input.AppendAll(data.data(), data.size()).ok());
  ExtVector<uint64_t> out(&dev);
  Status s = sorter.Sort(input, &out);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(PrefetchLayersFaults, JoinPropagatesWriteError) {
  MemoryBlockDevice inner(kBlock);
  // Loading the two tables costs ~320 writes; fail the 400th so the
  // injection fires inside the join's sort phase, after a clean load.
  FaultyBlockDevice dev(&inner, FaultyBlockDevice::kNever,
                        /*fail_write_at=*/400);
  Rng rng(81);
  std::vector<OrderRow> orders;
  for (size_t i = 0; i < 5000; ++i) orders.push_back({i, rng.Uniform(100)});
  std::vector<CustRow> custs;
  for (uint64_t c = 0; c < 100; ++c) {
    custs.push_back({c, static_cast<uint32_t>(c)});
  }
  ExtVector<OrderRow> ov(&dev);
  ExtVector<CustRow> cv(&dev);
  ExtVector<JoinedRow> out(&dev);
  ASSERT_TRUE(ov.AppendAll(orders.data(), orders.size()).ok());
  ASSERT_TRUE(cv.AppendAll(custs.data(), custs.size()).ok());
  Status s = SortMergeJoin<OrderRow, CustRow, JoinedRow, uint64_t>(
      ov, cv, &out, Options{.memory_budget = kMem, .prefetch_depth = 8},
      [](const OrderRow& o) { return o.cust; },
      [](const CustRow& c) { return c.cust; },
      [](const OrderRow& o, const CustRow& c) {
        return JoinedRow{o.order_id, o.cust, c.region};
      });
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(PrefetchLayersFaults, ExternalPqPropagatesReadError) {
  MemoryBlockDevice inner(kBlock);
  FaultyBlockDevice dev(&inner, /*fail_read_at=*/20);
  ExternalPriorityQueue<uint64_t> pq(
      &dev, Options{.memory_budget = 1024, .prefetch_depth = 4});
  Rng rng(82);
  Status s = Status::OK();
  for (size_t i = 0; i < 20000 && s.ok(); ++i) s = pq.Push(rng.Next());
  uint64_t v;
  while (s.ok() && !pq.empty()) s = pq.Pop(&v);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

// A striped device with one faulty child: the injected error must travel
// child -> striped uncounted plane -> armed stream -> Status, for both
// directions.
TEST(PrefetchLayersFaults, StripedFaultyChildPropagatesReadError) {
  MemoryBlockDevice faulty_inner(kBlock);
  std::vector<std::unique_ptr<BlockDevice>> disks;
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  disks.push_back(std::make_unique<FaultyBlockDevice>(&faulty_inner,
                                                      /*fail_read_at=*/30));
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  StripedDevice dev(std::move(disks));
  ASSERT_TRUE(dev.valid());
  ASSERT_TRUE(dev.SupportsUncounted());

  Rng rng(83);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Next();
  ExtVector<uint64_t> vec(&dev);
  ASSERT_TRUE(vec.AppendAll(data.data(), data.size(), /*depth=*/8).ok());
  std::vector<uint64_t> out;
  Status s = vec.ReadAll(&out, /*depth=*/8);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(PrefetchLayersFaults, StripedFaultyChildPropagatesWriteError) {
  MemoryBlockDevice faulty_inner(kBlock);
  std::vector<std::unique_ptr<BlockDevice>> disks;
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  disks.push_back(std::make_unique<FaultyBlockDevice>(
      &faulty_inner, FaultyBlockDevice::kNever, /*fail_write_at=*/40));
  StripedDevice dev(std::move(disks));
  ASSERT_TRUE(dev.valid());

  Rng rng(84);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Next();
  ExtVector<uint64_t> vec(&dev);
  Status s = vec.AppendAll(data.data(), data.size(), /*depth=*/8);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

}  // namespace
}  // namespace vem
