// Tests for external graph algorithms: list ranking, Euler tour,
// connected components, BFS.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <queue>
#include <set>
#include <vector>

#include "graph/bfs.h"
#include "graph/connected_components.h"
#include "graph/euler_tour.h"
#include "graph/graph.h"
#include "graph/list_ranking.h"
#include "io/memory_block_device.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 256;
constexpr size_t kMem = 2048;
const Options kOpts{.memory_budget = kMem};

// Build a random-order list over ids 0..n-1 whose logical order is a
// random permutation. Returns (nodes appended in id order, head id,
// expected rank per id).
struct ListFixture {
  std::vector<ListNode> nodes;
  uint64_t head;
  std::vector<uint64_t> expected_rank;  // by id
};

ListFixture MakeRandomList(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  ListFixture f;
  f.nodes.resize(n);
  f.expected_rank.resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t id = order[i];
    uint64_t succ = (i + 1 < n) ? order[i + 1] : kNoVertex;
    f.nodes[id] = ListNode{id, succ, 1};
    f.expected_rank[id] = n - i;  // distance to end, inclusive
  }
  f.head = order[0];
  return f;
}

// ------------------------------------------------------------- ListRanking

class ListRankingSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ListRankingSweep, RanksRandomList) {
  const size_t n = GetParam();
  MemoryBlockDevice dev(kBlock);
  ListFixture f = MakeRandomList(n, n * 17 + 5);
  ExtVector<ListNode> nodes(&dev);
  ASSERT_TRUE(nodes.AppendAll(f.nodes.data(), f.nodes.size()).ok());
  ListRanker ranker(&dev, kOpts);
  ExtVector<ListRank> ranks(&dev);
  ASSERT_TRUE(ranker.Rank(nodes, &ranks).ok());
  std::vector<ListRank> got;
  ASSERT_TRUE(ranks.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i].id, i);
    ASSERT_EQ(got[i].rank, f.expected_rank[i]) << "id " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ListRankingSweep,
                         ::testing::Values(1, 2, 10, 100, 5000, 20000));

TEST(ListRanking, WeightedList) {
  MemoryBlockDevice dev(kBlock);
  // 3 -> 1 -> 4 -> 0 (weights 5, 2, 7, 3).
  std::vector<ListNode> nodes = {
      {0, kNoVertex, 3}, {1, 4, 2}, {3, 1, 5}, {4, 0, 7}};
  ExtVector<ListNode> vec(&dev);
  ASSERT_TRUE(vec.AppendAll(nodes.data(), nodes.size()).ok());
  ListRanker ranker(&dev, kOpts);
  ExtVector<ListRank> ranks(&dev);
  ASSERT_TRUE(ranker.Rank(vec, &ranks).ok());
  std::vector<ListRank> got;
  ASSERT_TRUE(ranks.ReadAll(&got).ok());
  std::map<uint64_t, uint64_t> m;
  for (auto& r : got) m[r.id] = r.rank;
  EXPECT_EQ(m[0], 3u);
  EXPECT_EQ(m[4], 10u);
  EXPECT_EQ(m[1], 12u);
  EXPECT_EQ(m[3], 17u);
}

TEST(ListRanking, MultipleDisjointLists) {
  MemoryBlockDevice dev(kBlock);
  // Two lists: 0->1->2 and 10->11.
  std::vector<ListNode> nodes = {{0, 1, 1}, {1, 2, 1}, {2, kNoVertex, 1},
                                 {10, 11, 1}, {11, kNoVertex, 1}};
  ExtVector<ListNode> vec(&dev);
  ASSERT_TRUE(vec.AppendAll(nodes.data(), nodes.size()).ok());
  ListRanker ranker(&dev, kOpts);
  ExtVector<ListRank> ranks(&dev);
  ASSERT_TRUE(ranker.Rank(vec, &ranks).ok());
  std::vector<ListRank> got;
  ASSERT_TRUE(ranks.ReadAll(&got).ok());
  std::map<uint64_t, uint64_t> m;
  for (auto& r : got) m[r.id] = r.rank;
  EXPECT_EQ(m[0], 3u);
  EXPECT_EQ(m[1], 2u);
  EXPECT_EQ(m[2], 1u);
  EXPECT_EQ(m[10], 2u);
  EXPECT_EQ(m[11], 1u);
}

TEST(ListRanking, SortBasedBeatsPointerChasingOnIos) {
  // The survey's motivating example: ranking a scattered list by pointer
  // chasing costs ~1 I/O per element; the sort-based algorithm is ~Sort(N).
  // Realistic PDM parameters matter here: with large B, Sort(N) << N.
  const size_t n = 30000;
  const size_t kBigBlock = 4096, kBigMem = 64 * 1024;
  MemoryBlockDevice dev(kBigBlock);
  BufferPool pool(&dev, kBigMem / kBigBlock);
  ListFixture f = MakeRandomList(n, 99);
  ExtVector<ListNode> pooled(&dev, &pool);
  ASSERT_TRUE(pooled.AppendAll(f.nodes.data(), f.nodes.size()).ok());

  IoProbe p1(dev);
  ListRanker ranker(&dev, Options{.memory_budget = kBigMem});
  ExtVector<ListRank> ranks(&dev);
  ASSERT_TRUE(ranker.Rank(pooled, &ranks).ok());
  uint64_t sort_based = p1.delta().block_ios();

  IoProbe p2(dev);
  ExtVector<ListRank> ranks2(&dev);
  ASSERT_TRUE(ListRankByPointerChasing(pooled, f.head, &ranks2).ok());
  uint64_t chasing = p2.delta().block_ios();

  EXPECT_LT(sort_based * 2, chasing)
      << "sort=" << sort_based << " chase=" << chasing;
  // Same answers.
  std::vector<ListRank> a, braw;
  ASSERT_TRUE(ranks.ReadAll(&a).ok());
  ASSERT_TRUE(ranks2.ReadAll(&braw).ok());
  std::map<uint64_t, uint64_t> b;
  for (auto& r : braw) b[r.id] = r.rank;
  for (auto& r : a) ASSERT_EQ(r.rank, b[r.id]);
}

// ---------------------------------------------------------------- ExtGraph

TEST(ExtGraph, BuildsCsrFromEdges) {
  MemoryBlockDevice dev(kBlock);
  BufferPool pool(&dev, 8);
  ExtVector<Edge> edges(&dev);
  std::vector<Edge> e = {{0, 1}, {0, 2}, {1, 2}, {3, 0}};
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  ExtGraph g(&dev, &pool);
  ASSERT_TRUE(g.Build(edges, 5, kOpts, /*symmetrize=*/true).ok());
  EXPECT_EQ(g.num_arcs(), 8u);
  std::vector<uint64_t> adj;
  ASSERT_TRUE(g.Neighbors(0, &adj).ok());
  EXPECT_EQ(adj, (std::vector<uint64_t>{1, 2, 3}));
  adj.clear();
  ASSERT_TRUE(g.Neighbors(4, &adj).ok());  // isolated vertex
  EXPECT_TRUE(adj.empty());
}

// -------------------------------------------------------------- EulerTour

TEST(EulerTour, SmallTreeTourAndPreorder) {
  MemoryBlockDevice dev(kBlock);
  //      0
  //     / .
  //    1   2
  //   / .
  //  3   4      (. = right-child edge)
  ExtVector<Edge> tree(&dev);
  std::vector<Edge> e = {{0, 1}, {0, 2}, {1, 3}, {1, 4}};
  ASSERT_TRUE(tree.AppendAll(e.data(), e.size()).ok());
  EulerTour et(&dev, kOpts);
  ExtVector<TourArc> arcs(&dev);
  ExtVector<Preorder> pre(&dev);
  ASSERT_TRUE(et.Run(tree, 5, /*root=*/0, &arcs, &pre).ok());

  std::vector<TourArc> got;
  ASSERT_TRUE(arcs.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), 8u);
  // Positions are a permutation of 0..7 and consecutive arcs chain.
  std::vector<const TourArc*> by_pos(8, nullptr);
  for (auto& a : got) {
    ASSERT_LT(a.pos, 8u);
    ASSERT_EQ(by_pos[a.pos], nullptr);
    by_pos[a.pos] = &a;
  }
  EXPECT_EQ(by_pos[0]->u, 0u);  // starts at root
  for (int i = 0; i + 1 < 8; ++i) {
    EXPECT_EQ(by_pos[i]->v, by_pos[i + 1]->u) << "break at " << i;
  }
  EXPECT_EQ(by_pos[7]->v, 0u);  // ends back at root

  // Preorder: neighbor order is sorted, so DFS visits 0,1,3,4,2.
  std::vector<Preorder> pg;
  ASSERT_TRUE(pre.ReadAll(&pg).ok());
  ASSERT_EQ(pg.size(), 5u);
  std::map<uint64_t, uint64_t> pm;
  for (auto& p : pg) pm[p.vertex] = p.pre;
  EXPECT_EQ(pm[0], 0u);
  EXPECT_EQ(pm[1], 1u);
  EXPECT_EQ(pm[3], 2u);
  EXPECT_EQ(pm[4], 3u);
  EXPECT_EQ(pm[2], 4u);
}

TEST(EulerTour, RandomTreeMatchesInMemoryDfs) {
  const size_t n = 2000;
  MemoryBlockDevice dev(kBlock);
  Rng rng(7);
  // Random tree: parent(v) uniform in [0, v).
  std::vector<Edge> e;
  std::vector<std::vector<uint64_t>> adj(n);
  for (uint64_t v = 1; v < n; ++v) {
    uint64_t p = rng.Uniform(v);
    e.push_back({p, v});
    adj[p].push_back(v);
    adj[v].push_back(p);
  }
  for (auto& a : adj) std::sort(a.begin(), a.end());
  // In-memory DFS with sorted neighbor order (skipping the parent).
  std::vector<uint64_t> pre(n, 0);
  {
    uint64_t c = 0;
    std::vector<std::pair<uint64_t, uint64_t>> stack{{0, kNoVertex}};
    while (!stack.empty()) {
      auto [v, parent] = stack.back();
      stack.pop_back();
      pre[v] = c++;
      for (auto it = adj[v].rbegin(); it != adj[v].rend(); ++it) {
        if (*it != parent) stack.push_back({*it, v});
      }
    }
  }
  ExtVector<Edge> tree(&dev);
  ASSERT_TRUE(tree.AppendAll(e.data(), e.size()).ok());
  EulerTour et(&dev, kOpts);
  ExtVector<TourArc> arcs(&dev);
  ExtVector<Preorder> pre_out(&dev);
  ASSERT_TRUE(et.Run(tree, n, 0, &arcs, &pre_out).ok());
  std::vector<Preorder> got;
  ASSERT_TRUE(pre_out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), n);
  for (auto& p : got) {
    ASSERT_EQ(p.pre, pre[p.vertex]) << "vertex " << p.vertex;
  }
}

TEST(EulerTour, SingleVertexAndSingleEdge) {
  MemoryBlockDevice dev(kBlock);
  {
    ExtVector<Edge> tree(&dev);
    EulerTour et(&dev, kOpts);
    ExtVector<TourArc> arcs(&dev);
    ExtVector<Preorder> pre(&dev);
    ASSERT_TRUE(et.Run(tree, 1, 0, &arcs, &pre).ok());
    std::vector<Preorder> pg;
    ASSERT_TRUE(pre.ReadAll(&pg).ok());
    ASSERT_EQ(pg.size(), 1u);
    EXPECT_EQ(pg[0].pre, 0u);
  }
  {
    ExtVector<Edge> tree(&dev);
    std::vector<Edge> e = {{0, 1}};
    ASSERT_TRUE(tree.AppendAll(e.data(), e.size()).ok());
    EulerTour et(&dev, kOpts);
    ExtVector<TourArc> arcs(&dev);
    ASSERT_TRUE(et.Run(tree, 2, 1, &arcs).ok());
    std::vector<TourArc> got;
    ASSERT_TRUE(arcs.ReadAll(&got).ok());
    ASSERT_EQ(got.size(), 2u);
  }
}

// --------------------------------------------------- ConnectedComponents

std::vector<uint64_t> ReferenceComponents(size_t n,
                                          const std::vector<Edge>& edges) {
  std::vector<uint64_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<uint64_t(uint64_t)> find = [&](uint64_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Edge& e : edges) {
    uint64_t a = find(e.u), b = find(e.v);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<uint64_t> label(n);
  for (size_t v = 0; v < n; ++v) label[v] = find(v);
  // Normalize to min-id per component.
  std::map<uint64_t, uint64_t> mins;
  for (size_t v = 0; v < n; ++v) {
    auto it = mins.find(label[v]);
    if (it == mins.end() || v < it->second) mins[label[v]] = std::min<uint64_t>(v, label[v]);
  }
  for (size_t v = 0; v < n; ++v) label[v] = mins[label[v]];
  return label;
}

struct CcCase {
  size_t n;
  size_t extra_edges;
  uint64_t seed;
};

class CcSweep : public ::testing::TestWithParam<CcCase> {};

TEST_P(CcSweep, MatchesUnionFind) {
  const CcCase& c = GetParam();
  MemoryBlockDevice dev(kBlock);
  Rng rng(c.seed);
  std::vector<Edge> e;
  // Random graph: some chains + random extra edges => varied components.
  for (uint64_t v = 1; v < c.n; ++v) {
    if (rng.Uniform(3) != 0) continue;  // leave many singletons
    e.push_back({rng.Uniform(v), v});
  }
  for (size_t i = 0; i < c.extra_edges; ++i) {
    e.push_back({rng.Uniform(c.n), rng.Uniform(c.n)});
  }
  std::vector<uint64_t> expect = ReferenceComponents(c.n, e);

  ExtVector<Edge> edges(&dev);
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  ConnectedComponents cc(&dev, kOpts);
  ExtVector<VertexLabel> labels(&dev);
  ASSERT_TRUE(cc.Run(edges, c.n, &labels).ok());
  std::vector<VertexLabel> got;
  ASSERT_TRUE(labels.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), c.n);
  for (size_t v = 0; v < c.n; ++v) {
    ASSERT_EQ(got[v].v, v);
    ASSERT_EQ(got[v].label, expect[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CcSweep,
    ::testing::Values(CcCase{10, 5, 1}, CcCase{1000, 300, 2},
                      CcCase{5000, 5000, 3}, CcCase{2000, 0, 4}));

TEST(ConnectedComponents, PathGraphConvergesInLogRounds) {
  // Worst case for pure label propagation; pointer jumping must keep the
  // round count logarithmic.
  const size_t n = 4096;
  MemoryBlockDevice dev(kBlock);
  std::vector<Edge> e;
  for (uint64_t v = 1; v < n; ++v) e.push_back({v - 1, v});
  ExtVector<Edge> edges(&dev);
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  ConnectedComponents cc(&dev, kOpts);
  ExtVector<VertexLabel> labels(&dev);
  ASSERT_TRUE(cc.Run(edges, n, &labels).ok());
  std::vector<VertexLabel> got;
  ASSERT_TRUE(labels.ReadAll(&got).ok());
  for (auto& vl : got) ASSERT_EQ(vl.label, 0u);
  EXPECT_LE(cc.rounds(), 16u);  // ~log2(4096) + slack
}

// --------------------------------------------------------------- External BFS

std::vector<uint64_t> ReferenceBfs(size_t n, const std::vector<Edge>& edges,
                                   uint64_t source) {
  std::vector<std::vector<uint64_t>> adj(n);
  for (const Edge& e : edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<uint64_t> dist(n, kNoVertex);
  std::queue<uint64_t> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    uint64_t v = q.front();
    q.pop();
    for (uint64_t u : adj[v]) {
      if (dist[u] == kNoVertex) {
        dist[u] = dist[v] + 1;
        q.push(u);
      }
    }
  }
  return dist;
}

TEST(ExternalBfs, MatchesReferenceOnRandomGraph) {
  const size_t n = 3000;
  MemoryBlockDevice dev(kBlock);
  BufferPool pool(&dev, 8);
  Rng rng(42);
  std::vector<Edge> e;
  for (size_t i = 0; i < 2 * n; ++i) {
    e.push_back({rng.Uniform(n), rng.Uniform(n)});
  }
  std::vector<uint64_t> expect = ReferenceBfs(n, e, 0);

  ExtVector<Edge> edges(&dev);
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  ExtGraph g(&dev, &pool);
  ASSERT_TRUE(g.Build(edges, n, kOpts, /*symmetrize=*/true).ok());
  ExternalBfs bfs(&dev, kOpts);
  ExtVector<VertexDist> out(&dev);
  ASSERT_TRUE(bfs.Run(g, 0, &out).ok());
  std::vector<VertexDist> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  size_t reachable = 0;
  for (uint64_t d : expect) {
    if (d != kNoVertex) reachable++;
  }
  ASSERT_EQ(got.size(), reachable);
  for (auto& vd : got) {
    ASSERT_EQ(vd.dist, expect[vd.v]) << "vertex " << vd.v;
  }
}

TEST(ExternalBfs, GridGraphLevels) {
  // 30x30 grid from a corner: levels are anti-diagonals, 59 levels.
  const size_t side = 30, n = side * side;
  MemoryBlockDevice dev(kBlock);
  BufferPool pool(&dev, 8);
  std::vector<Edge> e;
  for (size_t r = 0; r < side; ++r) {
    for (size_t c = 0; c < side; ++c) {
      uint64_t v = r * side + c;
      if (c + 1 < side) e.push_back({v, v + 1});
      if (r + 1 < side) e.push_back({v, v + side});
    }
  }
  ExtVector<Edge> edges(&dev);
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  ExtGraph g(&dev, &pool);
  ASSERT_TRUE(g.Build(edges, n, kOpts, true).ok());
  ExternalBfs bfs(&dev, kOpts);
  ExtVector<VertexDist> out(&dev);
  ASSERT_TRUE(bfs.Run(g, 0, &out).ok());
  EXPECT_EQ(bfs.levels(), 2 * side - 1);
  std::vector<VertexDist> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), n);
  for (auto& vd : got) {
    uint64_t r = vd.v / side, c = vd.v % side;
    ASSERT_EQ(vd.dist, r + c);
  }
}

TEST(ExternalBfs, MatchesInternalBaseline) {
  const size_t n = 1500;
  MemoryBlockDevice dev(kBlock);
  BufferPool pool(&dev, 8);
  Rng rng(77);
  std::vector<Edge> e;
  for (size_t i = 0; i < 3 * n; ++i) {
    e.push_back({rng.Uniform(n), rng.Uniform(n)});
  }
  ExtVector<Edge> edges(&dev);
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  ExtGraph g(&dev, &pool);
  ASSERT_TRUE(g.Build(edges, n, kOpts, true).ok());

  ExternalBfs bfs(&dev, kOpts);
  ExtVector<VertexDist> a(&dev), b(&dev);
  ASSERT_TRUE(bfs.Run(g, 3, &a).ok());
  ASSERT_TRUE(InternalBfsBaseline(g, 3, &pool, &b).ok());
  std::vector<VertexDist> va, vb;
  ASSERT_TRUE(a.ReadAll(&va).ok());
  ASSERT_TRUE(b.ReadAll(&vb).ok());
  std::map<uint64_t, uint64_t> ma, mb;
  for (auto& vd : va) ma[vd.v] = vd.dist;
  for (auto& vd : vb) mb[vd.v] = vd.dist;
  EXPECT_EQ(ma, mb);
}

}  // namespace
}  // namespace vem
