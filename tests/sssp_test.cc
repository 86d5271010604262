// Tests for semi-external Dijkstra.
#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "graph/sssp.h"
#include "io/memory_block_device.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 512;
constexpr size_t kMem = 8192;
const Options kOpts{.memory_budget = kMem};

std::vector<uint64_t> ReferenceDijkstra(
    uint64_t n, const std::vector<WeightedEdge>& edges, uint64_t source,
    bool undirected) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> adj(n);
  for (const auto& e : edges) {
    adj[e.u].push_back({e.v, e.w});
    if (undirected) adj[e.v].push_back({e.u, e.w});
  }
  std::vector<uint64_t> dist(n, kInfDist);
  using QI = std::pair<uint64_t, uint64_t>;
  std::priority_queue<QI, std::vector<QI>, std::greater<>> pq;
  dist[source] = 0;
  pq.push({0, source});
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d != dist[v]) continue;
    for (auto [t, w] : adj[v]) {
      if (d + w < dist[t]) {
        dist[t] = d + w;
        pq.push({d + w, t});
      }
    }
  }
  return dist;
}

struct SsspCase {
  uint64_t n;
  size_t m;
  bool undirected;
  uint64_t seed;
};

class SsspSweep : public ::testing::TestWithParam<SsspCase> {};

TEST_P(SsspSweep, MatchesReferenceDijkstra) {
  const SsspCase& c = GetParam();
  MemoryBlockDevice dev(kBlock);
  BufferPool pool(&dev, 16);
  Rng rng(c.seed);
  std::vector<WeightedEdge> e;
  // Ensure some connectivity with a random spanning-ish chain.
  for (uint64_t v = 1; v < c.n; ++v) {
    if (rng.Uniform(4) != 0) {
      e.push_back({rng.Uniform(v), v, 1 + rng.Uniform(100)});
    }
  }
  for (size_t i = 0; i < c.m; ++i) {
    e.push_back({rng.Uniform(c.n), rng.Uniform(c.n), 1 + rng.Uniform(100)});
  }
  std::vector<uint64_t> expect = ReferenceDijkstra(c.n, e, 0, c.undirected);

  ExtVector<WeightedEdge> edges(&dev);
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  WeightedGraph g(&dev, &pool);
  ASSERT_TRUE(g.Build(edges, c.n, kOpts, c.undirected).ok());
  SemiExternalSssp sssp(&dev, &pool, kOpts);
  ExtVector<uint64_t> dist(&dev, &pool);
  ASSERT_TRUE(sssp.Run(g, 0, &dist).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(dist.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), c.n);
  for (uint64_t v = 0; v < c.n; ++v) {
    ASSERT_EQ(got[v], expect[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SsspSweep,
    ::testing::Values(SsspCase{10, 20, false, 1},
                      SsspCase{2000, 8000, false, 2},
                      SsspCase{2000, 8000, true, 3},
                      SsspCase{5000, 2000, true, 4}  // sparse, many islands
                      ));

TEST(Sssp, UnreachableVerticesStayInfinite) {
  MemoryBlockDevice dev(kBlock);
  BufferPool pool(&dev, 8);
  std::vector<WeightedEdge> e = {{0, 1, 5}, {1, 2, 7}, {4, 5, 1}};
  ExtVector<WeightedEdge> edges(&dev);
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  WeightedGraph g(&dev, &pool);
  ASSERT_TRUE(g.Build(edges, 6, kOpts, false).ok());
  SemiExternalSssp sssp(&dev, &pool, kOpts);
  ExtVector<uint64_t> dist(&dev, &pool);
  ASSERT_TRUE(sssp.Run(g, 0, &dist).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(dist.ReadAll(&got).ok());
  EXPECT_EQ(got[0], 0u);
  EXPECT_EQ(got[1], 5u);
  EXPECT_EQ(got[2], 12u);
  EXPECT_EQ(got[3], kInfDist);
  EXPECT_EQ(got[4], kInfDist);
  EXPECT_EQ(got[5], kInfDist);
}

TEST(Sssp, GridMetricMatchesManhattanWhenUniform) {
  // Unit-weight grid: shortest path = Manhattan distance from the corner.
  const size_t side = 24;
  MemoryBlockDevice dev(kBlock);
  BufferPool pool(&dev, 16);
  std::vector<WeightedEdge> e;
  for (size_t r = 0; r < side; ++r) {
    for (size_t c = 0; c < side; ++c) {
      uint64_t v = r * side + c;
      if (c + 1 < side) e.push_back({v, v + 1, 1});
      if (r + 1 < side) e.push_back({v, v + side, 1});
    }
  }
  ExtVector<WeightedEdge> edges(&dev);
  ASSERT_TRUE(edges.AppendAll(e.data(), e.size()).ok());
  WeightedGraph g(&dev, &pool);
  ASSERT_TRUE(g.Build(edges, side * side, kOpts, true).ok());
  SemiExternalSssp sssp(&dev, &pool, kOpts);
  ExtVector<uint64_t> dist(&dev, &pool);
  ASSERT_TRUE(sssp.Run(g, 0, &dist).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(dist.ReadAll(&got).ok());
  for (size_t r = 0; r < side; ++r) {
    for (size_t c = 0; c < side; ++c) {
      ASSERT_EQ(got[r * side + c], r + c);
    }
  }
}

}  // namespace
}  // namespace vem
