// GIS scenario (the survey's other motivating domain): route finding and
// region analysis on a raster terrain larger than memory.
//
// A procedurally generated height field becomes a grid graph over
// walkable cells (height below the waterline is impassable). We then run
//  - external connected components: how many islands of walkable land?
//  - external BFS: hop-optimal route between two corners.
//
// Build & run:  cmake --build build && ./build/example_gis_terrain
#include <cstdio>

#include "graph/bfs.h"
#include "sort/external_sort.h"
#include "graph/connected_components.h"
#include "graph/graph.h"
#include "io/memory_block_device.h"
#include "util/options.h"
#include "util/random.h"

using namespace vem;

namespace {

constexpr size_t kSide = 256;  // 64 Ki cells

// Cheap value-noise height field in [0, 1).
double Height(size_t r, size_t c) {
  auto hash = [](uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return static_cast<double>(x & 0xFFFFFF) / double(1 << 24);
  };
  double h = 0, amp = 0.5;
  for (int octave = 0; octave < 4; ++octave) {
    size_t cell = kSide >> (2 * octave + 2);
    if (cell == 0) break;
    h += amp * hash((r / cell) * 73856093ull ^ (c / cell) * 19349663ull ^
                    octave * 83492791ull);
    amp /= 2;
  }
  return h;
}

uint64_t CellId(size_t r, size_t c) { return r * kSide + c; }

}  // namespace

int main() {
  constexpr size_t kBlockBytes = 4096;
  constexpr size_t kMemoryBytes = 128 * 1024;
  const Options kOpts{.memory_budget = kMemoryBytes};
  const double kWaterline = 0.42;
  MemoryBlockDevice disk(kBlockBytes);
  BufferPool pool(&disk, 8);

  // 1. Rasterize: edge between 4-adjacent walkable cells.
  ExtVector<Edge> edges(&disk);
  size_t walkable = 0;
  {
    ExtVector<Edge>::Writer w(&edges);
    for (size_t r = 0; r < kSide; ++r) {
      for (size_t c = 0; c < kSide; ++c) {
        if (Height(r, c) < kWaterline) continue;
        walkable++;
        if (c + 1 < kSide && Height(r, c + 1) >= kWaterline) {
          w.Append(Edge{CellId(r, c), CellId(r, c + 1)});
        }
        if (r + 1 < kSide && Height(r + 1, c) >= kWaterline) {
          w.Append(Edge{CellId(r, c), CellId(r + 1, c)});
        }
      }
    }
    if (!w.Finish().ok()) return 1;
  }
  std::printf("terrain %zux%zu: %zu walkable cells, %zu adjacency edges\n",
              kSide, kSide, walkable, edges.size());

  // 2. Islands via external connected components; find the mainland
  //    (largest component) by sorting labels and scanning run lengths.
  ExtVector<VertexLabel> labels(&disk);
  uint64_t mainland = kNoVertex;
  {
    IoProbe probe(disk);
    ConnectedComponents cc(&disk, kOpts);
    if (!cc.Run(edges, kSide * kSide, &labels).ok()) return 1;
    size_t islands = 0;
    uint64_t best_size = 0, cur_label = kNoVertex, cur_size = 0;
    // Labels sorted by label value via one external sort.
    auto by_label = [](const VertexLabel& a, const VertexLabel& b) {
      if (a.label != b.label) return a.label < b.label;
      return a.v < b.v;
    };
    ExtVector<VertexLabel> by_l(&disk);
    if (!ExternalSort<VertexLabel, decltype(by_label)>(labels, &by_l,
                                                       kOpts, by_label)
             .ok()) {
      return 1;
    }
    ExtVector<VertexLabel>::Reader r(&by_l);
    VertexLabel vl;
    while (r.Next(&vl)) {
      size_t row = vl.v / kSide, col = vl.v % kSide;
      if (Height(row, col) < kWaterline) continue;  // water cells: skip
      if (vl.label != cur_label) {
        islands++;
        cur_label = vl.label;
        cur_size = 0;
      }
      cur_size++;
      if (cur_size > best_size) {
        best_size = cur_size;
        mainland = cur_label;
      }
    }
    std::printf(
        "connected components: %zu islands (largest %llu cells), %zu "
        "rounds, %llu I/Os\n",
        islands, static_cast<unsigned long long>(best_size), cc.rounds(),
        static_cast<unsigned long long>(probe.delta().block_ios()));
  }

  // 3. Route across the mainland: start = its lowest cell id, goal = its
  //    highest (roughly opposite corners of the island).
  uint64_t start = kNoVertex, goal = kNoVertex;
  {
    ExtVector<VertexLabel>::Reader r(&labels);
    VertexLabel vl;
    while (r.Next(&vl)) {
      if (vl.label != mainland) continue;
      size_t row = vl.v / kSide, col = vl.v % kSide;
      if (Height(row, col) < kWaterline) continue;
      if (start == kNoVertex) start = vl.v;
      goal = vl.v;
    }
  }
  ExtGraph graph(&disk, &pool);
  if (!graph.Build(edges, kSide * kSide, kOpts, /*symmetrize=*/true)
           .ok()) {
    return 1;
  }
  {
    IoProbe probe(disk);
    ExternalBfs bfs(&disk, kOpts);
    ExtVector<VertexDist> dists(&disk);
    if (!bfs.Run(graph, start, &dists).ok()) return 1;
    uint64_t goal_dist = kNoVertex;
    size_t reached = 0;
    ExtVector<VertexDist>::Reader r(&dists);
    VertexDist vd;
    while (r.Next(&vd)) {
      reached++;
      if (vd.v == goal) goal_dist = vd.dist;
    }
    std::printf("BFS from cell %llu: reached %zu cells in %zu levels, "
                "%llu I/Os\n",
                static_cast<unsigned long long>(start), reached, bfs.levels(),
                static_cast<unsigned long long>(probe.delta().block_ios()));
    if (goal_dist != kNoVertex) {
      std::printf("route to cell %llu: %llu hops\n",
                  static_cast<unsigned long long>(goal),
                  static_cast<unsigned long long>(goal_dist));
    } else {
      std::printf("goal cell %llu is on a different island\n",
                  static_cast<unsigned long long>(goal));
    }
  }
  std::printf("total I/O bill: %s\n", disk.stats().ToString().c_str());
  return 0;
}
