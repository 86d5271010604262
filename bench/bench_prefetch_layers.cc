// Experiment F-layers: prefetch armed across the scan-bound algorithm
// layers — sync vs overlapped wall-clock at equal PDM cost, on buffered
// and O_DIRECT (cold-cache) file devices, plus a striped D-disk row.
//
// PR 1 gave ExternalSorter overlapped streams; PR 2 armed every layer;
// this revision puts the adaptive PrefetchGovernor in charge of the
// armed column: streams lease depth from a global staging budget
// (derived from M) and the governor grows stall-bound streams, disarms
// waste-bound ones, and refuses arms past the budget. That is what
// turns the warm-cache regressions (short-lived MR-BFS frontier
// readers, sweep strips, over-staged PQ runs) back into ~1.0x while
// keeping the cold-cache overlap wins. Each scenario runs twice on
// fresh devices — synchronous (depth 0, no engine) and armed (depth K +
// IoEngine + governor) — and asserts IoStats are bit-identical. The
// striped row exercises the forwarded uncounted plane on a D=4 device.
//
// Emits BENCH_prefetch_layers.json at the repo root (and prints it with
// --json). Every row goes through bench_util.h's GateRow (A = sync,
// B = armed); --smoke runs a reduced-size sweep and is the CI guard
// against prefetch regressions (exit 1 = IoStats differ, 2 = < 0.95x).
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "core/relational.h"
#include "geometry/segment_intersection.h"
#include "graph/bfs.h"
#include "io/file_block_device.h"
#include "io/io_engine.h"
#include "io/prefetch_governor.h"
#include "io/striped_device.h"
#include "search/external_pq.h"
#include "sort/distribution_sort.h"
#include "util/options.h"
#include "util/random.h"

using namespace vem;
using namespace vem::bench;

namespace {

constexpr size_t kBlockBytes = 4096;  // 512-aligned: direct-I/O capable
constexpr size_t kMemBytes = 2 * 1024 * 1024;

// --smoke shrinks every workload by this shift (CI-sized smoke run).
size_t g_shift = 0;

size_t Scaled(size_t n) { return n >> g_shift; }

struct Run {
  double seconds = 0;
  IoStats cost;
  bool direct_active = false;
};

struct JRow {
  uint64_t id;
  uint64_t key;
};
struct JOut {
  uint64_t a;
  uint64_t b;
};

Options GovernorOptions() {
  Options o;
  o.block_size = kBlockBytes;
  o.memory_budget = kMemBytes;
  return o;  // staging budget defaults to M/2 = 256 blocks
}

/// What each layer is built from: M and stream depth `k` (0 = sync).
Options LayerOptions(size_t k) {
  return Options{.memory_budget = kMemBytes, .prefetch_depth = k};
}

// Each scenario measures only the algorithm (loading excluded), on a
// fresh scratch device. `depth` 0 = synchronous; K>0 attaches `engine`
// and a fresh M/2-budget governor (the product configuration).
template <typename Body>
Run Measure(const char* file_tag, size_t depth, IoEngine* engine,
            bool direct, Body body) {
  Options dev_opts;
  dev_opts.block_size = kBlockBytes;
  dev_opts.direct_io = direct;
  FileBlockDevice dev(std::string("/tmp/vem_bench_layers_") + file_tag +
                          ".bin",
                      dev_opts);
  if (!dev.valid()) {
    std::fprintf(stderr, "cannot open scratch file for %s\n", file_tag);
    return Run{};
  }
  PrefetchGovernor governor(GovernorOptions());
  if (depth > 0) {
    dev.set_io_engine(engine);
    dev.set_prefetch_governor(&governor);
  }
  Run run;
  run.direct_active = dev.direct_io_active();
  body(&dev, depth, &run);
  dev.set_io_engine(nullptr);
  dev.set_prefetch_governor(nullptr);
  return run;
}

void TimeBody(BlockDevice* dev, Run* run,
              const std::function<Status()>& algo) {
  IoProbe probe(*dev);
  auto t0 = std::chrono::steady_clock::now();
  Status s = algo();
  auto t1 = std::chrono::steady_clock::now();
  if (!s.ok()) std::fprintf(stderr, "bench body failed: %s\n",
                            s.ToString().c_str());
  run->seconds = Secs(t0, t1);
  run->cost = probe.delta();
}

template <bool kDirect>
Run RunDistSort(size_t depth, IoEngine* engine) {
  return Measure("distsort", depth, engine, kDirect,
                 [&](FileBlockDevice* dev, size_t k, Run* run) {
    const size_t kItems = Scaled(1u << 21);  // 16 MiB of u64
    Rng rng(41);
    ExtVector<uint64_t> input(dev);
    {
      ExtVector<uint64_t>::Writer w(&input);
      for (size_t i = 0; i < kItems; ++i) w.Append(rng.Next());
      w.Finish();
    }
    DistributionSorter<uint64_t> sorter(dev, LayerOptions(k));
    ExtVector<uint64_t> out(dev);
    TimeBody(dev, run, [&] { return sorter.Sort(input, &out); });
  });
}

Run RunJoin(size_t depth, IoEngine* engine) {
  return Measure("join", depth, engine, false,
                 [&](FileBlockDevice* dev, size_t k, Run* run) {
    const size_t kLeft = Scaled(1u << 20), kRight = Scaled(1u << 17);
    Rng rng(42);
    ExtVector<JRow> left(dev), right(dev);
    {
      ExtVector<JRow>::Writer lw(&left), rw(&right);
      for (size_t i = 0; i < kLeft; ++i) {
        lw.Append(JRow{i, rng.Uniform(kRight)});
      }
      for (size_t i = 0; i < kRight; ++i) lw.Append(JRow{i, i});
      for (size_t i = 0; i < kRight; ++i) rw.Append(JRow{i, i});
      lw.Finish();
      rw.Finish();
    }
    ExtVector<JOut> out(dev);
    TimeBody(dev, run, [&] {
      return SortMergeJoin<JRow, JRow, JOut, uint64_t>(
          left, right, &out, LayerOptions(k),
          [](const JRow& r) { return r.key; },
          [](const JRow& r) { return r.key; },
          [](const JRow& l, const JRow& r) { return JOut{l.id, r.id}; });
    });
  });
}

Run RunGroupBy(size_t depth, IoEngine* engine) {
  return Measure("groupby", depth, engine, false,
                 [&](FileBlockDevice* dev, size_t k, Run* run) {
    const size_t kRows = Scaled(1u << 20);
    Rng rng(43);
    ExtVector<JRow> rows(dev);
    {
      ExtVector<JRow>::Writer w(&rows);
      for (size_t i = 0; i < kRows; ++i) {
        w.Append(JRow{rng.Uniform(1u << 14), rng.Uniform(1000)});
      }
      w.Finish();
    }
    ExtVector<JOut> out(dev);
    TimeBody(dev, run, [&] {
      return GroupByAggregate<JRow, uint64_t, uint64_t, JOut>(
          rows, &out, LayerOptions(k), [](const JRow& r) { return r.id; },
          [](const uint64_t&) { return uint64_t{0}; },
          [](uint64_t* acc, const JRow& r) { *acc += r.key; },
          [](const uint64_t& key, const uint64_t& acc) {
            return JOut{key, acc};
          });
    });
  });
}

Run RunBfs(size_t depth, IoEngine* engine) {
  return Measure("bfs", depth, engine, false,
                 [&](FileBlockDevice* dev, size_t k, Run* run) {
    // Never scaled down: MR-BFS is the shortest row already, and it
    // carries the governor's learning phase — shrinking it drowns the
    // verdict in scheduler noise.
    const uint64_t v = 1u << 16;
    Rng rng(44);
    BufferPool pool(dev, 16);
    ExtVector<Edge> edges(dev);
    {
      ExtVector<Edge>::Writer w(&edges);
      for (uint64_t i = 0; i < v; ++i) w.Append(Edge{i, (i + 1) % v});
      for (size_t i = 0; i < 2 * v; ++i) {
        w.Append(Edge{rng.Uniform(v), rng.Uniform(v)});
      }
      w.Finish();
    }
    ExtGraph g(dev, &pool);
    Status built = g.Build(edges, v, LayerOptions(0), /*symmetrize=*/true);
    if (!built.ok()) {
      std::fprintf(stderr, "graph build failed: %s\n",
                   built.ToString().c_str());
      return;
    }
    ExternalBfs bfs(dev, LayerOptions(k));
    ExtVector<VertexDist> out(dev);
    TimeBody(dev, run, [&] { return bfs.Run(g, 0, &out); });
  });
}

Run RunPq(size_t depth, IoEngine* engine) {
  return Measure("pq", depth, engine, false,
                 [&](FileBlockDevice* dev, size_t k, Run* run) {
    const size_t kItems = Scaled(1u << 21);
    Rng rng(45);
    Options opts = LayerOptions(k);
    opts.memory_budget = kMemBytes / 4;
    ExternalPriorityQueue<uint64_t> pq(dev, opts);
    TimeBody(dev, run, [&]() -> Status {
      for (size_t i = 0; i < kItems; ++i) {
        VEM_RETURN_IF_ERROR(pq.Push(rng.Next()));
      }
      uint64_t v;
      while (!pq.empty()) {
        VEM_RETURN_IF_ERROR(pq.Pop(&v));
      }
      return Status::OK();
    });
  });
}

Run RunSweep(size_t depth, IoEngine* engine) {
  return Measure("sweep", depth, engine, false,
                 [&](FileBlockDevice* dev, size_t k, Run* run) {
    const size_t n = Scaled(1u << 17);
    Rng rng(46);
    ExtVector<HSegment> hs(dev);
    ExtVector<VSegment> vs(dev);
    {
      ExtVector<HSegment>::Writer hw(&hs);
      ExtVector<VSegment>::Writer vw(&vs);
      for (size_t i = 0; i < n / 2; ++i) {
        double x = rng.NextDouble() * 1000, y = rng.NextDouble() * 1000;
        hw.Append(HSegment{y, x, x + rng.NextDouble() * 5, i});
        double vx = rng.NextDouble() * 1000, vy = rng.NextDouble() * 1000;
        vw.Append(VSegment{vx, vy, vy + rng.NextDouble() * 5, i});
      }
      hw.Finish();
      vw.Finish();
    }
    OrthogonalSegmentIntersection osi(dev, LayerOptions(k));
    ExtVector<IntersectionPair> out(dev);
    TimeBody(dev, run, [&] { return osi.Run(hs, vs, &out); });
  });
}

/// Striped D=4 row: the forwarded uncounted plane lets armed streams
/// overlap on a multi-disk configuration (previously they silently fell
/// back to synchronous there). O_DIRECT children so the four per-disk
/// transfers of one parallel step hit real device latency concurrently.
Run RunStripedSort(size_t depth, IoEngine* engine) {
  std::vector<std::unique_ptr<BlockDevice>> disks;
  for (int d = 0; d < 4; ++d) {
    auto child = std::make_unique<FileBlockDevice>(
        "/tmp/vem_bench_layers_striped_d" + std::to_string(d) + ".bin",
        kBlockBytes, /*unlink_on_close=*/true, /*direct_io=*/true);
    if (!child->valid()) {
      std::fprintf(stderr, "cannot open striped scratch file\n");
      return Run{};
    }
    disks.push_back(std::move(child));
  }
  bool direct = static_cast<FileBlockDevice*>(disks[0].get())
                    ->direct_io_active();
  StripedDevice dev(std::move(disks));
  if (!dev.valid()) return Run{};
  Options gov_opts = GovernorOptions();
  gov_opts.block_size = dev.block_size();  // budget in logical blocks
  PrefetchGovernor governor(gov_opts);
  if (depth > 0) {
    dev.set_io_engine(engine);
    dev.set_prefetch_governor(&governor);
  }
  Run run;
  run.direct_active = direct;
  const size_t kItems = Scaled(1u << 21);
  Rng rng(47);
  ExtVector<uint64_t> input(&dev);
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (size_t i = 0; i < kItems; ++i) w.Append(rng.Next());
    w.Finish();
  }
  DistributionSorter<uint64_t> sorter(&dev, LayerOptions(depth));
  ExtVector<uint64_t> out(&dev);
  TimeBody(&dev, &run, [&] { return sorter.Sort(input, &out); });
  out.Destroy();
  input.Destroy();
  dev.set_io_engine(nullptr);
  dev.set_prefetch_governor(nullptr);
  return run;
}

struct Pair {
  Run sync, armed;
  bool identical() const { return sync.cost == armed.cost; }
  std::pair<double, double> timed() const {
    return {sync.seconds, armed.seconds};
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.prefetch_depth = 16;
  const size_t depth = opts.prefetch_depth;
  const bool smoke = HasFlag(argc, argv, "--smoke");
  if (smoke) g_shift = 1;  // halved workloads: rows stay in the tens of ms
  // Paired best-of-N on every row: warm rows sit near 1.0x, where
  // scheduler noise would otherwise dominate the verdict.
  const Gate gate{.repeats = smoke ? 4 : 3, .retries = smoke ? 2 : 0};
  IoEngine engine(opts.io_threads);

  std::printf(
      "# F-layers: governed prefetch in the scan-bound algorithm layers\n"
      "# sync (K=0) vs armed (K=%zu + IoEngine, %zu workers, adaptive\n"
      "# governor with M/2 staging budget)\n"
      "# block = %zu B, M = %zu MiB, buffered + O_DIRECT + striped D=4%s\n\n",
      depth, opts.io_threads, kBlockBytes, kMemBytes / (1024 * 1024),
      smoke ? " [smoke]" : "");

  struct RowSpec {
    const char* name;
    Run (*run)(size_t depth, IoEngine* engine);  // depth 0 = sync
  };
  const RowSpec specs[] = {
      {"distribution sort", RunDistSort<false>},
      {"sort-merge join", RunJoin},
      {"group-by", RunGroupBy},
      {"MR-BFS", RunBfs},
      {"external PQ", RunPq},
      {"distribution sweep", RunSweep},
      {"distribution sort (O_DIRECT)", RunDistSort<true>},
      {"distribution sort (striped D=4)", RunStripedSort},
  };
  Table t({"layer", "sync s", "armed s", "speedup", "I/Os",
           "stats identical"});
  JsonReport report("prefetch_layers");
  GateVerdict verdict;
  for (const RowSpec& spec : specs) {
    auto row = GateRow(gate, [&] {
      return Pair{spec.run(0, &engine), spec.run(depth, &engine)};
    });
    verdict.Add(row);
    const Pair& r = row.pair;
    t.AddRow({spec.name, Fmt(r.sync.seconds, 3), Fmt(r.armed.seconds, 3),
              Fmt(row.ratio, 2) + "x", FmtInt(r.sync.cost.block_ios()),
              row.identical ? "yes" : "NO (BUG)"});
    report.Add(spec.name, "sync_seconds", r.sync.seconds);
    report.Add(spec.name, "armed_seconds", r.armed.seconds);
    report.Add(spec.name, "speedup", row.ratio);
    report.Add(spec.name, "block_ios", double(r.sync.cost.block_ios()));
    report.Add(spec.name, "stats_identical", row.identical ? 1.0 : 0.0);
    report.Add(spec.name, "direct_io_active",
               r.armed.direct_active ? 1.0 : 0.0);
    AddRatios(&report, spec.name, row);
  }
  t.Print();
  std::printf(
      "Expected shape: cold-cache (O_DIRECT, striped) rows carry the\n"
      "overlap win; warm rows gain from coalescing or sit at ~1.0x — the\n"
      "governor disarms streams that cannot benefit instead of letting\n"
      "them regress. I/O counts identical everywhere: the PDM charge is\n"
      "invariant, only the clock moves.\n");
  return report.Finish(argc, argv, verdict.ExitCode(smoke));
}
