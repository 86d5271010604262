// Experiment F-arbiter: one memory for caching frames and prefetch
// staging — the fixed M/2:M/2 split vs the MemoryArbiter, on a mixed
// index-probe + background-scan/sort workload.
//
// Both columns run the identical operation sequence on a fresh file
// device: build a B+-tree bigger than the cache share of M plus a
// multi-megabyte vector, then alternate probe batches (pool-bound: the
// index wants frames) with full scans and an external sort (staging-
// bound: the streams want read-ahead depth). The FIXED column is the
// pre-arbiter production configuration — a BufferPool hard-wired to
// M/2 frames and a PrefetchGovernor with the remaining M/2 as staging.
// The ARBITRATED column runs the same pool baseline and governor as
// revocable leases on one M: probe phases grow the pool into idle
// staging, scan phases reclaim it on stall evidence.
//
// The PDM contract is asserted, not hoped for: IoStats must be
// BIT-IDENTICAL between the columns (ghost charging in the pool,
// charge-at-consumption in the streams) — arbitration moves memory,
// never I/O charging. Emits BENCH_memory_arbiter.json at the repo root.
// Every row goes through bench_util.h's GateRow (A = fixed, B =
// arbitrated); --smoke runs a reduced sweep as a CI gate.
#include <chrono>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "io/file_block_device.h"
#include "io/io_engine.h"
#include "io/prefetch_governor.h"
#include "search/bplus_tree.h"
#include "serve/execution_context.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/random.h"

using namespace vem;
using namespace vem::bench;

namespace {

constexpr size_t kBlockBytes = 4096;
constexpr size_t kMemBytes = 2 * 1024 * 1024;
constexpr size_t kDepth = 16;

size_t g_shift = 0;  // --smoke halves the workload

size_t Scaled(size_t n) { return n >> g_shift; }

struct Run {
  double seconds = 0;
  IoStats cost;
  size_t peak_pool_frames = 0;
};

Options MachineOptions(bool direct) {
  Options o;
  o.block_size = kBlockBytes;
  o.memory_budget = kMemBytes;
  o.prefetch_depth = kDepth;
  o.direct_io = direct;
  return o;
}

/// One column of the experiment: identical operation sequence, memory
/// managed either by the fixed split or by the arbiter.
Run RunMixed(bool arbitrated, IoEngine* engine, bool direct,
             const char* file_tag) {
  Options opts = MachineOptions(direct);
  Options dev_opts;
  dev_opts.block_size = kBlockBytes;
  dev_opts.direct_io = direct;
  FileBlockDevice dev(std::string("/tmp/vem_bench_arbiter_") + file_tag +
                          ".bin",
                      dev_opts);
  Run run;
  if (!dev.valid()) {
    std::fprintf(stderr, "cannot open scratch file for %s\n", file_tag);
    return run;
  }
  const size_t pool_frames = kMemBytes / 2 / kBlockBytes;  // the old split
  std::unique_ptr<ExecutionContext> ctx;
  std::unique_ptr<PrefetchGovernor> fixed_gov;
  std::unique_ptr<BufferPool> fixed_pool;
  BufferPool* pool;
  if (arbitrated) {
    ctx = std::make_unique<ExecutionContext>(&dev, opts);
    pool = ctx->pool();
  } else {
    fixed_gov = std::make_unique<PrefetchGovernor>(opts);
    dev.set_prefetch_governor(fixed_gov.get());
    fixed_pool = std::make_unique<BufferPool>(&dev, pool_frames);
    pool = fixed_pool.get();
  }
  dev.set_io_engine(engine);

  // ---------------------------------------------------- build (untimed)
  const size_t kKeys = Scaled(200000);     // ~3 MiB of leaves: M cannot
  const size_t kItems = Scaled(1u << 21);  // hold both sides at once
  const size_t kProbes = Scaled(30000);
  BPlusTree<uint64_t, uint64_t> tree(pool);
  Status st = tree.Init();
  Rng load(51);
  for (size_t i = 0; st.ok() && i < kKeys; ++i) {
    st = tree.Insert(load.Next(), i);
  }
  ExtVector<uint64_t> data(&dev);
  if (st.ok()) {
    typename ExtVector<uint64_t>::Writer w(&data);
    Rng fill(52);
    for (size_t i = 0; i < kItems; ++i) {
      if (!w.Append(fill.Next())) break;
    }
    st = w.Finish();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return run;
  }

  // ------------------------------------------------------ timed phases
  IoProbe probe(dev);
  auto t0 = std::chrono::steady_clock::now();
  for (size_t round = 0; st.ok() && round < 3; ++round) {
    // Probe batch: the index wants frames; scans are idle.
    Rng probe_rng(60 + round);
    uint64_t v;
    for (size_t i = 0; st.ok() && i < kProbes; ++i) {
      Status g = tree.Get(probe_rng.Next(), &v);
      if (!g.ok() && !g.IsNotFound()) st = g;
    }
    run.peak_pool_frames = std::max(run.peak_pool_frames,
                                    pool->num_frames());
    // Scan batch: a full governed pass over the vector.
    if (st.ok()) {
      typename ExtVector<uint64_t>::Reader r(&data, 0, kDepth);
      uint64_t x, sum = 0;
      while (r.Next(&x)) sum += x;
      st = r.status();
      if (sum == 42) std::fprintf(stderr, "-");  // keep the scan honest
    }
  }
  // Background sort: run formation + merge exercise write-behind too.
  if (st.ok()) {
    ExtVector<uint64_t> sorted(&dev);
    st = ExternalSorter<uint64_t>(&dev, MachineOptions(direct))
             .Sort(data, &sorted);
    sorted.Destroy();
  }
  if (st.ok()) st = pool->FlushAll();
  auto t1 = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "bench body failed: %s\n", st.ToString().c_str());
  }
  run.seconds = Secs(t0, t1);
  run.cost = probe.delta();
  run.peak_pool_frames = std::max(run.peak_pool_frames, pool->num_frames());
  dev.set_io_engine(nullptr);
  if (!arbitrated) dev.set_prefetch_governor(nullptr);
  return run;
}

struct Pair {
  Run fixed, arbitrated;
  bool identical() const { return fixed.cost == arbitrated.cost; }
  std::pair<double, double> timed() const {
    return {fixed.seconds, arbitrated.seconds};
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  if (smoke) g_shift = 2;  // quarter workloads: CI-sized rows
  const Gate gate{.repeats = 3, .retries = smoke ? 2 : 0};
  Options opts;
  IoEngine engine(opts.io_threads);

  std::printf(
      "# F-arbiter: fixed M/2 split vs unified memory arbiter\n"
      "# mixed workload: B+-tree probe batches + governed scans + sort\n"
      "# block = %zu B, M = %zu MiB, pool baseline = %zu frames%s\n\n",
      kBlockBytes, kMemBytes / (1024 * 1024), kMemBytes / 2 / kBlockBytes,
      smoke ? " [smoke]" : "");

  struct RowSpec {
    const char* name;
    const char* tag;
    bool direct;
  };
  RowSpec specs[] = {
      {"mixed probe+scan (buffered)", "buf", false},
      {"mixed probe+scan (O_DIRECT)", "direct", true},
  };
  Table t({"workload", "fixed s", "arbitrated s", "speedup", "I/Os",
           "peak frames", "stats identical"});
  JsonReport report("memory_arbiter");
  GateVerdict verdict;
  for (const RowSpec& spec : specs) {
    auto row = GateRow(gate, [&] {
      return Pair{RunMixed(false, &engine, spec.direct, spec.tag),
                  RunMixed(true, &engine, spec.direct, spec.tag)};
    });
    verdict.Add(row);
    const Pair& r = row.pair;
    t.AddRow({spec.name, Fmt(r.fixed.seconds, 3), Fmt(r.arbitrated.seconds, 3),
              Fmt(row.ratio, 2) + "x", FmtInt(r.fixed.cost.block_ios()),
              FmtInt(r.arbitrated.peak_pool_frames),
              row.identical ? "yes" : "NO (BUG)"});
    report.Add(spec.name, "fixed_seconds", r.fixed.seconds);
    report.Add(spec.name, "arbitrated_seconds", r.arbitrated.seconds);
    report.Add(spec.name, "speedup", row.ratio);
    report.Add(spec.name, "block_ios", double(r.fixed.cost.block_ios()));
    report.Add(spec.name, "stats_identical", row.identical ? 1.0 : 0.0);
    report.Add(spec.name, "peak_pool_frames",
               double(r.arbitrated.peak_pool_frames));
    report.Add(spec.name, "baseline_pool_frames",
               double(kMemBytes / 2 / kBlockBytes));
    AddRatios(&report, spec.name, row);
  }
  t.Print();
  std::printf(
      "Expected shape: probe batches grow the pool past its baseline\n"
      "(peak frames > %zu) while scans idle; scan/sort phases pull the\n"
      "budget back as staging. I/O counts identical in every row — the\n"
      "arbiter moves memory, never the cost model.\n",
      kMemBytes / 2 / kBlockBytes);
  return report.Finish(argc, argv, verdict.ExitCode(smoke));
}
