// Experiment F-striping: striped vs independent disks.
//
// The survey's two multi-disk regimes:
//  - striping turns D disks into one logical disk of block size D*B.
//    Scanning speeds up by exactly D (in parallel I/O steps), but the
//    merge fan-in drops from M/B to M/(D*B), so sorting pays extra
//    passes — the striping-vs-optimal gap;
//  - independent heads with randomized placement and a forecasting read
//    schedule keep block size B (fan-in M/B) AND move up to D blocks
//    per step. IndependentDiskDevice + ExternalSorter::
//    set_forecast_merge reproduce that schedule.
//
// Part 1 (in-memory children, deterministic): the counted parallel-I/O
// comparison across D — scan speedup, sort steps, merge passes for both
// regimes. Part 2 (file-backed children, buffered + O_DIRECT): the
// wall-clock comparison at D=2,4, sized so striping's reduced fan-in
// really costs a merge pass. Each row measures the independent sort
// sync vs engine-armed (stats must stay bit-identical, parent and
// children) and the equivalent striped configuration, paired per repeat.
//
// Part 3 (degraded-mode smoke, deterministic in-memory children): the
// same sort at D=4 with RAID-5-style parity armed and one child
// fail-stopped mid-run — must COMPLETE with logical IoStats (parent and
// every child) bit-identical to the healthy run, reconstruction showing
// only on the RedundancyStats gauge. Exit code 3 when violated.
//
// Emits BENCH_independent_disks.json at the repo root. --smoke runs a
// reduced sweep as the CI gate: bench_util.h's GateRow on sync/armed
// (exit 1 = IoStats differ, 2 = < 0.95x above the 5 ms floor).
// --verbose additionally dumps the engine's per-disk health snapshot
// (error/latency EWMAs, quarantine/fail-stop/rebuild flags) after the
// file-backed rows.
#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/ext_vector.h"
#include "io/faulty_device.h"
#include "io/file_block_device.h"
#include "io/independent_disk_device.h"
#include "io/io_engine.h"
#include "io/io_ring.h"
#include "io/memory_block_device.h"
#include "io/striped_device.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/random.h"

using namespace vem;
using namespace vem::bench;

namespace {

constexpr size_t kBlockBytes = 4096;           // per-disk block (512-aligned)
constexpr size_t kMemBytes = 256 * 1024;       // M: small enough for passes
constexpr uint64_t kPlacementSeed = 0x5EED;
constexpr size_t kDepth = 8;                   // armed stream depth

size_t g_shift = 0;  // --smoke shrinks workloads
size_t SortItems() { return (48 * kMemBytes / sizeof(uint64_t)) >> g_shift; }

struct Cell {
  double seconds = 0;
  IoStats cost;
  std::vector<IoStats> child_cost;
  size_t merge_passes = 0;
  size_t fan_in = 0;
  bool direct_active = false;
};

std::vector<std::unique_ptr<BlockDevice>> MakeDisks(const char* tag, size_t d,
                                                    bool direct,
                                                    bool* direct_active) {
  std::vector<std::unique_ptr<BlockDevice>> disks;
  for (size_t i = 0; i < d; ++i) {
    auto child = std::make_unique<FileBlockDevice>(
        std::string("/tmp/vem_bench_inddisk_") + tag + "_" +
            std::to_string(i) + ".bin",
        kBlockBytes, /*unlink_on_close=*/true, direct);
    if (!child->valid()) {
      std::fprintf(stderr, "cannot open scratch file for %s\n", tag);
      disks.clear();
      return disks;
    }
    if (i == 0) *direct_active = child->direct_io_active();
    disks.push_back(std::move(child));
  }
  return disks;
}

/// External merge sort of SortItems() u64 on `dev`; forecast_merge and
/// prefetch depth per flags. Loading is excluded from the timing.
/// `depth` is the armed stream depth in this device's own blocks —
/// callers scale it so striped (D*B blocks) and independent (B blocks)
/// configurations stage the same number of BYTES.
Cell SortOn(BlockDevice* dev, IoEngine* engine, bool armed, bool forecast,
            size_t depth, std::function<IoStats(size_t)> child_stats,
            size_t num_children) {
  Cell cell;
  if (armed) dev->set_io_engine(engine);
  Rng rng(97);
  ExtVector<uint64_t> input(dev);
  {
    ExtVector<uint64_t>::Writer w(&input);
    const size_t n = SortItems();
    for (size_t i = 0; i < n; ++i) w.Append(rng.Next());
    w.Finish();
  }
  ExternalSorter<uint64_t> sorter(
      dev, Options{.memory_budget = kMemBytes,
                   .prefetch_depth = armed ? depth : 0});
  sorter.set_forecast_merge(forecast);
  ExtVector<uint64_t> out(dev);
  IoProbe probe(*dev);
  std::vector<IoStats> child_before;
  for (size_t c = 0; c < num_children; ++c) child_before.push_back(child_stats(c));
  auto t0 = std::chrono::steady_clock::now();
  Status s = sorter.Sort(input, &out);
  auto t1 = std::chrono::steady_clock::now();
  if (!s.ok()) {
    std::fprintf(stderr, "sort failed: %s\n", s.ToString().c_str());
  }
  cell.seconds = Secs(t0, t1);
  cell.cost = probe.delta();
  for (size_t c = 0; c < num_children; ++c) {
    cell.child_cost.push_back(child_stats(c) - child_before[c]);
  }
  cell.merge_passes = sorter.metrics().merge_passes;
  cell.fan_in = sorter.fan_in();
  out.Destroy();
  input.Destroy();
  dev->set_io_engine(nullptr);
  return cell;
}

Cell IndependentSort(size_t d, bool direct, bool armed, IoEngine* engine) {
  bool direct_active = false;
  auto disks = MakeDisks(armed ? "ind_a" : "ind_s", d, direct, &direct_active);
  if (disks.empty()) return Cell{};
  IndependentDiskDevice dev(std::move(disks), kPlacementSeed);
  if (!dev.valid()) return Cell{};
  Cell cell = SortOn(&dev, engine, armed, /*forecast=*/true, kDepth * d,
                     [&](size_t c) { return dev.disk_stats(c); }, d);
  cell.direct_active = direct_active;
  return cell;
}

Cell StripedSort(size_t d, bool direct, IoEngine* engine) {
  bool direct_active = false;
  auto disks = MakeDisks("str", d, direct, &direct_active);
  if (disks.empty()) return Cell{};
  StripedDevice dev(std::move(disks));
  if (!dev.valid()) return Cell{};
  Cell cell = SortOn(&dev, engine, /*armed=*/true, /*forecast=*/false, kDepth,
                     [&](size_t c) { return dev.disk_stats(c); }, d);
  cell.direct_active = direct_active;
  return cell;
}

/// Batched random block reads: the workload where head independence is
/// decisive. The app wants R random B-byte records out of the same
/// dataset. Independent disks serve each from ONE head — a batch of 64
/// random blocks becomes ~64/D parallel steps of B bytes each — while
/// the striped configuration must move ALL D heads (and D*B bytes) per
/// record, with no batching gain at all.
size_t RandomDataBlocks() { return (48 * kMemBytes / kBlockBytes) >> g_shift; }
size_t RandomRequests() { return 2048 >> g_shift; }
constexpr size_t kReadBatch = 64;

template <typename Dev>
Cell RandomReadsOn(Dev* dev, IoEngine* engine, bool armed,
                   size_t logical_blocks, size_t num_children) {
  Cell cell;
  const size_t bs = dev->block_size();
  std::vector<uint64_t> ids;
  {
    IoBuffer block = AllocIoBuffer(bs);
    std::memset(block.get(), 0x5A, bs);
    for (size_t i = 0; i < logical_blocks; ++i) {
      ids.push_back(dev->Allocate());
      dev->Write(ids.back(), block.get());
    }
  }
  if (armed) dev->set_io_engine(engine);
  std::vector<IoBuffer> bufs;
  std::vector<void*> ptrs;
  for (size_t i = 0; i < kReadBatch; ++i) {
    bufs.push_back(AllocIoBuffer(bs));
    ptrs.push_back(bufs.back().get());
  }
  Rng rng(1234);  // same request sequence for every configuration
  IoProbe probe(*dev);
  std::vector<IoStats> child_before;
  for (size_t c = 0; c < num_children; ++c) {
    child_before.push_back(dev->disk_stats(c));
  }
  auto t0 = std::chrono::steady_clock::now();
  std::vector<uint64_t> batch(kReadBatch);
  for (size_t done = 0; done < RandomRequests(); done += kReadBatch) {
    for (size_t i = 0; i < kReadBatch; ++i) {
      batch[i] = ids[rng.Uniform(ids.size())];
    }
    Status s = dev->ReadBatch(batch.data(), ptrs.data(), kReadBatch);
    if (!s.ok()) {
      std::fprintf(stderr, "random read failed: %s\n", s.ToString().c_str());
      break;
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  cell.seconds = Secs(t0, t1);
  cell.cost = probe.delta();
  for (size_t c = 0; c < num_children; ++c) {
    cell.child_cost.push_back(dev->disk_stats(c) - child_before[c]);
  }
  dev->set_io_engine(nullptr);
  return cell;
}

Cell IndependentRandomReads(size_t d, bool direct, bool armed,
                            IoEngine* engine) {
  bool direct_active = false;
  auto disks = MakeDisks(armed ? "rnd_a" : "rnd_s", d, direct, &direct_active);
  if (disks.empty()) return Cell{};
  IndependentDiskDevice dev(std::move(disks), kPlacementSeed);
  if (!dev.valid()) return Cell{};
  Cell cell =
      RandomReadsOn(&dev, engine, armed, RandomDataBlocks(), d);
  cell.direct_active = direct_active;
  return cell;
}

Cell StripedRandomReads(size_t d, bool direct, IoEngine* engine) {
  bool direct_active = false;
  auto disks = MakeDisks("rnd_str", d, direct, &direct_active);
  if (disks.empty()) return Cell{};
  StripedDevice dev(std::move(disks));
  if (!dev.valid()) return Cell{};
  // Same dataset bytes: D*B logical blocks hold D of the B-byte records.
  Cell cell = RandomReadsOn(&dev, engine, /*armed=*/true,
                            RandomDataBlocks() / d, d);
  cell.direct_active = direct_active;
  return cell;
}

/// One gated row: independent sync vs armed, then striped (ungated).
struct Row {
  Cell sync, armed, striped;

  /// Sync-vs-armed identity under the write-wave contract. Reads and
  /// every byte/block counter must match bit-for-bit — arming never
  /// changes what moves. parallel_writes is depth-DEPENDENT by design:
  /// grouped write-behind charges one step per wave of distinct disks,
  /// and the flush-group boundaries set the wave packing, so the armed
  /// run may charge FEWER write steps than the per-block sync run (never
  /// more). Children stay fully identical either way — waves are a
  /// parent-level charge; each child still counts its own blocks.
  bool identical() const {
    const IoStats& s = sync.cost;
    const IoStats& a = armed.cost;
    return s.block_reads == a.block_reads &&
           s.block_writes == a.block_writes &&
           s.bytes_read == a.bytes_read &&
           s.bytes_written == a.bytes_written &&
           s.parallel_reads == a.parallel_reads &&
           a.parallel_writes <= s.parallel_writes &&
           sync.child_cost == armed.child_cost;
  }
  std::pair<double, double> timed() const {
    return {sync.seconds, armed.seconds};
  }
};

/// Worker-pool vs io_uring transport on the same armed cell.
struct Transports {
  Cell worker_pool, io_uring;

  bool identical() const {
    return worker_pool.cost == io_uring.cost &&
           worker_pool.child_cost == io_uring.child_cost;
  }
  std::pair<double, double> timed() const {
    return {worker_pool.seconds, io_uring.seconds};
  }
};

/// Part 1: deterministic counted comparison on in-memory children.
void CountedComparison() {
  const size_t kChildBlock = 512;
  const size_t kMem = 16 * 1024;
  const size_t kN = 1 << 19;
  std::printf(
      "## Parallel I/O steps, in-memory children\n"
      "## per-disk block = %zu B, M = %zu B, N = %zu u64 items\n\n",
      kChildBlock, kMem, kN);
  Table t({"D", "scan steps", "scan speedup", "striped sort blocks",
           "striped passes", "fan-in m/D", "independent sort blocks",
           "indep passes", "fan-in m", "sort block ratio"});
  double scan1 = 0;
  for (size_t d : {1u, 2u, 4u, 8u}) {
    // Striped: scan + sort, as in the original experiment.
    StripedDevice sdev(d, kChildBlock);
    ExtVector<uint64_t> sin(&sdev);
    Rng rng(d);
    {
      ExtVector<uint64_t>::Writer w(&sin);
      for (size_t i = 0; i < kN; ++i) w.Append(rng.Next());
      w.Finish();
    }
    IoProbe sp(sdev);
    {
      ExtVector<uint64_t>::Reader r(&sin);
      uint64_t v, sum = 0;
      while (r.Next(&v)) sum += v;
      (void)sum;
    }
    uint64_t scan_ios = sp.delta().parallel_ios();
    ExternalSorter<uint64_t> ssorter(&sdev, Options{.memory_budget = kMem});
    ExtVector<uint64_t> sout(&sdev);
    IoProbe sprobe(sdev);
    ssorter.Sort(sin, &sout);
    uint64_t ssort_blocks = sprobe.delta().block_ios();

    // Independent: same per-disk block size, forecast-merged sort.
    IndependentDiskDevice idev(d, kChildBlock, kPlacementSeed);
    ExtVector<uint64_t> iin(&idev);
    Rng rng2(d);
    {
      ExtVector<uint64_t>::Writer w(&iin);
      for (size_t i = 0; i < kN; ++i) w.Append(rng2.Next());
      w.Finish();
    }
    ExternalSorter<uint64_t> isorter(&idev, Options{.memory_budget = kMem});
    isorter.set_forecast_merge(true);
    ExtVector<uint64_t> iout(&idev);
    IoProbe iprobe(idev);
    isorter.Sort(iin, &iout);
    uint64_t isort_blocks = iprobe.delta().block_ios();

    if (d == 1) scan1 = double(scan_ios);
    t.AddRow({FmtInt(d), FmtInt(scan_ios), Fmt(scan1 / scan_ios, 2) + "x",
              FmtInt(ssort_blocks), FmtInt(ssorter.metrics().merge_passes),
              FmtInt(ssorter.fan_in()), FmtInt(isort_blocks),
              FmtInt(isorter.metrics().merge_passes), FmtInt(isorter.fan_in()),
              Fmt(double(ssort_blocks) /
                      double(std::max<uint64_t>(isort_blocks, 1)),
                  2) + "x"});
  }
  t.Print();
  std::printf(
      "Scan: striping is optimal (speedup == D exactly). Sort: striping\n"
      "divides the fan-in by D, so the pass count rises and with it every\n"
      "physical block moved (block ratio > 1 favors independent disks);\n"
      "the forecast merge keeps fan-in m and batches its refill reads at\n"
      "~D blocks per parallel step. Raw parallel-step counts still favor\n"
      "striping on this metric because these runs are unarmed: per-block\n"
      "streamed writes charge one step per B-byte block on independent\n"
      "disks vs one step per D*B logical block when striped. Armed\n"
      "(grouped) write-behind closes that gap through AccountWriteBatch —\n"
      "one step per wave of distinct disks — see the wall-clock rows.\n\n");
}

// ---------------------------------------------- degraded-mode smoke

struct DegradedRun {
  bool completed = false;
  IoStats parent;
  std::vector<IoStats> children;
  std::vector<uint64_t> output;
  RedundancyStats gauge;
};

/// External sort at D=4 with parity armed by SetParity;
/// `kill` fail-stops head 1 mid-run — after roughly half the input's
/// blocks worth of transfer attempts on that head, so the death lands
/// inside the sort whatever g_shift scaled the workload to.
/// In-memory children, engine off: exactly deterministic.
DegradedRun RedundantSortRun(bool kill) {
  constexpr size_t kRBlock = 1024;
  std::vector<std::unique_ptr<MemoryBlockDevice>> inners;
  std::vector<FaultyBlockDevice*> wrappers;
  std::vector<std::unique_ptr<BlockDevice>> disks;
  for (int d = 0; d < 4; ++d) {
    inners.push_back(std::make_unique<MemoryBlockDevice>(kRBlock));
    auto w = std::make_unique<FaultyBlockDevice>(inners.back().get());
    wrappers.push_back(w.get());
    disks.push_back(std::move(w));
  }
  IndependentDiskDevice dev(std::move(disks), kPlacementSeed);
  dev.SetParity();

  DegradedRun run;
  Rng rng(404);
  std::vector<uint64_t> data(20000 >> g_shift);
  const size_t input_blocks = data.size() * sizeof(uint64_t) / kRBlock;
  if (kill) wrappers[1]->SetDeadAfter(input_blocks / 2);
  for (auto& v : data) v = rng.Next();
  IoProbe probe(dev);
  ExtVector<uint64_t> input(&dev);
  if (!input.AppendAll(data.data(), data.size(), kDepth).ok()) return run;
  ExternalSorter<uint64_t> sorter(
      &dev, Options{.memory_budget = 8 * kRBlock, .prefetch_depth = kDepth});
  sorter.set_forecast_merge(true);
  ExtVector<uint64_t> out(&dev);
  Status s = sorter.Sort(input, &out);
  if (!s.ok()) {
    std::fprintf(stderr, "degraded sort failed: %s\n", s.ToString().c_str());
    return run;
  }
  if (!out.ReadAll(&run.output).ok()) return run;
  run.parent = probe.delta();
  for (size_t d = 0; d < dev.num_disks(); ++d) {
    run.children.push_back(dev.disk_stats(d));
  }
  run.gauge = dev.redundancy_stats();
  run.completed = !kill || dev.DiskDead(1);
  return run;
}

/// Part 3 gate: healthy vs one-head-dead at D=4 parity. True when the
/// degraded run completed with bit-identical logical stats and real
/// reconstruction traffic on the gauge.
bool DegradedSmoke(JsonReport* report) {
  DegradedRun healthy = RedundantSortRun(/*kill=*/false);
  DegradedRun degraded = RedundantSortRun(/*kill=*/true);
  bool identical = healthy.completed && degraded.completed &&
                   healthy.output == degraded.output &&
                   healthy.parent == degraded.parent &&
                   healthy.children == degraded.children;
  bool reconstructed = degraded.gauge.degraded_reads > 0;
  std::printf(
      "\n## Degraded mode, D=4 parity, head 1 fail-stopped mid-sort\n"
      "## (in-memory children, engine off — deterministic)\n\n");
  Table t({"run", "completed", "stats identical", "degraded reads",
           "degraded writes", "parity writes", "parity KiB"});
  auto row = [&](const char* name, const DegradedRun& r) {
    t.AddRow({name, r.completed ? "yes" : "NO", identical ? "yes" : "NO (BUG)",
              FmtInt(r.gauge.degraded_reads), FmtInt(r.gauge.degraded_writes),
              FmtInt(r.gauge.parity_writes),
              FmtInt(r.gauge.parity_bytes / 1024)});
  };
  row("healthy", healthy);
  row("one head dead", degraded);
  t.Print();
  std::printf(
      "The cost model cannot tell the runs apart: reconstruction rides\n"
      "the physical RedundancyStats gauge only.\n");
  report->Add("degraded sort D=4 parity", "completed",
              degraded.completed ? 1.0 : 0.0);
  report->Add("degraded sort D=4 parity", "stats_identical",
              identical ? 1.0 : 0.0);
  report->Add("degraded sort D=4 parity", "degraded_reads",
              double(degraded.gauge.degraded_reads));
  report->Add("degraded sort D=4 parity", "parity_writes",
              double(degraded.gauge.parity_writes));
  return identical && reconstructed;
}

/// --verbose: the engine's per-disk health introspection, one line per
/// tagged head the runs above touched.
void PrintHealthSnapshot(const IoEngine& engine) {
  auto snap = engine.HealthSnapshot();
  std::printf("\n## Engine disk-health snapshot (%zu heads)\n\n",
              snap.size());
  Table t({"disk tag", "err ewma", "latency us", "samples", "quarantined",
           "fail-stopped", "in rebuild"});
  for (const auto& [tag, h] : snap) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%012llx",
                  static_cast<unsigned long long>(tag));
    t.AddRow({hex, Fmt(h.error_ewma, 3), Fmt(h.latency_ewma_ns / 1000.0, 1),
              FmtInt(h.samples), h.quarantined ? "yes" : "no",
              h.fail_stopped ? "yes" : "no", h.in_rebuild ? "yes" : "no"});
  }
  t.Print();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const bool verbose = HasFlag(argc, argv, "--verbose");
  if (smoke) g_shift = 2;  // quarter workload: rows stay in the tens of ms
  // Paired best-of-N on every row. Rows faster than 5 ms on both sides
  // sit below timer/scheduler noise (warm-cache random reads finish in
  // ~1 ms): their ratio measures the OS, not the engine, so they pass on
  // identity alone.
  const Gate gate{.repeats = smoke ? 4 : 3, .retries = smoke ? 2 : 0,
                  .min_timed = 0.005};

  CountedComparison();

  IoEngine engine(4, /*disk_inflight_cap=*/1);
  std::printf(
      "## Wall-clock, file-backed children: independent (forecast merge,\n"
      "## sync vs armed K=%zu + engine) vs striped (armed), same D disks,\n"
      "## same M = %zu KiB, N = %zu u64 items%s\n\n",
      kDepth, kMemBytes / 1024, SortItems(), smoke ? " [smoke]" : "");

  struct Spec {
    const char* name;
    Cell (*independent)(size_t d, bool direct, bool armed, IoEngine* engine);
    Cell (*striped)(size_t d, bool direct, IoEngine* engine);
    size_t d;
    bool direct;
  };
  const Spec specs[] = {
      {"sort D=2 buffered", IndependentSort, StripedSort, 2, false},
      {"sort D=4 buffered", IndependentSort, StripedSort, 4, false},
      {"sort D=2 O_DIRECT", IndependentSort, StripedSort, 2, true},
      {"sort D=4 O_DIRECT", IndependentSort, StripedSort, 4, true},
      {"random reads D=4 buffered", IndependentRandomReads,
       StripedRandomReads, 4, false},
      {"random reads D=2 O_DIRECT", IndependentRandomReads,
       StripedRandomReads, 2, true},
      {"random reads D=4 O_DIRECT", IndependentRandomReads,
       StripedRandomReads, 4, true},
  };
  Table t({"configuration", "indep sync s", "indep armed s", "striped s",
           "vs striped", "indep passes", "striped passes", "indep par I/Os",
           "striped par I/Os", "stats identical"});
  JsonReport report("independent_disks");
  GateVerdict verdict;
  for (const Spec& spec : specs) {
    auto row = GateRow(gate, [&] {
      return Row{spec.independent(spec.d, spec.direct, false, &engine),
                 spec.independent(spec.d, spec.direct, true, &engine),
                 spec.striped(spec.d, spec.direct, &engine)};
    });
    verdict.Add(row);
    const Row& r = row.pair;
    double vs_striped = Ratio(r.striped.seconds, r.armed.seconds);
    t.AddRow({spec.name, Fmt(r.sync.seconds, 3), Fmt(r.armed.seconds, 3),
              Fmt(r.striped.seconds, 3), Fmt(vs_striped, 2) + "x",
              FmtInt(r.armed.merge_passes), FmtInt(r.striped.merge_passes),
              FmtInt(r.armed.cost.parallel_ios()),
              FmtInt(r.striped.cost.parallel_ios()),
              row.identical ? "yes" : "NO (BUG)"});
    report.Add(spec.name, "sync_seconds", r.sync.seconds);
    report.Add(spec.name, "armed_seconds", r.armed.seconds);
    report.Add(spec.name, "striped_seconds", r.striped.seconds);
    report.Add(spec.name, "speedup", row.ratio);
    report.Add(spec.name, "vs_striped", vs_striped);
    report.Add(spec.name, "indep_merge_passes", double(r.armed.merge_passes));
    report.Add(spec.name, "striped_merge_passes",
               double(r.striped.merge_passes));
    report.Add(spec.name, "indep_parallel_ios",
               double(r.armed.cost.parallel_ios()));
    report.Add(spec.name, "striped_parallel_ios",
               double(r.striped.cost.parallel_ios()));
    report.Add(spec.name, "indep_block_ios", double(r.armed.cost.block_ios()));
    report.Add(spec.name, "striped_block_ios",
               double(r.striped.cost.block_ios()));
    report.Add(spec.name, "stats_identical", row.identical ? 1.0 : 0.0);
    report.Add(spec.name, "direct_io_active",
               r.armed.direct_active ? 1.0 : 0.0);
    AddRatios(&report, spec.name, row);
  }
  t.Print();
  std::printf(
      "Expected shape: independent placement keeps fan-in M/B, so where\n"
      "striping's M/(D*B) forces an extra pass the independent sort moves\n"
      "fewer blocks AND fewer parallel steps — the survey's gap, on real\n"
      "files. Stats identical between sync and armed independent runs\n"
      "(armed parallel_writes may only drop: grouped write-behind packs\n"
      "waves): the forecast schedule is transport-invariant.\n");
  // ------------------------------------------------- transport backends
  const bool uring_ok = IoRing::CompiledIn() && IoRing::KernelSupported();
  report.Add("backend", "io_uring_compiled_in",
             IoRing::CompiledIn() ? 1.0 : 0.0);
  report.Add("backend", "io_uring_kernel_supported",
             IoRing::KernelSupported() ? 1.0 : 0.0);
  if (uring_ok) {
    IoEngine ur_engine(4, /*disk_inflight_cap=*/1, IoBackend::kIoUring);
    report.Add("backend", "active_backend_io_uring",
               ur_engine.backend() == IoBackend::kIoUring ? 1.0 : 0.0);
    std::printf(
        "\n## Transport backends on the armed D=4 batched random reads:\n"
        "## worker-pool preadv per child vs io_uring SQE batching\n\n");
    Table bt({"configuration", "worker-pool s", "io_uring s",
              "io_uring speedup", "stats identical"});
    for (bool direct : {false, true}) {
      // Both transports back to back per repeat; no speed gate.
      auto row = PairedRun(gate.repeats, [&] {
        return Transports{IndependentRandomReads(4, direct, true, &engine),
                          IndependentRandomReads(4, direct, true, &ur_engine)};
      });
      verdict.Add(row);
      const auto& [wp, ur] = row.pair;
      std::string name = std::string("backend random reads D=4 ") +
                         (direct ? "O_DIRECT" : "buffered");
      bt.AddRow({name, Fmt(wp.seconds, 3), Fmt(ur.seconds, 3),
                 Fmt(row.ratio, 2) + "x", row.identical ? "yes" : "NO (BUG)"});
      report.Add(name, "worker_pool_seconds", wp.seconds);
      report.Add(name, "io_uring_seconds", ur.seconds);
      report.Add(name, "io_uring_speedup", row.ratio);
      report.Add(name, "stats_identical", row.identical ? 1.0 : 0.0);
      report.Add(name, "direct_io_active", ur.direct_active ? 1.0 : 0.0);
      AddRatios(&report, name, row);
    }
    bt.Print();
  } else {
    report.Add("backend", "active_backend_io_uring", 0.0);
    std::printf("\nio_uring unavailable: backend rows skipped\n");
  }

  const bool degraded_ok = DegradedSmoke(&report);
  if (verbose) PrintHealthSnapshot(engine);

  int code = verdict.ExitCode(smoke);
  if (!degraded_ok) {
    std::printf(
        "ERROR: degraded-mode sort broke completion or stats identity\n");
    if (code == 0) code = 3;
  }
  return report.Finish(argc, argv, code);
}
