// IndependentDiskDevice tests: the D-independent-heads plane.
//
//  - seeded randomized-cycling placement: deterministic per seed, D
//    consecutive allocations always hit D distinct disks;
//  - independent-head accounting: counted batches charge one parallel
//    step per wave of distinct disks, single transfers one step each;
//  - stats identity (parent AND children) for streamed scan/write and
//    the forecast-merged external sort: engine on vs off at the same
//    depth must match bit for bit (the two-plane contract), and every
//    depth-independent charge (block counts, bytes, per-consumed-block
//    reads, children) must match the per-block synchronous baseline.
//    parallel_writes is depth-DEPENDENT under the write-wave contract —
//    grouped flushes charge one step per wave of distinct disks — so
//    grouped configs must beat the per-block baseline, not equal it;
//  - forecast-merge equivalence: same output and block transfers as the
//    plain reader merge, strictly fewer parallel read steps on D > 1;
//  - faulty-child propagation on both planes;
//  - fault tolerance: transient-fault schedules absorbed by the retry
//    plane leave parent AND child IoStats bit-identical to the
//    fault-free run (engine off and on); quarantined disks are skipped
//    by randomized-cycling placement while their existing blocks stay
//    readable, and recovery evidence re-admits them;
//  - per-route governor history (one disk's waste does not disarm the
//    other heads) and the engine-saturation gate on staging grows
//    (governor depth grows and arbiter staging grows both refuse while
//    every worker is busy with a backlog).
//
// The redundancy plane (parity degraded mode, kill-a-disk-mid-sort
// stats identity, rebuild onto spares) is pinned in
// tests/redundancy_test.cc; its engine-on vs engine-off identity on
// this file's workload is pinned here.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/ext_vector.h"
#include "io/faulty_device.h"
#include "io/file_block_device.h"
#include "io/independent_disk_device.h"
#include "io/io_engine.h"
#include "io/io_ring.h"
#include "io/memory_arbiter.h"
#include "io/memory_block_device.h"
#include "io/prefetch_governor.h"
#include "io/retry_policy.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 256;
constexpr uint64_t kSeed = 0x5EED5EED;

std::string ScratchPath(const std::string& name) {
  return "/tmp/vem_independent_disk_" + name + ".bin";
}

// ------------------------------------------------------------ placement

TEST(IndependentDiskPlacement, SeededCyclingIsDeterministic) {
  IndependentDiskDevice a(4, kBlock, kSeed);
  IndependentDiskDevice b(4, kBlock, kSeed);
  IndependentDiskDevice c(4, kBlock, kSeed + 1);
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    uint64_t ia = a.Allocate(), ib = b.Allocate(), ic = c.Allocate();
    ASSERT_EQ(ia, ib);
    EXPECT_EQ(a.disk_of(ia), b.disk_of(ib)) << "allocation " << i;
    any_diff = any_diff || a.disk_of(ia) != c.disk_of(ic);
  }
  // A different seed produces a different placement sequence.
  EXPECT_TRUE(any_diff);
}

TEST(IndependentDiskPlacement, EveryCycleHitsAllDisks) {
  IndependentDiskDevice dev(4, kBlock, kSeed);
  for (int cycle = 0; cycle < 16; ++cycle) {
    bool seen[4] = {false, false, false, false};
    for (int i = 0; i < 4; ++i) {
      uint64_t id = dev.Allocate();
      size_t d = dev.disk_of(id);
      ASSERT_LT(d, 4u);
      EXPECT_FALSE(seen[d]) << "disk repeated within a cycle";
      seen[d] = true;
    }
  }
}

// ----------------------------------------------------------- accounting

TEST(IndependentDiskAccounting, BatchedReadsChargeWaveSteps) {
  IndependentDiskDevice dev(4, kBlock, kSeed);
  std::vector<uint64_t> ids;
  std::vector<IoBuffer> bufs;
  std::vector<void*> ptrs;
  char block[kBlock] = {1};
  for (int i = 0; i < 8; ++i) {
    ids.push_back(dev.Allocate());
    ASSERT_TRUE(dev.Write(ids.back(), block).ok());
    bufs.push_back(AllocIoBuffer(kBlock));
    ptrs.push_back(bufs.back().get());
  }
  // Two full cycles of 4 distinct disks: the greedy packing needs
  // exactly 2 waves for the 8 consecutive blocks.
  EXPECT_EQ(dev.CountWaves(ids.data(), ids.size()), 2u);
  IoProbe probe(dev);
  ASSERT_TRUE(dev.ReadBatch(ids.data(), ptrs.data(), ids.size()).ok());
  IoStats d = probe.delta();
  EXPECT_EQ(d.block_reads, 8u);
  EXPECT_EQ(d.parallel_reads, 2u);  // the independent-disk win
  // Deferred id-aware accounting mirrors the counted batch exactly.
  IndependentDiskDevice dev2(4, kBlock, kSeed);
  std::vector<uint64_t> ids2;
  for (int i = 0; i < 8; ++i) {
    ids2.push_back(dev2.Allocate());
    ASSERT_TRUE(dev2.WriteUncounted(ids2.back(), block).ok());
  }
  IoProbe probe2(dev2);
  dev2.AccountReadBatch(ids2.data(), ids2.size());
  IoStats d2 = probe2.delta();
  EXPECT_EQ(d2.block_reads, 8u);
  EXPECT_EQ(d2.parallel_reads, 2u);
  for (size_t disk = 0; disk < 4; ++disk) {
    EXPECT_EQ(dev2.disk_stats(disk).block_reads, 2u);
  }
}

TEST(IndependentDiskAccounting, BatchedWritesChargeWaveSteps) {
  IndependentDiskDevice dev(4, kBlock, kSeed);
  std::vector<uint64_t> ids;
  std::vector<IoBuffer> bufs;
  std::vector<const void*> ptrs;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(dev.Allocate());
    bufs.push_back(AllocIoBuffer(kBlock, /*zeroed=*/true));
    ptrs.push_back(bufs.back().get());
  }
  // Two full cycles of 4 distinct disks: 2 waves, same as the read side.
  EXPECT_EQ(dev.CountWaves(ids.data(), ids.size()), 2u);
  IoProbe probe(dev);
  ASSERT_TRUE(dev.WriteBatch(ids.data(), ptrs.data(), ids.size()).ok());
  IoStats d = probe.delta();
  EXPECT_EQ(d.block_writes, 8u);
  EXPECT_EQ(d.parallel_writes, 2u);  // grouped write-behind's scatter win
  // Deferred id-aware accounting mirrors the counted batch exactly.
  IndependentDiskDevice dev2(4, kBlock, kSeed);
  std::vector<uint64_t> ids2;
  for (int i = 0; i < 8; ++i) ids2.push_back(dev2.Allocate());
  IoProbe probe2(dev2);
  dev2.AccountWriteBatch(ids2.data(), ids2.size());
  IoStats d2 = probe2.delta();
  EXPECT_EQ(d2.block_writes, 8u);
  EXPECT_EQ(d2.parallel_writes, 2u);
  for (size_t disk = 0; disk < 4; ++disk) {
    EXPECT_EQ(dev2.disk_stats(disk).block_writes, 2u);
  }
  // The per-block form keeps per-block steps (the pool's ghost anchor).
  IndependentDiskDevice dev3(4, kBlock, kSeed);
  std::vector<uint64_t> ids3;
  for (int i = 0; i < 8; ++i) ids3.push_back(dev3.Allocate());
  IoProbe probe3(dev3);
  dev3.AccountWriteIds(ids3.data(), ids3.size());
  EXPECT_EQ(probe3.delta().parallel_writes, 8u);
}

/// What one run of single-block transfers leaves behind.
struct SingleRun {
  std::vector<char> bytes;  // every block read back, in id order
  IoStats parent;
  std::vector<IoStats> children;
  uint64_t retries = 0;
};

/// Single-block transfers on a D=4 device of Faulty(Memory) children
/// under a retry policy: write kN blocks, latch head 1 dead (`dead`),
/// overwrite every other block, read everything back. `transient` fails
/// each transfer's first two attempts on its home head; `batch` issues
/// every transfer as a one-element ReadBatch/WriteBatch instead of
/// Read/Write. Checks the bytes against what was written.
SingleRun RunSingles(bool parity, size_t width, bool dead, bool transient,
                     bool batch) {
  constexpr uint64_t kN = 12;
  std::vector<std::unique_ptr<MemoryBlockDevice>> inners;
  std::vector<FaultyBlockDevice*> wrappers;
  std::vector<std::unique_ptr<BlockDevice>> disks;
  for (int d = 0; d < 4; ++d) {
    inners.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
    auto w = std::make_unique<FaultyBlockDevice>(inners.back().get());
    wrappers.push_back(w.get());
    disks.push_back(std::move(w));
  }
  IndependentDiskDevice dev(std::move(disks), kSeed);
  if (parity) dev.SetParity(width);
  EXPECT_EQ(dev.parity_group_width(), parity ? (width == 0 ? 4u : width) : 0u);
  RetryPolicy::Config cfg;
  cfg.retry_limit = 3;
  cfg.base_us = 0;
  RetryPolicy policy(cfg);
  dev.set_retry_policy(&policy);
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < kN; ++i) ids.push_back(dev.Allocate());
  std::vector<char> expect(kN * kBlock);
  IoProbe probe(dev);
  auto write = [&](uint64_t id, char version) {
    char* block = expect.data() + id * kBlock;
    for (size_t j = 0; j < kBlock; ++j) block[j] = char(id * 31 + j) ^ version;
    FaultyBlockDevice* home = wrappers[dev.disk_of(id)];
    if (transient) home->SetTransientWriteFault(home->writes_seen() + 1, 2);
    const void* buf = block;
    Status s = batch ? dev.WriteBatch(&id, &buf, 1) : dev.Write(id, block);
    EXPECT_TRUE(s.ok()) << s.ToString();
  };
  for (uint64_t id : ids) write(id, 0);
  if (dead) dev.MarkDiskDead(1);
  for (uint64_t id : ids) {
    if (id % 2 == 0) write(id, 0x5A);
  }
  SingleRun run;
  run.bytes.resize(kN * kBlock);
  for (uint64_t id : ids) {
    void* buf = run.bytes.data() + id * kBlock;
    FaultyBlockDevice* home = wrappers[dev.disk_of(id)];
    if (transient) home->SetTransientReadFault(home->reads_seen() + 1, 2);
    Status s = batch ? dev.ReadBatch(&id, &buf, 1) : dev.Read(id, buf);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_TRUE(run.bytes == expect);
  run.parent = probe.delta();
  for (size_t d = 0; d < dev.num_disks(); ++d) {
    run.children.push_back(dev.disk_stats(d));
  }
  run.retries = policy.retries();
  // One head at a time: no batch, no win — one step per block.
  EXPECT_EQ(run.parent.block_reads, kN);
  EXPECT_EQ(run.parent.parallel_reads, kN);
  EXPECT_EQ(run.parent.block_writes, kN + kN / 2);
  EXPECT_EQ(run.parent.parallel_writes, kN + kN / 2);
  return run;
}

// A one-block request is a batch of one: Read/Write charge, retry and
// degrade exactly like one-element ReadBatch/WriteBatch calls — with
// parity off, at width 2 (mirroring) and at width D; healthy and with a
// dead head; with and without transient faults absorbed by the child's
// retry loop.
TEST(IndependentDiskAccounting, SingleTransfersChargeOneStepEach) {
  struct Case {
    const char* name;
    bool parity;
    size_t width;
  };
  for (const Case& c : {Case{"off", false, 0}, Case{"width2", true, 2},
                        Case{"widthD", true, 0}}) {
    for (bool dead : {false, true}) {
      for (bool transient : {false, true}) {
        SCOPED_TRACE(std::string(c.name) + (dead ? " dead" : " healthy") +
                     (transient ? " transient" : ""));
        SingleRun one = RunSingles(c.parity, c.width, dead, transient, false);
        SingleRun many = RunSingles(c.parity, c.width, dead, transient, true);
        EXPECT_TRUE(one.bytes == many.bytes);
        EXPECT_EQ(one.parent, many.parent);
        ASSERT_EQ(one.children.size(), many.children.size());
        for (size_t d = 0; d < one.children.size(); ++d) {
          EXPECT_EQ(one.children[d], many.children[d]) << "child " << d;
        }
        EXPECT_EQ(one.retries, many.retries);
        EXPECT_EQ(one.retries > 0, transient);
      }
    }
  }
}

// ------------------------------------------------------- stats identity

struct WorkloadCost {
  IoStats parent;
  std::vector<IoStats> children;
  std::vector<uint64_t> output;
  uint64_t parity_writes = 0;  // RedundancyStats: parity block writes
};

/// Streamed write + scan + forecast-merged external sort on 4 file
/// children, under one of three configs. Placement is seed-fixed, so
/// every config sees the identical block layout.
WorkloadCost RunWorkload(const std::string& tag, size_t depth, bool engine_on,
                         bool governed,
                         IoBackend backend = IoBackend::kWorkerPool,
                         bool parity = false, size_t group_width = 0) {
  std::vector<std::unique_ptr<BlockDevice>> disks;
  for (int d = 0; d < 4; ++d) {
    auto child = std::make_unique<FileBlockDevice>(
        ScratchPath(tag + "_d" + std::to_string(d)), kBlock);
    EXPECT_TRUE(child->valid());
    disks.push_back(std::move(child));
  }
  IndependentDiskDevice dev(std::move(disks), kSeed);
  EXPECT_TRUE(dev.valid());
  EXPECT_TRUE(dev.SupportsUncounted());
  EXPECT_TRUE(dev.SupportsAsync());
  if (parity) dev.SetParity(group_width);
  EXPECT_EQ(dev.parity_group_width() != 0, parity);
  IoEngine engine(3, /*disk_inflight_cap=*/1, backend);
  PrefetchGovernor::Config gov_cfg;
  gov_cfg.budget_blocks = 128;
  gov_cfg.min_depth = 2;
  gov_cfg.max_depth = 16;
  gov_cfg.adapt_windows = 2;
  PrefetchGovernor governor(gov_cfg);
  if (engine_on) dev.set_io_engine(&engine);
  if (governed) dev.set_prefetch_governor(&governor);

  WorkloadCost cost;
  IoProbe probe(dev);
  Rng rng(11);
  ExtVector<uint64_t> input(&dev);
  {
    ExtVector<uint64_t>::Writer w(&input, depth);
    for (int i = 0; i < 6000; ++i) w.Append(rng.Next());
    EXPECT_TRUE(w.Finish().ok());
  }
  {
    std::vector<uint64_t> scanned;
    EXPECT_TRUE(input.ReadAll(&scanned, depth).ok());
    EXPECT_EQ(scanned.size(), 6000u);
  }
  ExternalSorter<uint64_t> sorter(
      &dev, Options{.memory_budget = 8 * kBlock, .prefetch_depth = depth});
  sorter.set_forecast_merge(true);
  ExtVector<uint64_t> out(&dev);
  EXPECT_TRUE(sorter.Sort(input, &out).ok());
  EXPECT_GT(sorter.metrics().initial_runs, 1u);
  EXPECT_TRUE(out.ReadAll(&cost.output).ok());
  cost.parent = probe.delta();
  for (size_t d = 0; d < dev.num_disks(); ++d) {
    cost.children.push_back(dev.disk_stats(d));
  }
  cost.parity_writes = dev.redundancy_stats().parity_writes;
  out.Destroy();
  input.Destroy();
  dev.set_io_engine(nullptr);
  dev.set_prefetch_governor(nullptr);
  return cost;
}

TEST(IndependentDiskIdentity, SyncEngineGovernedBitIdentical) {
  WorkloadCost sync = RunWorkload("sync", 0, false, false);
  WorkloadCost inline8 = RunWorkload("inline8", 8, false, false);
  WorkloadCost armed = RunWorkload("armed", 8, true, false);
  WorkloadCost governed = RunWorkload("governed", 8, true, true);
  EXPECT_TRUE(std::is_sorted(sync.output.begin(), sync.output.end()));
  EXPECT_EQ(sync.output, inline8.output);
  EXPECT_EQ(sync.output, armed.output);
  EXPECT_EQ(sync.output, governed.output);
  // The two-plane contract: engine on vs off at the same depth is
  // bit-identical — deferred accounting reproduces the counted path.
  EXPECT_EQ(inline8.parent, armed.parent);
  // Depth-independent charges match the per-block baseline everywhere:
  // physical transfers, bytes, and reads (streams charge reads per
  // consumed block; the forecast merge's waves follow placement, not
  // staging depth).
  auto expect_depth_independent_eq = [&](const WorkloadCost& c,
                                         const char* what) {
    EXPECT_EQ(sync.parent.block_reads, c.parent.block_reads) << what;
    EXPECT_EQ(sync.parent.block_writes, c.parent.block_writes) << what;
    EXPECT_EQ(sync.parent.bytes_read, c.parent.bytes_read) << what;
    EXPECT_EQ(sync.parent.bytes_written, c.parent.bytes_written) << what;
    EXPECT_EQ(sync.parent.parallel_reads, c.parent.parallel_reads) << what;
    ASSERT_EQ(sync.children.size(), c.children.size());
    for (size_t d = 0; d < sync.children.size(); ++d) {
      EXPECT_EQ(sync.children[d], c.children[d]) << what << " child " << d;
    }
  };
  expect_depth_independent_eq(inline8, "inline8");
  expect_depth_independent_eq(armed, "armed");
  expect_depth_independent_eq(governed, "governed");
  // The write-wave contract: grouped flushes scatter each group across
  // distinct disks, so depth-8 configs need strictly fewer parallel
  // write steps than the per-block baseline. The governed run's group
  // boundaries adapt at runtime, so only the direction is pinned.
  EXPECT_LT(armed.parent.parallel_writes, sync.parent.parallel_writes);
  EXPECT_LE(governed.parent.parallel_writes, sync.parent.parallel_writes);
}

// The transport never touches the cost model: the same armed workload on
// the io_uring backend must reproduce the worker-pool run bit for bit —
// parent, children, and output.
TEST(IndependentDiskIdentity, IoUringBackendBitIdenticalToWorkerPool) {
  if (!IoRing::CompiledIn() || !IoRing::KernelSupported()) {
    GTEST_SKIP() << "io_uring not available on this kernel/build";
  }
  WorkloadCost wp = RunWorkload("bk_wp", 8, true, false);
  WorkloadCost ur =
      RunWorkload("bk_ur", 8, true, false, IoBackend::kIoUring);
  EXPECT_EQ(wp.output, ur.output);
  EXPECT_EQ(wp.parent, ur.parent);
  ASSERT_EQ(wp.children.size(), ur.children.size());
  for (size_t d = 0; d < wp.children.size(); ++d) {
    EXPECT_EQ(wp.children[d], ur.children[d]) << "child " << d;
  }
}

// The redundancy plane's engine branch: with parity armed at width D or
// at width 2 (mirroring), the engine-on run (disk-tagged per-disk jobs
// on both planes) must reproduce the engine-off run bit for bit —
// output, parent and child IoStats, and the physical parity-write count.
TEST(IndependentDiskIdentity, RedundantEngineOnMatchesEngineOff) {
  for (size_t width : {size_t{0}, size_t{2}}) {
    const std::string name = width == 0 ? "par" : "mir";
    SCOPED_TRACE(name);
    WorkloadCost off = RunWorkload(name + "_off", 8, false, false,
                                   IoBackend::kWorkerPool,
                                   /*parity=*/true, width);
    WorkloadCost on = RunWorkload(name + "_on", 8, true, false,
                                  IoBackend::kWorkerPool, /*parity=*/true,
                                  width);
    EXPECT_TRUE(std::is_sorted(off.output.begin(), off.output.end()));
    EXPECT_EQ(off.output, on.output);
    EXPECT_EQ(off.parent, on.parent);
    ASSERT_EQ(off.children.size(), on.children.size());
    for (size_t d = 0; d < off.children.size(); ++d) {
      EXPECT_EQ(off.children[d], on.children[d]) << "child " << d;
    }
    EXPECT_GT(off.parity_writes, 0u);
    EXPECT_EQ(off.parity_writes, on.parity_writes);
  }
}

// ------------------------------------------------------- forecast merge

TEST(ForecastMerge, EquivalentOutputFewerParallelSteps) {
  const size_t kItems = 20000;
  Rng rng(21);
  std::vector<uint64_t> data(kItems);
  for (auto& v : data) v = rng.Next();

  auto sort_with = [&](bool forecast, IoStats* delta,
                       ExternalSorter<uint64_t>::Metrics* metrics) {
    IndependentDiskDevice dev(4, kBlock, kSeed);
    ExtVector<uint64_t> input(&dev);
    EXPECT_TRUE(input.AppendAll(data.data(), data.size()).ok());
    ExternalSorter<uint64_t> sorter(&dev,
                                    Options{.memory_budget = 16 * kBlock});
    sorter.set_forecast_merge(forecast);
    ExtVector<uint64_t> out(&dev);
    IoProbe probe(dev);
    EXPECT_TRUE(sorter.Sort(input, &out).ok());
    *delta = probe.delta();
    *metrics = sorter.metrics();
    std::vector<uint64_t> result;
    EXPECT_TRUE(out.ReadAll(&result).ok());
    return result;
  };

  IoStats plain_cost, forecast_cost;
  ExternalSorter<uint64_t>::Metrics plain_m, forecast_m;
  std::vector<uint64_t> plain = sort_with(false, &plain_cost, &plain_m);
  std::vector<uint64_t> forecast =
      sort_with(true, &forecast_cost, &forecast_m);
  ASSERT_GT(plain_m.initial_runs, 1u);
  EXPECT_TRUE(std::is_sorted(plain.begin(), plain.end()));
  EXPECT_EQ(plain, forecast);
  // Same physical transfers, merge schedule included.
  EXPECT_EQ(plain_cost.block_reads, forecast_cost.block_reads);
  EXPECT_EQ(plain_cost.block_writes, forecast_cost.block_writes);
  // The forecast schedule batches refills into distinct-disk waves: the
  // merge's read steps shrink (run formation reads are unchanged).
  EXPECT_LT(forecast_cost.parallel_reads, plain_cost.parallel_reads);
}

TEST(ForecastMerge, SingleDiskDegeneratesToPlainCosts) {
  const size_t kItems = 8000;
  Rng rng(22);
  std::vector<uint64_t> data(kItems);
  for (auto& v : data) v = rng.Next();
  auto run = [&](bool forecast, IoStats* delta) {
    MemoryBlockDevice dev(kBlock);
    ExtVector<uint64_t> input(&dev);
    EXPECT_TRUE(input.AppendAll(data.data(), data.size()).ok());
    ExternalSorter<uint64_t> sorter(&dev, Options{.memory_budget = 8 * kBlock});
    sorter.set_forecast_merge(forecast);
    ExtVector<uint64_t> out(&dev);
    IoProbe probe(dev);
    EXPECT_TRUE(sorter.Sort(input, &out).ok());
    *delta = probe.delta();
    std::vector<uint64_t> result;
    EXPECT_TRUE(out.ReadAll(&result).ok());
    return result;
  };
  IoStats plain_cost, forecast_cost;
  std::vector<uint64_t> plain = run(false, &plain_cost);
  std::vector<uint64_t> forecast = run(true, &forecast_cost);
  EXPECT_EQ(plain, forecast);
  // Route 0 everywhere: every wave is one block, costs exactly match.
  EXPECT_EQ(plain_cost, forecast_cost);
}

// --------------------------------------------------------- faulty child

TEST(IndependentDiskFaults, FaultyChildPropagatesReadError) {
  MemoryBlockDevice faulty_inner(kBlock);
  std::vector<std::unique_ptr<BlockDevice>> disks;
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  disks.push_back(std::make_unique<FaultyBlockDevice>(&faulty_inner,
                                                      /*fail_read_at=*/10));
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  IndependentDiskDevice dev(std::move(disks), kSeed);
  ASSERT_TRUE(dev.valid());
  ASSERT_TRUE(dev.SupportsUncounted());

  Rng rng(31);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Next();
  ExtVector<uint64_t> vec(&dev);
  ASSERT_TRUE(vec.AppendAll(data.data(), data.size(), /*depth=*/8).ok());
  std::vector<uint64_t> out;
  Status s = vec.ReadAll(&out, /*depth=*/8);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(IndependentDiskFaults, FaultyChildPropagatesWriteError) {
  MemoryBlockDevice faulty_inner(kBlock);
  std::vector<std::unique_ptr<BlockDevice>> disks;
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  disks.push_back(std::make_unique<FaultyBlockDevice>(
      &faulty_inner, FaultyBlockDevice::kNever, /*fail_write_at=*/12));
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  IndependentDiskDevice dev(std::move(disks), kSeed);
  ASSERT_TRUE(dev.valid());

  Rng rng(32);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Next();
  ExtVector<uint64_t> vec(&dev);
  Status s = vec.AppendAll(data.data(), data.size(), /*depth=*/8);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(IndependentDiskFaults, ForecastMergeSurfacesReadError) {
  MemoryBlockDevice faulty_inner(kBlock);
  std::vector<std::unique_ptr<BlockDevice>> disks;
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  disks.push_back(std::make_unique<FaultyBlockDevice>(&faulty_inner,
                                                      /*fail_read_at=*/60));
  IndependentDiskDevice dev(std::move(disks), kSeed);
  ASSERT_TRUE(dev.valid());
  Rng rng(33);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Next();
  ExtVector<uint64_t> input(&dev);
  ASSERT_TRUE(input.AppendAll(data.data(), data.size()).ok());
  ExternalSorter<uint64_t> sorter(&dev, Options{.memory_budget = 8 * kBlock});
  sorter.set_forecast_merge(true);
  ExtVector<uint64_t> out(&dev);
  Status s = sorter.Sort(input, &out);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

// ------------------------------------------------------ fault tolerance

/// Four Faulty-wrapped memory children so clean and faulted runs share
/// one stats structure; `inject` arms transient schedules on two heads.
struct FaultWorkloadResult {
  IoStats parent;
  std::vector<IoStats> children;
  std::vector<uint64_t> output;
};

FaultWorkloadResult RunTransientFaultWorkload(bool inject,
                                              RetryPolicy* policy,
                                              IoEngine* engine) {
  std::vector<std::unique_ptr<MemoryBlockDevice>> inners;
  std::vector<FaultyBlockDevice*> wrappers;
  std::vector<std::unique_ptr<BlockDevice>> disks;
  for (int d = 0; d < 4; ++d) {
    inners.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
    auto w = std::make_unique<FaultyBlockDevice>(inners.back().get());
    wrappers.push_back(w.get());
    disks.push_back(std::move(w));
  }
  IndependentDiskDevice dev(std::move(disks), kSeed);
  EXPECT_TRUE(dev.valid());
  if (engine != nullptr) dev.set_io_engine(engine);
  if (policy != nullptr) dev.set_retry_policy(policy);
  if (inject) {
    // Fail one read attempt twice and one write attempt twice on head 1,
    // one of each once on head 3 — all inside the sort's I/O schedule.
    wrappers[1]->SetTransientReadFault(/*at_read=*/50, /*times=*/2);
    wrappers[1]->SetTransientWriteFault(/*at_write=*/30, /*times=*/2);
    wrappers[3]->SetTransientReadFault(/*at_read=*/80, /*times=*/1);
    wrappers[3]->SetTransientWriteFault(/*at_write=*/40, /*times=*/1);
  }

  FaultWorkloadResult res;
  Rng rng(41);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Next();
  IoProbe probe(dev);
  ExtVector<uint64_t> input(&dev);
  EXPECT_TRUE(input.AppendAll(data.data(), data.size(), /*depth=*/8).ok());
  ExternalSorter<uint64_t> sorter(
      &dev, Options{.memory_budget = 8 * kBlock, .prefetch_depth = 8});
  sorter.set_forecast_merge(true);
  ExtVector<uint64_t> out(&dev);
  Status s = sorter.Sort(input, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(sorter.metrics().initial_runs, 1u);
  EXPECT_TRUE(out.ReadAll(&res.output).ok());
  res.parent = probe.delta();
  for (size_t d = 0; d < dev.num_disks(); ++d) {
    res.children.push_back(dev.disk_stats(d));
  }
  dev.set_io_engine(nullptr);
  return res;
}

void ExpectBitIdentical(const FaultWorkloadResult& a,
                        const FaultWorkloadResult& b, const char* what) {
  EXPECT_EQ(a.output, b.output) << what;
  EXPECT_EQ(a.parent, b.parent) << what;
  ASSERT_EQ(a.children.size(), b.children.size());
  for (size_t d = 0; d < a.children.size(); ++d) {
    EXPECT_EQ(a.children[d], b.children[d]) << what << " child " << d;
  }
}

// The acceptance bar of the fault-tolerance plane: an external sort on
// independent disks completes under injected transient faults with
// logical IoStats — parent and every child — bit-identical to the
// fault-free run. Retries happen (the physical gauge shows them) but the
// cost model cannot see them.
TEST(IndependentDiskFaultTolerance, TransientFaultsSortStatsIdentical) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 3;
  cfg.base_us = 0;  // no wall-clock sleeping inside the test
  RetryPolicy policy(cfg);
  FaultWorkloadResult clean =
      RunTransientFaultWorkload(false, nullptr, nullptr);
  FaultWorkloadResult faulted =
      RunTransientFaultWorkload(true, &policy, nullptr);
  EXPECT_TRUE(std::is_sorted(clean.output.begin(), clean.output.end()));
  EXPECT_GE(policy.retries(), 6u);  // every scheduled fault really fired
  ExpectBitIdentical(clean, faulted, "sync");
}

TEST(IndependentDiskFaultTolerance, TransientFaultsWithEngineStatsIdentical) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 3;
  cfg.base_us = 0;
  RetryPolicy policy(cfg);
  IoEngine clean_eng(3);
  IoEngine fault_eng(3);
  FaultWorkloadResult clean =
      RunTransientFaultWorkload(false, nullptr, &clean_eng);
  FaultWorkloadResult faulted =
      RunTransientFaultWorkload(true, &policy, &fault_eng);
  EXPECT_GE(policy.retries(), 6u);
  ExpectBitIdentical(clean, faulted, "engine");
}

// Mid-run io_uring degradation: injected submission failures force the
// ring path to finish in-flight runs via the worker transfers and, after
// the failure limit, disable the ring for good — with the cost model and
// the data none the wiser.
TEST(IndependentDiskFaultTolerance, RingSubmitFailuresDegradeBitIdentical) {
  if (!IoRing::CompiledIn() || !IoRing::KernelSupported()) {
    GTEST_SKIP() << "io_uring not available on this kernel/build";
  }
  WorkloadCost wp = RunWorkload("ft_wp", 8, true, false);
  IoRing::ForceSubmitFailuresForTest(IoEngine::kRingFailureLimit);
  WorkloadCost ur =
      RunWorkload("ft_ur_fault", 8, true, false, IoBackend::kIoUring);
  IoRing::ForceSubmitFailuresForTest(0);
  EXPECT_EQ(wp.output, ur.output);
  EXPECT_EQ(wp.parent, ur.parent);
  ASSERT_EQ(wp.children.size(), ur.children.size());
  for (size_t d = 0; d < wp.children.size(); ++d) {
    EXPECT_EQ(wp.children[d], ur.children[d]) << "child " << d;
  }
}

TEST(IndependentDiskFaultTolerance, QuarantinedDiskDivertsPlacement) {
  IndependentDiskDevice dev(4, kBlock, kSeed);
  IoEngine eng(2);
  dev.set_io_engine(&eng);
  // Find a victim head and write one block onto it.
  uint64_t probe_id = dev.Allocate();
  size_t sick = dev.disk_of(probe_id);
  uint64_t tag = dev.EngineDiskTag(probe_id);
  std::vector<char> block(kBlock, 42);
  ASSERT_TRUE(dev.Write(probe_id, block.data()).ok());

  for (int i = 0; i < 3; ++i) eng.ReportDiskResult(tag, false);
  ASSERT_TRUE(eng.DiskQuarantined(tag));
  // New blocks avoid the sick head entirely...
  for (int i = 0; i < 32; ++i) {
    uint64_t id = dev.Allocate();
    EXPECT_NE(dev.disk_of(id), sick) << "allocation " << i;
  }
  // ...while its existing blocks stay readable (demand traffic is what
  // retry serves and what can lift the quarantine).
  std::vector<char> back(kBlock, 0);
  ASSERT_TRUE(dev.Read(probe_id, back.data()).ok());
  EXPECT_EQ(back[0], 42);

  // Recovery evidence re-admits the head to the placement cycle.
  for (int i = 0; i < 50 && eng.DiskQuarantined(tag); ++i) {
    eng.ReportDiskResult(tag, true, 1000);
  }
  ASSERT_FALSE(eng.DiskQuarantined(tag));
  bool used_again = false;
  for (int i = 0; i < 16 && !used_again; ++i) {
    used_again = dev.disk_of(dev.Allocate()) == sick;
  }
  EXPECT_TRUE(used_again);
  dev.set_io_engine(nullptr);
}

TEST(IndependentDiskFaultTolerance, AllDisksQuarantinedStillPlaces) {
  IndependentDiskDevice dev(2, kBlock, kSeed);
  IoEngine eng(1);
  dev.set_io_engine(&eng);
  uint64_t a = dev.Allocate();
  uint64_t b = dev.Allocate();
  for (int i = 0; i < 3; ++i) {
    eng.ReportDiskResult(dev.EngineDiskTag(a), false);
    eng.ReportDiskResult(dev.EngineDiskTag(b), false);
  }
  ASSERT_EQ(eng.quarantined_disks(), 2u);
  // With every head sick there is nowhere better: placement proceeds.
  uint64_t c = dev.Allocate();
  EXPECT_LT(dev.disk_of(c), 2u);
  std::vector<char> block(kBlock, 7);
  EXPECT_TRUE(dev.Write(c, block.data()).ok());
  dev.set_io_engine(nullptr);
}

// ------------------------------------------ per-route governor history

TEST(PerRouteGovernor, OneDisksWasteDoesNotDisarmOtherHeads) {
  PrefetchGovernor::Config cfg;
  cfg.budget_blocks = 128;
  cfg.min_depth = 2;
  cfg.max_depth = 16;
  cfg.initial_depth = 8;
  cfg.adapt_windows = 4;
  cfg.waste_disarm_ewma = 0.5;
  cfg.probe_every = 100;  // no probes inside this test
  uint64_t now = 0;
  PrefetchGovernor gov(cfg, [&now] { return now; });
  // Route 1 builds a wasteful record: a lease that throws its staging
  // away and dies young.
  {
    auto lease = gov.Arm(8, /*route=*/1);
    ASSERT_GT(lease->depth(), 0u);
    lease->ReportWindow(/*consumed=*/0, /*unused=*/8);
  }
  EXPECT_GT(gov.route_shape(1).waste_ewma, cfg.waste_disarm_ewma);
  // Route 1 is now refused; routes 2 and 0 still arm at full depth.
  auto refused = gov.Arm(8, /*route=*/1);
  EXPECT_EQ(refused->depth(), 0u);
  auto other = gov.Arm(8, /*route=*/2);
  EXPECT_EQ(other->depth(), 8u);
  auto unrouted = gov.Arm(8, /*route=*/0);
  EXPECT_EQ(unrouted->depth(), 8u);
}

// ------------------------------------------------ engine saturation gate

/// Holds the engine's only worker busy until released, with one more job
/// queued behind it: saturated() == true while held.
class EngineSaturator {
 public:
  explicit EngineSaturator(IoEngine* engine) : engine_(engine) {
    hold_ticket_ = engine->Submit([this] {
      std::unique_lock<std::mutex> lock(mu_);
      started_ = true;
      started_cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
      return Status::OK();
    });
    backlog_ticket_ = engine->Submit([] { return Status::OK(); });
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait(lock, [this] { return started_; });
  }
  void Release() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    (void)engine_->Wait(hold_ticket_);
    (void)engine_->Wait(backlog_ticket_);
  }
  ~EngineSaturator() {
    if (!released_) Release();
  }

 private:
  IoEngine* engine_;
  IoEngine::Ticket hold_ticket_, backlog_ticket_;
  std::mutex mu_;
  std::condition_variable cv_, started_cv_;
  bool started_ = false;
  bool released_ = false;
};

TEST(EngineSaturation, GaugeReflectsBusyWorkersAndBacklog) {
  IoEngine engine(1);
  EXPECT_FALSE(engine.saturated());
  {
    EngineSaturator sat(&engine);
    EXPECT_EQ(engine.busy_workers(), 1u);
    EXPECT_GE(engine.queued_jobs(), 1u);
    EXPECT_TRUE(engine.saturated());
    sat.Release();
  }
  EXPECT_FALSE(engine.saturated());
  EXPECT_EQ(engine.queued_jobs(), 0u);
}

TEST(EngineSaturation, GovernorRefusesDepthGrowsWhileSaturated) {
  PrefetchGovernor::Config cfg;
  cfg.budget_blocks = 128;
  cfg.min_depth = 2;
  cfg.max_depth = 16;
  cfg.initial_depth = 4;
  cfg.adapt_windows = 2;
  cfg.stall_floor_ns = 1000;
  uint64_t now = 0;
  PrefetchGovernor gov(cfg, [&now] { return now; });
  IoEngine engine(1);
  gov.AttachEngine(&engine);
  auto lease = gov.Arm(16);
  ASSERT_EQ(lease->depth(), 4u);
  {
    EngineSaturator sat(&engine);
    ASSERT_TRUE(engine.saturated());
    // A fully stalled period that would normally double depth.
    for (int w = 0; w < 2; ++w) {
      uint64_t t0 = lease->BeginWait();
      now += 5000;
      lease->EndWait(t0);
      lease->ReportWindow(lease->depth(), 0);
    }
    EXPECT_EQ(lease->depth(), 4u);  // held: workers are the bottleneck
    EXPECT_EQ(gov.saturation_skips(), 1u);
    sat.Release();
  }
  // Engine drained: the same evidence grows depth again.
  for (int w = 0; w < 2; ++w) {
    uint64_t t0 = lease->BeginWait();
    now += 5000;
    lease->EndWait(t0);
    lease->ReportWindow(lease->depth(), 0);
  }
  EXPECT_EQ(lease->depth(), 8u);
}

TEST(EngineSaturation, ArbiterDeniesStagingGrowsWhileSaturated) {
  MemoryArbiter::Config cfg;
  cfg.budget_bytes = 64 * 4096;
  cfg.block_size = 4096;
  uint64_t now = 0;
  MemoryArbiter arb(cfg, [&now] { return now; });
  IoEngine engine(1);
  arb.AttachEngine(&engine);
  auto staging = arb.LeaseStaging(16);
  {
    EngineSaturator sat(&engine);
    ASSERT_TRUE(engine.saturated());
    EXPECT_EQ(staging->RequestGrow(8), 0u);
    EXPECT_EQ(arb.saturation_denied_grows(), 1u);
    EXPECT_EQ(staging->target_blocks(), 16u);
    sat.Release();
  }
  // Free headroom exists; a drained engine no longer blocks the grow.
  EXPECT_EQ(staging->RequestGrow(8), 8u);
  EXPECT_EQ(staging->target_blocks(), 24u);
}

}  // namespace
}  // namespace vem
