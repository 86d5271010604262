// Redundancy-plane tests: RAID-5-style rotated parity on
// IndependentDiskDevice (group width 2 is mirroring), degraded mode, and
// rebuild-onto-spare.
//
// The acceptance bar (ISSUE PR 10): with redundancy armed at D=4 and one
// child fail-stopped MID-workload, an external sort and a batched
// random-read scan COMPLETE, with logical IoStats — parent and every
// child — bit-identical to the healthy run. Reconstruction traffic is
// visible only on the RedundancyStats gauge. A rebuild onto a hot spare
// then restores non-degraded reads.
//
// Engine-off on the stats-identity workloads so every run is exactly
// deterministic; engine integration (fail-stop latching quarantine, a
// watchdog timeout on one head) is covered separately below.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ext_vector.h"
#include "io/faulty_device.h"
#include "io/independent_disk_device.h"
#include "io/io_engine.h"
#include "io/memory_block_device.h"
#include "io/rebuild_manager.h"
#include "io/retry_policy.h"
#include "sort/external_sort.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 256;
constexpr uint64_t kSeed = 0x5EED5EED;

/// Fill `buf` with a per-(id, version) pattern so misdirected or stale
/// reconstructions cannot collide with the expected content.
void PatternBlock(char* buf, uint64_t id, uint64_t version) {
  Rng rng(id * 1000003 + version);
  for (size_t i = 0; i + sizeof(uint64_t) <= kBlock; i += sizeof(uint64_t)) {
    uint64_t v = rng.Next();
    std::memcpy(buf + i, &v, sizeof(v));
  }
}

/// D=4 device of Faulty(Memory) children, parity armed when `parity`
/// (`group_width` 2 mirrors every block).
struct RedundantRig {
  std::vector<std::unique_ptr<MemoryBlockDevice>> inners;
  std::vector<FaultyBlockDevice*> wrappers;
  std::unique_ptr<IndependentDiskDevice> dev;

  explicit RedundantRig(bool parity, size_t group_width = 0,
                        size_t num_disks = 4) {
    std::vector<std::unique_ptr<BlockDevice>> disks;
    for (size_t d = 0; d < num_disks; ++d) {
      inners.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
      auto w = std::make_unique<FaultyBlockDevice>(inners.back().get());
      wrappers.push_back(w.get());
      disks.push_back(std::move(w));
    }
    dev = std::make_unique<IndependentDiskDevice>(std::move(disks), kSeed);
    EXPECT_TRUE(dev->valid());
    if (parity) dev->SetParity(group_width);
    EXPECT_EQ(dev->parity_group_width() != 0, parity);
  }
};

// ------------------------------------------------- fail-stop injection

TEST(FailStop, SetDeadAfterRejectsEveryFurtherAttempt) {
  MemoryBlockDevice inner(kBlock);
  FaultyBlockDevice dev(&inner);
  uint64_t id = dev.Allocate();
  char buf[kBlock];
  PatternBlock(buf, id, 0);
  ASSERT_TRUE(dev.Write(id, buf).ok());  // attempt #1
  dev.SetDeadAfter(2);                   // attempt #2 is the last good one
  char out[kBlock];
  EXPECT_TRUE(dev.Read(id, out).ok());  // attempt #2
  EXPECT_FALSE(dev.dead());
  Status s = dev.Read(id, out);  // attempt #3: dead
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_FALSE(s.IsTransient()) << "fail-stop must be permanent";
  EXPECT_TRUE(dev.dead());
  EXPECT_TRUE(dev.Write(id, buf).IsIOError());
  EXPECT_TRUE(dev.ReadUncounted(id, out).IsIOError());
  // Deferred accounting still reaches a dead device (it moves no bytes).
  IoStats before = dev.stats();
  dev.AccountReads(3);
  EXPECT_EQ(dev.stats().block_reads, before.block_reads + 3);
}

TEST(FailStop, EscalatesToLatchedQuarantine) {
  MemoryBlockDevice inner(kBlock);
  FaultyBlockDevice faulty(&inner);
  faulty.SetDeadAfter(0);  // dead from the first attempt
  RetryPolicy::Config cfg;
  cfg.retry_limit = 2;
  cfg.base_us = 0;
  RetryPolicy policy(cfg);
  IoEngine engine(2);
  const uint64_t tag = reinterpret_cast<uintptr_t>(&faulty);
  char buf[kBlock];
  Status s = RunWithDiskRetry(&policy, &engine, tag, /*key=*/0,
                              [&] { return faulty.Read(0, buf); });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(engine.DiskQuarantined(tag));
  auto health = engine.DiskHealth(tag);
  EXPECT_TRUE(health.fail_stopped);
  EXPECT_TRUE(health.quarantined);
  // Success evidence cannot clear a fail-stop latch (a real dead head
  // never produces successes; this guards against gauge cross-talk).
  for (int i = 0; i < 64; ++i) engine.ReportDiskResult(tag, true, 100);
  EXPECT_TRUE(engine.DiskQuarantined(tag));
  // Only the rebuild swap (ForgetDisk) retires the record.
  engine.ForgetDisk(tag);
  EXPECT_FALSE(engine.DiskQuarantined(tag));
  EXPECT_EQ(engine.HealthSnapshot().count(tag), 0u);
}

// A hung head is not a dead one: when the engine watchdog abandons one
// head's share of a redundant batch read, the batch must fail with
// Timeout — not report success over a buffer nothing filled — and the
// abandoned job, finishing after the call returned, must touch only
// what it owns. Disk 0's share is the batch's inline job, slowed well
// past a thread wake-up so the lone worker has picked up disk 1's share
// before the wait could steal it; disk 1's share stalls. At D=2 parity
// groups have width 2, so the parity case is the mirrored one.
TEST(RedundancyWatchdog, TimedOutHeadFailsTheBatch) {
  for (bool parity : {false, true}) {
    SCOPED_TRACE(parity);
    Options opts;
    opts.io_threads = 1;
    opts.io_deadline_ms = 50;
    IoEngine engine(opts);
    RedundantRig rig(parity, /*group_width=*/0, /*num_disks=*/2);
    uint64_t ids[2];
    char block[kBlock];
    for (uint64_t& id : ids) {
      id = rig.dev->Allocate();
      PatternBlock(block, id, 0);
      ASSERT_TRUE(rig.dev->Write(id, block).ok());
    }
    ASSERT_NE(rig.dev->disk_of(ids[0]), rig.dev->disk_of(ids[1]));
    if (rig.dev->disk_of(ids[0]) != 0) std::swap(ids[0], ids[1]);
    rig.dev->set_io_engine(&engine);
    rig.wrappers[0]->SetLatency(200000);
    FaultyBlockDevice* hung = rig.wrappers[1];
    hung->SetStallRead(hung->reads_seen() + 1);
    std::vector<char> out(2 * kBlock);
    void* bufs[2] = {out.data(), out.data() + kBlock};
    Status s = rig.dev->ReadBatch(ids, bufs, 2);
    EXPECT_TRUE(s.IsTimeout()) << s.ToString();
    EXPECT_FALSE(rig.dev->DiskDead(1)) << "a timeout is not a dead head";
    hung->ReleaseStalls();
    while (engine.busy_workers() != 0 || engine.queued_jobs() != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rig.dev->set_io_engine(nullptr);
  }
}

// --------------------------------------------------- parity placement

TEST(RedundancyPlacement, ParityGroupMembersLandOnDistinctDisks) {
  RedundantRig rig(/*parity=*/true);  // G = D = 4 -> 3 data + parity
  ASSERT_EQ(rig.dev->parity_group_width(), 4u);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 96; ++i) ids.push_back(rig.dev->Allocate());
  const size_t gd = rig.dev->parity_group_width() - 1;
  for (size_t g = 0; g * gd < ids.size(); ++g) {
    uint64_t mask = 0;
    for (size_t k = 0; k < gd && g * gd + k < ids.size(); ++k) {
      size_t d = rig.dev->disk_of(ids[g * gd + k]);
      ASSERT_LT(d, 4u);
      EXPECT_EQ((mask >> d) & 1, 0u)
          << "group " << g << " colocates two members on disk " << d;
      mask |= 1ull << d;
    }
  }
}

TEST(RedundancyPlacement, ArmingIsRejectedAfterFirstAllocate) {
  IndependentDiskDevice dev(4, kBlock, kSeed);
  (void)dev.Allocate();
  dev.SetParity();
  EXPECT_EQ(dev.parity_group_width(), 0u);
}

// ------------------------------------------------- parity consistency

// Satellite: after a mix of writes, overwrites, frees and reallocations,
// kill each disk in turn (same seed => same placement) — every live
// block must reconstruct to exactly its last-written content.
TEST(RedundancyConsistency, ParityConsistentAfterRandomWritesAnyDiskDead) {
  for (size_t kill = 0; kill < 4; ++kill) {
    RedundantRig rig(/*parity=*/true);
    std::map<uint64_t, std::vector<char>> shadow;
    std::vector<uint64_t> live;
    Rng rng(kSeed + 7);  // same op sequence for every `kill`
    for (int i = 0; i < 64; ++i) {
      uint64_t id = rig.dev->Allocate();
      live.push_back(id);
      std::vector<char> buf(kBlock);
      PatternBlock(buf.data(), id, 0);
      ASSERT_TRUE(rig.dev->Write(id, buf.data()).ok());
      shadow[id] = std::move(buf);
    }
    // Random single-block overwrites...
    for (int i = 0; i < 48; ++i) {
      uint64_t id = live[rng.Next() % live.size()];
      std::vector<char> buf(kBlock);
      PatternBlock(buf.data(), id, 1 + i);
      ASSERT_TRUE(rig.dev->Write(id, buf.data()).ok());
      shadow[id] = std::move(buf);
    }
    // ...a batched overwrite (exercises full-stripe and RMW paths)...
    {
      std::vector<uint64_t> bids(live.begin(), live.begin() + 24);
      std::vector<std::vector<char>> payload(bids.size(),
                                             std::vector<char>(kBlock));
      std::vector<const void*> ptrs;
      for (size_t i = 0; i < bids.size(); ++i) {
        PatternBlock(payload[i].data(), bids[i], 99);
        ptrs.push_back(payload[i].data());
      }
      ASSERT_TRUE(
          rig.dev->WriteBatch(bids.data(), ptrs.data(), bids.size()).ok());
      for (size_t i = 0; i < bids.size(); ++i) shadow[bids[i]] = payload[i];
    }
    // ...frees (XOR-out) and reallocations.
    for (int i = 0; i < 12; ++i) {
      size_t at = rng.Next() % live.size();
      rig.dev->Free(live[at]);
      shadow.erase(live[at]);
      live.erase(live.begin() + at);
    }
    for (int i = 0; i < 6; ++i) {
      uint64_t id = rig.dev->Allocate();
      live.push_back(id);
      std::vector<char> buf(kBlock);
      PatternBlock(buf.data(), id, 7);
      ASSERT_TRUE(rig.dev->Write(id, buf.data()).ok());
      shadow[id] = std::move(buf);
    }

    rig.dev->MarkDiskDead(kill);
    uint64_t degraded_home = 0;
    for (uint64_t id : live) {
      std::vector<char> out(kBlock);
      Status s = rig.dev->Read(id, out.data());
      ASSERT_TRUE(s.ok()) << "disk " << kill << " id " << id << ": "
                          << s.ToString();
      EXPECT_EQ(std::memcmp(out.data(), shadow[id].data(), kBlock), 0)
          << "disk " << kill << " id " << id << " reconstructed wrong bytes";
      if (rig.dev->disk_of(id) == kill) degraded_home++;
    }
    EXPECT_GT(degraded_home, 0u) << "placement left disk " << kill << " empty";
    EXPECT_GE(rig.dev->redundancy_stats().degraded_reads, degraded_home);
  }
}

// Width 2: every group is one data block plus its copy.
TEST(RedundancyConsistency, MirrorServesCopyWhenPrimaryDead) {
  RedundantRig rig(/*parity=*/true, /*group_width=*/2);
  ASSERT_EQ(rig.dev->parity_group_width(), 2u);
  std::map<uint64_t, std::vector<char>> shadow;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 48; ++i) {
    uint64_t id = rig.dev->Allocate();
    ids.push_back(id);
    std::vector<char> buf(kBlock);
    PatternBlock(buf.data(), id, i);
    ASSERT_TRUE(rig.dev->Write(id, buf.data()).ok());
    shadow[id] = std::move(buf);
  }
  rig.dev->MarkDiskDead(2);
  for (uint64_t id : ids) {
    std::vector<char> out(kBlock);
    ASSERT_TRUE(rig.dev->Read(id, out.data()).ok()) << "id " << id;
    EXPECT_EQ(std::memcmp(out.data(), shadow[id].data(), kBlock), 0);
  }
  EXPECT_GT(rig.dev->redundancy_stats().degraded_reads, 0u);
}

// The parity plane's physical transfers ride the child's retry loop like
// the data transfers: one transient fault on the old-data read or on the
// parity write of a small write is retried, the write succeeds, and a
// later degraded read reconstructs the NEW content (a parity write that
// failed after the data landed would leave the group silently stale).
TEST(RedundancyConsistency, TransientParityFaultsAreRetried) {
  RedundantRig rig(/*parity=*/true);
  RetryPolicy::Config cfg;
  cfg.retry_limit = 3;
  cfg.base_us = 0;
  RetryPolicy policy(cfg);
  rig.dev->set_retry_policy(&policy);
  std::vector<uint64_t> ids;
  std::vector<char> buf(kBlock);
  for (int i = 0; i < 6; ++i) {
    ids.push_back(rig.dev->Allocate());
    PatternBlock(buf.data(), ids.back(), 0);
    ASSERT_TRUE(rig.dev->Write(ids.back(), buf.data()).ok());
  }
  const uint64_t id = ids[0];
  const size_t home = rig.dev->disk_of(id);
  for (uint64_t version : {1, 2}) {
    SCOPED_TRACE(version == 1 ? "old-data read fault" : "parity write fault");
    for (size_t d = 0; d < rig.wrappers.size(); ++d) {
      FaultyBlockDevice* w = rig.wrappers[d];
      if (version == 1 && d == home) {
        w->SetTransientReadFault(w->reads_seen() + 1, 1);
      } else if (version == 2 && d != home) {
        w->SetTransientWriteFault(w->writes_seen() + 1, 1);
      }
    }
    const uint64_t retries = policy.retries();
    PatternBlock(buf.data(), id, version);
    Status s = rig.dev->Write(id, buf.data());
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_GT(policy.retries(), retries);
  }
  rig.dev->MarkDiskDead(home);
  std::vector<char> out(kBlock);
  ASSERT_TRUE(rig.dev->Read(id, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), buf.data(), kBlock), 0);
  EXPECT_GT(rig.dev->redundancy_stats().degraded_reads, 0u);
}

TEST(RedundancyConsistency, DegradedReadOfNeverWrittenBlockIsCorruption) {
  RedundantRig rig(/*parity=*/true);
  uint64_t id = rig.dev->Allocate();
  rig.dev->MarkDiskDead(rig.dev->disk_of(id));
  char out[kBlock];
  Status s = rig.dev->Read(id, out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// --------------------------------------------- degraded-mode workloads

struct RedundantWorkloadResult {
  IoStats parent;
  std::vector<IoStats> children;
  std::vector<uint64_t> output;
  RedundancyStats gauge;
};

/// External sort (forecast merge, write-behind depth 8) over a D=4
/// parity device of group width `group_width` (0 = D, 2 = mirroring);
/// when `kill_mid_run`, head 1 fail-stops after its 300th transfer
/// attempt — mid-sort, past the first run formation.
RedundantWorkloadResult RunRedundantSortWorkload(size_t group_width,
                                                 bool kill_mid_run) {
  RedundantRig rig(/*parity=*/true, group_width);
  if (kill_mid_run) rig.wrappers[1]->SetDeadAfter(300);
  RedundantWorkloadResult res;
  Rng rng(41);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Next();
  IoProbe probe(*rig.dev);
  ExtVector<uint64_t> input(rig.dev.get());
  EXPECT_TRUE(input.AppendAll(data.data(), data.size(), /*depth=*/8).ok());
  ExternalSorter<uint64_t> sorter(
      rig.dev.get(), Options{.memory_budget = 8 * kBlock, .prefetch_depth = 8});
  sorter.set_forecast_merge(true);
  ExtVector<uint64_t> out(rig.dev.get());
  Status s = sorter.Sort(input, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(sorter.metrics().initial_runs, 1u);
  EXPECT_TRUE(out.ReadAll(&res.output).ok());
  res.parent = probe.delta();
  for (size_t d = 0; d < rig.dev->num_disks(); ++d) {
    res.children.push_back(rig.dev->disk_stats(d));
  }
  res.gauge = rig.dev->redundancy_stats();
  if (kill_mid_run) {
    EXPECT_TRUE(rig.wrappers[1]->dead()) << "fail-stop never fired";
    EXPECT_TRUE(rig.dev->DiskDead(1)) << "device never latched the head";
  }
  return res;
}

void ExpectBitIdentical(const RedundantWorkloadResult& a,
                        const RedundantWorkloadResult& b, const char* what) {
  EXPECT_EQ(a.output, b.output) << what;
  EXPECT_EQ(a.parent, b.parent) << what;
  ASSERT_EQ(a.children.size(), b.children.size());
  for (size_t d = 0; d < a.children.size(); ++d) {
    EXPECT_EQ(a.children[d], b.children[d]) << what << " child " << d;
  }
}

// THE tentpole acceptance test: kill one of four heads mid-sort under
// parity — the sort completes by reconstruction, and the logical cost
// model cannot tell the runs apart. Only the physical gauge can.
TEST(RedundancyDegraded, KillOneDiskMidSortParityStatsIdentical) {
  RedundantWorkloadResult healthy = RunRedundantSortWorkload(0, false);
  RedundantWorkloadResult degraded = RunRedundantSortWorkload(0, true);
  EXPECT_TRUE(std::is_sorted(healthy.output.begin(), healthy.output.end()));
  ExpectBitIdentical(healthy, degraded, "parity");
  EXPECT_EQ(healthy.gauge.degraded_reads, 0u);
  EXPECT_GT(healthy.gauge.parity_writes, 0u);  // parity maintained anyway
  EXPECT_GT(degraded.gauge.degraded_reads, 0u);
  EXPECT_GT(degraded.gauge.degraded_writes, 0u);
}

TEST(RedundancyDegraded, KillOneDiskMidSortMirrorStatsIdentical) {
  RedundantWorkloadResult healthy = RunRedundantSortWorkload(2, false);
  RedundantWorkloadResult degraded = RunRedundantSortWorkload(2, true);
  ExpectBitIdentical(healthy, degraded, "mirror");
  EXPECT_GT(degraded.gauge.degraded_reads, 0u);
  // Mirroring and wider parity are interchangeable at the data level —
  // the sorted output is the same; only the physical redundancy traffic
  // (and, placement being width-dependent, the wave counts) differs.
  RedundantWorkloadResult parity = RunRedundantSortWorkload(0, true);
  EXPECT_EQ(healthy.output, parity.output);
}

// Batched random reads (the PDM's other canonical workload): a head
// fail-stopping in the MIDDLE of the batched scan leaves the counted
// batch accounting bit-identical — mid-batch failures are topped up on
// the dead child's deferred plane.
TEST(RedundancyDegraded, BatchedRandomReadsMidBatchDeathStatsIdentical) {
  auto run = [](bool kill) {
    RedundantRig rig(/*parity=*/true);
    std::vector<uint64_t> ids;
    std::vector<std::vector<char>> payload;
    for (int i = 0; i < 240; ++i) {
      uint64_t id = rig.dev->Allocate();
      ids.push_back(id);
      payload.emplace_back(kBlock);
      PatternBlock(payload.back().data(), id, i);
    }
    {
      std::vector<const void*> ptrs;
      for (auto& p : payload) ptrs.push_back(p.data());
      EXPECT_TRUE(
          rig.dev->WriteBatch(ids.data(), ptrs.data(), ids.size()).ok());
    }
    if (kill) {
      // Die 10 transfer attempts into the read phase: mid-batch, after
      // some of this head's reads in the running batch already landed.
      FaultyBlockDevice* w = rig.wrappers[2];
      w->SetDeadAfter(w->reads_seen() + w->writes_seen() + 10);
    }
    // Shuffled batched reads, 16 blocks a batch.
    std::vector<size_t> order(ids.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng(kSeed + 3);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Next() % i]);
    }
    IoProbe probe(*rig.dev);
    std::vector<IoBuffer> bufs;
    for (size_t base = 0; base < order.size(); base += 16) {
      std::vector<uint64_t> bids;
      std::vector<void*> ptrs;
      for (size_t k = base; k < std::min(base + 16, order.size()); ++k) {
        bids.push_back(ids[order[k]]);
        bufs.push_back(AllocIoBuffer(kBlock));
        ptrs.push_back(bufs.back().get());
      }
      EXPECT_TRUE(
          rig.dev->ReadBatch(bids.data(), ptrs.data(), bids.size()).ok());
      for (size_t k = base; k < std::min(base + 16, order.size()); ++k) {
        EXPECT_EQ(std::memcmp(bufs[k].get(), payload[order[k]].data(), kBlock),
                  0)
            << "block " << ids[order[k]] << (kill ? " (degraded)" : "");
      }
    }
    RedundantWorkloadResult res;
    res.parent = probe.delta();
    for (size_t d = 0; d < rig.dev->num_disks(); ++d) {
      res.children.push_back(rig.dev->disk_stats(d));
    }
    res.gauge = rig.dev->redundancy_stats();
    if (kill) {
      EXPECT_TRUE(rig.dev->DiskDead(2));
    }
    return res;
  };
  RedundantWorkloadResult healthy = run(false);
  RedundantWorkloadResult degraded = run(true);
  EXPECT_EQ(healthy.parent, degraded.parent);
  for (size_t d = 0; d < healthy.children.size(); ++d) {
    EXPECT_EQ(healthy.children[d], degraded.children[d]) << "child " << d;
  }
  EXPECT_GT(degraded.gauge.degraded_reads, 0u);
}

// ------------------------------------------------------------- rebuild

TEST(RedundancyRebuild, RebuildOntoSpareRestoresNonDegradedReads) {
  RedundantRig rig(/*parity=*/true);
  std::map<uint64_t, std::vector<char>> shadow;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    uint64_t id = rig.dev->Allocate();
    ids.push_back(id);
    std::vector<char> buf(kBlock);
    PatternBlock(buf.data(), id, i);
    ASSERT_TRUE(rig.dev->Write(id, buf.data()).ok());
    shadow[id] = std::move(buf);
  }
  rig.dev->MarkDiskDead(1);
  ASSERT_TRUE(rig.dev->DiskDegraded(1));
  // No spare parked: rebuild is Unavailable.
  EXPECT_TRUE(rig.dev->RebuildDisk(1).IsUnavailable());
  ASSERT_TRUE(
      rig.dev->AttachSpare(std::make_unique<MemoryBlockDevice>(kBlock)).ok());
  EXPECT_EQ(rig.dev->spares_available(), 1u);
  Status s = rig.dev->RebuildDisk(1, nullptr, /*batch_blocks=*/4);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(rig.dev->spares_available(), 0u);
  EXPECT_FALSE(rig.dev->DiskDead(1));
  EXPECT_FALSE(rig.dev->DiskDegraded(1));
  RedundancyStats after = rig.dev->redundancy_stats();
  EXPECT_GT(after.rebuilt_blocks, 0u);
  // Satellite acceptance: every block — including the rebuilt head's —
  // reads back correct WITHOUT any further reconstruction.
  for (uint64_t id : ids) {
    std::vector<char> out(kBlock);
    ASSERT_TRUE(rig.dev->Read(id, out.data()).ok()) << "id " << id;
    EXPECT_EQ(std::memcmp(out.data(), shadow[id].data(), kBlock), 0);
  }
  EXPECT_EQ(rig.dev->redundancy_stats().degraded_reads, after.degraded_reads)
      << "reads after the rebuild still went degraded";
  // The rebuilt device keeps working: the group parity was recomputed on
  // the spare, so a SECOND head death is survivable too.
  rig.dev->MarkDiskDead(3);
  for (uint64_t id : ids) {
    std::vector<char> out(kBlock);
    ASSERT_TRUE(rig.dev->Read(id, out.data()).ok())
        << "post-rebuild reconstruction, id " << id;
    EXPECT_EQ(std::memcmp(out.data(), shadow[id].data(), kBlock), 0);
  }
}

TEST(RedundancyRebuild, CancelledRebuildReParksSpareAndStaysDegraded) {
  RedundantRig rig(/*parity=*/true);
  std::vector<uint64_t> ids;
  char buf[kBlock];
  for (int i = 0; i < 32; ++i) {
    ids.push_back(rig.dev->Allocate());
    PatternBlock(buf, ids.back(), i);
    ASSERT_TRUE(rig.dev->Write(ids.back(), buf).ok());
  }
  rig.dev->MarkDiskDead(0);
  ASSERT_TRUE(
      rig.dev->AttachSpare(std::make_unique<MemoryBlockDevice>(kBlock)).ok());
  Status s = rig.dev->RebuildDisk(0, /*cancel=*/[] { return true; },
                                  /*batch_blocks=*/4);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_EQ(rig.dev->spares_available(), 1u) << "spare not re-parked";
  EXPECT_TRUE(rig.dev->DiskDead(0));
  // Content still served (degraded) after the undone drain.
  std::vector<char> out(kBlock);
  for (size_t i = 0; i < ids.size(); ++i) {
    PatternBlock(buf, ids[i], i);
    ASSERT_TRUE(rig.dev->Read(ids[i], out.data()).ok());
    EXPECT_EQ(std::memcmp(out.data(), buf, kBlock), 0);
  }
}

// The workload keeps running while the drain does: between drain
// batches (the `cancel` poll, which answers "keep going") three blocks
// are overwritten, and every few batches one block is freed and one is
// allocated. Writes that hit an already drained block, or the group
// parity of one, must reach the spare through the final pass. After the
// swap every live block reads back its last-written bytes without
// reconstruction, and a second dead head is still survivable. Widths
// D, 3 and 2 (mirroring), each head killed in turn.
TEST(RedundancyRebuild, WritesAndFreesDuringRebuildLandOnTheSpare) {
  for (size_t width : {size_t{0}, size_t{3}, size_t{2}}) {
    for (size_t kill = 0; kill < 4; ++kill) {
      SCOPED_TRACE("width " + std::to_string(width) + " kill " +
                   std::to_string(kill));
      RedundantRig rig(/*parity=*/true, width);
      std::map<uint64_t, std::vector<char>> shadow;
      std::vector<uint64_t> live;
      uint64_t version = 0;
      auto write = [&](uint64_t id) {
        std::vector<char> buf(kBlock);
        PatternBlock(buf.data(), id, ++version);
        ASSERT_TRUE(rig.dev->Write(id, buf.data()).ok()) << "id " << id;
        shadow[id] = std::move(buf);
      };
      for (int i = 0; i < 96; ++i) {
        live.push_back(rig.dev->Allocate());
        write(live.back());
      }
      rig.dev->MarkDiskDead(kill);
      ASSERT_TRUE(
          rig.dev->AttachSpare(std::make_unique<MemoryBlockDevice>(kBlock))
              .ok());
      Rng rng(kSeed + kill);
      size_t polls = 0;
      auto mutate = [&] {
        polls++;
        for (int k = 0; k < 3; ++k) write(live[rng.Next() % live.size()]);
        if (polls % 3 == 0) {
          const size_t at = rng.Next() % live.size();
          rig.dev->Free(live[at]);
          shadow.erase(live[at]);
          live.erase(live.begin() + at);
        }
        if (polls % 4 == 0) {
          live.push_back(rig.dev->Allocate());
          write(live.back());
        }
        return false;
      };
      Status s = rig.dev->RebuildDisk(kill, mutate, /*batch_blocks=*/2);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_GT(polls, 4u) << "the drain ran in too few batches";
      ASSERT_FALSE(rig.dev->DiskDead(kill));
      const uint64_t degraded = rig.dev->redundancy_stats().degraded_reads;
      for (uint64_t id : live) {
        std::vector<char> out(kBlock);
        ASSERT_TRUE(rig.dev->Read(id, out.data()).ok()) << "id " << id;
        EXPECT_EQ(std::memcmp(out.data(), shadow[id].data(), kBlock), 0)
            << "id " << id << " on disk " << rig.dev->disk_of(id);
      }
      EXPECT_EQ(rig.dev->redundancy_stats().degraded_reads, degraded);
      rig.dev->MarkDiskDead((kill + 1) % 4);
      for (uint64_t id : live) {
        std::vector<char> out(kBlock);
        ASSERT_TRUE(rig.dev->Read(id, out.data()).ok())
            << "second death, id " << id;
        EXPECT_EQ(std::memcmp(out.data(), shadow[id].data(), kBlock), 0)
            << "second death, id " << id;
      }
    }
  }
}

TEST(RedundancyRebuild, RebuildManagerDrainsDeadHead) {
  RedundantRig rig(/*parity=*/true, /*group_width=*/2);
  std::map<uint64_t, std::vector<char>> shadow;
  for (int i = 0; i < 40; ++i) {
    uint64_t id = rig.dev->Allocate();
    std::vector<char> buf(kBlock);
    PatternBlock(buf.data(), id, i);
    ASSERT_TRUE(rig.dev->Write(id, buf.data()).ok());
    shadow[id] = std::move(buf);
  }
  rig.dev->MarkDiskDead(3);
  RebuildManager mgr(rig.dev.get());
  // Pass 1: degraded head but no spare — nothing the manager can do.
  EXPECT_TRUE(mgr.RunOnce().ok());
  EXPECT_EQ(mgr.stats().rebuilds_completed, 0u);
  EXPECT_TRUE(rig.dev->DiskDead(3));
  // Pass 2: spare parked — the manager drains and swaps.
  ASSERT_TRUE(
      rig.dev->AttachSpare(std::make_unique<MemoryBlockDevice>(kBlock)).ok());
  EXPECT_TRUE(mgr.RunOnce().ok());
  EXPECT_EQ(mgr.stats().rebuilds_completed, 1u);
  EXPECT_FALSE(rig.dev->DiskDead(3));
  for (auto& [id, expect] : shadow) {
    std::vector<char> out(kBlock);
    ASSERT_TRUE(rig.dev->Read(id, out.data()).ok()) << "id " << id;
    EXPECT_EQ(std::memcmp(out.data(), expect.data(), kBlock), 0);
  }
  // Pass 3: healthy fleet — idle no-op.
  EXPECT_TRUE(mgr.RunOnce().ok());
  EXPECT_EQ(mgr.stats().rebuilds_completed, 1u);
}

}  // namespace
}  // namespace vem
