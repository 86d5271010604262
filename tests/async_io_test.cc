// Tests for the batched async I/O engine: vectored batch transfers,
// stream read-ahead/write-behind, parallel striping, and — above all —
// the contract that none of it changes IoStats: the PDM cost model stays
// bit-identical whether overlap is on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/ext_vector.h"
#include "io/buffer_pool.h"
#include "io/faulty_device.h"
#include "io/file_block_device.h"
#include "io/io_engine.h"
#include "io/io_ring.h"
#include "io/memory_block_device.h"
#include "io/striped_device.h"
#include "sort/external_sort.h"
#include "transport_axis.h"
#include "util/options.h"
#include "util/random.h"

namespace vem {
namespace {

std::string ScratchPath(const char* name) {
  return std::string("/tmp/vem_async_test_") + name + ".bin";
}

// ------------------------------------------------------------------ engine

TEST(IoEngine, SubmitWaitRoundTrip) {
  IoEngine engine(3);
  std::vector<IoEngine::Ticket> tickets;
  std::vector<int> results(64, 0);
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(engine.Submit([&results, i] {
      results[i] = i * i;
      return Status::OK();
    }));
  }
  for (auto t : tickets) EXPECT_TRUE(engine.Wait(t).ok());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(IoEngine, WaitReturnsJobStatus) {
  IoEngine engine(1);
  auto t1 = engine.Submit([] { return Status::IOError("boom"); });
  auto t2 = engine.Submit([] { return Status::OK(); });
  EXPECT_TRUE(engine.Wait(t1).IsIOError());
  EXPECT_TRUE(engine.Wait(t2).ok());
}

TEST(IoEngine, RunBatchAggregatesFirstError) {
  IoEngine engine(2);
  std::vector<std::function<Status()>> jobs;
  std::vector<int> ran(8, 0);
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([&ran, i] {
      ran[i] = 1;
      return i == 5 ? Status::Corruption("bad stripe") : Status::OK();
    });
  }
  EXPECT_TRUE(engine.RunBatch(std::move(jobs)).IsCorruption());
  // Every job ran to completion even though one failed.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ran[i], 1) << i;
}

TEST(IoEngine, DestructorDrainsQueue) {
  std::vector<int> ran(32, 0);
  {
    IoEngine engine(2);
    for (int i = 0; i < 32; ++i) {
      engine.Submit([&ran, i] {
        ran[i] = 1;
        return Status::OK();
      });
    }
    // No Wait: unredeemed jobs must still execute before teardown.
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ran[i], 1) << i;
}

// ------------------------------------------------- FileBlockDevice basics

using FileBlockDeviceAxis = TransportAxis;

TEST_P(FileBlockDeviceAxis, AllocateThenReadIsZeroFilled) {
  const size_t bs = 4096;  // one filesystem block, so `hole` is sparse
  FileBlockDevice dev(ScratchPath("eofread"), bs);
  ASSERT_TRUE(dev.valid());
  Attach(&dev);
  uint64_t written = dev.Allocate();
  uint64_t hole = dev.Allocate();
  uint64_t far = dev.Allocate();
  uint64_t untouched = dev.Allocate();
  std::vector<char> payload(bs, 'x'), buf(bs, 'q'), zeros(bs, 0);
  ASSERT_TRUE(dev.Write(written, payload.data()).ok());
  // `untouched` lives past EOF: short pread must zero-fill, not fail.
  ASSERT_TRUE(dev.Read(untouched, buf.data()).ok());
  EXPECT_EQ(buf, zeros);
  // Allocate far ahead, write beyond, read back: `hole` is now a real
  // file hole inside EOF.
  ASSERT_TRUE(dev.Write(far, payload.data()).ok());
  buf.assign(bs, 'q');
  ASSERT_TRUE(dev.Read(hole, buf.data()).ok());
  EXPECT_EQ(buf, zeros);
  ASSERT_TRUE(dev.Read(written, buf.data()).ok());
  EXPECT_EQ(buf, payload);
  // One batch run over data, the hole, data, then EOF: the batch path
  // (the ring on io_uring) fills the hole from the file and the tail
  // past EOF with zeros.
  uint64_t ids[4] = {written, hole, far, untouched};
  std::vector<std::vector<char>> got(4, std::vector<char>(bs, 'q'));
  void* bufs[4] = {got[0].data(), got[1].data(), got[2].data(),
                   got[3].data()};
  ASSERT_TRUE(dev.ReadBatch(ids, bufs, 4).ok());
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(got[1], zeros);
  EXPECT_EQ(got[2], payload);
  EXPECT_EQ(got[3], zeros);
  EXPECT_EQ(dev.stats().block_reads, 7u);
  dev.set_io_engine(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Transports, FileBlockDeviceAxis, kAllTransports,
                         TransportParamName);

// ------------------------------------------------------- batch equivalence

// Runs the same scattered workload through batch and looped transfers on
// two identical devices and demands identical contents and stats.
template <typename MakeDev>
void CheckBatchMatchesLoop(MakeDev make_dev) {
  auto batch_dev = make_dev("batch");
  auto loop_dev = make_dev("loop");
  const size_t kBlocks = 37;  // not a multiple of anything interesting
  const size_t bs = batch_dev->block_size();
  std::vector<uint64_t> ids_a, ids_b;
  for (size_t i = 0; i < kBlocks; ++i) {
    ids_a.push_back(batch_dev->Allocate());
    ids_b.push_back(loop_dev->Allocate());
  }
  ASSERT_EQ(ids_a, ids_b);
  // Mix contiguous runs with jumps: forward run, backward stripe, gaps.
  std::vector<uint64_t> order;
  for (size_t i = 0; i < 12; ++i) order.push_back(ids_a[i]);
  for (size_t i = kBlocks; i > 20; --i) order.push_back(ids_a[i - 1]);
  for (size_t i = 12; i < 20; i += 2) order.push_back(ids_a[i]);

  std::vector<std::vector<char>> payload(order.size());
  std::vector<const void*> wbufs(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    payload[i].assign(bs, static_cast<char>('A' + (i % 26)));
    wbufs[i] = payload[i].data();
  }
  // Batch write vs looped write.
  ASSERT_TRUE(
      batch_dev->WriteBatch(order.data(), wbufs.data(), order.size()).ok());
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(loop_dev->Write(order[i], wbufs[i]).ok());
  }
  EXPECT_TRUE(batch_dev->stats() == loop_dev->stats());

  // Batch read vs looped read.
  std::vector<std::vector<char>> got_batch(order.size()),
      got_loop(order.size());
  std::vector<void*> rbufs(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    got_batch[i].resize(bs);
    got_loop[i].resize(bs);
    rbufs[i] = got_batch[i].data();
  }
  ASSERT_TRUE(
      batch_dev->ReadBatch(order.data(), rbufs.data(), order.size()).ok());
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(loop_dev->Read(order[i], got_loop[i].data()).ok());
  }
  EXPECT_TRUE(batch_dev->stats() == loop_dev->stats());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(got_batch[i], got_loop[i]) << "block " << i;
    EXPECT_EQ(got_batch[i], payload[i]) << "block " << i;
  }
}

TEST(BatchTransfers, FileDeviceMatchesLoop) {
  CheckBatchMatchesLoop([](const char* tag) {
    return std::make_unique<FileBlockDevice>(ScratchPath(tag), 256);
  });
}

TEST(BatchTransfers, MemoryDeviceMatchesLoop) {
  CheckBatchMatchesLoop([](const char*) {
    return std::make_unique<MemoryBlockDevice>(256);
  });
}

TEST(BatchTransfers, FaultyDeviceInjectsMidBatch) {
  MemoryBlockDevice inner(64);
  std::vector<uint64_t> ids(8);
  std::vector<char> block(64, 'z');
  for (auto& id : ids) {
    id = inner.Allocate();
    ASSERT_TRUE(inner.Write(id, block.data()).ok());
  }
  // Fail the 3rd read: the batch must stop exactly like the loop would,
  // with two successful (counted) reads behind it.
  FaultyBlockDevice dev(&inner, /*fail_read_at=*/3);
  std::vector<std::vector<char>> bufs(8, std::vector<char>(64));
  std::vector<void*> ptrs(8);
  for (size_t i = 0; i < 8; ++i) ptrs[i] = bufs[i].data();
  EXPECT_TRUE(dev.ReadBatch(ids.data(), ptrs.data(), 8).IsIOError());
  EXPECT_EQ(dev.reads_seen(), 3u);
  EXPECT_EQ(dev.stats().block_reads, 2u);

  // Same for writes.
  FaultyBlockDevice wdev(&inner, FaultyBlockDevice::kNever,
                         /*fail_write_at=*/5);
  std::vector<const void*> wptrs(8, block.data());
  EXPECT_TRUE(wdev.WriteBatch(ids.data(), wptrs.data(), 8).IsIOError());
  EXPECT_EQ(wdev.writes_seen(), 5u);
  EXPECT_EQ(wdev.stats().block_writes, 4u);
}

using BatchTransfersAxis = TransportAxis;

TEST_P(BatchTransfersAxis, FileBatchRejectsUnallocated) {
  FileBlockDevice dev(ScratchPath("unalloc"), 64);
  Attach(&dev);
  uint64_t a = dev.Allocate();
  std::vector<char> block(64, 'p');
  ASSERT_TRUE(dev.Write(a, block.data()).ok());
  uint64_t ids[2] = {a, a + 7};  // second id never allocated
  std::vector<char> b0(64), b1(64);
  void* bufs[2] = {b0.data(), b1.data()};
  EXPECT_TRUE(dev.ReadBatch(ids, bufs, 2).IsInvalidArgument());

  // The valid prefix before the unallocated id transfers and is charged
  // exactly as the single-block loop would charge it, on every transport.
  FileBlockDevice loop(ScratchPath("unalloc_loop"), 64);
  ASSERT_EQ(loop.Allocate(), a);
  ASSERT_TRUE(loop.Write(a, block.data()).ok());
  ASSERT_TRUE(loop.Read(a, b0.data()).ok());
  uint64_t b = dev.Allocate(), c = dev.Allocate();
  ASSERT_EQ(loop.Allocate(), b);
  ASSERT_EQ(loop.Allocate(), c);
  const uint64_t bad = c + 7;
  // A backward jump, then a contiguous pair, then the bad id.
  uint64_t wids[4] = {c, a, b, bad};
  std::vector<std::vector<char>> w(4, std::vector<char>(64));
  std::vector<std::vector<char>> r(4, std::vector<char>(64, 'q'));
  std::vector<const void*> wbufs;
  std::vector<void*> rbufs;
  for (size_t i = 0; i < 4; ++i) {
    w[i].assign(64, static_cast<char>('a' + i));
    wbufs.push_back(w[i].data());
    rbufs.push_back(r[i].data());
  }
  EXPECT_TRUE(dev.WriteBatch(wids, wbufs.data(), 4).IsInvalidArgument());
  EXPECT_TRUE(dev.ReadBatch(wids, rbufs.data(), 4).IsInvalidArgument());
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(r[i], w[i]) << i;
  Status ws, rs;
  for (size_t i = 0; i < 4 && ws.ok(); ++i) ws = loop.Write(wids[i], wbufs[i]);
  for (size_t i = 0; i < 4 && rs.ok(); ++i) rs = loop.Read(wids[i], rbufs[i]);
  EXPECT_TRUE(ws.IsInvalidArgument());
  EXPECT_TRUE(rs.IsInvalidArgument());
  EXPECT_EQ(dev.stats().block_writes, 4u);
  EXPECT_EQ(dev.stats().block_reads, 4u);
  EXPECT_TRUE(dev.stats() == loop.stats())
      << "batch " << dev.stats().ToString() << " vs loop "
      << loop.stats().ToString();
  dev.set_io_engine(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Transports, BatchTransfersAxis, kAllTransports,
                         TransportParamName);

// ----------------------------------------------------- reader read-ahead

// Scans [start, n) with the given depth/engine config and returns items
// plus the stats delta, asserting the delta matches a synchronous scan.
void CheckPrefetchScanIdentity(BlockDevice* dev, IoEngine* engine,
                               size_t depth) {
  if (engine != nullptr) dev->set_io_engine(engine);
  ExtVector<uint32_t> vec(dev);
  const size_t kItems = 10000;
  {
    typename ExtVector<uint32_t>::Writer w(&vec);
    for (size_t i = 0; i < kItems; ++i) ASSERT_TRUE(w.Append(uint32_t(i * 7)));
    ASSERT_TRUE(w.Finish().ok());
  }
  // Baseline: synchronous scan.
  IoProbe sync_probe(*dev);
  std::vector<uint32_t> sync_items;
  {
    typename ExtVector<uint32_t>::Reader r(&vec, 0, /*depth=*/0);
    uint32_t v;
    while (r.Next(&v)) sync_items.push_back(v);
    ASSERT_TRUE(r.status().ok());
  }
  IoStats sync_cost = sync_probe.delta();

  // Prefetched scan: same items, bit-identical stats.
  IoProbe probe(*dev);
  std::vector<uint32_t> items;
  {
    typename ExtVector<uint32_t>::Reader r(&vec, 0,
                                           static_cast<int>(depth));
    uint32_t v;
    while (r.Next(&v)) items.push_back(v);
    ASSERT_TRUE(r.status().ok());
  }
  EXPECT_EQ(items, sync_items);
  EXPECT_TRUE(probe.delta() == sync_cost) << "depth=" << depth;

  // Mid-stream start (first block entered is in the middle of a window).
  IoProbe sync_mid(*dev);
  std::vector<uint32_t> sync_tail;
  {
    typename ExtVector<uint32_t>::Reader r(&vec, kItems / 3, 0);
    uint32_t v;
    while (r.Next(&v)) sync_tail.push_back(v);
  }
  IoStats sync_tail_cost = sync_mid.delta();
  IoProbe mid(*dev);
  std::vector<uint32_t> tail;
  {
    typename ExtVector<uint32_t>::Reader r(&vec, kItems / 3,
                                           static_cast<int>(depth));
    uint32_t v;
    while (r.Next(&v)) tail.push_back(v);
  }
  EXPECT_EQ(tail, sync_tail);
  EXPECT_TRUE(mid.delta() == sync_tail_cost);
  dev->set_io_engine(nullptr);
}

TEST(ReaderPrefetch, MemoryDeviceDepthSweep) {
  // Block of 24 bytes holds exactly 6 items; also try 20 (slack bytes).
  for (size_t bs : {24u, 20u, 256u}) {
    for (size_t depth : {1u, 2u, 3u, 8u, 64u}) {
      MemoryBlockDevice dev(bs);
      CheckPrefetchScanIdentity(&dev, nullptr, depth);
    }
  }
}

TEST(ReaderPrefetch, FileDeviceSyncBatched) {
  for (size_t depth : {1u, 4u, 16u}) {
    FileBlockDevice dev(ScratchPath("scan_sync"), 128);
    ASSERT_TRUE(dev.valid());
    CheckPrefetchScanIdentity(&dev, nullptr, depth);
  }
}

TEST(ReaderPrefetch, FileDeviceWithEngine) {
  IoEngine engine(2);
  for (size_t depth : {1u, 4u, 16u}) {
    FileBlockDevice dev(ScratchPath("scan_async"), 128);
    ASSERT_TRUE(dev.valid());
    CheckPrefetchScanIdentity(&dev, &engine, depth);
  }
}

TEST(ReaderPrefetch, SeekAndPeekMatchSyncCosts) {
  IoEngine engine(2);
  FileBlockDevice dev(ScratchPath("seek"), 64);  // 8 items per block
  dev.set_io_engine(&engine);
  ExtVector<uint64_t> vec(&dev);
  std::vector<uint64_t> data(400);
  std::iota(data.begin(), data.end(), 1000);
  ASSERT_TRUE(vec.AppendAll(data.data(), data.size()).ok());

  // A jumpy access script: forward scan, backward seek, far seek, peeks.
  auto run_script = [&](int depth, std::vector<uint64_t>* out,
                        IoStats* cost) {
    IoProbe probe(dev);
    typename ExtVector<uint64_t>::Reader r(&vec, 0, depth);
    uint64_t v;
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(r.Next(&v));
      out->push_back(v);
    }
    r.Seek(5);  // backward, outside the current block
    ASSERT_TRUE(r.Next(&v));
    out->push_back(v);
    r.Seek(333);  // far forward
    ASSERT_TRUE(r.Peek(&v));
    out->push_back(v);
    ASSERT_TRUE(r.Next(&v));
    out->push_back(v);
    while (r.Next(&v)) out->push_back(v);  // drain to the end
    ASSERT_TRUE(r.status().ok());
    *cost = probe.delta();
  };
  std::vector<uint64_t> sync_out, pf_out;
  IoStats sync_cost, pf_cost;
  run_script(0, &sync_out, &sync_cost);
  run_script(6, &pf_out, &pf_cost);
  EXPECT_EQ(pf_out, sync_out);
  EXPECT_TRUE(pf_cost == sync_cost);
  dev.set_io_engine(nullptr);
}

// --------------------------------------------------- writer write-behind

TEST(WriterWriteBehind, ContentsAndCostsMatchSync) {
  IoEngine engine(2);
  for (size_t depth : {1u, 4u, 16u}) {
    FileBlockDevice sync_dev(ScratchPath("wb_sync"), 96);
    FileBlockDevice async_dev(ScratchPath("wb_async"), 96);
    async_dev.set_io_engine(&engine);
    std::vector<uint32_t> data(5000);
    std::iota(data.begin(), data.end(), 7);

    ExtVector<uint32_t> sync_vec(&sync_dev);
    ASSERT_TRUE(sync_vec.AppendAll(data.data(), data.size()).ok());

    ExtVector<uint32_t> async_vec(&async_dev);
    ASSERT_TRUE(async_vec.AppendAll(data.data(), data.size(), depth).ok());

    EXPECT_TRUE(sync_dev.stats() == async_dev.stats()) << "depth=" << depth;
    std::vector<uint32_t> back;
    ASSERT_TRUE(async_vec.ReadAll(&back, depth).ok());
    EXPECT_EQ(back, data);
    async_dev.set_io_engine(nullptr);
  }
}

TEST(WriterWriteBehind, ResumingPartialTailStaysCorrect) {
  MemoryBlockDevice dev(64);  // 8 u64 per block... 64/8 = 8
  ExtVector<uint64_t> vec(&dev);
  std::vector<uint64_t> first(13), second(29);
  std::iota(first.begin(), first.end(), 0);
  std::iota(second.begin(), second.end(), 100);
  ASSERT_TRUE(vec.AppendAll(first.data(), first.size(), 4).ok());
  // Tail is mid-block: the second writer takes the synchronous resume
  // path and must still produce the concatenation.
  ASSERT_TRUE(vec.AppendAll(second.data(), second.size(), 4).ok());
  std::vector<uint64_t> all;
  ASSERT_TRUE(vec.ReadAll(&all, 4).ok());
  std::vector<uint64_t> want = first;
  want.insert(want.end(), second.begin(), second.end());
  EXPECT_EQ(all, want);
}

// ------------------------------------------------------ parallel striping

TEST(StripedDevice, FileBackedChildrenRoundTrip) {
  const size_t kDisks = 4, kChild = 64;
  auto build = [&](IoEngine* engine) {
    std::vector<std::unique_ptr<BlockDevice>> disks;
    for (size_t d = 0; d < kDisks; ++d) {
      disks.push_back(std::make_unique<FileBlockDevice>(
          ScratchPath(("stripe" + std::to_string(d) +
                       (engine != nullptr ? "a" : "s"))
                          .c_str()),
          kChild));
    }
    auto dev = std::make_unique<StripedDevice>(std::move(disks));
    if (engine != nullptr) dev->set_io_engine(engine);
    return dev;
  };
  IoEngine engine(kDisks);
  auto seq = build(nullptr);
  auto par = build(&engine);
  ASSERT_EQ(seq->block_size(), kDisks * kChild);

  Rng rng(99);
  const size_t kLogical = 32;
  std::vector<std::vector<char>> blocks(kLogical);
  for (size_t i = 0; i < kLogical; ++i) {
    uint64_t sid = seq->Allocate(), pid = par->Allocate();
    ASSERT_EQ(sid, pid);
    blocks[i].resize(seq->block_size());
    for (auto& c : blocks[i]) c = static_cast<char>(rng.Next());
    ASSERT_TRUE(seq->Write(sid, blocks[i].data()).ok());
    ASSERT_TRUE(par->Write(pid, blocks[i].data()).ok());
  }
  std::vector<char> buf(seq->block_size());
  for (size_t i = 0; i < kLogical; ++i) {
    ASSERT_TRUE(par->Read(i, buf.data()).ok());
    EXPECT_EQ(0, std::memcmp(buf.data(), blocks[i].data(), buf.size()));
  }
  // Concurrency must not change the accounting: parent counts D physical
  // blocks but ONE parallel step per logical transfer, children balanced.
  ASSERT_TRUE(seq->Read(0, buf.data()).ok());  // rebalance read counts
  EXPECT_EQ(par->stats().parallel_writes, kLogical);
  EXPECT_EQ(par->stats().block_writes, kLogical * kDisks);
  EXPECT_EQ(par->stats().parallel_reads, kLogical);
  EXPECT_EQ(par->stats().block_reads, kLogical * kDisks);
  for (size_t d = 0; d < kDisks; ++d) {
    EXPECT_TRUE(par->disk_stats(d).block_writes == kLogical);
  }
  par->set_io_engine(nullptr);
}

// --------------------------------------------------------- sort identity

TEST(SortPrefetchStress, StatsBitIdenticalAndOutputSorted) {
  IoEngine engine(2);
  const size_t kBlock = 512, kMem = 16 * 1024;
  const size_t kItems = 40000;
  Rng rng(2024);
  std::vector<uint64_t> data(kItems);
  for (auto& x : data) x = rng.Next() % 100000;

  auto run_sort = [&](FileBlockDevice* dev, size_t depth, IoStats* cost,
                      std::vector<uint64_t>* out_items,
                      size_t* merge_passes) {
    ExtVector<uint64_t> input(dev);
    ASSERT_TRUE(input.AppendAll(data.data(), data.size()).ok());
    ExternalSorter<uint64_t> sorter(
        dev, Options{.memory_budget = kMem, .prefetch_depth = depth});
    ExtVector<uint64_t> out(dev);
    IoProbe probe(*dev);
    ASSERT_TRUE(sorter.Sort(input, &out).ok());
    *cost = probe.delta();
    *merge_passes = sorter.metrics().merge_passes;
    ASSERT_TRUE(out.ReadAll(out_items).ok());
  };

  FileBlockDevice sync_dev(ScratchPath("sort_sync"), kBlock);
  IoStats sync_cost;
  std::vector<uint64_t> sync_out;
  size_t sync_passes;
  run_sort(&sync_dev, 0, &sync_cost, &sync_out, &sync_passes);

  FileBlockDevice async_dev(ScratchPath("sort_async"), kBlock);
  async_dev.set_io_engine(&engine);
  IoStats async_cost;
  std::vector<uint64_t> async_out;
  size_t async_passes;
  run_sort(&async_dev, 4, &async_cost, &async_out, &async_passes);

  std::vector<uint64_t> want = data;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(sync_out, want);
  EXPECT_EQ(async_out, want);
  EXPECT_EQ(sync_passes, async_passes);
  // The headline contract: overlap changed wall-clock only. Every counter
  // — block, parallel, byte, read and write — is bit-identical.
  EXPECT_TRUE(sync_cost == async_cost)
      << "sync " << sync_cost.ToString() << " vs async "
      << async_cost.ToString();
  async_dev.set_io_engine(nullptr);
}

// ------------------------------------------------------ transport backends

bool IoUringUsable() {
  return IoRing::CompiledIn() && IoRing::KernelSupported();
}

/// Backend axis: every identity contract must hold regardless of which
/// transport carries the physical transfers. kIoUring instances skip
/// gracefully on kernels without io_uring.
class BackendAxis : public ::testing::TestWithParam<IoBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == IoBackend::kIoUring && !IoUringUsable()) {
      GTEST_SKIP() << "io_uring not available on this kernel/build";
    }
  }
};

TEST_P(BackendAxis, EngineReportsSelectedBackend) {
  IoEngine engine(2, /*disk_inflight_cap=*/1, GetParam());
  EXPECT_EQ(engine.backend(), GetParam());
  EXPECT_EQ(engine.ring() != nullptr, GetParam() == IoBackend::kIoUring);
}

TEST_P(BackendAxis, ScanIdentityHoldsOnBackend) {
  IoEngine engine(2, /*disk_inflight_cap=*/1, GetParam());
  for (size_t depth : {1u, 4u, 16u}) {
    FileBlockDevice dev(ScratchPath("backend_scan"), 128);
    ASSERT_TRUE(dev.valid());
    CheckPrefetchScanIdentity(&dev, &engine, depth);
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, BackendAxis,
                         ::testing::Values(IoBackend::kWorkerPool,
                                           IoBackend::kIoUring),
                         [](const ::testing::TestParamInfo<IoBackend>& info) {
                           return info.param == IoBackend::kIoUring
                                      ? "IoUring"
                                      : "WorkerPool";
                         });

// Full write+scan+sort workload on a file device, once per backend:
// IoStats must be bit-identical — the transport moves bytes, never costs.
TEST(BackendIdentity, WorkerPoolAndIoUringBitIdentical) {
  if (!IoUringUsable()) {
    GTEST_SKIP() << "io_uring not available on this kernel/build";
  }
  auto run = [](IoBackend backend, const char* tag, bool direct,
                std::vector<uint64_t>* out) {
    IoEngine engine(2, /*disk_inflight_cap=*/2, backend);
    FileBlockDevice dev(ScratchPath(tag), 512, /*unlink_on_close=*/true,
                        /*direct_io=*/direct);
    EXPECT_TRUE(dev.valid());
    dev.set_io_engine(&engine);
    Rng rng(77);
    std::vector<uint64_t> data(20000);
    for (auto& v : data) v = rng.Next();
    ExtVector<uint64_t> input(&dev);
    IoProbe probe(dev);
    EXPECT_TRUE(input.AppendAll(data.data(), data.size(), 8).ok());
    ExternalSorter<uint64_t> sorter(
        &dev, Options{.memory_budget = 8 * 1024, .prefetch_depth = 8});
    ExtVector<uint64_t> sorted(&dev);
    EXPECT_TRUE(sorter.Sort(input, &sorted).ok());
    EXPECT_TRUE(sorted.ReadAll(out).ok());
    IoStats cost = probe.delta();
    dev.set_io_engine(nullptr);
    return cost;
  };
  for (bool direct : {false, true}) {
    std::vector<uint64_t> wp_out, ur_out;
    IoStats wp = run(IoBackend::kWorkerPool,
                     direct ? "bid_wp_d" : "bid_wp", direct, &wp_out);
    IoStats ur = run(IoBackend::kIoUring, direct ? "bid_ur_d" : "bid_ur",
                     direct, &ur_out);
    EXPECT_TRUE(std::is_sorted(wp_out.begin(), wp_out.end()));
    EXPECT_EQ(wp_out, ur_out) << "direct=" << direct;
    EXPECT_TRUE(wp == ur) << "direct=" << direct << " worker-pool "
                          << wp.ToString() << " vs io_uring "
                          << ur.ToString();
  }
}

// Requesting io_uring on a host without it must degrade to the worker
// pool silently — same API, same stats, just the portable transport.
TEST(BackendFallback, ForcedUnavailableFallsBackToWorkerPool) {
  IoRing::ForceUnavailableForTest(true);
  {
    IoEngine engine(2, /*disk_inflight_cap=*/1, IoBackend::kIoUring);
    EXPECT_EQ(engine.backend(), IoBackend::kWorkerPool);
    EXPECT_EQ(engine.ring(), nullptr);
    FileBlockDevice dev(ScratchPath("fallback"), 128);
    ASSERT_TRUE(dev.valid());
    CheckPrefetchScanIdentity(&dev, &engine, /*depth=*/4);
  }
  IoRing::ForceUnavailableForTest(false);
}

// --------------------------------------------------------------- PageRef

TEST(PageRef, SelfMoveKeepsPin) {
  MemoryBlockDevice dev(64);
  BufferPool pool(&dev, 1);
  uint64_t id;
  char* d;
  ASSERT_TRUE(pool.PinNew(&id, &d).ok());
  pool.Unpin(id, true);
  PageRef ref;
  ASSERT_TRUE(PageRef::Acquire(&pool, id, &ref).ok());
  PageRef& alias = ref;
  ref = std::move(alias);  // must not release the pin
  EXPECT_TRUE(ref.valid());
  uint64_t id2;
  // The only frame is still pinned by ref.
  EXPECT_TRUE(pool.PinNew(&id2, &d).IsBusy());
  ref.Release();
  EXPECT_TRUE(pool.PinNew(&id2, &d).ok());
  pool.Unpin(id2, false);
}

TEST(PageRef, MovedFromRefIsCleanAndInert) {
  MemoryBlockDevice dev(64);
  BufferPool pool(&dev, 2);
  uint64_t id;
  char* d;
  ASSERT_TRUE(pool.PinNew(&id, &d).ok());
  pool.Unpin(id, true);
  ASSERT_TRUE(pool.FlushAll().ok());

  PageRef a;
  ASSERT_TRUE(PageRef::Acquire(&pool, id, &a).ok());
  a.MarkDirty();
  PageRef b = std::move(a);  // dirty travels with the pin to b
  EXPECT_FALSE(a.valid());
  a.Release();  // must be a no-op, not an unpin of b's page
  EXPECT_TRUE(b.valid());
  uint64_t id2;
  EXPECT_TRUE(pool.PinNew(&id2, &d).ok());  // one frame still free
  pool.Unpin(id2, false);
  ASSERT_TRUE(pool.FlushAll().ok());  // settle id2's new-page dirt
  // b's dirty bit reaches the device exactly once, at b's release.
  IoProbe probe(dev);
  b.Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(probe.delta().block_writes, 1u);
}

// ------------------------------------------------------ batched FlushAll

TEST(BufferPool, FlushAllCoalescesWithIdenticalCharge) {
  FileBlockDevice dev(ScratchPath("flush"), 64);
  BufferPool pool(&dev, 8);
  std::vector<uint64_t> ids(8);
  for (size_t i = 0; i < 8; ++i) {
    char* d;
    ASSERT_TRUE(pool.PinNew(&ids[i], &d).ok());  // PinNew pages start dirty
    d[0] = static_cast<char>('a' + i);
    pool.Unpin(ids[i], false);
  }
  IoProbe probe(dev);
  ASSERT_TRUE(pool.FlushAll().ok());
  // Dirty pages flush once each (same charge as the per-frame loop, now
  // one coalesced WriteBatch), and a second flush finds everything clean.
  EXPECT_EQ(probe.delta().block_writes, 8u);
  EXPECT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(probe.delta().block_writes, 8u);
  char buf[64];
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(dev.Read(ids[i], buf).ok());
    EXPECT_EQ(buf[0], static_cast<char>('a' + i));
  }
}

}  // namespace
}  // namespace vem
