// Tests for FileBlockDevice's O_DIRECT cold-cache mode: alignment
// handling (aligned and unaligned user memory, single blocks and
// vectored runs), the EOF zero-fill contract, graceful fallback to
// buffered I/O when O_DIRECT cannot engage, and — the core invariant —
// that direct mode never changes IoStats relative to buffered mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/ext_vector.h"
#include "io/file_block_device.h"
#include "io/io_engine.h"
#include "sort/external_sort.h"
#include "transport_axis.h"
#include "util/random.h"

namespace vem {
namespace {

std::string ScratchPath(const char* name) {
  return std::string("/tmp/vem_direct_io_") + name + ".bin";
}

constexpr size_t kDirectBlock = 4096;  // multiple of the 512 B fs bar

// ------------------------------------------------------------ activation

TEST(DirectIo, UnalignedBlockSizeFallsBackToBuffered) {
  // 96 is not a multiple of 512: O_DIRECT cannot satisfy its offset /
  // length contract, so the device must silently run buffered.
  FileBlockDevice dev(ScratchPath("fallback_bs"), 96, true,
                      /*direct_io=*/true);
  ASSERT_TRUE(dev.valid());
  EXPECT_FALSE(dev.direct_io_active());
  // ...and still work end to end.
  std::vector<char> w(96, 'y'), r(96);
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, w.data()).ok());
  ASSERT_TRUE(dev.Read(id, r.data()).ok());
  EXPECT_EQ(0, std::memcmp(w.data(), r.data(), 96));
}

TEST(DirectIo, BufferedModeNeverActivatesDirect) {
  FileBlockDevice dev(ScratchPath("buffered"), kDirectBlock, true,
                      /*direct_io=*/false);
  ASSERT_TRUE(dev.valid());
  EXPECT_FALSE(dev.direct_io_active());
}

// Whether direct mode engages on /tmp depends on the filesystem (tmpfs
// historically rejects O_DIRECT at open; ext4 and friends accept). The
// contract is: valid() regardless, and every behavior below must hold in
// whichever mode the device landed in.
TEST(DirectIo, RequestIsAlwaysSafe) {
  FileBlockDevice dev(ScratchPath("request"), kDirectBlock, true,
                      /*direct_io=*/true);
  ASSERT_TRUE(dev.valid());
  std::vector<char> w(kDirectBlock, 'd'), r(kDirectBlock);
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, w.data()).ok());
  ASSERT_TRUE(dev.Read(id, r.data()).ok());
  EXPECT_EQ(w, r);
}

// ------------------------------------------------------------- alignment

using DirectIoAxis = TransportAxis;

TEST_P(DirectIoAxis, UnalignedUserBuffersRoundTrip) {
  FileBlockDevice dev(ScratchPath("unaligned"), kDirectBlock, true, true);
  ASSERT_TRUE(dev.valid());
  Attach(&dev);
  // Deliberately misaligned user memory: offset the payload by 1 byte
  // inside an oversized allocation. The device must bounce-buffer.
  std::vector<char> wraw(kDirectBlock + 64), rraw(kDirectBlock + 64);
  char* wbuf = wraw.data() + 1;
  char* rbuf = rraw.data() + 1;
  Rng rng(7);
  for (size_t i = 0; i < kDirectBlock; ++i) {
    wbuf[i] = static_cast<char>(rng.Next());
  }
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, wbuf).ok());
  ASSERT_TRUE(dev.Read(id, rbuf).ok());
  EXPECT_EQ(0, std::memcmp(wbuf, rbuf, kDirectBlock));
  // The batch path bounces the same way (through the registered staging
  // buffer on io_uring): two misaligned, adjacent blocks as one run.
  std::vector<char> wraw2(2 * kDirectBlock + 64), rraw2(2 * kDirectBlock + 64);
  for (size_t i = 0; i < wraw2.size(); ++i) {
    wraw2[i] = static_cast<char>(rng.Next());
  }
  uint64_t ids[2] = {dev.Allocate(), dev.Allocate()};
  const void* wbufs[2] = {wraw2.data() + 1, wraw2.data() + 1 + kDirectBlock};
  void* rbufs[2] = {rraw2.data() + 1, rraw2.data() + 1 + kDirectBlock};
  ASSERT_TRUE(dev.WriteBatch(ids, wbufs, 2).ok());
  ASSERT_TRUE(dev.ReadBatch(ids, rbufs, 2).ok());
  EXPECT_EQ(0, std::memcmp(wraw2.data() + 1, rraw2.data() + 1,
                           2 * kDirectBlock));
  dev.set_io_engine(nullptr);
}

TEST(DirectIo, AlignedUserBuffersRoundTrip) {
  FileBlockDevice dev(ScratchPath("aligned"), kDirectBlock, true, true);
  ASSERT_TRUE(dev.valid());
  void* wmem = nullptr;
  void* rmem = nullptr;
  ASSERT_EQ(0, posix_memalign(&wmem, 4096, kDirectBlock));
  ASSERT_EQ(0, posix_memalign(&rmem, 4096, kDirectBlock));
  std::memset(wmem, 0x5A, kDirectBlock);
  uint64_t id = dev.Allocate();
  EXPECT_TRUE(dev.Write(id, wmem).ok());
  EXPECT_TRUE(dev.Read(id, rmem).ok());
  EXPECT_EQ(0, std::memcmp(wmem, rmem, kDirectBlock));
  std::free(wmem);
  std::free(rmem);
}

TEST_P(DirectIoAxis, VectoredScatteredBatchRoundTrip) {
  // Non-contiguous per-block buffers force the bounce path for every
  // coalesced run; contents must still round-trip exactly.
  FileBlockDevice dev(ScratchPath("vectored"), kDirectBlock, true, true);
  ASSERT_TRUE(dev.valid());
  Attach(&dev);
  const size_t kBlocks = 19;
  std::vector<uint64_t> ids(kBlocks);
  std::vector<std::vector<char>> payload(kBlocks);
  std::vector<const void*> wbufs(kBlocks);
  for (size_t i = 0; i < kBlocks; ++i) {
    ids[i] = dev.Allocate();
    payload[i].assign(kDirectBlock, static_cast<char>('A' + i));
    wbufs[i] = payload[i].data();
  }
  ASSERT_TRUE(dev.WriteBatch(ids.data(), wbufs.data(), kBlocks).ok());
  std::vector<std::vector<char>> got(kBlocks,
                                     std::vector<char>(kDirectBlock));
  std::vector<void*> rbufs(kBlocks);
  for (size_t i = 0; i < kBlocks; ++i) rbufs[i] = got[i].data();
  ASSERT_TRUE(dev.ReadBatch(ids.data(), rbufs.data(), kBlocks).ok());
  for (size_t i = 0; i < kBlocks; ++i) EXPECT_EQ(got[i], payload[i]) << i;
  dev.set_io_engine(nullptr);
}

TEST_P(DirectIoAxis, BatchLargerThanRingStagingRoundTrip) {
  // A non-contiguous batch of 1.25 MiB, more than the ring's 1 MiB
  // registered staging buffer: on io_uring the first run takes a staging
  // slice and the second overflows it into a per-call bounce buffer.
  FileBlockDevice dev(ScratchPath("staging"), kDirectBlock, true, true);
  ASSERT_TRUE(dev.valid());
  Attach(&dev);
  const size_t kBlocks = 320, kSecondRun = 200;
  std::vector<uint64_t> ids(kBlocks);
  for (auto& id : ids) id = dev.Allocate();
  // Run one is ids[200, 320) (480 KiB), run two ids[0, 200) (800 KiB).
  std::rotate(ids.begin(), ids.begin() + kSecondRun, ids.end());
  Rng rng(11);
  std::vector<std::vector<char>> payload(kBlocks), got(kBlocks);
  std::vector<const void*> wbufs(kBlocks);
  std::vector<void*> rbufs(kBlocks);
  for (size_t i = 0; i < kBlocks; ++i) {
    payload[i].resize(kDirectBlock);
    for (char& c : payload[i]) c = static_cast<char>(rng.Next());
    got[i].assign(kDirectBlock, 0);
    wbufs[i] = payload[i].data();
    rbufs[i] = got[i].data();
  }
  ASSERT_TRUE(dev.WriteBatch(ids.data(), wbufs.data(), kBlocks).ok());
  ASSERT_TRUE(dev.ReadBatch(ids.data(), rbufs.data(), kBlocks).ok());
  for (size_t i = 0; i < kBlocks; ++i) EXPECT_EQ(got[i], payload[i]) << i;
  EXPECT_EQ(dev.stats().block_writes, kBlocks);
  EXPECT_EQ(dev.stats().block_reads, kBlocks);
  dev.set_io_engine(nullptr);
}

// ---------------------------------------------------------- EOF zero-fill

TEST_P(DirectIoAxis, AllocatedButUnwrittenReadsZero) {
  FileBlockDevice dev(ScratchPath("eof"), kDirectBlock, true, true);
  ASSERT_TRUE(dev.valid());
  Attach(&dev);
  uint64_t written = dev.Allocate();
  uint64_t hole = dev.Allocate();     // never written, inside EOF once
  uint64_t past_eof = dev.Allocate();  // stays past EOF
  std::vector<char> payload(kDirectBlock, 'x'), buf(kDirectBlock, 'q');
  ASSERT_TRUE(dev.Write(written, payload.data()).ok());
  ASSERT_TRUE(dev.Read(past_eof, buf.data()).ok());
  for (char c : buf) ASSERT_EQ(c, 0);
  // Write past the hole so `hole` becomes a real file hole, then read it.
  uint64_t far = dev.Allocate();
  ASSERT_TRUE(dev.Write(far, payload.data()).ok());
  buf.assign(kDirectBlock, 'q');
  ASSERT_TRUE(dev.Read(hole, buf.data()).ok());
  for (char c : buf) ASSERT_EQ(c, 0);
  // A batch spanning written and unwritten blocks zero-fills the tail.
  uint64_t span_ids[2] = {written, hole};
  std::vector<char> b0(kDirectBlock), b1(kDirectBlock, 'q');
  void* bufs[2] = {b0.data(), b1.data()};
  ASSERT_TRUE(dev.ReadBatch(span_ids, bufs, 2).ok());
  EXPECT_EQ(0, std::memcmp(b0.data(), payload.data(), kDirectBlock));
  for (char c : b1) ASSERT_EQ(c, 0);
  // A batch run that crosses EOF reads the rest as zeros.
  uint64_t tail = dev.Allocate();
  uint64_t eof_ids[2] = {far, tail};
  b0.assign(kDirectBlock, 'q');
  b1.assign(kDirectBlock, 'q');
  ASSERT_TRUE(dev.ReadBatch(eof_ids, bufs, 2).ok());
  EXPECT_EQ(0, std::memcmp(b0.data(), payload.data(), kDirectBlock));
  for (char c : b1) ASSERT_EQ(c, 0);
  dev.set_io_engine(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Transports, DirectIoAxis, kAllTransports,
                         TransportParamName);

// ------------------------------------------------- stats identity contract

TEST(DirectIo, StatsBitIdenticalToBufferedMode) {
  // The same scattered workload on a buffered and a direct device must
  // produce identical contents AND identical IoStats: direct I/O is a
  // wall-clock/cold-cache knob, not a cost-model change.
  auto run = [](bool direct, IoStats* cost) {
    FileBlockDevice dev(ScratchPath(direct ? "stats_d" : "stats_b"),
                        kDirectBlock, true, direct);
    ASSERT_TRUE(dev.valid());
    const size_t kBlocks = 23;
    std::vector<uint64_t> ids(kBlocks);
    for (auto& id : ids) id = dev.Allocate();
    std::vector<char> block(kDirectBlock);
    IoProbe probe(dev);
    for (size_t i = 0; i < kBlocks; ++i) {
      block.assign(kDirectBlock, static_cast<char>(i));
      ASSERT_TRUE(dev.Write(ids[i], block.data()).ok());
    }
    // Batched read of a forward run, then scattered single reads.
    std::vector<std::vector<char>> got(kBlocks,
                                       std::vector<char>(kDirectBlock));
    std::vector<void*> bufs(kBlocks);
    for (size_t i = 0; i < kBlocks; ++i) bufs[i] = got[i].data();
    ASSERT_TRUE(dev.ReadBatch(ids.data(), bufs.data(), kBlocks).ok());
    for (size_t i = 0; i < kBlocks; i += 3) {
      ASSERT_TRUE(dev.Read(ids[i], got[i].data()).ok());
    }
    *cost = probe.delta();
  };
  IoStats buffered, direct;
  run(false, &buffered);
  run(true, &direct);
  EXPECT_TRUE(buffered == direct)
      << "buffered " << buffered.ToString() << " vs direct "
      << direct.ToString();
}

TEST(DirectIo, SortOnDirectDeviceMatchesBuffered) {
  // End-to-end: an external sort with prefetch + engine on a direct
  // device returns the same answer at the same PDM cost as the buffered
  // synchronous run.
  const size_t kMem = 64 * 1024, kItems = 30000;
  Rng rng(2026);
  std::vector<uint64_t> data(kItems);
  for (auto& x : data) x = rng.Next() % 1000000;
  std::vector<uint64_t> want = data;
  std::sort(want.begin(), want.end());

  auto run = [&](bool direct, size_t depth, IoEngine* engine,
                 IoStats* cost, std::vector<uint64_t>* out_items) {
    FileBlockDevice dev(ScratchPath(direct ? "sort_d" : "sort_b"),
                        kDirectBlock, true, direct);
    ASSERT_TRUE(dev.valid());
    if (engine != nullptr) dev.set_io_engine(engine);
    ExtVector<uint64_t> input(&dev);
    ASSERT_TRUE(input.AppendAll(data.data(), data.size()).ok());
    ExternalSorter<uint64_t> sorter(
        &dev, Options{.memory_budget = kMem, .prefetch_depth = depth});
    ExtVector<uint64_t> out(&dev);
    IoProbe probe(dev);
    ASSERT_TRUE(sorter.Sort(input, &out).ok());
    *cost = probe.delta();
    ASSERT_TRUE(out.ReadAll(out_items).ok());
    dev.set_io_engine(nullptr);
  };
  IoStats buffered_cost, direct_cost;
  std::vector<uint64_t> buffered_out, direct_out;
  IoEngine engine(2);
  run(false, 0, nullptr, &buffered_cost, &buffered_out);
  run(true, 8, &engine, &direct_cost, &direct_out);
  EXPECT_EQ(buffered_out, want);
  EXPECT_EQ(direct_out, want);
  EXPECT_TRUE(buffered_cost == direct_cost)
      << "buffered " << buffered_cost.ToString() << " vs direct "
      << direct_cost.ToString();
}

// ------------------------------------------------------ durability (Sync)

TEST(FileDeviceSync, SyncFlushesWithoutTouchingStats) {
  FileBlockDevice dev(ScratchPath("sync"), kDirectBlock);
  ASSERT_TRUE(dev.valid());
  std::vector<char> block(kDirectBlock, 'x');
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, block.data()).ok());
  IoStats before = dev.stats();
  // The durability barrier is not a PDM transfer: counters are frozen.
  EXPECT_TRUE(dev.Sync().ok());
  EXPECT_TRUE(before == dev.stats());
  // Data written before the barrier reads back intact after it.
  std::vector<char> got(kDirectBlock, 0);
  ASSERT_TRUE(dev.Read(id, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), block.data(), kDirectBlock), 0);
}

TEST(FileDeviceSync, SyncOnCloseViaOptions) {
  Options opts;
  opts.block_size = kDirectBlock;
  opts.sync_on_close = true;
  std::string path = ScratchPath("sync_close");
  std::vector<char> block(kDirectBlock, 'y');
  {
    FileBlockDevice dev(path, opts, /*unlink_on_close=*/false);
    ASSERT_TRUE(dev.valid());
    uint64_t id = dev.Allocate();
    ASSERT_TRUE(dev.Write(id, block.data()).ok());
    // Destructor issues the fdatasync barrier before close.
  }
  {
    FileBlockDevice dev2(path, kDirectBlock);  // truncates: just cleanup
    ASSERT_TRUE(dev2.valid());
  }
}

}  // namespace
}  // namespace vem
