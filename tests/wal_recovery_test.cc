// Durability-plane tests: WAL format and manager, group commit,
// DurableBlockDevice journaling + ARIES-lite recovery, the crash-safety
// satellites (sticky errors, fsync/fdatasync split, torn writes), and
// the kill-at-random-point harness that proves the headline claim:
// every acknowledged commit survives SIGKILL bit-identically, every
// unacknowledged one vanishes.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/buffer_pool.h"
#include "io/faulty_device.h"
#include "io/file_block_device.h"
#include "io/memory_block_device.h"
#include "util/options.h"
#include "wal/durable_block_device.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace vem {
namespace {

std::string ScratchPath(const char* name) {
  return std::string("/tmp/vem_wal_") + name + ".bin";
}

void FillBytes(char* buf, size_t n, uint64_t seed) {
  uint64_t x = seed + 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < n; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    buf[i] = static_cast<char>((x * 0x2545F4914F6CDD1Dull) >> 56);
  }
}

// ------------------------------------------------------------- format

TEST(WalFormat, CrcDetectsCorruption) {
  char payload[64];
  FillBytes(payload, sizeof(payload), 7);
  wal::RecordHeader h{};
  h.magic = wal::kWalMagic;
  h.payload_size = sizeof(payload);
  h.type = static_cast<uint32_t>(wal::RecordType::kBlockImage);
  h.lsn = wal::kHeaderSize + sizeof(payload);
  h.txn = 3;
  h.block_id = 9;
  h.crc = wal::RecordCrc(h, payload, sizeof(payload));
  EXPECT_EQ(h.crc, wal::RecordCrc(h, payload, sizeof(payload)));
  payload[10] ^= 1;  // payload corruption
  EXPECT_NE(h.crc, wal::RecordCrc(h, payload, sizeof(payload)));
  payload[10] ^= 1;
  h.txn ^= 1;  // header corruption
  EXPECT_NE(h.crc, wal::RecordCrc(h, payload, sizeof(payload)));
}

// ------------------------------------------------- append, scan, reset

TEST(WalManagerTest, AppendFlushScanRoundTrip) {
  MemoryBlockDevice log(256);
  WalManager wal(&log, WalManager::Config{});
  ASSERT_TRUE(wal.valid());

  char payload[100];
  FillBytes(payload, sizeof(payload), 42);
  uint64_t lsn = 0;
  ASSERT_TRUE(wal.Append(wal::RecordType::kBlockImage, /*txn=*/7,
                         /*block_id=*/3, payload, sizeof(payload), &lsn)
                  .ok());
  EXPECT_EQ(lsn, wal::kHeaderSize + sizeof(payload));
  EXPECT_EQ(wal.last_lsn(), lsn);
  EXPECT_EQ(wal.durable_lsn(), 0u);  // append alone is not durable

  ASSERT_TRUE(wal.Commit(7).ok());
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());
  EXPECT_GE(wal.fsync_count(), 1u);

  // The scanner sees exactly the two records (pads filtered out).
  wal::WalScanner scan(&log);
  wal::WalRecord rec;
  bool valid = false;
  ASSERT_TRUE(scan.Next(&rec, &valid).ok());
  ASSERT_TRUE(valid);
  EXPECT_EQ(rec.type(), wal::RecordType::kBlockImage);
  EXPECT_EQ(rec.header.txn, 7u);
  EXPECT_EQ(rec.header.block_id, 3u);
  ASSERT_EQ(rec.payload.size(), sizeof(payload));
  EXPECT_EQ(std::memcmp(rec.payload.data(), payload, sizeof(payload)), 0);
  ASSERT_TRUE(scan.Next(&rec, &valid).ok());
  ASSERT_TRUE(valid);
  EXPECT_EQ(rec.type(), wal::RecordType::kCommit);
  EXPECT_EQ(rec.header.txn, 7u);
  ASSERT_TRUE(scan.Next(&rec, &valid).ok());
  EXPECT_FALSE(valid);
  EXPECT_FALSE(scan.torn_tail());
}

TEST(WalManagerTest, ResetTruncatesLog) {
  MemoryBlockDevice log(256);
  WalManager wal(&log, WalManager::Config{});
  char payload[16] = {};
  ASSERT_TRUE(wal.Append(wal::RecordType::kBlockImage, 1, 0, payload,
                         sizeof(payload), nullptr)
                  .ok());
  ASSERT_TRUE(wal.Commit(1).ok());
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.last_lsn(), 0u);
  EXPECT_EQ(wal.durable_lsn(), 0u);
  wal::WalScanner scan(&log);
  wal::WalRecord rec;
  bool valid = true;
  ASSERT_TRUE(scan.Next(&rec, &valid).ok());
  EXPECT_FALSE(valid);
  EXPECT_FALSE(scan.torn_tail());
}

// ------------------------------------------------------- group commit

TEST(GroupCommitTest, ConcurrentCommitsShareFsyncs) {
  MemoryBlockDevice log(512);
  WalManager::Config cfg;
  cfg.group_commit_us = 100;  // widen the batch window a little
  WalManager wal(&log, cfg);

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &failures, t] {
      char payload[32];
      FillBytes(payload, sizeof(payload), t);
      if (!wal.Append(wal::RecordType::kBlockImage, t + 1, t, payload,
                      sizeof(payload), nullptr)
               .ok() ||
          !wal.Commit(t + 1).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // The batching bound: every commit durable, but between 1 fsync
  // (perfect batch) and kThreads fsyncs (no batching), never more.
  EXPECT_GE(wal.fsync_count(), 1u);
  EXPECT_LE(wal.fsync_count(), static_cast<uint64_t>(kThreads));
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());
}

struct FakeWalClock final : WalClock {
  std::atomic<uint64_t> sleeps{0};
  std::atomic<uint64_t> total_us{0};
  void SleepMicros(uint64_t us) override {
    sleeps.fetch_add(1);
    total_us.fetch_add(us);
  }
};

TEST(GroupCommitTest, WindowRidesInjectedClock) {
  MemoryBlockDevice log(512);
  FakeWalClock clock;
  WalManager::Config cfg;
  cfg.group_commit_us = 5000;
  cfg.clock = &clock;
  WalManager wal(&log, cfg);
  ASSERT_TRUE(wal.Commit(1).ok());
  // The leader waited exactly the configured window — on the fake
  // clock, so the test itself never sleeps.
  EXPECT_GE(clock.sleeps.load(), 1u);
  EXPECT_EQ(clock.total_us.load() / clock.sleeps.load(), 5000u);
  EXPECT_EQ(wal.fsync_count(), 1u);
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());
}

// ------------------------------------- FileBlockDevice crash-safety

TEST(FileDeviceDurability, StickyLastErrorOnOpenFailure) {
  FileBlockDevice dev("/vem_no_such_dir_zz9/file.bin", 512);
  EXPECT_FALSE(dev.valid());
  EXPECT_FALSE(dev.last_error().ok());
  // Sticky: still reported later, not cleared by the query.
  EXPECT_FALSE(dev.last_error().ok());
}

TEST(FileDeviceDurability, FsyncForGrowthFdatasyncForOverwrite) {
  FileBlockDevice dev(ScratchPath("syncsplit"), 512);
  ASSERT_TRUE(dev.valid());
  std::vector<char> buf(512);
  FillBytes(buf.data(), buf.size(), 1);
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, buf.data()).ok());
  // First barrier after an append: the file grew, full fsync required
  // (file-length metadata must be durable too).
  ASSERT_TRUE(dev.Sync().ok());
  EXPECT_EQ(dev.full_syncs(), 1u);
  EXPECT_EQ(dev.data_syncs(), 0u);
  // Overwrite in place: no growth, the cheaper fdatasync suffices.
  ASSERT_TRUE(dev.Write(id, buf.data()).ok());
  ASSERT_TRUE(dev.Sync().ok());
  EXPECT_EQ(dev.full_syncs(), 1u);
  EXPECT_EQ(dev.data_syncs(), 1u);
  EXPECT_TRUE(dev.last_error().ok());
}

// --------------------------------------------- torn-write recovery

TEST(TornWriteTest, RecoveryKeepsPriorCommitsDropsTornTail) {
  MemoryBlockDevice logmem(512);
  FaultyBlockDevice faultylog(&logmem);
  WalManager wal(&faultylog, WalManager::Config{});
  MemoryBlockDevice data(512);
  DurableBlockDevice dev(&data, &wal);
  ASSERT_TRUE(dev.valid());

  std::vector<char> img_a(512), img_b(512);
  FillBytes(img_a.data(), img_a.size(), 0xA);
  FillBytes(img_b.data(), img_b.size(), 0xB);
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, img_a.data()).ok());
  ASSERT_TRUE(dev.Commit().ok());

  // Tear the NEXT log write mid-block: 100 bytes of new content land,
  // the tail keeps stale bytes, and the device reports the crash.
  faultylog.SetTornWrite(faultylog.writes_seen() + 1, 100);
  ASSERT_TRUE(dev.Write(id, img_b.data()).ok());
  EXPECT_FALSE(dev.Commit().ok());

  // Recover from the raw log medium into a fresh data device: the CRC
  // scan must stop at the torn record, keep txn 1, and drop txn 2.
  WalManager wal2(&logmem, WalManager::Config{});
  MemoryBlockDevice data2(512);
  RecoveryResult res;
  ASSERT_TRUE(RecoverWal(&wal2, &data2, &res).ok());
  EXPECT_TRUE(res.torn_tail);
  EXPECT_EQ(res.committed_txns, 1u);
  EXPECT_EQ(res.redone_blocks, 1u);
  std::vector<char> got(512);
  ASSERT_TRUE(data2.Read(id, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img_a.data(), 512), 0);
}

// ------------------------------------ DurableBlockDevice semantics

TEST(DurableDeviceTest, OverlayServesUncommittedCommitApplies) {
  MemoryBlockDevice logdev(512), datadev(512);
  WalManager wal(&logdev, WalManager::Config{});
  DurableBlockDevice dev(&datadev, &wal);
  ASSERT_TRUE(dev.valid());

  std::vector<char> img(512), got(512);
  FillBytes(img.data(), img.size(), 5);
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, img.data()).ok());
  EXPECT_EQ(dev.pending_blocks(), 1u);
  // The uncommitted image is readable through the wrapper...
  ASSERT_TRUE(dev.Read(id, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img.data(), 512), 0);
  // ...but has not touched the data device at all (no-steal: the inner
  // device does not even hold the block yet).
  EXPECT_EQ(datadev.num_allocated(), 0u);

  ASSERT_TRUE(dev.Commit().ok());
  EXPECT_EQ(dev.pending_blocks(), 0u);
  ASSERT_TRUE(datadev.Read(id, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img.data(), 512), 0);
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());
}

TEST(DurableDeviceTest, UncommittedWritesVanishAcrossReopen) {
  const std::string base = ScratchPath("reopen");
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
  Options opts;
  opts.block_size = 512;
  opts.enable_wal = true;

  std::vector<char> committed(512), uncommitted(512), got(512);
  FillBytes(committed.data(), committed.size(), 0xC0);
  FillBytes(uncommitted.data(), uncommitted.size(), 0xDE);
  uint64_t id;
  {
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid()) << st.status().ToString();
    id = st.device->Allocate();
    ASSERT_TRUE(st.device->Write(id, committed.data()).ok());
    ASSERT_TRUE(st.device->Commit().ok());
    // Journaled but never committed: must not survive.
    ASSERT_TRUE(st.device->Write(id, uncommitted.data()).ok());
  }  // abandoned without Commit — the "crash"
  {
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid()) << st.status().ToString();
    ASSERT_TRUE(st.device->Read(id, got.data()).ok());
    EXPECT_EQ(std::memcmp(got.data(), committed.data(), 512), 0);
    EXPECT_EQ(st.device->num_allocated(), 1u);
  }
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
}

TEST(DurableDeviceTest, AllocationMapSurvivesReopen) {
  const std::string base = ScratchPath("allocmap");
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
  Options opts;
  opts.block_size = 512;
  opts.enable_wal = true;

  std::vector<char> img(512), got(512);
  FillBytes(img.data(), img.size(), 3);
  {
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid());
    uint64_t a = st.device->Allocate();
    uint64_t b = st.device->Allocate();
    uint64_t c = st.device->Allocate();
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);
    ASSERT_TRUE(st.device->Write(c, img.data()).ok());
    ASSERT_TRUE(st.device->Commit().ok());
    st.device->Free(b);
    ASSERT_TRUE(st.device->Commit().ok());
  }
  {
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid());
    EXPECT_EQ(st.device->num_allocated(), 2u);
    // The freed id is reused, not leaked.
    EXPECT_EQ(st.device->Allocate(), 1u);
    ASSERT_TRUE(st.device->Read(2, got.data()).ok());
    EXPECT_EQ(std::memcmp(got.data(), img.data(), 512), 0);
  }
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
}

// ----------------------------------------- pass-through identity

TEST(DurableDeviceTest, WalOffIsStatsInvisible) {
  auto workload = [](BlockDevice* d) {
    BufferPool pool(d, 4);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 8; ++i) {
      uint64_t id;
      char* data;
      ASSERT_TRUE(pool.PinNew(&id, &data).ok());
      FillBytes(data, d->block_size(), i);
      pool.Unpin(id, /*dirty=*/true);
      ids.push_back(id);
    }
    for (int i = 0; i < 8; i += 2) {
      char* data;
      ASSERT_TRUE(pool.Pin(ids[i], &data).ok());
      pool.Unpin(ids[i], /*dirty=*/false);
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  };
  MemoryBlockDevice raw(512);
  workload(&raw);

  MemoryBlockDevice inner(512);
  DurableBlockDevice wrapped(&inner, /*wal=*/nullptr);
  workload(&wrapped);

  // The pass-through wrapper is invisible: the inner device sees the
  // exact counters the bare device recorded, and the wrapper mirrors
  // them (the standing IoStats-identity invariant with WAL off).
  EXPECT_TRUE(inner.stats() == raw.stats());
  EXPECT_TRUE(wrapped.stats() == raw.stats());
}

// ------------------------------------- BufferPool and the log force

TEST(BufferPoolWalTest, CommitIsTheOnlyLogForce) {
  MemoryBlockDevice logdev(512), datadev(512);
  WalManager wal(&logdev, WalManager::Config{});
  DurableBlockDevice dev(&datadev, &wal);
  ASSERT_TRUE(dev.valid());
  const uint64_t lsn0 = wal.last_lsn();
  const uint64_t fsyncs0 = wal.fsync_count();

  BufferPool pool(&dev, 4);
  for (int i = 0; i < 2; ++i) {
    uint64_t id;
    char* data;
    ASSERT_TRUE(pool.PinNew(&id, &data).ok());
    FillBytes(data, 512, 9 + i);
    pool.Unpin(id, /*dirty=*/true);
  }
  const size_t dirty = pool.dirty_frames();
  ASSERT_EQ(dirty, 2u);

  // FlushAll journals the pages into the open transaction...
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_GT(wal.last_lsn(), lsn0);
  EXPECT_EQ(dev.pending_blocks(), dirty);
  // ...but forces nothing: uncommitted records make nothing recoverable.
  EXPECT_EQ(wal.fsync_count(), fsyncs0);
  EXPECT_LT(wal.durable_lsn(), wal.last_lsn());

  // Commit forces everything appended before its commit record, once.
  ASSERT_TRUE(dev.Commit().ok());
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());
  EXPECT_EQ(wal.fsync_count(), fsyncs0 + 1);
}

// ------------------------------------------ failed apply, stale log

TEST(DurableDeviceTest, FailedApplyKeepsCommittedImages) {
  MemoryBlockDevice logdev(512), datamem(512);
  FaultyBlockDevice data(&datamem);
  std::vector<char> a(512, 'A'), b(512, 'B'), got(512);
  uint64_t x, y;
  {
    WalManager wal(&logdev, WalManager::Config{});
    DurableBlockDevice dev(&data, &wal);
    ASSERT_TRUE(dev.valid());
    x = dev.Allocate();
    y = dev.Allocate();
    ASSERT_TRUE(dev.Write(x, a.data()).ok());
    ASSERT_TRUE(dev.Write(y, a.data()).ok());
    ASSERT_TRUE(dev.Commit().ok());

    ASSERT_TRUE(dev.Write(x, b.data()).ok());
    ASSERT_TRUE(dev.Write(y, b.data()).ok());
    // The log force succeeds; the first data apply fails once.
    data.SetTransientWriteFault(data.writes_seen() + 1, 1);
    Status s = dev.Commit();
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();

    // The durable transaction stays visible and blocks the log cut.
    for (uint64_t id : {x, y}) {
      ASSERT_TRUE(dev.Read(id, got.data()).ok());
      EXPECT_EQ(std::memcmp(got.data(), b.data(), 512), 0) << "id " << id;
    }
    EXPECT_GE(dev.pending_blocks(), 1u);
    EXPECT_TRUE(dev.Checkpoint().IsInvalidArgument());

    // The next Commit applies it; then the log may be cut.
    ASSERT_TRUE(dev.Commit().ok());
    EXPECT_EQ(dev.pending_blocks(), 0u);
    ASSERT_TRUE(dev.Checkpoint().ok());
  }
  WalManager wal(&logdev, WalManager::Config{});
  DurableBlockDevice dev(&data, &wal);
  ASSERT_TRUE(dev.valid()) << dev.status().ToString();
  for (uint64_t id : {x, y}) {
    ASSERT_TRUE(datamem.Read(id, got.data()).ok());
    EXPECT_EQ(std::memcmp(got.data(), b.data(), 512), 0) << "id " << id;
  }
}

TEST(WalManagerTest, BorrowedResetDropsStaleRecords) {
  MemoryBlockDevice logdev(512), datadev(512);
  std::vector<char> img(512), got(512);
  uint64_t x;
  {
    WalManager wal(&logdev, WalManager::Config{});
    DurableBlockDevice dev(&datadev, &wal);
    ASSERT_TRUE(dev.valid());
    uint64_t y = dev.Allocate();
    x = dev.Allocate();
    FillBytes(img.data(), img.size(), 0x7);
    ASSERT_TRUE(dev.Write(y, img.data()).ok());
    ASSERT_TRUE(dev.Commit().ok());
    std::memset(img.data(), 'B', img.size());
    ASSERT_TRUE(dev.Write(x, img.data()).ok());
    ASSERT_TRUE(dev.Commit().ok());
    ASSERT_TRUE(dev.Checkpoint().ok());
    std::memset(img.data(), 'C', img.size());
    ASSERT_TRUE(dev.Write(x, img.data()).ok());
    ASSERT_TRUE(dev.Commit().ok());
  }  // abandoned: reopening runs recovery over the borrowed log
  WalManager wal(&logdev, WalManager::Config{});
  DurableBlockDevice dev(&datadev, &wal);
  ASSERT_TRUE(dev.valid()) << dev.status().ToString();
  ASSERT_TRUE(dev.Read(x, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img.data(), 512), 0)
      << "a record from before the checkpoint was replayed";
}

// ------------------------------------------------------ block deltas

TEST(WalFormat, BlockDeltaRoundTripAndMergeRule) {
  constexpr size_t kB = 512;
  std::vector<char> base(kB), img(kB), out(kB);
  FillBytes(base.data(), kB, 11);
  EXPECT_TRUE(wal::EncodeBlockDelta(base.data(), base.data(), kB).empty());

  img = base;
  img[10] ^= 1;
  img[10 + wal::kDeltaMergeGap] ^= 1;       // 15 unchanged bytes apart
  img[300] ^= 1;
  img[300 + wal::kDeltaMergeGap + 1] ^= 1;  // 16 unchanged bytes apart
  img[kB - 1] ^= 1;                         // last byte
  std::vector<char> d = wal::EncodeBlockDelta(base.data(), img.data(), kB);
  // Runs: [10, 26], [300], [317], [511] -> four 8-byte run headers.
  EXPECT_EQ(d.size(), 4 * 8 + (wal::kDeltaMergeGap + 1) + 1 + 1 + 1);
  out = base;
  ASSERT_TRUE(wal::ApplyBlockDelta(d.data(), d.size(), out.data(), kB));
  EXPECT_EQ(out, img);
}

/// Byte-at-a-time delta encoder: the format's definition. The library
/// encoder may scan faster but must emit exactly these bytes.
std::vector<char> BytewiseBlockDelta(const char* base, const char* img,
                                     size_t n) {
  std::vector<char> out;
  size_t i = 0;
  while (i < n) {
    if (base[i] == img[i]) {
      ++i;
      continue;
    }
    size_t last = i;
    for (size_t j = i + 1; j < n && j - last <= wal::kDeltaMergeGap; ++j) {
      if (base[j] != img[j]) last = j;
    }
    const uint32_t off = static_cast<uint32_t>(i);
    const uint32_t len = static_cast<uint32_t>(last + 1 - i);
    out.insert(out.end(), reinterpret_cast<const char*>(&off),
               reinterpret_cast<const char*>(&off) + sizeof(off));
    out.insert(out.end(), reinterpret_cast<const char*>(&len),
               reinterpret_cast<const char*>(&len) + sizeof(len));
    out.insert(out.end(), img + i, img + last + 1);
    i = last + 1;
  }
  return out;
}

// Random images against the byte-wise encoder, with sizes that leave a
// tail shorter than a word and changes clustered at 8-byte word edges
// (the last byte of one word, the first of the next) and in the tail.
TEST(WalFormat, BlockDeltaMatchesBytewiseReference) {
  std::mt19937_64 rng(0x5EEDDE17A);
  for (size_t n : {1, 5, 8, 9, 15, 16, 23, 63, 64, 65, 509, 512, 4093}) {
    std::vector<char> base(n), img, out;
    for (int trial = 0; trial < 300; ++trial) {
      FillBytes(base.data(), n, rng());
      img = base;
      const int changes = static_cast<int>(rng() % 7);
      for (int k = 0; k < changes; ++k) {
        size_t at = 0;
        switch (rng() % 3) {
          case 0:
            at = rng() % n;
            break;
          case 1:  // either side of a word edge
            at = (rng() % (n / 8 + 1)) * 8 + (rng() % 2 == 0 ? 0 : 7);
            break;
          default:  // inside the sub-word tail (or the last byte)
            at = n - 1 - rng() % (n % 8 == 0 ? 1 : n % 8);
            break;
        }
        at %= n;
        img[at] = static_cast<char>(img[at] ^ (1 + rng() % 255));
      }
      std::vector<char> d = wal::EncodeBlockDelta(base.data(), img.data(), n);
      ASSERT_EQ(d, BytewiseBlockDelta(base.data(), img.data(), n))
          << "n=" << n << " trial=" << trial;
      out = base;
      ASSERT_TRUE(wal::ApplyBlockDelta(d.data(), d.size(), out.data(), n));
      ASSERT_EQ(out, img);
    }
  }
}

/// Every valid record in `log`, in log order.
std::vector<wal::WalRecord> ScanLog(BlockDevice* log) {
  std::vector<wal::WalRecord> recs;
  wal::WalScanner scan(log);
  wal::WalRecord rec;
  bool valid = false;
  while (scan.Next(&rec, &valid).ok() && valid) recs.push_back(rec);
  return recs;
}

/// Block-record types the log holds for `id`, in log order.
std::vector<wal::RecordType> BlockRecordTypes(BlockDevice* log,
                                              uint64_t id) {
  std::vector<wal::RecordType> types;
  for (const wal::WalRecord& rec : ScanLog(log)) {
    if ((rec.type() == wal::RecordType::kBlockImage ||
         rec.type() == wal::RecordType::kBlockDelta) &&
        rec.header.block_id == id) {
      types.push_back(rec.type());
    }
  }
  return types;
}

TEST(DeltaRecoveryTest, RebuildsGarbageBlockFromImageAndDeltas) {
  MemoryBlockDevice logdev(512), datadev(512);
  std::vector<char> img(512), got(512);
  uint64_t id;
  {
    WalManager wal(&logdev, WalManager::Config{});
    DurableBlockDevice dev(&datadev, &wal);
    ASSERT_TRUE(dev.valid());
    id = dev.Allocate();
    FillBytes(img.data(), img.size(), 21);
    ASSERT_TRUE(dev.Write(id, img.data()).ok());
    ASSERT_TRUE(dev.Commit().ok());
    for (int t = 0; t < 3; ++t) {
      std::memset(img.data() + 40 * t, 'a' + t, 8);
      img[500 - t] ^= 0x5A;
      ASSERT_TRUE(dev.Write(id, img.data()).ok());
      ASSERT_TRUE(dev.Commit().ok());
    }
    const std::vector<wal::RecordType> want = {
        wal::RecordType::kBlockImage, wal::RecordType::kBlockDelta,
        wal::RecordType::kBlockDelta, wal::RecordType::kBlockDelta};
    EXPECT_EQ(BlockRecordTypes(&logdev, id), want);
  }
  // Torn or scribbled data page: redo must not depend on what it holds.
  std::vector<char> garbage(512);
  FillBytes(garbage.data(), garbage.size(), 0xBAD);
  ASSERT_TRUE(datadev.WriteUncounted(id, garbage.data()).ok());

  WalManager wal(&logdev, WalManager::Config{});
  DurableBlockDevice dev(&datadev, &wal);
  ASSERT_TRUE(dev.valid()) << dev.status().ToString();
  EXPECT_EQ(dev.recovery().redone_blocks, 1u);
  EXPECT_EQ(dev.recovery().redone_deltas, 3u);
  ASSERT_TRUE(datadev.Read(id, got.data()).ok());
  EXPECT_EQ(got, img);
}

TEST(DeltaRecoveryTest, RewriteInOneTxnAndAcrossCheckpoint) {
  MemoryBlockDevice logdev(512), datadev(512);
  std::vector<char> img(512), got(512);
  uint64_t id;
  {
    WalManager wal(&logdev, WalManager::Config{});
    DurableBlockDevice dev(&datadev, &wal);
    ASSERT_TRUE(dev.valid());
    id = dev.Allocate();
    FillBytes(img.data(), img.size(), 51);
    ASSERT_TRUE(dev.Write(id, img.data()).ok());
    // A rewrite of a pending block diffs against the overlay image.
    std::memset(img.data() + 100, 'p', 4);
    ASSERT_TRUE(dev.Write(id, img.data()).ok());
    ASSERT_TRUE(dev.Commit().ok());
    const std::vector<wal::RecordType> before = {
        wal::RecordType::kBlockImage, wal::RecordType::kBlockDelta};
    EXPECT_EQ(BlockRecordTypes(&logdev, id), before);

    // A checkpoint starts a new cycle: the next write is a full image.
    ASSERT_TRUE(dev.Checkpoint().ok());
    std::memset(img.data() + 200, 'q', 4);
    ASSERT_TRUE(dev.Write(id, img.data()).ok());
    std::memset(img.data() + 300, 'r', 4);
    ASSERT_TRUE(dev.Write(id, img.data()).ok());
    ASSERT_TRUE(dev.Commit().ok());
    EXPECT_EQ(BlockRecordTypes(&logdev, id), before);
  }
  std::vector<char> garbage(512);
  FillBytes(garbage.data(), garbage.size(), 0xBAD);
  ASSERT_TRUE(datadev.WriteUncounted(id, garbage.data()).ok());

  WalManager wal(&logdev, WalManager::Config{});
  DurableBlockDevice dev(&datadev, &wal);
  ASSERT_TRUE(dev.valid()) << dev.status().ToString();
  ASSERT_TRUE(datadev.Read(id, got.data()).ok());
  EXPECT_EQ(got, img);
}

TEST(DeltaRecoveryTest, FreeThenReallocateLogsFullImage) {
  MemoryBlockDevice logdev(512), datadev(512);
  WalManager wal(&logdev, WalManager::Config{});
  DurableBlockDevice dev(&datadev, &wal);
  ASSERT_TRUE(dev.valid());
  std::vector<char> img(512);
  FillBytes(img.data(), img.size(), 31);
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, img.data()).ok());
  ASSERT_TRUE(dev.Commit().ok());
  img[7] ^= 1;
  ASSERT_TRUE(dev.Write(id, img.data()).ok());
  ASSERT_TRUE(dev.Commit().ok());

  dev.Free(id);
  ASSERT_EQ(dev.Allocate(), id);
  img[8] ^= 1;
  ASSERT_TRUE(dev.Write(id, img.data()).ok());
  ASSERT_TRUE(dev.Commit().ok());
  const std::vector<wal::RecordType> want = {wal::RecordType::kBlockImage,
                                             wal::RecordType::kBlockDelta,
                                             wal::RecordType::kBlockImage};
  EXPECT_EQ(BlockRecordTypes(&logdev, id), want);
}

TEST(DeltaRecoveryTest, RunPastBlockEndIsCorruption) {
  constexpr size_t kB = 512;
  auto run = [](uint32_t off, uint32_t len, size_t bytes) {
    std::vector<char> p(8 + bytes, 'z');
    std::memcpy(p.data(), &off, 4);
    std::memcpy(p.data() + 4, &len, 4);
    return p;
  };
  const std::vector<std::vector<char>> bad = {
      run(kB - 4, 16, 16),                  // reaches past the block end
      run(kB + 1, 1, 1),                    // starts past the block end
      run(8, 0xFFFFFFF8u, 16),              // off + len wraps 32 bits
      run(0, 0, 0),                         // empty run
      run(0, 32, 16),                       // run longer than the payload
      std::vector<char>{1, 0, 0},           // truncated run header
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "payload " << i);
    MemoryBlockDevice logdev(kB), datadev(kB);
    WalManager wal(&logdev, WalManager::Config{});
    std::vector<char> img(kB), got(kB);
    FillBytes(img.data(), kB, 41);
    ASSERT_TRUE(wal.Append(wal::RecordType::kBlockImage, 1, 0, img.data(),
                           kB, nullptr)
                    .ok());
    // Valid CRC, malformed run: only the payload decoder can catch it.
    ASSERT_TRUE(wal.Append(wal::RecordType::kBlockDelta, 1, 0,
                           bad[i].data(), bad[i].size(), nullptr)
                    .ok());
    ASSERT_TRUE(wal.Commit(1).ok());

    RecoveryResult res;
    Status s = RecoverWal(&wal, &datadev, &res);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(datadev.num_allocated(), 1u);
    ASSERT_TRUE(datadev.Read(0, got.data()).ok());
    EXPECT_EQ(got, img);  // the bad delta was never written back
  }
}

// ------------------------------------------- kill-point harness

// The child runs a deterministic seeded workload against DurableStorage
// and SIGKILLs itself at the Nth instrumented durability event (log
// block write, pre/post fsync, data apply). The parent recovers and
// checks that the surviving state equals the cumulative workload state
// after exactly k commits for some k in [max acked, max started] —
// acked commits durable (durability), unstarted ones absent (no
// phantoms), and never a partial transaction (atomicity).
constexpr size_t kKPBlockSize = 512;
constexpr int kKPBlocks = 6;
constexpr int kKPTxns = 10;

// What one transaction does to each block it touches: rewrite the whole
// block (every write logs a full image), or rewrite a few short byte
// runs of it (every write after a block's first logs a delta).
enum class KPWorkload { kWholeBlocks, kPartialUpdates };

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull + b * 0xBF58476D1CE4E5B9ull +
               c * 0x94D049BB133111EBull + 1;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  return x;
}

bool TxnWritesBlock(uint64_t seed, int t, int b) {
  return b == (t % kKPBlocks) || Mix(seed, t, b) % 3 == 0;
}

// Turn block b's content before transaction t into its content after.
void TxnUpdateBlock(KPWorkload w, uint64_t seed, int t, int b, char* buf) {
  const uint64_t h = Mix(seed, t, b);
  if (w == KPWorkload::kWholeBlocks) {
    FillBytes(buf, kKPBlockSize, h);
    return;
  }
  const int runs = 1 + static_cast<int>(h % 3);
  for (int r = 0; r < runs; ++r) {
    const uint64_t g = Mix(h, r, 0x5EED);
    const size_t len = 1 + g % 24;
    const size_t off = (g >> 8) % (kKPBlockSize - len + 1);
    FillBytes(buf + off, len, g);
  }
}

// Expected content of block b after the first k transactions committed.
void ExpectedBlock(KPWorkload w, uint64_t seed, int k, int b, char* buf) {
  std::memset(buf, 0, kKPBlockSize);
  for (int t = 1; t <= k; ++t) {
    if (TxnWritesBlock(seed, t, b)) TxnUpdateBlock(w, seed, t, b, buf);
  }
}

int g_kp_events = 0;
int g_kp_kill_at = 0;
void KillPointHook() {
  if (++g_kp_events == g_kp_kill_at) raise(SIGKILL);
}

void AppendStatusLine(int fd, char tag, int value) {
  char line[32];
  int n = std::snprintf(line, sizeof(line), "%c %d\n", tag, value);
  (void)!write(fd, line, n);
}

// Runs in the forked child; never returns.
[[noreturn]] void KillPointChild(KPWorkload w, const std::string& base,
                                 const std::string& status_path,
                                 uint64_t seed, int kill_at) {
  int sfd = open(status_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (sfd < 0) _exit(10);
  g_kp_events = 0;
  g_kp_kill_at = kill_at;
  SetWalTestCrashHook(&KillPointHook);
  {
    Options opts;
    opts.block_size = kKPBlockSize;
    opts.enable_wal = true;
    DurableStorage st(base, opts);
    if (!st.valid()) _exit(11);
    for (int b = 0; b < kKPBlocks; ++b) st.device->Allocate();
    std::vector<std::vector<char>> cur(kKPBlocks,
                                       std::vector<char>(kKPBlockSize, 0));
    for (int t = 1; t <= kKPTxns; ++t) {
      for (int b = 0; b < kKPBlocks; ++b) {
        if (!TxnWritesBlock(seed, t, b)) continue;
        TxnUpdateBlock(w, seed, t, b, cur[b].data());
        if (!st.device->Write(b, cur[b].data()).ok()) _exit(12);
      }
      AppendStatusLine(sfd, 'S', t);
      if (!st.device->Commit().ok()) _exit(13);
      AppendStatusLine(sfd, 'A', t);
    }
  }
  SetWalTestCrashHook(nullptr);
  AppendStatusLine(sfd, 'E', g_kp_events);
  close(sfd);
  _exit(0);
}

struct ChildOutcome {
  int max_started = 0;
  int max_acked = 0;
  int total_events = -1;  // -1 when the child died before finishing
};

ChildOutcome RunKillPointChild(KPWorkload w, const std::string& base,
                               uint64_t seed, int kill_at) {
  const std::string status_path = base + ".status";
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
  std::remove(status_path.c_str());
  pid_t pid = fork();
  if (pid == 0) KillPointChild(w, base, status_path, seed, kill_at);
  EXPECT_GT(pid, 0);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  EXPECT_TRUE((WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) ||
              (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0))
      << "child ended unexpectedly: status=" << wstatus
      << " seed=" << seed << " kill_at=" << kill_at;
  ChildOutcome out;
  std::ifstream in(status_path);
  std::string tag;
  int value;
  while (in >> tag >> value) {
    if (tag == "S") out.max_started = std::max(out.max_started, value);
    if (tag == "A") out.max_acked = std::max(out.max_acked, value);
    if (tag == "E") out.total_events = value;
  }
  return out;
}

// Records of type `type` in the log file at `path`.
int CountLogRecords(const std::string& path, wal::RecordType type) {
  FileBlockDevice log(path, kKPBlockSize, /*unlink_on_close=*/false,
                      /*direct_io=*/false, /*sync_on_close=*/false,
                      /*open_existing=*/true);
  int n = 0;
  for (const wal::WalRecord& rec : ScanLog(&log)) n += rec.type() == type;
  return n;
}

// Probe the workload's event count, then SIGKILL it at VEM_WAL_KILL_POINTS
// (default 100) points spread over that range and check each recovery.
void RunKillPointSweep(KPWorkload w, const char* name) {
  const std::string base = ScratchPath(name);
  uint64_t seed = 0xC0FFEE;
  if (const char* s = std::getenv("VEM_WAL_KILL_SEED")) {
    seed = std::strtoull(s, nullptr, 0);
  }
  int points = 100;
  if (const char* p = std::getenv("VEM_WAL_KILL_POINTS")) {
    points = std::atoi(p);
  }

  // Probe run: no kill, count the instrumented events of the workload.
  ChildOutcome probe = RunKillPointChild(w, base, seed, /*kill_at=*/0);
  ASSERT_GT(probe.total_events, 0) << "seed=" << seed;
  ASSERT_EQ(probe.max_acked, kKPTxns);
  if (w == KPWorkload::kPartialUpdates) {
    EXPECT_GT(CountLogRecords(base + ".wal", wal::RecordType::kBlockDelta),
              0)
        << "the partial-update workload logged no block delta";
  }
  const int total = probe.total_events;
  if (points > total) points = total;

  Options opts;
  opts.block_size = kKPBlockSize;
  opts.enable_wal = true;
  std::vector<char> got(kKPBlockSize), want(kKPBlockSize);

  for (int i = 0; i < points; ++i) {
    // Kill points distributed across the whole event range.
    int kill_at = 1 + static_cast<int>((static_cast<int64_t>(i) * total) /
                                       points);
    SCOPED_TRACE(testing::Message() << "seed=" << seed
                                    << " kill_at=" << kill_at << "/"
                                    << total << " (point " << i << ")");
    ChildOutcome out = RunKillPointChild(w, base, seed, kill_at);
    ASSERT_LE(out.max_acked, out.max_started);

    // Recover (DurableStorage construction replays the log).
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid()) << st.status().ToString();

    // The recovered state must be the cumulative workload state after
    // exactly k commits, for a single k in [max_acked, max_started].
    int matched_k = -1;
    for (int k = out.max_acked; k <= out.max_started && matched_k < 0;
         ++k) {
      bool all = true;
      for (int b = 0; b < kKPBlocks && all; ++b) {
        ExpectedBlock(w, seed, k, b, want.data());
        ASSERT_TRUE(st.device->Read(b, got.data()).ok());
        all = std::memcmp(got.data(), want.data(), kKPBlockSize) == 0;
      }
      if (all) matched_k = k;
    }
    EXPECT_GE(matched_k, out.max_acked)
        << "recovered state matches no k in [" << out.max_acked << ", "
        << out.max_started << "] — durability or atomicity violated";
  }
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
  std::remove((base + ".status").c_str());
}

TEST(WalKillPointTest, AckedCommitsSurviveUnackedVanish) {
  RunKillPointSweep(KPWorkload::kWholeBlocks, "killpoint");
}

TEST(WalKillPointTest, PartialUpdatesSurviveAsDeltas) {
  RunKillPointSweep(KPWorkload::kPartialUpdates, "killpoint_delta");
}

}  // namespace
}  // namespace vem
