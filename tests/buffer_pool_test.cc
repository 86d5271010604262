// BufferPool eviction/accounting tests: hit/miss/dirty-writeback
// counters across Resize grow/shrink, Evict-while-cached, the
// deterministic all-pinned Busy path, and the arbitrated-mode ghost
// charging contract (pool resizes never change device IoStats for the
// same access sequence), plus a seeded random-op run of the fixed and
// arbitrated pools against a test-local reference CLOCK model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "io/buffer_pool.h"
#include "io/faulty_device.h"
#include "io/memory_arbiter.h"
#include "io/memory_block_device.h"

namespace vem {
namespace {

MemoryArbiter::Config RoomyConfig() {
  MemoryArbiter::Config cfg;
  cfg.budget_bytes = 64 * 64;  // 64 blocks of 64 bytes
  cfg.block_size = 64;
  cfg.window_accesses = 4;
  return cfg;
}

TEST(BufferPoolAccounting, HitMissWritebackCounters) {
  MemoryBlockDevice dev(64);
  BufferPool pool(&dev, 2);
  std::vector<uint64_t> ids(4);
  char* d;
  for (auto& id : ids) {
    ASSERT_TRUE(pool.PinNew(&id, &d).ok());
    d[0] = 'x';
    pool.Unpin(id, /*dirty=*/true);
  }
  // 4 new pages through 2 frames: the 3rd and 4th PinNew each evicted a
  // dirty page.
  EXPECT_EQ(pool.writebacks(), 2u);
  EXPECT_EQ(pool.hits(), 0u);
  // Re-pin the last two (cached) and the first two (evicted).
  ASSERT_TRUE(pool.Pin(ids[3], &d).ok());
  pool.Unpin(ids[3], false);
  ASSERT_TRUE(pool.Pin(ids[2], &d).ok());
  pool.Unpin(ids[2], false);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 0u);
  ASSERT_TRUE(pool.Pin(ids[0], &d).ok());
  pool.Unpin(ids[0], false);
  EXPECT_EQ(pool.misses(), 1u);
  // Dirty pages remaining get written by FlushAll and counted.
  uint64_t wb = pool.writebacks();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_GE(pool.writebacks(), wb);
}

TEST(BufferPoolAccounting, EvictWhileCachedDropsWithoutWriteback) {
  MemoryBlockDevice dev(64);
  BufferPool pool(&dev, 4);
  uint64_t id;
  char* d;
  ASSERT_TRUE(pool.PinNew(&id, &d).ok());
  d[0] = 'z';
  pool.Unpin(id, /*dirty=*/true);
  ASSERT_TRUE(pool.FlushAll().ok());  // 'z' reaches the device
  uint64_t wb_flush = pool.writebacks();
  // Dirty it again, then Evict: the new value is dropped, not written.
  ASSERT_TRUE(pool.Pin(id, &d).ok());
  d[0] = 'q';
  pool.Unpin(id, /*dirty=*/true);
  uint64_t writes_before = dev.stats().block_writes;
  pool.Evict(id);  // deallocation path: no write-back
  EXPECT_EQ(pool.writebacks(), wb_flush);
  EXPECT_EQ(dev.stats().block_writes, writes_before);
  // The page is gone from the cache: a fresh Pin is a miss (and a read)
  // and sees the flushed value, not the evicted one.
  uint64_t reads_before = dev.stats().block_reads;
  uint64_t misses_before = pool.misses();
  ASSERT_TRUE(pool.Pin(id, &d).ok());
  EXPECT_EQ(d[0], 'z');
  pool.Unpin(id, false);
  EXPECT_EQ(pool.misses(), misses_before + 1);
  EXPECT_EQ(dev.stats().block_reads, reads_before + 1);
}

TEST(BufferPoolAccounting, AllPinnedBusyIsDeterministic) {
  MemoryBlockDevice dev(64);
  BufferPool pool(&dev, 3);
  uint64_t ids[3];
  char* d;
  for (auto& id : ids) ASSERT_TRUE(pool.PinNew(&id, &d).ok());
  // Every frame pinned: Pin and PinNew fail Busy, again and again (no
  // unbounded sweep, no state damage).
  uint64_t extra;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(pool.PinNew(&extra, &d).IsBusy());
    EXPECT_TRUE(pool.Pin(12345, &d).IsBusy());
  }
  // Releasing one pin makes exactly that frame reclaimable.
  pool.Unpin(ids[1], false);
  EXPECT_TRUE(pool.PinNew(&extra, &d).ok());
}

TEST(BufferPoolAccounting, ResizeGrowKeepsCachedPagesShrinkWritesBack) {
  MemoryBlockDevice dev(64);
  BufferPool pool(&dev, 4);
  std::vector<uint64_t> ids(4);
  char* d;
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.PinNew(&ids[i], &d).ok());
    d[0] = static_cast<char>('a' + i);
    pool.Unpin(ids[i], /*dirty=*/true);
  }
  ASSERT_TRUE(pool.Resize(8).ok());
  EXPECT_EQ(pool.num_frames(), 8u);
  // Growth evicted nothing: all four pages still hit.
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.Pin(ids[i], &d).ok());
    EXPECT_EQ(d[0], 'a' + static_cast<char>(i));
    pool.Unpin(ids[i], false);
  }
  EXPECT_EQ(pool.hits(), 4u);
  // Shrink below the cached set: dirty victims are written back.
  ASSERT_TRUE(pool.Resize(2).ok());
  EXPECT_EQ(pool.num_frames(), 2u);
  EXPECT_GE(pool.writebacks(), 2u);
  // Evicted content must have reached the device.
  char buf[64];
  ASSERT_TRUE(dev.Read(ids[0], buf).ok());
  EXPECT_EQ(buf[0], 'a');
  // Shrinking below the pinned set stops at the pins and reports Busy.
  ASSERT_TRUE(pool.Pin(ids[0], &d).ok());
  ASSERT_TRUE(pool.Pin(ids[1], &d).ok());
  EXPECT_TRUE(pool.Resize(1).IsBusy());
  EXPECT_EQ(pool.num_frames(), 2u);
  pool.Unpin(ids[0], false);
  pool.Unpin(ids[1], false);
}

TEST(BufferPoolAccounting, ShedDropsOnlyCleanUnpinnedFrames) {
  MemoryBlockDevice dev(64);
  BufferPool pool(&dev, 6);
  uint64_t pinned_id, dirty_id;
  std::vector<uint64_t> clean(3);
  char* d;
  ASSERT_TRUE(pool.PinNew(&pinned_id, &d).ok());  // stays pinned
  ASSERT_TRUE(pool.PinNew(&dirty_id, &d).ok());
  pool.Unpin(dirty_id, /*dirty=*/true);
  for (auto& id : clean) {
    ASSERT_TRUE(pool.PinNew(&id, &d).ok());
    pool.Unpin(id, false);
  }
  ASSERT_TRUE(pool.FlushAll().ok());  // clean[] and dirty_id now clean
  // Re-dirty one page.
  ASSERT_TRUE(pool.Pin(dirty_id, &d).ok());
  pool.Unpin(dirty_id, /*dirty=*/true);
  uint64_t writes_before = dev.stats().block_writes;
  // 6 frames: 1 pinned, 1 dirty, 3 clean cached, 1 never used. Shedding
  // "everything" may drop at most the invalid + clean unpinned four.
  size_t shed = pool.Shed(100);
  EXPECT_EQ(shed, 4u);
  EXPECT_EQ(pool.num_frames(), 2u);
  EXPECT_EQ(dev.stats().block_writes, writes_before);  // shed does no I/O
  // The pinned page and the dirty page survived.
  ASSERT_TRUE(pool.Pin(dirty_id, &d).ok());
  EXPECT_EQ(pool.misses(), 0u);
  pool.Unpin(dirty_id, false);
}

// The arbitrated-mode contract: resizing the physical pool NEVER moves
// IoStats — charges follow the fixed baseline-capacity ghost, transfers
// ride the uncounted plane. Run the same access sequence twice, once
// with aggressive mid-sequence resizes, and compare counters exactly.
TEST(BufferPoolAccounting, ArbitratedResizeKeepsIoStatsIdentical) {
  auto run = [](bool resize) {
    MemoryBlockDevice dev(64);
    MemoryArbiter arb(RoomyConfig());
    BufferPool pool(&dev, 4, &arb);
    EXPECT_TRUE(pool.arbitrated());
    std::vector<uint64_t> ids(12);
    char* d;
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_TRUE(pool.PinNew(&ids[i], &d).ok());
      d[0] = static_cast<char>(i);
      pool.Unpin(ids[i], /*dirty=*/true);
      if (resize && i == 4) {
        EXPECT_TRUE(pool.Resize(10).ok());
      }
    }
    // Strided revisits with dirtying, across grow and shrink phases.
    for (size_t round = 0; round < 3; ++round) {
      if (resize && round == 1) {
        EXPECT_TRUE(pool.Resize(2).ok());
      }
      if (resize && round == 2) {
        EXPECT_TRUE(pool.Resize(8).ok());
      }
      for (size_t i = 0; i < ids.size(); i += 2) {
        EXPECT_TRUE(pool.Pin(ids[i], &d).ok());
        EXPECT_EQ(d[0], static_cast<char>(i));
        pool.Unpin(ids[i], round == 0);
      }
    }
    EXPECT_TRUE(pool.FlushAll().ok());
    return dev.stats();
  };
  IoStats fixed = run(/*resize=*/false);
  IoStats resized = run(/*resize=*/true);
  EXPECT_EQ(fixed, resized);
}

// Arbitrated vs classic fixed pool: same sequence, bit-identical stats,
// even while the arbitrated pool physically grows past its baseline.
TEST(BufferPoolAccounting, ArbitratedMatchesFixedPoolCharges) {
  const size_t kBaseline = 4;
  auto run = [&](bool arbitrated) {
    MemoryBlockDevice dev(64);
    MemoryArbiter arb(RoomyConfig());
    BufferPool pool(&dev, kBaseline, arbitrated ? &arb : nullptr);
    std::vector<uint64_t> ids(10);
    char* d;
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_TRUE(pool.PinNew(&ids[i], &d).ok());
      d[0] = static_cast<char>('A' + i);
      pool.Unpin(ids[i], /*dirty=*/true);
    }
    // A working set larger than the baseline, revisited enough times
    // that the arbitrated pool earns growth (miss evidence) and serves
    // later rounds from frames the fixed pool does not have.
    for (size_t round = 0; round < 6; ++round) {
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_TRUE(pool.Pin(ids[i], &d).ok());
        EXPECT_EQ(d[0], static_cast<char>('A' + i));
        pool.Unpin(ids[i], false);
      }
    }
    EXPECT_TRUE(pool.FlushAll().ok());
    if (arbitrated) {
      // The point of the exercise: arbitration physically moved memory.
      EXPECT_GT(pool.num_frames(), kBaseline);
    }
    return dev.stats();
  };
  IoStats fixed = run(false);
  IoStats arbitrated = run(true);
  EXPECT_EQ(fixed, arbitrated);
}

TEST(BufferPoolAccounting, TryGrowBoundedByLeaseTarget) {
  MemoryBlockDevice dev(64);
  // Standalone: TryGrow always grows.
  BufferPool fixed(&dev, 2);
  EXPECT_EQ(fixed.TryGrow(3), 3u);
  EXPECT_EQ(fixed.num_frames(), 5u);
  // Arbitrated with the whole M already charged: no headroom, target
  // stays at the grant, TryGrow cannot exceed it.
  MemoryArbiter::Config tight = RoomyConfig();
  tight.budget_bytes = 8 * 64;  // 8 blocks total (the arbiter's minimum)
  MemoryArbiter arb(tight);
  BufferPool pool(&dev, 8, &arb);
  EXPECT_EQ(arb.free_blocks(), 0u);
  EXPECT_EQ(pool.TryGrow(2), 0u);
  EXPECT_EQ(pool.num_frames(), 8u);
}

// ------------------------------------------------- random-op reference

// What a fixed pool of m frames with CLOCK replacement does and charges,
// reduced to its bookkeeping. A miss takes the lowest-index empty slot,
// else reports Busy when every slot is pinned, else sweeps at most 2m
// slots clearing reference bits; a dirty victim is written back before
// it is dropped. Faults are one-shot: the next read (or write) attempt
// fails and charges nothing. A failed write-back leaves its victim
// cached and dirty; a failed read leaves the victim slot empty.
class RefClock {
 public:
  enum Outcome { kOk, kBusy, kFault };

  explicit RefClock(size_t m) : slots_(m) {}

  bool read_fault = false;   // the next read attempt fails
  bool write_fault = false;  // the next write attempt fails
  uint64_t reads = 0;
  uint64_t writes = 0;

  Outcome Pin(uint64_t id) {
    if (Slot* s = Find(id)) {
      s->pins++;
      s->ref = true;
      return kOk;
    }
    size_t v = 0;
    Outcome o = Victim(&v);
    if (o != kOk) return o;
    if (Fails(&read_fault)) return kFault;
    reads++;
    slots_[v] = Slot{id, 1, false, true, true};
    return kOk;
  }
  /// First half of PinNew: pick the slot; Admit fills it once the pool
  /// has named the new block.
  Outcome PinNew(size_t* slot) { return Victim(slot); }
  void Admit(size_t slot, uint64_t id) {
    slots_[slot] = Slot{id, 1, true, true, true};
  }
  void Unpin(uint64_t id, bool dirty) {
    Slot* s = Find(id);
    ASSERT_NE(s, nullptr);
    s->pins--;
    s->dirty = s->dirty || dirty;
  }
  void Evict(uint64_t id) {
    if (Slot* s = Find(id)) *s = Slot{};
  }
  /// Sorted by id, one contiguous-id segment at a time; a segment's
  /// dirty bits clear only once all of it is written.
  Outcome FlushAll() {
    std::vector<Slot*> dirty;
    for (Slot& s : slots_) {
      if (s.valid && s.dirty) dirty.push_back(&s);
    }
    std::sort(dirty.begin(), dirty.end(),
              [](Slot* a, Slot* b) { return a->id < b->id; });
    for (size_t s = 0; s < dirty.size();) {
      size_t len = 1;
      while (s + len < dirty.size() &&
             dirty[s + len]->id == dirty[s]->id + len) {
        len++;
      }
      for (size_t i = s; i < s + len; ++i) {
        if (Fails(&write_fault)) return kFault;
        writes++;
      }
      for (size_t i = s; i < s + len; ++i) dirty[i]->dirty = false;
      s += len;
    }
    return kOk;
  }

 private:
  struct Slot {
    uint64_t id = 0;
    int pins = 0;
    bool dirty = false;
    bool valid = false;
    bool ref = false;
  };

  Slot* Find(uint64_t id) {
    for (Slot& s : slots_) {
      if (s.valid && s.id == id) return &s;
    }
    return nullptr;
  }
  static bool Fails(bool* armed) {
    bool f = *armed;
    *armed = false;
    return f;
  }
  Outcome Victim(size_t* out) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].valid) {
        *out = i;
        return kOk;
      }
    }
    size_t pinned = 0;
    for (const Slot& s : slots_) pinned += s.pins > 0 ? 1 : 0;
    if (pinned == slots_.size()) return kBusy;
    for (size_t step = 0; step < 2 * slots_.size(); ++step) {
      size_t idx = hand_;
      Slot& s = slots_[idx];
      hand_ = (hand_ + 1) % slots_.size();
      if (s.pins > 0) continue;
      if (s.ref) {
        s.ref = false;
        continue;
      }
      if (s.dirty) {
        if (Fails(&write_fault)) return kFault;
        writes++;
        s.dirty = false;
      }
      s.valid = false;
      *out = idx;
      return kOk;
    }
    return kBusy;
  }

  std::vector<Slot> slots_;
  size_t hand_ = 0;
};

// kFixed: the classic pool, read and write faults.
// kLockstep: arbitrated with no memory headroom, so the physical pool
//   stays at the baseline and transfers the same blocks the ghost
//   charges; read faults only — a failed physical write-back arrives
//   after the ghost has already charged its victim's write.
// kResizing: arbitrated with random Resize calls, no faults (physical
//   transfers then follow the resized pool, not the ghost).
enum class PoolMode { kFixed, kLockstep, kResizing };

void RunAgainstReference(uint64_t seed, PoolMode mode) {
  constexpr size_t kFrames = 8;
  constexpr size_t kB = 64;
  constexpr int kSteps = 4000;
  MemoryBlockDevice mem(kB);
  FaultyBlockDevice dev(&mem);
  MemoryArbiter::Config cfg = RoomyConfig();
  if (mode == PoolMode::kLockstep) cfg.budget_bytes = kFrames * kB;
  MemoryArbiter arb(cfg);
  BufferPool pool(&dev, kFrames, mode == PoolMode::kFixed ? nullptr : &arb);
  ASSERT_EQ(pool.arbitrated(), mode != PoolMode::kFixed);
  RefClock ref(kFrames);
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> live;        // allocated and not evicted
  std::map<uint64_t, char> content;  // expected first byte per block
  struct Held {
    uint64_t id;
    char* data;
  };
  std::vector<Held> held;  // one entry per outstanding pin
  char next_byte = 1;

  auto check = [&](const Status& s, RefClock::Outcome want, int step) {
    SCOPED_TRACE("step " + std::to_string(step) + ": " + s.ToString());
    EXPECT_EQ(s.ok(), want == RefClock::kOk);
    EXPECT_EQ(s.IsBusy(), want == RefClock::kBusy);
    IoStats charged;
    charged.block_reads = charged.parallel_reads = ref.reads;
    charged.block_writes = charged.parallel_writes = ref.writes;
    charged.bytes_read = ref.reads * kB;
    charged.bytes_written = ref.writes * kB;
    EXPECT_EQ(dev.stats(), charged);
  };
  auto unpin_one = [&](size_t k, bool dirty) {
    Held h = held[k];
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
    if (dirty) {
      h.data[0] = next_byte;
      content[h.id] = next_byte++;
    }
    pool.Unpin(h.id, dirty);
    ref.Unpin(h.id, dirty);
  };

  for (int step = 0; step < kSteps && !testing::Test::HasFailure(); ++step) {
    if (mode != PoolMode::kResizing && rng() % 12 == 0) {
      dev.SetTransientReadFault(dev.reads_seen() + 1, 1);
      ref.read_fault = true;
    }
    if (mode == PoolMode::kFixed && rng() % 12 == 0) {
      dev.SetTransientWriteFault(dev.writes_seen() + 1, 1);
      ref.write_fault = true;
    }
    const unsigned op = rng() % 100;
    const bool may_pin = held.size() < kFrames + 2;
    char* d = nullptr;
    if (op < 35 && may_pin && !live.empty()) {  // (multi-)pin
      uint64_t id = live[rng() % live.size()];
      RefClock::Outcome want = ref.Pin(id);
      Status s = pool.Pin(id, &d);
      check(s, want, step);
      if (s.ok()) {
        EXPECT_EQ(d[0], content[id]) << "block " << id;
        held.push_back({id, d});
      }
    } else if (op < 50 && may_pin) {  // PinNew
      size_t slot = 0;
      RefClock::Outcome want = ref.PinNew(&slot);
      uint64_t id = 0;
      Status s = pool.PinNew(&id, &d);
      check(s, want, step);
      if (s.ok()) {
        ref.Admit(slot, id);
        EXPECT_EQ(d[0], 0);
        content[id] = 0;
        live.push_back(id);
        held.push_back({id, d});
      }
    } else if (op < 55) {  // Evict an unpinned block and free it
      if (live.empty()) continue;
      size_t k = rng() % live.size();
      uint64_t id = live[k];
      bool pinned = std::any_of(held.begin(), held.end(),
                                [id](const Held& h) { return h.id == id; });
      if (pinned) continue;
      pool.Evict(id);
      ref.Evict(id);
      dev.Free(id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      content.erase(id);
      check(Status::OK(), RefClock::kOk, step);
    } else if (op < 60) {
      check(pool.FlushAll(), ref.FlushAll(), step);
    } else if (op < 65 && mode == PoolMode::kResizing) {
      // Busy when pins block the shrink: not a baseline event, no charge.
      Status s = pool.Resize(1 + rng() % (2 * kFrames));
      EXPECT_TRUE(s.ok() || s.IsBusy()) << s.ToString();
      check(Status::OK(), RefClock::kOk, step);
    } else if (!held.empty()) {
      unpin_one(rng() % held.size(), rng() % 2 == 0);
      check(Status::OK(), RefClock::kOk, step);
    }
  }
  while (!held.empty()) unpin_one(held.size() - 1, false);
  for (;;) {  // a pending write fault may fail one flush
    RefClock::Outcome want = ref.FlushAll();
    check(pool.FlushAll(), want, kSteps);
    if (want == RefClock::kOk) break;
  }
  EXPECT_EQ(pool.dirty_frames(), 0u);
}

TEST(BufferPoolRandomOps, FixedPoolMatchesReferenceClock) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunAgainstReference(seed, PoolMode::kFixed);
  }
}

TEST(BufferPoolRandomOps, LockstepArbitratedPoolMatchesReferenceClock) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunAgainstReference(seed, PoolMode::kLockstep);
  }
}

TEST(BufferPoolRandomOps, ResizingArbitratedPoolMatchesReferenceClock) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunAgainstReference(seed, PoolMode::kResizing);
  }
}

}  // namespace
}  // namespace vem
