// BufferPool: the internal-memory half of the PDM.
//
// A set of m = M/B frames caches device blocks with CLOCK (second
// chance) replacement. Online structures (B+-tree, buffer tree, ExtVector
// random access) pin and unpin pages here; a pool miss costs exactly one
// device read (plus a write if the victim is dirty) — which is how the
// model charges them.
//
// Arbitrated mode: constructed with a MemoryArbiter, the pool becomes
// resizable — its frame count is a revocable lease on the shared M. It
// can grow past its baseline while scans idle and shed clean unpinned
// frames under staging pressure (never below its pinned set). So that
// arbitration moves memory without ever moving the cost model, the pool
// then charges IoStats by GHOST accounting: a directory of the pool's
// *baseline* capacity replays every access with baseline CLOCK
// replacement, and AccountReads/AccountWrites are issued exactly when
// that fixed-size pool would have read or written — while the physical
// transfers (which follow the resized pool's actual hits and misses)
// ride the device's uncounted plane. IoStats are bit-identical with the
// arbiter on or off, for any access sequence; only wall-clock changes.
// Requires a device with an uncounted plane; otherwise the arbiter is
// ignored and the pool stays fixed.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "io/block_device.h"
#include "util/status.h"

namespace vem {

class MemoryArbiter;
class PoolLease;
class TenantLease;

/// Page cache over one BlockDevice: fixed-capacity by default,
/// lease-backed and resizable under a MemoryArbiter.
class BufferPool {
 public:
  /// @param dev backing device (not owned)
  /// @param num_frames internal-memory capacity in blocks (PDM m = M/B);
  ///        must be >= 1. In arbitrated mode this is also the BASELINE
  ///        capacity the ghost charges against.
  /// @param arbiter optional shared-M accountant; the pool leases its
  ///        frames from it and follows grow/shed targets at access-window
  ///        boundaries. Ignored (fixed pool) on devices without an
  ///        uncounted plane.
  /// @param tenant optional account the lease charges against (null =
  ///        the arbiter's default tenant); see RegisterTenant.
  BufferPool(BlockDevice* dev, size_t num_frames,
             MemoryArbiter* arbiter = nullptr, TenantLease* tenant = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// Pin block `id`, fetching it from the device on a miss.
  /// On success *data points at block_size() bytes valid until Unpin.
  /// Returns Busy when every frame is pinned.
  Status Pin(uint64_t id, char** data);

  /// Allocate a fresh device block and pin it without reading (contents
  /// zeroed). On success *id/*data are set.
  Status PinNew(uint64_t* id, char** data);

  /// Drop one pin on `id`; `dirty` marks the page for write-back.
  void Unpin(uint64_t id, bool dirty);

  /// Write back all dirty pages (pages stay cached). On a journaling
  /// device (DurableBlockDevice with the WAL on) each write-back only
  /// journals the page into the open transaction and does not force the
  /// log: the device is no-steal and recovery redoes only committed
  /// transactions, so the transaction's Commit() — which forces every
  /// record appended before its commit record — is the durability point.
  Status FlushAll();

  /// Drop `id` from the cache (no write-back) — pair with device Free()
  /// when deallocating a block. No-op if not cached. Must be unpinned.
  void Evict(uint64_t id);

  // ------------------------------------------------------------ sizing

  /// Resize to `new_frames`: growth appends empty frames; shrinking
  /// evicts unpinned frames (writing back dirty victims). Returns Busy
  /// when pinned frames block part of the shrink — the pool is left as
  /// small as it could get. new_frames must be >= 1.
  Status Resize(size_t new_frames);

  /// Grow by up to `extra` frames; in arbitrated mode the growth is
  /// bounded by the lease target. Returns frames actually added.
  size_t TryGrow(size_t extra);

  /// Drop up to `max_frames` CLEAN unpinned frames (cold first) without
  /// any I/O. Returns frames actually shed.
  size_t Shed(size_t max_frames);

  // ------------------------------------------------------- introspection
  size_t num_frames() const { return frames_.size(); }
  /// The PDM anchor capacity (ghost size in arbitrated mode; == the
  /// construction-time num_frames).
  size_t baseline_frames() const { return baseline_frames_; }
  bool arbitrated() const { return lease_ != nullptr; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  /// Physical dirty-page write-backs (evictions, shrinks and flushes).
  uint64_t writebacks() const { return writebacks_; }
  /// Valid, unpinned frames whose CLOCK reference bit is clear — the
  /// reclaim-candidate set the arbiter weighs.
  size_t cold_frames() const;
  size_t pinned_frames() const;
  size_t dirty_frames() const;
  BlockDevice* device() const { return dev_; }

 private:
  struct Frame {
    uint64_t block_id = 0;
    IoBuffer data;
    int pin_count = 0;
    bool dirty = false;
    bool valid = false;
    bool referenced = false;
  };

  /// Ghost directory entry: the baseline pool's bookkeeping without the
  /// payload bytes. Replays the same CLOCK policy over the same access
  /// sequence to decide what a fixed pool would have charged.
  struct GhostFrame {
    uint64_t block_id = 0;
    int pin_count = 0;
    bool dirty = false;
    bool valid = false;
    bool referenced = false;
  };

  /// Find a victim frame via CLOCK; writes back if dirty. Returns frame
  /// index, or Busy (deterministically, after one bounded sweep) when
  /// every frame is pinned.
  Status FindVictim(size_t* out);

  /// Ghost mirror of Pin: charge what the baseline pool would have
  /// (1 write per dirty ghost eviction now; *charge_read reports
  /// whether a ghost miss owes 1 read, charged by the caller only once
  /// the physical transfer can no longer fail — the baseline, too,
  /// charges nothing for a failed read). Returns Busy when the
  /// baseline pool would have had every frame pinned.
  Status GhostPin(uint64_t id, bool* charge_read);
  /// Charge-and-clear one ghost page's dirty bit (1 write) if set;
  /// used by FlushAll to mirror the baseline's per-segment charging.
  void GhostFlushId(uint64_t id);
  Status GhostPinNew(uint64_t id);
  void GhostUnpin(uint64_t id, bool dirty);
  void GhostEvict(uint64_t id);
  Status GhostVictim(size_t* out);

  /// Physical write-back of one frame, on the plane the mode dictates.
  Status WriteBack(Frame* f);
  /// Best shrink victim: invalid first, then cold clean unpinned, then
  /// warm clean unpinned, then (when allowed) dirty unpinned. False
  /// when nothing eligible remains.
  bool FindShedVictim(bool allow_dirty, size_t* out) const;
  /// Remove frame `idx` (must be unpinned) via swap-with-last.
  void RemoveFrame(size_t idx);
  void AppendFrames(size_t n);
  /// Shed toward `target` without I/O (clean unpinned frames only).
  void ShedTo(size_t target);
  /// Window bookkeeping + arbiter report in arbitrated mode.
  void NoteAccess(bool hit);

  BlockDevice* dev_;
  std::vector<Frame> frames_;
  std::unordered_map<uint64_t, size_t> table_;  // block id -> frame
  size_t clock_hand_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t writebacks_ = 0;
  size_t baseline_frames_;
  size_t pinned_count_ = 0;  // frames with pin_count > 0 (O(1) census)

  // Arbitrated mode (null lease_ = classic fixed pool).
  std::unique_ptr<PoolLease> lease_;
  std::vector<GhostFrame> ghost_frames_;
  std::unordered_map<uint64_t, size_t> ghost_table_;
  size_t ghost_hand_ = 0;
  size_t ghost_pinned_count_ = 0;
  size_t report_every_ = 0;
  size_t window_accesses_ = 0;
  size_t window_hits_ = 0;
  size_t window_misses_ = 0;
};

/// RAII pin guard. Movable, not copyable.
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, uint64_t id, char* data)
      : pool_(pool), id_(id), data_(data) {}
  PageRef(PageRef&& o) noexcept { *this = std::move(o); }
  PageRef& operator=(PageRef&& o) noexcept {
    if (this == &o) return *this;  // self-move must not drop the pin
    Release();
    pool_ = o.pool_;
    id_ = o.id_;
    data_ = o.data_;
    dirty_ = o.dirty_;
    o.pool_ = nullptr;
    o.dirty_ = false;  // moved-from ref must not re-dirty a future page
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Release(); }

  /// Acquire a pin on `id`.
  static Status Acquire(BufferPool* pool, uint64_t id, PageRef* out) {
    char* data = nullptr;
    VEM_RETURN_IF_ERROR(pool->Pin(id, &data));
    *out = PageRef(pool, id, data);
    return Status::OK();
  }

  char* data() const { return data_; }
  uint64_t id() const { return id_; }
  bool valid() const { return pool_ != nullptr; }
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (pool_ != nullptr) {
      pool_->Unpin(id_, dirty_);
      pool_ = nullptr;
    }
  }

 private:
  BufferPool* pool_ = nullptr;
  uint64_t id_ = 0;
  char* data_ = nullptr;
  bool dirty_ = false;
};

}  // namespace vem
