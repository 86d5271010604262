// BufferPool: the internal-memory half of the PDM.
//
// A set of m = M/B frames caches device blocks with CLOCK (second
// chance) replacement, kept by a ClockDirectory (io/clock_directory.h).
// Online structures (B+-tree, buffer tree, ExtVector random access) pin
// and unpin pages here; a pool miss costs exactly one device read (plus
// a write if the victim is dirty) — which is how the model charges them.
//
// Arbitrated mode: constructed with a MemoryArbiter, the pool becomes
// resizable — its frame count is a revocable lease on the shared M. It
// can grow past its baseline while scans idle and shed clean unpinned
// frames under staging pressure (never below its pinned set). So that
// arbitration moves memory without ever moving the cost model, the pool
// then charges IoStats by GHOST accounting: a second, payload-less
// ClockDirectory of the *baseline* capacity replays every access, and
// the pool charges reads and writes exactly when that fixed-size pool
// would have made them, while the physical transfers (which follow the
// resized pool's actual hits and misses) ride the uncounted plane. Both
// directories run the same replacement code, so IoStats are
// bit-identical with the arbiter on or off, for any access sequence.
// Requires a device with an uncounted plane; otherwise the arbiter is
// ignored and the pool stays fixed.
#pragma once

#include <cstdint>
#include <memory>

#include "io/block_device.h"
#include "io/clock_directory.h"
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
  size_t pinned_frames() const { return frames_.pinned(); }
  size_t dirty_frames() const;
  BlockDevice* device() const { return dev_; }

 private:
  using FrameDirectory = ClockDirectory<IoBuffer>;
  using GhostDirectory = ClockDirectory<NoPayload>;

  /// Admit `id` to the ghost as the baseline pool would on a miss,
  /// charging the write-back of a dirty baseline victim. Busy when the
  /// baseline pool would have had every frame pinned.
  Status AdmitToGhost(uint64_t id, bool dirty);
  /// Physical write-back of one frame, on the plane the mode dictates.
  Status WriteBack(const FrameDirectory::Slot& f);
  /// Physical victim for a miss. In arbitrated mode an all-pinned pool
  /// yields *idx == num_frames(): append an emergency frame there.
  Status FrameVictim(size_t* idx);
  /// Best shrink victim: invalid first, then cold clean unpinned, then
  /// warm clean unpinned, then (when allowed) dirty unpinned. False
  /// when nothing eligible remains.
  bool FindShedVictim(bool allow_dirty, size_t* out) const;
  void AppendFrames(size_t n);
  /// Grow to, or shrink toward, `target` (>= 1) frames and confirm the
  /// lease. Shrinking stops at the pinned set, and at dirty frames
  /// unless `allow_dirty` (then written back; only that can fail).
  Status SizeTo(size_t target, bool allow_dirty);
  /// Window bookkeeping + arbiter report in arbitrated mode.
  void NoteAccess(bool hit);

  BlockDevice* dev_;
  FrameDirectory frames_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t writebacks_ = 0;
  size_t baseline_frames_;

  // Arbitrated mode (null lease_ = classic fixed pool).
  std::unique_ptr<PoolLease> lease_;
  GhostDirectory ghost_;  // the baseline pool's directory, no payload
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
