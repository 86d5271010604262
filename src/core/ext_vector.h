// ExtVector<T>: a blocked array of trivially-copyable items on a device.
//
// The fundamental external-memory sequence. Supports:
//  - streaming append via Writer  (1 write per B items   => Scan bound)
//  - streaming scan via Reader    (1 read per B items    => Scan bound)
//  - random access via BufferPool (1 I/O per miss        => online access)
//
// Block-id metadata (O(N/B) words) lives in RAM, as in STXXL/TPIE.
//
// Streaming overlap: a Reader or Writer opened with depth K > 0 arms
// K-block read-ahead or write-behind (on devices with an uncounted
// transfer plane; see block_device.h). The opener picks K: an algorithm
// layer passes the Options::prefetch_depth it was built with, and 0 (the
// default) is synchronous. Readers keep two K-block windows — one being
// consumed, one being fetched — and Writers keep two K-block staging
// groups — one being filled, one being written — so with
// an IoEngine attached the stream computes while the device transfers,
// and even without one, K blocks coalesce into a single vectored syscall.
// IoStats are charged in the consuming thread exactly when the
// synchronous path would have done the I/O, so measured costs are
// bit-identical with prefetching on or off.
//
// When the device carries a PrefetchGovernor (set_prefetch_governor), K
// is a request, not a command: streams lease their depth from the
// governor's global staging budget, report per-window overlap evidence
// (blocks consumed vs staged-unused, consumer stalls), and follow its
// grow/shrink/disarm decisions between windows — including falling back
// to the synchronous path mid-stream when the governor revokes the
// lease. Depth changes never touch IoStats.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "io/block_device.h"
#include "io/buffer_pool.h"
#include "io/io_engine.h"
#include "io/prefetch_governor.h"
#include "util/status.h"

namespace vem {

/// External-memory vector of fixed-size items.
template <typename T>
class ExtVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ExtVector items must be trivially copyable");

 public:
  /// @param dev  backing device (not owned); block_size must hold >= 1 item.
  /// @param pool optional buffer pool for random access Get/Set; streaming
  ///             Reader/Writer never touch the pool.
  explicit ExtVector(BlockDevice* dev, BufferPool* pool = nullptr)
      : dev_(dev), pool_(pool),
        items_per_block_(dev->block_size() / sizeof(T)) {}

  ExtVector(ExtVector&& o) noexcept { *this = std::move(o); }
  ExtVector& operator=(ExtVector&& o) noexcept {
    Destroy();
    dev_ = o.dev_;
    pool_ = o.pool_;
    items_per_block_ = o.items_per_block_;
    Adopt(std::move(o));
    return *this;
  }
  ExtVector(const ExtVector&) = delete;
  ExtVector& operator=(const ExtVector&) = delete;

  ~ExtVector() { Destroy(); }

  /// Free all device blocks; the vector becomes empty.
  void Destroy() {
    if (dev_ == nullptr) return;
    for (uint64_t id : blocks_) {
      if (pool_ != nullptr) pool_->Evict(id);
      dev_->Free(id);
    }
    blocks_.clear();
    size_ = 0;
  }

  /// Take over `o`'s blocks and items, freeing this vector's own. Unlike
  /// move assignment, this vector keeps its pool: the hand-off for a
  /// result built in a temporary on the same device.
  void Adopt(ExtVector&& o) {
    Destroy();
    blocks_ = std::move(o.blocks_);
    size_ = o.size_;
    o.blocks_.clear();
    o.size_ = 0;
  }

  /// Detach the buffer pool, e.g. when the vector outlives a temporary
  /// pool. The caller must FlushAll() that pool first so no dirty pages
  /// are lost; afterwards only streaming access works until a new owner
  /// re-wraps the vector.
  void DetachPool() { pool_ = nullptr; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t items_per_block() const { return items_per_block_; }
  size_t num_blocks() const { return blocks_.size(); }
  /// Device block id backing block index `i` (i < num_blocks()). Lets
  /// schedulers that plan whole-block transfers (the forecast merge)
  /// batch by placement without going through a Reader.
  uint64_t block_id(size_t i) const { return blocks_[i]; }
  BlockDevice* device() const { return dev_; }
  BufferPool* pool() const { return pool_; }

  /// Random read of item i through the buffer pool (pool required).
  Status Get(size_t i, T* out) const {
    if (pool_ == nullptr)
      return Status::InvalidArgument("ExtVector::Get requires a BufferPool");
    if (i >= size_) return Status::InvalidArgument("Get out of range");
    PageRef page;
    VEM_RETURN_IF_ERROR(
        PageRef::Acquire(pool_, blocks_[i / items_per_block_], &page));
    std::memcpy(out, page.data() + (i % items_per_block_) * sizeof(T),
                sizeof(T));
    return Status::OK();
  }

  /// Random write of item i through the buffer pool (pool required).
  Status Set(size_t i, const T& value) {
    if (pool_ == nullptr)
      return Status::InvalidArgument("ExtVector::Set requires a BufferPool");
    if (i >= size_) return Status::InvalidArgument("Set out of range");
    PageRef page;
    VEM_RETURN_IF_ERROR(
        PageRef::Acquire(pool_, blocks_[i / items_per_block_], &page));
    std::memcpy(page.data() + (i % items_per_block_) * sizeof(T), &value,
                sizeof(T));
    page.MarkDirty();
    return Status::OK();
  }

 private:
  /// One read-ahead window / write-behind group: K blocks of payload and
  /// the id/pointer arrays an in-flight engine job reads from. Jobs
  /// capture raw pointers into `ids`/`ptrs`, which stay address-stable
  /// under move (the heap buffers travel), so moving the owner is safe;
  /// the moved-from half forgets the flight so only one side waits it.
  template <typename PtrT>
  struct IoWindow {
    IoBuffer data;
    size_t cap = 0;  // blocks `data` can hold (leased depth may change)
    std::vector<uint64_t> ids;
    std::vector<PtrT> ptrs;
    size_t first_blk = 0;
    size_t nblks = 0;
    size_t consumed = 0;  // distinct blocks the stream entered (governor)
    IoEngine::Ticket ticket = 0;
    bool in_flight = false;
    bool active = false;  // covers a block range (in flight or landed)
    Status st;

    IoWindow() = default;
    IoWindow(IoWindow&& o) noexcept { *this = std::move(o); }
    IoWindow& operator=(IoWindow&& o) noexcept {
      data = std::move(o.data);
      cap = o.cap;
      ids = std::move(o.ids);
      ptrs = std::move(o.ptrs);
      first_blk = o.first_blk;
      nblks = o.nblks;
      consumed = o.consumed;
      ticket = o.ticket;
      in_flight = o.in_flight;
      active = o.active;
      st = std::move(o.st);
      o.cap = 0;
      o.in_flight = false;
      o.active = false;
      o.nblks = 0;
      o.consumed = 0;
      return *this;
    }

    /// Block until any in-flight fill lands; returns the fill's Status.
    Status Ready(IoEngine* engine) {
      if (in_flight) {
        st = engine->Wait(ticket);
        in_flight = false;
      }
      return st;
    }
    /// Forget the covered range, waiting out any flight first (the job
    /// writes into `data`, which must not be reused before it lands).
    void Drop(IoEngine* engine) {
      if (in_flight) {
        (void)engine->Wait(ticket);
        in_flight = false;
      }
      active = false;
      nblks = 0;
    }
    bool Covers(size_t blk) const {
      return active && blk >= first_blk && blk < first_blk + nblks;
    }
  };

 public:
  /// Sequential writer. Synchronous mode owns one block of buffer memory
  /// and costs one device write per full block plus one for the final
  /// partial block. With write-behind armed (depth K > 0), items stage
  /// into a K-block group that is handed to the device as one vectored
  /// write — submitted to the IoEngine when the device is async-capable,
  /// so filling the next group overlaps writing the previous one. The PDM
  /// charge per block is unchanged.
  class Writer {
   public:
    /// @param depth write-behind depth K (0 = synchronous). Takes effect
    ///        on devices whose uncounted plane exists; overlap also needs
    ///        an IoEngine on the device. Holds 2*K blocks of memory.
    explicit Writer(ExtVector* vec, size_t depth = 0) : vec_(vec) {
      size_t rem = vec_->size_ % vec_->items_per_block_;
      // Resuming inside a partial tail block re-reads it; that path (and
      // devices without an uncounted plane) stays synchronous.
      if (rem == 0 && depth > 0 && vec->dev_->SupportsUncounted()) {
        if (PrefetchGovernor* gov = vec->dev_->prefetch_governor()) {
          lease_ = gov->Arm(depth);
          depth = lease_->depth();
          if (depth == 0) lease_.reset();  // refused: run synchronous
        }
      } else {
        depth = 0;
      }
      if (depth > 0) {
        depth_ = depth;
        grp_[0].data =
            AllocIoBuffer(depth_ * vec->dev_->block_size(), /*zeroed=*/true);
        grp_[0].cap = depth_;
        return;
      }
      buf_ = AllocIoBuffer(vec->dev_->block_size());
      if (rem != 0) {
        // The tail block id is kept and rewritten in place by the next
        // flush.
        pending_id_ = vec_->blocks_.back();
        vec_->blocks_.pop_back();
        status_ = vec_->dev_->Read(pending_id_, buf_.get());
        fill_ = rem;
        has_pending_id_ = true;
      }
    }

    ~Writer() {
      // In-flight group writes target grp_ buffers; never free them early.
      // Touch vec_ only when a flight exists — a drained writer may
      // legally outlive its vector. Settling (not dropping) keeps the
      // charge for writes that physically landed, like the sync path.
      if (grp_[0].in_flight || grp_[1].in_flight) {
        for (int i = 0; i < 2; ++i) (void)SettleGroup(i);
      }
    }

    Writer(Writer&&) noexcept = default;
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;

    /// Append one item; returns false on device error (see status()).
    bool Append(const T& v) {
      if (!status_.ok()) return false;
      if (depth_ > 0) {
        const size_t bs = vec_->dev_->block_size();
        const size_t ipb = vec_->items_per_block_;
        char* dst = grp_[gcur_].data.get() + (gitems_ / ipb) * bs +
                    (gitems_ % ipb) * sizeof(T);
        std::memcpy(dst, &v, sizeof(T));
        gitems_++;
        vec_->size_++;
        if (gitems_ == depth_ * ipb) {
          status_ = FlushGroup(/*final_flush=*/false);
          return status_.ok();
        }
        return true;
      }
      std::memcpy(buf_.get() + fill_ * sizeof(T), &v, sizeof(T));
      fill_++;
      vec_->size_++;
      if (fill_ == vec_->items_per_block_) {
        status_ = FlushBlock();
        return status_.ok();
      }
      return true;
    }

    /// Flush all buffered items and wait out in-flight writes. Must be
    /// called before reading.
    Status Finish() {
      if (depth_ > 0) {
        if (status_.ok() && gitems_ > 0) status_ = FlushGroup(true);
        for (int i = 0; i < 2; ++i) {
          Status s = SettleGroup(i);
          if (status_.ok() && !s.ok()) status_ = s;
        }
        lease_.reset();  // hand staging budget back at end of stream
        return status_;
      }
      if (status_.ok() && fill_ > 0) {
        // Zero the tail so never-written bytes are defined.
        std::memset(buf_.get() + fill_ * sizeof(T), 0,
                    vec_->dev_->block_size() - fill_ * sizeof(T));
        status_ = FlushBlock();
      }
      return status_;
    }

    Status status() const { return status_; }

   private:
    Status FlushBlock() {
      uint64_t id = has_pending_id_ ? pending_id_ : vec_->dev_->Allocate();
      has_pending_id_ = false;
      VEM_RETURN_IF_ERROR(vec_->dev_->Write(id, buf_.get()));
      vec_->blocks_.push_back(id);
      fill_ = 0;
      return Status::OK();
    }

    /// Hand the staged group to the device as one vectored write. Blocks
    /// are allocated and charged here via AccountWriteBatch — the
    /// identical totals the device's counted WriteBatch of this group
    /// would record (wave-packed parallel steps on independent disks) —
    /// in one syscall and (with an engine) off the caller's critical
    /// path.
    Status FlushGroup(bool final_flush) {
      BlockDevice* dev = vec_->dev_;
      const size_t bs = dev->block_size();
      const size_t ipb = vec_->items_per_block_;
      IoWindow<const void*>& g = grp_[gcur_];
      size_t nblks = (gitems_ + ipb - 1) / ipb;
      size_t rem = gitems_ % ipb;
      if (final_flush && rem != 0) {
        // Zero the tail so never-written bytes are defined.
        std::memset(g.data.get() + (nblks - 1) * bs + rem * sizeof(T), 0,
                    bs - rem * sizeof(T));
      }
      g.ids.resize(nblks);
      g.ptrs.resize(nblks);
      for (size_t b = 0; b < nblks; ++b) {
        g.ids[b] = dev->Allocate();
        g.ptrs[b] = g.data.get() + b * bs;
        vec_->blocks_.push_back(g.ids[b]);
      }
      IoEngine* engine = dev->io_engine();
      // Depth consult: a saturated engine (no idle worker, jobs queued)
      // would only queue this flight behind everyone else's; flushing
      // inline costs the same wall-clock without growing the backlog.
      // Accounting is identical on both paths, so this is a pure
      // scheduling choice.
      if (engine != nullptr && dev->SupportsAsync() && !final_flush &&
          (lease_ == nullptr || lease_->use_engine()) &&
          engine->Headroom() > 0.0) {
        g.ticket = engine->Submit(
            [dev, ids = g.ids.data(), ptrs = g.ptrs.data(), nblks] {
              return dev->WriteBatchUncounted(ids, ptrs, nblks);
            });
        g.in_flight = true;
        g.active = true;
        pending_charge_[gcur_] = nblks;  // charged when the flight lands
        gcur_ = 1 - gcur_;
        VEM_RETURN_IF_ERROR(SettleGroup(gcur_));  // buffer reuse barrier
        ApplyLeaseDepth();
        IoWindow<const void*>& next = grp_[gcur_];
        // Exact-size: a shrunk lease must release memory (see Reader).
        if (!next.data || next.cap != depth_) {
          next.data = AllocIoBuffer(depth_ * bs, /*zeroed=*/true);
          next.cap = depth_;
        }
      } else {
        if (lease_ != nullptr) {
          // Inline flush under a lease: stall-bracketed like inline
          // reads, so a slow device re-enables background writes.
          uint64_t began = lease_->BeginWait();
          Status s =
              dev->WriteBatchUncounted(g.ids.data(), g.ptrs.data(), nblks);
          lease_->EndWait(began, nblks);
          VEM_RETURN_IF_ERROR(s);
        } else {
          VEM_RETURN_IF_ERROR(
              dev->WriteBatchUncounted(g.ids.data(), g.ptrs.data(), nblks));
        }
        dev->AccountWriteBatch(g.ids.data(), nblks);
        if (!final_flush) {
          ApplyLeaseDepth();
          if (g.cap != depth_) {
            g.data = AllocIoBuffer(depth_ * bs, /*zeroed=*/true);
            g.cap = depth_;
          }
        }
      }
      if (lease_) lease_->ReportWindow(nblks, /*unused=*/0);
      gitems_ = 0;
      return Status::OK();
    }

    /// Adopt the governor's current depth for the next staging group.
    /// Only called between groups (gitems_ == 0 staging boundary); the
    /// write-behind waste signal is always zero, so a leased writer can
    /// shrink toward the floor but never disarms mid-stream.
    void ApplyLeaseDepth() {
      if (!lease_) return;
      size_t d = lease_->depth();
      if (d > 0) depth_ = d;
    }

    /// Wait out group `i`'s flight (if any) and charge its blocks on
    /// success — only writes that physically landed are charged, the
    /// exact totals the counted WriteBatch of this group would have
    /// recorded even when a device error cuts the stream short. Blocking
    /// on an in-flight write is the write-behind stall signal the
    /// governor grows on.
    Status SettleGroup(int i) {
      IoWindow<const void*>& g = grp_[i];
      Status s;
      if (lease_ && g.in_flight) {
        uint64_t began = lease_->BeginWait();
        s = g.Ready(vec_->dev_->io_engine());
        lease_->EndWait(began);
      } else {
        s = g.Ready(vec_->dev_->io_engine());
      }
      if (s.ok() && pending_charge_[i] > 0) {
        // g.ids still holds exactly this flight's ids (reused only
        // after the next FlushGroup resizes it).
        vec_->dev_->AccountWriteBatch(g.ids.data(), pending_charge_[i]);
      }
      pending_charge_[i] = 0;
      return s;
    }

    ExtVector* vec_;
    IoBuffer buf_;
    size_t fill_ = 0;
    Status status_;
    bool has_pending_id_ = false;
    uint64_t pending_id_ = 0;
    // Write-behind state (depth_ == 0 means synchronous).
    size_t depth_ = 0;
    size_t gitems_ = 0;
    int gcur_ = 0;
    IoWindow<const void*> grp_[2];
    size_t pending_charge_[2] = {0, 0};
    std::unique_ptr<PrefetchGovernor::Lease> lease_;
  };

  /// Sequential reader over [start, size). Synchronous mode owns one block
  /// of buffer memory and costs one device read per block touched. With
  /// read-ahead armed, the reader double-buffers two K-block windows: the
  /// window being consumed and the next one, fetched as a single vectored
  /// read (in the background when the device is async-capable). The PDM
  /// charge is identical: one read each time the stream enters a block.
  class Reader {
   public:
    /// @param depth read-ahead depth K (0 = synchronous); as for Writer.
    explicit Reader(const ExtVector* vec, size_t start = 0, size_t depth = 0)
        : vec_(vec), pos_(start) {
      // A vector no longer than one window has nothing to fetch *ahead*
      // of — arming would buy pure machinery cost (the tiny-frontier
      // shape graph workloads produce by the thousand). Stay sync.
      if (vec->blocks_.size() <= depth) depth = 0;
      if (depth > 0 && vec_->dev_->SupportsUncounted()) {
        if (PrefetchGovernor* gov = vec_->dev_->prefetch_governor()) {
          // Route the lease by the placement of the stream's first
          // block: on an independent-disk device the governor then
          // keeps per-disk waste/stall history (route 0 elsewhere).
          size_t blk0 = start / vec->items_per_block_;
          uint64_t route = blk0 < vec->blocks_.size()
                               ? vec->dev_->PrefetchRoute(vec->blocks_[blk0])
                               : 0;
          lease_ = gov->Arm(depth, route);
          depth = lease_->depth();
          if (depth == 0) lease_.reset();  // refused: run synchronous
        }
      } else {
        depth = 0;
      }
      if (depth > 0) {
        depth_ = depth;
      } else {
        buf_ = AllocIoBuffer(vec->dev_->block_size());
      }
    }

    ~Reader() {
      // Report staged-but-unconsumed blocks before the lease closes: a
      // reader destroyed mid-stream (a BFS frontier, a drained PQ run)
      // is exactly the waste evidence the governor adapts on. Touches
      // only window metadata, never vec_.
      if (lease_ != nullptr) {
        for (auto& w : win_) RetireWindow(w);
      }
      // See ~Writer: dereference vec_ only while a fill is in flight.
      if (win_[0].in_flight || win_[1].in_flight) {
        IoEngine* engine = vec_->dev_->io_engine();
        for (auto& w : win_) w.Drop(engine);
      }
    }

    Reader(Reader&&) noexcept = default;
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// Read the next item into *out; returns false at end or on error.
    bool Next(T* out) {
      if (!status_.ok() || pos_ >= vec_->size_) return false;
      size_t blk = pos_ / vec_->items_per_block_;
      const char* src = nullptr;
      if (depth_ > 0) {
        src = WindowBlock(blk);
        // nullptr with an ok status means the governor disarmed the
        // stream (depth_ is 0 now); fall through to the sync path.
        if (src == nullptr && !status_.ok()) return false;
      }
      if (src == nullptr) {
        if (!buf_valid_ || blk != cur_block_) {
          status_ = vec_->dev_->Read(vec_->blocks_[blk], buf_.get());
          if (!status_.ok()) return false;
          cur_block_ = blk;
          buf_valid_ = true;
        }
        src = buf_.get();
      }
      std::memcpy(out, src + (pos_ % vec_->items_per_block_) * sizeof(T),
                  sizeof(T));
      pos_++;
      return true;
    }

    /// Peek without consuming; returns false at end or on error.
    bool Peek(T* out) {
      size_t save = pos_;
      bool ok = Next(out);
      pos_ = save;
      return ok;
    }

    size_t position() const { return pos_; }
    bool exhausted() const { return pos_ >= vec_->size_; }
    Status status() const { return status_; }

    /// Reposition the reader. Free within the buffered block; otherwise
    /// the next Next() reads the target block (1 I/O).
    void Seek(size_t pos) { pos_ = pos; }

   private:
    /// Return the in-window bytes of block `blk`, rotating/refilling the
    /// double buffer as the stream advances. Charges one PDM read per
    /// block entered — when and only when the synchronous reader would
    /// have issued its read. Returns nullptr with status_ ok after a
    /// governor disarm (caller continues on the sync path).
    const char* WindowBlock(size_t blk) {
      IoEngine* engine = vec_->dev_->io_engine();
      if (!win_[cur_].Covers(blk)) {
        // Window boundary: the only point where a revoked lease takes
        // effect (mid-window data is staged and charged-on-entry as
        // usual, so consuming it stays correct).
        if (lease_ != nullptr && lease_->depth() == 0) {
          Disarm(engine);
          return nullptr;
        }
        IoWindow<void*>& next = win_[1 - cur_];
        if (next.Covers(blk)) {
          status_ = ReadyTimed(next, engine);
          if (!status_.ok()) return nullptr;
          size_t follow = next.first_blk + next.nblks;
          RetireWindow(win_[cur_]);
          cur_ = 1 - cur_;
          // RetireWindow's report can revoke the lease mid-boundary;
          // don't launch a speculative fill from staging the governor
          // just reclaimed (it would come back as self-inflicted waste).
          // The staged current window is still consumed; the next
          // boundary's depth check completes the disarm.
          if (lease_ == nullptr || lease_->depth() > 0) {
            StartFill(win_[1 - cur_], follow);
          }
        } else {
          // Cold start or a jump outside both windows: restart the
          // pipeline at `blk`.
          for (auto& w : win_) {
            RetireWindow(w);
            w.Drop(engine);
          }
          // Same mid-boundary revocation check: here there is no staged
          // window left to consume, so disarm immediately.
          if (lease_ != nullptr && lease_->depth() == 0) {
            Disarm(engine);
            return nullptr;
          }
          StartFill(win_[cur_], blk);
          status_ = ReadyTimed(win_[cur_], engine);
          if (!status_.ok()) return nullptr;
          StartFill(win_[1 - cur_], blk + win_[cur_].nblks);
        }
      }
      IoWindow<void*>& w = win_[cur_];
      if (!entered_valid_ || blk != entered_blk_) {
        // Id-aware: a per-block-placement device (independent disks)
        // routes the charge to the child that holds this block; the
        // one-block batch charge is identical to a synchronous Read.
        vec_->dev_->AccountReadBatch(&vec_->blocks_[blk], 1);
        w.consumed++;
        entered_blk_ = blk;
        entered_valid_ = true;
      }
      return w.data.get() + (blk - w.first_blk) * vec_->dev_->block_size();
    }

    /// Ready() with the consumer-stall bracket the governor adapts on.
    Status ReadyTimed(IoWindow<void*>& w, IoEngine* engine) {
      if (lease_ != nullptr && w.in_flight) {
        uint64_t began = lease_->BeginWait();
        Status s = w.Ready(engine);
        lease_->EndWait(began);
        return s;
      }
      return w.Ready(engine);
    }

    /// Report a window that is leaving service: how many of its staged
    /// blocks the stream actually entered vs fetched for nothing.
    void RetireWindow(IoWindow<void*>& w) {
      if (lease_ == nullptr || !w.active || w.nblks == 0) return;
      size_t consumed = std::min(w.consumed, w.nblks);
      lease_->ReportWindow(consumed, w.nblks - consumed);
      w.consumed = 0;
      w.nblks = 0;
      w.active = w.in_flight;  // an in-flight drop still owns its buffer
    }

    /// Governor revoked the lease: retire the staged windows, wait out
    /// flights, release the staging memory, and continue synchronous.
    void Disarm(IoEngine* engine) {
      for (auto& w : win_) {
        RetireWindow(w);
        w.Drop(engine);
        w.data.reset();
        w.cap = 0;
      }
      lease_.reset();
      depth_ = 0;
      buf_ = AllocIoBuffer(vec_->dev_->block_size());
      buf_valid_ = false;
    }

    /// Begin fetching window `w` = blocks [first_blk, first_blk + K) of
    /// the vector (clipped to its end): one vectored uncounted read,
    /// submitted to the engine when the device allows background I/O,
    /// performed inline otherwise. Errors surface when consumed. Adopts
    /// the governor's current depth, so leased streams grow and shrink
    /// at window-fill boundaries.
    void StartFill(IoWindow<void*>& w, size_t first_blk) {
      w.active = false;
      w.st = Status::OK();
      w.nblks = 0;
      w.consumed = 0;
      if (first_blk >= vec_->blocks_.size()) return;
      if (lease_ != nullptr) {
        size_t d = lease_->depth();
        if (d > 0) depth_ = d;  // depth 0 is handled at the next boundary
      }
      BlockDevice* dev = vec_->dev_;
      const size_t bs = dev->block_size();
      // Exact-size (re)allocation: growing needs the room, and a shrunk
      // lease must actually release memory — the governor returned the
      // difference to its budget the moment it shrank the grant.
      if (!w.data || w.cap != depth_) {
        w.data = AllocIoBuffer(depth_ * bs);
        w.cap = depth_;
      }
      w.first_blk = first_blk;
      w.nblks = std::min(depth_, vec_->blocks_.size() - first_blk);
      w.ids.assign(vec_->blocks_.begin() + first_blk,
                   vec_->blocks_.begin() + first_blk + w.nblks);
      w.ptrs.resize(w.nblks);
      for (size_t i = 0; i < w.nblks; ++i) w.ptrs[i] = w.data.get() + i * bs;
      IoEngine* engine = dev->io_engine();
      // Depth consult (mirrors the Writer): submit to a saturated engine
      // and the fill just queues behind the backlog — the inline path is
      // no slower and adds no queue pressure. Accounting is identical
      // either way.
      if (engine != nullptr && dev->SupportsAsync() &&
          (lease_ == nullptr || lease_->use_engine()) &&
          engine->Headroom() > 0.0) {
        w.ticket = engine->Submit(
            [dev, ids = w.ids.data(), ptrs = w.ptrs.data(), n = w.nblks] {
              return dev->ReadBatchUncounted(ids, ptrs, n);
            });
        w.in_flight = true;
      } else if (lease_ != nullptr) {
        // Inline fill under a lease: stall-bracketed (scaled by the
        // blocks moved) so a device turning slow re-enables the engine.
        uint64_t began = lease_->BeginWait();
        w.st = dev->ReadBatchUncounted(w.ids.data(), w.ptrs.data(), w.nblks);
        lease_->EndWait(began, w.nblks);
      } else {
        w.st = dev->ReadBatchUncounted(w.ids.data(), w.ptrs.data(), w.nblks);
      }
      w.active = true;
    }

    const ExtVector* vec_;
    size_t pos_;
    IoBuffer buf_;
    size_t cur_block_ = 0;
    bool buf_valid_ = false;
    Status status_;
    // Read-ahead state (depth_ == 0 means synchronous).
    size_t depth_ = 0;
    int cur_ = 0;
    size_t entered_blk_ = 0;
    bool entered_valid_ = false;
    IoWindow<void*> win_[2];
    std::unique_ptr<PrefetchGovernor::Lease> lease_;
  };

  /// Convenience: bulk-load from an in-memory span (test helper; still
  /// performs the blocked writes, so I/O accounting is honest). `depth`
  /// is the Writer's.
  Status AppendAll(const T* data, size_t n, size_t depth = 0) {
    Writer w(this, depth);
    for (size_t i = 0; i < n; ++i) {
      if (!w.Append(data[i])) return w.status();
    }
    return w.Finish();
  }

  /// Convenience: read everything into an in-memory vector (test helper).
  /// `depth` is the Reader's.
  Status ReadAll(std::vector<T>* out, size_t depth = 0) const {
    out->clear();
    out->reserve(size_);
    Reader r(this, 0, depth);
    T item;
    while (r.Next(&item)) out->push_back(item);
    return r.status();
  }

 private:
  friend class Writer;
  friend class Reader;

  BlockDevice* dev_ = nullptr;
  BufferPool* pool_ = nullptr;
  size_t items_per_block_ = 0;
  std::vector<uint64_t> blocks_;
  size_t size_ = 0;
};

}  // namespace vem
