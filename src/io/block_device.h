// BlockDevice: the disk abstraction of the Parallel Disk Model.
//
// A device owns a growable set of fixed-size blocks addressed by id.
// Reads and writes transfer whole blocks and are counted in IoStats;
// the counters ARE the cost model. Algorithms never touch bytes on
// "disk" except through Read/Write here (directly, via streams, or via
// the BufferPool), so measured I/O counts are exact.
//
// Two access planes:
//  - the COUNTED plane (Read/Write/ReadBatch/WriteBatch) charges IoStats
//    as it transfers — the plane every algorithm uses;
//  - the UNCOUNTED plane (*Uncounted) moves bytes without accounting.
//    It exists for the async I/O engine: read-ahead/write-behind streams
//    perform physical transfers early on engine threads, then charge the
//    PDM cost via AccountReads/AccountWrites in the consuming thread at
//    the moment the synchronous path would have done the I/O. Totals stay
//    bit-identical whether overlap is on or off; speculative blocks that
//    are never consumed are never charged (the PDM prices algorithmic
//    accesses, not hardware prefetches).
#pragma once

#include <cstdint>
#include <memory>
#include <new>

#include "io/io_stats.h"
#include "io/retry_policy.h"
#include "util/status.h"

namespace vem {

class IoEngine;
class PrefetchGovernor;

/// Run `op` under `policy` (or once, when policy is null), reporting
/// every failed attempt to `engine`'s per-disk health monitor under
/// `disk_tag` (when engine is non-null). Defined in retry_policy.cc so
/// this header needs no IoEngine definition. This is the device-side
/// retry shim: it retries only Status::IsTransient() failures, and the
/// health report fires per ATTEMPT — a disk whose faults are papered
/// over by retries still accumulates error evidence. A final
/// Status::IsIOError() result — the retry plane exhausted, or a
/// permanent failure with no retry plane at all — additionally
/// escalates to IoEngine::ReportDiskFailStop: the head's quarantine
/// latches (success evidence no longer clears it) until a rebuild
/// swaps in a spare and ForgetDisk retires the record. Corruption is
/// NOT escalated — it indicts the block's content, not the head.
Status RunWithDiskRetry(RetryPolicy* policy, IoEngine* engine,
                        uint64_t disk_tag, uint64_t key,
                        const std::function<Status()>& op);

/// Memory alignment for I/O buffers. Streams and the buffer pool
/// allocate their block buffers at this bar so devices with strict
/// memory-alignment requirements (FileBlockDevice's O_DIRECT mode) can
/// hand them to the kernel zero-copy instead of bounce-buffering.
inline constexpr size_t kIoMemAlign = 4096;

struct IoBufferDeleter {
  void operator()(char* p) const {
    ::operator delete[](p, std::align_val_t{kIoMemAlign});
  }
};

/// Owning pointer to a kIoMemAlign-aligned char array.
using IoBuffer = std::unique_ptr<char[], IoBufferDeleter>;

/// Allocate `n` bytes aligned to kIoMemAlign; `zeroed` value-initializes.
inline IoBuffer AllocIoBuffer(size_t n, bool zeroed = false) {
  char* p = zeroed ? new (std::align_val_t{kIoMemAlign}) char[n]()
                   : new (std::align_val_t{kIoMemAlign}) char[n];
  return IoBuffer(p);
}

/// AllocIoBuffer that returns null instead of throwing when memory runs
/// out, for callers that report the failure as a Status.
inline IoBuffer AllocIoBuffer(size_t n, std::nothrow_t) {
  return IoBuffer(new (std::align_val_t{kIoMemAlign}, std::nothrow) char[n]);
}

/// Abstract block-granular storage device with block allocation.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Bytes per block (the PDM B, in bytes).
  virtual size_t block_size() const = 0;

  /// Read block `id` into `buf` (must hold block_size() bytes).
  virtual Status Read(uint64_t id, void* buf) = 0;

  /// Write block `id` from `buf` (must hold block_size() bytes).
  virtual Status Write(uint64_t id, const void* buf) = 0;

  /// Vectored read of `n` blocks: ids[i] -> bufs[i]. Counted exactly like
  /// the equivalent Read loop (n block reads, n PDM steps on one disk).
  /// The default IS that loop; devices with a faster path (preadv
  /// coalescing of contiguous ids) override it.
  virtual Status ReadBatch(const uint64_t* ids, void* const* bufs, size_t n) {
    for (size_t i = 0; i < n; ++i)
      VEM_RETURN_IF_ERROR(RetriedRead(ids[i], bufs[i]));
    return Status::OK();
  }

  /// Vectored write of `n` blocks: bufs[i] -> ids[i]. Counting mirrors the
  /// equivalent Write loop; default is that loop.
  virtual Status WriteBatch(const uint64_t* ids, const void* const* bufs,
                            size_t n) {
    for (size_t i = 0; i < n; ++i)
      VEM_RETURN_IF_ERROR(RetriedWrite(ids[i], bufs[i]));
    return Status::OK();
  }

  // ---------------------------------------------------- uncounted plane

  /// True when the *Uncounted transfers below are implemented. Streams
  /// only engage read-ahead/write-behind on such devices.
  virtual bool SupportsUncounted() const { return false; }

  /// True when *Uncounted calls are additionally safe to run on IoEngine
  /// worker threads concurrently with Allocate/Free/metadata work on the
  /// owning thread (transfers touch only immutable or atomic state).
  virtual bool SupportsAsync() const { return false; }

  /// Physical transfer without accounting. Devices that return true from
  /// SupportsUncounted() must override; others reject.
  virtual Status ReadUncounted(uint64_t id, void* buf) {
    (void)id, (void)buf;
    return Status::NotSupported("device has no uncounted read path");
  }
  virtual Status WriteUncounted(uint64_t id, const void* buf) {
    (void)id, (void)buf;
    return Status::NotSupported("device has no uncounted write path");
  }

  /// Vectored uncounted transfers; defaults loop over the single-block
  /// forms, overrides coalesce.
  virtual Status ReadBatchUncounted(const uint64_t* ids, void* const* bufs,
                                    size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (retry_ == nullptr) {
        VEM_RETURN_IF_ERROR(ReadUncounted(ids[i], bufs[i]));
      } else {
        VEM_RETURN_IF_ERROR(RunWithDiskRetry(
            retry_, engine_, EngineDiskTag(ids[i]), ids[i],
            [&, i] { return ReadUncounted(ids[i], bufs[i]); }));
      }
    }
    return Status::OK();
  }
  virtual Status WriteBatchUncounted(const uint64_t* ids,
                                     const void* const* bufs, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (retry_ == nullptr) {
        VEM_RETURN_IF_ERROR(WriteUncounted(ids[i], bufs[i]));
      } else {
        VEM_RETURN_IF_ERROR(RunWithDiskRetry(
            retry_, engine_, EngineDiskTag(ids[i]), ids[i],
            [&, i] { return WriteUncounted(ids[i], bufs[i]); }));
      }
    }
    return Status::OK();
  }

  /// Charge deferred PDM cost for `blocks` transfers done on the uncounted
  /// plane, as if each were a synchronous single-block op on this device.
  /// Call from the consuming thread only (counters are not atomic).
  /// Virtual so composite devices can mirror their synchronous counting:
  /// StripedDevice charges each child plus one parallel step per logical
  /// block, exactly what its counted Read/Write would have recorded.
  virtual void AccountReads(uint64_t blocks) {
    stats_.block_reads += blocks;
    stats_.parallel_reads += blocks;
    stats_.bytes_read += blocks * block_size();
  }
  virtual void AccountWrites(uint64_t blocks) {
    stats_.block_writes += blocks;
    stats_.parallel_writes += blocks;
    stats_.bytes_written += blocks * block_size();
  }

  /// Id-aware deferred accounting. The id-less forms above cannot say
  /// WHICH blocks moved, which is all a single disk or a striped device
  /// needs (striping touches every child per logical block) — but a
  /// device with per-block placement (IndependentDiskDevice) must route
  /// each charge to the child that physically served it. Streams and the
  /// buffer pool know the ids they consume, so they call these; defaults
  /// fall through to the id-less forms, preserving every existing
  /// device's counting.
  ///
  /// AccountReadBatch mirrors what the counted ReadBatch(ids, ., n) of
  /// this device would have charged — on an independent-disk device that
  /// is n block reads but only as many PDM parallel steps as the batch
  /// needs waves of distinct disks (the forecast merge's win). A
  /// one-block call is therefore always identical to the synchronous
  /// single Read's charge, which is what per-block stream consumption
  /// uses.
  virtual void AccountReadBatch(const uint64_t* ids, uint64_t blocks) {
    (void)ids;
    AccountReads(blocks);
  }

  /// AccountWriteIds mirrors the per-block Write loop (n blocks, n
  /// steps) with child routing — the charge a per-block consumer (the
  /// buffer pool's ghost flushes) must record to stay bit-identical
  /// with its synchronous twin, which writes block by block.
  virtual void AccountWriteIds(const uint64_t* ids, uint64_t blocks) {
    (void)ids;
    AccountWrites(blocks);
  }

  /// AccountWriteBatch mirrors what the counted WriteBatch(ids, ., n)
  /// of this device would have charged — the write-side dual of
  /// AccountReadBatch. On an independent-disk device that is n block
  /// writes but one PDM parallel step per wave of distinct disks, so a
  /// grouped write-behind stream (ExtVector::Writer flushes whole
  /// K-block groups) is credited the scatter win randomized cycling
  /// earns. Single-disk and striped devices charge exactly the id-less
  /// form, so only devices with per-block placement diverge from the
  /// per-block loop.
  virtual void AccountWriteBatch(const uint64_t* ids, uint64_t blocks) {
    (void)ids;
    AccountWrites(blocks);
  }

  /// Placement route of a block for the PrefetchGovernor: streams tag
  /// their leases with the route of their first block so the governor
  /// can keep per-route (= per-disk on an IndependentDiskDevice) waste
  /// and stall history. 0 — the default for every single-disk or striped
  /// device — is the unrouted bucket.
  virtual uint64_t PrefetchRoute(uint64_t block_id) const {
    (void)block_id;
    return 0;
  }

  // --------------------------------------------------- durability plane

  /// Durability barrier: flush completed writes to the storage medium.
  /// The default is a no-op (RAM devices have nothing to flush);
  /// FileBlockDevice issues fdatasync/fsync, composite devices forward to
  /// every child. Never touches IoStats — durability is not a PDM
  /// transfer.
  virtual Status Sync() { return Status::OK(); }

  /// Log sequence number of the most recent journaled mutation on this
  /// device: 0 on every device without a write-ahead log. A journaling
  /// device (DurableBlockDevice) returns the end-LSN of the last record
  /// it appended. No library code calls this or EnsureWalDurable any
  /// more (the durability point is DurableBlockDevice::Commit); both stay
  /// because perfbench's TracingBlockDevice forwards them.
  virtual uint64_t wal_last_lsn() const { return 0; }

  /// Make the write-ahead log durable through `lsn` (force the log).
  /// No-op without a WAL.
  virtual Status EnsureWalDurable(uint64_t lsn) {
    (void)lsn;
    return Status::OK();
  }

  /// IoEngine disk tag of the head that serves `block_id`, for callers
  /// that submit their own per-block jobs (the forecast merge). All
  /// submission paths for one physical disk must share one tag or the
  /// engine's per-disk in-flight cap cannot enforce one transfer per
  /// head; devices that fan out internally (IndependentDiskDevice)
  /// return the owning child's identity — the same tag their own
  /// submissions use. Single-head devices are themselves the head.
  virtual uint64_t EngineDiskTag(uint64_t block_id) const {
    (void)block_id;
    return reinterpret_cast<uintptr_t>(this);
  }

  // ----------------------------------------------------------- plumbing

  /// Allocate a fresh block id (contents undefined until written).
  virtual uint64_t Allocate() = 0;

  /// Return a block id to the free list.
  virtual void Free(uint64_t id) = 0;

  /// Number of live (allocated, not freed) blocks.
  virtual uint64_t num_allocated() const = 0;

  /// Optional worker pool for background transfers. Not owned; must
  /// outlive all I/O on this device. Null means fully synchronous.
  /// Virtual so composite devices (StripedDevice, IndependentDiskDevice)
  /// can forward the engine to the children that execute the physical
  /// transfers — the child is what picks a transport (worker thread vs
  /// the engine's io_uring ring) — and label their disk tags with stable
  /// routes for depth-aware grant shaping.
  IoEngine* io_engine() const { return engine_; }
  virtual void set_io_engine(IoEngine* engine) { engine_ = engine; }

  /// Optional staging-memory governor. When attached, streams on this
  /// device lease their read-ahead/write-behind depth from it instead of
  /// using a fixed K: the governor enforces a global budget and adapts
  /// each stream's depth to its observed overlap benefit (see
  /// prefetch_governor.h). Not owned; must outlive all streams on this
  /// device. Null (the default) keeps fixed-depth behavior. Never affects
  /// IoStats — depth is a wall-clock knob whatever chooses it.
  PrefetchGovernor* prefetch_governor() const { return governor_; }
  void set_prefetch_governor(PrefetchGovernor* governor) {
    governor_ = governor;
  }

  /// Optional transient-fault retry policy (io/retry_policy.h). Not
  /// owned; must outlive all I/O on this device. Null (the default)
  /// disables retrying — every failure propagates on the first attempt,
  /// bit-identical to the pre-retry substrate. Virtual so composite
  /// devices forward it to the children that execute physical transfers
  /// (the granularity where a failed attempt has charged nothing, which
  /// is what makes whole-op re-execution safe for the IoStats planes).
  RetryPolicy* retry_policy() const { return retry_; }
  virtual void set_retry_policy(RetryPolicy* retry) { retry_ = retry; }

  /// I/O accounting for this device.
  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

 protected:
  /// Single counted transfers wrapped in the retry shim — the bodies of
  /// the default batch loops. Safe because every device in the repo
  /// charges a counted single-block op only on success, so a failed
  /// attempt is charge-free and re-running it cannot double-count.
  Status RetriedRead(uint64_t id, void* buf) {
    if (retry_ == nullptr) return Read(id, buf);
    return RunWithDiskRetry(retry_, engine_, EngineDiskTag(id), id,
                            [&] { return Read(id, buf); });
  }
  Status RetriedWrite(uint64_t id, const void* buf) {
    if (retry_ == nullptr) return Write(id, buf);
    return RunWithDiskRetry(retry_, engine_, EngineDiskTag(id), id,
                            [&] { return Write(id, buf); });
  }

  IoStats stats_;
  IoEngine* engine_ = nullptr;
  PrefetchGovernor* governor_ = nullptr;
  RetryPolicy* retry_ = nullptr;
};

/// RAII probe: captures a device's counters on construction; delta() gives
/// the I/O cost of the enclosed code region. Used throughout tests/benches.
class IoProbe {
 public:
  explicit IoProbe(const BlockDevice& dev) : dev_(dev), start_(dev.stats()) {}
  IoStats delta() const { return dev_.stats() - start_; }

 private:
  const BlockDevice& dev_;
  IoStats start_;
};

}  // namespace vem
