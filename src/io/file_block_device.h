// FileBlockDevice: a real file-backed disk for laptop-scale benchmarks.
//
// Same interface and accounting as MemoryBlockDevice but blocks live in a
// file accessed with pread/pwrite, so wall-clock benchmarks exercise the
// actual storage stack (page cache effects included, as on any laptop).
//
// One data path moves every block. The eight transfer entry points
// (Read/Write, the *Uncounted forms and the four batch calls) all go
// through the same three steps:
//  - a run planner splits the ids into runs of contiguous ids (at most
//    kMaxIov each), stops at the first unallocated id, and stages each
//    run's target: iovecs over user memory when buffered; under O_DIRECT
//    the user buffer itself when it is one aligned contiguous region,
//    else a slice of the ring's registered staging buffer, else a
//    per-call bounce buffer;
//  - an executor moves the runs. The syscall executor issues
//    preadv/pwritev per step (pread/pwrite for a linear O_DIRECT target);
//    the ring executor, used by batch calls when the attached IoEngine
//    runs the io_uring backend (IoBackend::kIoUring), submits every
//    unfinished run's next step as one SQE in a single SubmitAndWait per
//    round, and hands the rest to the syscall executor if submission
//    fails. Every op result, from either executor, goes
//    through one result rule: it resumes short transfers, zero-fills
//    reads past EOF (allocated-but-unwritten blocks read as zeros),
//    fails a write that wrote nothing, resubmits EINTR silently, and
//    sends every other error through the retry and health plane
//    (RunWithDiskRetry's contract: each failed attempt is reported,
//    transient ones retry under the policy, a retried success is
//    recovery evidence, and a surviving IOError fail-stops the head);
//  - a finish step copies bounce reads back, notes the written extent,
//    and charges each run in batch order exactly as the equivalent
//    single-block loop would: blocks that moved before the first failing
//    run (that run's completed blocks included) are charged, its status
//    wins, then the planner's unallocated-id error.
// So the transport never changes IoStats. Single-block calls plan on
// the stack and never use the ring. The uncounted plane is thread-safe
// against concurrent Allocate/Free on the owning thread (transfers touch
// only the fd and an atomic bound), so IoEngine workers can run
// read-ahead/write-behind while the algorithm keeps allocating.
//
// Cold-cache mode (`direct_io`): the file is opened with O_DIRECT so
// every transfer hits the storage device instead of the OS page cache.
// On a warm cache all reads are RAM speed and the async engine's
// compute/transfer overlap is invisible; direct I/O restores real device
// latency so benches measure the engine, not the kernel's caching.
// O_DIRECT demands 512-byte-aligned offsets, lengths, and (conservatively)
// page-aligned memory, which the planner's staging provides. When the
// filesystem rejects O_DIRECT (EINVAL at open) or block_size is not a
// multiple of 512, the device silently falls back to buffered I/O —
// direct_io_active() reports the outcome.
//
// The device registers its fd with the engine's ring on first use and,
// in direct mode, the persistent staging buffer as a registered buffer.
// A device that registered with a ring must be destroyed before that
// engine.
//
// Crash-safety contract: the constructor fsyncs the parent directory
// after O_CREAT (a crash right after open could otherwise lose the
// directory entry itself — the file's data would be orphaned), Sync()
// distinguishes data-only flushes (fdatasync) from size-changing appends
// that need the full fsync (file-length metadata — the WAL's tail
// growth), and every I/O failure is recorded in a sticky last_error()
// so a destructor-time flush failure is no longer silently swallowed.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "io/block_device.h"
#include "io/io_ring.h"
#include "util/options.h"

namespace vem {

/// Disk blocks stored in a single file; block id -> byte offset id*B.
class FileBlockDevice final : public BlockDevice {
 public:
  /// Creates/truncates `path`. The file is removed on destruction when
  /// `unlink_on_close` is true (the default; benchmark scratch files).
  /// `direct_io` requests O_DIRECT cold-cache mode (see file comment;
  /// falls back to buffered I/O when unsupported). `sync_on_close` issues
  /// a Sync() barrier before the fd closes. `open_existing` keeps an
  /// existing file's contents instead of truncating and derives the
  /// allocated-block count from its size — the reopen path durable
  /// storage (WAL + data files) uses after a restart.
  FileBlockDevice(std::string path, size_t block_size,
                  bool unlink_on_close = true, bool direct_io = false,
                  bool sync_on_close = false, bool open_existing = false);

  /// Convenience: take block_size, direct_io and sync_on_close from
  /// Options, so the documented machine configuration drives the device
  /// directly.
  FileBlockDevice(std::string path, const Options& opts,
                  bool unlink_on_close = true)
      : FileBlockDevice(std::move(path), opts.block_size, unlink_on_close,
                        opts.direct_io, opts.sync_on_close) {}

  ~FileBlockDevice() override;

  FileBlockDevice(const FileBlockDevice&) = delete;
  FileBlockDevice& operator=(const FileBlockDevice&) = delete;

  /// True if the file was opened successfully; all ops fail otherwise.
  bool valid() const { return fd_ >= 0; }

  /// True when the fd really is in O_DIRECT mode (requested AND the
  /// filesystem + block size allowed it).
  bool direct_io_active() const { return direct_io_active_; }

  /// Durability barrier: flush the backing file, so every completed
  /// write has reached the storage medium, not just the drive's volatile
  /// write cache. O_DIRECT alone does NOT give this — it bypasses the OS
  /// page cache, but the device may still buffer. When writes since the
  /// last barrier extended the file (WAL tail growth), the barrier is a
  /// full fsync so the file-length metadata is durable too; data-only
  /// overwrites take the cheaper fdatasync. Costs one device cache
  /// flush; never touches IoStats (durability is not a PDM transfer).
  Status Sync() override;

  /// First error this device has hit (open, transfer, or sync — including
  /// the destructor's sync_on_close barrier, which has no other way to
  /// report). Sticky: once set it stays, so a swallowed flush failure is
  /// still visible to whoever owns the device. OK when nothing failed.
  Status last_error() const;

  /// Sync() introspection for the fdatasync/fsync split (tests).
  uint64_t full_syncs() const { return full_syncs_.load(); }
  uint64_t data_syncs() const { return data_syncs_.load(); }

  size_t block_size() const override { return block_size_; }
  Status Read(uint64_t id, void* buf) override {
    return Transfer(&id, &buf, 1, /*write=*/false, /*counted=*/true,
                    /*batch=*/false);
  }
  Status Write(uint64_t id, const void* buf) override {
    void* b = const_cast<void*>(buf);
    return Transfer(&id, &b, 1, /*write=*/true, /*counted=*/true,
                    /*batch=*/false);
  }
  Status ReadBatch(const uint64_t* ids, void* const* bufs,
                   size_t n) override {
    return Transfer(ids, bufs, n, /*write=*/false, /*counted=*/true,
                    /*batch=*/true);
  }
  Status WriteBatch(const uint64_t* ids, const void* const* bufs,
                    size_t n) override {
    return Transfer(ids, const_cast<void* const*>(bufs), n, /*write=*/true,
                    /*counted=*/true, /*batch=*/true);
  }

  bool SupportsUncounted() const override { return true; }
  bool SupportsAsync() const override { return true; }
  Status ReadUncounted(uint64_t id, void* buf) override {
    return Transfer(&id, &buf, 1, /*write=*/false, /*counted=*/false,
                    /*batch=*/false);
  }
  Status WriteUncounted(uint64_t id, const void* buf) override {
    void* b = const_cast<void*>(buf);
    return Transfer(&id, &b, 1, /*write=*/true, /*counted=*/false,
                    /*batch=*/false);
  }
  Status ReadBatchUncounted(const uint64_t* ids, void* const* bufs,
                            size_t n) override {
    return Transfer(ids, bufs, n, /*write=*/false, /*counted=*/false,
                    /*batch=*/true);
  }
  Status WriteBatchUncounted(const uint64_t* ids, const void* const* bufs,
                             size_t n) override {
    return Transfer(ids, const_cast<void* const*>(bufs), n, /*write=*/true,
                    /*counted=*/false, /*batch=*/true);
  }

  uint64_t Allocate() override;
  void Free(uint64_t id) override;
  uint64_t num_allocated() const override { return allocated_; }

  /// Test hook: the next `count` op results (one syscall or one ring
  /// completion each, on any executor) read as -`err` inside the shared
  /// result rule, so fault handling is exercised identically on every
  /// transport. `count` 0 disarms.
  void ForceErrnoForTest(int err, int count) {
    forced_errno_.store(err);
    forced_count_.store(count);
  }

 private:
  struct Run;      // one planned run of contiguous ids (file_block_device.cc)
  struct Staging;  // the registered staging buffer a plan may carve up

  /// fsync the directory holding path_ so the O_CREAT directory entry is
  /// durable — without it a crash can lose the file itself even after
  /// its data was fsynced. Failures go to the sticky error.
  void SyncParentDir();

  /// Record `s` as the sticky error if none is set yet (first error wins).
  void RecordError(const Status& s);

  /// Note a write covering blocks [first, first+n): Sync() upgrades to a
  /// full fsync when the written extent grew past the last synced one.
  void NoteWrittenExtent(uint64_t first_id, size_t nblocks);

  /// The one transfer body behind all eight entry points: plan, execute
  /// (on the engine's ring when `batch` and the engine has one, else on
  /// syscalls), finish. `counted` charges IoStats in the finish step.
  Status Transfer(const uint64_t* ids, void* const* bufs, size_t n,
                  bool write, bool counted, bool batch);

  /// Run planner: fills runs[0, *nruns) with the contiguous runs of
  /// [ids, ids+n) and stages their targets (`iov` holds n entries in
  /// buffered mode). Returns the error that ended the plan early (an
  /// unallocated id, or a failed bounce allocation), OK otherwise.
  Status PlanRuns(const uint64_t* ids, void* const* bufs, size_t n,
                  bool write, Run* runs, struct iovec* iov,
                  Staging* staging, size_t* nruns);

  /// The per-op result rule: folds one op result (bytes moved, or
  /// -errno) into `r` — see the file comment.
  void ApplyResult(Run& r, int64_t res, bool write);

  /// The next step of an unfinished run, from its resume offset.
  IoRing::Op NextStep(Run& r, bool write) const;

  /// Syscall executor: drives `r` until it finishes or fails.
  void RunSyscalls(Run& r, bool write);

  /// Ring executor: one SQE per unfinished run per round.
  void RunRing(IoRing* ring, Run* runs, size_t nruns, bool write);

  /// Finish step: bounce copy-back, written extent, charges, status.
  Status FinishRuns(const Run* runs, size_t nruns, bool write, bool counted,
                    Status precheck);

  /// Register fd_ (and, in direct mode, the persistent staging buffer)
  /// with `ring` once; cheap no-op afterwards.
  void EnsureRingRegistration(IoRing* ring);

  /// The errno ForceErrnoForTest asked for, consuming one count; 0 when
  /// none is armed.
  int ConsumeForcedErrno();

  std::string path_;
  size_t block_size_;
  bool unlink_on_close_;
  bool sync_on_close_ = false;
  bool direct_io_active_ = false;
  int fd_ = -1;
  // Atomic so engine-thread bounds checks may race with Allocate: an async
  // transfer submitted before an Allocate never observes a smaller bound.
  std::atomic<uint64_t> next_id_{0};
  std::vector<uint64_t> free_list_;
  uint64_t allocated_ = 0;

  // Sync-barrier bookkeeping (atomics: write paths run on engine threads).
  // written_extent_ is the high-water block count ever written;
  // synced_extent_ is the extent covered by the last successful Sync().
  // written > synced means the file grew since the barrier, so the next
  // Sync() must be a full fsync (size metadata), not just fdatasync.
  std::atomic<uint64_t> written_extent_{0};
  std::atomic<uint64_t> synced_extent_{0};
  std::atomic<uint64_t> full_syncs_{0};
  std::atomic<uint64_t> data_syncs_{0};

  // Sticky first-error status (see last_error()); mutex-guarded because
  // engine workers can fail concurrently.
  mutable std::mutex err_mu_;
  Status last_error_;

  // io_uring transport state. ring_mu_ guards (re)registration; the slots
  // are stable between registrations, so transfer paths read them after
  // EnsureRingRegistration without the lock. staging_mu_ serializes use
  // of the registered direct-I/O staging buffer across engine workers —
  // contenders fall back to per-call bounce allocation.
  std::mutex ring_mu_;
  IoRing* ring_registered_ = nullptr;
  int ring_fd_slot_ = -1;
  IoBuffer ring_staging_;
  int ring_buf_slot_ = -1;
  std::mutex staging_mu_;

  std::atomic<int> forced_errno_{0};
  std::atomic<int> forced_count_{0};
};

}  // namespace vem
