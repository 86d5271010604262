// IoRing: a raw-syscall io_uring submission ring — the IoEngine's
// high-queue-depth transport backend.
//
// The worker-pool backend issues one preadv/pwritev per engine job, so a
// deep batch of non-contiguous runs (random reads on O_DIRECT, the
// forecast merge's per-disk waves) executes its runs sequentially on one
// thread. The ring turns the same batch into one SQE per run, submitted
// with a single io_uring_enter and serviced concurrently by the kernel —
// the NVMe-era shape of the PDM's "D blocks per parallel step".
//
// Contract with the rest of the engine:
//  - The ring is a pure transport: it moves bytes and reports per-op
//    results, never touches IoStats, and never reorders the caller's
//    accounting. FileBlockDevice's batch calls use it as one of two
//    executors when the attached engine runs the ring backend: the
//    device plans the runs and stages their targets once, and every CQE
//    goes through the same result rule (short-transfer resume, EOF
//    zero-fill, retry) and finish step (charging) as a preadv/pwritev
//    result does, so there is nothing for the two paths to disagree on.
//  - One ring per IoEngine, shared by that engine's workers under an
//    internal mutex: each SubmitAndWait batch submits all its SQEs, waits
//    for all their CQEs, and leaves the ring empty. Per-disk concurrency
//    is bounded by the engine's per-disk job cap (disk_inflight_cap), so
//    the cap doubles as the per-disk SQE-batch budget.
//  - Registered resources are optional accelerations: a sparse fixed-file
//    table (devices register their fd once instead of refcounting it per
//    SQE) and a sparse fixed-buffer table (O_DIRECT bounce staging maps
//    once instead of get_user_pages per transfer). Registration failures
//    degrade to plain fds / unregistered buffers, never to errors.
//  - Built only when <linux/io_uring.h> exists (CMake: VEM_WITH_IOURING);
//    Create() additionally probes the running kernel and returns null
//    when io_uring_setup fails (old kernel, seccomp) — the engine then
//    falls back to the worker pool at runtime.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/status.h"

namespace vem {

/// One io_uring instance (SQ + CQ + SQE array) behind a mutex.
class IoRing {
 public:
  /// One transfer: either vectored (iov != null -> READV/WRITEV) or
  /// linear (buf/len; READ/WRITE, or READ_FIXED/WRITE_FIXED when
  /// buf_index names a registered-buffer slot). `res` returns bytes
  /// transferred or -errno, exactly like the raw CQE.
  struct Op {
    int fd = -1;         ///< real fd; used when fixed_fd < 0
    int fixed_fd = -1;   ///< registered-file slot, or -1
    bool write = false;
    uint64_t offset = 0;
    struct iovec* iov = nullptr;
    unsigned iovcnt = 0;
    void* buf = nullptr;
    size_t len = 0;
    int buf_index = -1;  ///< registered-buffer slot for linear ops, or -1
    ssize_t res = 0;     ///< out: bytes transferred or -errno
  };

  /// Build a ring with (at least) `entries` SQ slots. Null when io_uring
  /// is compiled out, the kernel refuses (ENOSYS/EPERM), or a test forced
  /// unavailability — callers must fall back to the worker pool.
  static std::unique_ptr<IoRing> Create(unsigned entries);

  /// True when the binary was built with io_uring support at all.
  static bool CompiledIn();

  /// True when Create() would currently succeed (compiled in, kernel
  /// accepts io_uring_setup, no forced failure). Cached probe.
  static bool KernelSupported();

  /// Test hook: make Create() fail while set, simulating a kernel without
  /// io_uring so the engine's runtime fallback can be exercised anywhere.
  static void ForceUnavailableForTest(bool unavailable);

  /// Test hook: make the next `count` SubmitAndWait calls fail with
  /// Status::Unavailable before touching the ring, simulating persistent
  /// submission failure so mid-run degradation to the worker pool
  /// (IoEngine::ReportRingResult) can be exercised on any kernel.
  static void ForceSubmitFailuresForTest(int count);

  ~IoRing();
  IoRing(const IoRing&) = delete;
  IoRing& operator=(const IoRing&) = delete;

  /// Submit all `n` ops and wait for all their completions (chunked to
  /// the SQ size when n exceeds it). Short transfers are NOT resumed here
  /// — each op completes with whatever the kernel returned, and the
  /// caller re-submits remainders under its own EOF/partial rules.
  Status SubmitAndWait(Op* ops, size_t n);

  /// Pin `fd` into the fixed-file table; returns the slot for Op::fixed_fd
  /// or -1 when the table is full/unsupported. Thread-safe.
  int RegisterFd(int fd);
  void UnregisterFd(int slot);

  /// Pin [p, p+len) into the fixed-buffer table for READ_FIXED/
  /// WRITE_FIXED; returns the slot for Op::buf_index or -1. Thread-safe.
  int RegisterBuffer(void* p, size_t len);
  void UnregisterBuffer(int slot);

  unsigned sq_entries() const { return sq_entries_; }
  bool fixed_files_available() const { return files_registered_; }
  bool fixed_buffers_available() const { return buffers_registered_; }

 private:
  IoRing() = default;
  bool Init(unsigned entries);
  /// True when a forced submission failure (test hook) should fire now.
  static bool ConsumeForcedSubmitFailure();

  int ring_fd_ = -1;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;
  bool single_mmap_ = false;
  void* sq_ring_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  void* cq_ring_ = nullptr;
  size_t cq_ring_bytes_ = 0;
  void* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;
  // Raw pointers into the mapped rings (valid while the mmaps live).
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  void* cqes_ = nullptr;

  std::mutex mu_;
  bool files_registered_ = false;
  std::vector<bool> file_slots_;
  bool buffers_registered_ = false;
  std::vector<bool> buffer_slots_;
};

}  // namespace vem
