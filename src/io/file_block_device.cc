#include "io/file_block_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "io/io_engine.h"

namespace vem {

namespace {
// Linux guarantees IOV_MAX >= 1024; stay safely below it so one coalesced
// run never exceeds the kernel's iovec limit.
constexpr size_t kMaxIov = 512;

// O_DIRECT alignment contract. Offsets and lengths must be multiples of
// the filesystem's logical block size (512 on everything we target), so
// direct mode only engages when block_size % kDirectFsAlign == 0. User
// memory is held to the kIoMemAlign page bar: stream windows and pool
// frames allocate at that bar (AllocIoBuffer) and go to the kernel
// zero-copy; anything else bounces through an aligned staging buffer.
constexpr size_t kDirectFsAlign = 512;

/// True when bufs[0..n) is one contiguous region starting aligned — the
/// shape ExtVector windows and BufferPool frames produce — so the whole
/// run can transfer in place with a single direct pread/pwrite.
bool ContiguousAligned(void* const* bufs, size_t n, size_t block_size) {
  const char* base = static_cast<const char*>(bufs[0]);
  if (reinterpret_cast<uintptr_t>(base) % kIoMemAlign != 0) return false;
  for (size_t i = 1; i < n; ++i) {
    if (static_cast<const char*>(bufs[i]) != base + i * block_size) {
      return false;
    }
  }
  return true;
}

// Persistent O_DIRECT bounce staging registered with the engine's ring:
// big enough for a deep prefetch wave (256 blocks at the default B), so
// the common bounce path hits the pinned registered buffer instead of
// get_user_pages on a fresh allocation per transfer.
constexpr size_t kRingStagingBytes = 1u << 20;
}  // namespace

FileBlockDevice::FileBlockDevice(std::string path, size_t block_size,
                                 bool unlink_on_close, bool direct_io,
                                 bool sync_on_close, bool open_existing)
    : path_(std::move(path)),
      block_size_(block_size),
      unlink_on_close_(unlink_on_close),
      sync_on_close_(sync_on_close) {
  const int base_flags = O_RDWR | O_CREAT | (open_existing ? 0 : O_TRUNC);
#ifdef O_DIRECT
  if (direct_io && block_size_ > 0 && block_size_ % kDirectFsAlign == 0) {
    fd_ = ::open(path_.c_str(), base_flags | O_DIRECT, 0644);
    direct_io_active_ = fd_ >= 0;
#ifdef STATX_DIOALIGN
    // The 512-byte heuristic above is the historical floor, but 4Kn
    // drives / filesystems can demand more. Where the kernel reports the
    // real direct-I/O alignment (6.1+), verify our offsets and bounce
    // buffers satisfy it — otherwise transfers would EINVAL at runtime
    // with no recovery, so reopen buffered instead.
    if (direct_io_active_) {
      struct statx stx;
      if (::statx(fd_, "", AT_EMPTY_PATH, STATX_DIOALIGN, &stx) == 0 &&
          (stx.stx_mask & STATX_DIOALIGN) != 0) {
        bool usable = stx.stx_dio_offset_align != 0 &&
                      block_size_ % stx.stx_dio_offset_align == 0 &&
                      stx.stx_dio_mem_align != 0 &&
                      kIoMemAlign % stx.stx_dio_mem_align == 0;
        if (!usable) {
          ::close(fd_);
          fd_ = -1;
          direct_io_active_ = false;
        }
      }
    }
#endif
  }
#else
  (void)direct_io;
#endif
  // Graceful fallback: the filesystem rejected O_DIRECT (tmpfs on older
  // kernels returns EINVAL) or the block size cannot satisfy the
  // alignment contract — run buffered instead.
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), base_flags, 0644);
    direct_io_active_ = false;
  }
  if (fd_ < 0) {
    RecordError(StatusFromErrno(("open of " + path_).c_str(), -1, errno));
    return;
  }
  // O_CREAT made the file exist, but only in the directory's in-memory
  // state: until the parent directory itself is fsynced, a crash can
  // lose the directory entry — and with it every durably-written byte
  // inside the file. One barrier per open, on both open paths.
  SyncParentDir();
  if (open_existing && block_size_ > 0) {
    // Adopt the existing contents: the allocated-block count is the file
    // size (every write is a whole block, so sizes are block-aligned;
    // a torn tail from a crashed writer rounds up so it stays readable
    // for recovery's CRC scan to reject).
    struct stat st;
    if (::fstat(fd_, &st) == 0) {
      uint64_t blocks =
          (static_cast<uint64_t>(st.st_size) + block_size_ - 1) / block_size_;
      next_id_.store(blocks, std::memory_order_release);
      allocated_ = blocks;
      // The adopted extent is the durability baseline: Sync() only needs
      // the full fsync once the file grows past it again.
      written_extent_.store(blocks);
      synced_extent_.store(blocks);
    } else {
      RecordError(StatusFromErrno(("fstat of " + path_).c_str(), -1, errno));
    }
  }
}

void FileBlockDevice::SyncParentDir() {
  std::string dir;
  size_t slash = path_.find_last_of('/');
  if (slash == std::string::npos) {
    dir = ".";
  } else if (slash == 0) {
    dir = "/";
  } else {
    dir = path_.substr(0, slash);
  }
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    RecordError(StatusFromErrno(("open of parent dir " + dir).c_str(), -1,
                                errno));
    return;
  }
  if (::fsync(dfd) != 0) {
    RecordError(StatusFromErrno(("fsync of parent dir " + dir).c_str(), -1,
                                errno));
  }
  ::close(dfd);
}

void FileBlockDevice::RecordError(const Status& s) {
  if (s.ok()) return;
  std::lock_guard<std::mutex> lk(err_mu_);
  if (last_error_.ok()) last_error_ = s;
}

Status FileBlockDevice::last_error() const {
  std::lock_guard<std::mutex> lk(err_mu_);
  return last_error_;
}

void FileBlockDevice::NoteWrittenExtent(uint64_t first_id, size_t nblocks) {
  uint64_t end = first_id + nblocks;
  uint64_t cur = written_extent_.load(std::memory_order_relaxed);
  while (end > cur && !written_extent_.compare_exchange_weak(
                          cur, end, std::memory_order_relaxed)) {
  }
}

FileBlockDevice::~FileBlockDevice() {
  if (ring_registered_ != nullptr) {
    // The ring (and its engine) must still be alive here — see the header
    // contract: a registered device is destroyed before its engine.
    if (ring_fd_slot_ >= 0) ring_registered_->UnregisterFd(ring_fd_slot_);
    if (ring_buf_slot_ >= 0) ring_registered_->UnregisterBuffer(ring_buf_slot_);
  }
  if (fd_ >= 0) {
    // Durability before close: without the barrier, timings that end at
    // destruction can be flattered by data still sitting in the drive's
    // write cache (even scratch files — the flush cost is the honest one).
    // A destructor cannot return the failure, but it must not swallow it
    // either: the sticky error records it (queryable while the device
    // lives) and stderr gets one line so a lost flush is never silent.
    if (sync_on_close_) {
      Status s = Sync();
      if (!s.ok()) {
        RecordError(s);
        std::fprintf(stderr, "FileBlockDevice(%s): close-time sync failed: %s\n",
                     path_.c_str(), s.ToString().c_str());
      }
    }
    ::close(fd_);
    if (unlink_on_close_) ::unlink(path_.c_str());
  }
}

Status FileBlockDevice::Sync() {
  if (fd_ < 0) return Status::IOError("device not open: " + path_);
  // Snapshot the written extent BEFORE the flush: concurrent appends past
  // the snapshot stay un-synced and keep the next barrier full-strength.
  const uint64_t extent = written_extent_.load(std::memory_order_acquire);
  const bool grew = extent > synced_extent_.load(std::memory_order_acquire);
  // Appends change the file size; fdatasync's contract on size metadata
  // is subtle enough across filesystems that a size-changing barrier
  // takes the full fsync. Pure overwrites keep the cheaper fdatasync.
  while ((grew ? ::fsync(fd_) : ::fdatasync(fd_)) != 0) {
    if (errno == EINTR) continue;
    Status s = StatusFromErrno(grew ? "fsync" : "fdatasync", -1, errno);
    RecordError(s);
    return s;
  }
  if (grew) {
    full_syncs_.fetch_add(1);
    // Monotone: a racing Sync may have covered more already.
    uint64_t cur = synced_extent_.load(std::memory_order_relaxed);
    while (extent > cur && !synced_extent_.compare_exchange_weak(
                               cur, extent, std::memory_order_release)) {
    }
  } else {
    data_syncs_.fetch_add(1);
  }
  return Status::OK();
}

void FileBlockDevice::EnsureRingRegistration(IoRing* ring) {
  std::lock_guard<std::mutex> lk(ring_mu_);
  if (ring_registered_ == ring) return;
  if (ring_registered_ != nullptr) {
    if (ring_fd_slot_ >= 0) ring_registered_->UnregisterFd(ring_fd_slot_);
    if (ring_buf_slot_ >= 0) ring_registered_->UnregisterBuffer(ring_buf_slot_);
    ring_fd_slot_ = -1;
    ring_buf_slot_ = -1;
  }
  ring_registered_ = ring;
  ring_fd_slot_ = ring->RegisterFd(fd_);
  if (direct_io_active_) {
    if (!ring_staging_) {
      ring_staging_ = AllocIoBuffer(kRingStagingBytes, std::nothrow);
    }
    if (ring_staging_) {
      ring_buf_slot_ = ring->RegisterBuffer(ring_staging_.get(),
                                            kRingStagingBytes);
    }
  }
}

// One coalesced run of contiguous block ids: its slice of the caller's
// buffers, its staged target and its progress. Buffered runs move through
// `iov` (one entry per block, over user memory); O_DIRECT runs move one
// linear region, `target`: the user memory itself, or, when `bounced`, a
// slice of the registered staging buffer or the run's own `bounce`.
struct FileBlockDevice::Run {
  uint64_t first_id = 0;
  size_t nblocks = 0;
  void* const* bufs = nullptr;
  struct iovec* iov = nullptr;
  char* target = nullptr;
  bool bounced = false;
  int buf_index = -1;   // registered staging slot for ring ops, or -1
  IoBuffer bounce;
  size_t done = 0;      // bytes moved so far: the resume offset
  size_t attempts = 0;  // retries spent from the policy's budget
  bool finished = false;
  Status error;

  bool pending() const { return !finished && error.ok(); }
};

struct FileBlockDevice::Staging {
  char* next = nullptr;
  size_t left = 0;
  int slot = -1;
};

Status FileBlockDevice::Transfer(const uint64_t* ids, void* const* bufs,
                                 size_t n, bool write, bool counted,
                                 bool batch) {
  if (fd_ < 0) return Status::IOError("device not open: " + path_);
  if (n == 0) return Status::OK();
  // A one-block plan lives on the stack; only batches allocate theirs.
  Run one_run;
  struct iovec one_iov{};
  std::unique_ptr<Run[]> many_runs;
  std::unique_ptr<struct iovec[]> many_iov;
  Run* runs = &one_run;
  struct iovec* iov = &one_iov;
  if (n > 1) {
    many_runs.reset(new Run[n]);
    runs = many_runs.get();
    if (!direct_io_active_) {
      many_iov.reset(new struct iovec[n]);
      iov = many_iov.get();
    }
  }
  IoRing* ring = batch && engine_ != nullptr ? engine_->ring() : nullptr;
  Staging staging;
  std::unique_lock<std::mutex> staging_lock(staging_mu_, std::defer_lock);
  if (ring != nullptr) {
    EnsureRingRegistration(ring);
    // One contender at a time carves up the registered staging buffer;
    // the others bounce through per-call allocations.
    if (ring_buf_slot_ >= 0 && staging_lock.try_lock()) {
      staging = {ring_staging_.get(), kRingStagingBytes, ring_buf_slot_};
    }
  }
  size_t nruns = 0;
  Status precheck =
      PlanRuns(ids, bufs, n, write, runs, iov, &staging, &nruns);
  if (ring != nullptr) {
    RunRing(ring, runs, nruns, write);
  } else {
    // Like the single-block loop, stop at the first run that fails.
    for (size_t i = 0; i < nruns; ++i) {
      RunSyscalls(runs[i], write);
      if (!runs[i].error.ok()) break;
    }
  }
  return FinishRuns(runs, nruns, write, counted, std::move(precheck));
}

Status FileBlockDevice::PlanRuns(const uint64_t* ids, void* const* bufs,
                                 size_t n, bool write, Run* runs,
                                 struct iovec* iov, Staging* staging,
                                 size_t* nruns) {
  const uint64_t bound = next_id_.load(std::memory_order_acquire);
  *nruns = 0;
  for (size_t i = 0; i < n;) {
    // An unallocated id ends the plan; the runs before it still transfer
    // and charge, as the single-block loop would have issued them first.
    if (ids[i] >= bound) {
      return Status::InvalidArgument(std::string(write ? "write" : "read") +
                                     " of unallocated block " +
                                     std::to_string(ids[i]));
    }
    size_t len = 1;
    while (i + len < n && len < kMaxIov && ids[i + len] == ids[i] + len &&
           ids[i + len] < bound) {
      len++;
    }
    Run& r = runs[*nruns];
    r.first_id = ids[i];
    r.nblocks = len;
    r.bufs = bufs + i;
    const size_t bytes = len * block_size_;
    if (!direct_io_active_) {
      r.iov = iov + i;
      for (size_t k = 0; k < len; ++k) r.iov[k] = {bufs[i + k], block_size_};
    } else if (ContiguousAligned(r.bufs, len, block_size_)) {
      r.target = static_cast<char*>(bufs[i]);
    } else {
      r.bounced = true;
      if (bytes <= staging->left) {
        r.target = staging->next;
        r.buf_index = staging->slot;
        staging->next += bytes;
        staging->left -= bytes;
      } else {
        r.bounce = AllocIoBuffer(bytes, std::nothrow);
        if (!r.bounce) {
          return Status::IOError("allocation failed for direct I/O bounce");
        }
        r.target = r.bounce.get();
      }
      if (write) {
        for (size_t k = 0; k < len; ++k) {
          std::memcpy(r.target + k * block_size_, r.bufs[k], block_size_);
        }
      }
    }
    ++*nruns;
    i += len;
  }
  return Status::OK();
}

int FileBlockDevice::ConsumeForcedErrno() {
  int left = forced_count_.load();
  while (left > 0) {
    if (forced_count_.compare_exchange_weak(left, left - 1)) {
      return forced_errno_.load();
    }
  }
  return 0;
}

void FileBlockDevice::ApplyResult(Run& r, int64_t res, bool write) {
  if (const int forced = ConsumeForcedErrno(); forced != 0) res = -forced;
  if (res == -EINTR) return;  // resubmit from the same offset, silently
  const size_t total = r.nblocks * block_size_;
  if (res == 0 && !write) {
    // EOF: the rest of the run is allocated but never written. It reads
    // as zeros, like MemoryBlockDevice's zeroed PinNew path.
    if (r.iov == nullptr) {
      std::memset(r.target + r.done, 0, total - r.done);
    } else {
      for (size_t k = r.done / block_size_; k < r.nblocks; ++k) {
        const size_t from = k == r.done / block_size_ ? r.done % block_size_
                                                      : 0;
        std::memset(static_cast<char*>(r.bufs[k]) + from, 0,
                    block_size_ - from);
      }
    }
    res = static_cast<int64_t>(total - r.done);
  }
  if (res > 0) {
    r.done += static_cast<size_t>(res);
    if (r.done < total) return;  // short transfer: resume from r.done
    r.finished = true;
    // A success after retried failures is recovery evidence.
    if (r.attempts > 0 && engine_ != nullptr) {
      engine_->ReportDiskResult(EngineDiskTag(r.first_id), true, 0);
    }
    return;
  }
  const uint64_t offset = r.first_id * block_size_ + r.done;
  Status e = res < 0 ? StatusFromErrno(write ? "write" : "read",
                                       static_cast<int64_t>(offset),
                                       static_cast<int>(-res))
                     : Status::IOError("write wrote nothing at offset " +
                                       std::to_string(offset));
  const uint64_t tag = EngineDiskTag(r.first_id);
  // RunWithDiskRetry's contract: with a policy, report every failed
  // attempt and retry transient ones from the resume offset; an IOError
  // that survives fail-stops the head.
  if (retry_ != nullptr) {
    if (engine_ != nullptr) engine_->ReportDiskResult(tag, false, 0);
    if (e.IsTransient() && r.attempts < retry_->config().retry_limit) {
      retry_->OnRetry(r.first_id, ++r.attempts);
      return;
    }
  }
  if (e.IsIOError() && engine_ != nullptr) engine_->ReportDiskFailStop(tag);
  r.error = std::move(e);
}

IoRing::Op FileBlockDevice::NextStep(Run& r, bool write) const {
  IoRing::Op op;
  op.fd = fd_;
  op.write = write;
  op.offset = r.first_id * block_size_ + r.done;
  if (r.iov == nullptr) {
    // O_DIRECT advances in whole kDirectFsAlign units (file sizes are
    // block multiples), so the resume point stays aligned.
    op.buf = r.target + r.done;
    op.len = r.nblocks * block_size_ - r.done;
    op.buf_index = r.buf_index;
    return op;
  }
  // Restart at the block holding the resume offset; the iovecs before it
  // are consumed and never reused. A last block goes linear, sparing the
  // kernel an iovec import.
  const size_t skip = r.done / block_size_;
  const size_t into = r.done % block_size_;
  char* head = static_cast<char*>(r.bufs[skip]) + into;
  if (skip + 1 == r.nblocks) {
    op.buf = head;
    op.len = block_size_ - into;
    return op;
  }
  r.iov[skip] = {head, block_size_ - into};
  op.iov = r.iov + skip;
  op.iovcnt = static_cast<unsigned>(r.nblocks - skip);
  return op;
}

void FileBlockDevice::RunSyscalls(Run& r, bool write) {
  while (r.pending()) {
    const IoRing::Op op = NextStep(r, write);
    const off_t off = static_cast<off_t>(op.offset);
    const int cnt = static_cast<int>(op.iovcnt);
    ssize_t res = 0;
    if (op.iov != nullptr) {
      res = write ? ::pwritev(fd_, op.iov, cnt, off)
                  : ::preadv(fd_, op.iov, cnt, off);
    } else {
      res = write ? ::pwrite(fd_, op.buf, op.len, off)
                  : ::pread(fd_, op.buf, op.len, off);
    }
    ApplyResult(r, res < 0 ? -errno : res, write);
  }
}

void FileBlockDevice::RunRing(IoRing* ring, Run* runs, size_t nruns,
                              bool write) {
  std::vector<IoRing::Op> ops;
  std::vector<Run*> owners;
  for (;;) {
    ops.clear();
    owners.clear();
    for (size_t i = 0; i < nruns; ++i) {
      if (!runs[i].pending()) continue;
      ops.push_back(NextStep(runs[i], write));
      ops.back().fixed_fd = ring_fd_slot_;
      owners.push_back(&runs[i]);
    }
    if (ops.empty()) return;
    Status s = ring->SubmitAndWait(ops.data(), ops.size());
    if (engine_ != nullptr) engine_->ReportRingResult(s.ok());
    if (!s.ok()) {
      // Submission itself failed: finish every unfinished run on the
      // syscall executor from its resume offset. After kRingFailureLimit
      // failures in a row the engine's ring() goes null for good.
      for (Run* r : owners) RunSyscalls(*r, write);
      return;
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      ApplyResult(*owners[i], ops[i].res, write);
    }
  }
}

Status FileBlockDevice::FinishRuns(const Run* runs, size_t nruns, bool write,
                                   bool counted, Status precheck) {
  const Run* failed = nullptr;
  for (size_t i = 0; i < nruns; ++i) {
    const Run& r = runs[i];
    const size_t blocks = r.finished ? r.nblocks : r.done / block_size_;
    if (write && blocks > 0) NoteWrittenExtent(r.first_id, blocks);
    if (!write && r.bounced) {
      for (size_t k = 0; k < blocks; ++k) {
        std::memcpy(r.bufs[k], r.target + k * block_size_, block_size_);
      }
    }
    // Charge what the single-block loop would have: every block moved up
    // to and including the first failing run, one block I/O each.
    if (counted && failed == nullptr && blocks > 0) {
      if (write) {
        AccountWrites(blocks);
      } else {
        AccountReads(blocks);
      }
    }
    if (failed == nullptr && !r.error.ok()) failed = &r;
  }
  return failed != nullptr ? failed->error : precheck;
}

uint64_t FileBlockDevice::Allocate() {
  allocated_++;
  if (!free_list_.empty()) {
    uint64_t id = free_list_.back();
    free_list_.pop_back();
    return id;
  }
  return next_id_.fetch_add(1, std::memory_order_acq_rel);
}

void FileBlockDevice::Free(uint64_t id) {
  free_list_.push_back(id);
  allocated_--;
}

}  // namespace vem
