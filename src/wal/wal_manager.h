// WalManager: the append-only write-ahead log writer with group commit.
//
// One WalManager owns the tail of one log (format: wal_format.h). Appends
// are cheap — they serialize a record into an in-memory tail buffer under
// a mutex and return its end-LSN. Durability happens at Commit()/SyncTo():
// the tail is padded to a block boundary, written to the log device, and
// fsynced. Concurrent committers share that fsync by a leader/follower
// protocol — the first thread to need durability becomes the leader,
// optionally sleeps the group-commit window so stragglers can join the
// batch, then pays ONE device Sync() that covers every record appended
// before its flush snapshot; followers just wait on the condition
// variable until durable_lsn() passes their target. N concurrent commits
// therefore cost between 1 and N fsyncs, never more.
//
// Accounting: the log's physical block writes ride the device's
// uncounted plane while the tail flushes, and are charged to the log
// device (AccountWrites) when the fsync that makes them durable
// succeeds — commit is the PDM-visible event, not the speculative
// staging of log bytes. With the WAL off nothing here runs, so the
// engine's IoStats identity is untouched.
//
// The log device is either owned (a FileBlockDevice over `path`, opened
// with open_existing so a prior crash's log survives to be scanned) or
// borrowed (any BlockDevice — tests use MemoryBlockDevice). An existing
// non-empty log must be recovered (wal/recovery.h) before appending;
// recovery ends by Reset()ing the log, which truncates it and restarts
// LSNs from zero.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/block_device.h"
#include "util/status.h"
#include "wal/wal_format.h"

namespace vem {

class FileBlockDevice;

/// Time source for the group-commit window. Injectable so tests pin the
/// window behavior under a fake clock instead of real sleeps.
class WalClock {
 public:
  virtual ~WalClock() = default;
  virtual void SleepMicros(uint64_t us) = 0;
};

/// The process-default clock (real sleeps).
WalClock* DefaultWalClock();

/// Test seam: crash-point hook, invoked at every instrumented point of
/// the durability path (each log-block write, before and after the log
/// fsync, and each data-block apply in DurableBlockDevice::Commit). The
/// kill-point harness installs a hook that counts invocations and
/// raise(SIGKILL)s at a chosen one; production leaves it null (one
/// relaxed atomic load per point). Process-global.
void SetWalTestCrashHook(void (*hook)());
/// Invoke the installed hook, if any (internal use by the WAL plane).
void WalTestMaybeCrash();

/// Append-only log writer. Thread-safe: any thread may Append/Commit.
class WalManager {
 public:
  struct Config {
    size_t block_size = 4096;
    /// Group-commit window in microseconds (0 = sync immediately; the
    /// leader/follower batching still applies to in-flight fsyncs).
    uint64_t group_commit_us = 0;
    WalClock* clock = nullptr;  ///< null = DefaultWalClock()
  };

  /// Own the log device: FileBlockDevice over `path`, kept on close and
  /// reopened (not truncated) if it already exists.
  WalManager(const std::string& path, const Config& cfg);

  /// Borrow `dev` as the log device (not owned; tests). block_size is
  /// taken from the device.
  WalManager(BlockDevice* dev, const Config& cfg);

  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// False when the owned log file failed to open; see status().
  bool valid() const { return dev_ != nullptr; }

  /// Serialize one record into the tail and return its end-LSN in
  /// *end_lsn. Does NOT make it durable — pair with Commit()/SyncTo().
  Status Append(wal::RecordType type, uint64_t txn, uint64_t block_id,
                const void* payload, size_t payload_size, uint64_t* end_lsn);

  /// Append a kCommit record for `txn` and force the log through it
  /// (group commit). On return the commit — and every record appended
  /// before it — is durable. *commit_lsn (optional) gets the record's
  /// end-LSN.
  Status Commit(uint64_t txn, uint64_t* commit_lsn = nullptr);

  /// Force the log durable through `lsn` (clamped to last_lsn()).
  Status SyncTo(uint64_t lsn);

  /// Pad the tail to a block boundary and write it to the log device
  /// WITHOUT fsync. Exposed for tests and crash staging; Commit calls it
  /// internally.
  Status Flush();

  /// Truncate the log and restart LSNs from zero (post-recovery /
  /// checkpoint). Owned device: recreate the file (O_TRUNC). Borrowed:
  /// zero every block the log allocated (block 0 first, synced) so a
  /// scanner sees a clean empty log and no stale record past the new
  /// tail.
  Status Reset();

  /// End-LSN of the last appended record (0 = empty log).
  uint64_t last_lsn() const { return pos_.load(std::memory_order_acquire); }
  /// Highest LSN known durable (fsynced).
  uint64_t durable_lsn() const {
    return durable_pos_.load(std::memory_order_acquire);
  }
  /// Device Sync() barriers paid so far (the group-commit batching bound
  /// the tests pin: N concurrent commits observe 1..N of these).
  uint64_t fsync_count() const {
    return fsync_count_.load(std::memory_order_acquire);
  }

  /// Sticky first error of the log plane (append flush, fsync, or open).
  Status status() const;

  size_t block_size() const { return block_size_; }
  BlockDevice* device() const { return dev_; }

 private:
  /// Serialize under mu_; returns the record's end-LSN.
  uint64_t AppendLocked(wal::RecordType type, uint64_t txn, uint64_t block_id,
                        const void* payload, size_t payload_size);
  /// Pad + write the tail under mu_ (no fsync).
  Status FlushLocked();
  /// Leader/follower force of the log through `target`.
  Status ForceTo(uint64_t target);
  /// Grow the log device so blocks [0, count) exist.
  void EnsureBlocksLocked(uint64_t count);

  std::unique_ptr<FileBlockDevice> owned_;
  BlockDevice* dev_ = nullptr;  // == owned_.get() when owned
  std::string path_;            // empty when borrowed
  size_t block_size_ = 0;
  uint64_t group_commit_us_ = 0;
  WalClock* clock_;
  bool use_uncounted_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> tail_;       // unflushed bytes [flush_base_, pos_)
  uint64_t flush_base_ = 0;      // block-aligned start of the tail
  uint64_t alloc_blocks_ = 0;    // log blocks already allocated on dev_
  uint64_t pending_charge_ = 0;  // flushed blocks not yet charged
  bool sync_in_flight_ = false;  // a leader is between flush and fsync
  Status sticky_;                // first error wins; guarded by mu_

  std::atomic<uint64_t> pos_{0};          // next append offset == last LSN
  std::atomic<uint64_t> durable_pos_{0};  // fsynced prefix
  std::atomic<uint64_t> fsync_count_{0};
};

}  // namespace vem
