// DurableBlockDevice: the journaling wrapper that makes a data device
// crash-safe, and the DurableStorage bundle that wires it from Options.
//
// Two modes, chosen at construction:
//
//  WAL OFF (null WalManager): a pure pass-through. Every call forwards
//  to the inner device; this wrapper charges its own IoStats exactly as
//  the counted plane would (the FaultyBlockDevice pattern), so inserting
//  it changes no counter anywhere — the engine's standing IoStats
//  identity holds bit-for-bit.
//
//  WAL ON: no-steal journaling. Write() journals the block and parks its
//  new image in an in-memory pending overlay — the inner data device is
//  NOT touched. Read() serves the overlay first. At Commit() the log is
//  forced (group commit — the durability point, and the moment the
//  journal's physical writes are charged), then the pending images are
//  applied to the inner device on its uncounted plane and charged via
//  AccountWriteIds, exactly mirroring what per-block counted writes
//  would have recorded. If an apply fails, every image not yet applied
//  goes back into the overlay, so reads still see the committed state
//  and the next Commit() applies it. A crash at ANY point leaves the
//  inner device holding only committed history (possibly missing the
//  tail the log will redo); uncommitted writes vanish with the overlay.
//  Allocate/Free move to a journaled allocation map owned by the wrapper
//  (the inner device only ever grows), persisted across clean closes by
//  a checkpoint record and rebuilt by recovery otherwise.
//
//  What Write() journals: the first write of a block in a checkpoint
//  cycle (construction or recovery up to the next Checkpoint()) logs a
//  full kBlockImage, which also repairs a torn data page at redo. Later
//  writes of the block log a kBlockDelta — the byte runs that differ
//  from the block's current image (the overlay's when pending, else the
//  inner block read on its uncounted plane, so the data device's
//  logical IoStats do not move). A delta that would encode to half a
//  block or more, or an inner device without an uncounted plane, falls
//  back to the full image. A write that changes no byte logs nothing.
//
// Transactions are an implicit single stream: everything between two
// Commit() calls is one transaction, and no Write() may race a Commit()
// (a delta's base is the image Commit() is applying). Concurrent
// transactions would need a lock manager, which vem does not have yet.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "io/block_device.h"
#include "util/options.h"
#include "util/status.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace vem {

class FileBlockDevice;

/// Journaling (or pass-through) wrapper over one data device.
class DurableBlockDevice final : public BlockDevice {
 public:
  /// @param inner data device (not owned)
  /// @param wal log writer (not owned); null = pass-through mode.
  ///        When the log holds a prior incarnation's records, the
  ///        constructor runs recovery (redo + log reset + fresh
  ///        checkpoint); status() reports how that went.
  DurableBlockDevice(BlockDevice* inner, WalManager* wal);

  ~DurableBlockDevice() override;

  /// False when construction-time recovery failed; see status().
  bool valid() const { return init_status_.ok(); }
  Status status() const { return init_status_; }
  /// What construction-time recovery found (zeroes when none ran).
  const RecoveryResult& recovery() const { return recovery_; }

  bool wal_enabled() const { return wal_ != nullptr; }

  /// Durability point: force the log through everything journaled so
  /// far, then apply the pending overlay to the data device. On OK
  /// return the transaction is durable — it survives any crash.
  /// Pass-through mode: just Sync() the inner device.
  Status Commit();

  /// Uncommitted journaled writes parked in the overlay (tests).
  size_t pending_blocks() const;

  /// Truncate the log down to a fresh checkpoint of the allocation map
  /// and start a new checkpoint cycle (every block's next write logs a
  /// full image again). Requires an empty overlay (commit first); the
  /// inner device is Sync()ed before the log is cut so no durable state
  /// ever exists only in the discarded log.
  Status Checkpoint();

  // --------------------------------------------------- BlockDevice API
  size_t block_size() const override;
  Status Read(uint64_t id, void* buf) override;
  Status Write(uint64_t id, const void* buf) override;

  /// Pass-through mode forwards the uncounted plane; journaling mode has
  /// none (every write must pass through the log).
  bool SupportsUncounted() const override;
  bool SupportsAsync() const override;
  Status ReadUncounted(uint64_t id, void* buf) override;
  Status WriteUncounted(uint64_t id, const void* buf) override;

  void AccountReads(uint64_t blocks) override;
  void AccountWrites(uint64_t blocks) override;
  void AccountReadBatch(const uint64_t* ids, uint64_t blocks) override;
  void AccountWriteIds(const uint64_t* ids, uint64_t blocks) override;
  void AccountWriteBatch(const uint64_t* ids, uint64_t blocks) override;
  uint64_t PrefetchRoute(uint64_t block_id) const override;
  uint64_t EngineDiskTag(uint64_t block_id) const override;

  Status Sync() override;
  uint64_t wal_last_lsn() const override;
  Status EnsureWalDurable(uint64_t lsn) override;

  uint64_t Allocate() override;
  void Free(uint64_t id) override;
  uint64_t num_allocated() const override;

  void set_io_engine(IoEngine* engine) override;

 private:
  /// Grow the inner device until block `id` exists (inner never shrinks).
  void ExtendInnerTo(uint64_t id);
  /// Append a fresh checkpoint of the allocation map and force it.
  Status WriteCheckpointLocked();
  /// Journal the write of `buf` to block `id`: a delta against the
  /// block's current image when one is cheaper, else a full image.
  Status JournalWriteLocked(uint64_t id, const char* buf);

  BlockDevice* inner_;
  WalManager* wal_;  // null = pass-through
  Status init_status_;
  RecoveryResult recovery_;

  // Journaling-mode state (untouched in pass-through mode).
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<char>> pending_;  // overlay
  // Blocks with a full image in the log since the last checkpoint.
  std::unordered_set<uint64_t> imaged_;
  uint64_t cur_txn_ = 1;
  uint64_t next_id_ = 0;
  std::vector<uint64_t> free_list_;
  uint64_t live_blocks_ = 0;
};

/// Everything Options::enable_wal stands up, with one owner: the data
/// file, the log (at `<base_path>.wal`), and the wrapper to hand to
/// BufferPool / streams. With enable_wal off only `data` and a
/// pass-through `device` exist and files keep scratch semantics
/// (truncate + unlink); with it on both files persist across restarts
/// and are reopened — construction runs recovery when the log is
/// non-empty.
struct DurableStorage {
  DurableStorage(const std::string& base_path, const Options& opts);
  ~DurableStorage();

  bool valid() const;
  Status status() const;

  std::unique_ptr<FileBlockDevice> data;
  std::unique_ptr<WalManager> wal;  // null when !opts.enable_wal
  std::unique_ptr<DurableBlockDevice> device;
};

}  // namespace vem
