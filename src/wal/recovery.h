// ARIES-lite crash recovery for the WAL plane.
//
// The logging discipline is no-steal/redo-only: an uncommitted
// transaction's block writes live ONLY in the log (plus the in-memory
// pending overlay of DurableBlockDevice) — they never reach the data
// device before their commit record is durable. Recovery therefore needs
// no undo pass:
//
//  1. ANALYSIS — scan the log front to back, validating each record's
//     magic + CRC; collect the set of transactions with a kCommit
//     record. The scan stops at the clean end (zeroed header) or at the
//     first corrupt record (torn tail from a mid-write crash): every
//     record before the tear was covered by the fsync that acknowledged
//     it, everything at or after the tear was never acknowledged.
//  2. REDO — scan again and re-apply, in log order, every kBlockImage of
//     a committed transaction to the data device, redo every committed
//     kBlockDelta as read, patch, write, and replay committed
//     kAlloc/kFree records into the allocation map (seeded from the
//     log's kCheckpoint record when present, else from the data file's
//     size). Every delta follows its block's full image in the log, so
//     redo rebuilds each block from that image whatever the data file
//     held, and is idempotent: recovering twice — or crashing during
//     recovery and recovering again — lands in the same state.
//
// Recovery ends by Sync()ing the data device and Reset()ing the log; the
// caller then persists a fresh checkpoint of the recovered allocation
// map as the new log's first record.
#pragma once

#include <cstdint>
#include <vector>

#include "io/block_device.h"
#include "util/status.h"
#include "wal/wal_format.h"

namespace vem {

class WalManager;

namespace wal {

/// One validated log record (header + payload bytes).
struct WalRecord {
  RecordHeader header;
  std::vector<char> payload;
  RecordType type() const { return static_cast<RecordType>(header.type); }
};

/// Forward scanner over a log device's byte stream. Yields every valid
/// record (kPad filtered out) until the clean end or a torn tail.
class WalScanner {
 public:
  explicit WalScanner(BlockDevice* dev);

  /// Advance to the next record. *valid=false signals end of scan (check
  /// torn_tail() for why); a non-OK Status is a device read failure.
  Status Next(WalRecord* rec, bool* valid);

  /// True when the scan stopped at a corrupt record (bad magic or CRC)
  /// rather than a clean zeroed end — the signature of a crash mid-write.
  bool torn_tail() const { return torn_; }

  /// Byte offset where the scan stopped (== end-LSN of the last valid
  /// record, modulo padding).
  uint64_t end_offset() const { return off_; }

 private:
  /// Copy `n` bytes at byte offset `off` of the log into `dst`; *got is
  /// the bytes actually available (short at end of device).
  Status ReadAt(uint64_t off, size_t n, char* dst, size_t* got);

  BlockDevice* dev_;
  size_t block_size_;
  uint64_t limit_;  // device size in bytes
  uint64_t off_ = 0;
  bool done_ = false;
  bool torn_ = false;
  std::vector<char> cache_;  // one cached device block
  uint64_t cached_blk_ = ~0ull;
};

/// Allocation-map snapshot carried by kCheckpoint records.
/// Payload layout: uint64 next_id, uint64 nfree, nfree * uint64 ids.
std::vector<char> EncodeAllocMap(uint64_t next_id,
                                 const std::vector<uint64_t>& free_list);
bool DecodeAllocMap(const void* payload, size_t n, uint64_t* next_id,
                    std::vector<uint64_t>* free_list);

/// kBlockDelta payload turning block content `base` into `img` (both
/// `n` bytes): one {u32 offset, u32 length, bytes} run per stretch of
/// changed bytes, runs less than kDeltaMergeGap apart merged. Empty when
/// the two are identical.
std::vector<char> EncodeBlockDelta(const char* base, const char* img,
                                   size_t n);
/// Patch `block` (`n` bytes) with a kBlockDelta payload. False — with
/// `block` possibly half patched, never written out of bounds — when a
/// run is truncated, empty, or reaches past the block end.
bool ApplyBlockDelta(const void* payload, size_t payload_size, char* block,
                     size_t n);

}  // namespace wal

/// What recovery found and did (introspection for tests and logs).
struct RecoveryResult {
  uint64_t scanned_records = 0;   ///< valid records seen (pads excluded)
  uint64_t committed_txns = 0;    ///< transactions with a durable commit
  uint64_t redone_blocks = 0;     ///< block images re-applied to data
  uint64_t redone_deltas = 0;     ///< block deltas re-applied to data
  bool torn_tail = false;         ///< log ended in a torn record
  uint64_t next_block_id = 0;     ///< recovered allocation bound
  std::vector<uint64_t> free_list;  ///< recovered free ids
};

/// Run analysis + redo of `wal`'s log against `data`, then Sync() the
/// data device and Reset() the log. On return the data device holds
/// exactly the committed prefix of history and `result` carries the
/// recovered allocation map — the caller persists it as the fresh log's
/// checkpoint. Idempotent: crashing during recovery and re-running
/// reaches the same state.
Status RecoverWal(WalManager* wal, BlockDevice* data, RecoveryResult* result);

}  // namespace vem
