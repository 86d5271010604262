// WAL on-disk format: the append-only, CRC-protected record stream.
//
// The log is a byte stream laid over the fixed-size blocks of a
// BlockDevice. Records are appended back to back and may span block
// boundaries; every record carries a magic, a CRC32 over its header tail
// and payload, and its LSN. LSNs are byte offsets: a record's lsn is the
// offset just past its final byte, so "the log is durable through LSN L"
// means every byte below L has been fsynced — one monotone counter
// orders records and commit points alike.
//
// Durability relies on two invariants the writer maintains:
//  - no flushed block is ever rewritten: every flush pads the stream to
//    the next block boundary (a kPad record, or raw zeros when fewer
//    than a header's worth of bytes remain), so a torn rewrite can never
//    damage bytes an earlier fsync already acknowledged;
//  - the scanner treats a zeroed header as the clean end of the log and
//    any magic/CRC violation as a torn tail — everything before the tear
//    is trusted (it was covered by the fsync that acknowledged it),
//    everything after is discarded.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace vem {
namespace wal {

/// "VWL1" — identifies the start of a record header.
inline constexpr uint32_t kWalMagic = 0x314C5756u;

/// Record types. A block's first write in a checkpoint cycle (the span
/// from construction, recovery or Checkpoint() to the next Checkpoint())
/// logs a full kBlockImage; each later write of that block in the same
/// cycle logs a kBlockDelta against the block's then-current content, so
/// every delta in the log follows its block's full image and redo
/// rebuilds the block whatever the data file holds (torn pages included).
enum class RecordType : uint32_t {
  kBlockImage = 1,  ///< after-image of data block `block_id` (payload = B bytes)
  kAlloc = 2,       ///< block `block_id` allocated in txn `txn`
  kFree = 3,        ///< block `block_id` freed in txn `txn`
  kCommit = 4,      ///< txn `txn` committed — the redo gate
  kCheckpoint = 5,  ///< allocation-map snapshot (payload: next_id + free list)
  kPad = 6,         ///< filler to the next block boundary; carries no state
  kBlockDelta = 7,  ///< byte runs that changed in block `block_id`
                    ///< (payload: {u32 offset, u32 length, bytes} repeated)
};

/// Changed-byte runs closer than this are merged into one delta run: a
/// run header costs 8 bytes, so bridging a short unchanged gap is cheaper
/// than starting a new run.
inline constexpr size_t kDeltaMergeGap = 16;

/// Fixed 40-byte record header. The CRC covers bytes [8, 40) of the
/// header (everything after the crc field) followed by the payload, so a
/// torn header, a torn payload, or a stale block all fail validation.
struct RecordHeader {
  uint32_t magic;
  uint32_t crc;
  uint32_t payload_size;
  uint32_t type;
  uint64_t lsn;  ///< byte offset just past this record's last byte
  uint64_t txn;
  uint64_t block_id;
};
static_assert(sizeof(RecordHeader) == 40, "WAL header layout is on-disk ABI");

inline constexpr size_t kHeaderSize = sizeof(RecordHeader);

/// CRC32 (IEEE 802.3, reflected). Chainable: pass the previous return
/// value as `crc` to extend a running checksum; start from 0.
inline uint32_t Crc32(uint32_t crc, const void* data, size_t n) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return ~c;
}

/// Checksum of one record: header bytes past the crc field + payload.
inline uint32_t RecordCrc(const RecordHeader& h, const void* payload,
                          size_t n) {
  const char* base = reinterpret_cast<const char*>(&h);
  uint32_t c = Crc32(0, base + 2 * sizeof(uint32_t),
                     kHeaderSize - 2 * sizeof(uint32_t));
  if (n > 0) c = Crc32(c, payload, n);
  return c;
}

}  // namespace wal
}  // namespace vem
