#include "wal/recovery.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "wal/wal_manager.h"

namespace vem {
namespace wal {

namespace {

bool AllZero(const char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

/// Sanity bound on a record payload: no record is larger than the log
/// itself, and a corrupt size field must not drive a huge allocation.
constexpr uint64_t kMaxPayload = 1ull << 30;

}  // namespace

WalScanner::WalScanner(BlockDevice* dev)
    : dev_(dev),
      block_size_(dev->block_size()),
      limit_(dev->num_allocated() * dev->block_size()) {}

Status WalScanner::ReadAt(uint64_t off, size_t n, char* dst, size_t* got) {
  *got = 0;
  while (n > 0 && off < limit_) {
    uint64_t blk = off / block_size_;
    size_t in_blk = static_cast<size_t>(off % block_size_);
    if (blk != cached_blk_) {
      cache_.resize(block_size_);
      Status s = dev_->SupportsUncounted()
                     ? dev_->ReadUncounted(blk, cache_.data())
                     : dev_->Read(blk, cache_.data());
      VEM_RETURN_IF_ERROR(s);
      cached_blk_ = blk;
    }
    size_t take = std::min(n, block_size_ - in_blk);
    std::memcpy(dst, cache_.data() + in_blk, take);
    dst += take;
    off += take;
    n -= take;
    *got += take;
  }
  return Status::OK();
}

Status WalScanner::Next(WalRecord* rec, bool* valid) {
  *valid = false;
  while (!done_) {
    // A flush that left less than a header's worth of room before a
    // block boundary zero-filled the gap; skip it. Any nonzero byte
    // there is a record header straddling the boundary (the first magic
    // byte is nonzero), handled by the normal path below.
    size_t to_boundary =
        block_size_ - static_cast<size_t>(off_ % block_size_);
    if (to_boundary < kHeaderSize) {
      char gap[kHeaderSize];
      size_t got = 0;
      if (!ReadAt(off_, to_boundary, gap, &got).ok()) {
        // An unreadable block at the scan frontier is a tail that never
        // fully landed (a crash mid-flush can leave allocated-but-
        // unwritten log blocks): everything before it stands, nothing
        // at or past it was ever acknowledged.
        torn_ = true;
        done_ = true;
        break;
      }
      if (got == to_boundary && AllZero(gap, got)) {
        off_ += to_boundary;
        continue;
      }
    }

    char hb[kHeaderSize];
    size_t got = 0;
    if (!ReadAt(off_, kHeaderSize, hb, &got).ok()) {
      torn_ = true;  // see above: unreadable frontier = torn tail
      done_ = true;
      break;
    }
    if (got < kHeaderSize) {
      // End of device mid-header: clean end if what's there is zeros,
      // torn otherwise.
      torn_ = !AllZero(hb, got);
      done_ = true;
      break;
    }
    if (AllZero(hb, kHeaderSize)) {
      done_ = true;  // clean end of log
      break;
    }
    RecordHeader h;
    std::memcpy(&h, hb, kHeaderSize);
    if (h.magic != kWalMagic || h.payload_size > kMaxPayload ||
        h.lsn != off_ + kHeaderSize + h.payload_size ||
        off_ + kHeaderSize + h.payload_size > limit_) {
      torn_ = true;
      done_ = true;
      break;
    }
    std::vector<char> payload(h.payload_size);
    if (h.payload_size > 0) {
      if (!ReadAt(off_ + kHeaderSize, h.payload_size, payload.data(), &got)
               .ok() ||
          got < h.payload_size) {
        torn_ = true;
        done_ = true;
        break;
      }
    }
    if (RecordCrc(h, payload.data(), payload.size()) != h.crc) {
      torn_ = true;
      done_ = true;
      break;
    }
    off_ = h.lsn;
    if (static_cast<RecordType>(h.type) == RecordType::kPad) continue;
    rec->header = h;
    rec->payload = std::move(payload);
    *valid = true;
    return Status::OK();
  }
  return Status::OK();
}

std::vector<char> EncodeAllocMap(uint64_t next_id,
                                 const std::vector<uint64_t>& free_list) {
  std::vector<char> out(sizeof(uint64_t) * (2 + free_list.size()));
  char* p = out.data();
  uint64_t nfree = free_list.size();
  std::memcpy(p, &next_id, sizeof(next_id));
  std::memcpy(p + 8, &nfree, sizeof(nfree));
  if (nfree > 0) {
    std::memcpy(p + 16, free_list.data(), nfree * sizeof(uint64_t));
  }
  return out;
}

bool DecodeAllocMap(const void* payload, size_t n, uint64_t* next_id,
                    std::vector<uint64_t>* free_list) {
  if (n < 16) return false;
  const char* p = static_cast<const char*>(payload);
  uint64_t nfree = 0;
  std::memcpy(next_id, p, 8);
  std::memcpy(&nfree, p + 8, 8);
  if (n != 16 + nfree * sizeof(uint64_t)) return false;
  free_list->resize(nfree);
  if (nfree > 0) std::memcpy(free_list->data(), p + 16, nfree * 8);
  return true;
}

std::vector<char> EncodeBlockDelta(const char* base, const char* img,
                                   size_t n) {
  std::vector<char> out;
  size_t i = 0;
  while (i < n) {
    // Skip equal stretches a word at a time (pages mostly match), then
    // byte by byte to the first change.
    uint64_t a = 0, b = 0;
    for (; i + sizeof(a) <= n; i += sizeof(a)) {
      std::memcpy(&a, base + i, sizeof(a));
      std::memcpy(&b, img + i, sizeof(b));
      if (a != b) break;
    }
    while (i < n && base[i] == img[i]) ++i;
    if (i == n) break;
    // Extend the run over every change less than kDeltaMergeGap past
    // the last changed byte seen.
    size_t last = i;
    for (size_t j = i + 1; j < n && j - last <= kDeltaMergeGap; ++j) {
      if (base[j] != img[j]) last = j;
    }
    const uint32_t off = static_cast<uint32_t>(i);
    const uint32_t len = static_cast<uint32_t>(last + 1 - i);
    const size_t at = out.size();
    out.resize(at + 2 * sizeof(uint32_t) + len);
    std::memcpy(out.data() + at, &off, sizeof(off));
    std::memcpy(out.data() + at + 4, &len, sizeof(len));
    std::memcpy(out.data() + at + 8, img + i, len);
    i = last + 1;
  }
  return out;
}

bool ApplyBlockDelta(const void* payload, size_t payload_size, char* block,
                     size_t n) {
  const char* p = static_cast<const char*>(payload);
  size_t at = 0;
  while (at < payload_size) {
    if (payload_size - at < 2 * sizeof(uint32_t)) return false;
    uint32_t off = 0, len = 0;
    std::memcpy(&off, p + at, sizeof(off));
    std::memcpy(&len, p + at + 4, sizeof(len));
    at += 2 * sizeof(uint32_t);
    if (len == 0 || off > n || len > n - off || len > payload_size - at) {
      return false;
    }
    std::memcpy(block + off, p + at, len);
    at += len;
  }
  return true;
}

}  // namespace wal

Status RecoverWal(WalManager* wal, BlockDevice* data, RecoveryResult* result) {
  *result = RecoveryResult{};
  BlockDevice* log = wal->device();
  if (log == nullptr) return Status::IOError("WAL: log device unavailable");

  // --- Pass 1: analysis. Which transactions have a durable commit?
  std::unordered_set<uint64_t> committed;
  {
    wal::WalScanner scan(log);
    wal::WalRecord rec;
    bool valid = false;
    for (;;) {
      VEM_RETURN_IF_ERROR(scan.Next(&rec, &valid));
      if (!valid) break;
      result->scanned_records++;
      if (rec.type() == wal::RecordType::kCommit) committed.insert(rec.header.txn);
    }
    result->torn_tail = scan.torn_tail();
  }
  result->committed_txns = committed.size();

  // --- Pass 2: redo committed block images and deltas in log order;
  // replay the allocation map from the checkpoint base.
  uint64_t next_id = data->num_allocated();
  std::vector<char> block(data->block_size());
  std::unordered_set<uint64_t> free_set;
  {
    wal::WalScanner scan(log);
    wal::WalRecord rec;
    bool valid = false;
    for (;;) {
      VEM_RETURN_IF_ERROR(scan.Next(&rec, &valid));
      if (!valid) break;
      switch (rec.type()) {
        case wal::RecordType::kCheckpoint: {
          std::vector<uint64_t> fl;
          uint64_t nid = 0;
          if (!wal::DecodeAllocMap(rec.payload.data(), rec.payload.size(),
                                   &nid, &fl)) {
            return Status::Corruption("WAL: malformed checkpoint record");
          }
          next_id = std::max(next_id, nid);
          free_set.clear();
          free_set.insert(fl.begin(), fl.end());
          break;
        }
        case wal::RecordType::kBlockImage: {
          if (committed.count(rec.header.txn) == 0) break;
          if (rec.payload.size() != data->block_size()) {
            return Status::Corruption("WAL: block image size mismatch");
          }
          uint64_t id = rec.header.block_id;
          // The data device only ever grows under the WAL; extend it so
          // the image's id exists, then re-apply (idempotent).
          while (data->num_allocated() <= id) data->Allocate();
          Status s = data->SupportsUncounted()
                         ? data->WriteUncounted(id, rec.payload.data())
                         : data->Write(id, rec.payload.data());
          VEM_RETURN_IF_ERROR(s);
          result->redone_blocks++;
          break;
        }
        case wal::RecordType::kBlockDelta: {
          if (committed.count(rec.header.txn) == 0) break;
          uint64_t id = rec.header.block_id;
          while (data->num_allocated() <= id) data->Allocate();
          VEM_RETURN_IF_ERROR(data->SupportsUncounted()
                                  ? data->ReadUncounted(id, block.data())
                                  : data->Read(id, block.data()));
          if (!wal::ApplyBlockDelta(rec.payload.data(), rec.payload.size(),
                                    block.data(), block.size())) {
            return Status::Corruption("WAL: malformed block delta");
          }
          VEM_RETURN_IF_ERROR(data->SupportsUncounted()
                                  ? data->WriteUncounted(id, block.data())
                                  : data->Write(id, block.data()));
          result->redone_deltas++;
          break;
        }
        case wal::RecordType::kAlloc: {
          if (committed.count(rec.header.txn) == 0) break;
          uint64_t id = rec.header.block_id;
          if (free_set.erase(id) == 0) next_id = std::max(next_id, id + 1);
          break;
        }
        case wal::RecordType::kFree: {
          if (committed.count(rec.header.txn) == 0) break;
          free_set.insert(rec.header.block_id);
          break;
        }
        case wal::RecordType::kCommit:
        case wal::RecordType::kPad:
          break;
      }
    }
  }
  result->next_block_id = std::max(next_id, data->num_allocated());
  result->free_list.assign(free_set.begin(), free_set.end());
  std::sort(result->free_list.begin(), result->free_list.end());

  // Make the redone state durable BEFORE truncating the log: until the
  // data fsync returns, the log is still the only durable copy.
  VEM_RETURN_IF_ERROR(data->Sync());
  return wal->Reset();
}

}  // namespace vem
