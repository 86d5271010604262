#include "wal/wal_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "io/file_block_device.h"

namespace vem {

namespace {

class SystemWalClock final : public WalClock {
 public:
  void SleepMicros(uint64_t us) override {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
};

std::atomic<void (*)()> g_crash_hook{nullptr};

}  // namespace

WalClock* DefaultWalClock() {
  static SystemWalClock clock;
  return &clock;
}

void SetWalTestCrashHook(void (*hook)()) {
  g_crash_hook.store(hook, std::memory_order_release);
}

void WalTestMaybeCrash() {
  if (void (*hook)() = g_crash_hook.load(std::memory_order_acquire)) hook();
}

WalManager::WalManager(const std::string& path, const Config& cfg)
    : path_(path),
      block_size_(cfg.block_size),
      group_commit_us_(cfg.group_commit_us),
      clock_(cfg.clock != nullptr ? cfg.clock : DefaultWalClock()) {
  owned_ = std::make_unique<FileBlockDevice>(
      path, cfg.block_size, /*unlink_on_close=*/false, /*direct_io=*/false,
      /*sync_on_close=*/false, /*open_existing=*/true);
  if (!owned_->valid()) {
    sticky_ = Status::IOError("WAL: cannot open log file " + path);
    owned_.reset();
    return;
  }
  dev_ = owned_.get();
  use_uncounted_ = dev_->SupportsUncounted();
  // Resume appending after the existing content; the caller must run
  // recovery (which ends in Reset) before appending to a non-empty log,
  // so this position only matters for the scan-don't-clobber guarantee.
  alloc_blocks_ = dev_->num_allocated();
  flush_base_ = alloc_blocks_ * block_size_;
  pos_.store(flush_base_, std::memory_order_release);
  durable_pos_.store(flush_base_, std::memory_order_release);
}

WalManager::WalManager(BlockDevice* dev, const Config& cfg)
    : dev_(dev),
      block_size_(dev->block_size()),
      group_commit_us_(cfg.group_commit_us),
      clock_(cfg.clock != nullptr ? cfg.clock : DefaultWalClock()) {
  use_uncounted_ = dev_->SupportsUncounted();
  alloc_blocks_ = dev_->num_allocated();
  flush_base_ = alloc_blocks_ * block_size_;
  pos_.store(flush_base_, std::memory_order_release);
  durable_pos_.store(flush_base_, std::memory_order_release);
}

WalManager::~WalManager() = default;

Status WalManager::status() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sticky_;
}

uint64_t WalManager::AppendLocked(wal::RecordType type, uint64_t txn,
                                  uint64_t block_id, const void* payload,
                                  size_t payload_size) {
  wal::RecordHeader h{};
  h.magic = wal::kWalMagic;
  h.payload_size = static_cast<uint32_t>(payload_size);
  h.type = static_cast<uint32_t>(type);
  h.txn = txn;
  h.block_id = block_id;
  h.lsn = pos_.load(std::memory_order_relaxed) + wal::kHeaderSize +
          payload_size;
  h.crc = wal::RecordCrc(h, payload, payload_size);
  const char* hb = reinterpret_cast<const char*>(&h);
  tail_.insert(tail_.end(), hb, hb + wal::kHeaderSize);
  if (payload_size > 0) {
    const char* pb = static_cast<const char*>(payload);
    tail_.insert(tail_.end(), pb, pb + payload_size);
  }
  pos_.store(h.lsn, std::memory_order_release);
  return h.lsn;
}

Status WalManager::Append(wal::RecordType type, uint64_t txn,
                          uint64_t block_id, const void* payload,
                          size_t payload_size, uint64_t* end_lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  if (dev_ == nullptr) return Status::IOError("WAL: log device unavailable");
  if (!sticky_.ok()) return sticky_;
  uint64_t lsn = AppendLocked(type, txn, block_id, payload, payload_size);
  if (end_lsn != nullptr) *end_lsn = lsn;
  return Status::OK();
}

void WalManager::EnsureBlocksLocked(uint64_t count) {
  // Log devices are dedicated and never Free, so Allocate hands out
  // sequential ids and num_allocated == the id bound.
  while (alloc_blocks_ < count) {
    dev_->Allocate();
    ++alloc_blocks_;
  }
}

Status WalManager::FlushLocked() {
  const size_t B = block_size_;
  uint64_t end = pos_.load(std::memory_order_relaxed);
  uint64_t rem = end % B;
  if (rem != 0) {
    // Pad to the block boundary so this flush's last block is never
    // rewritten by a later one (the no-rewrite invariant of the format).
    uint64_t gap = B - rem;
    if (gap >= wal::kHeaderSize) {
      std::vector<char> zeros(gap - wal::kHeaderSize, 0);
      AppendLocked(wal::RecordType::kPad, 0, 0,
                   zeros.empty() ? nullptr : zeros.data(), zeros.size());
    } else {
      // Too small for a pad header: raw zeros; the scanner skips a
      // sub-header all-zero gap before a block boundary.
      tail_.insert(tail_.end(), gap, 0);
      pos_.store(end + gap, std::memory_order_release);
    }
  }
  if (tail_.empty()) return Status::OK();
  const uint64_t first_block = flush_base_ / B;
  const size_t nblocks = tail_.size() / B;
  EnsureBlocksLocked(first_block + nblocks);
  for (size_t i = 0; i < nblocks; ++i) {
    WalTestMaybeCrash();
    const char* buf = tail_.data() + i * B;
    Status s = use_uncounted_
                   ? dev_->WriteUncounted(first_block + i, buf)
                   : dev_->Write(first_block + i, buf);
    if (!s.ok()) {
      sticky_ = s;
      return s;
    }
  }
  if (use_uncounted_) pending_charge_ += nblocks;
  flush_base_ += tail_.size();
  tail_.clear();
  return Status::OK();
}

Status WalManager::Flush() {
  std::lock_guard<std::mutex> lk(mu_);
  if (dev_ == nullptr) return Status::IOError("WAL: log device unavailable");
  if (!sticky_.ok()) return sticky_;
  return FlushLocked();
}

Status WalManager::ForceTo(uint64_t target) {
  std::unique_lock<std::mutex> lk(mu_);
  if (dev_ == nullptr) return Status::IOError("WAL: log device unavailable");
  for (;;) {
    if (!sticky_.ok()) return sticky_;
    if (durable_pos_.load(std::memory_order_relaxed) >=
        std::min(target, pos_.load(std::memory_order_relaxed))) {
      return Status::OK();
    }
    if (sync_in_flight_) {
      // Follower: the in-flight fsync may already cover us; re-check
      // when the leader finishes.
      cv_.wait(lk);
      continue;
    }
    // Leader. Optionally hold the door open so concurrent committers
    // join this batch, then flush + fsync once for everyone appended by
    // the time of the flush snapshot.
    sync_in_flight_ = true;
    if (group_commit_us_ > 0) {
      lk.unlock();
      clock_->SleepMicros(group_commit_us_);
      lk.lock();
    }
    Status fs = FlushLocked();
    const uint64_t synced_to = pos_.load(std::memory_order_relaxed);
    const uint64_t charge = pending_charge_;
    pending_charge_ = 0;
    Status ss;
    if (fs.ok()) {
      lk.unlock();
      WalTestMaybeCrash();  // pre-fsync: log bytes staged, not durable
      ss = dev_->Sync();
      WalTestMaybeCrash();  // post-fsync: durable, ack not yet returned
      lk.lock();
      fsync_count_.fetch_add(1, std::memory_order_acq_rel);
    }
    sync_in_flight_ = false;
    if (fs.ok() && ss.ok()) {
      if (synced_to > durable_pos_.load(std::memory_order_relaxed)) {
        durable_pos_.store(synced_to, std::memory_order_release);
      }
      // Commit is when the journal's physical writes become PDM-visible:
      // charge the staged log blocks to the log device now.
      if (charge > 0) dev_->AccountWrites(charge);
    } else if (sticky_.ok()) {
      sticky_ = fs.ok() ? ss : fs;
    }
    cv_.notify_all();
  }
}

Status WalManager::Commit(uint64_t txn, uint64_t* commit_lsn) {
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (dev_ == nullptr) return Status::IOError("WAL: log device unavailable");
    if (!sticky_.ok()) return sticky_;
    lsn = AppendLocked(wal::RecordType::kCommit, txn, 0, nullptr, 0);
  }
  if (commit_lsn != nullptr) *commit_lsn = lsn;
  return ForceTo(lsn);
}

Status WalManager::SyncTo(uint64_t lsn) { return ForceTo(lsn); }

Status WalManager::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  tail_.clear();
  pending_charge_ = 0;
  sticky_ = Status::OK();
  if (owned_ != nullptr) {
    // Recreate the file truncated; the constructor re-fsyncs the parent
    // directory. A crash between this truncate and the caller's fresh
    // checkpoint loses only the free list (leaked blocks), never data —
    // recovery re-derives next_block_id from the data file's size.
    owned_ = std::make_unique<FileBlockDevice>(
        path_, block_size_, /*unlink_on_close=*/false, /*direct_io=*/false,
        /*sync_on_close=*/false, /*open_existing=*/false);
    if (!owned_->valid()) {
      dev_ = nullptr;
      sticky_ = Status::IOError("WAL: cannot recreate log file " + path_);
      return sticky_;
    }
    dev_ = owned_.get();
    use_uncounted_ = dev_->SupportsUncounted();
    alloc_blocks_ = 0;
  } else if (dev_ != nullptr && alloc_blocks_ > 0) {
    // Borrowed device: zero every block the log allocated. LSNs restart
    // at 0, so a stale record past the new tail would pass the scanner's
    // LSN check and be replayed. Block 0 goes first and is made durable
    // before the rest: a crash mid-way then leaves a clean empty log,
    // never a scannable prefix of the old one.
    std::vector<char> zeros(block_size_, 0);
    for (uint64_t b = 0; b < alloc_blocks_; ++b) {
      Status s = use_uncounted_ ? dev_->WriteUncounted(b, zeros.data())
                                : dev_->Write(b, zeros.data());
      if (s.ok() && b == 0) s = dev_->Sync();
      if (!s.ok()) {
        sticky_ = s;
        return s;
      }
    }
  }
  flush_base_ = 0;
  pos_.store(0, std::memory_order_release);
  durable_pos_.store(0, std::memory_order_release);
  return Status::OK();
}

}  // namespace vem
