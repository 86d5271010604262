#include "wal/durable_block_device.h"

#include <algorithm>
#include <cstring>

#include "io/file_block_device.h"

namespace vem {

DurableBlockDevice::DurableBlockDevice(BlockDevice* inner, WalManager* wal)
    : inner_(inner), wal_(wal) {
  if (wal_ == nullptr) return;
  if (!wal_->valid()) {
    init_status_ = wal_->status();
    return;
  }
  next_id_ = inner_->num_allocated();
  live_blocks_ = next_id_;
  if (wal_->device()->num_allocated() > 0) {
    // A prior incarnation left a log: redo its committed history into
    // the data device, then start a fresh log.
    init_status_ = RecoverWal(wal_, inner_, &recovery_);
    if (!init_status_.ok()) return;
    next_id_ = recovery_.next_block_id;
    free_list_ = recovery_.free_list;
    live_blocks_ = next_id_ - free_list_.size();
  }
  std::lock_guard<std::mutex> lk(mu_);
  init_status_ = WriteCheckpointLocked();
}

DurableBlockDevice::~DurableBlockDevice() = default;

size_t DurableBlockDevice::block_size() const { return inner_->block_size(); }

Status DurableBlockDevice::WriteCheckpointLocked() {
  std::vector<char> map = wal::EncodeAllocMap(next_id_, free_list_);
  uint64_t lsn = 0;
  VEM_RETURN_IF_ERROR(wal_->Append(wal::RecordType::kCheckpoint, 0, 0,
                                   map.data(), map.size(), &lsn));
  return wal_->SyncTo(lsn);
}

void DurableBlockDevice::ExtendInnerTo(uint64_t id) {
  while (inner_->num_allocated() <= id) inner_->Allocate();
}

Status DurableBlockDevice::Read(uint64_t id, void* buf) {
  if (wal_ != nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      // Uncommitted image lives only in the overlay; still one block
      // read of this device as far as the algorithm is concerned.
      std::memcpy(buf, it->second.data(), block_size());
      stats_.block_reads++;
      stats_.parallel_reads++;
      stats_.bytes_read += block_size();
      return Status::OK();
    }
    if (id >= inner_->num_allocated()) {
      // Allocated via the journaled map but never written: zeros.
      std::memset(buf, 0, block_size());
      stats_.block_reads++;
      stats_.parallel_reads++;
      stats_.bytes_read += block_size();
      return Status::OK();
    }
  }
  Status s = inner_->Read(id, buf);
  if (s.ok()) {
    stats_.block_reads++;
    stats_.parallel_reads++;
    stats_.bytes_read += block_size();
  }
  return s;
}

Status DurableBlockDevice::Write(uint64_t id, const void* buf) {
  if (wal_ == nullptr) {
    Status s = inner_->Write(id, buf);
    if (s.ok()) {
      stats_.block_writes++;
      stats_.parallel_writes++;
      stats_.bytes_written += block_size();
    }
    return s;
  }
  std::lock_guard<std::mutex> lk(mu_);
  VEM_RETURN_IF_ERROR(JournalWriteLocked(id, static_cast<const char*>(buf)));
  auto& img = pending_[id];
  img.assign(static_cast<const char*>(buf),
             static_cast<const char*>(buf) + block_size());
  stats_.block_writes++;
  stats_.parallel_writes++;
  stats_.bytes_written += block_size();
  return Status::OK();
}

Status DurableBlockDevice::JournalWriteLocked(uint64_t id, const char* buf) {
  const size_t B = block_size();
  if (imaged_.count(id) != 0 && inner_->SupportsUncounted()) {
    std::vector<char> inner_img;
    const char* base = nullptr;
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      base = it->second.data();
    } else if (id < inner_->num_allocated()) {
      inner_img.resize(B);
      if (inner_->ReadUncounted(id, inner_img.data()).ok()) {
        base = inner_img.data();
      }
    }
    if (base != nullptr) {
      std::vector<char> delta = wal::EncodeBlockDelta(base, buf, B);
      if (delta.empty()) return Status::OK();
      if (delta.size() < B / 2) {
        return wal_->Append(wal::RecordType::kBlockDelta, cur_txn_, id,
                            delta.data(), delta.size(), nullptr);
      }
    }
  }
  VEM_RETURN_IF_ERROR(wal_->Append(wal::RecordType::kBlockImage, cur_txn_, id,
                                   buf, B, nullptr));
  imaged_.insert(id);
  return Status::OK();
}

Status DurableBlockDevice::Commit() {
  if (wal_ == nullptr) return inner_->Sync();
  std::unique_lock<std::mutex> lk(mu_);
  uint64_t txn = cur_txn_;
  std::unordered_map<uint64_t, std::vector<char>> batch;
  batch.swap(pending_);
  cur_txn_++;
  lk.unlock();
  // Durability point: the commit record hits the medium here. An OK
  // return from the log force is the moment the transaction is safe;
  // everything after is redo work a crash would simply replay.
  Status s = wal_->Commit(txn, nullptr);
  if (!s.ok()) {
    // The transaction may or may not be durable; surface the failure
    // and leave the images to recovery rather than half-applying.
    return s;
  }
  const bool uncounted = inner_->SupportsUncounted();
  std::vector<uint64_t> ids;
  ids.reserve(batch.size());
  Status w;
  auto it = batch.begin();
  for (; it != batch.end(); ++it) {
    WalTestMaybeCrash();  // between commit-ack and data apply
    ExtendInnerTo(it->first);
    w = uncounted ? inner_->WriteUncounted(it->first, it->second.data())
                  : inner_->Write(it->first, it->second.data());
    if (!w.ok()) break;
    if (uncounted) ids.push_back(it->first);
  }
  if (w.ok()) WalTestMaybeCrash();  // applied, ack not yet returned
  if (!ids.empty()) inner_->AccountWriteIds(ids.data(), ids.size());
  if (!w.ok()) {
    // The transaction is durable but not fully applied. Park every image
    // not yet applied back in the overlay: reads keep seeing the
    // committed state, Checkpoint() refuses to cut the log that holds
    // it, and the next Commit() applies it. An image written since the
    // swap is newer and wins.
    lk.lock();
    for (; it != batch.end(); ++it) {
      pending_.emplace(it->first, std::move(it->second));
    }
  }
  return w;
}

size_t DurableBlockDevice::pending_blocks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_.size();
}

Status DurableBlockDevice::Checkpoint() {
  if (wal_ == nullptr) return inner_->Sync();
  std::lock_guard<std::mutex> lk(mu_);
  if (!pending_.empty()) {
    return Status::InvalidArgument(
        "Checkpoint with uncommitted writes: Commit() first");
  }
  imaged_.clear();  // the cut log holds no full images any more
  // Data first, then cut the log: the log must stay the durable copy of
  // anything the data device hasn't persisted yet.
  VEM_RETURN_IF_ERROR(inner_->Sync());
  VEM_RETURN_IF_ERROR(wal_->Reset());
  return WriteCheckpointLocked();
}

bool DurableBlockDevice::SupportsUncounted() const {
  return wal_ == nullptr && inner_->SupportsUncounted();
}

bool DurableBlockDevice::SupportsAsync() const {
  return wal_ == nullptr && inner_->SupportsAsync();
}

Status DurableBlockDevice::ReadUncounted(uint64_t id, void* buf) {
  if (wal_ != nullptr) {
    return Status::NotSupported("journaling device has no uncounted plane");
  }
  return inner_->ReadUncounted(id, buf);
}

Status DurableBlockDevice::WriteUncounted(uint64_t id, const void* buf) {
  if (wal_ != nullptr) {
    return Status::NotSupported("journaling device has no uncounted plane");
  }
  return inner_->WriteUncounted(id, buf);
}

void DurableBlockDevice::AccountReads(uint64_t blocks) {
  inner_->AccountReads(blocks);
  BlockDevice::AccountReads(blocks);
}

void DurableBlockDevice::AccountWrites(uint64_t blocks) {
  inner_->AccountWrites(blocks);
  BlockDevice::AccountWrites(blocks);
}

void DurableBlockDevice::AccountReadBatch(const uint64_t* ids,
                                          uint64_t blocks) {
  inner_->AccountReadBatch(ids, blocks);
  BlockDevice::AccountReads(blocks);
}

void DurableBlockDevice::AccountWriteIds(const uint64_t* ids,
                                         uint64_t blocks) {
  inner_->AccountWriteIds(ids, blocks);
  BlockDevice::AccountWrites(blocks);
}

void DurableBlockDevice::AccountWriteBatch(const uint64_t* ids,
                                           uint64_t blocks) {
  inner_->AccountWriteBatch(ids, blocks);
  BlockDevice::AccountWrites(blocks);
}

uint64_t DurableBlockDevice::PrefetchRoute(uint64_t block_id) const {
  return inner_->PrefetchRoute(block_id);
}

uint64_t DurableBlockDevice::EngineDiskTag(uint64_t block_id) const {
  return inner_->EngineDiskTag(block_id);
}

Status DurableBlockDevice::Sync() {
  if (wal_ != nullptr) {
    VEM_RETURN_IF_ERROR(wal_->SyncTo(wal_->last_lsn()));
  }
  return inner_->Sync();
}

uint64_t DurableBlockDevice::wal_last_lsn() const {
  return wal_ != nullptr ? wal_->last_lsn() : 0;
}

Status DurableBlockDevice::EnsureWalDurable(uint64_t lsn) {
  return wal_ != nullptr ? wal_->SyncTo(lsn) : Status::OK();
}

uint64_t DurableBlockDevice::Allocate() {
  if (wal_ == nullptr) return inner_->Allocate();
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = next_id_++;
  }
  live_blocks_++;
  (void)wal_->Append(wal::RecordType::kAlloc, cur_txn_, id, nullptr, 0,
                     nullptr);
  return id;
}

void DurableBlockDevice::Free(uint64_t id) {
  if (wal_ == nullptr) {
    inner_->Free(id);
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  free_list_.push_back(id);
  live_blocks_--;
  pending_.erase(id);  // a freed block's uncommitted image is moot
  imaged_.erase(id);   // a re-allocated id starts with a full image
  (void)wal_->Append(wal::RecordType::kFree, cur_txn_, id, nullptr, 0,
                     nullptr);
}

uint64_t DurableBlockDevice::num_allocated() const {
  if (wal_ == nullptr) return inner_->num_allocated();
  std::lock_guard<std::mutex> lk(mu_);
  return live_blocks_;
}

void DurableBlockDevice::set_io_engine(IoEngine* engine) {
  BlockDevice::set_io_engine(engine);
  inner_->set_io_engine(engine);
}

DurableStorage::DurableStorage(const std::string& base_path,
                               const Options& opts) {
  const bool persistent = opts.enable_wal;
  data = std::make_unique<FileBlockDevice>(
      base_path, opts.block_size, /*unlink_on_close=*/!persistent,
      opts.direct_io, opts.sync_on_close, /*open_existing=*/persistent);
  if (opts.enable_wal) {
    WalManager::Config cfg;
    cfg.block_size = opts.block_size;
    cfg.group_commit_us = opts.wal_group_commit_us;
    wal = std::make_unique<WalManager>(base_path + ".wal", cfg);
  }
  device = std::make_unique<DurableBlockDevice>(data.get(), wal.get());
}

DurableStorage::~DurableStorage() = default;

bool DurableStorage::valid() const {
  return data != nullptr && data->valid() &&
         (wal == nullptr || wal->valid()) && device != nullptr &&
         device->valid();
}

Status DurableStorage::status() const {
  if (data != nullptr && !data->last_error().ok()) return data->last_error();
  if (wal != nullptr && !wal->status().ok()) return wal->status();
  if (device != nullptr) return device->status();
  return Status::OK();
}

}  // namespace vem
