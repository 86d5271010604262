#include "io/rebuild_manager.h"

#include <chrono>

#include "io/independent_disk_device.h"
#include "io/io_engine.h"
#include "io/memory_arbiter.h"

namespace vem {

namespace {
constexpr size_t kDefaultBatchBlocks = 8;
}  // namespace

RebuildManager::RebuildManager(IndependentDiskDevice* device, IoEngine* engine)
    : device_(device), engine_(engine) {}

RebuildManager::~RebuildManager() { Stop(); }

void RebuildManager::AttachArbiter(MemoryArbiter* arbiter) {
  if (arbiter == nullptr) return;
  // Background repair yields to everything else: a tenant far below
  // default priority, no floor — proportional-share reclaim takes its
  // staging first when serving traffic wants the memory.
  tenant_ = arbiter->RegisterTenant("rebuild", /*priority=*/0.25,
                                    /*min_floor_blocks=*/0);
  staging_ = arbiter->LeaseStaging(kDefaultBatchBlocks, tenant_.get());
}

size_t RebuildManager::BatchBlocks() const {
  if (staging_ == nullptr) return kDefaultBatchBlocks;
  const size_t target = staging_->target_blocks();
  return target == 0 ? 1 : target;
}

Status RebuildManager::RunOnce() {
  if (device_ == nullptr || device_->parity_group_width() == 0) {
    return Status::OK();
  }
  Status first_err = Status::OK();
  for (size_t d = 0; d < device_->num_disks(); ++d) {
    if (!device_->DiskDegraded(d)) continue;
    if (device_->spares_available() == 0) break;  // nothing to rebuild onto
    const bool was_dead = device_->DiskDead(d);
    // A dead head never recovers — its drain runs to completion. A
    // merely-quarantined head cancels the moment the health EWMA clears
    // it: its contents are still current (writes keep landing on
    // quarantined-but-alive heads), so flipping back is free.
    auto cancel = [this, d, was_dead] {
      return !was_dead && !device_->DiskDegraded(d);
    };
    Status s = device_->RebuildDisk(d, cancel, BatchBlocks());
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (s.ok()) {
        stats_.rebuilds_completed++;
      } else if (s.IsBusy()) {
        stats_.cancelled++;
      } else {
        stats_.failed++;
        if (first_err.ok()) first_err = s;
      }
    }
    if (staging_ != nullptr) {
      // Repair holds no staging between passes; report so the arbiter
      // can hand the budget to whoever is actually stalling.
      staging_->ReportUsage(/*staged_blocks=*/0, /*waste_ewma=*/0.0,
                            /*stall_ewma=*/0.0);
    }
  }
  return first_err;
}

void RebuildManager::Start(uint64_t poll_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) return;  // already running
    stop_ = false;
  }
  thread_ = std::thread([this, poll_ms] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      (void)RunOnce();
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(poll_ms),
                   [this] { return stop_; });
    }
  });
}

void RebuildManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      if (thread_.joinable()) thread_.join();
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

RebuildManager::Stats RebuildManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace vem
