// TracingBlockDevice: a forwarding BlockDevice decorator that times every
// call into the device it wraps, from outside the library.
//
// The traced benchmark run wraps each FileBlockDevice (data disks, the
// independent-disk children and the WAL's log device) in one of these.
// Every BlockDevice virtual is forwarded to the same virtual of the inner
// device, so the transport under test is unchanged: batch calls stay
// batch calls (unlike FaultyBlockDevice, whose batch calls fall back to
// per-block loops), and the engine, retry policy and WAL hooks reach the
// inner device.
//
// IoStats: BlockDevice::stats() is not virtual, so callers that read a
// wrapped device's counters (IoProbe, IndependentDiskDevice::disk_stats)
// read this decorator's own stats_. After every counted transfer and
// every Account* call the decorator adds the inner device's counter delta
// to stats_, so both report the same logical IoStats as an unwrapped run.
// Uncounted transfers never touch the counters and are not mirrored.
//
// Timing: each transfer or Sync() call is timed with steady_clock and
// attributed to the thread that constructed the decorator (the
// workload's own thread, which blocks on the call) or to any other
// thread (IoEngine workers, which overlap the call with the workload).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "io/block_device.h"

namespace perfbench {

inline uint64_t MonoNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Plain copy of one device's trace counters.
struct TraceCounts {
  uint64_t read_calls = 0, write_calls = 0;
  uint64_t read_blocks = 0, write_blocks = 0;
  uint64_t read_ns = 0, write_ns = 0, sync_ns = 0;
  uint64_t caller_ns = 0, worker_ns = 0;

  TraceCounts& operator+=(const TraceCounts& o) {
    read_calls += o.read_calls;
    write_calls += o.write_calls;
    read_blocks += o.read_blocks;
    write_blocks += o.write_blocks;
    read_ns += o.read_ns;
    write_ns += o.write_ns;
    sync_ns += o.sync_ns;
    caller_ns += o.caller_ns;
    worker_ns += o.worker_ns;
    return *this;
  }
};

class TracingBlockDevice final : public vem::BlockDevice {
 public:
  /// @param inner wrapped device (not owned; must outlive this decorator)
  explicit TracingBlockDevice(vem::BlockDevice* inner)
      : inner_(inner), caller_(std::this_thread::get_id()) {
    stats_ = inner->stats();
  }

  TracingBlockDevice(const TracingBlockDevice&) = delete;
  TracingBlockDevice& operator=(const TracingBlockDevice&) = delete;

  /// Zero the timing counters (the logical IoStats are left alone).
  void ResetTrace() {
    for (auto* c : {&read_calls_, &write_calls_, &read_blocks_,
                    &write_blocks_, &read_ns_, &write_ns_, &sync_ns_,
                    &caller_ns_, &worker_ns_}) {
      c->store(0, std::memory_order_relaxed);
    }
  }

  TraceCounts Counts() const {
    TraceCounts c;
    c.read_calls = read_calls_.load();
    c.write_calls = write_calls_.load();
    c.read_blocks = read_blocks_.load();
    c.write_blocks = write_blocks_.load();
    c.read_ns = read_ns_.load();
    c.write_ns = write_ns_.load();
    c.sync_ns = sync_ns_.load();
    c.caller_ns = caller_ns_.load();
    c.worker_ns = worker_ns_.load();
    return c;
  }

  /// Start watching for the first read of a block written after this
  /// call: the sort's merge phase begins at the first read of a run
  /// block. FirstReadOfWrittenNs() is 0 until such a read happens.
  void WatchReadAfterWrite() {
    std::lock_guard<std::mutex> lk(watch_mu_);
    written_.clear();
    first_read_of_written_ns_ = 0;
    watching_ = true;
  }
  uint64_t FirstReadOfWrittenNs() const {
    std::lock_guard<std::mutex> lk(watch_mu_);
    return first_read_of_written_ns_;
  }

  // ------------------------------------------------------ BlockDevice
  size_t block_size() const override { return inner_->block_size(); }

  vem::Status Read(uint64_t id, void* buf) override {
    return Transfer(false, &id, 1, true, [&] { return inner_->Read(id, buf); });
  }
  vem::Status Write(uint64_t id, const void* buf) override {
    return Transfer(true, &id, 1, true, [&] { return inner_->Write(id, buf); });
  }
  vem::Status ReadBatch(const uint64_t* ids, void* const* bufs,
                        size_t n) override {
    return Transfer(false, ids, n, true,
                    [&] { return inner_->ReadBatch(ids, bufs, n); });
  }
  vem::Status WriteBatch(const uint64_t* ids, const void* const* bufs,
                         size_t n) override {
    return Transfer(true, ids, n, true,
                    [&] { return inner_->WriteBatch(ids, bufs, n); });
  }

  bool SupportsUncounted() const override {
    return inner_->SupportsUncounted();
  }
  bool SupportsAsync() const override { return inner_->SupportsAsync(); }
  vem::Status ReadUncounted(uint64_t id, void* buf) override {
    return Transfer(false, &id, 1, false,
                    [&] { return inner_->ReadUncounted(id, buf); });
  }
  vem::Status WriteUncounted(uint64_t id, const void* buf) override {
    return Transfer(true, &id, 1, false,
                    [&] { return inner_->WriteUncounted(id, buf); });
  }
  vem::Status ReadBatchUncounted(const uint64_t* ids, void* const* bufs,
                                 size_t n) override {
    return Transfer(false, ids, n, false,
                    [&] { return inner_->ReadBatchUncounted(ids, bufs, n); });
  }
  vem::Status WriteBatchUncounted(const uint64_t* ids,
                                  const void* const* bufs, size_t n) override {
    return Transfer(true, ids, n, false,
                    [&] { return inner_->WriteBatchUncounted(ids, bufs, n); });
  }

  void AccountReads(uint64_t blocks) override {
    Mirror([&] { inner_->AccountReads(blocks); });
  }
  void AccountWrites(uint64_t blocks) override {
    Mirror([&] { inner_->AccountWrites(blocks); });
  }
  void AccountReadBatch(const uint64_t* ids, uint64_t blocks) override {
    Mirror([&] { inner_->AccountReadBatch(ids, blocks); });
  }
  void AccountWriteIds(const uint64_t* ids, uint64_t blocks) override {
    Mirror([&] { inner_->AccountWriteIds(ids, blocks); });
  }
  void AccountWriteBatch(const uint64_t* ids, uint64_t blocks) override {
    Mirror([&] { inner_->AccountWriteBatch(ids, blocks); });
  }

  uint64_t PrefetchRoute(uint64_t block_id) const override {
    return inner_->PrefetchRoute(block_id);
  }
  uint64_t EngineDiskTag(uint64_t block_id) const override {
    return inner_->EngineDiskTag(block_id);
  }

  vem::Status Sync() override {
    const uint64_t t0 = MonoNs();
    vem::Status s = inner_->Sync();
    const uint64_t ns = MonoNs() - t0;
    sync_ns_.fetch_add(ns, std::memory_order_relaxed);
    Attribute(ns);
    return s;
  }
  uint64_t wal_last_lsn() const override { return inner_->wal_last_lsn(); }
  vem::Status EnsureWalDurable(uint64_t lsn) override {
    return inner_->EnsureWalDurable(lsn);
  }

  uint64_t Allocate() override { return inner_->Allocate(); }
  void Free(uint64_t id) override { inner_->Free(id); }
  uint64_t num_allocated() const override { return inner_->num_allocated(); }

  void set_io_engine(vem::IoEngine* engine) override {
    inner_->set_io_engine(engine);
    BlockDevice::set_io_engine(engine);
  }
  void set_retry_policy(vem::RetryPolicy* retry) override {
    inner_->set_retry_policy(retry);
    BlockDevice::set_retry_policy(retry);
  }

 private:
  void Attribute(uint64_t ns) {
    if (std::this_thread::get_id() == caller_) {
      caller_ns_.fetch_add(ns, std::memory_order_relaxed);
    } else {
      worker_ns_.fetch_add(ns, std::memory_order_relaxed);
    }
  }

  /// Run an Account*-style call on the inner device and mirror the
  /// counter delta it produced into this decorator's stats_.
  template <typename F>
  void Mirror(F&& f) {
    const vem::IoStats before = inner_->stats();
    f();
    const vem::IoStats d = inner_->stats() - before;
    stats_.block_reads += d.block_reads;
    stats_.block_writes += d.block_writes;
    stats_.parallel_reads += d.parallel_reads;
    stats_.parallel_writes += d.parallel_writes;
    stats_.bytes_read += d.bytes_read;
    stats_.bytes_written += d.bytes_written;
  }

  template <typename F>
  vem::Status Transfer(bool write, const uint64_t* ids, size_t n, bool counted,
                       F&& f) {
    vem::Status s;
    const uint64_t t0 = MonoNs();
    if (counted) {
      Mirror([&] { s = f(); });
    } else {
      s = f();
    }
    const uint64_t t1 = MonoNs();
    (write ? write_calls_ : read_calls_).fetch_add(1, std::memory_order_relaxed);
    (write ? write_blocks_ : read_blocks_)
        .fetch_add(n, std::memory_order_relaxed);
    (write ? write_ns_ : read_ns_).fetch_add(t1 - t0, std::memory_order_relaxed);
    Attribute(t1 - t0);
    if (watching_) Watch(write, ids, n, t0);
    return s;
  }

  void Watch(bool write, const uint64_t* ids, size_t n, uint64_t t0) {
    std::lock_guard<std::mutex> lk(watch_mu_);
    if (write) {
      for (size_t i = 0; i < n; ++i) {
        if (ids[i] >= written_.size()) written_.resize(ids[i] + 1, 0);
        written_[ids[i]] = 1;
      }
      return;
    }
    if (first_read_of_written_ns_ != 0) return;
    for (size_t i = 0; i < n; ++i) {
      if (ids[i] < written_.size() && written_[ids[i]] != 0) {
        first_read_of_written_ns_ = t0;
        return;
      }
    }
  }

  vem::BlockDevice* inner_;
  const std::thread::id caller_;

  std::atomic<uint64_t> read_calls_{0}, write_calls_{0};
  std::atomic<uint64_t> read_blocks_{0}, write_blocks_{0};
  std::atomic<uint64_t> read_ns_{0}, write_ns_{0}, sync_ns_{0};
  std::atomic<uint64_t> caller_ns_{0}, worker_ns_{0};

  // Read-after-write watch (sort phase split). watching_ is set once on
  // the workload thread before the sort submits any engine job.
  std::atomic<bool> watching_{false};
  mutable std::mutex watch_mu_;
  std::vector<uint8_t> written_;  // guarded by watch_mu_
  uint64_t first_read_of_written_ns_ = 0;  // guarded by watch_mu_
};

}  // namespace perfbench
