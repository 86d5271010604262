// RetryPolicy: bounded exponential backoff for transient I/O faults.
//
// The fault-tolerance discipline (RocksDB-style, named in faulty_device.h)
// is: classify every failure, retry what is transient, propagate what is
// permanent. Status::IsTransient() is the classifier; this class is the
// retry loop. It is deliberately dumb about WHAT it retries — callers
// hand it a closure at a granularity where a failed attempt has charged
// nothing to the logical IoStats planes (a single block, one syscall
// resume point, one uncounted engine job), so re-running the closure
// cannot double-charge and the standing two-plane invariant extends to:
// logical IoStats are bit-identical fault or no fault.
//
// What retries DO cost is physical: attempts and backoff time. Those ride
// their own gauge (retries() / retry_backoff_ns()), exactly like the
// engine's ewma_service_ns — observability, not accounting.
//
// Determinism: backoff jitter is a pure hash of (key, attempt), not a
// PRNG draw — the same failing operation backs off identically across
// runs, so fault-injection tests are reproducible. The clock and sleeper
// are injectable for zero-wall-clock tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "util/status.h"

namespace vem {

/// Translate a failed syscall into a Status carrying the errno name and
/// file offset, classified by the transient/permanent taxonomy:
/// EAGAIN/EWOULDBLOCK/ENOMEM/ENOBUFS/EBUSY -> Status::Unavailable
/// (retryable), everything else -> Status::IOError (permanent).
/// `op` names the syscall ("pread", "io_uring_enter", ...); offset < 0
/// omits the offset clause (not every failure has one).
Status StatusFromErrno(const char* op, int64_t offset, int err);

/// Bounded exponential backoff with deterministic jitter.
///
/// Thread-safe: Run() may be called concurrently from engine workers and
/// the owning thread; the gauge counters are atomic and the config is
/// immutable after construction.
class RetryPolicy {
 public:
  /// The one way to arm retries: build a RetryPolicy from a Config and
  /// hand it to a device's or engine's set_retry_policy(). Unarmed,
  /// every path runs each transfer once.
  struct Config {
    /// Maximum retries (attempts - 1). 0 disables retrying: Run()
    /// executes the closure exactly once and returns its Status.
    size_t retry_limit = 0;
    /// First backoff cap in microseconds; doubles per retry.
    uint64_t base_us = 100;
    /// Upper bound on any single backoff cap, microseconds.
    uint64_t max_us = 20000;
  };

  /// Monotonic nanosecond clock; injectable so tests advance time by
  /// hand. The default reads std::chrono::steady_clock.
  using Clock = std::function<uint64_t()>;
  /// Sleeper(ns): how to spend a backoff. The default nanosleeps; tests
  /// substitute a recorder so suites stay fast.
  using Sleeper = std::function<void(uint64_t)>;

  explicit RetryPolicy(Config cfg);
  RetryPolicy(Config cfg, Clock clock, Sleeper sleeper);

  /// Execute `op` until it returns OK, a non-transient Status, or the
  /// retry limit is exhausted (the last transient Status propagates).
  /// `key` seeds the jitter hash — use something stable per operation
  /// (block id, device pointer) so a given failing op backs off
  /// identically across runs. `on_fail`, when non-null, observes every
  /// failed attempt (transient or not) before any backoff — the hook
  /// devices use to feed per-disk health evidence to the IoEngine even
  /// when the retry ultimately succeeds.
  Status Run(uint64_t key, const std::function<Status()>& op,
             const std::function<void(const Status&)>& on_fail = nullptr);

  /// Record one retry on the gauge and spend its backoff — for callers
  /// that own their resume loop instead of handing Run() a closure
  /// (FileBlockDevice's result rule resubmits a transiently failed op
  /// from its resume offset, on syscalls and on the ring alike).
  void OnRetry(uint64_t key, size_t attempt);

  /// Backoff delay for retry number `attempt` (1-based), in nanoseconds:
  /// a deterministic jittered point in [cap/2, cap) where cap =
  /// min(base_us << (attempt-1), max_us). Exposed for tests and for the
  /// watchdog's deadline reasoning.
  uint64_t BackoffNs(uint64_t key, size_t attempt) const;

  // Physical gauge (not IoStats): total retry attempts that ran, and
  // total nanoseconds spent backing off.
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  uint64_t retry_backoff_ns() const {
    return retry_backoff_ns_.load(std::memory_order_relaxed);
  }

  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  Clock clock_;
  Sleeper sleeper_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> retry_backoff_ns_{0};
};

}  // namespace vem
