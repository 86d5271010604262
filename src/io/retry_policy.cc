#include "io/retry_policy.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "io/block_device.h"
#include "io/io_engine.h"

namespace vem {

namespace {

// Errno spellings for messages tests can match on. Covers the codes the
// substrate's syscalls (pread/pwrite/fsync/io_uring_enter/mmap) actually
// produce; anything else falls back to strerror + the number.
const char* ErrnoName(int err) {
  switch (err) {
    case EIO: return "EIO";
    case EAGAIN: return "EAGAIN";
    case ENOMEM: return "ENOMEM";
    case ENOBUFS: return "ENOBUFS";
    case EBUSY: return "EBUSY";
    case EINTR: return "EINTR";
    case EINVAL: return "EINVAL";
    case EBADF: return "EBADF";
    case ENOSPC: return "ENOSPC";
    case EFBIG: return "EFBIG";
    case EFAULT: return "EFAULT";
    case EPERM: return "EPERM";
    case EACCES: return "EACCES";
    case ENOSYS: return "ENOSYS";
    case EOPNOTSUPP: return "EOPNOTSUPP";
    case ETIMEDOUT: return "ETIMEDOUT";
    default: return nullptr;
  }
}

bool ErrnoIsTransient(int err) {
  switch (err) {
    case EAGAIN:
#if EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case ENOMEM:
    case ENOBUFS:
    case EBUSY:
      return true;
    default:
      return false;
  }
}

// splitmix64: the jitter hash. A full-avalanche mix of (key, attempt) is
// all the "randomness" backoff needs, and being a pure function keeps
// fault-injection runs reproducible.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void DefaultSleepNs(uint64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

}  // namespace

Status StatusFromErrno(const char* op, int64_t offset, int err) {
  std::string msg(op);
  msg += " failed: ";
  if (const char* name = ErrnoName(err)) {
    msg += name;
    msg += " (";
    msg += std::strerror(err);
    msg += ")";
  } else {
    msg += std::strerror(err);
    msg += " (errno ";
    msg += std::to_string(err);
    msg += ")";
  }
  if (offset >= 0) {
    msg += " at offset ";
    msg += std::to_string(offset);
  }
  if (ErrnoIsTransient(err)) return Status::Unavailable(std::move(msg));
  return Status::IOError(std::move(msg));
}

RetryPolicy::RetryPolicy(Config cfg)
    : RetryPolicy(cfg, SteadyNowNs, DefaultSleepNs) {}

RetryPolicy::RetryPolicy(Config cfg, Clock clock, Sleeper sleeper)
    : cfg_(cfg), clock_(std::move(clock)), sleeper_(std::move(sleeper)) {}

uint64_t RetryPolicy::BackoffNs(uint64_t key, size_t attempt) const {
  if (attempt == 0) return 0;
  // cap = min(base << (attempt-1), max), without shift overflow.
  uint64_t cap_us = cfg_.base_us;
  for (size_t i = 1; i < attempt && cap_us < cfg_.max_us; ++i) {
    cap_us = cap_us > cfg_.max_us / 2 ? cfg_.max_us : cap_us * 2;
  }
  if (cap_us > cfg_.max_us) cap_us = cfg_.max_us;
  uint64_t cap_ns = cap_us * 1000;
  if (cap_ns == 0) return 0;
  // Deterministic jitter in [cap/2, cap): full jitter invites thundering
  // herds of near-zero sleeps; half-open-from-half keeps real spacing
  // while decorrelating concurrent retriers by key.
  uint64_t h = Mix64(key ^ Mix64(static_cast<uint64_t>(attempt)));
  uint64_t half = cap_ns / 2;
  return half + (half ? h % half : 0);
}

void RetryPolicy::OnRetry(uint64_t key, size_t attempt) {
  uint64_t ns = BackoffNs(key, attempt);
  if (ns > 0) {
    uint64_t t0 = clock_();
    sleeper_(ns);
    uint64_t t1 = clock_();
    retry_backoff_ns_.fetch_add(t1 >= t0 ? t1 - t0 : ns,
                                std::memory_order_relaxed);
  }
  retries_.fetch_add(1, std::memory_order_relaxed);
}

Status RetryPolicy::Run(uint64_t key, const std::function<Status()>& op,
                        const std::function<void(const Status&)>& on_fail) {
  Status s = op();
  for (size_t attempt = 1; !s.ok() && s.IsTransient() &&
                           attempt <= cfg_.retry_limit;
       ++attempt) {
    if (on_fail) on_fail(s);
    OnRetry(key, attempt);
    s = op();
  }
  if (!s.ok() && on_fail) on_fail(s);
  return s;
}

Status RunWithDiskRetry(RetryPolicy* policy, IoEngine* engine,
                        uint64_t disk_tag, uint64_t key,
                        const std::function<Status()>& op) {
  Status s;
  if (policy == nullptr) {
    s = op();
  } else {
    size_t fails = 0;
    s = policy->Run(key, op, [&](const Status& attempt) {
      ++fails;
      if (engine != nullptr) engine->ReportDiskResult(disk_tag, false, 0);
      (void)attempt;
    });
    // The final success after at least one failure is recovery evidence:
    // without it a head whose faults retries always absorb could only ever
    // accumulate failures and would stay quarantined forever.
    if (s.ok() && fails > 0 && engine != nullptr) {
      engine->ReportDiskResult(disk_tag, true, 0);
    }
  }
  // Fail-stop escalation: an IOError surviving the retry plane (or
  // arriving with no retry plane armed) is permanent-failure evidence —
  // latch the head's quarantine so redundancy/rebuild take over. Other
  // permanent codes (InvalidArgument, Corruption-of-content) indict the
  // request or the payload, not the head, and do not escalate.
  if (s.IsIOError() && engine != nullptr) {
    engine->ReportDiskFailStop(disk_tag);
  }
  return s;
}

}  // namespace vem
