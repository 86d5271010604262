// AdmissionController: queue or shed whole queries when tenant floors
// would oversubscribe the machine's M.
//
// The MemoryArbiter guarantees every registered tenant its min_floor —
// and therefore must REFUSE a registration whose floor no longer fits
// (sum of floors > M). Something has to absorb that refusal: letting
// every caller spin on RegisterTenant would melt the arbiter mutex and
// lose all fairness. The controller is that something — the serving
// plane's front door:
//
//  - Admit(name, priority, floor, deadline) tries to register the
//    tenant. If M has room, the caller gets an AdmissionTicket (an RAII
//    handle owning the TenantLease) immediately.
//  - If floors are oversubscribed, the caller waits in a strict FIFO
//    queue: only the HEAD of the queue retries registration as floors
//    free up (head-of-line blocking is the fairness guarantee — a
//    small-floor latecomer cannot starve a large-floor waiter).
//  - The queue is bounded: when max_queue callers are already waiting,
//    Admit sheds immediately with Status::Busy rather than growing an
//    unbounded convoy.
//  - Each waiter carries a deadline; a waiter that cannot be admitted
//    in time is shed with Status::Busy. Shedding whole queries at the
//    door is the serving-system move: a query that cannot get its floor
//    would otherwise run at a starvation slice and blow its latency
//    budget anyway, taking the machine's p99 with it.
//  - A floor larger than the machine M can never be admitted and is
//    refused with InvalidArgument up front, never queued.
//
// Stats() exposes an admission gauge (admitted / queued / shed-by-
// deadline / shed-queue-full / refused-impossible / currently active /
// currently waiting) — bench_serving reports shed rate from it.
//
// Threading: the controller has its own mutex; lock order is
// controller -> arbiter, never the reverse (the arbiter never calls
// out), so no cycle. Ticket release destroys the TenantLease FIRST
// (arbiter mutex only), then takes the controller mutex to wake the
// queue head. The clock is injectable (same shape as the arbiter's)
// so deadline tests run on a fake clock; waiting uses short real
// cv waits as a polling backstop, so a fake clock advanced by another
// thread is observed without a notify.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "io/memory_arbiter.h"
#include "util/status.h"

namespace vem {

class AdmissionController;

/// RAII admission: owns the TenantLease the controller granted. Build
/// an ExecutionContext from tenant() to run the admitted query;
/// destroying (or Release()-ing) the ticket frees the tenant's floor
/// and wakes the queue head. Movable, not copyable; a default-
/// constructed ticket is invalid.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  ~AdmissionTicket() { Release(); }
  AdmissionTicket(AdmissionTicket&& o) noexcept { *this = std::move(o); }
  AdmissionTicket& operator=(AdmissionTicket&& o) noexcept {
    if (this == &o) return *this;
    Release();
    ctrl_ = o.ctrl_;
    tenant_ = std::move(o.tenant_);
    o.ctrl_ = nullptr;
    return *this;
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  bool valid() const { return ctrl_ != nullptr; }
  /// The admitted tenant (floor + priority registered); never null on a
  /// valid ticket. Hand it to an ExecutionContext — ownership can be
  /// transferred out with TakeTenant().
  TenantLease* tenant() const { return tenant_.get(); }
  /// Transfer the TenantLease out (e.g. into an ExecutionContext). The
  /// ticket stays "valid" for accounting: its Release still decrements
  /// the controller's active count — destroy the context (which frees
  /// the floor) BEFORE the ticket so the queue head wakes to real room.
  std::unique_ptr<TenantLease> TakeTenant() { return std::move(tenant_); }

  /// Free the floor and wake the admission queue. Idempotent.
  void Release();

 private:
  friend class AdmissionController;
  AdmissionTicket(AdmissionController* ctrl,
                  std::unique_ptr<TenantLease> tenant)
      : ctrl_(ctrl), tenant_(std::move(tenant)) {}

  AdmissionController* ctrl_ = nullptr;
  std::unique_ptr<TenantLease> tenant_;
};

/// Front door for a shared-arbiter serving plane; see file comment.
class AdmissionController {
 public:
  struct Config {
    /// Waiters beyond this are shed immediately (Busy). 0 = no queue:
    /// every oversubscribed admission sheds at once.
    size_t max_queue = 64;
    /// Default admission deadline in nanoseconds for Admit calls that
    /// pass deadline_ns = 0. 0 here = wait indefinitely.
    uint64_t default_deadline_ns = 0;
  };

  struct Stats {
    uint64_t admitted = 0;        ///< tickets granted
    uint64_t queued = 0;          ///< admissions that had to wait first
    uint64_t shed_deadline = 0;   ///< waiters shed at their deadline
    uint64_t shed_queue_full = 0; ///< shed immediately: queue at bound
    uint64_t refused_impossible = 0;  ///< floor > machine M, never queued
    size_t active = 0;            ///< tickets currently outstanding
    size_t waiting = 0;           ///< callers currently queued
  };

  /// `arbiter` is the machine plane admissions register against; must
  /// outlive the controller (and every ticket). `clock` pins deadlines
  /// in tests (defaults to the arbiter's clock).
  explicit AdmissionController(MemoryArbiter* arbiter);
  AdmissionController(MemoryArbiter* arbiter, Config cfg,
                      Clock clock = nullptr);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admit a query as tenant `name` with proportional-share weight
  /// `priority` and a guaranteed floor of `min_floor_blocks`. Blocks in
  /// FIFO order while floors are oversubscribed, up to the deadline
  /// (`deadline_ns` relative to now; 0 uses the config default).
  /// Returns OK with *out holding the ticket; Busy when shed (queue
  /// full or deadline); InvalidArgument when the floor can never fit.
  Status Admit(const std::string& name, double priority,
               size_t min_floor_blocks, uint64_t deadline_ns,
               AdmissionTicket* out);

  /// Non-blocking Admit: OK only if the tenant registers right now with
  /// no one ahead in the queue; Busy otherwise.
  Status TryAdmit(const std::string& name, double priority,
                  size_t min_floor_blocks, AdmissionTicket* out);

  Stats stats() const;
  MemoryArbiter* arbiter() { return arbiter_; }

 private:
  friend class AdmissionTicket;
  void OnTicketRelease();

  MemoryArbiter* arbiter_;
  Config cfg_;
  Clock clock_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<uint64_t> queue_;  // waiter seq numbers, FIFO
  uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace vem
