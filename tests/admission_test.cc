// AdmissionController tests: the serving plane's front door pinned
// deterministically — FIFO head-of-line fairness, deadline shedding to
// Status::Busy, refusal of impossible floors, the bounded queue, and
// floor conservation under multi-threaded admission churn (the case the
// TSan matrix runs).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "io/memory_arbiter.h"
#include "serve/admission.h"
#include "util/random.h"

namespace vem {
namespace {

/// Deterministic clock: tests advance it by hand.
struct FakeClock {
  std::atomic<uint64_t> now_ns{0};
  Clock fn() {
    return [this] { return now_ns.load(); };
  }
};

MemoryArbiter::Config ServeConfig() {
  MemoryArbiter::Config cfg;
  cfg.budget_bytes = 64 * 4096;  // 64 blocks of machine M
  cfg.block_size = 4096;
  return cfg;
}

TEST(Admission, AdmitsUntilFloorsFillM) {
  FakeClock clk;
  MemoryArbiter arb(ServeConfig(), clk.fn());
  AdmissionController ctrl(&arb, AdmissionController::Config(), clk.fn());

  AdmissionTicket t1, t2, t3;
  ASSERT_TRUE(ctrl.TryAdmit("q1", 1.0, 24, &t1).ok());
  ASSERT_TRUE(ctrl.TryAdmit("q2", 1.0, 24, &t2).ok());
  EXPECT_EQ(arb.floor_reserved_blocks(), 48u);
  // A third 24-block floor would oversubscribe 64: shed, not admitted.
  Status s = ctrl.TryAdmit("q3", 1.0, 24, &t3);
  EXPECT_TRUE(s.IsBusy());
  EXPECT_FALSE(t3.valid());
  // Releasing a ticket frees its floor; the same admission now fits.
  t1.Release();
  EXPECT_EQ(arb.floor_reserved_blocks(), 24u);
  ASSERT_TRUE(ctrl.TryAdmit("q3", 1.0, 24, &t3).ok());

  auto st = ctrl.stats();
  EXPECT_EQ(st.admitted, 3u);
  EXPECT_EQ(st.active, 2u);  // t1 released
  EXPECT_EQ(st.shed_queue_full, 1u);
}

TEST(Admission, ImpossibleFloorIsRefusedNotQueued) {
  FakeClock clk;
  MemoryArbiter arb(ServeConfig(), clk.fn());
  AdmissionController ctrl(&arb, AdmissionController::Config(), clk.fn());
  AdmissionTicket t;
  // A floor larger than the whole machine can never be admitted: refuse
  // with InvalidArgument up front instead of parking the caller forever.
  Status s = ctrl.Admit("whale", 1.0, 65, /*deadline_ns=*/0, &t);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(ctrl.stats().refused_impossible, 1u);
  EXPECT_EQ(ctrl.stats().waiting, 0u);
}

TEST(Admission, DeadlineShedReturnsBusy) {
  FakeClock clk;
  MemoryArbiter arb(ServeConfig(), clk.fn());
  AdmissionController ctrl(&arb, AdmissionController::Config(), clk.fn());

  AdmissionTicket whole;
  ASSERT_TRUE(ctrl.TryAdmit("holder", 1.0, 64, &whole).ok());

  // A waiter with a 1us deadline against a full machine: the admission
  // loop observes the advanced fake clock on its polling backstop and
  // sheds with Busy — the query never ran, so it never burned I/O.
  Status result = Status::OK();
  std::thread waiter([&] {
    AdmissionTicket t;
    result = ctrl.Admit("late", 1.0, 8, /*deadline_ns=*/1000, &t);
  });
  while (ctrl.stats().waiting == 0) std::this_thread::yield();
  clk.now_ns += 2000;  // past the deadline
  waiter.join();
  EXPECT_TRUE(result.IsBusy());
  auto st = ctrl.stats();
  EXPECT_EQ(st.shed_deadline, 1u);
  EXPECT_EQ(st.waiting, 0u);
  EXPECT_EQ(st.admitted, 1u);  // only the holder
}

TEST(Admission, QueueIsFifoHeadOfLine) {
  FakeClock clk;
  MemoryArbiter arb(ServeConfig(), clk.fn());
  AdmissionController ctrl(&arb, AdmissionController::Config(), clk.fn());

  AdmissionTicket big;
  ASSERT_TRUE(ctrl.TryAdmit("big", 1.0, 56, &big).ok());

  // A needs 48 blocks (blocked: 56 + 48 > 64). B needs 8 and WOULD fit
  // right now — but FIFO head-of-line blocking makes it wait behind A,
  // or a stream of small queries would starve the large waiter forever.
  std::thread ta([&] {
    AdmissionTicket t;
    ASSERT_TRUE(ctrl.Admit("a", 1.0, 48, 0, &t).ok());
  });
  while (ctrl.stats().waiting < 1) std::this_thread::yield();
  // The grant order is decided inside the controller; the order in which
  // the two threads return from Admit is not. A granted ahead of B means
  // the admitted count already includes A when B's Admit returns.
  uint64_t admitted_when_b = 0;
  std::thread tb([&] {
    AdmissionTicket t;
    ASSERT_TRUE(ctrl.Admit("b", 1.0, 8, 0, &t).ok());
    admitted_when_b = ctrl.stats().admitted;
  });
  while (ctrl.stats().waiting < 2) std::this_thread::yield();
  // B fits behind big (56+8 = 64) but must not jump the queue.
  EXPECT_EQ(ctrl.stats().admitted, 1u);
  big.Release();  // 48 free: A admits first, then B behind it
  ta.join();
  tb.join();
  EXPECT_EQ(admitted_when_b, 3u);  // big, then A, then B
  EXPECT_EQ(ctrl.stats().admitted, 3u);
  EXPECT_EQ(ctrl.stats().queued, 2u);
}

TEST(Admission, BoundedQueueShedsImmediately) {
  FakeClock clk;
  MemoryArbiter arb(ServeConfig(), clk.fn());
  AdmissionController::Config cfg;
  cfg.max_queue = 1;
  AdmissionController ctrl(&arb, cfg, clk.fn());

  AdmissionTicket big;
  ASSERT_TRUE(ctrl.TryAdmit("big", 1.0, 64, &big).ok());
  std::thread waiter([&] {
    AdmissionTicket t;
    ASSERT_TRUE(ctrl.Admit("queued", 1.0, 8, 0, &t).ok());
  });
  while (ctrl.stats().waiting < 1) std::this_thread::yield();
  // The queue is at its bound: the next admission sheds at the door.
  AdmissionTicket t;
  EXPECT_TRUE(ctrl.Admit("overflow", 1.0, 8, 0, &t).IsBusy());
  EXPECT_EQ(ctrl.stats().shed_queue_full, 1u);
  big.Release();
  waiter.join();
}

/// Multi-threaded churn (the TSan-matrix case): concurrent admits,
/// leases against admitted tenants, and releases must conserve both
/// ledgers — registered floors and charged blocks never exceed M.
TEST(Admission, FloorConservationUnderChurn) {
  MemoryArbiter arb(ServeConfig());  // real clock: genuine interleavings
  AdmissionController::Config cfg;
  cfg.max_queue = 16;
  AdmissionController ctrl(&arb, cfg);

  constexpr int kThreads = 6;
  constexpr int kIters = 40;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      Rng rng(100 + id);
      for (int i = 0; i < kIters && !failed.load(); ++i) {
        size_t floor = 4 + rng.Uniform(17);  // 4..20 blocks
        AdmissionTicket t;
        Status s = ctrl.Admit("churn" + std::to_string(id), 1.0, floor,
                              /*deadline_ns=*/50 * 1000 * 1000, &t);
        if (s.IsBusy()) continue;  // shed under contention: expected
        if (!s.ok()) {
          failed = true;
          break;
        }
        // Exercise the tenant: open and drop a pool lease against it.
        auto lease = arb.LeasePool(floor, t.tenant());
        if (arb.charged_blocks() > arb.total_blocks() ||
            arb.floor_reserved_blocks() > arb.total_blocks()) {
          failed = true;
        }
      }
    });
  }
  for (int probe = 0; probe < 200; ++probe) {
    // Sample the invariants from outside while the churn runs.
    ASSERT_LE(arb.floor_reserved_blocks(), arb.total_blocks());
    ASSERT_LE(arb.charged_blocks(), arb.total_blocks());
    std::this_thread::yield();
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(ctrl.stats().active, 0u);
  EXPECT_EQ(arb.floor_reserved_blocks(), 0u);
  EXPECT_EQ(arb.charged_blocks(), 0u);
}

}  // namespace
}  // namespace vem
