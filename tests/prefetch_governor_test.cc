// PrefetchGovernor unit tests: budget exhaustion and the grow / shrink /
// disarm policy, deterministic under a fake clock (the governor's only
// time source is injected, so stall detection is driven exactly).
// Also covers the external PQ's governor-less staging cap.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "io/io_engine.h"
#include "io/memory_block_device.h"
#include "io/prefetch_governor.h"
#include "search/external_pq.h"
#include "util/options.h"
#include "util/random.h"

namespace vem {
namespace {

/// Deterministic clock: tests advance it by hand.
struct FakeClock {
  std::atomic<uint64_t> now_ns{0};
  PrefetchGovernor::Clock fn() {
    return [this] { return now_ns.load(); };
  }
};

PrefetchGovernor::Config TestConfig() {
  PrefetchGovernor::Config cfg;
  cfg.budget_blocks = 64;
  cfg.min_depth = 2;
  cfg.max_depth = 16;
  cfg.initial_depth = 16;  // grant requests up front; the start-small
                           // policy has its own test below
  cfg.adapt_windows = 4;
  cfg.stall_floor_ns = 1000;
  cfg.waste_disarm_ewma = 0.5;
  cfg.probe_every = 3;
  return cfg;
}

TEST(PrefetchGovernor, FreshArmsStartConservativeAndEarnDepth) {
  FakeClock clk;
  auto cfg = TestConfig();
  cfg.initial_depth = 4;
  PrefetchGovernor gov(cfg, clk.fn());
  auto lease = gov.Arm(16);  // asks deep, starts shallow
  ASSERT_EQ(lease->depth(), 4u);
  // Stall evidence doubles depth past the initial cap up to the request.
  for (int period = 0; period < 2; ++period) {
    for (int w = 0; w < 4; ++w) {
      uint64_t t0 = lease->BeginWait();
      clk.now_ns += 5000;
      lease->EndWait(t0);
      lease->ReportWindow(lease->depth(), 0);
    }
  }
  EXPECT_EQ(lease->depth(), 16u);
}

TEST(PrefetchGovernor, GrantsClampedToDepthBounds) {
  FakeClock clk;
  PrefetchGovernor gov(TestConfig(), clk.fn());
  auto tiny = gov.Arm(1);   // below min_depth: raised to the floor
  EXPECT_EQ(tiny->depth(), 2u);
  auto huge = gov.Arm(100);  // above max_depth: clamped to the ceiling
  EXPECT_EQ(huge->depth(), 16u);
  EXPECT_EQ(gov.staged_blocks(), 2 * 2u + 2 * 16u);
}

TEST(PrefetchGovernor, BudgetExhaustionRefusesThenRecovers) {
  FakeClock clk;
  auto cfg = TestConfig();
  cfg.budget_blocks = 16;  // room for two depth-4 streams (2*4 each)
  PrefetchGovernor gov(cfg, clk.fn());

  auto a = gov.Arm(4);
  auto b = gov.Arm(4);
  EXPECT_EQ(a->depth(), 4u);
  EXPECT_EQ(b->depth(), 4u);
  EXPECT_EQ(gov.staged_blocks(), 16u);

  auto c = gov.Arm(4);  // budget exhausted: refused, runs synchronous
  EXPECT_EQ(c->depth(), 0u);
  EXPECT_FALSE(c->armed());
  EXPECT_EQ(gov.arms_refused(), 1u);

  a.reset();  // hand 8 blocks back
  EXPECT_EQ(gov.staged_blocks(), 8u);
  auto d = gov.Arm(4);
  EXPECT_EQ(d->depth(), 4u);
  EXPECT_EQ(gov.arms_granted(), 3u);
}

TEST(PrefetchGovernor, PartialGrantWhenHeadroomIsTight) {
  FakeClock clk;
  auto cfg = TestConfig();
  cfg.budget_blocks = 12;
  PrefetchGovernor gov(cfg, clk.fn());
  auto a = gov.Arm(4);  // stages 8, headroom 4 left
  ASSERT_EQ(a->depth(), 4u);
  auto b = gov.Arm(4);  // only 2 fits (2*2 <= 4): partial grant
  EXPECT_EQ(b->depth(), 2u);
  EXPECT_EQ(gov.staged_blocks(), 12u);
}

/// Scripted depth gauge: tests pin each route's headroom by hand.
struct FakeGauge : public DepthGauge {
  double headroom = 1.0;
  std::map<uint64_t, double> per_route;
  double RouteHeadroom(uint64_t route) const override {
    auto it = per_route.find(route);
    return it != per_route.end() ? it->second : headroom;
  }
};

TEST(PrefetchGovernor, ArmGrantsScaleWithRouteHeadroom) {
  FakeClock clk;
  FakeGauge gauge;
  auto cfg = TestConfig();
  cfg.budget_blocks = 256;  // ample: only the gauge shapes these grants
  PrefetchGovernor gov(cfg, clk.fn());
  gov.AttachGauge(&gauge);

  gauge.headroom = 1.0;  // idle engine: the full request
  auto full = gov.Arm(16);
  EXPECT_EQ(full->depth(), 16u);

  gauge.headroom = 0.5;  // half the submission headroom, half the grant
  auto half = gov.Arm(16);
  EXPECT_EQ(half->depth(), 8u);

  gauge.headroom = 0.0;  // saturated: floor, never refuse a fresh stream
  auto floored = gov.Arm(16);
  EXPECT_EQ(floored->depth(), 2u);

  // Per-route: one congested disk shapes only its own streams.
  gauge.headroom = 1.0;
  gauge.per_route[3] = 0.25;
  auto congested = gov.Arm(16, /*route=*/3);
  EXPECT_EQ(congested->depth(), 4u);
  auto other = gov.Arm(16, /*route=*/4);
  EXPECT_EQ(other->depth(), 16u);
}

TEST(PrefetchGovernor, DepthGrowsScaleWithRouteHeadroom) {
  FakeClock clk;
  FakeGauge gauge;
  PrefetchGovernor gov(TestConfig(), clk.fn());
  gov.AttachGauge(&gauge);
  auto grower = gov.Arm(4);
  ASSERT_EQ(grower->depth(), 4u);

  // Stalled period under half headroom: the doubling (4 -> 8) is shaped
  // to half its growth (4 -> 6).
  gauge.headroom = 0.5;
  for (int w = 0; w < 4; ++w) {
    uint64_t t0 = grower->BeginWait();
    clk.now_ns += 5000;
    grower->EndWait(t0);
    grower->ReportWindow(/*consumed=*/4, /*unused=*/0);
  }
  EXPECT_EQ(grower->depth(), 6u);
  EXPECT_EQ(gov.grow_decisions(), 1u);

  // Zero headroom: the grow is held outright and counted.
  gauge.headroom = 0.0;
  uint64_t skips_before = gov.saturation_skips();
  for (int w = 0; w < 4; ++w) {
    uint64_t t0 = grower->BeginWait();
    clk.now_ns += 5000;
    grower->EndWait(t0);
    grower->ReportWindow(/*consumed=*/6, /*unused=*/0);
  }
  EXPECT_EQ(grower->depth(), 6u);
  EXPECT_GT(gov.saturation_skips(), skips_before);

  // Headroom restored: the next stalled period grows again in full.
  gauge.headroom = 1.0;
  for (int w = 0; w < 4; ++w) {
    uint64_t t0 = grower->BeginWait();
    clk.now_ns += 5000;
    grower->EndWait(t0);
    grower->ReportWindow(/*consumed=*/6, /*unused=*/0);
  }
  EXPECT_EQ(grower->depth(), 12u);
}

TEST(PrefetchGovernor, GrowsOnConsumerStalls) {
  FakeClock clk;
  PrefetchGovernor gov(TestConfig(), clk.fn());
  auto lease = gov.Arm(4);
  ASSERT_EQ(lease->depth(), 4u);

  // Four windows, each with a wait longer than the stall floor: the
  // consumer keeps outrunning the fill, so depth doubles.
  for (int w = 0; w < 4; ++w) {
    uint64_t t0 = lease->BeginWait();
    clk.now_ns += 5000;  // > stall_floor_ns
    lease->EndWait(t0);
    lease->ReportWindow(/*consumed=*/4, /*unused=*/0);
  }
  EXPECT_EQ(lease->depth(), 8u);
  EXPECT_EQ(gov.grow_decisions(), 1u);
  EXPECT_EQ(gov.staged_blocks(), 16u);

  // Another stalled period: grows to the max_depth ceiling.
  for (int w = 0; w < 4; ++w) {
    uint64_t t0 = lease->BeginWait();
    clk.now_ns += 5000;
    lease->EndWait(t0);
    lease->ReportWindow(8, 0);
  }
  EXPECT_EQ(lease->depth(), 16u);

  // Stalls but the ceiling is reached: depth stays put.
  for (int w = 0; w < 4; ++w) {
    uint64_t t0 = lease->BeginWait();
    clk.now_ns += 5000;
    lease->EndWait(t0);
    lease->ReportWindow(16, 0);
  }
  EXPECT_EQ(lease->depth(), 16u);
}

TEST(PrefetchGovernor, SubFloorWaitsAreNotStalls) {
  FakeClock clk;
  PrefetchGovernor gov(TestConfig(), clk.fn());
  auto lease = gov.Arm(4);
  for (int w = 0; w < 8; ++w) {
    uint64_t t0 = lease->BeginWait();
    clk.now_ns += 100;  // well under the 1000ns floor
    lease->EndWait(t0);
    lease->ReportWindow(4, 0);
  }
  // Healthy stream, no budget pressure: depth untouched.
  EXPECT_EQ(lease->depth(), 4u);
  EXPECT_EQ(gov.grow_decisions(), 0u);
  EXPECT_EQ(gov.shrink_decisions(), 0u);
}

TEST(PrefetchGovernor, WastedStagingShrinksThenDisarms) {
  FakeClock clk;
  PrefetchGovernor gov(TestConfig(), clk.fn());
  auto lease = gov.Arm(4);
  ASSERT_EQ(lease->depth(), 4u);

  // Most staged blocks dropped unused: halve to the floor...
  for (int w = 0; w < 4; ++w) lease->ReportWindow(1, 3);
  EXPECT_EQ(lease->depth(), 2u);
  EXPECT_EQ(gov.shrink_decisions(), 1u);
  EXPECT_EQ(gov.staged_blocks(), 4u);

  // ...and a second wasteful period disarms and releases the budget.
  for (int w = 0; w < 4; ++w) lease->ReportWindow(0, 2);
  EXPECT_EQ(lease->depth(), 0u);
  EXPECT_FALSE(lease->armed());
  EXPECT_EQ(gov.disarm_decisions(), 1u);
  EXPECT_EQ(gov.staged_blocks(), 0u);
}

TEST(PrefetchGovernor, BudgetPressureShedsIdleDepth) {
  FakeClock clk;
  auto cfg = TestConfig();
  cfg.budget_blocks = 16;
  PrefetchGovernor gov(cfg, clk.fn());
  auto lease = gov.Arm(8);
  ASSERT_EQ(lease->depth(), 8u);
  ASSERT_EQ(gov.staged_blocks(), 16u);  // the whole budget

  // Never stalls while the budget is saturated: shed half, keep >= min.
  for (int w = 0; w < 4; ++w) lease->ReportWindow(8, 0);
  EXPECT_EQ(lease->depth(), 4u);
  EXPECT_EQ(gov.staged_blocks(), 8u);

  // Pressure is gone now (8 of 16 staged): depth holds.
  for (int w = 0; w < 4; ++w) lease->ReportWindow(4, 0);
  EXPECT_EQ(lease->depth(), 4u);
}

TEST(PrefetchGovernor, WasteHistoryRefusesFreshArmsWithProbe) {
  FakeClock clk;
  PrefetchGovernor gov(TestConfig(), clk.fn());
  {
    // A short-lived stream that threw all its staging away (the BFS
    // frontier shape); its close folds waste=1.0 into the EWMA.
    auto wasteful = gov.Arm(8);
    wasteful->ReportWindow(0, 8);
  }
  EXPECT_GT(gov.waste_ewma(), 0.5);

  // Fresh arms are refused while history says waste...
  auto a = gov.Arm(8);
  auto b = gov.Arm(8);
  EXPECT_EQ(a->depth(), 0u);
  EXPECT_EQ(b->depth(), 0u);
  // ...except every probe_every-th (3rd) one, granted min_depth so the
  // governor keeps sampling for a phase change.
  auto probe = gov.Arm(8);
  EXPECT_EQ(probe->depth(), 2u);

  // A healthy probe washes the history out and full grants resume.
  for (int w = 0; w < 8; ++w) probe->ReportWindow(2, 0);
  probe.reset();
  EXPECT_LT(gov.waste_ewma(), 0.5);
  auto back = gov.Arm(8);
  EXPECT_EQ(back->depth(), 8u);
}

TEST(PrefetchGovernor, EngineAdvisoryFollowsStallEvidence) {
  FakeClock clk;
  auto cfg = TestConfig();
  cfg.engine_off_periods = 2;
  PrefetchGovernor gov(cfg, clk.fn());
  auto lease = gov.Arm(4);
  EXPECT_TRUE(lease->use_engine());

  // Two clean periods: background fills are pure overhead, go inline.
  for (int w = 0; w < 8; ++w) lease->ReportWindow(4, 0);
  EXPECT_FALSE(lease->use_engine());

  // One stalled period (e.g. an inline fill ran at device latency, 4
  // blocks each over the per-block floor): engine back on immediately.
  for (int w = 0; w < 4; ++w) {
    uint64_t t0 = lease->BeginWait();
    clk.now_ns += 4 * 5000;
    lease->EndWait(t0, /*blocks=*/4);
    lease->ReportWindow(4, 0);
  }
  EXPECT_TRUE(lease->use_engine());

  // Per-block scaling: the same total wait spread over many blocks is a
  // cheap inline fill, not a stall.
  for (int w = 0; w < 8; ++w) {
    uint64_t t0 = lease->BeginWait();
    clk.now_ns += 4 * 500;  // 500ns/block, under the 1000ns floor
    lease->EndWait(t0, /*blocks=*/4);
    lease->ReportWindow(4, 0);
  }
  EXPECT_FALSE(lease->use_engine());
}

TEST(PrefetchGovernor, ConfigFromOptionsDerivesBudgetAgainstM) {
  Options opts;
  opts.block_size = 4096;
  opts.memory_budget = 1u << 20;  // 1 MiB
  auto cfg = PrefetchGovernor::ConfigFromOptions(opts);
  EXPECT_EQ(cfg.budget_blocks, (1u << 19) / 4096);  // M/2 in blocks
  EXPECT_EQ(cfg.max_depth, cfg.budget_blocks / 4);  // <= half the budget armed
}

// ------------------------------------------- PQ staging cap (no governor)

TEST(PrefetchGovernor, ExternalPqBoundsStagingWithoutGovernor) {
  MemoryBlockDevice dev(256);
  // Depth 4 requests 2*4 = 8 staged blocks per run.
  ExternalPriorityQueue<uint64_t> pq(
      &dev, Options{.memory_budget = 4096, .prefetch_depth = 4});
  Rng rng(99);
  for (size_t i = 0; i < 30000; ++i) {
    ASSERT_TRUE(pq.Push(rng.Next()).ok());
    // Invariant at every step: armed staging never exceeds the budget,
    // no matter how many runs are live.
    ASSERT_LE(pq.armed_staging_blocks(), pq.staging_budget_blocks());
  }
  EXPECT_GT(pq.spills(), 0u);
  uint64_t prev = 0, v = 0;
  bool first = true;
  while (!pq.empty()) {
    ASSERT_TRUE(pq.Pop(&v).ok());
    ASSERT_LE(pq.armed_staging_blocks(), pq.staging_budget_blocks());
    if (!first) {
      ASSERT_GE(v, prev);
    }
    prev = v;
    first = false;
  }
}

}  // namespace
}  // namespace vem
