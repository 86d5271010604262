// MemoryArbiter unit tests: the lease policy pinned under a fake clock —
// grow and shed in both directions, pinned-floor respect, budget
// conservation (pool + staging charges never exceed M) — plus the
// system-level contract: IoStats stay bit-identical with the arbiter
// enabled, on a scan layer (governed streams), on a pool-backed
// structure (B+-tree through the lease-backed, ghost-charged pool) and
// on every ExecutionContext entry point of the algorithm layers.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ext_vector.h"
#include "core/relational.h"
#include "graph/graph.h"
#include "graph/sssp.h"
#include "io/memory_arbiter.h"
#include "io/memory_block_device.h"
#include "search/bplus_tree.h"
#include "search/ext_hash_table.h"
#include "serve/execution_context.h"
#include "sort/external_sort.h"
#include "sort/matrix.h"
#include "util/options.h"
#include "util/random.h"

namespace vem {
namespace {

/// Deterministic clock: tests advance it by hand.
struct FakeClock {
  std::atomic<uint64_t> now_ns{0};
  MemoryArbiter::Clock fn() {
    return [this] { return now_ns.load(); };
  }
};

MemoryArbiter::Config TestConfig() {
  MemoryArbiter::Config cfg;
  cfg.budget_bytes = 64 * 4096;  // 64 blocks
  cfg.block_size = 4096;
  cfg.min_pool_frames = 4;
  cfg.min_staging_blocks = 4;
  cfg.step_blocks = 8;
  cfg.window_accesses = 4;
  return cfg;
}

TEST(MemoryArbiter, LeasesAreClampedToOneBudget) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());
  EXPECT_EQ(arb.total_blocks(), 64u);
  auto pool = arb.LeasePool(40);
  EXPECT_EQ(pool->target_frames(), 40u);
  // Only 24 blocks remain for staging: the grant is clamped, never over.
  auto staging = arb.LeaseStaging(40);
  EXPECT_EQ(staging->target_blocks(), 24u);
  EXPECT_EQ(arb.charged_blocks(), 64u);
  EXPECT_EQ(arb.free_blocks(), 0u);
  // Dropping a lease returns its charge.
  pool.reset();
  EXPECT_EQ(arb.charged_blocks(), 24u);
}

TEST(MemoryArbiter, PoolGrowsOnMissEvidenceFromFreeHeadroom) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());
  auto pool = arb.LeasePool(16);  // 48 blocks free
  // A miss-heavy window: the working set does not fit, grow one step.
  size_t target = pool->ReportWindow(/*hits=*/0, /*misses=*/8, /*cold=*/0,
                                     /*pinned=*/0, /*actual=*/16);
  EXPECT_EQ(target, 24u);
  EXPECT_EQ(arb.pool_grows(), 1u);
  EXPECT_EQ(arb.charged_blocks(), 24u);
  // Hit-only windows decay the miss EWMA below the grow floor: growth
  // stops (the EWMA needs a few windows to wash out).
  size_t actual = target;
  for (int i = 0; i < 4; ++i) {
    actual = pool->ReportWindow(8, 0, 0, 0, actual);
  }
  size_t settled = actual;
  for (int i = 0; i < 4; ++i) {
    actual = pool->ReportWindow(8, 0, 0, 0, actual);
  }
  EXPECT_EQ(actual, settled);
  EXPECT_LE(arb.charged_blocks(), arb.total_blocks());
}

TEST(MemoryArbiter, StarvedPoolReclaimsWastefulStaging) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());
  auto pool = arb.LeasePool(16);
  auto staging = arb.LeaseStaging(48);  // M fully charged
  EXPECT_EQ(arb.free_blocks(), 0u);
  // Staging admits to throwing most of its windows away.
  staging->ReportUsage(/*staged=*/48, /*waste=*/0.8, /*stall=*/0.0);
  // Pool wants growth, no headroom: denied, and the wasteful staging
  // target is squeezed one step.
  size_t target = pool->ReportWindow(0, 8, 0, 0, 16);
  EXPECT_EQ(target, 16u);  // nothing free yet
  EXPECT_EQ(arb.denied_grows(), 1u);
  EXPECT_EQ(arb.staging_sheds(), 1u);
  EXPECT_EQ(staging->target_blocks(), 40u);
  // The governor sheds and reports: the charge follows the staging
  // actually held (one step per denied grow — the landed revocation
  // cleared the pressure, so no second step fires here).
  staging->ReportUsage(36, 0.8, 0.0);
  EXPECT_EQ(staging->target_blocks(), 40u);
  EXPECT_LE(arb.charged_blocks(), 64u);
  // With headroom freed, the pool's next miss-heavy window grows.
  target = pool->ReportWindow(0, 8, 0, 0, 16);
  EXPECT_EQ(target, 24u);
  EXPECT_EQ(arb.pool_grows(), 1u);
  EXPECT_LE(arb.charged_blocks(), 64u);
}

TEST(MemoryArbiter, StarvedStagingReclaimsColdPoolFrames) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());
  auto pool = arb.LeasePool(56);
  auto staging = arb.LeaseStaging(8);  // M fully charged
  // The pool reports it is mostly cold (valid unreferenced frames).
  pool->ReportWindow(/*hits=*/8, /*misses=*/0, /*cold=*/40, /*pinned=*/0,
                     /*actual=*/56);
  // Staging stalls and wants more: denied now, but the cold pool is
  // marked down one step.
  EXPECT_EQ(staging->RequestGrow(16), 0u);
  EXPECT_EQ(arb.pool_sheds(), 1u);
  EXPECT_EQ(pool->target_frames(), 48u);
  // The pool applies the lowered target at its next window and
  // confirms, freeing one step of headroom (the landed revocation
  // cleared the pressure — one step per denied grow).
  size_t target = pool->ReportWindow(8, 0, 40, 0, 56);
  EXPECT_EQ(target, 48u);
  pool->ConfirmFrames(48);
  EXPECT_LE(arb.charged_blocks(), 64u);
  // The stalled scans get that step immediately; the unmet remainder
  // of the request revokes the next step for the following period.
  EXPECT_EQ(staging->RequestGrow(16), 8u);
  EXPECT_EQ(staging->target_blocks(), 16u);
  EXPECT_EQ(pool->target_frames(), 40u);
  EXPECT_LE(arb.charged_blocks(), 64u);
}

TEST(MemoryArbiter, PinnedFloorIsNeverCrossed) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());
  auto pool = arb.LeasePool(16);
  auto staging = arb.LeaseStaging(48);
  // The pool is mostly cold, but 6 of its 16 frames are pinned: staging
  // pressure may revoke down to the pinned set and not one frame past.
  pool->ReportWindow(8, 0, /*cold=*/10, /*pinned=*/6, 16);
  EXPECT_EQ(staging->RequestGrow(8), 0u);
  EXPECT_EQ(pool->target_frames(), 8u);  // one 8-block step
  EXPECT_EQ(staging->RequestGrow(8), 0u);
  EXPECT_EQ(pool->target_frames(), 6u);  // clamped at the pins
  EXPECT_EQ(staging->RequestGrow(8), 0u);
  EXPECT_EQ(pool->target_frames(), 6u);  // floor holds
}

TEST(MemoryArbiter, RevocationsAreRateLimitedByTheClock) {
  FakeClock clk;
  auto cfg = TestConfig();
  cfg.min_revoke_gap_ns = 1000;
  MemoryArbiter arb(cfg, clk.fn());
  clk.now_ns = 10000;  // move past the initial window
  auto pool = arb.LeasePool(56);
  auto staging = arb.LeaseStaging(8);
  pool->ReportWindow(8, 0, 40, 0, 56);
  EXPECT_EQ(staging->RequestGrow(8), 0u);
  EXPECT_EQ(arb.pool_sheds(), 1u);
  // Same instant: the second revocation is suppressed.
  EXPECT_EQ(staging->RequestGrow(8), 0u);
  EXPECT_EQ(arb.pool_sheds(), 1u);
  // Past the gap it fires again.
  clk.now_ns += 2000;
  EXPECT_EQ(staging->RequestGrow(8), 0u);
  EXPECT_EQ(arb.pool_sheds(), 2u);
}

TEST(MemoryArbiter, RevokeThenGrowDoesNotLeakBudget) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());
  auto pool = arb.LeasePool(16);
  {
    auto staging = arb.LeaseStaging(48);  // M fully charged
    pool->ReportWindow(8, 0, /*cold=*/12, 0, 16);
    EXPECT_EQ(staging->RequestGrow(4), 0u);  // denied; revokes the pool
    EXPECT_EQ(pool->target_frames(), 8u);
  }  // staging lease released: 48 blocks free again
  // The pool never shed (still holds and is charged for 16 frames), so
  // growing the target back is an un-revoke: no fresh charge may be
  // drawn, and the global ledger must stay equal to the lease charges —
  // the regression was charged_blocks_ absorbing a grant the lease
  // charge never reflected, leaking budget on every revoke/grow cycle.
  size_t target = pool->ReportWindow(0, /*misses=*/8, 0, 0, 16);
  EXPECT_EQ(target, 16u);
  EXPECT_EQ(arb.charged_blocks(), 16u);
  pool.reset();
  EXPECT_EQ(arb.charged_blocks(), 0u);
  EXPECT_EQ(arb.free_blocks(), arb.total_blocks());
}

TEST(MemoryArbiter, BudgetConservationHoldsUnderChurn) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());
  auto pool = arb.LeasePool(24);
  auto staging = arb.LeaseStaging(24);
  Rng rng(7);
  size_t actual = 24;
  for (int step = 0; step < 200; ++step) {
    clk.now_ns += 100;
    switch (rng.Uniform(4)) {
      case 0: {
        size_t misses = rng.Uniform(8);
        size_t target = pool->ReportWindow(8 - misses, misses,
                                           rng.Uniform(actual), 0, actual);
        actual = target;  // the pool applies targets promptly here
        pool->ConfirmFrames(actual);
        break;
      }
      case 1:
        staging->RequestGrow(rng.Uniform(16));
        break;
      case 2:
        staging->ReportUsage(rng.Uniform(32),
                             double(rng.Uniform(100)) / 100.0,
                             double(rng.Uniform(100)) / 100.0);
        break;
      case 3:
        pool->ConfirmFrames(actual);
        break;
    }
    // The one invariant arbitration must never break.
    ASSERT_LE(arb.charged_blocks(), arb.total_blocks());
    ASSERT_GE(pool->target_frames(), 1u);
  }
}

// ------------------------------------------------------- multi-tenant plane

TEST(MemoryArbiterTenants, RegistrationRefusesOversubscribedFloors) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());
  auto a = arb.RegisterTenant("a", 1.0, 40);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arb.floor_reserved_blocks(), 40u);
  // 40 + 40 > 64: the guarantee cannot be honored, so it is refused.
  auto b = arb.RegisterTenant("b", 1.0, 40);
  EXPECT_EQ(b, nullptr);
  EXPECT_EQ(arb.floor_reserved_blocks(), 40u);
  // Dropping the handle releases the reservation.
  a.reset();
  EXPECT_EQ(arb.floor_reserved_blocks(), 0u);
  auto c = arb.RegisterTenant("c", 1.0, 40);
  EXPECT_NE(c, nullptr);
}

/// The victim-ordering fix: reclaim takes from the tenant furthest OVER
/// its proportional share, not from whoever happens to sit first in the
/// lease list — a late-arriving tenant below its share keeps its memory
/// while the over-share incumbent is squeezed.
TEST(MemoryArbiterTenants, ReclaimFollowsProportionalShareDeficit) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());
  auto ta = arb.RegisterTenant("incumbent");  // fair share: 32 each
  auto tb = arb.RegisterTenant("latecomer");
  auto staging_a = arb.LeaseStaging(40, ta.get());  // 8 over share
  auto staging_b = arb.LeaseStaging(16, tb.get());  // 16 under share
  auto pool_b = arb.LeasePool(8, tb.get());         // M fully charged
  ASSERT_EQ(arb.charged_blocks(), 64u);
  // BOTH stagings confess equal waste; only the deficit ordering can
  // tell them apart.
  staging_a->ReportUsage(40, /*waste=*/0.8, /*stall=*/0.0);
  staging_b->ReportUsage(16, /*waste=*/0.8, /*stall=*/0.0);
  // The latecomer's pool is starved: denied grow, revoke one step — from
  // the over-share incumbent, never from the under-share latecomer.
  pool_b->ReportWindow(0, 8, 0, 0, 8);
  EXPECT_EQ(arb.staging_sheds(), 1u);
  EXPECT_EQ(staging_a->target_blocks(), 32u);
  EXPECT_EQ(staging_b->target_blocks(), 16u);
}

TEST(MemoryArbiterTenants, FloorIsNeverCrossedByReclaim) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());
  auto ta = arb.RegisterTenant("a");
  auto tb = arb.RegisterTenant("b", 1.0, /*min_floor_blocks=*/16);
  auto staging_b = arb.LeaseStaging(16, tb.get());  // exactly at its floor
  auto staging_a = arb.LeaseStaging(8, ta.get());
  auto pool_a = arb.LeasePool(40, ta.get());  // M fully charged
  // b is wasteful AND over nothing — but it sits at its guaranteed
  // floor, so reclaim must take from a's own staging instead.
  staging_b->ReportUsage(16, 0.9, 0.0);
  staging_a->ReportUsage(8, 0.9, 0.0);
  pool_a->ReportWindow(0, 8, 0, 0, 40);
  EXPECT_EQ(staging_b->target_blocks(), 16u);  // floor held
  EXPECT_LT(staging_a->target_blocks(), 8u);   // the floorless side paid
}

/// Revocation rate limiting is per tenant: one thrashing tenant spending
/// its budget does not freeze reclaim against a different tenant.
TEST(MemoryArbiterTenants, RevocationRateLimitIsPerTenant) {
  FakeClock clk;
  auto cfg = TestConfig();
  cfg.min_revoke_gap_ns = 1000;
  MemoryArbiter arb(cfg, clk.fn());
  clk.now_ns = 10000;
  auto ta = arb.RegisterTenant("a");
  auto tb = arb.RegisterTenant("b");
  auto staging_a = arb.LeaseStaging(28, ta.get());
  auto staging_b = arb.LeaseStaging(28, tb.get());
  auto pool = arb.LeasePool(8);  // default tenant; M fully charged
  staging_a->ReportUsage(28, 0.9, 0.0);
  staging_b->ReportUsage(28, 0.9, 0.0);
  // First denied grow revokes from one tenant; the second, at the SAME
  // instant, revokes from the OTHER — its own limiter is untouched.
  pool->ReportWindow(0, 8, 0, 0, 8);
  EXPECT_EQ(arb.staging_sheds(), 1u);
  pool->ReportWindow(0, 8, 0, 0, 8);
  EXPECT_EQ(arb.staging_sheds(), 2u);
  size_t a_cut = 28u - staging_a->target_blocks();
  size_t b_cut = 28u - staging_b->target_blocks();
  EXPECT_EQ(a_cut, 8u);
  EXPECT_EQ(b_cut, 8u);
  // Both limiters now armed: a third revocation at this instant is
  // suppressed until the gap passes.
  pool->ReportWindow(0, 8, 0, 0, 8);
  EXPECT_EQ(arb.staging_sheds(), 2u);
  clk.now_ns += 2000;
  pool->ReportWindow(0, 8, 0, 0, 8);
  EXPECT_EQ(arb.staging_sheds(), 3u);
}

// ------------------------------------------- governor lease renegotiation

TEST(MemoryArbiter, GovernorRenegotiatesItsStagingLease) {
  FakeClock clk;
  MemoryArbiter arb(TestConfig(), clk.fn());

  PrefetchGovernor::Config gcfg;
  gcfg.budget_blocks = 16;
  gcfg.min_depth = 2;
  gcfg.max_depth = 16;
  gcfg.initial_depth = 16;
  gcfg.adapt_windows = 4;
  gcfg.stall_floor_ns = 1000;
  PrefetchGovernor gov(gcfg, clk.fn());
  gov.AttachArbiter(&arb);
  EXPECT_EQ(gov.budget_blocks(), 16u);
  EXPECT_EQ(arb.charged_blocks(), 16u);

  auto lease = gov.Arm(8);
  ASSERT_EQ(lease->depth(), 8u);  // stages 16 = the whole current budget
  // Stalled periods want depth 16, which the 16-block budget cannot
  // hold: the governor renegotiates and the arbiter grants from free M.
  for (int w = 0; w < 4; ++w) {
    uint64_t t0 = lease->BeginWait();
    clk.now_ns += 5000;
    lease->EndWait(t0);
    lease->ReportWindow(8, 0);
  }
  EXPECT_EQ(lease->depth(), 16u);
  EXPECT_EQ(gov.budget_blocks(), 32u);
  EXPECT_EQ(arb.staging_grows(), 1u);
  EXPECT_LE(arb.charged_blocks(), arb.total_blocks());

  // Revocation: the arbiter lowers the target; the governor adopts it at
  // the next decision boundary and pressure-sheds the oversized lease.
  auto cut = [&] {
    // Pool pressure + idle staging: squeeze one step per usage report.
    auto pool = arb.LeasePool(32);
    pool->ReportWindow(0, 8, 0, 0, 32);  // miss-heavy, no headroom
  };
  cut();
  size_t lowered = gov.budget_blocks();
  for (int w = 0; w < 4; ++w) lease->ReportWindow(16, 0);
  EXPECT_LE(gov.budget_blocks(), lowered);
}

// --------------------------------------------------- stats identity (PDM)

Options ArbiterOptions() {
  Options opts;
  opts.block_size = 4096;
  opts.memory_budget = 64 * 4096;
  return opts;
}

/// The B+-tree phase both identity tests run: 20,000 inserts, 4,000
/// probes (mostly misses) and a flush, through `pool`.
void BPlusTreePhase(BufferPool* pool) {
  BPlusTree<uint64_t, uint64_t> tree(pool);
  EXPECT_TRUE(tree.Init().ok());
  Rng rng(23);
  for (size_t i = 0; i < 20000; ++i) {
    EXPECT_TRUE(tree.Insert(rng.Next(), i).ok());
  }
  Rng probe(29);
  uint64_t v;
  for (size_t i = 0; i < 4000; ++i) {
    (void)tree.Get(probe.Next(), &v);  // mostly NotFound: fine
  }
  EXPECT_TRUE(pool->FlushAll().ok());
}

/// Scan layer: an armed, governed stream whose staging budget is an
/// arbiter lease must charge exactly what the synchronous scan charges.
/// The B+-tree phase first makes the arbiter shed staging to the pool,
/// so the scan runs on a moved (revoked) staging lease.
TEST(MemoryArbiterIdentity, GovernedScanMatchesSynchronousStats) {
  const size_t kItems = 64 * (4096 / sizeof(uint64_t));  // 64 blocks
  auto fill = [&](ExtVector<uint64_t>* vec, size_t depth) {
    typename ExtVector<uint64_t>::Writer w(vec, depth);
    Rng rng(11);
    for (size_t i = 0; i < kItems; ++i) {
      if (!w.Append(rng.Next())) return w.status();
    }
    return w.Finish();
  };
  // Synchronous baseline.
  MemoryBlockDevice sync_dev(4096);
  ExtVector<uint64_t> sync_vec(&sync_dev);
  ASSERT_TRUE(fill(&sync_vec, 0).ok());
  std::vector<uint64_t> sync_out;
  ASSERT_TRUE(sync_vec.ReadAll(&sync_out, 0).ok());
  for (size_t depth : {8, 32}) {
    SCOPED_TRACE(depth);
    // Arbitrated: governor attached by the context, streams lease depth.
    MemoryBlockDevice arb_dev(4096);
    ExecutionContext ctx(&arb_dev, ArbiterOptions());
    const size_t initial_budget = ctx.governor()->budget_blocks();
    BPlusTreePhase(ctx.pool());
    EXPECT_GT(ctx.arbiter()->staging_sheds(), 0u);
    IoProbe probe(arb_dev);
    ExtVector<uint64_t> arb_vec(&arb_dev);
    ASSERT_TRUE(fill(&arb_vec, depth).ok());
    std::vector<uint64_t> arb_out;
    ASSERT_TRUE(arb_vec.ReadAll(&arb_out, depth).ok());
    // The scan adopted the shed lease, or the identity is vacuous.
    EXPECT_LT(ctx.governor()->budget_blocks(), initial_budget);
    EXPECT_EQ(arb_out, sync_out);
    EXPECT_EQ(sync_dev.stats(), probe.delta());
  }
}

/// Pool-backed structure: a B+-tree through the arbitrated (resizable,
/// ghost-charged) pool must charge exactly what the fixed pool charges,
/// for builds, probes and flushes.
TEST(MemoryArbiterIdentity, BPlusTreeMatchesFixedPoolStats) {
  Options opts = ArbiterOptions();
  const size_t kBaselineFrames = 32;  // == the context's pool share of M
  auto run = [&](bool arbitrated) {
    MemoryBlockDevice dev(4096);
    std::unique_ptr<ExecutionContext> ctx;
    std::unique_ptr<BufferPool> fixed;
    BufferPool* pool;
    if (arbitrated) {
      ctx = std::make_unique<ExecutionContext>(&dev, opts);
      pool = ctx->pool();
      EXPECT_EQ(pool->baseline_frames(), kBaselineFrames);
    } else {
      fixed = std::make_unique<BufferPool>(&dev, kBaselineFrames);
      pool = fixed.get();
    }
    BPlusTreePhase(pool);
    if (arbitrated) {
      // The arbiter must actually move memory, or the identity is vacuous.
      EXPECT_GT(ctx->arbiter()->pool_grows(), 0u);
      EXPECT_GT(ctx->arbiter()->staging_sheds(), 0u);
    }
    return dev.stats();
  };
  IoStats fixed = run(false);
  IoStats arbitrated = run(true);
  EXPECT_EQ(fixed, arbitrated);
}

/// The serving-plane contract (run under TSan in CI): two tenants
/// hammering ONE shared arbiter concurrently charge exactly the logical
/// IoStats each charges when it runs alone on its own slice. One thread
/// per tenant serializes each tenant's own op sequence, so its ghost
/// charging is deterministic no matter who else shares the machine;
/// arbitration may move physical frames between tenants mid-run, but
/// never a single logical charge.
TEST(MemoryArbiterIdentity, MultiTenantStatsMatchSingleTenantRuns) {
  Options opts = ArbiterOptions();  // each tenant's 64-block slice
  const size_t kKeys = 20000;
  const size_t kScanItems = 16 * (4096 / sizeof(uint64_t));
  auto run_tenant = [&](ExecutionContext* ctx, uint64_t seed) {
    BPlusTree<uint64_t, uint64_t> tree(ctx);
    EXPECT_TRUE(tree.Init().ok());
    Rng rng(seed);
    for (size_t i = 0; i < kKeys; ++i) {
      EXPECT_TRUE(tree.Insert(rng.Next(), i).ok());
    }
    Rng probe(seed + 1);
    uint64_t v;
    for (size_t i = 0; i < 2000; ++i) {
      (void)tree.Get(probe.Next(), &v);
    }
    EXPECT_TRUE(ctx->pool()->FlushAll().ok());
    // A governed scan through the same context's staging side.
    ExtVector<uint64_t> vec(ctx->device());
    typename ExtVector<uint64_t>::Writer w(&vec, 4);
    Rng fill(seed + 2);
    for (size_t i = 0; i < kScanItems; ++i) {
      if (!w.Append(fill.Next())) break;
    }
    EXPECT_TRUE(w.Finish().ok());
    std::vector<uint64_t> out;
    EXPECT_TRUE(vec.ReadAll(&out, 4).ok());
  };
  // Baselines: each tenant alone, standalone context over its slice.
  IoStats base[2];
  for (int t = 0; t < 2; ++t) {
    MemoryBlockDevice dev(4096);
    ExecutionContext ctx(&dev, opts);
    run_tenant(&ctx, 101 + uint64_t(t) * 17);
    base[t] = dev.stats();
  }
  // Shared machine: one arbiter over 2x the memory, both tenants live.
  MemoryArbiter::Config mcfg;
  mcfg.budget_bytes = 2 * opts.memory_budget;
  mcfg.block_size = opts.block_size;
  mcfg.window_accesses = 8;
  MemoryArbiter machine(mcfg);
  MemoryBlockDevice dev0(4096), dev1(4096);
  MemoryBlockDevice* devs[2] = {&dev0, &dev1};
  std::unique_ptr<ExecutionContext> ctxs[2];
  for (int t = 0; t < 2; ++t) {
    auto tenant =
        machine.RegisterTenant("tenant" + std::to_string(t), 1.0, 8);
    ASSERT_NE(tenant, nullptr);
    ctxs[t] = std::make_unique<ExecutionContext>(devs[t], opts, &machine,
                                                 std::move(tenant));
  }
  std::thread t0([&] { run_tenant(ctxs[0].get(), 101); });
  std::thread t1([&] { run_tenant(ctxs[1].get(), 101 + 17); });
  t0.join();
  t1.join();
  EXPECT_LE(machine.charged_blocks(), machine.total_blocks());
  // Each tenant's tree outgrows its 32-frame pool share, so the shared
  // arbiter must move frames mid-run, or the identity is vacuous.
  EXPECT_GT(machine.pool_grows(), 0u);
  EXPECT_GT(machine.staging_sheds(), 0u);
  EXPECT_EQ(devs[0]->stats(), base[0]);
  EXPECT_EQ(devs[1]->stats(), base[1]);
}

/// Runs one entry point twice on fresh devices: through a standalone
/// context (`ctx` set, `pool` its lease-backed pool), then as the
/// reference without one (`ctx` null, `pool` a fixed pool of the
/// context's baseline frames). `body` returns its output; output and
/// logical IoStats must match.
template <typename Body>
void ExpectContextMatchesReference(const char* what, const Options& opts,
                                   Body body) {
  MemoryBlockDevice ctx_dev(opts.block_size);
  ExecutionContext ctx(&ctx_dev, opts);
  auto ctx_out = body(&ctx_dev, &ctx, ctx.pool());
  EXPECT_TRUE(ctx.pool()->FlushAll().ok()) << what;

  MemoryBlockDevice ref_dev(opts.block_size);
  BufferPool ref_pool(&ref_dev, ctx.pool()->baseline_frames());
  auto ref_out = body(&ref_dev, nullptr, &ref_pool);
  EXPECT_TRUE(ref_pool.FlushAll().ok()) << what;

  EXPECT_FALSE(ref_out.empty()) << what;
  EXPECT_TRUE(ctx_out == ref_out) << what;
  EXPECT_EQ(ctx_dev.stats(), ref_dev.stats()) << what;
}

struct KeyVal {
  uint64_t key;
  uint64_t val;
  bool operator==(const KeyVal&) const = default;
};

/// With the shim gone, the ExecutionContext overloads are the only
/// arbitrated wiring of the algorithm layers. Each must match the same
/// operations on a fixed pool (structures) or the (budget, depth)
/// overload with the same Options (sort and relational wrappers). Each
/// structure's working set outgrows the 32-frame baseline, so its
/// arbitrated pool grows mid-run while the charges stay the baseline's.
TEST(MemoryArbiterIdentity, ContextOverloadsMatchReferenceRuns) {
  Options opts = ArbiterOptions();
  opts.prefetch_depth = 4;

  ExpectContextMatchesReference(
      "ExtHashTable", opts,
      [](BlockDevice*, ExecutionContext* ctx, BufferPool* pool) {
        using Table = ExtHashTable<uint64_t, uint64_t>;
        auto table = ctx != nullptr ? std::make_unique<Table>(ctx)
                                    : std::make_unique<Table>(pool);
        EXPECT_TRUE(table->Init().ok());
        Rng rng(41);
        std::vector<uint64_t> keys;
        for (size_t i = 0; i < 20000; ++i) {
          keys.push_back(rng.Next());
          EXPECT_TRUE(table->Insert(keys.back(), i).ok());
        }
        std::vector<uint64_t> got;
        for (size_t i = 0; i < keys.size(); i += 7) {
          uint64_t v = 0;
          EXPECT_TRUE(table->Get(keys[i], &v).ok());
          got.push_back(v);
        }
        return got;
      });

  ExpectContextMatchesReference(
      "ExtMatrix", opts,
      [&](BlockDevice* dev, ExecutionContext* ctx, BufferPool* pool) {
        const size_t n = 256;  // 128 blocks per matrix
        auto make = [&] {
          return ctx != nullptr ? std::make_unique<ExtMatrix>(ctx, n, n)
                                : std::make_unique<ExtMatrix>(dev, n, n, pool);
        };
        auto in = make();
        auto out = make();
        std::vector<double> values(n * n);
        for (size_t i = 0; i < values.size(); ++i) values[i] = double(i);
        EXPECT_TRUE(in->Load(values.data()).ok());
        EXPECT_TRUE(TransposeNaive(*in, out.get()).ok());
        std::vector<double> got;
        EXPECT_TRUE(out->data().ReadAll(&got).ok());
        return got;
      });

  ExpectContextMatchesReference(
      "ExtGraph", opts,
      [&](BlockDevice* dev, ExecutionContext* ctx, BufferPool* pool) {
        const uint64_t n = 20000;  // offsets span 40 blocks
        Rng rng(43);
        std::vector<Edge> e;
        for (size_t i = 0; i < 2 * n; ++i) {
          e.push_back({rng.Uniform(n), rng.Uniform(n)});
        }
        ExtVector<Edge> arcs(dev);
        EXPECT_TRUE(arcs.AppendAll(e.data(), e.size()).ok());
        auto g = ctx != nullptr ? std::make_unique<ExtGraph>(ctx)
                                : std::make_unique<ExtGraph>(dev, pool);
        EXPECT_TRUE(g->Build(arcs, n, opts, true).ok());
        std::vector<uint64_t> got;
        Rng probe(44);
        for (size_t i = 0; i < 3000; ++i) {
          EXPECT_TRUE(g->Neighbors(probe.Uniform(n), &got).ok());
        }
        return got;
      });

  ExpectContextMatchesReference(
      "WeightedGraph+SemiExternalSssp", opts,
      [&](BlockDevice* dev, ExecutionContext* ctx, BufferPool* pool) {
        const uint64_t n = 20000;  // PQ traffic spills past M
        Rng rng(45);
        std::vector<WeightedEdge> e;
        for (size_t i = 0; i < 4 * n; ++i) {
          e.push_back({rng.Uniform(n), rng.Uniform(n), 1 + rng.Uniform(100)});
        }
        ExtVector<WeightedEdge> arcs(dev);
        EXPECT_TRUE(arcs.AppendAll(e.data(), e.size()).ok());
        auto g = ctx != nullptr ? std::make_unique<WeightedGraph>(ctx)
                                : std::make_unique<WeightedGraph>(dev, pool);
        EXPECT_TRUE(g->Build(arcs, n, opts).ok());
        auto sssp = ctx != nullptr
                        ? std::make_unique<SemiExternalSssp>(ctx)
                        : std::make_unique<SemiExternalSssp>(dev, pool, opts);
        ExtVector<uint64_t> dist(dev, pool);
        EXPECT_TRUE(sssp->Run(*g, 0, &dist).ok());
        std::vector<uint64_t> got;
        EXPECT_TRUE(dist.ReadAll(&got).ok());
        return got;
      });

  ExpectContextMatchesReference(
      "ExternalSort", opts,
      [&](BlockDevice* dev, ExecutionContext* ctx, BufferPool*) {
        Rng rng(46);
        std::vector<uint64_t> v(50000);  // ~98 blocks, M is 64
        for (auto& x : v) x = rng.Next();
        ExtVector<uint64_t> in(dev), out(dev);
        EXPECT_TRUE(in.AppendAll(v.data(), v.size()).ok());
        Status s =
            ExternalSort(in, &out, ctx != nullptr ? ctx->options() : opts);
        EXPECT_TRUE(s.ok()) << s.ToString();
        std::vector<uint64_t> got;
        EXPECT_TRUE(out.ReadAll(&got).ok());
        return got;
      });

  auto key = [](const KeyVal& r) { return r.key; };
  ExpectContextMatchesReference(
      "SortMergeJoin", opts,
      [&](BlockDevice* dev, ExecutionContext* ctx, BufferPool*) {
        Rng rng(47);
        std::vector<KeyVal> orders, custs;
        for (uint64_t i = 0; i < 20000; ++i) {
          orders.push_back({rng.Uniform(4000), i});
        }
        for (uint64_t c = 0; c < 2000; ++c) custs.push_back({c, c % 7});
        ExtVector<KeyVal> lv(dev), rv(dev), out(dev);
        EXPECT_TRUE(lv.AppendAll(orders.data(), orders.size()).ok());
        EXPECT_TRUE(rv.AppendAll(custs.data(), custs.size()).ok());
        auto combine = [](const KeyVal& l, const KeyVal& r) {
          return KeyVal{l.val, r.val};
        };
        Status s = SortMergeJoin<KeyVal, KeyVal, KeyVal, uint64_t>(
            lv, rv, &out, ctx != nullptr ? ctx->options() : opts, key, key,
            combine);
        EXPECT_TRUE(s.ok()) << s.ToString();
        std::vector<KeyVal> got;
        EXPECT_TRUE(out.ReadAll(&got).ok());
        return got;
      });

  ExpectContextMatchesReference(
      "GroupByAggregate", opts,
      [&](BlockDevice* dev, ExecutionContext* ctx, BufferPool*) {
        Rng rng(48);
        std::vector<KeyVal> rows;
        for (size_t i = 0; i < 30000; ++i) {
          rows.push_back({rng.Uniform(500), rng.Uniform(1000)});
        }
        ExtVector<KeyVal> in(dev), out(dev);
        EXPECT_TRUE(in.AppendAll(rows.data(), rows.size()).ok());
        auto init = [](const uint64_t&) { return uint64_t{0}; };
        auto fold = [](uint64_t* acc, const KeyVal& r) { *acc += r.val; };
        auto finish = [](const uint64_t& k, const uint64_t& acc) {
          return KeyVal{k, acc};
        };
        Status s = GroupByAggregate<KeyVal, uint64_t, uint64_t, KeyVal>(
            in, &out, ctx != nullptr ? ctx->options() : opts, key, init, fold,
            finish);
        EXPECT_TRUE(s.ok()) << s.ToString();
        std::vector<KeyVal> got;
        EXPECT_TRUE(out.ReadAll(&got).ok());
        return got;
      });
}

}  // namespace
}  // namespace vem
