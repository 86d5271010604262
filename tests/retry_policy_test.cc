// Fault-tolerance plane tests: the transient/permanent Status taxonomy,
// RetryPolicy backoff math under a fake clock, retry wiring through the
// BlockDevice batch loops, the IoEngine's per-disk health monitor and
// quarantine, the hung-I/O watchdog, and mid-run io_uring degradation.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "io/faulty_device.h"
#include "io/file_block_device.h"
#include "io/io_engine.h"
#include "io/io_ring.h"
#include "io/memory_arbiter.h"
#include "io/memory_block_device.h"
#include "io/prefetch_governor.h"
#include "io/retry_policy.h"
#include "transport_axis.h"
#include "util/options.h"
#include "util/status.h"

namespace vem {
namespace {

// ------------------------------------------------------------- taxonomy

TEST(StatusTaxonomy, TransientCodes) {
  EXPECT_TRUE(Status::Busy("b").IsTransient());
  EXPECT_TRUE(Status::Unavailable("u").IsTransient());
  EXPECT_FALSE(Status::IOError("io").IsTransient());
  EXPECT_FALSE(Status::Corruption("c").IsTransient());
  EXPECT_FALSE(Status::OK().IsTransient());
  // Timeout is deliberately NOT transient: the watchdog fires after the
  // lower layers already retried, and re-issuing races the straggler.
  Status t = Status::Timeout("deadline");
  EXPECT_TRUE(t.IsTimeout());
  EXPECT_FALSE(t.IsTransient());
  EXPECT_NE(t.ToString().find("Timeout"), std::string::npos);
  Status u = Status::Unavailable("queue full");
  EXPECT_TRUE(u.IsUnavailable());
  EXPECT_NE(u.ToString().find("Unavailable"), std::string::npos);
}

TEST(StatusTaxonomy, StatusFromErrnoClassifiesAndNames) {
  Status eio = StatusFromErrno("pread", 4096, EIO);
  EXPECT_TRUE(eio.IsIOError());
  EXPECT_FALSE(eio.IsTransient());
  EXPECT_NE(eio.ToString().find("EIO"), std::string::npos);
  EXPECT_NE(eio.ToString().find("at offset 4096"), std::string::npos);
  EXPECT_NE(eio.ToString().find("pread"), std::string::npos);

  Status again = StatusFromErrno("pwrite", 0, EAGAIN);
  EXPECT_TRUE(again.IsUnavailable());
  EXPECT_TRUE(again.IsTransient());
  EXPECT_NE(again.ToString().find("EAGAIN"), std::string::npos);

  EXPECT_TRUE(StatusFromErrno("mmap", -1, ENOMEM).IsTransient());
  EXPECT_TRUE(StatusFromErrno("io_uring_enter", -1, EBUSY).IsTransient());
  EXPECT_FALSE(StatusFromErrno("pread", -1, EBADF).IsTransient());

  // offset < 0 omits the offset clause.
  Status noff = StatusFromErrno("fsync", -1, EIO);
  EXPECT_EQ(noff.ToString().find("at offset"), std::string::npos);
}

// ------------------------------------------------------------ backoff math

TEST(RetryPolicy, BackoffBoundsAndDoubling) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 10;
  cfg.base_us = 100;
  cfg.max_us = 2000;
  RetryPolicy p(cfg);
  uint64_t expected_cap_us = 100;
  for (size_t attempt = 1; attempt <= 10; ++attempt) {
    uint64_t ns = p.BackoffNs(/*key=*/7, attempt);
    uint64_t cap_ns = expected_cap_us * 1000;
    EXPECT_GE(ns, cap_ns / 2) << "attempt " << attempt;
    EXPECT_LT(ns, cap_ns) << "attempt " << attempt;
    expected_cap_us = std::min<uint64_t>(expected_cap_us * 2, cfg.max_us);
  }
  EXPECT_EQ(p.BackoffNs(7, 0), 0u);
}

TEST(RetryPolicy, JitterIsDeterministicPerKey) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 4;
  RetryPolicy a(cfg);
  RetryPolicy b(cfg);
  bool some_difference = false;
  for (size_t attempt = 1; attempt <= 4; ++attempt) {
    // Same (key, attempt) -> same backoff, across policy instances: the
    // jitter is a pure hash, so fault-injection runs are reproducible.
    EXPECT_EQ(a.BackoffNs(11, attempt), b.BackoffNs(11, attempt));
    EXPECT_EQ(a.BackoffNs(12, attempt), b.BackoffNs(12, attempt));
    if (a.BackoffNs(11, attempt) != a.BackoffNs(12, attempt)) {
      some_difference = true;
    }
  }
  // Different keys decorrelate (at least one attempt differs).
  EXPECT_TRUE(some_difference);
}

// Fake clock + sleep recorder: tests run with zero wall-clock sleeping.
struct FakeTime {
  uint64_t now_ns = 0;
  std::vector<uint64_t> sleeps;
  Clock clock() {
    return [this] { return now_ns; };
  }
  RetryPolicy::Sleeper sleeper() {
    return [this](uint64_t ns) {
      sleeps.push_back(ns);
      now_ns += ns;
    };
  }
};

TEST(RetryPolicy, RetriesTransientUntilSuccess) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 5;
  FakeTime ft;
  RetryPolicy p(cfg, ft.clock(), ft.sleeper());
  int calls = 0;
  int fail_observed = 0;
  Status s = p.Run(
      /*key=*/3,
      [&] {
        calls++;
        return calls <= 3 ? Status::Unavailable("flaky") : Status::OK();
      },
      [&](const Status& att) {
        fail_observed++;
        EXPECT_TRUE(att.IsTransient());
      });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(fail_observed, 3);
  EXPECT_EQ(p.retries(), 3u);
  ASSERT_EQ(ft.sleeps.size(), 3u);
  uint64_t total = 0;
  for (size_t i = 0; i < ft.sleeps.size(); ++i) {
    EXPECT_EQ(ft.sleeps[i], p.BackoffNs(3, i + 1));
    total += ft.sleeps[i];
  }
  // The fake clock advanced exactly by the sleeps, so the backoff gauge
  // records the whole spend.
  EXPECT_EQ(p.retry_backoff_ns(), total);
}

TEST(RetryPolicy, GivesUpAfterLimit) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 4;
  FakeTime ft;
  RetryPolicy p(cfg, ft.clock(), ft.sleeper());
  int calls = 0;
  int fail_observed = 0;
  Status s = p.Run(
      1, [&] { calls++; return Status::Unavailable("always"); },
      [&](const Status&) { fail_observed++; });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 5);          // 1 initial + 4 retries
  EXPECT_EQ(fail_observed, 5);  // every failed attempt reported once
  EXPECT_EQ(p.retries(), 4u);
}

TEST(RetryPolicy, PermanentErrorNeverRetries) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 8;
  FakeTime ft;
  RetryPolicy p(cfg, ft.clock(), ft.sleeper());
  int calls = 0;
  Status s = p.Run(1, [&] { calls++; return Status::IOError("dead"); });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(p.retries(), 0u);
  EXPECT_TRUE(ft.sleeps.empty());
}

TEST(RetryPolicy, ZeroLimitIsDisabled) {
  RetryPolicy p(RetryPolicy::Config{});  // retry_limit = 0 default
  int calls = 0;
  Status s = p.Run(1, [&] { calls++; return Status::Unavailable("x"); });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 1);
}

// ------------------------------------------- device-level transient faults

// A transient fault schedule absorbed by the batch-loop retry: logical
// IoStats are bit-identical to the fault-free run (the standing
// two-plane invariant extended to "fault or no fault").
TEST(DeviceRetry, TransientReadFaultsAbsorbedStatsIdentical) {
  constexpr size_t kBlocks = 8;
  auto run = [&](bool inject, RetryPolicy* policy, IoStats* out) {
    MemoryBlockDevice inner(256);
    FaultyBlockDevice dev(&inner);
    if (policy != nullptr) dev.set_retry_policy(policy);
    std::vector<uint64_t> ids(kBlocks);
    std::vector<std::vector<char>> bufs(kBlocks,
                                        std::vector<char>(256, 0));
    std::vector<const void*> wptrs(kBlocks);
    std::vector<void*> rptrs(kBlocks);
    for (size_t i = 0; i < kBlocks; ++i) {
      ids[i] = dev.Allocate();
      bufs[i][0] = static_cast<char>('a' + i);
      wptrs[i] = bufs[i].data();
      rptrs[i] = bufs[i].data();
    }
    EXPECT_TRUE(dev.WriteBatch(ids.data(), wptrs.data(), kBlocks).ok());
    if (inject) {
      // Fail the 3rd read attempt twice, then succeed (attempts 3 and 4
      // fail, attempt 5 goes through as the 3rd transfer).
      dev.SetTransientReadFault(/*at_read=*/3, /*times=*/2);
    }
    for (auto& b : bufs) std::fill(b.begin(), b.end(), 0);
    Status s = dev.ReadBatch(ids.data(), rptrs.data(), kBlocks);
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (size_t i = 0; i < kBlocks; ++i) {
      EXPECT_EQ(bufs[i][0], static_cast<char>('a' + i));
    }
    *out = dev.stats();
  };

  RetryPolicy::Config cfg;
  cfg.retry_limit = 3;
  FakeTime ft;
  RetryPolicy policy(cfg, ft.clock(), ft.sleeper());

  IoStats clean, faulted;
  run(/*inject=*/false, nullptr, &clean);
  run(/*inject=*/true, &policy, &faulted);
  EXPECT_EQ(policy.retries(), 2u);  // the faults really fired
  EXPECT_EQ(clean.block_reads, faulted.block_reads);
  EXPECT_EQ(clean.block_writes, faulted.block_writes);
  EXPECT_EQ(clean.parallel_reads, faulted.parallel_reads);
  EXPECT_EQ(clean.parallel_writes, faulted.parallel_writes);
  EXPECT_EQ(clean.bytes_read, faulted.bytes_read);
  EXPECT_EQ(clean.bytes_written, faulted.bytes_written);
}

TEST(DeviceRetry, TransientWriteFaultsAbsorbedOnUncountedPlane) {
  MemoryBlockDevice inner(128);
  FaultyBlockDevice dev(&inner);
  RetryPolicy::Config cfg;
  cfg.retry_limit = 4;
  FakeTime ft;
  RetryPolicy policy(cfg, ft.clock(), ft.sleeper());
  dev.set_retry_policy(&policy);

  std::vector<uint64_t> ids(4);
  std::vector<std::vector<char>> bufs(4, std::vector<char>(128, 0));
  std::vector<const void*> wptrs(4);
  for (size_t i = 0; i < 4; ++i) {
    ids[i] = dev.Allocate();
    bufs[i][5] = static_cast<char>(i + 1);
    wptrs[i] = bufs[i].data();
  }
  dev.SetTransientWriteFault(/*at_write=*/2, /*times=*/3);
  Status s = dev.WriteBatchUncounted(ids.data(), wptrs.data(), 4);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(policy.retries(), 3u);
  // Uncounted transfers charge nothing, fault or no fault.
  EXPECT_EQ(dev.stats().block_writes, 0u);
  for (size_t i = 0; i < 4; ++i) {
    std::vector<char> back(128, 0);
    ASSERT_TRUE(dev.ReadUncounted(ids[i], back.data()).ok());
    EXPECT_EQ(back[5], static_cast<char>(i + 1));
  }
}

TEST(DeviceRetry, WithoutPolicyTransientFaultPropagates) {
  MemoryBlockDevice inner(128);
  FaultyBlockDevice dev(&inner);
  uint64_t id = dev.Allocate();
  std::vector<char> buf(128, 0);
  ASSERT_TRUE(dev.Write(id, buf.data()).ok());
  dev.SetTransientReadFault(/*at_read=*/1, /*times=*/1);
  Status s = dev.Read(id, buf.data());
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_TRUE(s.IsTransient());
}

TEST(DeviceRetry, RetriesExhaustedSurfacesTransientStatus) {
  MemoryBlockDevice inner(128);
  FaultyBlockDevice dev(&inner);
  RetryPolicy::Config cfg;
  cfg.retry_limit = 2;
  FakeTime ft;
  RetryPolicy policy(cfg, ft.clock(), ft.sleeper());
  dev.set_retry_policy(&policy);
  uint64_t id = dev.Allocate();
  std::vector<char> buf(128, 0);
  ASSERT_TRUE(dev.WriteUncounted(id, buf.data()).ok());
  dev.SetTransientReadFault(/*at_read=*/1, /*times=*/100);  // outlasts limit
  uint64_t ids[1] = {id};
  void* bufs[1] = {buf.data()};
  Status s = dev.ReadBatchUncounted(ids, bufs, 1);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(policy.retries(), 2u);
}

// ------------------------------------- file device: one rule, every transport

// FileBlockDevice feeds every op result, from the syscall executor and
// the io_uring executor alike, through one result rule: EINTR resubmits
// silently, every other errno goes through StatusFromErrno and the retry
// plane. ForceErrnoForTest injects errnos inside that rule, so each case
// asserts the same outcome on every transport, with and without a policy.
class FileDeviceErrno
    : public ::testing::TestWithParam<std::tuple<Transport, bool>> {
 protected:
  static constexpr size_t kBlock = 4096;
  static constexpr size_t kBlocks = 4;

  void SetUp() override {
    if (!TransportUsable(std::get<0>(GetParam()))) {
      GTEST_SKIP() << "io_uring not available on this kernel/build";
    }
    engine_ = MakeTransportEngine(std::get<0>(GetParam()));
    RetryPolicy::Config cfg;
    cfg.retry_limit = 3;
    policy_ = std::make_unique<RetryPolicy>(cfg, ft_.clock(), ft_.sleeper());
  }
  bool with_policy() const { return std::get<1>(GetParam()); }

  std::unique_ptr<FileBlockDevice> MakeDevice(const char* name) {
    auto dev = std::make_unique<FileBlockDevice>(
        std::string("/tmp/vem_retry_test_") + name + ".bin", kBlock);
    EXPECT_TRUE(dev->valid());
    dev->set_io_engine(engine_.get());
    if (with_policy()) dev->set_retry_policy(policy_.get());
    for (size_t i = 0; i < kBlocks; ++i) ids_[i] = dev->Allocate();
    return dev;
  }
  // One batch write and one batch read, each of two runs (the second
  // half of the ids first), then one single-block read. On io_uring both
  // runs of a batch are in flight together, so a failure in the first
  // must still leave the second uncharged, as the single-block loop
  // would.
  Status Workload(FileBlockDevice* dev, const std::vector<char>& payload,
                  std::vector<char>* got) {
    uint64_t order[kBlocks];
    const void* wbufs[kBlocks];
    void* rbufs[kBlocks];
    for (size_t i = 0; i < kBlocks; ++i) {
      const size_t k = (i + kBlocks / 2) % kBlocks;
      order[i] = ids_[k];
      wbufs[i] = payload.data() + k * kBlock;
      rbufs[i] = got->data() + k * kBlock;
    }
    VEM_RETURN_IF_ERROR(dev->WriteBatch(order, wbufs, kBlocks));
    VEM_RETURN_IF_ERROR(dev->ReadBatch(order, rbufs, kBlocks));
    return dev->Read(ids_[0], got->data());
  }
  static std::vector<char> Payload() {
    std::vector<char> p(kBlocks * kBlock);
    for (size_t i = 0; i < p.size(); ++i) p[i] = static_cast<char>(i * 31);
    return p;
  }

  FakeTime ft_;
  std::unique_ptr<RetryPolicy> policy_;
  std::unique_ptr<IoEngine> engine_;
  uint64_t ids_[kBlocks] = {};
};

TEST_P(FileDeviceErrno, EagainRetriesUnderPolicyElseUnavailable) {
  const std::vector<char> payload = Payload();
  std::vector<char> got(payload.size(), 0);
  auto clean = MakeDevice("eagain_clean");
  ASSERT_TRUE(Workload(clean.get(), payload, &got).ok());
  ASSERT_EQ(policy_->retries(), 0u);
  got.assign(got.size(), 0);
  auto dev = MakeDevice("eagain");
  dev->ForceErrnoForTest(EAGAIN, 2);
  Status s = Workload(dev.get(), payload, &got);
  if (with_policy()) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(policy_->retries(), 2u);
    EXPECT_EQ(got, payload);
    EXPECT_TRUE(dev->stats() == clean->stats())
        << "faulted " << dev->stats().ToString() << " vs clean "
        << clean->stats().ToString();
  } else {
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    EXPECT_EQ(dev->stats().block_writes, 0u);
  }
  if (engine_ != nullptr) {
    EXPECT_FALSE(engine_->DiskHealth(dev->EngineDiskTag(ids_[0])).fail_stopped);
  }
  dev->set_io_engine(nullptr);
  clean->set_io_engine(nullptr);
}

TEST_P(FileDeviceErrno, EintrResubmitsSilently) {
  const std::vector<char> payload = Payload();
  std::vector<char> got(payload.size(), 0);
  auto dev = MakeDevice("eintr");
  dev->ForceErrnoForTest(EINTR, 3);
  Status s = Workload(dev.get(), payload, &got);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(got, payload);
  EXPECT_EQ(policy_->retries(), 0u);
  EXPECT_EQ(dev->stats().block_writes, kBlocks);
  dev->set_io_engine(nullptr);
}

TEST_P(FileDeviceErrno, EioFailsAndFailStopsTheHead) {
  const std::vector<char> payload = Payload();
  std::vector<char> got(payload.size(), 0);
  auto dev = MakeDevice("eio");
  dev->ForceErrnoForTest(EIO, 1);
  Status s = Workload(dev.get(), payload, &got);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(policy_->retries(), 0u);  // permanent: never retried
  EXPECT_EQ(dev->stats().block_writes, 0u);
  if (engine_ != nullptr) {
    EXPECT_TRUE(engine_->DiskHealth(dev->EngineDiskTag(ids_[0])).fail_stopped);
  }
  dev->set_io_engine(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, FileDeviceErrno,
    ::testing::Combine(kAllTransports, ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Transport, bool>>& info) {
      return TransportName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Policy" : "NoPolicy");
    });

// ------------------------------------------------- health and quarantine

TEST(DiskHealth, QuarantineEntersOnFailuresExitsOnRecovery) {
  IoEngine eng(1);
  const uint64_t tag = 42;
  eng.LabelDisk(tag, /*route=*/7);
  EXPECT_FALSE(eng.DiskQuarantined(tag));
  EXPECT_FALSE(eng.AnyQuarantined());

  // Three consecutive failures from the implicit clean prior cross the
  // enter threshold (0.25 + 0.1875 + 0.1406... > 0.5).
  eng.ReportDiskResult(tag, false);
  eng.ReportDiskResult(tag, false);
  EXPECT_FALSE(eng.DiskQuarantined(tag));
  eng.ReportDiskResult(tag, false);
  EXPECT_TRUE(eng.DiskQuarantined(tag));
  EXPECT_TRUE(eng.AnyQuarantined());
  EXPECT_EQ(eng.quarantined_disks(), 1u);
  EXPECT_TRUE(eng.RouteQuarantined(7));
  EXPECT_FALSE(eng.RouteQuarantined(8));
  EXPECT_GT(eng.DiskHealth(tag).error_ewma, 0.5);
  EXPECT_TRUE(eng.DiskHealth(tag).quarantined);
  // Quarantined head: zero submission headroom for grant shaping.
  EXPECT_EQ(eng.DiskHeadroom(tag), 0.0);

  // Recovery evidence (retried operations succeeding) decays the EWMA
  // below the exit threshold and lifts the quarantine.
  int successes = 0;
  while (eng.DiskQuarantined(tag) && successes < 50) {
    eng.ReportDiskResult(tag, true, /*service_ns=*/1000);
    successes++;
  }
  EXPECT_FALSE(eng.DiskQuarantined(tag));
  EXPECT_GE(successes, 3);  // hysteresis: exit is slower than entry
  EXPECT_EQ(eng.quarantined_disks(), 0u);
  EXPECT_FALSE(eng.AnyQuarantined());
  EXPECT_FALSE(eng.RouteQuarantined(7));
}

TEST(DiskHealth, LatencyEwmaTracksServiceTimes) {
  IoEngine eng(1);
  const uint64_t tag = 9;
  eng.ReportDiskResult(tag, true, 1000);
  EXPECT_EQ(eng.DiskHealth(tag).latency_ewma_ns, 1000.0);
  for (int i = 0; i < 20; ++i) eng.ReportDiskResult(tag, true, 9000);
  EXPECT_GT(eng.DiskHealth(tag).latency_ewma_ns, 5000.0);
  EXPECT_EQ(eng.DiskHealth(tag).samples, 21u);
}

// Disarmed prefetch and frozen staging growth while a disk is sick: the
// control planes consult the gauge's quarantine view.
struct QuarantinedGauge : DepthGauge {
  double RouteHeadroom(uint64_t) const override { return 1.0; }
  bool RouteQuarantined(uint64_t route) const override {
    return route == sick_route;
  }
  bool AnyQuarantined() const override { return any; }
  uint64_t sick_route = 0;
  bool any = false;
};

TEST(DiskHealth, GovernorRefusesArmsOnQuarantinedRoute) {
  PrefetchGovernor::Config cfg;
  cfg.budget_blocks = 64;
  PrefetchGovernor gov(cfg);
  QuarantinedGauge gauge;
  gauge.sick_route = 3;
  gov.AttachGauge(&gauge);
  auto sick = gov.Arm(8, /*route=*/3);
  EXPECT_EQ(sick->depth(), 0u);
  EXPECT_EQ(gov.quarantine_disarms(), 1u);
  auto healthy = gov.Arm(8, /*route=*/2);
  EXPECT_GT(healthy->depth(), 0u);
  EXPECT_EQ(gov.quarantine_disarms(), 1u);
}

TEST(DiskHealth, GovernorDisarmsLeaseWhenRouteGoesSick) {
  PrefetchGovernor::Config cfg;
  cfg.budget_blocks = 64;
  cfg.adapt_windows = 2;
  PrefetchGovernor gov(cfg);
  QuarantinedGauge gauge;
  gov.AttachGauge(&gauge);
  auto lease = gov.Arm(8, /*route=*/5);
  ASSERT_GT(lease->depth(), 0u);
  size_t staged_before = gov.staged_blocks();
  EXPECT_GT(staged_before, 0u);
  gauge.sick_route = 5;  // disk quarantined mid-lease
  lease->ReportWindow(4, 0);
  lease->ReportWindow(4, 0);  // period boundary -> Adapt -> disarm
  EXPECT_EQ(lease->depth(), 0u);
  EXPECT_EQ(gov.quarantine_disarms(), 1u);
  EXPECT_LT(gov.staged_blocks(), staged_before);
}

TEST(DiskHealth, ArbiterDeniesStagingGrowsUnderQuarantine) {
  MemoryArbiter::Config cfg;
  cfg.budget_bytes = 1u << 20;
  cfg.block_size = 4096;
  MemoryArbiter arb(cfg);
  QuarantinedGauge gauge;
  arb.AttachGauge(&gauge);
  auto lease = arb.LeaseStaging(8);
  EXPECT_GT(lease->RequestGrow(4), 0u);
  gauge.any = true;
  EXPECT_EQ(lease->RequestGrow(4), 0u);
  EXPECT_EQ(arb.quarantine_denied_grows(), 1u);
  gauge.any = false;
  EXPECT_GT(lease->RequestGrow(4), 0u);
}

// -------------------------------------------------------------- watchdog

TEST(Watchdog, StalledJobTimesOutInsteadOfHangingWait) {
  MemoryBlockDevice inner(64);
  FaultyBlockDevice dev(&inner);
  uint64_t id = dev.Allocate();
  std::vector<char> buf(64, 0);
  ASSERT_TRUE(dev.Write(id, buf.data()).ok());
  dev.SetStallRead(/*at_read=*/1);  // the engine job's read stalls

  Options opts;
  opts.io_threads = 1;
  opts.io_deadline_ms = 50;
  IoEngine eng(opts);
  ASSERT_EQ(eng.deadline_ms(), 50u);

  IoEngine::Ticket t = eng.Submit([&] { return dev.Read(id, buf.data()); });
  // Wait() self-steals queued jobs, so make sure the stalled job is
  // provably blocked on a worker before waiting on its ticket.
  for (int i = 0; i < 2000 && dev.stalled_now() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(dev.stalled_now(), 1);
  Status s = eng.Wait(t);
  EXPECT_TRUE(s.IsTimeout()) << s.ToString();
  EXPECT_NE(s.ToString().find("deadline"), std::string::npos);
  EXPECT_EQ(eng.timeouts(), 1u);
  // Teardown obligation: unblock the worker before the engine joins.
  dev.ReleaseStalls();
}

TEST(Watchdog, ZeroDeadlineWaitsForever) {
  IoEngine eng(1);
  EXPECT_EQ(eng.deadline_ms(), 0u);
  IoEngine::Ticket t = eng.Submit([] { return Status::OK(); });
  EXPECT_TRUE(eng.Wait(t).ok());
  EXPECT_EQ(eng.timeouts(), 0u);
}

// --------------------------------------------------- engine-level retries

TEST(EngineRetry, RetryableJobsReRunOnTransientFailure) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 3;
  FakeTime ft;
  RetryPolicy policy(cfg, ft.clock(), ft.sleeper());
  IoEngine eng(2);
  eng.set_retry_policy(&policy);
  std::atomic<int> calls{0};
  IoEngine::Ticket t = eng.Submit(
      [&] {
        int c = calls.fetch_add(1) + 1;
        return c < 3 ? Status::Unavailable("cold") : Status::OK();
      },
      /*disk=*/5, /*retryable=*/true);
  EXPECT_TRUE(eng.Wait(t).ok());
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(policy.retries(), 2u);
  // Failed attempts fed the disk's health and the final success reported
  // recovery (a worker-executed job folds one more sample; a Wait-stolen
  // one does not, so only the floor is deterministic).
  EXPECT_GE(eng.DiskHealth(5).samples, 3u);
}

TEST(EngineRetry, NonRetryableJobsFailStraightThrough) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 3;
  FakeTime ft;
  RetryPolicy policy(cfg, ft.clock(), ft.sleeper());
  IoEngine eng(1);
  eng.set_retry_policy(&policy);
  std::atomic<int> calls{0};
  IoEngine::Ticket t = eng.Submit([&] {
    calls.fetch_add(1);
    return Status::Unavailable("x");
  });  // default: not retryable
  EXPECT_TRUE(eng.Wait(t).IsUnavailable());
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(policy.retries(), 0u);
}

// ------------------------------------------------------- ring degradation

TEST(RingDegradation, PersistentFailuresDisableTheRing) {
  IoEngine eng(1, 1, IoBackend::kIoUring);
  if (eng.backend() != IoBackend::kIoUring) {
    GTEST_SKIP() << "io_uring unavailable on this kernel/build";
  }
  ASSERT_NE(eng.ring(), nullptr);
  // A success between failures resets the consecutive-failure counter.
  eng.ReportRingResult(false);
  eng.ReportRingResult(false);
  eng.ReportRingResult(true);
  EXPECT_EQ(eng.backend(), IoBackend::kIoUring);
  eng.ReportRingResult(false);
  eng.ReportRingResult(false);
  EXPECT_EQ(eng.backend(), IoBackend::kIoUring);
  eng.ReportRingResult(false);  // third consecutive: degrade for good
  EXPECT_EQ(eng.backend(), IoBackend::kWorkerPool);
  EXPECT_EQ(eng.ring(), nullptr);
}

}  // namespace
}  // namespace vem
