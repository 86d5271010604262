// perfbench's own checks, on small inputs:
//  - a traced round's logical IoStats are bit-identical to an untraced
//    round's (per child at D = 4, data file and log for the WAL);
//  - the deterministic per-layer counts repeat exactly at one seed;
//  - the sort's phase split covers the Sort() call and finds the merge.
//
// Build and run: python3 perfbench/run.py --selftest
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

Sizes SmallSizes() {
  Sizes z;
  z.sort_records = (4u << 20) / sizeof(WideRec);  // 4 MiB
  z.sort_memory = 256u << 10;                     // 16 runs
  z.sort_block = 8u << 10;                        // fan-in 31: one pass
  z.sort_depth = 4;
  z.lookup_keys = 1u << 16;
  z.lookup_frames = 64;
  z.lookup_warmup = 1000;
  z.commit_keys = 4096;
  z.commit_frames = 128;
  return z;
}

class PerfbenchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "perfbench_test_data";
    mkdir(dir_.c_str(), 0755);
  }
  void TearDown() override { rmdir(dir_.c_str()); }

  RoundSpec Spec(bool traced, uint64_t max_ops, uint64_t probe_ops) const {
    RoundSpec s;
    s.dir = dir_;
    s.seed = 42;
    s.traced = traced;
    s.max_ops = max_ops;
    s.probe_ops = probe_ops;
    s.sizes = SmallSizes();
    return s;
  }

  std::string dir_;
};

void ExpectClean(const RoundResult& r) {
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.attempted, 0u);
}

TEST_F(PerfbenchTest, SortD1TracedIoStatsIdentical) {
  RoundResult plain = RunSortRound(Spec(false, 0, 0), 1);
  RoundResult traced = RunSortRound(Spec(true, 0, 0), 1);
  ExpectClean(plain);
  ExpectClean(traced);
  ASSERT_EQ(plain.probe.size(), 1u);
  EXPECT_EQ(plain.probe, traced.probe);
  EXPECT_GT(traced.probe[0].block_ios(), 0u);
}

TEST_F(PerfbenchTest, SortD4TracedIoStatsIdenticalPerChild) {
  RoundResult plain = RunSortRound(Spec(false, 0, 0), 4);
  RoundResult traced = RunSortRound(Spec(true, 0, 0), 4);
  ExpectClean(plain);
  ExpectClean(traced);
  ASSERT_EQ(plain.probe.size(), 5u);  // the device, then its four disks
  for (size_t i = 0; i < plain.probe.size(); ++i) {
    EXPECT_EQ(plain.probe[i], traced.probe[i]) << "probe " << i;
  }
}

TEST_F(PerfbenchTest, LookupTracedIoStatsIdentical) {
  RoundResult plain = RunLookupRound(Spec(false, 5000, 2000));
  RoundResult traced = RunLookupRound(Spec(true, 5000, 2000));
  ExpectClean(plain);
  ExpectClean(traced);
  ASSERT_EQ(plain.probe.size(), 1u);
  EXPECT_EQ(plain.probe, traced.probe);
}

TEST_F(PerfbenchTest, CommitTracedIoStatsIdentical) {
  RoundResult plain = RunCommitRound(Spec(false, 40, 20));
  RoundResult traced = RunCommitRound(Spec(true, 40, 20));
  ExpectClean(plain);
  ExpectClean(traced);
  ASSERT_EQ(plain.probe.size(), 3u);  // wrapper, data file, log
  for (size_t i = 0; i < plain.probe.size(); ++i) {
    EXPECT_EQ(plain.probe[i], traced.probe[i]) << "probe " << i;
  }
  EXPECT_GT(plain.probe[2].bytes_written, 0u);
}

void ExpectSameCounts(const RoundResult& a, const RoundResult& b,
                      const std::vector<std::string>& names) {
  for (const auto& n : names) {
    ASSERT_TRUE(a.layer.count(n)) << n;
    EXPECT_EQ(a.layer.at(n), b.layer.at(n)) << n;
  }
}

TEST_F(PerfbenchTest, SortCountsRepeat) {
  for (size_t disks : {1, 4}) {
    RoundResult a = RunSortRound(Spec(true, 0, 0), disks);
    RoundResult b = RunSortRound(Spec(true, 0, 0), disks);
    ExpectClean(a);
    ExpectClean(b);
    ExpectSameCounts(a, b,
                     {"io.pdm.block_ios", "io.pdm.ios_over_bound",
                      "sort.initial_runs", "sort.merge_passes"});
    // At D = 4 parallel writes follow the governor's group sizes (see
    // RunSortRound), so only the single-disk count must repeat.
    if (disks == 1) ExpectSameCounts(a, b, {"io.pdm.parallel_ios"});
    EXPECT_EQ(a.layer.at("sort.initial_runs"), 16);
    EXPECT_EQ(a.layer.at("sort.merge_passes"), 1);
  }
}

TEST_F(PerfbenchTest, TreeCountsRepeat) {
  RoundResult a = RunLookupRound(Spec(true, 3000, 0));
  RoundResult b = RunLookupRound(Spec(true, 3000, 0));
  ExpectClean(a);
  ExpectSameCounts(a, b,
                   {"io.pdm.block_ios", "io.pdm.parallel_ios",
                    "io.pdm.ios_over_bound"});
  RoundResult c = RunCommitRound(Spec(true, 30, 0));
  RoundResult d = RunCommitRound(Spec(true, 30, 0));
  ExpectClean(c);
  ExpectSameCounts(c, d,
                   {"io.pdm.block_ios", "io.pdm.parallel_ios",
                    "io.pdm.ios_over_bound", "wal.fsyncs_per_commit",
                    "wal.bytes_per_user_byte"});
  EXPECT_EQ(c.layer.at("wal.fsyncs_per_commit"), 2);
}

TEST_F(PerfbenchTest, SortPhasesCoverTheSortCall) {
  RoundResult r = RunSortRound(Spec(true, 0, 0), 1);
  ExpectClean(r);
  const double phases =
      r.layer.at("sort.run_formation_s") + r.layer.at("sort.merge_s");
  EXPECT_NEAR(phases, r.measure_s, 0.1 * r.measure_s);
  EXPECT_GT(r.layer.at("sort.run_formation_s"), 0);
  EXPECT_GT(r.layer.at("sort.merge_s"), 0);
  EXPECT_GT(r.layer.at("io.device.read_calls"), 0);
}

}  // namespace
}  // namespace perfbench
