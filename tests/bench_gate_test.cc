// The paired-run gate of the gated benches (bench/bench_util.h): scripted
// fake pairs pin which pair a row keeps, when it retries, and when it
// fails, so the rule "an identity mismatch is never retried away" is
// checked without timing anything.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bench/bench_util.h"

namespace vem::bench {
namespace {

/// One scripted pair: A's and B's seconds and whether their costs match.
struct FakePair {
  double a = 0, b = 0;
  bool same = true;
  int id = -1;  // position in the script

  bool identical() const { return same; }
  std::pair<double, double> timed() const { return {a, b}; }
};

/// Hands out the scripted pairs in order and counts the measure steps.
class Script {
 public:
  explicit Script(std::vector<FakePair> pairs) : pairs_(std::move(pairs)) {
    for (size_t i = 0; i < pairs_.size(); ++i) pairs_[i].id = int(i);
  }
  auto measure() {
    return [this] { return pairs_.at(calls_++); };
  }
  size_t calls() const { return calls_; }

 private:
  std::vector<FakePair> pairs_;
  size_t calls_ = 0;
};

TEST(PairedRun, KeepsTheBestRatioPair) {
  Script s({{1.0, 1.1}, {1.3, 1.0}, {1.1, 1.0}});
  auto row = PairedRun(3, s.measure());
  EXPECT_EQ(s.calls(), 3u);
  EXPECT_TRUE(row.identical);
  EXPECT_EQ(row.pair.id, 1);
  EXPECT_DOUBLE_EQ(row.ratio, 1.3);
  ASSERT_EQ(row.ratios.size(), 3u);
  EXPECT_DOUBLE_EQ(row.ratios[0], 1.0 / 1.1);
}

TEST(PairedRun, MismatchOnRepeatTwoStandsOverACleanerFasterRepeat) {
  // Repeat 3 would be clean and the fastest; the run must end at the
  // mismatch on repeat 2 and keep it.
  Script s({{1.0, 1.0}, {0.9, 1.0, false}, {3.0, 1.0}});
  auto row = PairedRun(3, s.measure());
  EXPECT_EQ(s.calls(), 2u);
  EXPECT_FALSE(row.identical);
  EXPECT_EQ(row.pair.id, 1);
  EXPECT_DOUBLE_EQ(row.ratio, 0.9);
  EXPECT_EQ(row.ratios.size(), 2u);
}

TEST(PairedRun, MismatchKeptEvenWhenItsRatioIsWorse) {
  Script s({{2.0, 1.0}, {0.5, 1.0, false}});
  auto row = PairedRun(2, s.measure());
  EXPECT_FALSE(row.identical);
  EXPECT_EQ(row.pair.id, 1);
}

TEST(GateRow, CleanRowAtTheFloorIsNotRetried) {
  Script s({{0.95, 1.0}, {0.5, 1.0}, {9.0, 1.0}});
  auto row = GateRow(Gate{.repeats = 1, .retries = 2}, s.measure());
  EXPECT_EQ(s.calls(), 1u);
  EXPECT_TRUE(row.identical);
  EXPECT_TRUE(row.fast_enough);
}

TEST(GateRow, MismatchingRetryReplacesACleanRowAndFailsIt) {
  Script s({{0.80, 1.0}, {0.85, 1.0},          // clean, below the floor
            {0.70, 1.0, false}, {2.0, 1.0},    // retry 1: mismatch first
            {1.50, 1.0}, {1.50, 1.0}});        // retry 2 must not run
  auto row = GateRow(Gate{.repeats = 2, .retries = 2}, s.measure());
  EXPECT_EQ(s.calls(), 3u);
  EXPECT_FALSE(row.identical);
  EXPECT_EQ(row.pair.id, 2);
  EXPECT_EQ(row.ratios.size(), 3u);  // both runs' pairs are recorded

  GateVerdict v;
  v.Add(row);
  EXPECT_EQ(v.ExitCode(/*smoke=*/true), 1);
  EXPECT_EQ(v.ExitCode(/*smoke=*/false), 1);
}

TEST(GateRow, RetryKeepsTheBestCleanRow) {
  Script s({{0.80, 1.0},     // first run
            {0.93, 1.0},     // retry 1: better, still below the floor
            {0.90, 1.0}});   // retry 2: worse, dropped
  auto row = GateRow(Gate{.repeats = 1, .retries = 2}, s.measure());
  EXPECT_EQ(s.calls(), 3u);
  EXPECT_TRUE(row.identical);
  EXPECT_EQ(row.pair.id, 1);
  EXPECT_EQ(row.ratios, (std::vector<double>{0.80, 0.93, 0.90}));
  EXPECT_FALSE(row.fast_enough);
}

TEST(GateRow, RetryThatClearsTheFloorPasses) {
  Script s({{0.80, 1.0}, {1.20, 1.0}, {0.1, 1.0}});
  auto row = GateRow(Gate{.repeats = 1, .retries = 2}, s.measure());
  EXPECT_EQ(s.calls(), 2u);
  EXPECT_EQ(row.pair.id, 1);
  EXPECT_TRUE(row.fast_enough);
}

TEST(GateRow, RowUnderTheSecondsFloorPassesOnIdentityAlone) {
  // 2 ms vs 4 ms: ratio 0.5, but the slower side is under 5 ms.
  Script s({{0.002, 0.004}, {0.002, 0.004}, {9.0, 1.0}});
  auto row = GateRow(
      Gate{.repeats = 2, .retries = 2, .min_timed = 0.005}, s.measure());
  EXPECT_EQ(s.calls(), 2u);  // no retry
  EXPECT_TRUE(row.identical);
  EXPECT_DOUBLE_EQ(row.ratio, 0.5);
  EXPECT_TRUE(row.fast_enough);

  // The same ratio above the seconds floor fails.
  Script slow({{0.02, 0.04}});
  auto failed = GateRow(Gate{.repeats = 1, .min_timed = 0.005},
                        slow.measure());
  EXPECT_FALSE(failed.fast_enough);
}

TEST(GateRow, RowStillBelowTheFloorAfterAllRetriesFails) {
  Script s({{0.90, 1.0}, {0.80, 1.0},
            {0.91, 1.0}, {0.85, 1.0},
            {0.94, 1.0}, {0.70, 1.0}});
  auto row = GateRow(Gate{.repeats = 2, .retries = 2}, s.measure());
  EXPECT_EQ(s.calls(), 6u);
  EXPECT_TRUE(row.identical);
  EXPECT_EQ(row.pair.id, 4);
  EXPECT_DOUBLE_EQ(row.ratio, 0.94);
  EXPECT_EQ(row.ratios.size(), 6u);
  EXPECT_FALSE(row.fast_enough);

  GateVerdict v;
  v.Add(row);
  EXPECT_EQ(v.ExitCode(/*smoke=*/true), 2);
  EXPECT_EQ(v.ExitCode(/*smoke=*/false), 0);  // the speed gate is smoke-only
}

TEST(GateVerdict, IdentityFailureBeatsSpeedFailure) {
  GatedRow<FakePair> slow;
  slow.fast_enough = false;
  GatedRow<FakePair> mismatch;
  mismatch.identical = false;
  GateVerdict v;
  EXPECT_EQ(v.ExitCode(true), 0);
  v.Add(slow);
  v.Add(mismatch);
  EXPECT_EQ(v.ExitCode(true), 1);
}

TEST(AddRatios, MedianAndSpreadOfEveryPair) {
  GatedRow<FakePair> row;
  row.ratios = {1.2, 0.9, 1.0, 1.1};
  JsonReport r("gate");
  AddRatios(&r, "row", row);
  const std::string doc = r.Render();
  EXPECT_NE(doc.find("\"metric\": \"ratio_median\", \"value\": 1.05"),
            std::string::npos) << doc;
  EXPECT_NE(doc.find("\"metric\": \"ratio_spread\", \"value\": 0.3"),
            std::string::npos) << doc;
}

}  // namespace
}  // namespace vem::bench
