// Tests for distribution-sweep geometry: segment intersection, stabbing,
// dominance counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "geometry/batched_stabbing.h"
#include "geometry/range_counting.h"
#include "geometry/segment_intersection.h"
#include "io/memory_block_device.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 256;
constexpr size_t kMem = 4096;
const Options kOpts{.memory_budget = kMem};

std::vector<IntersectionPair> BruteForce(const std::vector<HSegment>& hs,
                                         const std::vector<VSegment>& vs) {
  std::vector<IntersectionPair> out;
  for (const auto& h : hs) {
    for (const auto& v : vs) {
      if (v.y1 <= h.y && h.y <= v.y2 && h.x1 <= v.x && v.x <= h.x2) {
        out.push_back({h.id, v.id});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct SegCase {
  size_t nh, nv;
  uint64_t seed;
  double span;  // controls intersection density
};

class SegIntersectSweep : public ::testing::TestWithParam<SegCase> {};

TEST_P(SegIntersectSweep, MatchesBruteForce) {
  const SegCase& c = GetParam();
  MemoryBlockDevice dev(kBlock);
  Rng rng(c.seed);
  std::vector<HSegment> hs;
  std::vector<VSegment> vs;
  for (size_t i = 0; i < c.nh; ++i) {
    double x = rng.NextDouble() * 100, y = rng.NextDouble() * 100;
    hs.push_back({y, x, x + rng.NextDouble() * c.span, i});
  }
  for (size_t i = 0; i < c.nv; ++i) {
    double x = rng.NextDouble() * 100, y = rng.NextDouble() * 100;
    vs.push_back({x, y, y + rng.NextDouble() * c.span, i});
  }
  auto expect = BruteForce(hs, vs);

  ExtVector<HSegment> hv(&dev);
  ExtVector<VSegment> vv(&dev);
  ASSERT_TRUE(hv.AppendAll(hs.data(), hs.size()).ok());
  ASSERT_TRUE(vv.AppendAll(vs.data(), vs.size()).ok());
  OrthogonalSegmentIntersection osi(&dev, kOpts);
  ExtVector<IntersectionPair> out(&dev);
  ASSERT_TRUE(osi.Run(hv, vv, &out).ok());
  std::vector<IntersectionPair> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect) << "nh=" << c.nh << " nv=" << c.nv;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SegIntersectSweep,
    ::testing::Values(SegCase{10, 10, 1, 20},      // tiny (in-memory path)
                      SegCase{300, 300, 2, 10},    // recursion kicks in
                      SegCase{1000, 1000, 3, 5},   // deeper recursion
                      SegCase{2000, 50, 4, 50},    // H-heavy
                      SegCase{50, 2000, 5, 50},    // V-heavy
                      SegCase{800, 800, 6, 0.5})); // sparse hits

TEST(SegmentIntersection, EndpointTouchingCounts) {
  MemoryBlockDevice dev(kBlock);
  // V from (5,0) to (5,10); H at y=10 from x=5 to 8 (corner touch),
  // H at y=0 from 0 to 5 (corner touch), H at y=5 crossing, H missing.
  std::vector<HSegment> hs = {
      {10, 5, 8, 0}, {0, 0, 5, 1}, {5, 0, 10, 2}, {11, 0, 10, 3}};
  std::vector<VSegment> vs = {{5, 0, 10, 0}};
  ExtVector<HSegment> hv(&dev);
  ExtVector<VSegment> vv(&dev);
  ASSERT_TRUE(hv.AppendAll(hs.data(), hs.size()).ok());
  ASSERT_TRUE(vv.AppendAll(vs.data(), vs.size()).ok());
  OrthogonalSegmentIntersection osi(&dev, kOpts);
  ExtVector<IntersectionPair> out(&dev);
  ASSERT_TRUE(osi.Run(hv, vv, &out).ok());
  std::vector<IntersectionPair> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<IntersectionPair>{{0, 0}, {1, 0}, {2, 0}}));
}

TEST(SegmentIntersection, AllVerticalsSameX) {
  // Exercises the uniform-x base case.
  MemoryBlockDevice dev(kBlock);
  Rng rng(9);
  std::vector<HSegment> hs;
  std::vector<VSegment> vs;
  for (size_t i = 0; i < 600; ++i) {
    double y = rng.NextDouble() * 100;
    hs.push_back({y, rng.NextDouble() * 10, 4.9 + rng.NextDouble() * 10,
                  i});
    double y1 = rng.NextDouble() * 100;
    vs.push_back({5.0, y1, y1 + rng.NextDouble() * 10, i});
  }
  auto expect = BruteForce(hs, vs);
  ExtVector<HSegment> hv(&dev);
  ExtVector<VSegment> vv(&dev);
  ASSERT_TRUE(hv.AppendAll(hs.data(), hs.size()).ok());
  ASSERT_TRUE(vv.AppendAll(vs.data(), vs.size()).ok());
  OrthogonalSegmentIntersection osi(&dev, kOpts);
  ExtVector<IntersectionPair> out(&dev);
  ASSERT_TRUE(osi.Run(hv, vv, &out).ok());
  std::vector<IntersectionPair> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

// ----------------------------------------------------------------- Stabbing

TEST(BatchedStabbing, ReportMatchesBruteForce) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(12);
  std::vector<Interval> ivs;
  std::vector<StabQuery> qs;
  for (size_t i = 0; i < 800; ++i) {
    double lo = rng.NextDouble() * 100;
    ivs.push_back({lo, lo + rng.NextDouble() * 10, i});
    qs.push_back({rng.NextDouble() * 110, i});
  }
  std::vector<StabHit> expect;
  for (const auto& q : qs) {
    for (const auto& iv : ivs) {
      if (iv.lo <= q.x && q.x <= iv.hi) expect.push_back({q.id, iv.id});
    }
  }
  std::sort(expect.begin(), expect.end());

  ExtVector<Interval> iv(&dev);
  ExtVector<StabQuery> qv(&dev);
  ASSERT_TRUE(iv.AppendAll(ivs.data(), ivs.size()).ok());
  ASSERT_TRUE(qv.AppendAll(qs.data(), qs.size()).ok());
  ExtVector<StabHit> out(&dev);
  ASSERT_TRUE(BatchedStabbingReport(iv, qv, &out, kOpts).ok());
  std::vector<StabHit> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

TEST(BatchedStabbing, CountMatchesReport) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(13);
  std::vector<Interval> ivs;
  std::vector<StabQuery> qs;
  for (size_t i = 0; i < 1200; ++i) {
    double lo = rng.NextDouble() * 50;
    ivs.push_back({lo, lo + rng.NextDouble() * 20, i});
  }
  for (size_t i = 0; i < 500; ++i) qs.push_back({rng.NextDouble() * 70, i});
  ExtVector<Interval> iv(&dev);
  ExtVector<StabQuery> qv(&dev);
  ASSERT_TRUE(iv.AppendAll(ivs.data(), ivs.size()).ok());
  ASSERT_TRUE(qv.AppendAll(qs.data(), qs.size()).ok());

  ExtVector<StabCount> counts(&dev);
  ASSERT_TRUE(BatchedStabbingCount(iv, qv, &counts, kOpts).ok());
  std::vector<StabCount> cgot;
  ASSERT_TRUE(counts.ReadAll(&cgot).ok());
  ASSERT_EQ(cgot.size(), qs.size());
  std::map<uint64_t, uint64_t> count_by_id;
  for (auto& c : cgot) count_by_id[c.query_id] = c.count;
  for (const auto& q : qs) {
    uint64_t expect = 0;
    for (const auto& ivr : ivs) {
      if (ivr.lo <= q.x && q.x <= ivr.hi) expect++;
    }
    ASSERT_EQ(count_by_id[q.id], expect) << "query " << q.id;
  }
}

TEST(BatchedStabbing, CountingCostIsOutputIndependent) {
  // Dense instance: Z ~ N*Q/4 pairs, but counting must stay ~Sort(N).
  MemoryBlockDevice dev(kBlock);
  const size_t kN = 20000;
  std::vector<Interval> ivs;
  std::vector<StabQuery> qs;
  Rng rng(14);
  for (size_t i = 0; i < kN; ++i) {
    ivs.push_back({0.0, 50 + rng.NextDouble() * 50, i});  // huge overlap
    qs.push_back({rng.NextDouble() * 100, i});
  }
  ExtVector<Interval> iv(&dev);
  ExtVector<StabQuery> qv(&dev);
  ASSERT_TRUE(iv.AppendAll(ivs.data(), ivs.size()).ok());
  ASSERT_TRUE(qv.AppendAll(qs.data(), qs.size()).ok());
  ExtVector<StabCount> counts(&dev);
  IoProbe probe(dev);
  ASSERT_TRUE(BatchedStabbingCount(iv, qv, &counts, kOpts).ok());
  // Far below Z/B ~ kN*kN/2/32; a small multiple of Sort(N) blocks.
  uint64_t n_blocks = kN * sizeof(Interval) / kBlock;
  EXPECT_LT(probe.delta().block_ios(), 30 * n_blocks);
}

// ---------------------------------------------------------------- Dominance

struct DomCase {
  size_t np, nq;
  uint64_t seed;
};

class DominanceSweep : public ::testing::TestWithParam<DomCase> {};

TEST_P(DominanceSweep, MatchesBruteForce) {
  const DomCase& c = GetParam();
  MemoryBlockDevice dev(kBlock);
  Rng rng(c.seed);
  std::vector<Point2> ps;
  std::vector<DomQuery> qs;
  for (size_t i = 0; i < c.np; ++i) {
    ps.push_back({rng.NextDouble() * 100, rng.NextDouble() * 100});
  }
  for (size_t i = 0; i < c.nq; ++i) {
    qs.push_back({rng.NextDouble() * 100, rng.NextDouble() * 100, i, 0});
  }
  ExtVector<Point2> pv(&dev);
  ExtVector<DomQuery> qv(&dev);
  ASSERT_TRUE(pv.AppendAll(ps.data(), ps.size()).ok());
  ASSERT_TRUE(qv.AppendAll(qs.data(), qs.size()).ok());
  DominanceCounter dc(&dev, kOpts);
  ExtVector<DomCount> out(&dev);
  ASSERT_TRUE(dc.Run(pv, qv, &out).ok());
  std::vector<DomCount> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), c.nq);
  std::map<uint64_t, uint64_t> by_id;
  for (auto& d : got) by_id[d.id] = d.count;
  for (const auto& q : qs) {
    uint64_t expect = 0;
    for (const auto& p : ps) {
      if (p.x <= q.x && p.y <= q.y) expect++;
    }
    ASSERT_EQ(by_id[q.id], expect) << "query " << q.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, DominanceSweep,
                         ::testing::Values(DomCase{50, 50, 1},
                                           DomCase{2000, 500, 2},
                                           DomCase{5000, 2000, 3},
                                           DomCase{100, 3000, 4}));

TEST(Dominance, DuplicateCoordinatesInclusive) {
  MemoryBlockDevice dev(kBlock);
  std::vector<Point2> ps = {{5, 5}, {5, 5}, {5, 3}, {3, 5}, {7, 7}};
  std::vector<DomQuery> qs = {{5, 5, 0, 0}, {4.999, 5, 1, 0}, {7, 7, 2, 0}};
  ExtVector<Point2> pv(&dev);
  ExtVector<DomQuery> qv(&dev);
  ASSERT_TRUE(pv.AppendAll(ps.data(), ps.size()).ok());
  ASSERT_TRUE(qv.AppendAll(qs.data(), qs.size()).ok());
  DominanceCounter dc(&dev, kOpts);
  ExtVector<DomCount> out(&dev);
  ASSERT_TRUE(dc.Run(pv, qv, &out).ok());
  std::vector<DomCount> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  std::map<uint64_t, uint64_t> by_id;
  for (auto& d : got) by_id[d.id] = d.count;
  EXPECT_EQ(by_id[0], 4u);
  EXPECT_EQ(by_id[1], 1u);
  EXPECT_EQ(by_id[2], 5u);
}

TEST(Dominance, AllPointsSameX) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(20);
  std::vector<Point2> ps;
  std::vector<DomQuery> qs;
  for (size_t i = 0; i < 3000; ++i) {
    ps.push_back({42.0, rng.NextDouble() * 100});
    qs.push_back({rng.NextDouble() * 100, rng.NextDouble() * 100, i, 0});
  }
  ExtVector<Point2> pv(&dev);
  ExtVector<DomQuery> qv(&dev);
  ASSERT_TRUE(pv.AppendAll(ps.data(), ps.size()).ok());
  ASSERT_TRUE(qv.AppendAll(qs.data(), qs.size()).ok());
  DominanceCounter dc(&dev, kOpts);
  ExtVector<DomCount> out(&dev);
  ASSERT_TRUE(dc.Run(pv, qv, &out).ok());
  std::vector<DomCount> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  std::map<uint64_t, uint64_t> by_id;
  for (auto& d : got) by_id[d.id] = d.count;
  for (const auto& q : qs) {
    uint64_t expect = 0;
    for (const auto& p : ps) {
      if (p.x <= q.x && p.y <= q.y) expect++;
    }
    ASSERT_EQ(by_id[q.id], expect);
  }
}

}  // namespace
}  // namespace vem
