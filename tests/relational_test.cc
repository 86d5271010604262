// Tests for relational operators: sort-merge join and group-by.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/relational.h"
#include "io/memory_block_device.h"
#include "util/options.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 256;
const Options kOpts{.memory_budget = 4096};  // M; B comes from the device

struct OrderRow {
  uint64_t order_id;
  uint64_t cust;
};
struct CustRow {
  uint64_t cust;
  uint32_t region;
};
struct JoinedRow {
  uint64_t order_id;
  uint64_t cust;
  uint32_t region;
  bool operator<(const JoinedRow& o) const {
    if (order_id != o.order_id) return order_id < o.order_id;
    if (cust != o.cust) return cust < o.cust;
    return region < o.region;
  }
  bool operator==(const JoinedRow&) const = default;
};

TEST(SortMergeJoin, ManyToOne) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(1);
  const size_t kOrders = 20000, kCust = 500;
  std::vector<OrderRow> orders;
  std::vector<CustRow> custs;
  for (size_t i = 0; i < kOrders; ++i) {
    orders.push_back({i, rng.Uniform(kCust * 2)});  // half dangle
  }
  for (uint64_t c = 0; c < kCust; ++c) {
    custs.push_back({c, static_cast<uint32_t>(c % 5)});
  }
  std::vector<JoinedRow> expect;
  for (const auto& o : orders) {
    if (o.cust < kCust) {
      expect.push_back({o.order_id, o.cust, static_cast<uint32_t>(o.cust % 5)});
    }
  }
  std::sort(expect.begin(), expect.end());

  ExtVector<OrderRow> ov(&dev);
  ExtVector<CustRow> cv(&dev);
  ASSERT_TRUE(ov.AppendAll(orders.data(), orders.size()).ok());
  ASSERT_TRUE(cv.AppendAll(custs.data(), custs.size()).ok());
  ExtVector<JoinedRow> out(&dev);
  Status s = SortMergeJoin<OrderRow, CustRow, JoinedRow, uint64_t>(
      ov, cv, &out, kOpts,
      [](const OrderRow& o) { return o.cust; },
      [](const CustRow& c) { return c.cust; },
      [](const OrderRow& o, const CustRow& c) {
        return JoinedRow{o.order_id, o.cust, c.region};
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::vector<JoinedRow> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

TEST(SortMergeJoin, ManyToManyCrossProductPerKey) {
  MemoryBlockDevice dev(kBlock);
  // Keys with multiplicities: left {k:2, j:1}, right {k:3, m:2}.
  std::vector<OrderRow> left = {{1, 7}, {2, 7}, {3, 9}};
  std::vector<CustRow> right = {{7, 70}, {7, 71}, {7, 72}, {8, 80}, {8, 81}};
  ExtVector<OrderRow> lv(&dev);
  ExtVector<CustRow> rv(&dev);
  ASSERT_TRUE(lv.AppendAll(left.data(), left.size()).ok());
  ASSERT_TRUE(rv.AppendAll(right.data(), right.size()).ok());
  ExtVector<JoinedRow> out(&dev);
  Status s = SortMergeJoin<OrderRow, CustRow, JoinedRow, uint64_t>(
      lv, rv, &out, kOpts,
      [](const OrderRow& o) { return o.cust; },
      [](const CustRow& c) { return c.cust; },
      [](const OrderRow& o, const CustRow& c) {
        return JoinedRow{o.order_id, o.cust, c.region};
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(out.size(), 6u);  // 2 left rows x 3 right rows for key 7
}

TEST(SortMergeJoin, EmptySides) {
  MemoryBlockDevice dev(kBlock);
  ExtVector<OrderRow> lv(&dev);
  ExtVector<CustRow> rv(&dev);
  std::vector<CustRow> right = {{7, 70}};
  ASSERT_TRUE(rv.AppendAll(right.data(), right.size()).ok());
  ExtVector<JoinedRow> out(&dev);
  Status s = SortMergeJoin<OrderRow, CustRow, JoinedRow, uint64_t>(
      lv, rv, &out, kOpts,
      [](const OrderRow& o) { return o.cust; },
      [](const CustRow& c) { return c.cust; },
      [](const OrderRow& o, const CustRow& c) {
        return JoinedRow{o.order_id, o.cust, c.region};
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(out.size(), 0u);
}

struct SaleRow {
  uint32_t region;
  double amount;
};
struct RegionStat {
  uint32_t region;
  uint64_t count;
  double total;
};

TEST(GroupByAggregate, SumAndCountPerKey) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(2);
  std::vector<SaleRow> sales;
  std::map<uint32_t, std::pair<uint64_t, double>> expect;
  for (int i = 0; i < 30000; ++i) {
    uint32_t region = static_cast<uint32_t>(rng.Uniform(17));
    double amount = std::floor(rng.NextDouble() * 100) / 4;
    sales.push_back({region, amount});
    expect[region].first++;
    expect[region].second += amount;
  }
  ExtVector<SaleRow> sv(&dev);
  ASSERT_TRUE(sv.AppendAll(sales.data(), sales.size()).ok());
  ExtVector<RegionStat> out(&dev);
  struct Acc {
    uint64_t count;
    double total;
  };
  Status s = GroupByAggregate<SaleRow, uint32_t, Acc, RegionStat>(
      sv, &out, kOpts,
      [](const SaleRow& r) { return r.region; },
      [](const uint32_t&) { return Acc{0, 0.0}; },
      [](Acc* a, const SaleRow& r) {
        a->count++;
        a->total += r.amount;
      },
      [](const uint32_t& k, const Acc& a) {
        return RegionStat{k, a.count, a.total};
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::vector<RegionStat> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), expect.size());
  for (const auto& rs : got) {
    auto it = expect.find(rs.region);
    ASSERT_NE(it, expect.end());
    EXPECT_EQ(rs.count, it->second.first);
    EXPECT_DOUBLE_EQ(rs.total, it->second.second);
  }
  // Output is in key order (sorted group-by invariant).
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1].region, got[i].region);
  }
}

TEST(GroupByAggregate, SingleKeyAndEmpty) {
  MemoryBlockDevice dev(kBlock);
  ExtVector<SaleRow> empty(&dev);
  ExtVector<RegionStat> out(&dev);
  struct Acc {
    uint64_t c;
  };
  auto run = [&](const ExtVector<SaleRow>& in, ExtVector<RegionStat>* o) {
    return GroupByAggregate<SaleRow, uint32_t, Acc, RegionStat>(
        in, o, kOpts, [](const SaleRow& r) { return r.region; },
        [](const uint32_t&) { return Acc{0}; },
        [](Acc* a, const SaleRow&) { a->c++; },
        [](const uint32_t& k, const Acc& a) {
          return RegionStat{k, a.c, 0};
        });
  };
  ASSERT_TRUE(run(empty, &out).ok());
  EXPECT_EQ(out.size(), 0u);
  ExtVector<SaleRow> one(&dev);
  std::vector<SaleRow> rows(100, SaleRow{5, 1.0});
  ASSERT_TRUE(one.AppendAll(rows.data(), rows.size()).ok());
  ExtVector<RegionStat> out2(&dev);
  ASSERT_TRUE(run(one, &out2).ok());
  ASSERT_EQ(out2.size(), 1u);
  std::vector<RegionStat> got;
  ASSERT_TRUE(out2.ReadAll(&got).ok());
  EXPECT_EQ(got[0].region, 5u);
  EXPECT_EQ(got[0].count, 100u);
}

}  // namespace
}  // namespace vem
