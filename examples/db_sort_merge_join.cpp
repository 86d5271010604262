// Database scenario ("external sort in every database engine"): a
// sort-merge equi-join of two tables that do not fit in memory, plus a
// buffer-tree-backed index maintained under a bulk update stream.
//
// orders(order_id, customer_id)  JOIN  customers(customer_id, region)
// Both tables are externally sorted on the join key, then merged in one
// co-scan — the textbook Sort(N) + Sort(M) + Scan join every engine
// implements.
//
// Build & run:  cmake --build build && ./build/example_db_sort_merge_join
#include <cstdio>

#include "core/ext_vector.h"
#include "io/memory_block_device.h"
#include "search/buffer_tree.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/random.h"

using namespace vem;

namespace {

struct Order {
  uint64_t order_id;
  uint64_t customer_id;
};
struct Customer {
  uint64_t customer_id;
  uint32_t region;
};
struct Joined {
  uint64_t order_id;
  uint64_t customer_id;
  uint32_t region;
};

}  // namespace

int main() {
  constexpr size_t kBlockBytes = 4096;
  constexpr size_t kMemoryBytes = 128 * 1024;
  const Options kOpts{.memory_budget = kMemoryBytes};
  const size_t kOrders = 400000, kCustomers = 50000;
  MemoryBlockDevice disk(kBlockBytes);

  // 1. Load the tables (unsorted arrival order, as from an OLTP log).
  ExtVector<Order> orders(&disk);
  ExtVector<Customer> customers(&disk);
  {
    Rng rng(11);
    ExtVector<Order>::Writer ow(&orders);
    for (size_t i = 0; i < kOrders; ++i) {
      ow.Append(Order{i, rng.Uniform(kCustomers)});
    }
    if (!ow.Finish().ok()) return 1;
    ExtVector<Customer>::Writer cw(&customers);
    std::vector<uint64_t> ids(kCustomers);
    for (size_t i = 0; i < kCustomers; ++i) ids[i] = i;
    rng.Shuffle(&ids);
    for (size_t i = 0; i < kCustomers; ++i) {
      cw.Append(Customer{ids[i], static_cast<uint32_t>(ids[i] % 7)});
    }
    if (!cw.Finish().ok()) return 1;
  }
  std::printf("orders: %zu rows, customers: %zu rows\n", orders.size(),
              customers.size());

  // 2. Sort both on customer_id.
  IoProbe join_probe(disk);
  auto by_cust_o = [](const Order& a, const Order& b) {
    return a.customer_id < b.customer_id;
  };
  auto by_cust_c = [](const Customer& a, const Customer& b) {
    return a.customer_id < b.customer_id;
  };
  ExtVector<Order> orders_sorted(&disk);
  ExtVector<Customer> customers_sorted(&disk);
  if (!ExternalSort<Order, decltype(by_cust_o)>(orders, &orders_sorted,
                                                kOpts, by_cust_o)
           .ok()) {
    return 1;
  }
  if (!ExternalSort<Customer, decltype(by_cust_c)>(
           customers, &customers_sorted, kOpts, by_cust_c)
           .ok()) {
    return 1;
  }

  // 3. Merge co-scan (many orders per customer; customers are unique).
  ExtVector<Joined> result(&disk);
  uint64_t region_histogram[7] = {0};
  {
    ExtVector<Order>::Reader orr(&orders_sorted);
    ExtVector<Customer>::Reader cr(&customers_sorted);
    ExtVector<Joined>::Writer w(&result);
    Order o;
    Customer c{};
    bool have_c = cr.Next(&c);
    while (orr.Next(&o)) {
      while (have_c && c.customer_id < o.customer_id) have_c = cr.Next(&c);
      if (have_c && c.customer_id == o.customer_id) {
        w.Append(Joined{o.order_id, o.customer_id, c.region});
        region_histogram[c.region]++;
      }
    }
    if (!w.Finish().ok()) return 1;
  }
  std::printf("join produced %zu rows in %llu I/Os\n", result.size(),
              static_cast<unsigned long long>(join_probe.delta().block_ios()));
  std::printf("orders per region:");
  for (int r = 0; r < 7; ++r) {
    std::printf(" r%d=%llu", r,
                static_cast<unsigned long long>(region_histogram[r]));
  }
  std::printf("\n");

  // 4. Maintain a secondary index under a bulk update stream with a
  //    buffer tree (the write-optimized path).
  BufferTree<uint64_t, uint64_t> index(&disk, kOpts);
  {
    IoProbe probe(disk);
    ExtVector<Joined>::Reader r(&result);
    Joined j;
    while (r.Next(&j)) index.Insert(j.order_id, j.customer_id);
    // A wave of cancellations: every 10th order is deleted.
    for (uint64_t id = 0; id < kOrders; id += 10) index.Delete(id);
    if (!index.FlushAll().ok()) return 1;
    std::printf(
        "index: %zu buffered ops applied in %llu I/Os (%.4f I/O per op)\n",
        index.ops_accepted(),
        static_cast<unsigned long long>(probe.delta().block_ios()),
        static_cast<double>(probe.delta().block_ios()) /
            index.ops_accepted());
  }
  uint64_t cust;
  bool found;
  if (!index.Query(12345, &cust, &found).ok()) return 1;
  std::printf("order 12345 -> %s\n",
              found ? ("customer " + std::to_string(cust)).c_str()
                    : "cancelled");
  if (!index.Query(12340, &cust, &found).ok()) return 1;
  std::printf("order 12340 -> %s (every 10th was cancelled)\n",
              found ? "customer" : "cancelled");
  return 0;
}
