// Quickstart: the 5-minute tour of the library.
//
// Creates a simulated disk, writes data bigger than "memory", sorts it
// externally, builds a B+-tree index, and prints the exact I/O bill for
// each step — the numbers the PDM cost model predicts.
//
// Build & run:  cmake --build build && ./build/example_quickstart
#include <cstdio>

#include "core/ext_vector.h"
#include "io/memory_block_device.h"
#include "search/bplus_tree.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/random.h"

using namespace vem;

int main() {
  // The machine: 4 KiB blocks, 64 KiB of internal memory. In PDM terms
  // (for u64 items): B = 512, M = 8192.
  constexpr size_t kBlockBytes = 4096;
  constexpr size_t kMemoryBytes = 64 * 1024;
  const Options kOpts{.memory_budget = kMemoryBytes};
  MemoryBlockDevice disk(kBlockBytes);

  // 1. Write 1M random integers (16x larger than memory).
  const size_t kN = 1u << 20;
  ExtVector<uint64_t> data(&disk);
  {
    Rng rng(2024);
    ExtVector<uint64_t>::Writer writer(&data);
    for (size_t i = 0; i < kN; ++i) writer.Append(rng.Next() % 1000000);
    if (!writer.Finish().ok()) return 1;
  }
  std::printf("wrote %zu items: %llu block writes (N/B = %zu)\n", kN,
              static_cast<unsigned long long>(disk.stats().block_writes),
              kN / (kBlockBytes / sizeof(uint64_t)));

  // 2. External merge sort under the 64 KiB budget.
  ExtVector<uint64_t> sorted(&disk);
  {
    IoProbe probe(disk);
    ExternalSorter<uint64_t> sorter(&disk, kOpts);
    if (!sorter.Sort(data, &sorted).ok()) return 1;
    std::printf(
        "sorted with %zu-way merge, %zu pass(es): %llu I/Os "
        "(Sort(N) = 2*(N/B)*(passes+1))\n",
        sorter.fan_in(), sorter.metrics().merge_passes,
        static_cast<unsigned long long>(probe.delta().block_ios()));
  }

  // 3. Build a B+-tree and run point queries at Theta(log_B N) I/Os.
  BufferPool pool(&disk, kMemoryBytes / kBlockBytes);
  BPlusTree<uint64_t, uint64_t> index(&pool);
  if (!index.Init().ok()) return 1;
  {
    ExtVector<uint64_t>::Reader r(&sorted);
    uint64_t v;
    uint64_t pos = 0;
    while (r.Next(&v)) index.Insert(v, pos++);
  }
  std::printf("indexed %zu keys, tree height %zu\n", index.size(),
              index.height());
  {
    IoProbe probe(disk);
    uint64_t where;
    Status st = index.Get(424242 % 1000000, &where);
    std::printf("point query: %s, %llu I/Os (height bound = %zu)\n",
                st.ok() ? "hit" : "miss",
                static_cast<unsigned long long>(probe.delta().block_reads),
                index.height());
  }

  // 4. Range scan: Theta(log_B N + Z/B) I/Os.
  {
    IoProbe probe(disk);
    size_t reported = 0;
    index.Scan(100000, 101000, [&](const uint64_t&, const uint64_t&) {
      reported++;
      return true;
    });
    std::printf("range scan reported %zu pairs in %llu I/Os\n", reported,
                static_cast<unsigned long long>(probe.delta().block_reads));
  }
  std::printf("done; peak disk usage %llu blocks\n",
              static_cast<unsigned long long>(disk.peak_allocated()));
  return 0;
}
