// Text-indexing scenario (the survey's motivating domain): out-of-core
// word frequency analysis over a corpus that exceeds internal memory.
//
// Pipeline: synthesize a Zipf-distributed word stream -> external string
// sort groups equal words together -> one scan aggregates counts ->
// external sort by count finds the top-k. Every stage is scan- or
// sort-bounded; no hash table ever grows beyond M.
//
// Build & run:  cmake --build build && ./build/example_text_wordcount
#include <cstdio>
#include <string>

#include "io/memory_block_device.h"
#include "sort/external_sort.h"
#include "string/string_sort.h"
#include "util/options.h"
#include "util/random.h"

using namespace vem;

namespace {

// Tiny embedded vocabulary; Zipf rank decides frequency.
const char* kVocab[] = {
    "the",    "of",      "and",    "data",     "memory",  "external",
    "block",  "disk",    "sort",   "tree",     "index",   "query",
    "merge",  "scan",    "graph",  "buffer",   "cache",   "page",
    "stream", "suffix",  "string", "geometry", "segment", "interval",
    "matrix", "striped", "vector", "stack",    "queue",   "heap"};
constexpr size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);

}  // namespace

int main() {
  constexpr size_t kBlockBytes = 4096;
  constexpr size_t kMemoryBytes = 64 * 1024;
  const Options kOpts{.memory_budget = kMemoryBytes};
  const size_t kWords = 200000;
  MemoryBlockDevice disk(kBlockBytes);

  // 1. Generate the corpus (on disk, like a crawler would).
  StringCorpus corpus(&disk);
  {
    ZipfGenerator zipf(kVocabSize, 0.8, 7);
    for (size_t i = 0; i < kWords; ++i) {
      if (!corpus.Add(kVocab[zipf.Next() % kVocabSize]).ok()) return 1;
    }
    if (!corpus.Finalize().ok()) return 1;
  }
  std::printf("corpus: %zu words, %llu blocks on disk\n", corpus.size(),
              static_cast<unsigned long long>(disk.num_allocated()));

  // 2. External string sort: equal words become adjacent.
  ExtVector<uint64_t> order(&disk);
  {
    IoProbe probe(disk);
    ExternalStringSort sorter(&disk, kOpts);
    if (!sorter.Sort(corpus, &order).ok()) return 1;
    std::printf("string sort: %llu I/Os, %zu refinement round(s)\n",
                static_cast<unsigned long long>(probe.delta().block_ios()),
                sorter.rounds());
  }

  // 3. Aggregate counts in one scan of the sorted order. Word payloads
  //    are fetched per group head only.
  struct WordCount {
    uint64_t count;
    uint64_t word_id;  // representative id; payload looked up at print
    bool operator<(const WordCount& o) const {
      return count > o.count;  // descending
    }
  };
  ExtVector<WordCount> counts(&disk);
  {
    ExtVector<uint64_t>::Reader r(&order);
    ExtVector<WordCount>::Writer w(&counts);
    uint64_t id;
    std::string prev, cur;
    uint64_t run = 0, rep = 0;
    while (r.Next(&id)) {
      if (!corpus.Get(id, &cur).ok()) return 1;
      if (run > 0 && cur == prev) {
        run++;
        continue;
      }
      if (run > 0) w.Append(WordCount{run, rep});
      prev = cur;
      rep = id;
      run = 1;
    }
    if (run > 0) w.Append(WordCount{run, rep});
    if (!w.Finish().ok()) return 1;
  }

  // 4. Sort groups by count (descending) and print the top 10.
  ExtVector<WordCount> ranked(&disk);
  if (!ExternalSort(counts, &ranked, kOpts).ok()) return 1;
  std::printf("\ntop 10 of %zu distinct words:\n", ranked.size());
  {
    ExtVector<WordCount>::Reader r(&ranked);
    WordCount wc;
    int shown = 0;
    while (shown < 10 && r.Next(&wc)) {
      std::string word;
      if (!corpus.Get(wc.word_id, &word).ok()) return 1;
      std::printf("  %2d. %-10s %8llu\n", ++shown, word.c_str(),
                  static_cast<unsigned long long>(wc.count));
    }
  }
  std::printf("\ntotal I/O bill: %s\n", disk.stats().ToString().c_str());
  return 0;
}
