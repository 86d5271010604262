// Tests for external string sorting and suffix array construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "io/memory_block_device.h"
#include "string/string_sort.h"
#include "string/suffix_array.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 256;
constexpr size_t kMem = 4096;
const Options kOpts{.memory_budget = kMem};

Status BuildCorpus(const std::vector<std::string>& strings,
                   StringCorpus* corpus) {
  for (const auto& s : strings) {
    VEM_RETURN_IF_ERROR(corpus->Add(s));
  }
  return corpus->Finalize();
}

void CheckSorted(const std::vector<std::string>& strings,
                 MemoryBlockDevice* dev) {
  StringCorpus corpus(dev);
  ASSERT_TRUE(BuildCorpus(strings, &corpus).ok());
  ASSERT_EQ(corpus.size(), strings.size());
  ExternalStringSort sorter(dev, kOpts);
  ExtVector<uint64_t> ids(dev);
  ASSERT_TRUE(sorter.Sort(corpus, &ids).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(ids.ReadAll(&got).ok());
  ASSERT_EQ(got.size(), strings.size());
  // Expected: stable sort of indices by string value.
  std::vector<uint64_t> expect(strings.size());
  std::iota(expect.begin(), expect.end(), 0);
  std::stable_sort(expect.begin(), expect.end(),
                   [&](uint64_t a, uint64_t b) {
                     if (strings[a] != strings[b]) return strings[a] < strings[b];
                     return a < b;  // ties by id (our sorter's rule)
                   });
  EXPECT_EQ(got, expect);
}

TEST(StringSort, BasicWords) {
  MemoryBlockDevice dev(kBlock);
  CheckSorted({"banana", "apple", "cherry", "date", "apricot"}, &dev);
}

TEST(StringSort, PrefixesAndDuplicates) {
  MemoryBlockDevice dev(kBlock);
  CheckSorted({"abc", "ab", "abcd", "abc", "a", "", "ab", "abcde"}, &dev);
}

TEST(StringSort, LongSharedPrefixesNeedManyRounds) {
  MemoryBlockDevice dev(kBlock);
  std::string common(100, 'x');
  std::vector<std::string> strings;
  for (int i = 0; i < 50; ++i) {
    strings.push_back(common + std::string(1, 'a' + (i * 7) % 26) +
                      std::to_string(i));
  }
  StringCorpus corpus(&dev);
  ASSERT_TRUE(BuildCorpus(strings, &corpus).ok());
  ExternalStringSort sorter(&dev, kOpts);
  ExtVector<uint64_t> ids(&dev);
  ASSERT_TRUE(sorter.Sort(corpus, &ids).ok());
  EXPECT_GT(sorter.rounds(), 10u);  // 100-byte prefix / 8 bytes per round
  std::vector<uint64_t> got;
  ASSERT_TRUE(ids.ReadAll(&got).ok());
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(strings[got[i - 1]], strings[got[i]]);
  }
}

TEST(StringSort, RandomCorpusMatchesStdSort) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(55);
  std::vector<std::string> strings;
  const char* alphabet = "abcdefg";  // small alphabet => many ties
  for (int i = 0; i < 3000; ++i) {
    size_t len = rng.Uniform(20);
    std::string s;
    for (size_t j = 0; j < len; ++j) s.push_back(alphabet[rng.Uniform(7)]);
    strings.push_back(std::move(s));
  }
  CheckSorted(strings, &dev);
}

TEST(StringSort, RejectsNulBytes) {
  MemoryBlockDevice dev(kBlock);
  StringCorpus corpus(&dev);
  std::string bad("a\0b", 3);
  EXPECT_TRUE(corpus.Add(bad).IsInvalidArgument());
}

TEST(StringCorpus, GetRoundTrip) {
  MemoryBlockDevice dev(kBlock);
  StringCorpus corpus(&dev);
  std::vector<std::string> strings = {"hello", "", "world", "xyz"};
  ASSERT_TRUE(BuildCorpus(strings, &corpus).ok());
  for (size_t i = 0; i < strings.size(); ++i) {
    std::string s;
    ASSERT_TRUE(corpus.Get(i, &s).ok());
    EXPECT_EQ(s, strings[i]);
  }
}

// ---------------------------------------------------------------- SuffixArray

std::vector<uint64_t> ReferenceSuffixArray(const std::string& text) {
  std::vector<uint64_t> sa(text.size());
  std::iota(sa.begin(), sa.end(), 0);
  std::sort(sa.begin(), sa.end(), [&](uint64_t a, uint64_t b) {
    return text.substr(a) < text.substr(b);
  });
  return sa;
}

void CheckSuffixArray(const std::string& text, MemoryBlockDevice* dev) {
  ExtVector<uint8_t> tv(dev);
  ASSERT_TRUE(tv.AppendAll(reinterpret_cast<const uint8_t*>(text.data()),
                           text.size())
                  .ok());
  SuffixArrayBuilder builder(dev, kOpts);
  ExtVector<uint64_t> sa(dev);
  ASSERT_TRUE(builder.Build(tv, &sa).ok());
  std::vector<uint64_t> got;
  ASSERT_TRUE(sa.ReadAll(&got).ok());
  EXPECT_EQ(got, ReferenceSuffixArray(text)) << "text size " << text.size();
}

TEST(SuffixArray, Banana) {
  MemoryBlockDevice dev(kBlock);
  CheckSuffixArray("banana", &dev);
}

TEST(SuffixArray, Mississippi) {
  MemoryBlockDevice dev(kBlock);
  CheckSuffixArray("mississippi", &dev);
}

TEST(SuffixArray, AllSameCharacter) {
  MemoryBlockDevice dev(kBlock);
  CheckSuffixArray(std::string(500, 'a'), &dev);
}

TEST(SuffixArray, PeriodicText) {
  MemoryBlockDevice dev(kBlock);
  std::string t;
  for (int i = 0; i < 200; ++i) t += "abcab";
  CheckSuffixArray(t, &dev);
}

TEST(SuffixArray, RandomTexts) {
  MemoryBlockDevice dev(kBlock);
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    std::string t;
    size_t len = 500 + rng.Uniform(2000);
    for (size_t i = 0; i < len; ++i) {
      t.push_back('a' + static_cast<char>(rng.Uniform(4)));
    }
    CheckSuffixArray(t, &dev);
  }
}

TEST(SuffixArray, EmptyAndSingle) {
  MemoryBlockDevice dev(kBlock);
  CheckSuffixArray("", &dev);
  CheckSuffixArray("z", &dev);
}

TEST(SuffixArray, RoundsAreLogarithmic) {
  MemoryBlockDevice dev(kBlock);
  std::string t;
  Rng rng(88);
  for (int i = 0; i < 8192; ++i) {
    t.push_back('a' + static_cast<char>(rng.Uniform(2)));
  }
  ExtVector<uint8_t> tv(&dev);
  ASSERT_TRUE(tv.AppendAll(reinterpret_cast<const uint8_t*>(t.data()),
                           t.size())
                  .ok());
  SuffixArrayBuilder builder(&dev, kOpts);
  ExtVector<uint64_t> sa(&dev);
  ASSERT_TRUE(builder.Build(tv, &sa).ok());
  EXPECT_LE(builder.rounds(), 14u);  // ceil(log2 8192) = 13 (+1 slack)
}

}  // namespace
}  // namespace vem
