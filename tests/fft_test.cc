// Tests for the out-of-core six-step FFT.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "io/memory_block_device.h"
#include "sort/fft.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 512;  // 32 Complex per block
const Options kOpts{.memory_budget = 4096};  // 256 Complex: external n > 256

// Reference O(N^2) DFT.
std::vector<Complex> NaiveDft(const std::vector<Complex>& x, bool inverse) {
  const size_t n = x.size();
  std::vector<Complex> out(n);
  for (size_t k = 0; k < n; ++k) {
    Complex acc{0, 0};
    for (size_t i = 0; i < n; ++i) {
      double angle = 2.0 * std::numbers::pi * static_cast<double>(i * k % n) /
                     static_cast<double>(n);
      if (!inverse) angle = -angle;
      acc = acc + x[i] * Complex{std::cos(angle), std::sin(angle)};
    }
    if (inverse) {
      acc.re /= static_cast<double>(n);
      acc.im /= static_cast<double>(n);
    }
    out[k] = acc;
  }
  return out;
}

void ExpectClose(const std::vector<Complex>& a, const std::vector<Complex>& b,
                 double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i].re, b[i].re, tol) << "re at " << i;
    ASSERT_NEAR(a[i].im, b[i].im, tol) << "im at " << i;
  }
}

std::vector<Complex> RandomSignal(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> x(n);
  for (auto& c : x) {
    c.re = rng.NextDouble() * 2 - 1;
    c.im = rng.NextDouble() * 2 - 1;
  }
  return x;
}

class FftSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(FftSweep, MatchesNaiveDft) {
  const size_t n = GetParam();
  MemoryBlockDevice dev(kBlock);
  auto x = RandomSignal(n, n);
  auto expect = NaiveDft(x, false);
  ExtVector<Complex> in(&dev), out(&dev);
  ASSERT_TRUE(in.AppendAll(x.data(), x.size()).ok());
  ExternalFft fft(&dev, kOpts);
  ASSERT_TRUE(fft.Forward(in, &out).ok());
  std::vector<Complex> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  ExpectClose(got, expect, 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSweep,
                         ::testing::Values(1, 2, 8, 64, 256, 512, 1024, 4096));

TEST(ExternalFft, RoundTripLargeSignal) {
  const size_t n = 1 << 16;  // well beyond the 4 KiB memory budget
  MemoryBlockDevice dev(kBlock);
  auto x = RandomSignal(n, 9);
  ExtVector<Complex> in(&dev), freq(&dev), back(&dev);
  ASSERT_TRUE(in.AppendAll(x.data(), x.size()).ok());
  ExternalFft fft(&dev, Options{.memory_budget = 8192});
  ASSERT_TRUE(fft.Forward(in, &freq).ok());
  ASSERT_TRUE(fft.Inverse(freq, &back).ok());
  std::vector<Complex> got;
  ASSERT_TRUE(back.ReadAll(&got).ok());
  ExpectClose(got, x, 1e-9 * n);
}

TEST(ExternalFft, ImpulseGivesFlatSpectrum) {
  const size_t n = 1 << 12;
  MemoryBlockDevice dev(kBlock);
  std::vector<Complex> x(n);
  x[0] = {1, 0};
  ExtVector<Complex> in(&dev), out(&dev);
  ASSERT_TRUE(in.AppendAll(x.data(), x.size()).ok());
  ExternalFft fft(&dev, kOpts);
  ASSERT_TRUE(fft.Forward(in, &out).ok());
  std::vector<Complex> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  for (size_t k = 0; k < n; ++k) {
    ASSERT_NEAR(got[k].re, 1.0, 1e-9);
    ASSERT_NEAR(got[k].im, 0.0, 1e-9);
  }
}

TEST(ExternalFft, PureToneGivesSingleBin) {
  const size_t n = 1 << 12;
  const size_t bin = 37;
  MemoryBlockDevice dev(kBlock);
  std::vector<Complex> x(n);
  for (size_t i = 0; i < n; ++i) {
    double angle = 2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                   static_cast<double>(n);
    x[i] = {std::cos(angle), std::sin(angle)};
  }
  ExtVector<Complex> in(&dev), out(&dev);
  ASSERT_TRUE(in.AppendAll(x.data(), x.size()).ok());
  ExternalFft fft(&dev, kOpts);
  ASSERT_TRUE(fft.Forward(in, &out).ok());
  std::vector<Complex> got;
  ASSERT_TRUE(out.ReadAll(&got).ok());
  for (size_t k = 0; k < n; ++k) {
    double expect = (k == bin) ? static_cast<double>(n) : 0.0;
    ASSERT_NEAR(got[k].re, expect, 1e-6) << "bin " << k;
    ASSERT_NEAR(got[k].im, 0.0, 1e-6) << "bin " << k;
  }
}

TEST(ExternalFft, RejectsNonPowerOfTwo) {
  MemoryBlockDevice dev(kBlock);
  std::vector<Complex> x(100);
  ExtVector<Complex> in(&dev), out(&dev);
  ASSERT_TRUE(in.AppendAll(x.data(), x.size()).ok());
  ExternalFft fft(&dev, kOpts);
  EXPECT_TRUE(fft.Forward(in, &out).IsInvalidArgument());
}

TEST(ExternalFft, AgreesWithPagedBaseline) {
  const size_t n = 1 << 12;
  MemoryBlockDevice dev(kBlock);
  BufferPool pool(&dev, 16);
  auto x = RandomSignal(n, 13);
  ExtVector<Complex> in(&dev), out(&dev);
  ASSERT_TRUE(in.AppendAll(x.data(), x.size()).ok());
  ExternalFft fft(&dev, kOpts);
  ASSERT_TRUE(fft.Forward(in, &out).ok());

  ExtVector<Complex> paged(&dev, &pool);
  ASSERT_TRUE(paged.AppendAll(x.data(), x.size()).ok());
  ASSERT_TRUE(FftPagedBaseline(&paged, false).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  std::vector<Complex> a, b;
  ASSERT_TRUE(out.ReadAll(&a).ok());
  ASSERT_TRUE(paged.ReadAll(&b).ok());
  ExpectClose(a, b, 1e-8 * n);
}

TEST(ExternalFft, SixStepIoIsScanBounded) {
  // The whole six-step pipeline is a constant number of Θ(N/B) passes.
  const size_t n = 1 << 16;
  MemoryBlockDevice dev(kBlock);
  auto x = RandomSignal(n, 21);
  ExtVector<Complex> in(&dev), out(&dev);
  ASSERT_TRUE(in.AppendAll(x.data(), x.size()).ok());
  const size_t kB = kBlock / sizeof(Complex);
  ExternalFft fft(&dev, Options{.memory_budget = 64 * 1024});  // M >= B^2
  IoProbe probe(dev);
  ASSERT_TRUE(fft.Forward(in, &out).ok());
  uint64_t ios = probe.delta().block_ios();
  EXPECT_LT(ios, 30 * n / kB) << "not scan-bounded";
}

}  // namespace
}  // namespace vem
