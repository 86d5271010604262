// Scientific-computing scenario: spectral analysis of a signal that does
// not fit in memory, using the out-of-core six-step FFT.
//
// A long sensor recording (synthesized: three tones + noise) is streamed
// to disk, transformed with the external FFT under a small memory
// budget, and the dominant frequencies are recovered with one scan over
// the spectrum — every stage scan- or transpose-bounded.
//
// Build & run:  cmake --build build && ./build/example_signal_spectrum
#include <cmath>
#include <cstdio>

#include "io/memory_block_device.h"
#include "sort/fft.h"
#include "util/options.h"
#include "util/random.h"

using namespace vem;

int main() {
  constexpr size_t kBlockBytes = 4096;
  constexpr size_t kMemoryBytes = 256 * 1024;  // M = 16K complex samples
  const Options kOpts{.memory_budget = kMemoryBytes};
  const size_t kN = 1 << 20;                   // 1M samples = 16 MiB signal
  MemoryBlockDevice disk(kBlockBytes);

  // 1. Synthesize and stream the recording to disk: tones at bins 4242,
  //    77777, 300000 plus white noise.
  const size_t kTones[] = {4242, 77777, 300000};
  const double kAmps[] = {3.0, 2.0, 1.5};
  ExtVector<Complex> signal(&disk);
  {
    Rng rng(123);
    ExtVector<Complex>::Writer w(&signal);
    for (size_t i = 0; i < kN; ++i) {
      double s = 0;
      for (int t = 0; t < 3; ++t) {
        s += kAmps[t] * std::cos(2.0 * std::numbers::pi *
                                 static_cast<double>(kTones[t] * i % kN) /
                                 static_cast<double>(kN));
      }
      s += rng.NextDouble() - 0.5;  // noise
      if (!w.Append(Complex{s, 0})) return 1;
    }
    if (!w.Finish().ok()) return 1;
  }
  std::printf("signal: %zu samples (%zu MiB) on disk, memory budget %zu KiB\n",
              kN, kN * sizeof(Complex) >> 20, kMemoryBytes >> 10);

  // 2. External FFT.
  ExtVector<Complex> spectrum(&disk);
  {
    IoProbe probe(disk);
    ExternalFft fft(&disk, kOpts);
    Status s = fft.Forward(signal, &spectrum);
    if (!s.ok()) {
      std::printf("FFT failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("six-step FFT: %llu block I/Os (%.1f N/B passes)\n",
                static_cast<unsigned long long>(probe.delta().block_ios()),
                static_cast<double>(probe.delta().block_ios()) /
                    (kN / (kBlockBytes / sizeof(Complex))));
  }

  // 3. One scan over the half-spectrum: find the top peaks.
  struct Peak {
    double power;
    size_t bin;
  };
  Peak best[5] = {};
  {
    ExtVector<Complex>::Reader r(&spectrum);
    Complex c;
    size_t bin = 0;
    while (bin < kN / 2 && r.Next(&c)) {
      double p = c.re * c.re + c.im * c.im;
      // Insert into the tiny top-5 list, skipping adjacent leakage bins.
      for (int i = 0; i < 5; ++i) {
        if (p > best[i].power) {
          bool adjacent = false;
          for (int j = 0; j < i; ++j) {
            size_t d = best[j].bin > bin ? best[j].bin - bin : bin - best[j].bin;
            if (d < 3) adjacent = true;
          }
          if (!adjacent) {
            for (int j = 4; j > i; --j) best[j] = best[j - 1];
            best[i] = {p, bin};
          }
          break;
        }
      }
      bin++;
    }
  }
  std::printf("\ndominant frequency bins (expected 4242, 77777, 300000):\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  bin %7zu  amplitude %.2f\n", best[i].bin,
                2.0 * std::sqrt(best[i].power) / kN);
  }
  std::printf("\ntotal I/O bill: %s\n", disk.stats().ToString().c_str());
  return 0;
}
