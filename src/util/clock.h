// The one clock type: a monotonic nanosecond reading.
//
// Every layer that times something (the prefetch governor's stall and
// waste windows, the memory arbiter's reclaim pacing, the retry plane's
// deadlines, the engine's per-disk latency, the forecast merge's wait
// classes) reads SteadyNowNs by default and accepts a Clock in its place,
// so a test can substitute a fake clock and drive time by hand.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

namespace vem {

/// A monotonic time source in nanoseconds.
using Clock = std::function<uint64_t()>;

/// std::chrono::steady_clock in nanoseconds since its epoch.
inline uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace vem
