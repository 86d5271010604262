// Transport axis for FileBlockDevice tests: the same case runs with no
// engine, with a worker-pool engine and with an io_uring engine, so both
// of the device's executors (syscalls and the ring) meet the same inputs.
// Batch calls are what reach the ring; single-block calls always run on
// syscalls. io_uring instances skip where the kernel or the build lacks
// it.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "io/block_device.h"
#include "io/io_engine.h"
#include "io/io_ring.h"

namespace vem {

enum class Transport { kNoEngine, kWorkerPool, kIoUring };

inline bool TransportUsable(Transport t) {
  return t != Transport::kIoUring ||
         (IoRing::CompiledIn() && IoRing::KernelSupported());
}

/// The engine a transport runs on; null for kNoEngine.
inline std::unique_ptr<IoEngine> MakeTransportEngine(Transport t) {
  if (t == Transport::kNoEngine) return nullptr;
  return std::make_unique<IoEngine>(
      2, /*disk_inflight_cap=*/1,
      t == Transport::kIoUring ? IoBackend::kIoUring : IoBackend::kWorkerPool);
}

inline std::string TransportName(Transport t) {
  switch (t) {
    case Transport::kNoEngine: return "NoEngine";
    case Transport::kWorkerPool: return "WorkerPool";
    case Transport::kIoUring: return "IoUring";
  }
  return "Unknown";
}

inline const auto kAllTransports = ::testing::Values(
    Transport::kNoEngine, Transport::kWorkerPool, Transport::kIoUring);

/// Fixture for a test parameterized by transport alone. A device built in
/// the test body is destroyed before the fixture's engine, as a device
/// registered with a ring must be.
class TransportAxis : public ::testing::TestWithParam<Transport> {
 protected:
  void SetUp() override {
    if (!TransportUsable(GetParam())) {
      GTEST_SKIP() << "io_uring not available on this kernel/build";
    }
    engine_ = MakeTransportEngine(GetParam());
  }
  void Attach(BlockDevice* dev) { dev->set_io_engine(engine_.get()); }

  std::unique_ptr<IoEngine> engine_;
};

inline std::string TransportParamName(
    const ::testing::TestParamInfo<Transport>& info) {
  return TransportName(info.param);
}

}  // namespace vem
