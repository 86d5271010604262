#include "bench_common.h"

#include <fcntl.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "io/block_device.h"

namespace perfbench {

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void SettleFs(const std::string& dir) {
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

namespace {

/// Loop pread/pwrite until `n` bytes moved; false on error or EOF.
bool FullIo(int fd, bool write, char* buf, size_t n, off_t off) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = write ? pwrite(fd, buf + done, n - done, off + done)
                      : pread(fd, buf + done, n - done, off + done);
    if (r <= 0) return false;
    done += static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

bool MeasureRoofline(const std::string& dir, size_t block, uint64_t bytes,
                     size_t rand_reads, uint64_t seed, Roofline* out) {
  const std::string path = dir + "/roofline.dat";
  int fd = open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_DIRECT, 0644);
  if (fd < 0) return false;
  const uint64_t blocks = std::max<uint64_t>(1, bytes / block);
  vem::IoBuffer buf = vem::AllocIoBuffer(block, /*zeroed=*/true);
  for (size_t i = 0; i < block / 8; ++i) {
    uint64_t w = Mix64(seed + i);
    std::memcpy(buf.get() + i * 8, &w, 8);
  }
  bool ok = true;
  double t0 = NowS();
  for (uint64_t b = 0; ok && b < blocks; ++b) {
    ok = FullIo(fd, true, buf.get(), block, static_cast<off_t>(b * block));
  }
  ok = ok && fdatasync(fd) == 0;
  double t1 = NowS();
  for (uint64_t b = 0; ok && b < blocks; ++b) {
    ok = FullIo(fd, false, buf.get(), block, static_cast<off_t>(b * block));
  }
  double t2 = NowS();
  const uint64_t pages = blocks * block / 4096;
  uint64_t x = seed;
  double t3 = NowS();
  for (size_t i = 0; ok && i < rand_reads; ++i) {
    x = Mix64(x);
    ok = FullIo(fd, false, buf.get(), 4096, static_cast<off_t>((x % pages) * 4096));
  }
  double t4 = NowS();
  close(fd);
  unlink(path.c_str());
  if (!ok) return false;
  const double mb = static_cast<double>(blocks * block) / 1e6;
  out->seq_write_mb_s = mb / (t1 - t0);
  out->seq_read_mb_s = mb / (t2 - t1);
  out->rand_read_us = rand_reads == 0 ? 0 : (t4 - t3) * 1e6 / rand_reads;
  return true;
}

std::string MachineJson(const std::string& dir) {
  utsname u{};
  uname(&u);
  struct statfs sf {};
  std::string fs = "unknown";
  if (statfs(dir.c_str(), &sf) == 0) {
    switch (static_cast<unsigned long>(sf.f_type)) {
      case 0xEF53: fs = "ext4"; break;
      case 0x58465342: fs = "xfs"; break;
      case 0x9123683E: fs = "btrfs"; break;
      case 0x01021994: fs = "tmpfs"; break;
      case 0x794C7630: fs = "overlayfs"; break;
      default: {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%lx",
                      static_cast<unsigned long>(sf.f_type));
        fs = hex;
      }
    }
  }
  return std::string("{\"nproc\": ") + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"kernel\": \"" + u.release + "\", \"filesystem\": \"" + fs +
         "\", \"compiler\": \"" + __VERSION__ + "\"}";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
