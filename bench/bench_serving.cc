// Experiment G-serving: one machine M served to N concurrent tenants —
// the fixed per-tenant split vs the multi-tenant MemoryArbiter, plus
// the AdmissionController's shed behavior under floor oversubscription.
//
// Latency phase: kTenants worker threads each run kQueries mixed
// queries against their own scratch device — B+-tree probe batches
// (pool-bound), governed full scans (staging-bound) and external sorts
// (both) — phase-staggered per tenant so the machine always has some
// tenants probing while others stream. The FIXED column gives every
// tenant a rigid slice of M split M/2:M/2 between pool frames and
// staging (the pre-serving configuration, N isolated machines). The
// ARBITRATED column runs ONE MemoryArbiter over the same total M with
// each tenant an ExecutionContext holding a TenantLease: proportional-
// share reclaim moves memory toward whichever tenant's phase needs it.
// Reported: p50/p99 across all queries, per column, paired best-of-N.
//
// The PDM serving contract is asserted, not hoped for: each tenant's
// logical IoStats must be BIT-IDENTICAL between the columns — one
// thread per tenant serializes that tenant's op sequence, so its ghost
// charging cannot see its neighbors. Arbitration moves memory and
// tail latency, never a logical I/O charge.
//
// Admission phase: 12 workers hammer a small machine whose per-query
// floors fit only ~4 at a time. Admission ON queues FIFO behind an
// AdmissionController and sheds Busy at a deadline; admission OFF calls
// RegisterTenant raw and sheds on every refusal. Reported: shed rate
// on vs off, plus budget/floor conservation sampled mid-churn.
//
// Emits BENCH_serving.json at the repo root; --smoke runs a reduced
// sweep as a CI gate: bench_util.h's GateRow on the p99 ratio (exit 1 =
// per-tenant IoStats differ, 2 = < 0.95x after one retry), and exit 3
// on admission gauge violations.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "io/file_block_device.h"
#include "io/io_engine.h"
#include "io/memory_arbiter.h"
#include "io/prefetch_governor.h"
#include "search/bplus_tree.h"
#include "serve/admission.h"
#include "serve/execution_context.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/random.h"

using namespace vem;
using namespace vem::bench;

namespace {

constexpr size_t kBlockBytes = 4096;
constexpr size_t kSliceBytes = 1024 * 1024;  // each tenant's M slice
constexpr size_t kTenants = 6;
constexpr size_t kDepth = 8;

size_t g_shift = 0;  // --smoke shrinks the workload

size_t Scaled(size_t n) { return n >> g_shift; }

Options SliceOptions() {
  Options o;
  o.block_size = kBlockBytes;
  o.memory_budget = kSliceBytes;
  o.prefetch_depth = kDepth;
  return o;
}

struct TenantRun {
  IoStats stats;                // logical charges after the build
  std::vector<double> lat_ms;   // one entry per query
  bool ok = false;
};

struct ColumnRun {
  std::vector<TenantRun> tenants;
  double p50_ms = 0, p99_ms = 0;
  bool ok = false;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = std::min(v.size() - 1, size_t(double(v.size()) * p));
  return v[idx];
}

/// One tenant's serving loop: build its index + data set (untimed),
/// wait at the start barrier, then run kQueries mixed queries with
/// per-query latency recorded. The query sequence depends only on the
/// tenant id — never on the column or on the neighbors — which is what
/// makes the cross-column stats-identity assertion meaningful.
void RunTenant(size_t tenant_id, BlockDevice* dev, BufferPool* pool,
               std::atomic<size_t>* barrier, TenantRun* out) {
  const size_t kKeys = Scaled(30000);
  const size_t kScanItems = Scaled(1u << 17);  // 1 MiB of uint64
  const size_t kProbes = Scaled(2000);
  const size_t kQueries = Scaled(48);

  BPlusTree<uint64_t, uint64_t> tree(pool);
  Status st = tree.Init();
  Rng load(500 + tenant_id);
  for (size_t i = 0; st.ok() && i < kKeys; ++i) {
    st = tree.Insert(load.Next(), i);
  }
  ExtVector<uint64_t> data(dev);
  if (st.ok()) {
    ExtVector<uint64_t>::Writer w(&data);
    Rng fill(600 + tenant_id);
    for (size_t i = 0; i < kScanItems; ++i) {
      if (!w.Append(fill.Next())) break;
    }
    st = w.Finish();
  }
  if (!st.ok()) return;

  IoProbe probe(*dev);
  barrier->fetch_add(1);
  while (barrier->load() < kTenants) std::this_thread::yield();

  out->lat_ms.reserve(kQueries);
  for (size_t q = 0; st.ok() && q < kQueries; ++q) {
    auto t0 = std::chrono::steady_clock::now();
    switch ((tenant_id + q) % 3) {
      case 0: {  // probe batch: the index wants frames
        Rng rng(700 + tenant_id * 131 + q);
        uint64_t v;
        for (size_t i = 0; st.ok() && i < kProbes; ++i) {
          Status g = tree.Get(rng.Next(), &v);
          if (!g.ok() && !g.IsNotFound()) st = g;
        }
        break;
      }
      case 1: {  // governed scan: the streams want depth
        ExtVector<uint64_t>::Reader r(&data, 0, kDepth);
        uint64_t x, sum = 0;
        while (r.Next(&x)) sum += x;
        st = r.status();
        if (sum == 42) std::fprintf(stderr, "-");  // keep the scan honest
        break;
      }
      case 2: {  // external sort: run formation + merge, both sides
        ExtVector<uint64_t> sorted(dev);
        st = ExternalSorter<uint64_t>(dev, SliceOptions()).Sort(data, &sorted);
        sorted.Destroy();
        break;
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    out->lat_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  if (st.ok()) st = pool->FlushAll();
  out->stats = probe.delta();
  out->ok = st.ok();
  if (!st.ok()) {
    std::fprintf(stderr, "tenant %zu failed: %s\n", tenant_id,
                 st.ToString().c_str());
  }
}

/// One column: all tenants live at once, memory either rigidly split or
/// arbitrated across one machine M = kTenants * slice.
ColumnRun RunColumn(bool arbitrated, IoEngine* engine, const char* tag) {
  ColumnRun col;
  col.tenants.resize(kTenants);
  Options slice = SliceOptions();

  std::unique_ptr<MemoryArbiter> machine;
  if (arbitrated) {
    MemoryArbiter::Config mcfg = MemoryArbiter::ConfigFromOptions(slice);
    mcfg.budget_bytes = kTenants * kSliceBytes;
    machine = std::make_unique<MemoryArbiter>(mcfg);
    machine->AttachEngine(engine);
  }

  std::atomic<size_t> barrier{0};
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      Options dev_opts;
      dev_opts.block_size = kBlockBytes;
      FileBlockDevice dev("/tmp/vem_bench_serving_" + std::string(tag) + "_" +
                              std::to_string(t) + ".bin",
                          dev_opts);
      if (!dev.valid()) {
        std::fprintf(stderr, "cannot open scratch file for tenant %zu\n", t);
        barrier.fetch_add(1);  // do not deadlock the others
        return;
      }
      if (arbitrated) {
        std::string name = "t";
        name += std::to_string(t);
        auto tenant = machine->RegisterTenant(name, 1.0,
                                              /*min_floor_blocks=*/16);
        ExecutionContext ctx(&dev, slice, machine.get(), std::move(tenant),
                             engine);
        RunTenant(t, &dev, ctx.pool(), &barrier, &col.tenants[t]);
      } else {
        // The pre-serving shape: a rigid slice split M/2:M/2.
        PrefetchGovernor gov(slice);
        dev.set_prefetch_governor(&gov);
        BufferPool pool(&dev, kSliceBytes / 2 / kBlockBytes);
        dev.set_io_engine(engine);
        RunTenant(t, &dev, &pool, &barrier, &col.tenants[t]);
        dev.set_io_engine(nullptr);
        dev.set_prefetch_governor(nullptr);
      }
    });
  }
  for (auto& th : threads) th.join();

  col.ok = true;
  std::vector<double> all;
  for (const TenantRun& tr : col.tenants) {
    col.ok = col.ok && tr.ok;
    all.insert(all.end(), tr.lat_ms.begin(), tr.lat_ms.end());
  }
  col.p50_ms = Percentile(all, 0.50);
  col.p99_ms = Percentile(all, 0.99);
  return col;
}

struct Paired {
  ColumnRun fixed, arbitrated;

  bool identical() const {  // per tenant: its op sequence is its own
    for (size_t t = 0; t < kTenants; ++t) {
      if (!(fixed.tenants[t].stats == arbitrated.tenants[t].stats)) {
        return false;
      }
    }
    return true;
  }
  std::pair<double, double> timed() const {
    return {fixed.p99_ms, arbitrated.p99_ms};
  }
};

struct AdmissionRun {
  uint64_t attempts = 0, admitted = 0, shed = 0;
  bool conservation_ok = true;
};

/// Overload phase: floors of 16 on a 64-block machine admit ~4 workers
/// at a time; 12 workers keep arriving. `use_controller` queues+sheds
/// through the AdmissionController; otherwise raw RegisterTenant
/// refusals shed on the spot.
AdmissionRun RunAdmission(bool use_controller) {
  MemoryArbiter::Config cfg;
  cfg.budget_bytes = 64 * kBlockBytes;
  cfg.block_size = kBlockBytes;
  MemoryArbiter arb(cfg);
  AdmissionController::Config acfg;
  acfg.max_queue = 6;
  AdmissionController ctrl(&arb, acfg);

  constexpr int kWorkers = 12;
  const int kAttempts = int(Scaled(40));
  AdmissionRun run;
  std::atomic<uint64_t> admitted{0}, shed{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::string name = "w";
      name += std::to_string(w);
      for (int i = 0; i < kAttempts; ++i) {
        AdmissionTicket ticket;
        std::unique_ptr<TenantLease> raw;
        TenantLease* tenant = nullptr;
        if (use_controller) {
          Status s = ctrl.Admit(name, 1.0, 16,
                                /*deadline_ns=*/2'000'000, &ticket);
          if (s.IsBusy()) {
            shed.fetch_add(1);
            continue;
          }
          if (!s.ok()) continue;
          tenant = ticket.tenant();
        } else {
          raw = arb.RegisterTenant(name, 1.0, 16);
          if (raw == nullptr) {
            shed.fetch_add(1);
            continue;
          }
          tenant = raw.get();
        }
        admitted.fetch_add(1);
        // Hold the floor briefly with a real lease against it.
        auto lease = arb.LeasePool(16, tenant);
        if (arb.charged_blocks() > arb.total_blocks() ||
            arb.floor_reserved_blocks() > arb.total_blocks()) {
          violated = true;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  for (int probe = 0; probe < 500; ++probe) {
    if (arb.charged_blocks() > arb.total_blocks() ||
        arb.floor_reserved_blocks() > arb.total_blocks()) {
      violated = true;
    }
    std::this_thread::yield();
  }
  for (auto& th : workers) th.join();
  run.attempts = uint64_t(kWorkers) * uint64_t(kAttempts);
  run.admitted = admitted.load();
  run.shed = shed.load();
  run.conservation_ok = !violated.load() &&
                        arb.floor_reserved_blocks() == 0 &&
                        arb.charged_blocks() == 0;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  if (smoke) g_shift = 2;  // quarter workloads: CI-sized
  // Paired best-of-N on the fixed over arbitrated p99 ratio.
  const Gate gate{.repeats = smoke ? 2 : 3, .retries = smoke ? 1 : 0};
  Options opts;
  IoEngine engine(opts.io_threads);

  const size_t total_queries = kTenants * Scaled(48);
  std::printf(
      "# G-serving: %zu tenants x %zu mixed queries, fixed split vs "
      "arbitrated\n"
      "# slice = %zu KiB/tenant, machine M = %zu MiB, block = %zu B%s\n\n",
      kTenants, Scaled(48), kSliceBytes / 1024,
      kTenants * kSliceBytes / (1024 * 1024), kBlockBytes,
      smoke ? " [smoke]" : "");

  // ------------------------------------------------------- latency phase
  auto row = GateRow(gate, [&] {
    return Paired{RunColumn(false, &engine, "fix"),
                  RunColumn(true, &engine, "arb")};
  });
  const Paired& paired = row.pair;
  GateVerdict verdict;
  verdict.Add(row);
  // A column whose tenants failed cannot vouch for its stats: exit 1 too.
  verdict.identical =
      verdict.identical && paired.fixed.ok && paired.arbitrated.ok;

  // ----------------------------------------------------- admission phase
  AdmissionRun adm_on = RunAdmission(/*use_controller=*/true);
  AdmissionRun adm_off = RunAdmission(/*use_controller=*/false);
  double shed_on = double(adm_on.shed) / double(adm_on.attempts);
  double shed_off = double(adm_off.shed) / double(adm_off.attempts);

  Table t({"phase", "fixed p50/p99 ms", "arbitrated p50/p99 ms",
           "p99 ratio", "stats identical"});
  t.AddRow({"mixed serving",
            Fmt(paired.fixed.p50_ms, 2) + " / " + Fmt(paired.fixed.p99_ms, 2),
            Fmt(paired.arbitrated.p50_ms, 2) + " / " +
                Fmt(paired.arbitrated.p99_ms, 2),
            Fmt(row.ratio, 2) + "x", row.identical ? "yes" : "NO (BUG)"});
  t.Print();
  std::printf(
      "admission overload: ON  shed %.1f%% (%llu/%llu admitted)\n"
      "                    OFF shed %.1f%% (%llu/%llu admitted)\n"
      "conservation: %s\n\n",
      shed_on * 100, (unsigned long long)adm_on.admitted,
      (unsigned long long)adm_on.attempts, shed_off * 100,
      (unsigned long long)adm_off.admitted,
      (unsigned long long)adm_off.attempts,
      adm_on.conservation_ok && adm_off.conservation_ok ? "ok"
                                                        : "VIOLATED");
  std::printf(
      "Expected shape: arbitrated p99 <= fixed p99 (memory follows each\n"
      "tenant's phase instead of sitting idle in rigid slices); per-\n"
      "tenant IoStats identical in both columns; admission ON absorbs\n"
      "bursts in the FIFO queue so its shed rate sits below raw\n"
      "registration refusals.\n");

  JsonReport report("serving");
  report.Add("mixed serving", "tenants", double(kTenants));
  report.Add("mixed serving", "queries", double(total_queries));
  report.Add("mixed serving", "fixed_p50_ms", paired.fixed.p50_ms);
  report.Add("mixed serving", "fixed_p99_ms", paired.fixed.p99_ms);
  report.Add("mixed serving", "arbitrated_p50_ms", paired.arbitrated.p50_ms);
  report.Add("mixed serving", "arbitrated_p99_ms", paired.arbitrated.p99_ms);
  report.Add("mixed serving", "p99_ratio", row.ratio);
  report.Add("mixed serving", "stats_identical", row.identical ? 1.0 : 0.0);
  AddRatios(&report, "mixed serving", row);
  report.Add("admission overload", "attempts", double(adm_on.attempts));
  report.Add("admission overload", "shed_rate_on", shed_on);
  report.Add("admission overload", "shed_rate_off", shed_off);
  report.Add("admission overload", "admitted_on", double(adm_on.admitted));
  report.Add("admission overload", "admitted_off", double(adm_off.admitted));
  report.Add("admission overload", "conservation_ok",
             adm_on.conservation_ok && adm_off.conservation_ok ? 1.0 : 0.0);

  int code = verdict.ExitCode(smoke);
  if (code == 0 && (!adm_on.conservation_ok || !adm_off.conservation_ok ||
                    adm_on.shed + adm_off.shed == 0)) {
    std::printf("ERROR: admission gauge violated (conservation or no shed "
                "exercised)\n");
    code = 3;
  }
  return report.Finish(argc, argv, code);
}
