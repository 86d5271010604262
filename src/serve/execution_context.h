// ExecutionContext: one query's (or one tenant's) view of the machine.
//
// The algorithm layers used to be wired by hand — construct a
// BufferPool against the device, a PrefetchGovernor against the staging
// budget, attach the governor to the device, attach the engine to the
// device / arbiter / governor, and finally pass the memory budget and
// prefetch depth to every layer. Seven wiring calls per query, and every
// new cross-cutting resource (the multi-tenant arbiter, admission
// floors) would have meant an eighth.
//
// ExecutionContext bundles the whole machine view behind one object:
//   { Options, BlockDevice*, IoEngine*, MemoryArbiter tenant lease,
//     PrefetchGovernor, BufferPool }
// and the pool-backed layers accept it directly (BPlusTree, ExtHashTable,
// ExtGraph, WeightedGraph, SemiExternalSssp, ExtMatrix), as does
// ExternalSorter. The Options inside the context carry the per-query
// knobs: a layer built from the context reads memory_budget and
// prefetch_depth from options() once, at construction, exactly as a
// layer built from (device, Options) does; pool-less layers and free
// functions take ctx->options() directly.
//
// Two construction modes:
//  - STANDALONE: the context owns a private MemoryArbiter over
//    opts.memory_budget and registers one whole-M tenant ("main") —
//    single-query tools and tests use it. This is the only bundle that
//    puts a structure on arbitrated memory; a bare BufferPool* is the
//    fixed-pool alternative.
//  - SHARED-ARBITER: the context is ONE TENANT of a machine-wide
//    MemoryArbiter, holding the TenantLease an AdmissionController
//    ticket (or a direct RegisterTenant call) granted. Its pool and
//    staging leases charge that tenant's account; proportional-share
//    reclaim and the tenant's floor apply. `opts.memory_budget` here is
//    the TENANT'S slice of M (its fair share or floor), not the machine
//    M — the pool's ghost baseline is derived from it, which is what
//    keeps per-tenant IoStats bit-identical to a single-tenant run of
//    the same queries with the same slice.
//
// IoStats invariant, restated for the serving plane: contexts move
// memory and wall-clock between tenants, never logical I/O charges. A
// query's IoStats depend only on its Options (budget slice, block size,
// depth) and its access sequence — not on who else is running.
//
// Destruction detaches the governor from the device and releases the
// tenant's leases; member order makes pool and governor (the lease
// holders) die before the tenant handle, and the tenant before an owned
// arbiter. The device, engine, and a shared arbiter must outlive the
// context.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "io/block_device.h"
#include "io/memory_arbiter.h"
#include "util/options.h"

namespace vem {

class IoEngine;

/// One tenant's bundled machine view; see file comment.
class ExecutionContext {
 public:
  /// STANDALONE: private arbiter over opts.memory_budget, one whole-M
  /// tenant. `engine` (optional) is attached to the device, the arbiter
  /// (grow shaping) and the governor (depth-aware arming). `clock` pins
  /// arbiter/governor rate limits in deterministic tests.
  ExecutionContext(BlockDevice* dev, const Options& opts,
                   IoEngine* engine = nullptr,
                   MemoryArbiter::Clock clock = nullptr)
      : opts_(opts),
        dev_(dev),
        engine_(engine),
        owned_arbiter_(new MemoryArbiter(opts, clock)),
        arbiter_(owned_arbiter_.get()),
        tenant_(arbiter_->RegisterTenant("main")),
        governor_(GovernorConfig(opts), clock),
        pool_(dev, BaselineFrames(opts, arbiter_->config()), arbiter_,
              tenant_.get()) {
    Wire();
  }

  /// SHARED-ARBITER: one tenant of `arbiter`'s machine M. `tenant` is
  /// the account this context's leases charge (from an
  /// AdmissionController ticket or RegisterTenant); opts.memory_budget
  /// is the tenant's slice of M, not the machine M. The arbiter, device
  /// and engine must outlive the context.
  ExecutionContext(BlockDevice* dev, const Options& opts,
                   MemoryArbiter* arbiter, std::unique_ptr<TenantLease> tenant,
                   IoEngine* engine = nullptr,
                   MemoryArbiter::Clock clock = nullptr)
      : opts_(opts),
        dev_(dev),
        engine_(engine),
        arbiter_(arbiter),
        tenant_(std::move(tenant)),
        governor_(GovernorConfig(opts), clock),
        pool_(dev, BaselineFrames(opts, arbiter_->config()), arbiter_,
              tenant_.get()) {
    Wire();
  }

  ~ExecutionContext() {
    if (dev_->prefetch_governor() == &governor_) {
      dev_->set_prefetch_governor(nullptr);
    }
    if (engine_ != nullptr && dev_->io_engine() == engine_) {
      dev_->set_io_engine(nullptr);
    }
  }

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  const Options& options() const { return opts_; }
  BlockDevice* device() const { return dev_; }
  IoEngine* engine() const { return engine_; }
  MemoryArbiter* arbiter() { return arbiter_; }
  /// The account this context charges; null only if a shared-arbiter
  /// caller handed over a null tenant (leases then bill the arbiter's
  /// default tenant).
  TenantLease* tenant() { return tenant_.get(); }
  BufferPool* pool() { return &pool_; }
  PrefetchGovernor* governor() { return &governor_; }

 private:
  /// Initial pool fraction of the tenant's slice: the historical fixed
  /// split, as the starting point the arbiter's policy then moves.
  static constexpr double kInitialPoolShare = 0.5;

  static size_t BaselineFrames(const Options& opts,
                               const MemoryArbiter::Config& cfg) {
    size_t bs = cfg.block_size != 0 ? cfg.block_size : 4096;
    return std::max<size_t>(
        static_cast<size_t>(double(opts.memory_budget) * kInitialPoolShare) /
            bs,
        cfg.min_pool_frames);
  }

  static PrefetchGovernor::Config GovernorConfig(const Options& opts) {
    PrefetchGovernor::Config cfg = PrefetchGovernor::ConfigFromOptions(opts);
    // Staging starts with the non-pool share of the tenant's slice; from
    // then on the budget tracks the arbiter's lease.
    size_t bs = opts.block_size != 0 ? opts.block_size : 4096;
    cfg.budget_blocks = std::max<size_t>(
        static_cast<size_t>(double(opts.memory_budget) *
                            (1.0 - kInitialPoolShare)) /
            bs,
        4);
    return cfg;
  }

  void Wire() {
    governor_.AttachArbiter(arbiter_, tenant_.get());
    dev_->set_prefetch_governor(&governor_);
    if (engine_ != nullptr) {
      dev_->set_io_engine(engine_);
      arbiter_->AttachEngine(engine_);
      governor_.AttachEngine(engine_);
    }
  }

  Options opts_;
  BlockDevice* dev_;
  IoEngine* engine_;
  // Standalone mode owns its arbiter; shared mode leaves this null.
  // Declaration order is the destruction contract: pool_ and governor_
  // (lease holders) die first, then tenant_, then an owned arbiter.
  std::unique_ptr<MemoryArbiter> owned_arbiter_;
  MemoryArbiter* arbiter_;
  std::unique_ptr<TenantLease> tenant_;
  PrefetchGovernor governor_;
  BufferPool pool_;
};

}  // namespace vem
