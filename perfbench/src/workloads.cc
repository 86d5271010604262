#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "core/ext_vector.h"
#include "io/buffer_pool.h"
#include "io/file_block_device.h"
#include "io/independent_disk_device.h"
#include "io/io_engine.h"
#include "io/prefetch_governor.h"
#include "search/bplus_tree.h"
#include "serve/execution_context.h"
#include "sort/external_sort.h"
#include "wal/durable_block_device.h"
#include "wal/wal_manager.h"

namespace perfbench {

namespace {

using Tree = vem::BPlusTree<uint64_t, uint64_t>;

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Start every per-layer metric at 0, so inapplicable ones read 0.
std::map<std::string, double> ZeroLayer() {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : LayerMetrics()) m[name] = 0;
  return m;
}

/// The io.device.* family from the summed trace of a round's devices.
void FillDeviceLayer(const TraceCounts& c, size_t block_size,
                     std::map<std::string, double>* m) {
  auto& L = *m;
  const double busy =
      static_cast<double>(c.read_ns + c.write_ns + c.sync_ns) * 1e-9;
  L["io.device.read_calls"] = static_cast<double>(c.read_calls);
  L["io.device.write_calls"] = static_cast<double>(c.write_calls);
  L["io.device.blocks_per_call"] =
      Ratio(static_cast<double>(c.read_blocks + c.write_blocks),
            static_cast<double>(c.read_calls + c.write_calls));
  L["io.device.busy_s"] = busy;
  L["io.device.caller_s"] = static_cast<double>(c.caller_ns) * 1e-9;
  L["io.device.worker_s"] = static_cast<double>(c.worker_ns) * 1e-9;
  L["io.device.read_mb_s"] =
      Ratio(static_cast<double>(c.read_blocks * block_size) / 1e6,
            static_cast<double>(c.read_ns) * 1e-9);
  L["io.device.write_mb_s"] =
      Ratio(static_cast<double>(c.write_blocks * block_size) / 1e6,
            static_cast<double>(c.write_ns) * 1e-9);
  L["io.device.sync_s"] = static_cast<double>(c.sync_ns) * 1e-9;
  L["io.engine.overlap_frac"] =
      Ratio(static_cast<double>(c.worker_ns) * 1e-9, busy);
}

// ------------------------------------------------------------------ sort

/// Devices and engine of one sort round. Member order is the destruction
/// contract: the sort's device (which owns its children or decorator)
/// dies before the files the decorators wrap, and every device before
/// the engine.
struct SortRig {
  std::unique_ptr<vem::IoEngine> engine;
  std::vector<std::unique_ptr<vem::FileBlockDevice>> files;  // traced only
  std::unique_ptr<vem::BlockDevice> single;                  // D = 1
  std::unique_ptr<vem::IndependentDiskDevice> idd;           // D > 1
  std::vector<TracingBlockDevice*> traced;
  vem::BlockDevice* top = nullptr;  // the device the sort runs on
  bool direct_io = false;
};

void BuildSortRig(const RoundSpec& spec, const vem::Options& opts,
                  size_t disks, SortRig* rig) {
  rig->engine = std::make_unique<vem::IoEngine>(opts);
  std::vector<std::unique_ptr<vem::BlockDevice>> children;
  for (size_t d = 0; d < disks; ++d) {
    auto file = std::make_unique<vem::FileBlockDevice>(
        spec.dir + "/sort" + std::to_string(d) + ".dat", opts.block_size,
        /*unlink_on_close=*/true, opts.direct_io);
    if (d == 0) rig->direct_io = file->direct_io_active();
    if (spec.traced) {
      auto tr = std::make_unique<TracingBlockDevice>(file.get());
      rig->traced.push_back(tr.get());
      rig->files.push_back(std::move(file));
      children.push_back(std::move(tr));
    } else {
      children.push_back(std::move(file));
    }
  }
  if (disks == 1) {
    rig->single = std::move(children.front());
    rig->top = rig->single.get();
  } else {
    rig->idd = std::make_unique<vem::IndependentDiskDevice>(
        std::move(children), opts.placement_seed);
    rig->top = rig->idd.get();
  }
}

}  // namespace

RoundResult RunSortRound(const RoundSpec& spec, size_t disks) {
  RoundResult res;
  const Sizes& z = spec.sizes;
  const double setup0 = NowS();

  vem::Options opts;
  opts.block_size = z.sort_block;
  opts.memory_budget = z.sort_memory;
  opts.num_disks = disks;
  opts.prefetch_depth = z.sort_depth;
  // Buffered, like the tree files: with O_DIRECT the run-to-run spread of
  // the sort times on a shared disk passed every bound allowed.
  opts.direct_io = false;
  opts.placement_seed = Mix64(spec.seed ^ 0x5EED);

  SortRig rig;
  BuildSortRig(spec, opts, disks, &rig);
  vem::ExecutionContext ctx(rig.top, opts, rig.engine.get());
  res.direct_io = rig.direct_io;
  res.backend = rig.engine->backend() == vem::IoBackend::kIoUring
                    ? "io_uring"
                    : "worker_pool";

  const int depth = static_cast<int>(z.sort_depth);
  vem::ExtVector<WideRec> input(rig.top);
  uint64_t in_sum = 0;
  {
    vem::ExtVector<WideRec>::Writer w(&input, depth);
    for (uint64_t i = 0; i < z.sort_records; ++i) {
      const WideRec r = MakeRecord(spec.seed, i);
      in_sum += RecordHash(r);
      if (!w.Append(r)) break;
    }
    vem::Status s = w.Finish();
    if (!s.ok()) res.error = "input write: " + s.ToString();
  }
  res.setup_s = NowS() - setup0;
  if (!res.error.empty()) return res;
  SettleFs(spec.dir);

  vem::PrefetchGovernor* gov = ctx.governor();
  const size_t arms0 = gov->arms_granted(), refused0 = gov->arms_refused(),
               disarms0 = gov->disarm_decisions(),
               skips0 = gov->saturation_skips();
  for (TracingBlockDevice* t : rig.traced) {
    t->ResetTrace();
    t->WatchReadAfterWrite();
  }
  const vem::IoStats top0 = rig.top->stats();

  vem::ExtVector<WideRec> output(rig.top);
  vem::ExternalSorter<WideRec> sorter(&ctx);
  sorter.set_forecast_merge(disks > 1);
  const double cpu0 = ThreadCpuS();
  const uint64_t t0 = MonoNs();
  vem::Status s = sorter.Sort(input, &output);
  const uint64_t t1 = MonoNs();
  const double cpu = ThreadCpuS() - cpu0;
  const double sort_s = static_cast<double>(t1 - t0) * 1e-9;

  res.probe.push_back(rig.top->stats());
  if (rig.idd != nullptr) {
    // The independent-disk device charges one parallel write per wave of
    // each write-behind group, and the governor sizes those groups from
    // observed stalls, so parallel_writes follows timing and is left out
    // of the probe. Every other counter, and every child's, is exact.
    res.probe[0].parallel_writes = 0;
    for (size_t d = 0; d < rig.idd->num_disks(); ++d) {
      res.probe.push_back(rig.idd->disk_stats(d));
    }
  }
  res.attempted = 1;
  res.ops = 1;
  res.work_items = z.sort_records;
  res.measure_s = sort_s;
  res.latency_us.push_back(sort_s * 1e6);
  if (spec.windows != nullptr) spec.windows->Add(sort_s * 1e6);

  if (spec.traced) {
    auto L = ZeroLayer();
    TraceCounts c;
    // The merge starts at the first read of a block this Sort() wrote.
    uint64_t merge_ns = t1;
    for (TracingBlockDevice* t : rig.traced) {
      c += t->Counts();
      const uint64_t f = t->FirstReadOfWrittenNs();
      if (f != 0) merge_ns = std::min(merge_ns, f);
    }
    merge_ns = std::max(merge_ns, t0);
    FillDeviceLayer(c, z.sort_block, &L);
    L["io.engine.timeouts"] = static_cast<double>(rig.engine->timeouts());
    L["io.governor.arms_granted"] =
        static_cast<double>(gov->arms_granted() - arms0);
    L["io.governor.arms_refused"] =
        static_cast<double>(gov->arms_refused() - refused0);
    L["io.governor.disarms"] =
        static_cast<double>(gov->disarm_decisions() - disarms0);
    L["io.governor.stall_ewma"] = gov->stall_ewma();
    L["io.governor.waste_ewma"] = gov->waste_ewma();
    L["io.governor.saturation_skips"] =
        static_cast<double>(gov->saturation_skips() - skips0);
    const vem::IoStats d = rig.top->stats() - top0;
    const double per_block = static_cast<double>(z.sort_block / sizeof(WideRec));
    const double mem_items = static_cast<double>(z.sort_memory / sizeof(WideRec));
    L["io.pdm.block_ios"] = static_cast<double>(d.block_ios());
    L["io.pdm.parallel_ios"] = static_cast<double>(d.parallel_ios());
    L["io.pdm.ios_over_bound"] = Ratio(
        static_cast<double>(d.block_ios()),
        vem::bench::SortBound(static_cast<double>(z.sort_records), per_block,
                              mem_items));
    L["sort.run_formation_s"] = static_cast<double>(merge_ns - t0) * 1e-9;
    L["sort.merge_s"] = static_cast<double>(t1 - merge_ns) * 1e-9;
    L["sort.caller_cpu_s"] = cpu;
    L["sort.wait_s"] = sort_s - cpu;
    L["sort.initial_runs"] = static_cast<double>(sorter.metrics().initial_runs);
    L["sort.merge_passes"] = static_cast<double>(sorter.metrics().merge_passes);
    const Roofline& rf = spec.roofline;
    if (rf.seq_read_mb_s > 0 && rf.seq_write_mb_s > 0) {
      // Seconds the bytes IoStats moved would take at the bare ceilings.
      const double ideal_s =
          static_cast<double>(d.bytes_read) / 1e6 / rf.seq_read_mb_s +
          static_cast<double>(d.bytes_written) / 1e6 / rf.seq_write_mb_s;
      L["sort.roofline_pct"] = 100.0 * ideal_s / sort_s;
    }
    res.layer = std::move(L);
  }

  if (!s.ok()) {
    res.failed = 1;
    res.error = "sort: " + s.ToString();
    return res;
  }
  // Output check: N records, non-decreasing keys, the input's checksum.
  uint64_t count = 0, out_sum = 0, prev = 0;
  bool ordered = true;
  {
    vem::ExtVector<WideRec>::Reader r(&output, 0, depth);
    WideRec rec;
    while (r.Next(&rec)) {
      if (count > 0 && rec.key < prev) ordered = false;
      prev = rec.key;
      out_sum += RecordHash(rec);
      count++;
    }
    if (!r.status().ok()) res.error = "output read: " + r.status().ToString();
  }
  if (res.error.empty() &&
      (count != z.sort_records || !ordered || out_sum != in_sum)) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "sort output wrong: %llu of %llu records, ordered=%d, "
                  "checksum %s",
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(z.sort_records),
                  ordered ? 1 : 0, out_sum == in_sum ? "ok" : "mismatch");
    res.error = msg;
  }
  if (!res.error.empty()) res.failed = 1;
  return res;
}

// ------------------------------------------------------------ btree_lookup

namespace {

/// Present keys are even and ascending in i; key | 1 is never present.
uint64_t LookupKey(uint64_t seed, uint64_t i) {
  return (i << 21) | ((Mix64(seed ^ i) & 0xFFFFFull) << 1);
}
uint64_t ValueOf(uint64_t seed, uint64_t key) { return Mix64(key ^ ~seed); }

/// Init and bulk-load `tree` from `n` sorted (key(i), ValueOf(key(i)))
/// pairs staged on a scratch device with 1 MiB blocks.
template <typename KeyFn>
vem::Status BulkLoad(const std::string& dir, uint64_t seed, uint64_t n,
                     KeyFn key, Tree* tree) {
  vem::FileBlockDevice staging(dir + "/bulkload.dat", 1u << 20,
                               /*unlink_on_close=*/true, /*direct_io=*/true);
  vem::ExtVector<Tree::KV> kvs(&staging);
  {
    vem::ExtVector<Tree::KV>::Writer w(&kvs);
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t k = key(i);
      if (!w.Append(Tree::KV{k, ValueOf(seed, k)})) break;
    }
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  VEM_RETURN_IF_ERROR(tree->Init());
  return tree->BulkLoad(kvs);
}

}  // namespace

RoundResult RunLookupRound(const RoundSpec& spec) {
  RoundResult res;
  const Sizes& z = spec.sizes;
  const double setup0 = NowS();

  // Buffered: a pool miss costs a page-cache read. With O_DIRECT the QD1
  // read latency of a shared disk swung the lookup tail beyond any bound.
  vem::FileBlockDevice file(spec.dir + "/btree.dat", z.tree_block,
                            /*unlink_on_close=*/true, /*direct_io=*/false);
  std::unique_ptr<TracingBlockDevice> tracer;
  vem::BlockDevice* dev = &file;
  if (spec.traced) {
    tracer = std::make_unique<TracingBlockDevice>(&file);
    dev = tracer.get();
  }
  res.direct_io = file.direct_io_active();
  vem::BufferPool pool(dev, z.lookup_frames);
  Tree tree(&pool);
  const uint64_t n = z.lookup_keys;
  vem::Status s = BulkLoad(
      spec.dir, spec.seed, n,
      [&](uint64_t i) { return LookupKey(spec.seed, i); }, &tree);
  if (s.ok()) s = pool.FlushAll();
  if (!s.ok()) {
    res.error = "bulk load: " + s.ToString();
    return res;
  }
  res.setup_s = NowS() - setup0;
  SettleFs(spec.dir);

  // Op i looks up a uniformly random key; one in ten asks for an absent
  // neighbour key. The first lookup_warmup ops fill the pool and are
  // checked but not timed.
  uint64_t op = 0;
  auto lookup = [&](bool timed) {
    const uint64_t x = Mix64(spec.seed * 0x2545F4914F6CDD1Dull + op++);
    const bool absent = (x >> 40) % 10 == 0;
    const uint64_t key = LookupKey(spec.seed, x % n) | (absent ? 1 : 0);
    uint64_t v = 0;
    const uint64_t t0 = timed ? MonoNs() : 0;
    const vem::Status st = tree.Get(key, &v);
    if (timed && spec.windows != nullptr) {
      spec.windows->Add(static_cast<double>(MonoNs() - t0) * 1e-3);
    }
    const bool ok = absent ? st.IsNotFound()
                           : (st.ok() && v == ValueOf(spec.seed, key));
    res.attempted++;
    if (!ok) {
      res.failed++;
      if (res.error.empty()) res.error = "lookup returned a wrong result";
    }
  };
  for (size_t i = 0; i < z.lookup_warmup; ++i) lookup(false);

  if (tracer != nullptr) tracer->ResetTrace();
  const vem::IoStats io0 = dev->stats();
  const uint64_t hits0 = pool.hits(), misses0 = pool.misses(),
                 wb0 = pool.writebacks();
  const double cpu0 = ThreadCpuS();
  const double start = NowS();
  for (;;) {
    lookup(true);
    res.ops++;
    if (res.ops == spec.probe_ops) res.probe.push_back(dev->stats());
    if (spec.max_ops > 0 ? res.ops >= spec.max_ops
                         : NowS() - start >= spec.measure_s) {
      break;
    }
  }
  res.measure_s = NowS() - start;
  const double cpu = ThreadCpuS() - cpu0;

  if (spec.traced) {
    auto L = ZeroLayer();
    FillDeviceLayer(tracer->Counts(), z.tree_block, &L);
    const double ops = static_cast<double>(res.ops);
    const double hits = static_cast<double>(pool.hits() - hits0);
    const double misses = static_cast<double>(pool.misses() - misses0);
    const vem::IoStats d = dev->stats() - io0;
    L["io.pool.hit_rate"] = Ratio(hits, hits + misses);
    L["io.pool.misses_per_op"] = misses / ops;
    L["io.pool.writebacks_per_txn"] =
        static_cast<double>(pool.writebacks() - wb0) / ops;
    L["io.pdm.block_ios"] = static_cast<double>(d.block_ios());
    L["io.pdm.parallel_ios"] = static_cast<double>(d.parallel_ios());
    L["io.pdm.ios_over_bound"] = static_cast<double>(d.block_ios()) /
                                 (ops * static_cast<double>(tree.height()));
    L["search.accesses_per_op"] = (hits + misses) / ops;
    L["search.cpu_us_per_op"] = cpu * 1e6 / ops;
    L["search.wait_us_per_op"] = (res.measure_s - cpu) * 1e6 / ops;
    res.layer = std::move(L);
  }
  return res;
}

// ------------------------------------------------------------ btree_commit

namespace {

/// WAL-enabled storage of one commit round. Untraced: the Options-built
/// DurableStorage bundle. Traced: the same two files opened the same way,
/// each wrapped in a decorator and wired through the borrowed-device
/// constructors of WalManager and DurableBlockDevice. Member order is the
/// destruction contract (wrapper, log writer, decorators, files).
struct CommitRig {
  std::unique_ptr<vem::DurableStorage> storage;
  std::unique_ptr<vem::FileBlockDevice> data_file, log_file;
  std::unique_ptr<TracingBlockDevice> data_tr, log_tr;
  std::unique_ptr<vem::WalManager> wal;
  std::unique_ptr<vem::DurableBlockDevice> durable;

  vem::DurableBlockDevice* dev = nullptr;  // what the pool runs on
  vem::WalManager* walp = nullptr;
  vem::BlockDevice* data = nullptr;  // data file, as the wrapper sees it
  vem::BlockDevice* log = nullptr;   // log device, as the WAL sees it
  bool valid = false;
  bool direct_io = false;
};

void OpenCommitRig(const std::string& base, const vem::Options& opts,
                   bool traced, CommitRig* rig) {
  if (!traced) {
    rig->storage = std::make_unique<vem::DurableStorage>(base, opts);
    rig->valid = rig->storage->valid();
    rig->dev = rig->storage->device.get();
    rig->walp = rig->storage->wal.get();
    rig->data = rig->storage->data.get();
    rig->log = rig->walp != nullptr ? rig->walp->device() : nullptr;
    rig->direct_io = rig->storage->data->direct_io_active();
    return;
  }
  rig->data_file = std::make_unique<vem::FileBlockDevice>(
      base, opts.block_size, /*unlink_on_close=*/false, opts.direct_io,
      opts.sync_on_close, /*open_existing=*/true);
  rig->log_file = std::make_unique<vem::FileBlockDevice>(
      base + ".wal", opts.block_size, /*unlink_on_close=*/false,
      /*direct_io=*/false, /*sync_on_close=*/false, /*open_existing=*/true);
  rig->data_tr = std::make_unique<TracingBlockDevice>(rig->data_file.get());
  rig->log_tr = std::make_unique<TracingBlockDevice>(rig->log_file.get());
  vem::WalManager::Config cfg;
  cfg.block_size = opts.block_size;
  cfg.group_commit_us = opts.wal_group_commit_us;
  rig->wal = std::make_unique<vem::WalManager>(rig->log_tr.get(), cfg);
  rig->durable = std::make_unique<vem::DurableBlockDevice>(rig->data_tr.get(),
                                                           rig->wal.get());
  rig->valid = rig->data_file->valid() && rig->log_file->valid() &&
               rig->durable->valid();
  rig->dev = rig->durable.get();
  rig->walp = rig->wal.get();
  rig->data = rig->data_tr.get();
  rig->log = rig->log_tr.get();
  rig->direct_io = rig->data_file->direct_io_active();
}

/// Order-sensitive hash of blocks [0, n) read through `dev`.
vem::Status HashBlocks(vem::BlockDevice* dev, uint64_t n, uint64_t* out) {
  vem::IoBuffer buf = vem::AllocIoBuffer(dev->block_size());
  uint64_t h = 0;
  for (uint64_t id = 0; id < n; ++id) {
    VEM_RETURN_IF_ERROR(dev->Read(id, buf.get()));
    for (size_t i = 0; i < dev->block_size(); i += 8) {
      uint64_t w;
      std::memcpy(&w, buf.get() + i, 8);
      h = Mix64(h ^ w);
    }
  }
  *out = h;
  return vem::Status::OK();
}

}  // namespace

RoundResult RunCommitRound(const RoundSpec& spec) {
  RoundResult res;
  const Sizes& z = spec.sizes;
  const double setup0 = NowS();
  const std::string base = spec.dir + "/commit.dat";
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());

  // The data file is buffered (the Options default): each commit still
  // pays its log fsyncs, but applied pages no longer wait on QD1 O_DIRECT
  // writes, whose latency on a shared disk dominated the spread.
  vem::Options opts;
  opts.block_size = z.tree_block;
  opts.enable_wal = true;

  auto rig = std::make_unique<CommitRig>();
  OpenCommitRig(base, opts, spec.traced, rig.get());
  if (!rig->valid) {
    res.error = "cannot open WAL storage";
    return res;
  }
  res.direct_io = rig->direct_io;
  auto pool = std::make_unique<vem::BufferPool>(rig->dev, z.commit_frames);
  auto tree = std::make_unique<Tree>(pool.get());
  const uint64_t slots = z.commit_keys;
  std::vector<uint64_t> committed(slots);
  for (uint64_t k = 0; k < slots; ++k) committed[k] = ValueOf(spec.seed, k);
  vem::Status s = BulkLoad(
      spec.dir, spec.seed, slots, [](uint64_t i) { return i; }, tree.get());
  if (s.ok()) s = pool->FlushAll();
  if (s.ok()) s = rig->dev->Commit();
  if (!s.ok()) {
    res.error = "bulk load: " + s.ToString();
    return res;
  }
  res.setup_s = NowS() - setup0;
  SettleFs(spec.dir);

  if (spec.traced) {
    rig->data_tr->ResetTrace();
    rig->log_tr->ResetTrace();
  }
  const vem::IoStats data0 = rig->dev->stats();
  const vem::IoStats log0 = rig->log->stats();
  const uint64_t hits0 = pool->hits(), misses0 = pool->misses(),
                 wb0 = pool->writebacks(), fsync0 = rig->walp->fsync_count();
  uint64_t tree_ns = 0, flush_ns = 0, commit_ns = 0;
  double tree_cpu = 0;
  uint64_t x = Mix64(spec.seed ^ 0xC0DE);
  // One transaction: inserts (upserts into the fixed key space), then
  // gets of committed keys, then FlushAll and Commit.
  std::unordered_map<uint64_t, uint64_t> pending;
  pending.reserve(2 * z.inserts_per_txn);
  const double start = NowS();
  for (;;) {
    const uint64_t t0 = MonoNs();
    const double c0 = ThreadCpuS();
    pending.clear();
    bool ok = true;
    for (size_t i = 0; i < z.inserts_per_txn; ++i) {
      x = Mix64(x);
      const uint64_t key = x % slots, val = Mix64(x ^ 0xA5A5);
      ok = tree->Insert(key, val).ok() && ok;
      pending[key] = val;
    }
    for (size_t i = 0; i < z.gets_per_txn; ++i) {
      x = Mix64(x);
      const uint64_t key = x % slots;
      auto it = pending.find(key);
      const uint64_t want = it != pending.end() ? it->second : committed[key];
      uint64_t v = 0;
      ok = tree->Get(key, &v).ok() && v == want && ok;
    }
    const uint64_t t1 = MonoNs();
    tree_cpu += ThreadCpuS() - c0;
    ok = pool->FlushAll().ok() && ok;
    const uint64_t t2 = MonoNs();
    ok = rig->dev->Commit().ok() && ok;
    const uint64_t t3 = MonoNs();
    tree_ns += t1 - t0;
    flush_ns += t2 - t1;
    commit_ns += t3 - t2;
    res.attempted++;
    res.ops++;
    if (spec.windows != nullptr) {
      spec.windows->Add(static_cast<double>(t3 - t0) * 1e-3);
    }
    if (ok) {
      for (const auto& [k, v] : pending) committed[k] = v;
    } else {
      res.failed++;
      if (res.error.empty()) res.error = "transaction failed";
    }
    if (res.ops == spec.probe_ops) {
      res.probe = {rig->dev->stats(), rig->data->stats(), rig->log->stats()};
    }
    if (res.ops % z.commit_checkpoint_every == 0) {
      // Untimed. An owned log is recreated by the checkpoint, so the
      // untraced rig looks its device up again.
      s = rig->dev->Checkpoint();
      rig->log = rig->walp->device();
      if (!s.ok()) {
        res.error = "checkpoint: " + s.ToString();
        break;
      }
    }
    if (spec.max_ops > 0 ? res.ops >= spec.max_ops
                         : NowS() - start >= spec.measure_s) {
      break;
    }
  }
  res.measure_s = NowS() - start;

  if (spec.traced) {
    auto L = ZeroLayer();
    const TraceCounts lc = rig->log_tr->Counts();
    TraceCounts c = rig->data_tr->Counts();
    c += lc;
    FillDeviceLayer(c, z.tree_block, &L);
    const double txns = static_cast<double>(res.ops);
    const double tree_ops =
        txns * static_cast<double>(z.inserts_per_txn + z.gets_per_txn);
    const double hits = static_cast<double>(pool->hits() - hits0);
    const double misses = static_cast<double>(pool->misses() - misses0);
    const vem::IoStats d = rig->dev->stats() - data0;
    const vem::IoStats dl = rig->log->stats() - log0;
    const double user_bytes =
        txns * static_cast<double>(z.inserts_per_txn * 2 * sizeof(uint64_t));
    L["io.pool.hit_rate"] = Ratio(hits, hits + misses);
    L["io.pool.misses_per_op"] = misses / tree_ops;
    L["io.pool.writebacks_per_txn"] =
        static_cast<double>(pool->writebacks() - wb0) / txns;
    L["io.pdm.block_ios"] = static_cast<double>(d.block_ios());
    L["io.pdm.parallel_ios"] = static_cast<double>(d.parallel_ios());
    L["io.pdm.ios_over_bound"] =
        static_cast<double>(d.block_ios()) /
        (tree_ops * static_cast<double>(tree->height()));
    L["search.accesses_per_op"] = (hits + misses) / tree_ops;
    L["search.cpu_us_per_op"] = tree_cpu * 1e6 / tree_ops;
    L["search.wait_us_per_op"] =
        (static_cast<double>(tree_ns) * 1e-9 - tree_cpu) * 1e6 / tree_ops;
    L["wal.fsyncs_per_commit"] =
        static_cast<double>(rig->walp->fsync_count() - fsync0) / txns;
    L["wal.bytes_per_user_byte"] =
        static_cast<double>(dl.bytes_written) / user_bytes;
    L["wal.flush_ms"] = static_cast<double>(flush_ns) * 1e-6 / txns;
    L["wal.commit_call_ms"] = static_cast<double>(commit_ns) * 1e-6 / txns;
    L["wal.sync_ms"] = static_cast<double>(lc.sync_ns) * 1e-6 / txns;
    res.layer = std::move(L);
  }

  // Every acknowledged insert reads back with its committed value.
  for (uint64_t k = 0; k < slots && res.error.empty(); ++k) {
    uint64_t v = 0;
    if (!tree->Get(k, &v).ok() || v != committed[k]) {
      res.error = "acknowledged insert did not read back";
    }
  }

  // Reopen: checkpoint, close, reopen the files through DurableStorage
  // (which runs recovery) and compare every data block. A checkpoint
  // cannot truncate the traced round's borrowed log device, so only
  // untraced rounds reopen.
  if (res.error.empty() && !spec.traced) {
    const uint64_t n = rig->data->num_allocated();
    uint64_t before = 0, after = 0;
    s = rig->dev->Checkpoint();
    if (s.ok()) s = HashBlocks(rig->dev, n, &before);
    tree.reset();
    pool.reset();
    rig.reset();
    if (s.ok()) {
      vem::DurableStorage again(base, opts);
      if (!again.valid()) {
        s = again.status().ok() ? vem::Status::IOError("reopen failed")
                                : again.status();
      } else {
        s = HashBlocks(again.device.get(), n, &after);
      }
    }
    if (!s.ok()) {
      res.error = "reopen: " + s.ToString();
    } else if (before != after) {
      res.error = "reopened storage differs from the committed state";
    }
  }
  tree.reset();
  pool.reset();
  rig.reset();
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
  return res;
}

bool FitFileLimit(uint64_t limit, Sizes* z) {
  // Predicted largest files, with a quarter of margin: the D = 1 sort disk
  // (input, runs and output), the lookup tree (about 23 bytes a key; its
  // bulk-load staging file takes 16), and the commit log between
  // checkpoints (at most 512 KiB a transaction) beside the small data file.
  auto fits = [limit](double bytes) { return bytes * 1.25 <= static_cast<double>(limit); };
  while (!fits(3.0 * static_cast<double>(z->sort_records * sizeof(WideRec)) +
               4.0 * static_cast<double>(z->sort_block))) {
    if (z->sort_memory / 2 < 32 * z->sort_block) {
      if (z->sort_block <= 4096) return false;
      z->sort_block /= 2;
    }
    z->sort_memory /= 2;
    z->sort_records /= 2;
  }
  while (!fits(24.0 * static_cast<double>(z->lookup_keys))) {
    if (z->lookup_keys <= 4096) return false;
    z->lookup_keys /= 2;
    z->lookup_frames = std::max<size_t>(16, z->lookup_frames / 2);
  }
  while (!fits(static_cast<double>(z->commit_checkpoint_every * (512u << 10)) +
               24.0 * static_cast<double>(z->commit_keys))) {
    if (z->commit_checkpoint_every <= 8) return false;
    z->commit_checkpoint_every /= 2;
  }
  return true;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"io.device.read_calls", "count"},
      {"io.device.write_calls", "count"},
      {"io.device.blocks_per_call", "blocks/call"},
      {"io.device.busy_s", "s"},
      {"io.device.caller_s", "s"},
      {"io.device.worker_s", "s"},
      {"io.device.read_mb_s", "MB/s"},
      {"io.device.write_mb_s", "MB/s"},
      {"io.device.sync_s", "s"},
      {"io.engine.overlap_frac", "ratio"},
      {"io.engine.timeouts", "count"},
      {"io.governor.arms_granted", "count"},
      {"io.governor.arms_refused", "count"},
      {"io.governor.disarms", "count"},
      {"io.governor.stall_ewma", "ratio"},
      {"io.governor.waste_ewma", "ratio"},
      {"io.governor.saturation_skips", "count"},
      {"io.pool.hit_rate", "ratio"},
      {"io.pool.misses_per_op", "misses/op"},
      {"io.pool.writebacks_per_txn", "blocks/txn"},
      {"io.pdm.block_ios", "count"},
      {"io.pdm.parallel_ios", "count"},
      {"io.pdm.ios_over_bound", "ratio"},
      {"sort.run_formation_s", "s"},
      {"sort.merge_s", "s"},
      {"sort.caller_cpu_s", "s"},
      {"sort.wait_s", "s"},
      {"sort.initial_runs", "count"},
      {"sort.merge_passes", "count"},
      {"sort.roofline_pct", "%"},
      {"search.accesses_per_op", "accesses/op"},
      {"search.cpu_us_per_op", "us"},
      {"search.wait_us_per_op", "us"},
      {"wal.fsyncs_per_commit", "fsyncs/commit"},
      {"wal.bytes_per_user_byte", "ratio"},
      {"wal.flush_ms", "ms"},
      {"wal.commit_call_ms", "ms"},
      {"wal.sync_ms", "ms"},
      {"roofline.seq_read_mb_s", "MB/s"},
      {"roofline.seq_write_mb_s", "MB/s"},
      {"roofline.rand_read_us", "us"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

}  // namespace perfbench
