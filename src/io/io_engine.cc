#include "io/io_engine.h"

#include <chrono>

#include "io/io_ring.h"
#include "io/retry_policy.h"
#include "util/clock.h"

namespace vem {

namespace {
// SQ slots for the ring backend: comfortably above the largest coalesced
// batch a single job produces (FileBlockDevice caps runs at 512 iovecs),
// so one job's runs submit with one io_uring_enter.
constexpr unsigned kRingEntries = 256;
}  // namespace

IoEngine::IoEngine(size_t num_threads, size_t disk_inflight_cap,
                   IoBackend backend, uint64_t deadline_ms)
    : disk_inflight_cap_(disk_inflight_cap == 0 ? 1 : disk_inflight_cap),
      deadline_ms_(deadline_ms) {
  if (backend == IoBackend::kIoUring) {
    // Runtime fallback: a missing kernel (or a seccomp filter, or a build
    // without the header) leaves ring_ null and the engine indistinguishable
    // from a worker-pool one — same contract, same accounting.
    ring_ = IoRing::Create(kRingEntries);
    backend_ = ring_ != nullptr ? IoBackend::kIoUring : IoBackend::kWorkerPool;
  }
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoEngine::~IoEngine() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Let workers drain the queues before exiting: unredeemed writes must
    // still reach the device even if the owner never called Wait.
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void IoEngine::NotePushed(uint64_t disk, const DiskQueue& dq) {
  if (dq.queue.size() == 1) {
    nonempty_disk_queues_++;
    last_nonempty_disk_ = disk;
  }
}

void IoEngine::NotePopped(const DiskQueue& dq) {
  if (dq.queue.empty()) nonempty_disk_queues_--;
}

IoEngine::Ticket IoEngine::Submit(std::function<Status()> op, uint64_t disk,
                                  bool retryable) {
  Ticket t;
  {
    std::unique_lock<std::mutex> lock(mu_);
    t = next_ticket_++;
    if (disk == kNoDisk) {
      queue_.push_back(Job{t, disk, retryable, std::move(op)});
    } else {
      DiskQueue& dq = disk_queues_[disk];
      dq.queue.push_back(Job{t, disk, retryable, std::move(op)});
      NotePushed(disk, dq);
    }
    queued_count_++;
  }
  work_cv_.notify_one();
  return t;
}

Status IoEngine::ExecuteJob(const Job& job) {
  if (!job.retryable || retry_ == nullptr) return job.op();
  // Whole-job retry is only submitted for charge-free (uncounted-plane)
  // jobs — see Submit's contract. Each failed attempt feeds the disk's
  // health record; a final success after failures does too, so a head
  // that recovers via retry both accumulates and works off evidence.
  size_t fails = 0;
  Status s = retry_->Run(
      job.ticket, job.op, [&](const Status& attempt) {
        ++fails;
        if (job.disk != kNoDisk) {
          ReportDiskResult(job.disk, false, 0);
        }
        (void)attempt;
      });
  if (s.ok() && fails > 0 && job.disk != kNoDisk) {
    ReportDiskResult(job.disk, true, 0);
  }
  return s;
}

bool IoEngine::Runnable() const {
  if (!queue_.empty()) return true;
  if (nonempty_disk_queues_ == 0) return false;
  for (const auto& [disk, dq] : disk_queues_) {
    if (!dq.queue.empty() && dq.in_flight < disk_inflight_cap_) return true;
  }
  return false;
}

bool IoEngine::PickJob(Job* out) {
  if (!queue_.empty()) {
    *out = std::move(queue_.front());
    queue_.pop_front();
    queued_count_--;
    return true;
  }
  if (nonempty_disk_queues_ == 0) return false;
  // Round-robin: resume after the last disk served so D tagged streams
  // drain evenly instead of the lowest tag monopolizing the workers.
  auto start = disk_queues_.upper_bound(rr_disk_);
  if (start == disk_queues_.end()) start = disk_queues_.begin();
  auto it = start;
  do {
    DiskQueue& dq = it->second;
    if (!dq.queue.empty() && dq.in_flight < disk_inflight_cap_) {
      *out = std::move(dq.queue.front());
      dq.queue.pop_front();
      NotePopped(dq);
      dq.in_flight++;
      queued_count_--;
      rr_disk_ = it->first;
      return true;
    }
    ++it;
    if (it == disk_queues_.end()) it = disk_queues_.begin();
  } while (it != start);
  return false;
}

Status IoEngine::Wait(Ticket t) {
  std::unique_lock<std::mutex> lock(mu_);
  // Self-steal: if the awaited job is still queued (no worker free, or
  // its disk's heads are all busy), execute it on this thread instead of
  // idling. This keeps nested batches deadlock-free — a job running on a
  // worker may itself RunBatch (a striped or independent-disk fill
  // fanning out to its children) and wait for its sub-jobs; even with
  // every worker blocked in such a wait, each waiter runs its own
  // sub-jobs, so the tree always makes progress. Only the caller's OWN
  // ticket is stolen: running unrelated jobs here would stretch the wait
  // past the ticket's completion and corrupt the prefetch governor's
  // stall measurement around Wait. A stolen tagged job deliberately
  // bypasses its in-flight cap (see header).
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->ticket != t) continue;
    Job job = std::move(*it);
    queue_.erase(it);
    queued_count_--;
    lock.unlock();
    return ExecuteJob(job);
  }
  // The tagged scan is O(1) in the common cases: skipped outright when no
  // disk queue holds a pending job, and narrowed to the one hot queue
  // when exactly one does (a single device streaming — the dominant
  // shape). Only with 2+ backlogged disks does it walk the map.
  if (nonempty_disk_queues_ > 0) {
    auto dit = disk_queues_.end();
    if (nonempty_disk_queues_ == 1) {
      dit = disk_queues_.find(last_nonempty_disk_);
      if (dit == disk_queues_.end() || dit->second.queue.empty()) {
        // The cached tag drained (its pusher was another queue since
        // emptied); refresh it with a one-off scan.
        for (dit = disk_queues_.begin(); dit != disk_queues_.end(); ++dit) {
          if (!dit->second.queue.empty()) break;
        }
        if (dit != disk_queues_.end()) last_nonempty_disk_ = dit->first;
      }
    }
    auto scan_one = [&](std::map<uint64_t, DiskQueue>::iterator qit,
                        Status* out) {
      DiskQueue& dq = qit->second;
      for (auto it = dq.queue.begin(); it != dq.queue.end(); ++it) {
        if (it->ticket != t) continue;
        Job job = std::move(*it);
        dq.queue.erase(it);
        NotePopped(dq);
        queued_count_--;
        if (dq.queue.empty() && dq.in_flight == 0) disk_queues_.erase(qit);
        lock.unlock();
        *out = ExecuteJob(job);
        return true;
      }
      return false;
    };
    Status stolen;
    if (dit != disk_queues_.end()) {
      if (scan_one(dit, &stolen)) return stolen;
    } else {
      for (dit = disk_queues_.begin(); dit != disk_queues_.end(); ++dit) {
        if (dit->second.queue.empty()) continue;
        if (scan_one(dit, &stolen)) return stolen;
      }
    }
  }
  if (deadline_ms_ == 0) {
    done_cv_.wait(lock, [this, t] { return done_.count(t) != 0; });
  } else if (!done_cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms_),
                                [this, t] { return done_.count(t) != 0; })) {
    // Hung-I/O watchdog: the job is running on a worker (it was not
    // stealable above) and has blown its deadline. Abandon the ticket —
    // the worker will discard the eventual result — and surface Timeout
    // instead of hanging the pipeline. The transfer may still land; the
    // caller must treat the buffer as poisoned, not reusable.
    abandoned_.insert(t);
    timeouts_++;
    return Status::Timeout("IoEngine::Wait: job not complete within " +
                           std::to_string(deadline_ms_) +
                           " ms deadline; ticket abandoned");
  }
  auto it = done_.find(t);
  Status s = std::move(it->second);
  done_.erase(it);
  return s;
}

Status IoEngine::RunBatch(std::vector<std::function<Status()>> ops,
                          const std::vector<uint64_t>& disks, bool retryable,
                          std::vector<Status>* statuses) {
  if (statuses != nullptr) statuses->assign(ops.size(), Status::OK());
  if (ops.empty()) return Status::OK();
  // Farm out all but the first op; run that one here so the caller's core
  // contributes instead of blocking.
  std::vector<Ticket> tickets;
  tickets.reserve(ops.size() - 1);
  for (size_t i = 1; i < ops.size(); ++i) {
    uint64_t disk = i < disks.size() ? disks[i] : kNoDisk;
    tickets.push_back(Submit(std::move(ops[i]), disk, retryable));
  }
  Job inline_job{0, disks.empty() ? kNoDisk : disks[0], retryable,
                 std::move(ops[0])};
  Status first = ExecuteJob(inline_job);
  if (statuses != nullptr) (*statuses)[0] = first;
  for (size_t i = 0; i < tickets.size(); ++i) {
    Status s = Wait(tickets[i]);
    if (first.ok() && !s.ok()) first = s;
    if (statuses != nullptr) (*statuses)[i + 1] = std::move(s);
  }
  return first;
}

size_t IoEngine::queued_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_count_;
}

size_t IoEngine::busy_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_workers_;
}

bool IoEngine::saturated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_workers_ >= workers_.size() && queued_count_ > 0;
}

double IoEngine::HeadroomLocked() const {
  const size_t w = workers_.size();
  if (busy_workers_ < w) {
    return static_cast<double>(w - busy_workers_) / static_cast<double>(w);
  }
  // Every worker busy: zero headroom once a backlog queues (the old
  // saturated() bit), a small floor otherwise — the next submit waits,
  // but only for one job's tail.
  return queued_count_ > 0 ? 0.0 : 1.0 / static_cast<double>(1 + w);
}

double IoEngine::DiskHeadroomLocked(uint64_t disk_tag) const {
  // A quarantined head has no headroom by definition: the gauge's
  // consumers (governor, arbiter, streams) read 0.0 as "submitting more
  // work here cannot help", which is exactly the quarantine contract.
  auto hit = health_.find(disk_tag);
  if (hit != health_.end() && hit->second.quarantined) return 0.0;
  double engine = HeadroomLocked();
  auto it = disk_queues_.find(disk_tag);
  if (it == disk_queues_.end()) return engine;  // idle head
  const DiskQueue& dq = it->second;
  const size_t depth = dq.queue.size() + dq.in_flight;
  const size_t cap = disk_inflight_cap_;
  double disk;
  if (depth < cap) {
    disk = static_cast<double>(cap - depth) / static_cast<double>(cap);
  } else {
    // At or past the head's cap: 1/2 with an exactly-full pipeline, then
    // harmonically down per queued job. Never a hard 0 — one job waiting
    // behind a busy head is normal pipelining, not saturation; the whole-
    // engine term supplies the hard floor when the pool itself backs up.
    disk = 1.0 / static_cast<double>(2 + (depth - cap));
  }
  return disk < engine ? disk : engine;
}

double IoEngine::Headroom() const {
  std::lock_guard<std::mutex> lock(mu_);
  return HeadroomLocked();
}

size_t IoEngine::DiskDepth(uint64_t disk_tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = disk_queues_.find(disk_tag);
  if (it == disk_queues_.end()) return 0;
  return it->second.queue.size() + it->second.in_flight;
}

double IoEngine::DiskHeadroom(uint64_t disk_tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  return DiskHeadroomLocked(disk_tag);
}

double IoEngine::DiskServiceRateNs(uint64_t disk_tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = disk_queues_.find(disk_tag);
  if (it == disk_queues_.end()) return 0.0;
  return it->second.ewma_service_ns;
}

void IoEngine::LabelDisk(uint64_t disk_tag, uint64_t route) {
  if (route == 0) return;  // route 0 is the whole-engine bucket
  std::lock_guard<std::mutex> lock(mu_);
  route_tags_[route] = disk_tag;
  // Tags are device pointers; a fresh device landing on a recycled
  // allocation must not inherit the dead device's health record.
  auto hit = health_.find(disk_tag);
  if (hit != health_.end()) {
    if (hit->second.quarantined) quarantined_count_--;
    health_.erase(hit);
  }
}

void IoEngine::FoldHealthLocked(uint64_t disk_tag, bool ok,
                                uint64_t service_ns) {
  DiskHealthState& h = health_[disk_tag];
  // The error fold starts from an implicit clean prior (0.0), NOT a
  // first-sample seed: one transient blip must not jump the ewma to 1.0
  // and quarantine a healthy disk — it takes three straight failures to
  // cross kQuarantineEnter.
  const double fail = ok ? 0.0 : 1.0;
  h.error_ewma = 0.75 * h.error_ewma + 0.25 * fail;
  if (ok && service_ns > 0) {
    const double took = static_cast<double>(service_ns);
    h.latency_ewma_ns = h.latency_ewma_ns == 0.0
                            ? took
                            : 0.75 * h.latency_ewma_ns + 0.25 * took;
  }
  h.samples++;
  if (!h.quarantined && h.error_ewma > kQuarantineEnter) {
    h.quarantined = true;
    quarantined_count_++;
  } else if (h.quarantined && !h.fail_stopped &&
             h.error_ewma < kQuarantineExit) {
    // A fail-stopped head is latched: success evidence (e.g. deferred
    // accounting riding the tag, or a stray probe) never clears it.
    h.quarantined = false;
    quarantined_count_--;
  }
}

void IoEngine::ReportDiskResult(uint64_t disk_tag, bool ok,
                                uint64_t service_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  FoldHealthLocked(disk_tag, ok, service_ns);
}

void IoEngine::ReportDiskFailStop(uint64_t disk_tag) {
  std::lock_guard<std::mutex> lock(mu_);
  DiskHealthState& h = health_[disk_tag];
  h.error_ewma = 1.0;
  h.samples++;
  h.fail_stopped = true;
  if (!h.quarantined) {
    h.quarantined = true;
    quarantined_count_++;
  }
}

void IoEngine::SetDiskRebuilding(uint64_t disk_tag, bool rebuilding) {
  std::lock_guard<std::mutex> lock(mu_);
  health_[disk_tag].in_rebuild = rebuilding;
}

void IoEngine::ForgetDisk(uint64_t disk_tag) {
  std::lock_guard<std::mutex> lock(mu_);
  auto hit = health_.find(disk_tag);
  if (hit != health_.end()) {
    if (hit->second.quarantined) quarantined_count_--;
    health_.erase(hit);
  }
  for (auto it = route_tags_.begin(); it != route_tags_.end();) {
    it = it->second == disk_tag ? route_tags_.erase(it) : std::next(it);
  }
}

IoEngine::DiskHealthSnapshot IoEngine::DiskHealth(uint64_t disk_tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  DiskHealthSnapshot snap;
  auto it = health_.find(disk_tag);
  if (it == health_.end()) return snap;
  snap.error_ewma = it->second.error_ewma;
  snap.latency_ewma_ns = it->second.latency_ewma_ns;
  snap.samples = it->second.samples;
  snap.quarantined = it->second.quarantined;
  snap.fail_stopped = it->second.fail_stopped;
  snap.in_rebuild = it->second.in_rebuild;
  return snap;
}

std::map<uint64_t, IoEngine::DiskHealthSnapshot> IoEngine::HealthSnapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, DiskHealthSnapshot> out;
  for (const auto& [tag, h] : health_) {
    DiskHealthSnapshot snap;
    snap.error_ewma = h.error_ewma;
    snap.latency_ewma_ns = h.latency_ewma_ns;
    snap.samples = h.samples;
    snap.quarantined = h.quarantined;
    snap.fail_stopped = h.fail_stopped;
    snap.in_rebuild = h.in_rebuild;
    out.emplace(tag, snap);
  }
  return out;
}

std::vector<uint64_t> IoEngine::QuarantinedTagsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  for (const auto& [tag, h] : health_) {
    if (h.quarantined) out.push_back(tag);
  }
  return out;
}

bool IoEngine::DiskQuarantined(uint64_t disk_tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = health_.find(disk_tag);
  return it != health_.end() && it->second.quarantined;
}

size_t IoEngine::quarantined_disks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_count_;
}

bool IoEngine::RouteQuarantined(uint64_t route) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (route == 0) return false;
  auto rit = route_tags_.find(route);
  if (rit == route_tags_.end()) return false;
  auto hit = health_.find(rit->second);
  return hit != health_.end() && hit->second.quarantined;
}

bool IoEngine::AnyQuarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_count_ > 0;
}

void IoEngine::ReportRingResult(bool ok) {
  if (ok) {
    ring_failures_.store(0, std::memory_order_relaxed);
    return;
  }
  if (ring_failures_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      kRingFailureLimit) {
    ring_disabled_.store(true, std::memory_order_release);
  }
}

uint64_t IoEngine::timeouts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeouts_;
}

double IoEngine::RouteHeadroom(uint64_t route) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (route != 0) {
    auto it = route_tags_.find(route);
    if (it != route_tags_.end()) return DiskHeadroomLocked(it->second);
  }
  return HeadroomLocked();
}

void IoEngine::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // During shutdown, head-capped jobs must still drain: keep
      // sleeping until one becomes runnable (a completion frees its
      // head and re-signals) and exit only when nothing is left.
      work_cv_.wait(
          lock, [this] { return Runnable() || (stop_ && queued_count_ == 0); });
      if (!PickJob(&job)) return;  // stop_ set and every queue empty
      busy_workers_++;
    }
    const bool tagged = job.disk != kNoDisk;
    const uint64_t began_ns = tagged ? SteadyNowNs() : 0;
    Status s = ExecuteJob(job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      busy_workers_--;
      if (tagged) {
        // Drop a drained disk's queue entry: tags are device pointers,
        // so a long-lived engine would otherwise accumulate (and scan,
        // under the mutex) one dead entry per destroyed device — and a
        // recycled allocation could alias a stale queue.
        auto it = disk_queues_.find(job.disk);
        it->second.in_flight--;
        const uint64_t took_ns = SteadyNowNs() - began_ns;
        const double took = static_cast<double>(took_ns);
        it->second.ewma_service_ns =
            it->second.ewma_service_ns == 0.0
                ? took
                : 0.75 * it->second.ewma_service_ns + 0.25 * took;
        if (it->second.queue.empty() && it->second.in_flight == 0) {
          disk_queues_.erase(it);
        }
        // Health evidence: the job's FINAL status (retries already
        // applied), plus its service time on success — a slow-but-
        // correct head shows up in latency_ewma_ns, a failing one in
        // error_ewma.
        FoldHealthLocked(job.disk, s.ok(), s.ok() ? took_ns : 0);
      }
      if (abandoned_.erase(job.ticket) == 0) {
        done_[job.ticket] = std::move(s);
      }
    }
    // A finished tagged job frees a head: capped same-disk jobs may be
    // runnable now, so wake the workers too. Untagged completions free
    // nothing a sleeping worker could run (submission has its own
    // notify), so skip the futile wakeups on that hot path.
    if (tagged) work_cv_.notify_all();
    done_cv_.notify_all();
  }
}

}  // namespace vem
