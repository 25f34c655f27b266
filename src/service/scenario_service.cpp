#include "service/scenario_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "io/checkpoint.hpp"
#include "io/serialize.hpp"
#include "sph/kernels.hpp"
#include "util/omp.hpp"

namespace asura::service {

namespace {

double nowMs() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(clock::now().time_since_epoch())
      .count();
}

/// Minimal scope guard: the lease-release bookkeeping must run on every exit
/// path of a control op, including the throwing ones.
template <class F>
struct ScopeExit {
  F fn;
  ~ScopeExit() { fn(); }
};
template <class F>
ScopeExit<F> onScopeExit(F fn) {
  return {std::move(fn)};
}

}  // namespace

const char* toString(InstanceState s) {
  switch (s) {
    case InstanceState::Created: return "created";
    case InstanceState::Running: return "running";
    case InstanceState::Paused: return "paused";
    case InstanceState::Failed: return "failed";
    case InstanceState::Archived: return "archived";
  }
  return "?";
}

bool transitionAllowed(InstanceState from, InstanceState to) {
  using S = InstanceState;
  switch (from) {
    case S::Created:
      return to == S::Running || to == S::Archived;
    case S::Running:
      return to == S::Paused || to == S::Failed || to == S::Archived;
    case S::Paused:
      return to == S::Running || to == S::Archived;
    case S::Failed:
      // rollback rehabilitates a Failed instance into Paused; start then
      // resumes it. Direct Failed -> Running would skip the restore.
      return to == S::Paused || to == S::Archived;
    case S::Archived:
      return false;  // terminal
  }
  return false;
}

/// Per-instance heartbeat slot: written from inside step() via the progress
/// reporter on whichever worker currently leases the instance, read lock-
/// free by info(). Namespaced by instance, not by rank — each hosted
/// Simulation publishes its own liveness stream.
struct Heartbeat {
  std::atomic<long> step{-1};
  std::atomic<int> phase{-1};
  std::atomic<std::uint64_t> beats{0};
};

struct ScenarioService::Instance {
  InstanceId id = 0;
  std::string name;
  InstanceState state = InstanceState::Created;
  long target_step = 0;
  InstanceId cloned_from = 0;

  /// The un-escalated creation config: escalation plans derive from it.
  core::SimulationConfig base_cfg;
  /// Backend the live Simulation was built with (shared across instances is
  /// fine — forwards run under ml::InferenceModeScope).
  std::shared_ptr<core::SurrogateBackend> backend;
  bool oracle_forced = false;  ///< ladder level >= 2 rebuilt sim with oracle

  std::unique_ptr<core::Simulation> sim;  ///< null once Archived
  core::SnapshotRing ring;
  Heartbeat hb;

  // Recovery bookkeeping (mutated under the lease only).
  int retries = 0;
  int escalation_level = 0;
  long rollbacks = 0;
  long wasted_steps = 0;
  std::string last_error;

  // Scheduling flags. All plain fields are mutated under mu_ OR under the
  // exclusive lease; `interrupt` is the one flag a control op raises while
  // a stepping worker reads it between steps, hence atomic.
  bool leased = false;
  bool queued = false;
  bool pending_pause = false;
  bool pending_fail = false;
  std::atomic<bool> interrupt{false};

  // Published under mu_ at lease release so info() never reads a mid-step
  // Simulation — nor the recovery/ring bookkeeping the stepping worker
  // mutates under the lease only. info() must touch nothing but these
  // pub_ copies, the immutable fields, the state/flags guarded by mu_,
  // and the heartbeat atomics.
  long pub_step = 0;
  double pub_time = 0.0;
  int pub_retries = 0;
  int pub_escalation_level = 0;
  long pub_rollbacks = 0;
  long pub_wasted_steps = 0;
  std::string pub_last_error;
  long pub_snapshots = 0;
  long pub_snapshot_step = -1;
  int pub_snapshots_held = 0;

  std::vector<std::pair<std::uint64_t, SnapshotSubscriber>> subscribers;
  std::function<void(core::Simulation&, long)> hook;

  // Per-step wall-clock latency ring [ms].
  std::vector<double> latencies;
  std::uint64_t latency_count = 0;

  void wireHeartbeat() {
    Heartbeat* h = &hb;
    sim->setProgressReporter([h](long step, int phase) {
      h->step.store(step, std::memory_order_relaxed);
      h->phase.store(phase, std::memory_order_relaxed);
      h->beats.fetch_add(1, std::memory_order_relaxed);
    });
  }

  void publish() {
    if (sim) {
      pub_step = sim->stepCount();
      pub_time = sim->time();
    }
    pub_retries = retries;
    pub_escalation_level = escalation_level;
    pub_rollbacks = rollbacks;
    pub_wasted_steps = wasted_steps;
    pub_last_error = last_error;
    pub_snapshots = static_cast<long>(ring.pushes());
    pub_snapshot_step = ring.lastStep();
    pub_snapshots_held = static_cast<int>(
        std::count_if(ring.entries().begin(), ring.entries().end(),
                      [](const core::SnapshotEntry& e) { return e.valid; }));
  }
};

ScenarioService::ScenarioService(ServiceConfig cfg) : cfg_(cfg) {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("ServiceConfig: " + what);
  };
  if (cfg_.n_workers < 1) bad("n_workers must be >= 1");
  if (cfg_.step_budget < 1) bad("step_budget must be >= 1");
  if (cfg_.snapshot_interval < 1) bad("snapshot_interval must be >= 1");
  if (cfg_.ring_slots < 2) bad("ring_slots must be >= 2");
  if (cfg_.max_retries < 0) bad("max_retries must be non-negative");
  if (cfg_.latency_samples < 1) bad("latency_samples must be >= 1");

  workers_.reserve(static_cast<std::size_t>(cfg_.n_workers));
  for (int w = 0; w < cfg_.n_workers; ++w) {
    workers_.emplace_back([this, w] { workerLoop(w); });
  }
}

ScenarioService::~ScenarioService() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

// ---------------------------------------------------------------------------
// Control-plane plumbing
// ---------------------------------------------------------------------------

void ScenarioService::submitAndWait(const std::function<void()>& fn) {
  auto op = std::make_shared<ControlOp>();
  op->fn = fn;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) throw std::runtime_error("scenario service is shutting down");
    control_queue_.push_back(op);
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lk(op->m);
  op->cv.wait(lk, [&] { return op->done; });
  if (op->error) std::rethrow_exception(op->error);
}

ScenarioService::Instance& ScenarioService::instanceRef(InstanceId id) {
  for (auto& inst : instances_) {
    if (inst->id == id) return *inst;
  }
  throw std::runtime_error("scenario service: no instance with id " +
                           std::to_string(id));
}

void ScenarioService::enqueueRunnable(InstanceId id) {
  Instance& inst = instanceRef(id);
  if (!inst.queued && !inst.leased) {
    run_queue_.push_back(id);
    inst.queued = true;
  }
}

std::unique_lock<std::mutex> ScenarioService::leaseForControl(Instance& inst) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !inst.leased; });
  inst.leased = true;
  // Pull it off the run queue while we hold it: a stepping worker must not
  // pick it up underneath the control op.
  if (inst.queued) {
    run_queue_.erase(std::remove(run_queue_.begin(), run_queue_.end(), inst.id),
                     run_queue_.end());
    inst.queued = false;
  }
  return lk;
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

void ScenarioService::workerLoop(int worker_index) {
  (void)worker_index;
  // Per-thread ICV: each worker pins its own OpenMP width for the parallel
  // regions inside step(). Bitwise-neutral (thread-count determinism is a
  // step() contract); pure throughput tuning.
  util::ompSetThreads(cfg_.omp_threads_per_instance);

  for (;;) {
    std::shared_ptr<ControlOp> op;
    InstanceId run_id = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] {
        return stop_ || !control_queue_.empty() || !run_queue_.empty();
      });
      if (!control_queue_.empty()) {
        // Control ops outrank stepping so the control plane stays
        // responsive while every worker is saturated with physics; on
        // shutdown the queue is still drained so no submitter hangs.
        op = control_queue_.front();
        control_queue_.pop_front();
        ++active_slices_;
      } else if (stop_) {
        return;
      } else {
        run_id = run_queue_.front();
        run_queue_.pop_front();
        Instance& inst = instanceRef(run_id);
        inst.queued = false;
        inst.leased = true;
        ++active_slices_;
      }
    }

    if (op) {
      try {
        op->fn();
      } catch (...) {
        op->error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(op->m);
        op->done = true;
      }
      op->cv.notify_all();
      {
        std::lock_guard<std::mutex> lk(mu_);
        --active_slices_;
      }
      cv_.notify_all();
      continue;
    }

    {
      Instance* inst;
      {
        std::lock_guard<std::mutex> lk(mu_);
        inst = &instanceRef(run_id);
      }
      // The lease is exclusive: no lock needed around the physics.
      runSlice(*inst);

      std::lock_guard<std::mutex> lk(mu_);
      inst->publish();
      if (inst->pending_fail) {
        inst->state = InstanceState::Failed;
        inst->pending_fail = false;
        inst->pending_pause = false;
      } else if (inst->pending_pause || inst->pub_step >= inst->target_step) {
        inst->state = InstanceState::Paused;
        inst->pending_pause = false;
      } else if (inst->state == InstanceState::Running) {
        run_queue_.push_back(inst->id);
        inst->queued = true;
      }
      inst->interrupt.store(false, std::memory_order_relaxed);
      inst->leased = false;
      --active_slices_;
    }
    cv_.notify_all();
  }
}

void ScenarioService::runSlice(Instance& inst) {
  long done = 0;
  bool interrupted = false;
  while (done < cfg_.step_budget) {
    if (inst.interrupt.load(std::memory_order_relaxed)) {
      interrupted = true;
      break;
    }
    const long at = inst.sim->stepCount();
    if (at >= inst.target_step) break;
    try {
      if (inst.hook) inst.hook(*inst.sim, at);
      const double t0 = nowMs();
      inst.sim->step();
      const double t1 = nowMs();
      const std::size_t cap = cfg_.latency_samples;
      if (inst.latencies.size() < cap) {
        inst.latencies.push_back(t1 - t0);
      } else {
        inst.latencies[static_cast<std::size_t>(inst.latency_count % cap)] =
            t1 - t0;
      }
      ++inst.latency_count;
    } catch (const std::exception& e) {
      recoverOrFail(inst, e.what());
      return;  // slice ends either way; a recovered instance requeues
    } catch (...) {
      recoverOrFail(inst, "step threw a non-standard exception");
      return;
    }
    ++done;
    // The snapshot push can throw too (serializeState allocation): route it
    // through the same recovery ladder — an escaping exception here would
    // std::terminate the worker and take the whole multi-tenant host down.
    if (inst.sim->stepCount() % cfg_.snapshot_interval == 0) {
      try {
        pushSnapshotLeased(inst);
      } catch (const std::exception& e) {
        recoverOrFail(inst, std::string("snapshot push failed: ") + e.what());
        return;
      } catch (...) {
        recoverOrFail(inst, "snapshot push failed: non-standard exception");
        return;
      }
    }
  }
  // A slice that parks the instance (interrupt raised by pause/archive, or
  // target reached) publishes a fresh snapshot so latestSnapshot and clone
  // see exactly the state the control plane observes.
  if (inst.sim && (interrupted || inst.sim->stepCount() >= inst.target_step) &&
      inst.ring.lastStep() != inst.sim->stepCount()) {
    try {
      pushSnapshotLeased(inst);
    } catch (const std::exception& e) {
      recoverOrFail(inst, std::string("snapshot push failed: ") + e.what());
    } catch (...) {
      recoverOrFail(inst, "snapshot push failed: non-standard exception");
    }
  }
}

void ScenarioService::recoverOrFail(Instance& inst, const std::string& cause) {
  const long failed_at = inst.sim ? inst.sim->stepCount() : -1;
  inst.last_error = cause;
  ++inst.retries;
  if (inst.retries > cfg_.max_retries) {
    inst.pending_fail = true;
    return;
  }

  inst.escalation_level = std::min(inst.retries - 1, core::kMaxEscalation);
  const auto plan = core::planAttempt(inst.base_cfg, inst.escalation_level);

  try {
    if (plan.force_oracle && !inst.oracle_forced) {
      // The backend is a construction-time choice: rebuild the Simulation
      // shell (same pool shape) and let the ring restore replace the state.
      inst.backend = std::make_shared<core::SedovOracleBackend>();
      inst.sim = std::make_unique<core::Simulation>(
          std::vector<fdps::Particle>{}, plan.cfg, inst.backend);
      inst.oracle_forced = true;
    }
    core::SnapshotEntry* entry = inst.ring.latest();
    if (!entry) {
      throw std::runtime_error("no valid ring snapshot to roll back to");
    }
    core::SnapshotRing::restoreEntry(*entry, *inst.sim,
                                     "instance " + std::to_string(inst.id));
    // The snapshot's config predates this attempt's ladder level.
    inst.sim->config() = core::escalateConfig(inst.sim->config(), plan.level);
    inst.wireHeartbeat();
    ++inst.rollbacks;
    inst.wasted_steps += std::max(0L, failed_at - entry->step);
  } catch (const std::exception& e) {
    // Recovery itself failed (corrupt ring, restore mismatch): park.
    inst.last_error = inst.last_error + "; recovery failed: " + e.what();
    inst.pending_fail = true;
  }
}

void ScenarioService::pushSnapshotLeased(Instance& inst) {
  inst.ring.push(*inst.sim);
  if (inst.subscribers.empty()) return;
  const core::SnapshotEntry* e = inst.ring.latest();
  Snapshot snap;
  snap.instance = inst.id;
  snap.step = e->step;
  snap.time = e->time;
  snap.crc = e->crc;
  snap.bytes = std::make_shared<const std::vector<char>>(e->bytes);
  for (const auto& [token, fn] : inst.subscribers) {
    (void)token;
    // Subscribers are observers: a throwing callback must neither perturb
    // the instance's trajectory nor kill the hosting worker, and one bad
    // subscriber must not starve the others of the blob.
    try {
      fn(snap);
    } catch (...) {
    }
  }
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

InstanceId ScenarioService::create(InstanceSpec spec) {
  InstanceId id = 0;
  submitAndWait([this, &spec, &id] {
    auto inst = std::make_unique<Instance>();
    inst->name = std::move(spec.name);
    inst->base_cfg = spec.cfg;
    inst->backend = std::move(spec.backend);
    inst->sim = std::make_unique<core::Simulation>(std::move(spec.particles),
                                                   spec.cfg, inst->backend);
    // Admission check: reject a bad config here, with the exact step-entry
    // diagnostics, instead of steps later on a worker thread.
    inst->sim->validateConfig();
    inst->ring.resize(cfg_.ring_slots);
    inst->wireHeartbeat();
    // Seed the ring with the creation state: rollback, clone and streaming
    // work before the first interval snapshot, and a failure on the very
    // first step still has somewhere to go.
    inst->ring.push(*inst->sim);
    inst->publish();
    {
      std::lock_guard<std::mutex> lk(mu_);
      inst->id = next_id_++;
      id = inst->id;
      instances_.push_back(std::move(inst));
    }
  });
  return id;
}

InstanceId ScenarioService::clone(InstanceId src, std::string name,
                                  std::uint64_t reseed) {
  InstanceId id = 0;
  submitAndWait([this, src, &name, reseed, &id] {
    Instance* source;
    {
      std::lock_guard<std::mutex> lk(mu_);
      source = &instanceRef(src);
    }
    auto lk = leaseForControl(*source);
    auto release = onScopeExit([this, source] {
      std::lock_guard<std::mutex> g(mu_);
      source->leased = false;
      if (source->state == InstanceState::Running &&
          source->pub_step < source->target_step) {
        enqueueRunnable(source->id);
      }
      cv_.notify_all();
    });
    lk.unlock();

    core::SnapshotEntry* entry = source->ring.latest();
    if (!entry) {
      throw std::runtime_error("clone: source instance " + std::to_string(src) +
                               " has no snapshot");
    }
    auto inst = std::make_unique<Instance>();
    inst->name = std::move(name);
    inst->cloned_from = src;
    inst->base_cfg = source->base_cfg;
    inst->backend = source->backend;
    inst->oracle_forced = source->oracle_forced;
    inst->escalation_level = source->escalation_level;
    // Shell with the source's (possibly escalated) shape; the restore then
    // replaces every byte of state with the snapshot's.
    inst->sim = std::make_unique<core::Simulation>(
        std::vector<fdps::Particle>{},
        core::escalateConfig(source->base_cfg, source->escalation_level),
        inst->backend);
    core::SnapshotRing::restoreEntry(*entry, *inst->sim,
                                     "clone of " + std::to_string(src));
    inst->sim->config() =
        core::escalateConfig(inst->sim->config(), source->escalation_level);
    if (reseed != 0) inst->sim->reseedRng(reseed);
    inst->ring.resize(cfg_.ring_slots);
    inst->wireHeartbeat();
    inst->ring.push(*inst->sim);
    inst->publish();
    {
      std::lock_guard<std::mutex> g(mu_);
      inst->id = next_id_++;
      id = inst->id;
      instances_.push_back(std::move(inst));
    }
  });
  return id;
}

void ScenarioService::start(InstanceId id, long target_step) {
  submitAndWait([this, id, target_step] {
    std::lock_guard<std::mutex> lk(mu_);
    Instance& inst = instanceRef(id);
    if (!transitionAllowed(inst.state, InstanceState::Running)) {
      throw std::runtime_error(std::string("start: illegal transition ") +
                               toString(inst.state) + " -> running");
    }
    if (target_step <= inst.pub_step) {
      throw std::runtime_error(
          "start: target step " + std::to_string(target_step) +
          " does not exceed current step " + std::to_string(inst.pub_step));
    }
    inst.state = InstanceState::Running;
    inst.target_step = target_step;
    // Belt and braces against stale park requests (e.g. two pause() calls
    // racing on the same unleased instance): a leftover interrupt or
    // pending_pause would re-park this fresh run at its current step with
    // zero progress made toward the target.
    inst.pending_pause = false;
    inst.interrupt.store(false, std::memory_order_relaxed);
    enqueueRunnable(id);
  });
  cv_.notify_all();
}

void ScenarioService::pause(InstanceId id) {
  submitAndWait([this, id] {
    std::unique_lock<std::mutex> lk(mu_);
    Instance& inst = instanceRef(id);
    if (inst.state == InstanceState::Paused) return;  // idempotent
    if (!transitionAllowed(inst.state, InstanceState::Paused)) {
      throw std::runtime_error(std::string("pause: illegal transition ") +
                               toString(inst.state) + " -> paused");
    }
    if (!inst.leased) {
      // Not mid-slice: take the lease ourselves, publish the snapshot the
      // parked state promises, and transition directly.
      run_queue_.erase(std::remove(run_queue_.begin(), run_queue_.end(), id),
                       run_queue_.end());
      inst.queued = false;
      inst.leased = true;
      // The park bookkeeping must run on every exit path: a snapshot push
      // that throws (subscriber allocation, serializeState bad_alloc) would
      // otherwise leak the lease and deadlock every future op on this
      // instance. The sim state itself is untouched either way, so the
      // instance still parks in Paused; the error propagates to the caller
      // as "paused, but the promised snapshot was not pushed".
      auto release = onScopeExit([&] {
        if (!lk.owns_lock()) lk.lock();
        inst.publish();
        inst.state = InstanceState::Paused;
        // A concurrent pause() racing this direct path may have raised the
        // mid-slice flags after we took the lease; clear them so the next
        // start() does not immediately re-park at the current step.
        inst.pending_pause = false;
        inst.interrupt.store(false, std::memory_order_relaxed);
        inst.leased = false;
        cv_.notify_all();
      });
      lk.unlock();
      if (inst.sim && inst.ring.lastStep() != inst.sim->stepCount()) {
        pushSnapshotLeased(inst);
      }
      return;
    }
    // Mid-slice: the stepping worker honors the interrupt at the next step
    // boundary and parks the instance. Wait for it so pause() returning
    // means "not running" (Paused, or Failed if the final step threw).
    inst.pending_pause = true;
    inst.interrupt.store(true, std::memory_order_relaxed);
    cv_.wait(lk, [&] { return inst.state != InstanceState::Running; });
  });
  cv_.notify_all();
}

void ScenarioService::rollback(InstanceId id) {
  submitAndWait([this, id] {
    Instance* inst;
    {
      std::lock_guard<std::mutex> lk(mu_);
      inst = &instanceRef(id);
      if (inst->state != InstanceState::Paused &&
          inst->state != InstanceState::Failed) {
        throw std::runtime_error(std::string("rollback: instance is ") +
                                 toString(inst->state) +
                                 " (pause it first, or archive)");
      }
      if (!inst->sim) {
        throw std::runtime_error("rollback: instance has no live simulation");
      }
    }
    auto lk = leaseForControl(*inst);
    auto release = onScopeExit([this, inst] {
      std::lock_guard<std::mutex> g(mu_);
      inst->leased = false;
      cv_.notify_all();
    });
    lk.unlock();

    core::SnapshotEntry* entry = inst->ring.latest();
    if (!entry) throw std::runtime_error("rollback: no valid ring snapshot");
    core::SnapshotRing::restoreEntry(*entry, *inst->sim,
                                     "rollback of " + std::to_string(id));
    inst->sim->config() =
        core::escalateConfig(inst->sim->config(), inst->escalation_level);
    inst->wireHeartbeat();
    ++inst->rollbacks;
    // Rehabilitation: a Failed instance becomes restartable with a fresh
    // retry budget (the operator chose to roll back; the ladder level is
    // kept — it encodes what the failures taught us).
    {
      std::lock_guard<std::mutex> g(mu_);
      inst->retries = 0;
      inst->publish();
      if (inst->state == InstanceState::Failed) {
        inst->state = InstanceState::Paused;
      }
    }
  });
  cv_.notify_all();
}

void ScenarioService::archive(InstanceId id, const std::string& checkpoint_path) {
  submitAndWait([this, id, &checkpoint_path] {
    Instance* inst;
    {
      std::lock_guard<std::mutex> lk(mu_);
      inst = &instanceRef(id);
      if (!transitionAllowed(inst->state, InstanceState::Archived)) {
        throw std::runtime_error(std::string("archive: illegal transition ") +
                                 toString(inst->state) + " -> archived");
      }
      inst->interrupt.store(true, std::memory_order_relaxed);
    }
    auto lk = leaseForControl(*inst);
    auto release = onScopeExit([this, inst] {
      std::lock_guard<std::mutex> g(mu_);
      inst->leased = false;
      cv_.notify_all();
    });
    lk.unlock();

    if (inst->sim && inst->ring.lastStep() != inst->sim->stepCount()) {
      pushSnapshotLeased(*inst);
    }
    if (!checkpoint_path.empty()) {
      const core::SnapshotEntry* e = inst->ring.latest();
      if (!e) throw std::runtime_error("archive: no snapshot to write");
      io::writeCheckpointRaw(checkpoint_path, e->step, e->time, {e->bytes});
    }
    {
      std::lock_guard<std::mutex> g(mu_);
      // Release every ring slot but the newest and the live Simulation
      // (particles, pool threads): no transition leaves Archived, so only
      // latest() is read again (clones, late subscribers, latestSnapshot).
      inst->ring.retainLatest();
      inst->publish();
      inst->state = InstanceState::Archived;
      inst->interrupt.store(false, std::memory_order_relaxed);
      inst->sim.reset();
      run_queue_.erase(std::remove(run_queue_.begin(), run_queue_.end(), id),
                       run_queue_.end());
      inst->queued = false;
    }
  });
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

std::uint64_t ScenarioService::subscribe(InstanceId id, SnapshotSubscriber fn) {
  std::uint64_t token = 0;
  submitAndWait([this, id, &fn, &token] {
    Instance* inst;
    {
      std::lock_guard<std::mutex> lk(mu_);
      inst = &instanceRef(id);
      token = next_token_++;
    }
    auto lk = leaseForControl(*inst);
    auto release = onScopeExit([this, inst] {
      std::lock_guard<std::mutex> g(mu_);
      inst->leased = false;
      if (inst->state == InstanceState::Running &&
          inst->pub_step < inst->target_step) {
        enqueueRunnable(inst->id);
      }
      cv_.notify_all();
    });
    lk.unlock();
    inst->subscribers.emplace_back(token, fn);
    // Catch-up delivery: a late subscriber starts from a restorable state.
    if (const core::SnapshotEntry* e = inst->ring.latest()) {
      Snapshot snap;
      snap.instance = inst->id;
      snap.step = e->step;
      snap.time = e->time;
      snap.crc = e->crc;
      snap.bytes = std::make_shared<const std::vector<char>>(e->bytes);
      fn(snap);
    }
  });
  return token;
}

void ScenarioService::unsubscribe(std::uint64_t token) {
  submitAndWait([this, token] {
    Instance* owner = nullptr;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (auto& inst : instances_) {
        for (const auto& sub : inst->subscribers) {
          if (sub.first == token) {
            owner = inst.get();
            break;
          }
        }
        if (owner) break;
      }
    }
    if (!owner) return;  // idempotent
    auto lk = leaseForControl(*owner);
    auto release = onScopeExit([this, owner] {
      std::lock_guard<std::mutex> g(mu_);
      owner->leased = false;
      if (owner->state == InstanceState::Running &&
          owner->pub_step < owner->target_step) {
        enqueueRunnable(owner->id);
      }
      cv_.notify_all();
    });
    lk.unlock();
    auto& subs = owner->subscribers;
    subs.erase(
        std::remove_if(subs.begin(), subs.end(),
                       [token](const auto& p) { return p.first == token; }),
        subs.end());
  });
}

Snapshot ScenarioService::latestSnapshot(InstanceId id) {
  Snapshot snap;
  submitAndWait([this, id, &snap] {
    Instance* inst;
    {
      std::lock_guard<std::mutex> lk(mu_);
      inst = &instanceRef(id);
    }
    auto lk = leaseForControl(*inst);
    auto release = onScopeExit([this, inst] {
      std::lock_guard<std::mutex> g(mu_);
      inst->leased = false;
      if (inst->state == InstanceState::Running &&
          inst->pub_step < inst->target_step) {
        enqueueRunnable(inst->id);
      }
      cv_.notify_all();
    });
    lk.unlock();
    if (const core::SnapshotEntry* e = inst->ring.latest()) {
      snap.instance = inst->id;
      snap.step = e->step;
      snap.time = e->time;
      snap.crc = e->crc;
      snap.bytes = std::make_shared<const std::vector<char>>(e->bytes);
    }
  });
  return snap;
}

RoiResult ScenarioService::queryRoi(InstanceId id, const voxel::RoiSpec& spec,
                                    const voxel::VoxelParams& params) {
  RoiResult result;
  submitAndWait([this, id, &spec, &params, &result] {
    Instance* inst;
    {
      std::lock_guard<std::mutex> lk(mu_);
      inst = &instanceRef(id);
    }
    auto lk = leaseForControl(*inst);
    auto release = onScopeExit([this, inst] {
      std::lock_guard<std::mutex> g(mu_);
      inst->leased = false;
      if (inst->state == InstanceState::Running &&
          inst->pub_step < inst->target_step) {
        enqueueRunnable(inst->id);
      }
      cv_.notify_all();
    });
    lk.unlock();
    if (!inst->sim) {
      throw std::runtime_error("queryRoi: instance " + std::to_string(id) +
                               " is archived (no live particle state)");
    }
    result.step = inst->sim->stepCount();
    result.time = inst->sim->time();
    const sph::Kernel kernel{};
    result.grid = voxel::projectRoi(inst->sim->particles(), spec, params, kernel);
  });
  return result;
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

InstanceInfo ScenarioService::info(InstanceId id) {
  InstanceInfo out;
  submitAndWait([this, id, &out] {
    std::lock_guard<std::mutex> lk(mu_);
    const Instance& inst = instanceRef(id);
    out.id = inst.id;
    out.name = inst.name;
    out.state = inst.state;
    out.step = inst.pub_step;
    out.target_step = inst.target_step;
    out.time = inst.pub_time;
    out.cloned_from = inst.cloned_from;
    out.retries = inst.pub_retries;
    out.escalation_level = inst.pub_escalation_level;
    out.rollbacks = inst.pub_rollbacks;
    out.wasted_steps = inst.pub_wasted_steps;
    out.last_error = inst.pub_last_error;
    out.heartbeat_step = inst.hb.step.load(std::memory_order_relaxed);
    out.heartbeat_phase = inst.hb.phase.load(std::memory_order_relaxed);
    out.heartbeats = inst.hb.beats.load(std::memory_order_relaxed);
    out.snapshots = inst.pub_snapshots;
    out.snapshot_step = inst.pub_snapshot_step;
    out.snapshots_held = inst.pub_snapshots_held;
  });
  return out;
}

std::vector<InstanceInfo> ScenarioService::list() {
  std::vector<InstanceId> ids;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ids.reserve(instances_.size());
    for (const auto& inst : instances_) ids.push_back(inst->id);
  }
  std::vector<InstanceInfo> out;
  out.reserve(ids.size());
  for (InstanceId id : ids) out.push_back(info(id));
  return out;
}

std::vector<double> ScenarioService::stepLatenciesMs(InstanceId id) {
  std::vector<double> out;
  submitAndWait([this, id, &out] {
    Instance* inst;
    {
      std::lock_guard<std::mutex> lk(mu_);
      inst = &instanceRef(id);
    }
    auto lk = leaseForControl(*inst);
    auto release = onScopeExit([this, inst] {
      std::lock_guard<std::mutex> g(mu_);
      inst->leased = false;
      if (inst->state == InstanceState::Running &&
          inst->pub_step < inst->target_step) {
        enqueueRunnable(inst->id);
      }
      cv_.notify_all();
    });
    lk.unlock();
    out = inst->latencies;
  });
  return out;
}

void ScenarioService::waitIdle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] {
    return control_queue_.empty() && run_queue_.empty() && active_slices_ == 0;
  });
}

void ScenarioService::setStepHook(
    InstanceId id, std::function<void(core::Simulation&, long)> hook) {
  submitAndWait([this, id, &hook] {
    Instance* inst;
    {
      std::lock_guard<std::mutex> lk(mu_);
      inst = &instanceRef(id);
    }
    auto lk = leaseForControl(*inst);
    auto release = onScopeExit([this, inst] {
      std::lock_guard<std::mutex> g(mu_);
      inst->leased = false;
      if (inst->state == InstanceState::Running &&
          inst->pub_step < inst->target_step) {
        enqueueRunnable(inst->id);
      }
      cv_.notify_all();
    });
    lk.unlock();
    inst->hook = std::move(hook);
  });
}

}  // namespace asura::service
