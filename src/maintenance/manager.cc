#include "maintenance/manager.h"

#include "common/check.h"
#include "core/fractured_upi.h"
#include "storage/db_env.h"

namespace upi::maintenance {

MaintenanceManager::MaintenanceManager(storage::DbEnv* env,
                                       MaintenanceManagerOptions options)
    : env_(env),
      options_(options),
      policy_(options.policy, env->profile()),
      m_flushes_(env->metrics()->counter("upi_maintenance_flushes_total")),
      m_partial_merges_(
          env->metrics()->counter("upi_maintenance_partial_merges_total")),
      m_full_merges_(
          env->metrics()->counter("upi_maintenance_full_merges_total")),
      m_task_sim_ms_(env->metrics()->histogram("upi_maintenance_task_sim_ms")),
      m_queue_depth_(env->metrics()->gauge("upi_maintenance_queue_depth")) {
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MaintenanceManager::~MaintenanceManager() { Stop(); }

void MaintenanceManager::Register(core::FracturedUpi* table) {
  std::lock_guard<sync::Mutex> lock(mu_);
  tables_.try_emplace(table);
}

void MaintenanceManager::Unregister(core::FracturedUpi* table) {
  std::unique_lock<sync::Mutex> lock(mu_);
  idle_cv_.wait(lock, [&] {
    auto it = tables_.find(table);
    return it == tables_.end() || !it->second.active;
  });
  tables_.erase(table);
}

bool MaintenanceManager::TryEnqueue(core::FracturedUpi* table, TaskKind kind,
                                    size_t merge_count, bool force) {
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) return false;  // not registered
    if (it->second.active) {
      if (force) {
        // Remember the request; it runs as the in-flight task's follow-up.
        it->second.has_forced = true;
        it->second.forced = kind;
      }
      return false;
    }
    it->second.active = true;
    ++in_flight_;
  }
  if (!queue_.Push(MaintenanceTask{kind, table, merge_count})) {
    // Queue closed between the slot claim and the push: release the slot.
    std::lock_guard<sync::Mutex> lock(mu_);
    auto it = tables_.find(table);
    if (it != tables_.end()) it->second.active = false;
    --in_flight_;
    idle_cv_.notify_all();
    return false;
  }
  UpdateQueueGauge();
  return true;
}

void MaintenanceManager::NotifyWrite(core::FracturedUpi* table) {
  if (stopped_.load(std::memory_order_relaxed)) return;
  if (notify_paused_.load(std::memory_order_relaxed)) return;
  Decision d = policy_.DecideFlush(*table);
  if (d.action != ActionKind::kFlush) return;
  TryEnqueue(table, TaskKind::kFlush, 0, /*force=*/false);
}

void MaintenanceManager::ScheduleFlush(core::FracturedUpi* table) {
  TryEnqueue(table, TaskKind::kFlush, 0, /*force=*/true);
}

void MaintenanceManager::ScheduleMergeAll(core::FracturedUpi* table) {
  TryEnqueue(table, TaskKind::kMergeAll, 0, /*force=*/true);
}

bool MaintenanceManager::ScheduleCheckpoint() {
  if (stopped_.load(std::memory_order_relaxed)) return false;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    if (checkpoint_active_) return false;  // absorbed by the pending one
    checkpoint_active_ = true;
    ++in_flight_;
  }
  if (!queue_.Push(MaintenanceTask{TaskKind::kCheckpoint, nullptr, 0})) {
    std::lock_guard<sync::Mutex> lock(mu_);
    checkpoint_active_ = false;
    --in_flight_;
    idle_cv_.notify_all();
    return false;
  }
  UpdateQueueGauge();
  return true;
}

Status MaintenanceManager::Execute(const MaintenanceTask& task) {
  switch (task.kind) {
    case TaskKind::kFlush:
      return task.table->FlushBuffer();
    case TaskKind::kMergePartial:
      return task.table->MergeOldestFractures(task.merge_count);
    case TaskKind::kMergeAll:
      return task.table->MergeAll();
    case TaskKind::kCheckpoint:
      return checkpoint_cb_ ? checkpoint_cb_() : Status::OK();
  }
  return Status::Internal("unknown task kind");
}

void MaintenanceManager::ExecuteAndFollowUp(const MaintenanceTask& task) {
  if (task.kind == TaskKind::kCheckpoint) {
    // Checkpoints are database-wide (no per-table slot, no follow-up).
    UpdateQueueGauge();
    sim::StatsWindow window(env_->disk());
    Status st;
    {
      // Maintenance I/O is an independent issuer to the device queue: on a
      // profile with internal parallelism it overlaps with concurrent query
      // traffic (no effect on the spinning disk's single head).
      sim::ConcurrentIoScope io_scope(env_->disk());
      st = Execute(task);
    }
    double sim_ms = window.ElapsedMs();
    if (m_task_sim_ms_ != nullptr) m_task_sim_ms_->Record(sim_ms);
    {
      std::lock_guard<sync::Mutex> lock(mu_);
      ++stats_.checkpoints;
      if (!st.ok() && last_error_.ok()) last_error_ = st;
      checkpoint_active_ = false;
      --in_flight_;
    }
    idle_cv_.notify_all();
    return;
  }
  UpdateQueueGauge();
  sim::StatsWindow window(env_->disk());
  Status st;
  {
    sim::ConcurrentIoScope io_scope(env_->disk());
    st = Execute(task);
  }
  double sim_ms = window.ElapsedMs();
  if (m_task_sim_ms_ != nullptr) m_task_sim_ms_->Record(sim_ms);

  bool forced = false;
  TaskKind forced_kind = TaskKind::kFlush;
  {
    std::lock_guard<sync::Mutex> lock(mu_);
    switch (task.kind) {
      case TaskKind::kFlush:
        ++stats_.flushes;
        stats_.flush_sim_ms += sim_ms;
        if (m_flushes_ != nullptr) m_flushes_->Add();
        break;
      case TaskKind::kMergePartial:
        ++stats_.partial_merges;
        stats_.merge_sim_ms += sim_ms;
        if (m_partial_merges_ != nullptr) m_partial_merges_->Add();
        break;
      case TaskKind::kMergeAll:
        ++stats_.full_merges;
        stats_.merge_sim_ms += sim_ms;
        if (m_full_merges_ != nullptr) m_full_merges_->Add();
        break;
      case TaskKind::kCheckpoint:
        // Checkpoints took the early return at the top of this function.
        UPI_CHECK(false, "checkpoint task reached the per-table follow-up");
        break;
    }
    if (!st.ok() && last_error_.ok()) last_error_ = st;
    auto it = tables_.find(task.table);
    if (it != tables_.end() && it->second.has_forced) {
      forced = true;
      forced_kind = it->second.forced;
      it->second.has_forced = false;
    }
  }

  // Follow-up: forced request first, then the policy re-check — writes that
  // accumulated during this task may already be over a watermark, and the
  // flush just installed may have tipped the cost model's merge trigger.
  // (Policy reads table stats; safe here because this thread still owns the
  // table's single maintenance slot.)
  MaintenanceTask next{TaskKind::kFlush, task.table, 0};
  bool have_next = false;
  if (forced) {
    next.kind = forced_kind;
    have_next = true;
  } else if (st.ok()) {
    if (policy_.DecideFlush(*task.table).action == ActionKind::kFlush) {
      next.kind = TaskKind::kFlush;
      have_next = true;
    } else {
      Decision m = policy_.DecideMerge(*task.table);
      if (m.action == ActionKind::kMergePartial) {
        next.kind = TaskKind::kMergePartial;
        next.merge_count = m.merge_count;
        have_next = true;
      } else if (m.action == ActionKind::kMergeAll) {
        next.kind = TaskKind::kMergeAll;
        have_next = true;
      }
    }
  }

  {
    std::lock_guard<sync::Mutex> lock(mu_);
    auto it = tables_.find(task.table);
    if (it != tables_.end()) {
      // A forced Schedule* may have arrived while the follow-up was being
      // computed above; without this re-check it would be dropped (the table
      // goes inactive with the request recorded but never enqueued).
      if (!have_next && it->second.has_forced) {
        next = MaintenanceTask{it->second.forced, task.table, 0};
        it->second.has_forced = false;
        have_next = true;
      }
      if (have_next && queue_.Push(next)) {
        UpdateQueueGauge();
        return;  // table stays active: the slot passes to the successor task
      }
      it->second.active = false;
      it->second.has_forced = false;  // shutdown path: drop, don't go stale
    }
    --in_flight_;
  }
  idle_cv_.notify_all();
}

void MaintenanceManager::WorkerLoop() {
  MaintenanceTask task;
  while (queue_.Pop(&task)) {
    ExecuteAndFollowUp(task);
  }
}

size_t MaintenanceManager::RunPending() {
  size_t executed = 0;
  MaintenanceTask task;
  while (queue_.TryPop(&task)) {
    ExecuteAndFollowUp(task);
    ++executed;
  }
  return executed;
}

void MaintenanceManager::WaitIdle() {
  std::unique_lock<sync::Mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void MaintenanceManager::Stop() {
  if (stopped_.exchange(true)) return;
  queue_.Close();  // queued tasks drain; follow-ups are dropped
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // Synchronous mode: anything still queued was never started; release the
  // slots so WaitIdle()/Unregister() can't hang.
  MaintenanceTask task;
  size_t dropped = 0;
  while (queue_.TryPop(&task)) {
    std::lock_guard<sync::Mutex> lock(mu_);
    if (task.kind == TaskKind::kCheckpoint) {
      checkpoint_active_ = false;
    } else {
      auto it = tables_.find(task.table);
      if (it != tables_.end()) it->second.active = false;
    }
    --in_flight_;
    ++dropped;
  }
  if (dropped > 0) idle_cv_.notify_all();
}

MaintenanceStats MaintenanceManager::stats() const {
  std::lock_guard<sync::Mutex> lock(mu_);
  return stats_;
}

Status MaintenanceManager::last_error() const {
  std::lock_guard<sync::Mutex> lock(mu_);
  return last_error_;
}

}  // namespace upi::maintenance
