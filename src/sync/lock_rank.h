// The engine's lock hierarchy, written down once and machine-enforced.
//
// Seven PRs layered concurrency onto the engine — a latch-sharded buffer
// pool, a shared_mutex per FracturedUpi, maintenance workers, the gather
// pool — and the ordering discipline that keeps them deadlock-free lived
// only in comments. This header is now the single source of truth: every
// sync::Mutex / sync::SharedMutex is constructed with one of these ranks,
// and in UPI_SYNC_CHECKS builds a per-thread acquisition stack aborts the
// process on any acquisition that is not strictly rank-increasing.
//
// The rule: a thread may acquire a lock only while every lock it already
// holds has a strictly *smaller* rank. Outermost (coarsest, longest-held)
// locks therefore carry the smallest numbers; leaf latches the largest.
// Equal ranks never nest — no code path holds two locks of the same rank
// at once (shard latches and SimDisk stripes are only ever taken one at a
// time, in a loop, each released before the next).
//
// The documented hierarchy (outer → inner), with the nesting that pins
// each edge:
//
//   rank | lock                         | pinned by
//   -----+------------------------------+------------------------------------
//    10  | Session queue                | leaf: worker runs tasks lock-free
//    15  | WAL checkpoint gate          | held (shared) across a logged
//        |                              | write's append+apply — including
//        |                              | the apply's storage I/O — and
//        |                              | (exclusive) across the checkpoint's
//        |                              | sync + snapshot-scan + log rotation
//    20  | MaintenanceManager state     | held while pushing the follow-up
//        |                              | task (→ TaskQueue, → queue gauge)
//    30  | maintenance TaskQueue        | inner side of the manager edge
//    40  | GatherPool queue             | leaf: workers run probes lock-free
//    45  | gather Batch completion      | leaf: taken only after a probe ends
//    50  | partition ShardSummary       | leaf: RAM-only zone/Bloom fences
//    53  | WAL sync (durable tail)      | serializes durable log appends;
//        |                              | held across the log device's
//        |                              | simulated sequential write + the
//        |                              | commit-barrier sector rewrite
//    56  | WAL tail buffer              | LSN counter + pending frames +
//        |                              | group-commit CondVar; never held
//        |                              | across I/O (leaders swap the
//        |                              | double buffer out under it, then
//        |                              | release before touching the disk)
//    60  | FracturedUpi fracture set    | held (shared) only for a probe's
//        | + write buffers              | RAM work — never across its page
//        |                              | reads — and (exclusive) across a
//        |                              | flush's sequential writes — with
//        |                              | the WAL gate and sync locks, one
//        |                              | of the only locks that may be held
//        |                              | across a SimDisk charge
//    70  | DbEnv file table             | held while summing PageFile sizes
//    80  | BufferPool shard latch       | never nests (all I/O outside it)
//    90  | PageFile metadata            | held while reserving address space
//        |                              | on the SimDisk allocator
//   100  | SimDisk head position        | inner side of the PageFile edge
//   105  | SimDisk per-thread stripe    | leaf: stats recording
//   110  | prepared-plan cache          | leaf: planning happens outside it
//   115  | gather GlobalTopKBound       | leaf: one Offer per row
//   120  | MetricsRegistry maps         | leaf: never held while recording
//   125  | SlowQueryLog ring            | leaf: entries assembled outside
//
// Two cross-subsystem edges worth calling out:
//
//  * MaintenanceManager (20) / TaskQueue (30) order BEFORE the BufferPool
//    shard latch (80): maintenance scheduling never runs under a storage
//    latch, and storage code never calls back into the scheduler. The
//    deadlock-order regression test in tests/sync_test.cc pins this.
//
//  * Exactly three ranks have LockRankAllowsIo() == true — the WAL
//    checkpoint gate (15), the WAL sync lock (53), and FracturedUpi (60) —
//    and each is sanctioned for a specific, documented hold: the gate
//    spans a logged write's apply I/O and the checkpoint's snapshot scan,
//    the sync lock spans the log tail's sequential write + commit barrier,
//    and the fracture set's lock spans a flush's writes.
//    Everything else is a short latch: the buffer pool installs loading
//    frames and reads outside the latch, PageFile releases its metadata
//    mutex before charging the device, and the SimDisk hook
//    (sync::CheckIoAllowed) aborts if any no-I/O latch is still held when
//    a simulated transfer is charged. The WAL tail lock (56) is pointedly
//    NOT sanctioned: a group-commit leader must swap the double buffer out
//    and release the tail before syncing, or every concurrent appender
//    would stall behind the device.
#pragma once

#include <cstdint>

namespace upi::sync {

enum class LockRank : uint16_t {
  kSession = 10,             // engine/session.h: submit queue + worker wakeup
  kWalGate = 15,             // wal/wal_writer.h: checkpoint vs logged writes
  kMaintenanceManager = 20,  // maintenance/manager.h: tables_/in_flight_/stats_
  kTaskQueue = 30,           // maintenance/task_queue.h: pending task deque
  kGatherPool = 40,          // exec/gather.h (GatherPool): probe queue
  kGatherBatch = 45,         // engine/partition.cc: per-RunAll batch countdown
  kShardSummary = 50,        // engine/partition.h: per-shard zone/Bloom fences
  kWalSync = 53,             // wal/wal_writer.h: serialized durable appends
  kWalTail = 56,             // wal/wal_writer.h: LSN + pending frames + parking
  kFracturedUpi = 60,        // core/fractured_upi.h: fracture set + buffers
  kDbEnvFiles = 70,          // storage/db_env.h: file table
  kBufferPoolShard = 80,     // storage/buffer_pool.h: one shard's frames/LRU
  kPageFile = 90,            // storage/page_file.h: page metadata + free list
  kSimDiskHead = 100,        // sim/sim_disk.h: head position + allocator
  kSimDiskStripe = 105,      // sim/sim_disk.h: one thread's stat stripe
  kPlanCache = 110,          // engine/query.cc: prepared-plan cache map
  kTopKBound = 115,          // exec/gather.h (GlobalTopKBound): k-th score
  kMetricsRegistry = 120,    // obs/metrics.h: name->metric maps + hooks
  kSlowQueryLog = 125,       // obs/slow_query_log.h: entry ring
};

/// Human-readable name, printed in abort transcripts.
constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kSession:            return "Session";
    case LockRank::kWalGate:            return "WalGate";
    case LockRank::kMaintenanceManager: return "MaintenanceManager";
    case LockRank::kTaskQueue:          return "TaskQueue";
    case LockRank::kGatherPool:         return "GatherPool";
    case LockRank::kGatherBatch:        return "GatherBatch";
    case LockRank::kShardSummary:       return "ShardSummary";
    case LockRank::kWalSync:            return "WalSync";
    case LockRank::kWalTail:            return "WalTail";
    case LockRank::kFracturedUpi:       return "FracturedUpi";
    case LockRank::kDbEnvFiles:         return "DbEnvFiles";
    case LockRank::kBufferPoolShard:    return "BufferPoolShard";
    case LockRank::kPageFile:           return "PageFile";
    case LockRank::kSimDiskHead:        return "SimDiskHead";
    case LockRank::kSimDiskStripe:      return "SimDiskStripe";
    case LockRank::kPlanCache:          return "PlanCache";
    case LockRank::kTopKBound:          return "TopKBound";
    case LockRank::kMetricsRegistry:    return "MetricsRegistry";
    case LockRank::kSlowQueryLog:       return "SlowQueryLog";
  }
  return "UnknownRank";
}

/// Whether a lock of this rank may be held while a SimDisk transfer is
/// charged. True for exactly three locks, each with a documented sanctioned
/// hold:
///
///  * kWalGate — a logged write holds it shared across append + in-memory
///    apply (whose storage writes charge the device), and the checkpoint
///    holds it exclusive across the snapshot scan and log rotation
///    (wal/wal_writer.h's contract).
///  * kWalSync — serializes durable log appends; held across the log tail's
///    simulated sequential write and the commit-barrier sector rewrite.
///  * kFracturedUpi — a flush holds it exclusive across its sequential
///    writes (core/fractured_upi.h's concurrency contract). Queries take it
///    shared only to capture their snapshot and scan the RAM buffer, and
///    read pages without it, so no reader waits on the pool under it.
///
/// Every other lock — pointedly including the WAL tail buffer latch
/// (kWalTail), which group-commit leaders must release before syncing — is
/// a short latch that must be released before touching the (possibly
/// realtime-sleeping) simulated device.
constexpr bool LockRankAllowsIo(LockRank rank) {
  return rank == LockRank::kWalGate || rank == LockRank::kWalSync ||
         rank == LockRank::kFracturedUpi;
}

}  // namespace upi::sync
