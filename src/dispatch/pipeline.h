#ifndef PTRIDER_DISPATCH_PIPELINE_H_
#define PTRIDER_DISPATCH_PIPELINE_H_

#include <cstddef>
#include <functional>

#include "dispatch/thread_pool.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ptrider::dispatch {

/// Stage executor of the pipelined tick engine (DESIGN.md section 15):
/// runs floated end-of-tick reindex batches on dedicated stage threads
/// so the driver thread can go on with the next tick's movement while
/// an index commit lands. This class only provides the fork/join points;
/// what may run concurrently (batches with disjoint shard masks) is the
/// simulator's decision.
///
/// Locking contract (machine-checked under clang, DESIGN.md section 13):
/// `inflight_` is GUARDED_BY(mu_) — incremented by the driver inside
/// Launch before the stage is enqueued, decremented by the stage thread
/// after the stage body returned, with `idle_cv_` signalled at zero.
/// AwaitAll holds mu_ only while waiting, so stages finishing during the
/// wait make progress. A stage's side effects — including the
/// `out_seconds` write — happen-before AwaitAll's return: the stage
/// thread releases mu_ after writing, and the awaiting driver re-acquires
/// it before reading `inflight_ == 0`.
///
/// Single-driver protocol: exactly one thread (the simulator's driver)
/// calls Launch/AwaitAll. Stages must not Launch further stages.
class PipelineExecutor {
 public:
  PipelineExecutor();

  /// Enqueues `fn` as a stage. If `out_seconds` is non-null it receives
  /// the stage body's wall-clock seconds; read it only after the
  /// AwaitAll that joined this stage. The caller keeps everything `fn`
  /// captures (and `out_seconds`) alive until that join.
  void Launch(std::function<void()> fn, double* out_seconds = nullptr)
      EXCLUDES(mu_);

  /// Blocks until every launched stage completed. Returns the seconds
  /// the caller spent blocked — the pipeline stall the driver could not
  /// overlap with useful work.
  double AwaitAll() EXCLUDES(mu_);

 private:
  /// Two stage threads, so a floated batch whose shards are disjoint
  /// from the one in flight applies concurrently instead of queueing.
  static constexpr size_t kStageThreads = 2;

  ThreadPool pool_;
  util::Mutex mu_;
  util::CondVar idle_cv_;
  size_t inflight_ GUARDED_BY(mu_) = 0;
};

}  // namespace ptrider::dispatch

#endif  // PTRIDER_DISPATCH_PIPELINE_H_
