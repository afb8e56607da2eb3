#include "dispatch/pipeline.h"

#include <utility>

#include "util/timer.h"

namespace ptrider::dispatch {

PipelineExecutor::PipelineExecutor() : pool_(kStageThreads) {}

void PipelineExecutor::Launch(std::function<void()> fn,
                              double* out_seconds) {
  {
    util::MutexLock lock(mu_);
    ++inflight_;
  }
  pool_.Submit([this, fn = std::move(fn), out_seconds](size_t) {
    util::WallTimer timer;
    fn();
    if (out_seconds != nullptr) *out_seconds = timer.ElapsedSeconds();
    util::MutexLock lock(mu_);
    if (--inflight_ == 0) idle_cv_.NotifyAll();
  });
}

double PipelineExecutor::AwaitAll() {
  util::WallTimer timer;
  util::MutexLock lock(mu_);
  while (inflight_ > 0) idle_cv_.Wait(mu_);
  return timer.ElapsedSeconds();
}

}  // namespace ptrider::dispatch
