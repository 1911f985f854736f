// A1 — read-side primitive cost per synchronization scheme.
//
// Measures the per-operation cost of the read-side critical section for:
// Epoch RCU (one fence, on entry), QSBR (free), the centralized rwlock, a
// std::shared_mutex, and a plain mutex. This quantifies the "synchronization
// = waiting" argument from the talk's opening: even uncontended lock
// acquisitions pay atomic RMW latency that RCU readers do not.
#include <benchmark/benchmark.h>

#include <mutex>
#include <shared_mutex>

#include "src/rcu/epoch.h"
#include "src/rcu/guard.h"
#include "src/rcu/qsbr.h"
#include "src/sync/rwlock.h"

namespace {

void BM_EpochReadSection(benchmark::State& state) {
  rp::rcu::Epoch::RegisterThread();
  for (auto _ : state) {
    rp::rcu::Epoch::ReadLock();
    benchmark::DoNotOptimize(&state);
    rp::rcu::Epoch::ReadUnlock();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochReadSection)->Threads(1)->Threads(4)->Threads(16);

void BM_QsbrReadSection(benchmark::State& state) {
  rp::rcu::Qsbr::RegisterThread();
  std::uint64_t ops = 0;
  for (auto _ : state) {
    rp::rcu::Qsbr::ReadLock();
    benchmark::DoNotOptimize(&state);
    rp::rcu::Qsbr::ReadUnlock();
    if (++ops % 256 == 0) {
      rp::rcu::Qsbr::QuiescentState();
    }
  }
  rp::rcu::Qsbr::Offline();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QsbrReadSection)->Threads(1)->Threads(4)->Threads(16);

rp::sync::RwSpinlock g_rw_spinlock;

void BM_RwSpinlockShared(benchmark::State& state) {
  for (auto _ : state) {
    g_rw_spinlock.lock_shared();
    benchmark::DoNotOptimize(&state);
    g_rw_spinlock.unlock_shared();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RwSpinlockShared)->Threads(1)->Threads(4)->Threads(16);

std::shared_mutex g_shared_mutex;

void BM_SharedMutexShared(benchmark::State& state) {
  for (auto _ : state) {
    std::shared_lock<std::shared_mutex> lock(g_shared_mutex);
    benchmark::DoNotOptimize(&state);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedMutexShared)->Threads(1)->Threads(4)->Threads(16);

std::mutex g_mutex;

void BM_MutexLockUnlock(benchmark::State& state) {
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(g_mutex);
    benchmark::DoNotOptimize(&state);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexLockUnlock)->Threads(1)->Threads(4)->Threads(16);

}  // namespace

BENCHMARK_MAIN();
