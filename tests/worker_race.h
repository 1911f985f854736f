// Helpers for tests whose writers race a ResizeWorker: the table never
// resizes on its own, so every resize these tests exercise comes from a
// worker, and the tests check that one actually ran.
#ifndef RP_TESTS_WORKER_RACE_H_
#define RP_TESTS_WORKER_RACE_H_

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "src/core/resize_worker.h"

namespace rp::core {

// A worker on a 1 ms poll, so resizes follow the writers closely.
inline ResizeWorkerOptions FastWorker() {
  ResizeWorkerOptions options;
  options.poll_interval = std::chrono::milliseconds(1);
  return options;
}

// Polls `cond` every millisecond; fails the test if it does not hold
// within `timeout_ms`.
inline void WaitUntil(const std::function<bool()>& cond,
                      int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(cond()) << "condition not reached within " << timeout_ms << "ms";
}

// Runs `write` once, then again until `worker` has finished a resize (or
// 10 s pass). A resize therefore completes while the caller is still
// writing, however the threads are scheduled. Callers assert
// ResizesPerformed() > 0 afterwards, so the race cannot silently vanish.
template <typename Map, typename Fn>
void WriteUntilResized(const ResizeWorker<Map>& worker, Fn&& write) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    write();
  } while (worker.ResizesPerformed() == 0 &&
           std::chrono::steady_clock::now() < deadline);
}

}  // namespace rp::core

#endif  // RP_TESTS_WORKER_RACE_H_
