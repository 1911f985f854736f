// Grace-period probe: a thread that times the epoch domain's
// Synchronize() about once a millisecond while it runs, so the traced run
// sees how long writers wait for readers under the workload.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/src/util.h"
#include "src/rcu/epoch.h"

namespace pb {

class GracePeriodProbe {
 public:
  GracePeriodProbe() = default;
  GracePeriodProbe(const GracePeriodProbe&) = delete;
  GracePeriodProbe& operator=(const GracePeriodProbe&) = delete;
  ~GracePeriodProbe() { Stop(); }

  void Start() {
    if (thread_.joinable()) {
      return;
    }
    running_.store(true);
    thread_ = std::thread([this] {
      while (running_.load(std::memory_order_relaxed)) {
        const std::uint64_t t0 = NowNs();
        rp::rcu::Epoch::Synchronize();
        const double us = static_cast<double>(NowNs() - t0) / 1e3;
        {
          std::lock_guard<std::mutex> lock(mu_);
          samples_.push_back(us);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  void Stop() {
    running_.store(false);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Synchronize() durations in µs since the last Take().
  std::vector<double> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    out.swap(samples_);
    return out;
  }

 private:
  std::atomic<bool> running_{false};
  std::mutex mu_;
  std::vector<double> samples_;
  std::thread thread_;
};

}  // namespace pb

#endif  // PERFBENCH_PROBE_H_
