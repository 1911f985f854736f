// One benchmark run of one workload, and what it reports.
#ifndef PERFBENCH_RUN_H_
#define PERFBENCH_RUN_H_

#include <cstdint>
#include <map>
#include <string>

#include "perfbench/src/workload.h"

namespace pb {

struct RunArgs {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_faults = false;
  std::string exe;  // this binary, re-run as the server process
};

struct RunResult {
  bool completed = true;  // false: the run could not produce its numbers
  std::uint64_t attempted = 0;
  Failures failures;
  // Metrics by name. The final line prints the end-to-end ones (untraced
  // run) or the per-layer ones (traced run); per-layer metrics a workload
  // does not exercise read 0.
  std::map<std::string, double> metrics;
  // Bases, sample counts and cross-checks, printed on the report line.
  std::map<std::string, double> details;
};

RunResult RunTableResize(const RunArgs& args);
RunResult RunSocket(const RunArgs& args);

// Set-up passes per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 3;

}  // namespace pb

#endif  // PERFBENCH_RUN_H_
