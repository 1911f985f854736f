// Server-side process of the socket workloads (see serve.cc).
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include "perfbench/src/workload.h"

namespace pb {

int ServeMain(const WorkloadSpec& spec, bool traced, bool inject_faults);

}  // namespace pb

#endif  // PERFBENCH_SERVE_H_
