// perfbench: one run of one benchmark workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--inject-faults <0|1>]
//
// Prints one JSON line with every metric the run measured, its failure
// counts by kind and the machine context; perfbench/run.py turns that into
// the benchmark's result line. `--serve <workload>` is the server-process
// mode the socket workloads start this binary in.
#include <sys/prctl.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "perfbench/src/run.h"
#include "perfbench/src/serve.h"
#include "perfbench/src/util.h"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace {

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += pb::Quote(k) + ": " + pb::Num(v);
  }
  return out + "}";
}

std::string Context() {
  utsname u{};
  uname(&u);
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"build_type\": " + pb::Quote(PB_BUILD_TYPE);
  out += ", \"compiler\": " + pb::Quote("gcc-compatible " __VERSION__);
  out += ", \"kernel\": " + pb::Quote(std::string(u.sysname) + " " + u.release);
  out += ", \"network\": \"loopback only (127.0.0.1)\"}";
  return out;
}

// Touches and frees 512 MiB before a socket run starts its server. On the
// first run after the host had sat idle for a minute, the server stalled
// for milliseconds at a time all through the timed part (p99 up to 8x its
// usual value); a run that first touched this much memory did not.
void WarmMemory() {
  constexpr std::size_t kBytes = std::size_t{512} << 20;
  const std::unique_ptr<char[]> block(new char[kBytes]);
  volatile char* p = block.get();
  for (std::size_t i = 0; i < kBytes; i += 4096) {
    p[i] = 1;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--inject-faults <0|1>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunArgs args;
  std::string workload;
  std::string serve;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--inject-faults") {
      args.inject_faults = std::strcmp(value, "0") != 0;
    } else if (flag == "--serve") {
      serve = value;
    } else {
      return Usage();
    }
  }
  if (!serve.empty()) {
    const pb::WorkloadSpec* spec = pb::FindWorkload(serve);
    return spec == nullptr ? Usage()
                           : pb::ServeMain(*spec, args.trace, args.inject_faults);
  }
  args.spec = pb::FindWorkload(workload);
  if (args.spec == nullptr || !(args.seconds > 0)) {
    return Usage();
  }
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    return 1;
  }
  args.exe.assign(exe, static_cast<std::size_t>(n));
  // Open-loop pacing sleeps to the next due time; default timer slack
  // (50 µs) would make every such wake-up late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const bool in_process = args.spec->kind == pb::Kind::kTableResize;
  if (!in_process) {
    WarmMemory();  // in process it would count in peak_rss_mb
  }
  const pb::RunResult r =
      in_process ? pb::RunTableResize(args) : pb::RunSocket(args);
  const pb::Failures& f = r.failures;
  const std::map<std::string, double> failures = {
      {"wrong_value", static_cast<double>(f.wrong_value)},
      {"corrupt", static_cast<double>(f.corrupt)},
      {"impossible_miss", static_cast<double>(f.impossible_miss)},
      {"error_reply", static_cast<double>(f.error_reply)},
      {"timeout", static_cast<double>(f.timeout)},
      {"disconnect", static_cast<double>(f.disconnect)},
  };
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"completed\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"error_rate\": %s, \"failures\": %s, \"metrics\": %s, "
      "\"details\": %s, \"context\": %s}\n",
      pb::Quote(args.spec->name).c_str(),
      static_cast<unsigned long long>(args.seed), pb::Num(args.seconds).c_str(),
      args.trace ? 1 : 0, r.completed ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(f.Total()),
      pb::Num(r.attempted == 0 ? 1.0
                               : static_cast<double>(f.Total()) /
                                     static_cast<double>(r.attempted))
          .c_str(),
      JsonObject(failures).c_str(), JsonObject(r.metrics).c_str(),
      JsonObject(r.details).c_str(), Context().c_str());
  return r.completed ? 0 : 1;
}
