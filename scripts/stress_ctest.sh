#!/usr/bin/env bash
# Stress recipe: repeat the ctest suite beside CPU-spinning load, to surface
# tests that only fail on a busy machine (a thread that is not scheduled in
# time, a latency bound that a competing process breaks). Each of N rounds
# runs `ctest -j$((2*cpus))` while `cpus` busy-loop processes started by
# this script compete for the CPUs; cpus is nproc, capped at 16, so at most
# a few dozen processes run. The spinners are stopped on exit. Every failing
# round's log is kept; passing rounds' logs are deleted. No machine setting
# is changed.
#
# Usage: scripts/stress_ctest.sh [-n rounds] [-b build_dir] [-o log_dir]
#                                [-- extra ctest args]
# Env:   GTEST_FILTER passes through ctest to every gtest binary.
# e.g.   GTEST_FILTER=RpEngineSpecific.GetsScaleWhileSettersRun \
#          scripts/stress_ctest.sh -n 300 -- -R '^test_memcache_engine$'
# Exits 0 when every round passed, 1 otherwise.
set -u

ROUNDS=10
BUILD_DIR=build
LOG_DIR=""
while getopts "n:b:o:" opt; do
  case "${opt}" in
    n) ROUNDS="${OPTARG}" ;;
    b) BUILD_DIR="${OPTARG}" ;;
    o) LOG_DIR="${OPTARG}" ;;
    *) echo "usage: $0 [-n rounds] [-b build_dir] [-o log_dir] [-- ctest args]" >&2
       exit 2 ;;
  esac
done
shift $((OPTIND - 1))

if [[ ! -d "${BUILD_DIR}" ]]; then
  echo "stress_ctest: build dir '${BUILD_DIR}' not found" >&2
  exit 2
fi
BUILD_DIR="$(cd "${BUILD_DIR}" && pwd)"
LOG_DIR="${LOG_DIR:-${BUILD_DIR}/stress-logs}"
mkdir -p "${LOG_DIR}"

CPUS="$(nproc)"
(( CPUS > 16 )) && CPUS=16

SPINNERS=()
stop_spinners() {
  if (( ${#SPINNERS[@]} > 0 )); then
    kill "${SPINNERS[@]}" 2>/dev/null
    wait "${SPINNERS[@]}" 2>/dev/null
  fi
  SPINNERS=()
}
trap stop_spinners EXIT
trap 'exit 130' INT TERM

for ((i = 0; i < CPUS; ++i)); do
  ( while :; do :; done ) &
  SPINNERS+=("$!")
done

failed=0
for ((round = 1; round <= ROUNDS; ++round)); do
  log="${LOG_DIR}/round-${round}.log"
  if (cd "${BUILD_DIR}" && ctest --output-on-failure -j $((2 * CPUS)) "$@") \
      > "${log}" 2>&1; then
    rm -f "${log}"
  else
    failed=$((failed + 1))
    echo "round ${round}: FAILED (log kept: ${log})"
    grep -E '^\[  FAILED  \]|\*\*\*Failed|\(Failed\)|\(Timeout\)' "${log}" \
      | sort -u | sed 's/^/  /'
  fi
done

echo "stress_ctest: ${failed} of ${ROUNDS} rounds failed beside ${CPUS} spinners (ctest -j $((2 * CPUS)))"
(( failed == 0 ))
