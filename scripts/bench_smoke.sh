#!/usr/bin/env bash
# Bench smoke: run every benchmark binary for a few milliseconds so that
# benchmark bit-rot (a bench that no longer builds, crashes on startup, or
# hangs) fails CI instead of being discovered at measurement time. The
# numbers it prints are meaningless — only successful completion matters.
#
# Usage: scripts/bench_smoke.sh [build_dir]   (default: build)
set -u

BUILD_DIR="${1:-build}"
if [[ ! -d "${BUILD_DIR}" ]]; then
  echo "bench_smoke: build dir '${BUILD_DIR}' not found" >&2
  exit 2
fi

# Tiny points, tiny thread sweep: completion is the test, not throughput.
export RP_BENCH_SECONDS=0.02
export RP_BENCH_THREADS=1,2

# In-repo fixed-duration harness benches (honour the env vars above).
HARNESS_BENCHES=(
  fig1_fixed_baseline
  fig2_continuous_resize
  fig3_rp_resize_vs_fixed
  fig4_ddds_resize_vs_fixed
  fig5_memcached
  fig6_cluster
  abl4_update_mix
  abl5_expand_strategy
  abl7_xu_comparison
  abl10_writer_scaling
)

# google-benchmark benches; gated on the library at configure time, so
# they may legitimately be absent. Some get a case filter that keeps the
# smoke to the 0/1-thread variants: multi-reader cases spin-contend and
# can take minutes on a 1-core runner, and completion — not scaling — is
# what a smoke verifies.
GBENCH_BENCHES=(
  abl1_readside_cost
  abl2_grace_period
  abl3_resize_cost
  abl6_lookup_micro
  abl11_hotpath_overhead
  abl12_slab_alloc
  abl13_store_path
  abl14_maintenance
)
gbench_filter() {
  case "$1" in
    abl1_readside_cost) echo 'threads:1$' ;;
    # abl12's threads:2 contention cases spin on 1-core runners; the
    # allocation-cost measurement itself is single-threaded.
    abl12_slab_alloc) echo 'threads:1$' ;;
    # abl13's threads:2 store-path cases contend two writers on one core;
    # the allocation-count invariant is single-threaded.
    abl13_store_path) echo 'threads:1$' ;;
    # abl14 is single-threaded by design — on a 1-core box the maintenance
    # plane's evidence is the counters, not thread scaling.
    abl14_maintenance) echo 'threads:1$' ;;
    # abl2 runs unfiltered since two fixes landed: the QSBR domain's
    # bounded-backoff reader hint (spinning readers yield to a waiting
    # Synchronize, so grace periods stop being scheduler-luck-bound on 1
    # core) and the ReaderPool start barrier (calibration no longer samples
    # an empty registry and extrapolates a runaway iteration count).
    abl3_resize_cost) echo '/1$' ;;
    *) echo '.' ;;
  esac
}

failures=0

run_one() {
  local name="$1"
  shift
  echo "=== bench smoke: ${name} $*"
  if ! timeout 300 "${BUILD_DIR}/${name}" "$@" > /dev/null; then
    echo "!!! ${name} FAILED" >&2
    failures=$((failures + 1))
  fi
}

for bench in "${HARNESS_BENCHES[@]}"; do
  if [[ ! -x "${BUILD_DIR}/${bench}" ]]; then
    echo "!!! ${bench} missing from ${BUILD_DIR}" >&2
    failures=$((failures + 1))
    continue
  fi
  run_one "${bench}"
done

for bench in "${GBENCH_BENCHES[@]}"; do
  if [[ ! -x "${BUILD_DIR}/${bench}" ]]; then
    echo "--- ${bench} not built (google-benchmark absent); skipping"
    continue
  fi
  # benchmark >= 1.8 wants a unit suffix on min_time; older releases want a
  # bare number. Try the new spelling first, fall back to the old one.
  filter="$(gbench_filter "${bench}")"
  echo "=== bench smoke: ${bench} (filter: ${filter})"
  if ! timeout 300 "${BUILD_DIR}/${bench}" --benchmark_min_time=0.01s \
      "--benchmark_filter=${filter}" > /dev/null 2>&1; then
    if ! timeout 300 "${BUILD_DIR}/${bench}" --benchmark_min_time=0.01 \
        "--benchmark_filter=${filter}" > /dev/null; then
      echo "!!! ${bench} FAILED" >&2
      failures=$((failures + 1))
    fi
  fi
done

if [[ ${failures} -ne 0 ]]; then
  echo "bench smoke: ${failures} benchmark(s) failed" >&2
  exit 1
fi
echo "bench smoke: all benchmarks completed"
