#!/bin/sh
# Sanitizer gate for the concurrent service layer.
#
# Configures a dedicated build tree with -DIMGRN_SANITIZE=<kind>, builds
# the thread-heavy test binaries, and runs everything carrying the ctest
# labels in $LABELS: "concurrency" (thread pool, query service, sharded
# engine with its load gauges, whose updates write the per-replica cost
# gauges while the query path writes the busy-time and traffic gauges and
# StatsSnapshot reads them all, shard stress, lock-free histogram,
# parallel index build, the engines' shared permutation table filled by
# racing queries) and "robustness" (the fault injector, the storage
# fault points, and a query failed whole by a faulted sub-query: error
# paths normal traffic never reaches, where leaks and races hide; and the
# matrix text readers with their seeded mutation fuzzer) and "replication"
# (the replica-set differential suite: lock-step mirrors built in
# parallel and round-robin routing over a lock-free cursor — run under
# BOTH kinds, races on the routing side and leaks in the replica sets);
# see tests/CMakeLists.txt. The ASan run additionally
# covers "storage" (the durable page store: shadow-paging recovery,
# kill-at-each-fsync-point reopen, snapshot corruption rejection — raw
# buffer juggling on paths where overflows and leaks hide; and the R*-tree
# suites, rtree_test and rtree_fuzz_test: node splits, forced
# reinsertion, condensation and payload merges under churn; the binaries
# are single-threaded, so TSan would add nothing) and "query" (the Fig.-4
# processor, its pinned traversal counters and its fuzz suite: the
# traversal holds pointers into R*-tree node entries and per-leaf record
# lists, so overruns show under ASan; the refinement and query-graph
# inference differential suites, whose Monte Carlo counts stop part-way
# through the permutation blocks; and the VF2 matcher's suites,
# subgraph_iso_test and vf2_reference_test). ThreadSanitizer is the
# default and the gate that matters for src/service; pass "address" to
# run the same workload under AddressSanitizer instead — CI runs BOTH
# kinds, so the fault binaries get a TSan pass and an ASan
# (leak-checking) pass. The address build also layers UBSan on top
# (-DIMGRN_UBSAN=ON, no recovery), so the snapshot parsers, the disk
# store and the query path run under ASan+UBSan; UBSan does not compose
# with TSan. The script prints each label as it runs so CI
# logs show what the gate actually covered, runs every label even after
# one fails, and exits non-zero naming the labels that failed.
#
# The third kind, "kernels", is the SIMD dispatch gate: it builds the
# "kernels"-labeled differential suites (scalar-vs-AVX2 bit-identity of
# the Monte Carlo block kernel, score-matrix and full-query backend
# invariance, SSE4.2-vs-table CRC32C) under ASan+UBSan (-DIMGRN_UBSAN=ON
# — out-of-bounds gather lanes and index math are exactly UBSan/ASan
# territory), then runs `ctest -L kernels` TWICE: once with native
# dispatch and once with IMGRN_FORCE_SCALAR=1, printing which backend
# CPUID actually selected so CI logs record what the run exercised.
#
# Usage: tools/ci_sanitize.sh [thread|address|kernels] [build-dir]
set -eu

KIND="${1:-thread}"
case "$KIND" in
  thread|address|kernels) ;;
  *) echo "usage: $0 [thread|address|kernels] [build-dir]" >&2; exit 2 ;;
esac
BUILD_DIR="${2:-build-${KIND}san}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

if [ "$KIND" = kernels ]; then
  # ASan + UBSan build of the kernel differential suites, run in both
  # dispatch modes.
  cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DIMGRN_SANITIZE=address \
    -DIMGRN_UBSAN=ON
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target \
    simd_ops_test kernel_fuzz_test vector_ops_test crc32c_test imgrn_cli
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
  export ASAN_OPTIONS
  echo "== kernels gate: backends on this machine =="
  "$BUILD_DIR/tools/imgrn" kernels
  FAILED=""
  echo "== kernels gate: ctest -L kernels (native dispatch) =="
  ctest --test-dir "$BUILD_DIR" -L kernels --output-on-failure ||
    FAILED="$FAILED native"
  echo "== kernels gate: ctest -L kernels (IMGRN_FORCE_SCALAR=1) =="
  IMGRN_FORCE_SCALAR=1 "$BUILD_DIR/tools/imgrn" kernels
  IMGRN_FORCE_SCALAR=1 \
    ctest --test-dir "$BUILD_DIR" -L kernels --output-on-failure ||
    FAILED="$FAILED scalar"
  if [ -n "$FAILED" ]; then
    echo "== kernels sanitizer gate: FAIL (modes failed:$FAILED) ==" >&2
    exit 1
  fi
  echo "== kernels sanitizer gate: PASS (asan+ubsan, both dispatch modes) =="
  exit 0
fi

UBSAN=OFF
if [ "$KIND" = address ]; then
  UBSAN=ON
fi
cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIMGRN_SANITIZE="$KIND" \
  -DIMGRN_UBSAN="$UBSAN"
TARGETS="thread_pool_test query_service_test sharded_engine_test \
         shard_stress_test histogram_test imgrn_index_test \
         permutation_cache_test fault_injection_test replication_test \
         matrix_io_test"
if [ "$KIND" = address ]; then
  TARGETS="$TARGETS disk_storage_test snapshot_test storage_differential_test \
           rtree_test rtree_fuzz_test \
           imgrn_processor_test query_stats_test processor_fuzz_test \
           refinement_test grn_inference_test \
           subgraph_iso_test vf2_reference_test"
fi
# shellcheck disable=SC2086  # TARGETS is a deliberate word list
cmake --build "$BUILD_DIR" -j"$(nproc)" --target $TARGETS

# Any sanitizer report is a hard failure.
if [ "$KIND" = thread ]; then
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
  export TSAN_OPTIONS
else
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
  export ASAN_OPTIONS
fi

# One ctest invocation per label (gtest_discover_tests supports only one
# label per binary, so the gate's coverage is the union of these runs).
LABELS="concurrency robustness replication"
if [ "$KIND" = address ]; then
  LABELS="$LABELS storage query"
fi
# Every label runs even after one fails, so one log shows them all.
FAILED=""
for LABEL in $LABELS; do
  echo "== $KIND sanitizer: ctest -L $LABEL =="
  ctest --test-dir "$BUILD_DIR" -L "$LABEL" --output-on-failure ||
    FAILED="$FAILED $LABEL"
done
if [ -n "$FAILED" ]; then
  echo "== $KIND sanitizer gate: FAIL (labels failed:$FAILED) ==" >&2
  exit 1
fi
echo "== $KIND sanitizer gate: PASS (labels run: $LABELS) =="
