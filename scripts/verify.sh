#!/usr/bin/env bash
# One-stop verification entry point: tier-1 build + test, the scalar-fallback,
# AVX2-table and chaos passes, then the kernel parity test and FFT golden
# from a Release build and Release smoke runs of the gated benches (sketch
# parity, zero-allocation and flat-memory gates, SIMD kernel parity, daemon
# resilience, forecaster latency — a non-zero exit means a gate failed).
# End-to-end throughput is measured separately by perfbench/run.py.
#
# Usage: scripts/verify.sh [--skip-bench]
#   FEMUX_SANITIZE=thread   additionally build the concurrency-sensitive
#                           test targets (sim_*, core_*, forecast_*,
#                           serve_*) under ThreadSanitizer and run them with
#                           FEMUX_THREADS=4 (fleet/feature fan-out, cache
#                           counters, thread pool, daemon producer threads).
#   FEMUX_SANITIZE=address  additionally build the numeric-kernel test
#                           targets (stats_*, forecast_*, core_*, serve_*)
#                           under AddressSanitizer + UBSan — the spectral
#                           engine's reused workspaces, lazily built plan
#                           tables, and the SIMD layer's vector loads/stores
#                           are exactly where lifetime and out-of-bounds
#                           bugs would hide.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SKIP_BENCH=0
[[ "${1:-}" == "--skip-bench" ]] && SKIP_BENCH=1

echo "== tier-1: configure + build + ctest =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j"$(nproc)"
(cd "$ROOT/build" && ctest --output-on-failure -j)

# The SIMD kernel layer (DESIGN.md §12) dispatches at runtime; the scalar
# fallback must stay a first-class citizen, so rerun the numeric suites with
# FEMUX_SIMD=off. Bit-exact kernels make this pass identical in results to
# the run above — a divergence here is a parity bug, not flakiness.
echo "== scalar fallback: FEMUX_SIMD=off stats/forecast/core suites =="
# NB: ctest's bare `-j` swallows a following option as its value, which
# silently discards the -R filter — always give it an explicit width.
(cd "$ROOT/build" && FEMUX_SIMD=off ctest --output-on-failure -j"$(nproc)" \
    -R '^(stats|forecast|core)_')

# The widest table runs by default; pin the AVX2 one too, so on an AVX-512
# host the AVX2 table still meets every golden end to end. (On a host
# without AVX2 the variable falls back to the widest table and the pass
# repeats the default run.)
echo "== AVX2 table: FEMUX_SIMD=avx2 stats/forecast/core suites =="
(cd "$ROOT/build" && FEMUX_SIMD=avx2 ctest --output-on-failure -j"$(nproc)" \
    -R '^(stats|forecast|core)_')

# Chaos pass: replay the serve suite under external fault-seed matrices.
# tests/serve/chaos_test.cc swaps its built-in seeds for the FEMUX_FAULTS
# spec, so each seed below is a full daemon run under a different
# deterministic fault schedule (the other serve tests ignore the variable).
echo "== chaos: serve suite under the FEMUX_FAULTS seed matrix =="
CHAOS_MATRIX='forecast_throw=0.05,forecast_delay_ms=1@0.05,corrupt_push=0.05,dup_push=0.05,reorder_push=0.05,late_push=0.05,clock_skew_ms=1@0.05,checkpoint_truncate=0.5'
for seed in 11 42 1337; do
  echo "-- chaos seed $seed"
  (cd "$ROOT/build" && FEMUX_FAULTS="seed=${seed},${CHAOS_MATRIX}" \
      ctest --output-on-failure -j"$(nproc)" -R '^serve_')
done

# Learned-mux chaos pass: the same fault-seed matrix with the chaos daemon
# serving the learned linear_state forecaster, so opaque trained state rides
# through torn checkpoints, quarantines, and kill-restarts (DESIGN.md §15).
echo "== chaos (learned): serve suite with FEMUX_CHAOS_FORECASTER=linear_state =="
for seed in 11 42 1337; do
  echo "-- learned chaos seed $seed"
  (cd "$ROOT/build" && FEMUX_FAULTS="seed=${seed},${CHAOS_MATRIX}" \
      FEMUX_CHAOS_FORECASTER=linear_state \
      ctest --output-on-failure -j"$(nproc)" -R '^serve_')
done

if [[ "$SKIP_BENCH" == "0" ]]; then
  echo "== bench smoke (Release) =="
  cmake -B "$ROOT/build-release" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release > /dev/null
  mkdir -p "$ROOT/bench/out"
  # Kernel parity and the FFT golden from the Release (-O3) build too: the
  # loop vectorizer runs only at -O3, and tier-1 builds with -O2.
  echo "== Release parity: kernel table and FFT golden, widest and AVX2 tables =="
  cmake --build "$ROOT/build-release" --target stats_simd_kernel_test \
      forecast_fft_golden_test -j"$(nproc)" > /dev/null
  for simd in "" avx2; do
    for t in stats_simd_kernel_test forecast_fft_golden_test; do
      FEMUX_SIMD="$simd" "$ROOT/build-release/tests/$t" > /dev/null || {
        echo "Release parity FAILED: $t (table: ${simd:-widest})"; exit 1;
      }
    done
  done
  cmake --build "$ROOT/build-release" --target bench_fleet_scale -j"$(nproc)" > /dev/null
  "$ROOT/build-release/bench/bench_fleet_scale" --smoke \
      --json="$ROOT/bench/out/fleet-scale-smoke.bench-scratch.json" || {
    echo "fleet-scale bench smoke FAILED (sketch parity, memory gate, or runtime error)"; exit 1;
  }
  # Real-scale smoke: 10^5 apps through the streaming sweep plus the
  # allocation-count gate (exit is non-zero if the RSS ceiling or the
  # zero-alloc hot-loop assert fails) — the tiny --smoke sizes above can't
  # catch a memory-growth regression.
  "$ROOT/build-release/bench/bench_fleet_scale" --scale-smoke \
      --json="$ROOT/bench/out/fleet-scale-100k.bench-scratch.json" || {
    echo "fleet-scale 10^5-app smoke FAILED (RSS ceiling or alloc gate)"; exit 1;
  }
  cmake --build "$ROOT/build-release" --target bench_simd_kernels -j"$(nproc)" > /dev/null
  "$ROOT/build-release/bench/bench_simd_kernels" --smoke \
      --json="$ROOT/bench/out/simd-kernels-smoke.bench-scratch.json" || {
    echo "simd-kernels bench smoke FAILED (parity, speedup gate, or runtime error)"; exit 1;
  }
  cmake --build "$ROOT/build-release" --target bench_scaler_daemon -j"$(nproc)" > /dev/null
  "$ROOT/build-release/bench/bench_scaler_daemon" --smoke \
      --json="$ROOT/bench/out/scaler-daemon-smoke.bench-scratch.json" || {
    echo "scaler-daemon bench smoke FAILED (resilience gate or runtime error)"; exit 1;
  }
  cmake --build "$ROOT/build-release" --target bench_forecaster_latency -j"$(nproc)" > /dev/null
  "$ROOT/build-release/bench/bench_forecaster_latency" --smoke \
      --json="$ROOT/bench/out/forecaster-latency-smoke.bench-scratch.json" || {
    echo "forecaster-latency bench smoke FAILED (latency or parity gate)"; exit 1;
  }
fi

if [[ "${FEMUX_SANITIZE:-}" == "thread" ]]; then
  echo "== ThreadSanitizer: sim + core + forecast tests =="
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" > /dev/null
  TSAN_TARGETS=()
  for dir in sim core forecast serve; do
    for src in "$ROOT/tests/$dir"/*_test.cc; do
      TSAN_TARGETS+=("${dir}_$(basename "$src" .cc)")
    done
  done
  cmake --build "$ROOT/build-tsan" --target "${TSAN_TARGETS[@]}" -j"$(nproc)" > /dev/null
  # The one suppression is glibc's lgamma writing the global `signgam`
  # (scripts/tsan.supp explains why it is benign).
  export TSAN_OPTIONS="suppressions=$ROOT/scripts/tsan.supp${TSAN_OPTIONS:+ $TSAN_OPTIONS}"
  for t in "${TSAN_TARGETS[@]}"; do
    echo "-- tsan: $t"
    FEMUX_THREADS=4 "$ROOT/build-tsan/tests/$t" > /dev/null || {
      echo "TSan run FAILED: $t"; exit 1;
    }
  done
fi

if [[ "${FEMUX_SANITIZE:-}" == "address" ]]; then
  # stats_* includes simd_kernel_test, which force-activates every compiled
  # vector table (AVX2/AVX-512) with unaligned buffers and lane-boundary tails,
  # so the vectorized loads/stores of the SIMD layer run under ASan+UBSan;
  # core_* adds the K-means SoA distance path.
  echo "== AddressSanitizer + UBSan: stats + forecast + core tests =="
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" > /dev/null
  ASAN_TARGETS=()
  for dir in stats forecast core serve; do
    for src in "$ROOT/tests/$dir"/*_test.cc; do
      ASAN_TARGETS+=("${dir}_$(basename "$src" .cc)")
    done
  done
  cmake --build "$ROOT/build-asan" --target "${ASAN_TARGETS[@]}" -j"$(nproc)" > /dev/null
  for t in "${ASAN_TARGETS[@]}"; do
    echo "-- asan: $t"
    "$ROOT/build-asan/tests/$t" > /dev/null || {
      echo "ASan run FAILED: $t"; exit 1;
    }
  done
fi
echo "verify OK"
