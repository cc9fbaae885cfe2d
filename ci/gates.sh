#!/usr/bin/env bash
# Repo hygiene gates, runnable locally (`bash ci/gates.sh`) and in CI's
# lint job. Each gate greps for a pattern that is only permitted in named
# places; any other occurrence is a regression.
#
# (The former gates on `run_queue` call sites and `allow(deprecated)`
# retired together with the deprecated pre-engine wrappers themselves —
# the symbols no longer exist, so the compiler is the gate now.)
set -u
cd "$(dirname "$0")/.."

fail=0

# Gate 1: deprecation cycles are over. The pre-engine free functions and
# the flat run_queue door were removed after a full deprecation cycle;
# nothing in the tree may reintroduce #[deprecated] shims (deprecate in a
# PR that also migrates the call sites, then delete — don't accumulate).
hits=$(grep -rnE '#\[deprecated|allow\([^)]*deprecated' --include='*.rs' . \
  | grep -v '^\./target/' \
  | grep -v '^\./vendor/' || true)
if [ -n "$hits" ]; then
  echo "deprecated-API shims or call sites reintroduced:"
  echo "$hits"
  fail=1
fi

# Gate 2: the rustdoc pass is load-bearing. lac-sim and lac-kernels build
# under #![warn(missing_docs)] (promoted to errors by CI's -D warnings);
# silencing the lint instead of writing the docs is a regression.
hits=$(grep -rnE 'allow\([^)]*missing_docs' --include='*.rs' ./crates ./src ./tests ./examples \
  2>/dev/null || true)
if [ -n "$hits" ]; then
  echo "missing_docs lint silenced instead of documented:"
  echo "$hits"
  fail=1
fi

# Gate 3: Source decoding is confined to the two execution backends.
# Only the interpreter (core.rs) and the compiler (compile.rs) may match
# on `Source` variants; a decode anywhere else would be a third place the
# operand semantics live, free to drift from the differential suite's
# bit-identity contract.
hits=$(grep -rnE 'Source::[A-Za-z_]+(\([^)]*\))?[[:space:]]*=>' --include='*.rs' \
  ./crates ./src ./tests ./examples 2>/dev/null \
  | grep -v 'crates/lac-sim/src/core\.rs\|crates/lac-sim/src/compile\.rs' || true)
if [ -n "$hits" ]; then
  echo "Source decoded outside the execution backends (core.rs / compile.rs):"
  echo "$hits"
  fail=1
fi

# Gate 4: one time core. `SimMode` picks the release rule — the barrier
# (wave) step or the event step — in exactly one place, `run_pool` in
# crates/lac-sim/src/event.rs; every door (chip, service, cluster) runs
# its pool through it. A `SimMode::… =>` match arm, an `==`/`!=`
# comparison with a `SimMode::…` variant or a `matches!(…, SimMode::…)`
# anywhere else would be a second place deciding the time rule on its
# own, free to drift from the first.
hits=$(grep -rnE 'SimMode::[A-Za-z_]+[[:space:]]*(=>|[=!]=)|[=!]=[[:space:]]*SimMode::|matches!\([^;]*SimMode::' \
  --include='*.rs' ./crates ./src ./tests ./examples ./perfbench 2>/dev/null \
  | grep -v '^\./perfbench/target/' \
  | grep -v 'crates/lac-sim/src/event\.rs' || true)
if [ -n "$hits" ]; then
  echo "SimMode decided outside the time core (event.rs):"
  echo "$hits"
  fail=1
fi

# Gate 5: one worker pool. Every door runs its jobs on the pool in
# crates/lac-sim/src/coord.rs (`scoped_workers`: workers reused across
# runs from one process-wide idle cache, released by an end-of-run
# barrier); the service is a one-chip cluster and owns no threads. A
# thread spawn, thread scope or mpsc channel anywhere else in library
# code would be a second pool, free to drift from the first in abort,
# panic and shutdown handling.
hits=$(grep -rnE 'thread::(spawn|scope|Builder)|mpsc::' --include='*.rs' \
  ./crates/*/src ./src 2>/dev/null \
  | grep -v 'crates/lac-sim/src/coord\.rs' || true)
if [ -n "$hits" ]; then
  echo "threads or channels outside the one worker pool (coord.rs):"
  echo "$hits"
  fail=1
fi

# Gate 6: `unsafe` lives in one place. The worker pool lends each run's
# engines and job resolver to reused threads with their lifetimes erased,
# which is sound only under its end-of-run barrier; that code, in
# crates/lac-sim/src/coord.rs, is the only library code allowed to say
# `unsafe` (lac-sim also denies clippy::undocumented_unsafe_blocks, so
# each block there carries a SAFETY comment naming the barrier).
hits=$(grep -rnwE 'unsafe' --include='*.rs' ./crates/*/src ./src 2>/dev/null \
  | grep -v 'crates/lac-sim/src/coord\.rs' || true)
if [ -n "$hits" ]; then
  echo "unsafe outside the worker pool (coord.rs):"
  echo "$hits"
  fail=1
fi

# Gate 7: no `powi` on the FPU model's hot path. `f64::powi` is a
# multiply loop (40-65 ns a call); the accumulator and the special-function
# seeds scale by powers of two with `lac_fpu::pow2i`, which builds 2^k from
# its exponent bits and returns the same bits as `2f64.powi(k)` for every
# k (crates/lac-fpu/tests/bit_identity.rs). Test modules may still use
# `powi`, as that oracle does: only lines above a file's first column-0
# `#[cfg(test)]` count.
hits=$(find ./crates/lac-fpu/src ./crates/lac-sim/src -name '*.rs' | sort | while read -r f; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /powi\(/ { print f ":" FNR ":" $0 }' "$f"
done)
if [ -n "$hits" ]; then
  echo "powi in non-test FPU/simulator code (use lac_fpu::pow2i):"
  echo "$hits"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "all grep gates passed"
fi
exit "$fail"
