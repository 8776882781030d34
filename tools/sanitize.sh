#!/usr/bin/env bash
# Local runner for the dynamic-analysis CI legs (Miri, ThreadSanitizer
# and AddressSanitizer) over the stress, differential and serving
# suites. All three need a nightly toolchain, and Miri and TSan extra
# components, which offline containers may not have — each leg degrades
# to a clear SKIP instead of failing, so this script is safe to run
# anywhere. CI runs the same commands unconditionally (see
# .github/workflows/ci.yml, jobs `miri`, `tsan` and `asan`).
set -u

cd "$(dirname "$0")/.."
status=0

have_nightly() { rustup run nightly rustc --version >/dev/null 2>&1; }
target="$(rustc -vV | sed -n 's/^host: //p')"

echo "== leg 1: Miri (pool + session stress) =="
if have_nightly && rustup component list --toolchain nightly 2>/dev/null \
    | grep -q '^miri.*(installed)'; then
  MIRIFLAGS=-Zmiri-disable-isolation \
    cargo +nightly miri test -p deepcam-tensor --test pool_stress || status=1
  MIRIFLAGS=-Zmiri-disable-isolation \
    cargo +nightly miri test -p deepcam-serve --test session_stress || status=1
else
  echo "SKIP: nightly toolchain with miri not installed" \
       "(rustup component add miri --toolchain nightly)"
fi

echo "== leg 2: ThreadSanitizer (pool + session stress) =="
if have_nightly && rustup component list --toolchain nightly 2>/dev/null \
    | grep -q '^rust-src.*(installed)'; then
  RUSTFLAGS=-Zsanitizer=thread DEEPCAM_STRESS_ITERS=10 \
    cargo +nightly test -Zbuild-std --target "$target" \
      -p deepcam-tensor --test pool_stress || status=1
  RUSTFLAGS=-Zsanitizer=thread DEEPCAM_STRESS_ITERS=10 \
    cargo +nightly test -Zbuild-std --target "$target" \
      -p deepcam-serve --test session_stress || status=1
else
  echo "SKIP: nightly toolchain with rust-src not installed" \
       "(rustup component add rust-src --toolchain nightly)"
fi

echo "== leg 3: AddressSanitizer (tensor + core libs, stress, differential, serve) =="
# Heap use-after-free, overruns and (through LeakSanitizer) leaks in the
# code behind the workspace's `unsafe` blocks: the pool's lifetime-erased
# spawn, the SIMD projection tiles and the epoll FFI. The ASan runtime
# ships with every nightly, so no `-Zbuild-std`; `--target` keeps the
# flag off build scripts, and `--lib --tests` leaves out the doc-tests,
# which rustdoc would build uninstrumented.
if have_nightly && ls "$(rustup run nightly rustc --print sysroot)/lib/rustlib/$target/lib/" \
    2>/dev/null | grep -q 'rt\.asan\.a$'; then
  asan() {
    RUSTFLAGS=-Zsanitizer=address DEEPCAM_STRESS_ITERS=100 \
      cargo +nightly test --no-fail-fast --target "$target" "$@" || status=1
  }
  asan -p deepcam-tensor --lib --test pool_stress
  asan -p deepcam-core --lib
  asan -p deepcam --test hotpath_reference --test proptests --test parallel_equivalence
  asan -p deepcam-serve --lib --tests
else
  echo "SKIP: nightly toolchain without the AddressSanitizer runtime" \
       "(rustup toolchain install nightly)"
fi

echo "== fallback always available: seeded stress harnesses (stable) =="
DEEPCAM_STRESS_ITERS="${DEEPCAM_STRESS_ITERS:-100}" \
  cargo test -p deepcam-tensor --test pool_stress || status=1
DEEPCAM_STRESS_ITERS="${DEEPCAM_STRESS_ITERS:-100}" \
  cargo test -p deepcam-serve --test session_stress || status=1

echo "== leg 4: chaos soak (seeded fault injection, stable) =="
# Mirrors the CI `chaos` job at a local-friendly depth. Every plan is
# a pure function of its seed, so any failure replays exactly.
DEEPCAM_STRESS_ITERS="${DEEPCAM_STRESS_ITERS:-150}" \
  cargo test -p deepcam-serve --test chaos_soak || status=1

exit "$status"
