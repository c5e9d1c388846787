#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no registry access.
#
#   scripts/ci.sh
#
# Steps: format check, release build, full test suite (which includes
# the lint's self-tests in crates/lint/tests/selftest.rs: the seeded
# fixtures trip every rule exactly once and the binary keeps its exit
# codes), the gandef-lint static-analysis gate (zero violations in the
# workspace under a lint CPU-time budget), a smoke run of the
# kernel micro-benchmarks gated against the checked-in BENCH_tensor.json
# (bench_diff; writes BENCH_smoke.json to a temp dir so the checked-in
# file is never clobbered), one round each of
# perfbench train-zk and train-pgd and a short serve-mixed run, whose
# output checks must pass (training records finite losses with no run
# event and clears the accuracy floor; the served model trains cleanly,
# every request resolves, the server's request count matches, and every
# reply's argmax matches Sequential::infer), a smoke run of table3, the
# grid harness (it must exit 0 and write all eight paper artifacts, each
# non-empty), the numerics audit (the f64-accumulation kernel oracle
# must be byte-identical across thread counts and FMA settings, and the
# f64 training trajectory must be reproducible), the crash-consistency sweep (a training child is
# killed at every checkpoint-write injection point and the on-disk state
# must verify as old-or-new, never corrupt, plus a cross-process
# kill-and-resume run that must be bit-identical to a straight run under
# f64 accumulation), and — when a nightly toolchain is already
# installed — a Miri pass over the tensor crate's unsafe surface plus
# Thread/AddressSanitizer runs of the concurrency stress harness.
set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace has a zero-external-dependency policy (see Cargo.toml);
# forcing offline mode makes any accidental registry dependency fail fast.
export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

# The root manifest is also a package (the façade); its default-members
# make a bare `cargo build`/`cargo test` cover every crate as well, and
# --workspace says so explicitly.
echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> conv data-gradient oracle without FMA and on a 4-thread pool"
# The f32 data gradient must equal the GEMM + col2im oracle bit for bit
# whichever microkernel runs and however the batch is split.
GANDEF_NO_FMA=1 cargo test -q -p gandef-tensor --lib data_gradient
GANDEF_THREADS=4 cargo test -q -p gandef-tensor --lib data_gradient

echo "==> gandef-lint (workspace must be clean, within the time budget)"
# scripts/lint_budget.txt holds the baseline total lint CPU time in
# milliseconds (each file timed on the linting thread's CPU clock, so a
# busy host does not count); the run fails above 3x that — the
# perf-regression gate for the lint itself (a quadratic blowup in a new
# rule would otherwise land silently). Re-baseline with the median of
# at least 10 quiet runs of
#   ./target/release/gandef-lint --timings 2>&1 >/dev/null | tail -1
# after a deliberate analysis-cost change, and never raise it to make
# a slower lint pass.
./target/release/gandef-lint --budget scripts/lint_budget.txt

echo "==> bench_kernels --smoke + bench_diff"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
./target/release/bench_kernels --smoke --out "$out/BENCH_smoke.json"
# Throughput gate: generous 0.3x threshold (see DESIGN.md "Benchmark
# gate") — catches a kernel silently falling back to a naive path. The
# --require list pins the kernels the gate must actually compare, so
# dropping e.g. the fused conv entries from the bench run fails loudly.
./target/release/bench_diff --baseline BENCH_tensor.json --fresh "$out/BENCH_smoke.json" \
    --require matmul,conv2d,conv2d_im2col,conv2d_backward,conv2d_backward_data,elementwise_add,sum

echo "==> perfbench train-zk, train-pgd, serve-mixed (output checks)"
# The benchmark builds against the library crates by path, so these
# stages catch a library change that stops it from building or passing
# its output checks. Training: one round of ZK-GanDef and of PGD-Adv on
# LeNet, every epoch recorded with a finite loss, no divergence event,
# and test accuracy above the floor. Serving: perfbench drives
# gandef-serve with the clean/FGSM/PGD/DeepFool traffic mix over a
# trained LeNet and checks every reply's argmax against
# Sequential::infer. Speed is gated by BENCHMARK.json, not here; the
# serve-path fault sweep and the hot-reload contracts run as tests in
# tests/serve.rs.
for workload in train-zk train-pgd; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0
done
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve-mixed --seed 1 --seconds 2 --trace 0

echo "==> table3 --smoke (the grid harness writes all eight artifacts)"
# table3 trains every Table III cell at smoke size and renders Table
# III/IV, Figure 4, Figure 5 (left & middle), the transfer-attack rows
# and the logit signatures from them. A harness that panics after
# training, or stops writing one of its files, fails here.
if ! GANDEF_THREADS=1 ./target/release/table3 --smoke --out "$out/table3" >"$out/table3.log" 2>&1; then
    cat "$out/table3.log"
    echo "FAIL: table3 --smoke exited non-zero"
    exit 1
fi
for f in table3.md fig4.csv table4.md table4.csv fig5_time.md fig5_time.csv \
    transfer_attack.csv logit_signature.csv; do
    if [ ! -s "$out/table3/$f" ]; then
        echo "FAIL: table3 --smoke did not write a non-empty $f"
        exit 1
    fi
done
echo "table3 --smoke wrote all eight artifacts"

echo "==> numerics audit: f64 oracle invariance"
# Under GANDEF_ACCUM=f64 the kernel fingerprints must not depend on the
# worker-pool size or FMA availability.
GANDEF_ACCUM=f64 GANDEF_THREADS=1 ./target/release/numerics_audit --oracle >"$out/oracle_t1.txt"
GANDEF_ACCUM=f64 GANDEF_THREADS=8 ./target/release/numerics_audit --oracle >"$out/oracle_t8.txt"
GANDEF_ACCUM=f64 GANDEF_THREADS=8 GANDEF_NO_FMA=1 ./target/release/numerics_audit --oracle >"$out/oracle_t8_nofma.txt"
GANDEF_ACCUM=f64 GANDEF_THREADS=1 GANDEF_NO_FMA=1 ./target/release/numerics_audit --oracle >"$out/oracle_t1_nofma.txt"
diff "$out/oracle_t1.txt" "$out/oracle_t8.txt"
diff "$out/oracle_t1.txt" "$out/oracle_t8_nofma.txt"
diff "$out/oracle_t1.txt" "$out/oracle_t1_nofma.txt"
cat "$out/oracle_t1.txt"

echo "==> numerics audit: trajectory divergence + f64 reproducibility"
./target/release/numerics_audit

echo "==> crash-consistency sweep (kill a training child at every I/O point)"
# A clean run reports how many fault-injection points the checkpoint
# writer passes through (see docs/KNOBS.md, GANDEF_FAULT). The sweep then
# re-runs the child with a kill injected at each ordinal of each write
# site; whatever survives on disk must verify as a complete previous
# checkpoint or no checkpoint at all — a corrupt state fails the build.
# Ordinals past a site's actual point count simply never fire (the child
# completes), which the crash counters below confirm isn't the norm.
harness=./target/release/crash_harness
sweep="$out/crash_sweep"
# Runs a child that is expected to die by SIGABRT without bash's
# "Aborted" job notice cluttering the log: the notice is printed by the
# shell that reaps the child, so an inner shell with redirected stderr
# absorbs it. The trailing `exit $?` keeps the inner shell from
# exec-replacing itself with the child (which would defeat the wrapper).
# Propagates the child's exit status.
run_quiet() {
    bash -c '"$0" "$@"; exit $?' "$@" >/dev/null 2>&1
}
# The sweep runs with keep-last-3 rotation on so the two extra write
# sites it introduces (the rotated stamp and the manifest) are in scope;
# keep=1 behavior is covered by the io-fail stage and the resume oracle
# below, which run without --keep.
census="$($harness train --dir "$sweep/census" --epochs 2 --train 64 --keep 3 | grep IO_POINTS)"
points="${census#IO_POINTS }"
echo "checkpoint writer passes $points I/O points in a 2-epoch rotated run"
for site in save_params save_rotate save_manifest save_state; do
    crashes=0
    for i in $(seq 1 "$points"); do
        dir="$sweep/kill-$site-$i"
        if ! GANDEF_FAULT="kill:$site:$i" \
            run_quiet "$harness" train --dir "$dir" --epochs 2 --train 64 --keep 3; then
            crashes=$((crashes + 1))
        fi
        "$harness" verify --dir "$dir" >/dev/null || {
            echo "FAIL: corrupt checkpoint after kill:$site:$i"
            "$harness" verify --dir "$dir"
            exit 1
        }
    done
    if [ "$crashes" -eq 0 ]; then
        echo "FAIL: kill:$site:* never crashed the child — injection points unreachable?"
        exit 1
    fi
    echo "site $site: $crashes/$points kills, every surviving state verified"
done
# Injected I/O *errors* (not crashes) must be absorbed: the child reports
# CheckpointFailed and finishes training with exit 0.
dir="$sweep/iofail"
# Capture to a file rather than piping into `grep -q` — early-exit grep
# closes the pipe and turns the child's final prints into a spurious
# broken-pipe failure under pipefail.
GANDEF_FAULT=io-fail:save_state:1 \
    "$harness" train --dir "$dir" --epochs 2 --train 64 >"$sweep/iofail.log" 2>&1
grep -q "CheckpointFailed" "$sweep/iofail.log" || {
    echo "FAIL: io-fail:save_state:1 did not surface a CheckpointFailed event"
    cat "$sweep/iofail.log"
    exit 1
}
"$harness" verify --dir "$dir" >/dev/null
echo "io-fail absorbed as CheckpointFailed, training completed"

echo "==> cross-process resume oracle (straight == kill + resume, f64 accum)"
# The strongest resumability statement the harness can make: killing a
# run at the epoch-3 checkpoint and resuming it in a fresh process must
# reproduce the straight 6-epoch run's weights bit-for-bit.
straight="$(GANDEF_ACCUM=f64 "$harness" train --dir "$sweep/straight" --epochs 6 | grep FINGERPRINT)"
if GANDEF_ACCUM=f64 GANDEF_FAULT=kill:epoch:3 \
    run_quiet "$harness" train --dir "$sweep/oracle" --epochs 6; then
    echo "FAIL: kill:epoch:3 did not kill the child"
    exit 1
fi
[ "$(GANDEF_ACCUM=f64 "$harness" verify --dir "$sweep/oracle")" = "STATE_OK epoch=3" ]
resumed="$(GANDEF_ACCUM=f64 "$harness" train --dir "$sweep/oracle" --epochs 6 | grep FINGERPRINT)"
if [ "$straight" != "$resumed" ]; then
    echo "FAIL: resume oracle mismatch: straight '$straight' vs resumed '$resumed'"
    exit 1
fi
echo "resume oracle OK: $straight"

# Optional unsafe-surface audit: run Miri over the tensor crate when a
# nightly toolchain with the miri component is already installed. This is
# best-effort — the offline policy forbids installing toolchains here, so
# the stage silently skips when unavailable.
if cargo +nightly miri --version >/dev/null 2>&1; then
    echo "==> miri (tensor crate unsafe surface)"
    # The pool spawns detached workers that outlive the test harness;
    # ignoring leaks keeps the check focused on UB, not shutdown order.
    MIRIFLAGS="-Zmiri-ignore-leaks" cargo +nightly miri test -p gandef-tensor --lib
else
    echo "==> miri unavailable (no nightly toolchain) — skipping"
fi

# Optional sanitizer passes: run the concurrency stress harness under
# ThreadSanitizer and AddressSanitizer when a nightly toolchain with the
# rust-src component is already installed (-Zsanitizer requires
# rebuilding std via -Zbuild-std). Best-effort like the Miri stage: the
# offline policy forbids installing toolchains, so skip cleanly when
# unavailable.
san_ready=false
if rustc +nightly --version >/dev/null 2>&1; then
    sysroot="$(rustc +nightly --print sysroot)"
    if [ -d "$sysroot/lib/rustlib/src/rust/library" ]; then
        san_ready=true
    fi
fi
if [ "$san_ready" = true ]; then
    host="$(rustc -vV | sed -n 's/^host: //p')"
    for san in thread address; do
        echo "==> ${san}-sanitizer (stress_harness --smoke)"
        if ! RUSTFLAGS="-Zsanitizer=$san" cargo +nightly build --release \
            -p gandef-bench --bin stress_harness \
            -Zbuild-std --target "$host" --target-dir "$out/san-$san"; then
            echo "==> ${san}-sanitizer build failed (offline -Zbuild-std?) — skipping"
            continue
        fi
        # The pool's workers are detached by design; leak checking would
        # only report that shutdown order, not a bug.
        ASAN_OPTIONS=detect_leaks=0 \
            "$out/san-$san/$host/release/stress_harness" --smoke
        echo "${san}-sanitizer OK"
    done
else
    echo "==> sanitizers unavailable (no nightly rust-src) — skipping"
fi

echo "CI OK"
