#!/bin/bash
# Regenerates every paper artifact sequentially (see DESIGN.md §4).
# Usage: ./run_all_experiments.sh [--fresh] [extra harness flags, e.g. --paper-scale]
#
# The run is resumable at two granularities: each harness that completes
# drops a results/<binary>.done marker and is skipped on the next
# invocation, and the long-training harnesses (table3, fig5_convergence)
# additionally checkpoint every training run under results/ckpt-<binary>/
# via --resume, so a crash mid-harness resumes at the last finished epoch
# rather than the last finished harness; a resumed run keeps every epoch's
# loss and seconds. Pass --fresh to clear markers and checkpoints and
# rerun everything. Markers are also invalidated when the flags change
# (the flag string is stored inside the marker).
#
# table3 trains each grid cell once and writes table3.md and fig4.csv,
# and from the same runs table4.md/.csv (DeepFool/CW on ZK-GanDef) and
# fig5_time.md/.csv (training time per epoch).
#
# A checkpoint under results/ckpt-* written before run states carried
# their per-epoch history (GNRS version 1) is refused: that run prints
# "cannot resume ... unsupported run-state version 1" and restarts from
# epoch 0. --fresh clears such checkpoints up front.
#
# Binaries are built once up front and then invoked directly, so the run is
# immune to concurrent source edits. A failed harness does not stop the
# run; at the end the script names every failed harness and exits 1, and
# prints ALL_EXPERIMENTS_DONE only when every harness succeeded.
set -u
cd "$(dirname "$0")"
mkdir -p results

if [ "${1:-}" = "--fresh" ]; then
  shift
  rm -f results/*.done
  rm -rf results/ckpt-*
fi
flags="$*"

harnesses="table3 fig5_convergence gamma_ablation prop1_entropy
           transfer_attack logit_signature"

cargo build --release -p gandef-bench || exit 1
# A deleted or renamed harness fails here, before the first long run.
for b in $harnesses; do
  if [ ! -x "./target/release/$b" ]; then
    echo "=== missing harness binary target/release/$b ==="
    exit 1
  fi
done

failed=""
for b in $harnesses; do
  marker="results/${b}.done"
  if [ -f "$marker" ] && [ "$(cat "$marker")" = "$flags" ]; then
    echo "=== $b already done (rm $marker to rerun) ==="
    continue
  fi
  echo "=== $b $(date +%H:%M:%S) ==="
  # Epoch-level resume for the training-heavy harnesses ($extra stays a
  # plain word-split string: the path contains no spaces).
  case "$b" in
    table3|fig5_convergence) extra="--resume results/ckpt-$b" ;;
    *) extra="" ;;
  esac
  if "./target/release/$b" "$@" $extra 2>&1 | tee "results/${b}_run.log" \
     && [ "${PIPESTATUS[0]}" -eq 0 ]; then
    printf '%s' "$flags" > "$marker"
    rm -rf "results/ckpt-$b"
  else
    echo "=== $b FAILED — no marker written, rerun resumes here ==="
    failed="$failed $b"
  fi
done
if [ -n "$failed" ]; then
  echo "=== FAILED harnesses:$failed ==="
  exit 1
fi
echo "ALL_EXPERIMENTS_DONE $(date +%H:%M:%S)"
