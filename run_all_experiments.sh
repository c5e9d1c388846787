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
# rerun everything.
#
# Both are stamped with the binary's cksum and the flag string: the
# marker holds the stamp of the run that finished, and
# results/ckpt-<binary>/build.stamp that of the run writing the
# checkpoints. A rebuilt binary or changed flags therefore rerun the
# harness, and checkpoints stamped by another build or flag string (or
# not stamped at all, as is every checkpoint from before the stamp, GNRS
# version 1 included) are cleared first, so no half-trained cell is
# finished by different code.
#
# table3 trains each grid cell once and writes table3.md and fig4.csv,
# and from the same runs table4.md/.csv (DeepFool/CW on ZK-GanDef) and
# fig5_time.md/.csv (training time per epoch). Its SynthDigits Vanilla,
# CLS and ZK-GanDef cells, plus one surrogate Vanilla run, also give
# transfer_attack.csv (black-box transfer) and logit_signature.csv
# (logit statistics on clean/noisy/FGSM inputs).
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

harnesses="table3 fig5_convergence gamma_ablation prop1_entropy"

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
  ckpt="results/ckpt-$b"
  stamp="$(cksum < "./target/release/$b") $flags"
  if [ -f "$marker" ] && [ "$(cat "$marker")" = "$stamp" ]; then
    echo "=== $b already done (rm $marker to rerun) ==="
    continue
  fi
  if [ -d "$ckpt" ] && [ "$(cat "$ckpt/build.stamp" 2>/dev/null)" != "$stamp" ]; then
    echo "=== $b: $ckpt was written by another build or flag string, clearing ==="
    rm -rf "$ckpt"
  fi
  echo "=== $b $(date +%H:%M:%S) ==="
  # Epoch-level resume for the training-heavy harnesses ($extra stays a
  # plain word-split string: the path contains no spaces).
  case "$b" in
    table3|fig5_convergence)
      mkdir -p "$ckpt"
      printf '%s' "$stamp" > "$ckpt/build.stamp"
      extra="--resume $ckpt"
      ;;
    *) extra="" ;;
  esac
  if "./target/release/$b" "$@" $extra 2>&1 | tee "results/${b}_run.log" \
     && [ "${PIPESTATUS[0]}" -eq 0 ]; then
    printf '%s' "$stamp" > "$marker"
    rm -rf "$ckpt"
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
