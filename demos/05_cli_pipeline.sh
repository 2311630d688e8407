#!/usr/bin/env bash
# End-to-end artifact pipeline through the cpmr CLI: preprocess a raw CSV
# log, train, evaluate the checkpoint, sweep the context window, run one
# ablation, and finish with the gradient check. Everything lands in a
# scratch directory. The CLI runs as `python3 -m cpmr`, so the package
# needs only to be importable: installed, or with PYTHONPATH=src from the
# root of a checkout.
set -euo pipefail

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
echo "working in $work"

python3 - "$work" <<'PY'
import sys

import numpy as np

rng = np.random.default_rng(0)
favs = [rng.choice(12, size=3, replace=False) for _ in range(15)]
with open(f"{sys.argv[1]}/raw.csv", "w") as fh:
    for day in range(25):
        for _ in range(8):
            u = int(rng.integers(15))
            i = int(rng.choice(favs[u]) if rng.random() < 0.7 else rng.integers(12))
            fh.write(f"u{u},i{i},5.0,{day * 86400}\n")
PY

python3 -m cpmr preprocess --input "$work/raw.csv" --format amazon_csv \
    --output "$work/run" --k-core 3

cat > "$work/run.cfg" <<EOF
data.path=$work/run/dataset.bin
output.dir=$work/run
model.d=8
model.s_days=5
model.taylor_order=4
train.lr=0.003
train.n_tbptt=5
train.n_neg=4
train.max_epochs=4
train.patience=4
EOF

python3 -m cpmr train --config "$work/run.cfg"
python3 -m cpmr eval --config "$work/run.cfg" --checkpoint "$work/run/checkpoint.bin" --split test
python3 -m cpmr sweep --config "$work/run.cfg" --param s_days --values 3,5
echo "--- sweep.csv ---"; cat "$work/run/sweep.csv"
python3 -m cpmr ablate --config "$work/run.cfg" --variant wo_fusion
python3 -m cpmr gradcheck | tail -n 3
echo "pipeline complete"
