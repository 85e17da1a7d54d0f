#!/usr/bin/env bash
# Full pipeline on the bundled demo corpus: preprocess, train with every
# backend, evaluate each result against the gold labels.
set -euo pipefail
cd "$(dirname "$0")/.."
# the package imports from the checkout, installed or not
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

out=out/demo
mkdir -p "$out"

python3 -m stemcluster preprocess data/demo/corpus.txt -o "$out/lexicon.txt" --stats

for backend in greedy ap-coeff ap-median; do
    echo "== $backend =="
    python3 -m stemcluster train "$out/lexicon.txt" \
        --backend "$backend" \
        --stem-table "$out/$backend-stems.tsv" \
        --report "$out/$backend-report.json"
    python3 -m stemcluster evaluate "$out/$backend-report.json" data/demo/gold.tsv --table
done

echo "== stem lookup through the greedy table =="
printf 'কাজের\nবইটি\nঅজানাশব্দ\n' | python3 -m stemcluster stem "$out/greedy-stems.tsv" --mark-oov
