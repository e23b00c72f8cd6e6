#!/usr/bin/env bash
# Byte oracle: check that the working tree writes the same output files as <rev>.
#
#   tools/bytecheck.sh <rev> [iters]
#
# Both trees run `lcd gen-data` at 256 and at 2048 points, then a short
# fixed-seed `lcd train` for each loss configuration below and `lcd eval` of its
# checkpoint on both data sets. The 2048-point eval covers large-n matching and
# clouds of unequal size (2048 inputs against 256 reconstructed points). The
# script then compares, byte for byte, every metrics.csv, ckpt_*.txt, eval.csv
# and generated data file of <rev> with the working tree's. It lists every
# file that differs or that the working tree did not write, then prints the
# matched and differing counts. It exits 1 if any file differs or is missing
# and 0 when all files match.
# Outputs and the exported copy of <rev> go to a temporary directory that is
# removed on exit. Set PYTHON to choose the interpreter (default python3).
set -euo pipefail

rev=${1:?usage: tools/bytecheck.sh <rev> [iters]}
iters=${2:-20}
python=${PYTHON:-python3}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
commit=$(git -C "$repo" rev-parse --verify "$rev^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# an exported tree, not a worktree: nothing is left in .git if the run is cut
mkdir "$tmp/base"
git -C "$repo" archive "$commit" | tar -x -C "$tmp/base"

configs=("lcd" "lcd --no-siacon" "lcd --no-log" "lcd --squared" "cd" "cd --squared")

run_tree() { # run_tree <tree> <out>
    local lcd=(env "PYTHONPATH=$1/src" "$python" -m lcd.cli) out=$2 cfg name
    "${lcd[@]}" gen-data --count 8 --points 256 --seed 3 --out "$out/data" >/dev/null
    "${lcd[@]}" gen-data --count 8 --points 2048 --seed 3 --out "$out/data_2048" >/dev/null
    for cfg in "${configs[@]}"; do
        name=${cfg// --/_}
        # shellcheck disable=SC2086  # cfg splits into --loss value and flags
        "${lcd[@]}" train --loss $cfg --iters "$iters" --eval-interval 5 --seed 1 --out "$out/$name" >/dev/null
        "${lcd[@]}" eval --ckpt-recon "$out/$name/ckpt_recon.txt" --data "$out/data" --out "$out/$name" >/dev/null
        "${lcd[@]}" eval --ckpt-recon "$out/$name/ckpt_recon.txt" --data "$out/data_2048" --out "$out/$name/eval_2048" >/dev/null
    done
}

echo "bytecheck: running $rev ($commit)"
run_tree "$tmp/base" "$tmp/base_out"
echo "bytecheck: running the working tree $repo"
run_tree "$repo" "$tmp/work_out"

matched=0
differing=0
while IFS= read -r -d '' file; do
    rel=${file#"$tmp/base_out/"}
    if [[ ! -f "$tmp/work_out/$rel" ]]; then
        echo "bytecheck: MISSING $rel (written by $rev, not by the working tree)" >&2
        differing=$((differing + 1))
    elif ! cmp -s "$file" "$tmp/work_out/$rel"; then
        echo "bytecheck: DIFFERS $rel" >&2
        differing=$((differing + 1))
    else
        matched=$((matched + 1))
    fi
done < <(find "$tmp/base_out" -type f \( -name metrics.csv -o -name 'ckpt_*.txt' -o -name eval.csv -o -path "$tmp/base_out/data*/*" \) -print0 | sort -z)
if ((differing > 0)); then
    echo "bytecheck: FAIL, $matched files byte-identical to $rev, $differing differ or are missing" >&2
    exit 1
fi
echo "bytecheck: PASS, $matched files byte-identical to $rev"
