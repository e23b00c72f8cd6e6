#!/usr/bin/env bash
# Byte oracle: check that the working tree writes the same output files as <rev>.
#
#   tools/bytecheck.sh <rev> [iters]
#
# Both trees run `lcd gen-data`, then a short fixed-seed `lcd train` for each
# loss configuration below and `lcd eval` of its checkpoint on the generated
# data. The script then compares, byte for byte, every metrics.csv, ckpt_*.txt,
# eval.csv and generated data file of <rev> with the working tree's. It exits
# 1 on the first difference or missing file and 0 when all files match.
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
    for cfg in "${configs[@]}"; do
        name=${cfg// --/_}
        # shellcheck disable=SC2086  # cfg splits into --loss value and flags
        "${lcd[@]}" train --loss $cfg --iters "$iters" --eval-interval 5 --seed 1 --out "$out/$name" >/dev/null
        "${lcd[@]}" eval --ckpt-recon "$out/$name/ckpt_recon.txt" --data "$out/data" --out "$out/$name" >/dev/null
    done
}

echo "bytecheck: running $rev ($commit)"
run_tree "$tmp/base" "$tmp/base_out"
echo "bytecheck: running the working tree $repo"
run_tree "$repo" "$tmp/work_out"

checked=0
while IFS= read -r -d '' file; do
    rel=${file#"$tmp/base_out/"}
    if ! cmp -s "$file" "$tmp/work_out/$rel"; then
        echo "bytecheck: FAIL $rel differs from $rev or is missing" >&2
        exit 1
    fi
    checked=$((checked + 1))
done < <(find "$tmp/base_out" -type f \( -name metrics.csv -o -name 'ckpt_*.txt' -o -name eval.csv -o -path '*/data/*' \) -print0 | sort -z)
echo "bytecheck: PASS, $checked files byte-identical to $rev"
