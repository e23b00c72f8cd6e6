#!/usr/bin/env bash
# Byte oracle: check that the working tree writes the same output files as <rev>.
#
#   tools/bytecheck.sh <rev> [iters]
#
# Both trees run `lcd gen-data` at 256 and at 2048 points, then a short
# fixed-seed `lcd train` for each loss configuration below and `lcd eval` of its
# checkpoint on both data sets. The 2048-point eval covers large-n matching and
# clouds of unequal size (2048 inputs against 256 reconstructed points). The
# working tree's `lcd eval` then also runs on <rev>'s checkpoints, on both data
# sets (the cross-evals).
#
# The script compares, byte for byte, every metrics.csv, ckpt_*.txt, eval.csv
# and generated data file of <rev> with the working tree's ("outputs"), and
# each cross-eval's eval.csv with <rev>'s own ("cross-eval"). A change that
# only rounds gradients differently changes the training outputs, but it must
# leave every cross-eval and data file identical: the cross-evals keep the
# forward path under the oracle. The script lists every file that differs or
# that the working tree did not write, then prints the matched and differing
# counts of each comparison. It exits 1 if any file differs or is missing and
# 0 when all files match.
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

eval_both() { # eval_both <tree> <ckpt dir> <data parent dir> <out>
    local lcd=(env "PYTHONPATH=$1/src" "$python" -m lcd.cli)
    "${lcd[@]}" eval --ckpt-recon "$2/ckpt_recon.txt" --data "$3/data" --out "$4" >/dev/null
    "${lcd[@]}" eval --ckpt-recon "$2/ckpt_recon.txt" --data "$3/data_2048" --out "$4/eval_2048" >/dev/null
}

run_tree() { # run_tree <tree> <out>
    local lcd=(env "PYTHONPATH=$1/src" "$python" -m lcd.cli) out=$2 cfg name
    "${lcd[@]}" gen-data --count 8 --points 256 --seed 3 --out "$out/data" >/dev/null
    "${lcd[@]}" gen-data --count 8 --points 2048 --seed 3 --out "$out/data_2048" >/dev/null
    for cfg in "${configs[@]}"; do
        name=${cfg// --/_}
        # shellcheck disable=SC2086  # cfg splits into --loss value and flags
        "${lcd[@]}" train --loss $cfg --iters "$iters" --eval-interval 5 --seed 1 --out "$out/$name" >/dev/null
        eval_both "$1" "$out/$name" "$out" "$out/$name"
    done
}

echo "bytecheck: running $rev ($commit)"
run_tree "$tmp/base" "$tmp/base_out"
echo "bytecheck: running the working tree $repo"
run_tree "$repo" "$tmp/work_out"
echo "bytecheck: evaluating $rev's checkpoints with the working tree"
for cfg in "${configs[@]}"; do
    name=${cfg// --/_}
    eval_both "$repo" "$tmp/base_out/$name" "$tmp/base_out" "$tmp/cross_out/$name"
done

failed=0
compare() { # compare <label> <dir> <find tests...>: <rev>'s files against the same paths under <dir>
    local label=$1 other=$2 matched=0 differing=0 file rel
    shift 2
    while IFS= read -r -d '' file; do
        rel=${file#"$tmp/base_out/"}
        if [[ ! -f "$other/$rel" ]]; then
            echo "bytecheck: MISSING $label $rel (written by $rev, not by the working tree)" >&2
            differing=$((differing + 1))
        elif ! cmp -s "$file" "$other/$rel"; then
            echo "bytecheck: DIFFERS $label $rel" >&2
            differing=$((differing + 1))
        else
            matched=$((matched + 1))
        fi
    done < <(find "$tmp/base_out" -type f "$@" -print0 | sort -z)
    echo "bytecheck: $label: $matched files byte-identical to $rev, $differing differ or are missing"
    if ((differing > 0)); then
        failed=1
    fi
}
compare outputs "$tmp/work_out" \( -name metrics.csv -o -name 'ckpt_*.txt' -o -name eval.csv -o -path "$tmp/base_out/data*/*" \)
compare cross-eval "$tmp/cross_out" -name eval.csv
if ((failed)); then
    echo "bytecheck: FAIL" >&2
    exit 1
fi
echo "bytecheck: PASS"
