#!/bin/sh
# End-to-end test of the smptree_cli binary: gen -> train -> eval -> show,
# for both the two-class and the multiclass generators, plus failure modes.
# Invoked by ctest with the CLI path as $1.
set -e

CLI="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# --- happy path: two-class ---
"$CLI" gen --function 5 --attrs 10 --tuples 2000 \
  --out "$DIR/data.csv" --schema-out "$DIR/schema.txt" \
  || fail "gen"
[ -s "$DIR/data.csv" ] || fail "gen produced no data"
[ -s "$DIR/schema.txt" ] || fail "gen produced no schema"

"$CLI" train --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --algorithm subtree --subroutine mwk --threads 3 --window 2 \
  --model "$DIR/model.tree" > "$DIR/train.out" || fail "train"
grep -q "training accuracy 1.0000" "$DIR/train.out" \
  || fail "clean data must fit exactly"

"$CLI" eval --schema "$DIR/schema.txt" --model "$DIR/model.tree" \
  --data "$DIR/data.csv" > "$DIR/eval.out" || fail "eval"
grep -q "accuracy: 1.0000" "$DIR/eval.out" || fail "eval accuracy"

"$CLI" show --schema "$DIR/schema.txt" --model "$DIR/model.tree" \
  --format text | grep -q "leaf:" || fail "show text"
"$CLI" show --schema "$DIR/schema.txt" --model "$DIR/model.tree" \
  --format sql | grep -q "CASE" || fail "show sql"
"$CLI" show --schema "$DIR/schema.txt" --model "$DIR/model.tree" \
  --format dot | grep -q "digraph" || fail "show dot"

# --- happy path: multiclass with pruning on noisy labels ---
"$CLI" gen --classes 4 --tuples 1500 --noise 0.05 \
  --out "$DIR/mc.csv" --schema-out "$DIR/mc_schema.txt" || fail "gen mc"
"$CLI" train --schema "$DIR/mc_schema.txt" --data "$DIR/mc.csv" \
  --algorithm mwk --threads 2 --prune cost --model "$DIR/mc.tree" \
  > "$DIR/mc_train.out" || fail "train mc"
grep -q "pruned" "$DIR/mc_train.out" || fail "train mc output"
"$CLI" eval --schema "$DIR/mc_schema.txt" --model "$DIR/mc.tree" \
  --data "$DIR/mc.csv" | grep -q "band 3" || fail "eval mc classes"

# --- predict: batch scoring through the serving load path ---
"$CLI" predict --schema "$DIR/schema.txt" --model "$DIR/model.tree" \
  --data "$DIR/data.csv" --out "$DIR/pred.csv" || fail "predict"
head -n 1 "$DIR/pred.csv" | grep -q "^class$" || fail "predict header"
# One prediction per tuple (2000 rows + header).
[ "$(wc -l < "$DIR/pred.csv")" = "2001" ] || fail "predict row count"
# The model fit the training data exactly, so the predicted class names
# must equal the label column of the input CSV.
awk -F, 'NR > 1 {print $NF}' "$DIR/data.csv" > "$DIR/want.txt"
tail -n +2 "$DIR/pred.csv" > "$DIR/got.txt"
cmp -s "$DIR/want.txt" "$DIR/got.txt" || fail "predictions != labels"

if "$CLI" predict --schema "$DIR/schema.txt" --model "$DIR/missing.tree" \
  --data "$DIR/data.csv" 2> /dev/null; then
  fail "predict accepted a missing model"
fi

# --- binned engine: train -> eval, stats carry the engine + H phase ---
"$CLI" train --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --engine binned --max-bins 64 --threads 2 \
  --model "$DIR/binned.tree" --stats-out "$DIR/binned_stats.json" \
  > "$DIR/binned_train.out" || fail "train binned"
grep -q "trained BINNED" "$DIR/binned_train.out" || fail "binned banner"
grep -q "H " "$DIR/binned_train.out" || fail "binned H phase line"
grep -q '"engine": "binned"' "$DIR/binned_stats.json" \
  || fail "binned stats engine"
grep -q '"bins_scanned"' "$DIR/binned_stats.json" \
  || fail "binned stats bins_scanned"
"$CLI" eval --schema "$DIR/schema.txt" --model "$DIR/binned.tree" \
  --data "$DIR/data.csv" > "$DIR/binned_eval.out" || fail "eval binned"
grep -q "accuracy: " "$DIR/binned_eval.out" || fail "binned eval accuracy"

if "$CLI" train --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --engine warp --model "$DIR/x.tree" 2> /dev/null; then
  fail "bad engine accepted"
fi
if "$CLI" train --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --engine binned --max-bins 999 --model "$DIR/x.tree" 2> /dev/null; then
  fail "out-of-range max-bins accepted"
fi

# --- forest: train-forest -> eval (sniffed) -> predict ---
"$CLI" train-forest --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --trees 5 --threads 2 --features-per-node 4 --algorithm basic \
  --model "$DIR/model.forest" > "$DIR/forest_train.out" || fail "train-forest"
grep -q "trained forest of 5 trees" "$DIR/forest_train.out" \
  || fail "train-forest banner"
grep -q "oob accuracy:" "$DIR/forest_train.out" || fail "train-forest oob"
head -n 1 "$DIR/model.forest" | grep -q "^forest v1 trees=5$" \
  || fail "forest container header"

# eval sniffs the model kind from the file.
"$CLI" eval --schema "$DIR/schema.txt" --model "$DIR/model.forest" \
  --data "$DIR/data.csv" > "$DIR/forest_eval.out" || fail "eval forest"
grep -q "(forest, 5 trees)" "$DIR/forest_eval.out" || fail "eval forest kind"
grep -q "accuracy:" "$DIR/forest_eval.out" || fail "eval forest accuracy"

"$CLI" predict --schema "$DIR/schema.txt" --model "$DIR/model.forest" \
  --data "$DIR/data.csv" --out "$DIR/forest_pred.csv" \
  || fail "predict forest"
[ "$(wc -l < "$DIR/forest_pred.csv")" = "2001" ] \
  || fail "forest predict row count"

# --- forest with the binned inner engine (pass-through) ---
"$CLI" train-forest --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --trees 3 --threads 2 --engine binned --model "$DIR/binned.forest" \
  > "$DIR/binned_forest.out" || fail "train-forest binned"
grep -q "trained forest of 3 trees" "$DIR/binned_forest.out" \
  || fail "train-forest binned banner"
"$CLI" eval --schema "$DIR/schema.txt" --model "$DIR/binned.forest" \
  --data "$DIR/data.csv" | grep -q "accuracy:" \
  || fail "eval binned forest"

# --- --eval on the train commands: held-out accuracy + confusion matrix ---
"$CLI" gen --function 5 --attrs 10 --tuples 500 --seed 99 \
  --out "$DIR/test.csv" --schema-out "$DIR/test_schema.txt" || fail "gen test"
"$CLI" train --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --model "$DIR/eval.tree" --eval "$DIR/test.csv" > "$DIR/train_eval.out" \
  || fail "train --eval"
grep -q "accuracy:" "$DIR/train_eval.out" || fail "train --eval accuracy"
"$CLI" train-forest --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --trees 3 --model "$DIR/eval.forest" --eval "$DIR/test.csv" \
  > "$DIR/tf_eval.out" || fail "train-forest --eval"
grep -q "accuracy:" "$DIR/tf_eval.out" || fail "train-forest --eval accuracy"

# --- forest failure modes ---
if "$CLI" train-forest --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --trees 3 --schedule sideways --model "$DIR/x.forest" 2> /dev/null; then
  fail "bad schedule accepted"
fi
if "$CLI" train-forest --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --trees 3 --algorithm record --model "$DIR/x.forest" 2> /dev/null; then
  fail "record-parallel inner builder accepted"
fi

# --- failure modes must exit non-zero with a message ---
if "$CLI" train --schema "$DIR/schema.txt" --data "$DIR/data.csv" \
  --algorithm warp9 --model "$DIR/x.tree" 2> "$DIR/err.out"; then
  fail "bad algorithm accepted"
fi
grep -q "unknown algorithm" "$DIR/err.out" || fail "bad algorithm message"

if "$CLI" eval --schema "$DIR/schema.txt" --model "$DIR/missing.tree" \
  --data "$DIR/data.csv" 2> /dev/null; then
  fail "missing model accepted"
fi

if "$CLI" frobnicate 2> /dev/null; then
  fail "unknown command accepted"
fi

# schema/data mismatch is a parse error, not a crash
if "$CLI" eval --schema "$DIR/mc_schema.txt" --model "$DIR/model.tree" \
  --data "$DIR/data.csv" 2> /dev/null; then
  fail "mismatched schema accepted"
fi

# non-finite continuous values are rejected when the CSV is read, naming the
# attribute and line, on either engine and for forests; no model is written
# (F1 with every 5th tuple's age set to nan, then one 1e300, a float overflow)
"$CLI" gen --function 1 --tuples 400 --out "$DIR/f1.csv" \
  --schema-out "$DIR/f1_schema.txt" || fail "gen f1"
awk -F, 'BEGIN {OFS = ","} NR > 1 && NR % 5 == 0 {$3 = "nan"} {print}' \
  "$DIR/f1.csv" > "$DIR/f1_nan.csv"
awk -F, 'BEGIN {OFS = ","} NR == 3 {$3 = "1e300"} {print}' \
  "$DIR/f1.csv" > "$DIR/f1_big.csv"
for input in f1_nan f1_big; do
  case "$input" in
    f1_nan) row=5 ;;
    *) row=3 ;;
  esac
  for engine in sorted binned; do
    if "$CLI" train --schema "$DIR/f1_schema.txt" --data "$DIR/$input.csv" \
      --engine "$engine" --model "$DIR/$input.tree" 2> "$DIR/err.out"; then
      fail "$input accepted by the $engine engine"
    fi
    grep -q "row $row: non-finite continuous value .* for attribute 'age'" \
      "$DIR/err.out" || fail "$input $engine message"
    grep -q "Corruption" "$DIR/err.out" && fail "$input $engine: Corruption"
    [ -e "$DIR/$input.tree" ] && fail "$input $engine wrote a model"
  done
  if "$CLI" train-forest --schema "$DIR/f1_schema.txt" \
    --data "$DIR/$input.csv" --engine binned --trees 3 \
    --model "$DIR/$input.forest" 2> /dev/null; then
    fail "$input accepted by train-forest"
  fi
done

echo "cli workflow OK"
