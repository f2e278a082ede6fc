#!/bin/sh
# End-to-end smoke test of the imgrn CLI prototype: generate a database,
# build the index and persist it as a snapshot (three times into one file,
# which must stop growing after the second save), extract a query, run it
# (from the reopened snapshot and from an in-memory index), and run
# single-matrix inference. Invoked by ctest with the CLI binary path as $1.
set -eu

IMGRN="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

"$IMGRN" generate --out="$WORKDIR/db.txt" --n_matrices=30 \
    --genes_min=15 --genes_max=30 --gene_universe=200 --seed=5 \
    | grep -q "wrote 30 matrices"

"$IMGRN" snapshot save --db="$WORKDIR/db.txt" \
    --store="disk:$WORKDIR/db.pages" | grep -q "snapshot saved: 30 matrices"

# A save over a snapshot replaces it and reuses its pages, those of the
# tree it held included: from the second save on, the file stops growing.
"$IMGRN" snapshot save --db="$WORKDIR/db.txt" \
    --store="disk:$WORKDIR/db.pages" > /dev/null
size2=$(wc -c < "$WORKDIR/db.pages")
"$IMGRN" snapshot save --db="$WORKDIR/db.txt" \
    --store="disk:$WORKDIR/db.pages" > /dev/null
size3=$(wc -c < "$WORKDIR/db.pages")
if [ "$size3" -ne "$size2" ]; then
  echo "third save grew the snapshot file: $size2 -> $size3 bytes" >&2
  exit 1
fi

"$IMGRN" extract-query --db="$WORKDIR/db.txt" --out="$WORKDIR/q.txt" \
    --genes=3 --gamma=0.6 | grep -q "3-gene query"

# Query through the persisted index: reopen the snapshot, no rebuild.
"$IMGRN" snapshot load --store="disk:$WORKDIR/db.pages" \
    --query="$WORKDIR/q.txt" --gamma=0.5 --alpha=0.1 --top_k=3 \
    > "$WORKDIR/with_index.out"
grep -q "cold start in .*: 30 matrices" "$WORKDIR/with_index.out"
grep -q "stats:" "$WORKDIR/with_index.out"

# Loading a store that does not exist fails (exit 1) and leaves no file
# behind: a mistyped path must not create an empty store.
status=0
"$IMGRN" snapshot load --store="disk:$WORKDIR/missing.pages" \
    > /dev/null 2> "$WORKDIR/missing.err" || status=$?
if [ "$status" -ne 1 ]; then
  echo "expected exit 1 on snapshot load of a missing store, got $status" >&2
  exit 1
fi
if [ -e "$WORKDIR/missing.pages" ]; then
  echo "snapshot load of a missing store created it" >&2
  exit 1
fi

# Query with an in-memory index; the answer set must match.
"$IMGRN" query --db="$WORKDIR/db.txt" --query="$WORKDIR/q.txt" \
    --gamma=0.5 --alpha=0.1 --top_k=3 > "$WORKDIR/without_index.out"
grep '^match' "$WORKDIR/with_index.out" > "$WORKDIR/a" || true
grep '^match' "$WORKDIR/without_index.out" > "$WORKDIR/b" || true
test -s "$WORKDIR/a"  # The reopened snapshot must actually answer.
diff "$WORKDIR/a" "$WORKDIR/b"

# The sharded engine must return the identical matches: --shards=1 (one
# unpartitioned engine) vs --shards=4 (source g on shard g mod 4,
# fan-out/merge).
"$IMGRN" query --db="$WORKDIR/db.txt" --query="$WORKDIR/q.txt" \
    --gamma=0.5 --alpha=0.1 --shards=1 > "$WORKDIR/shards1.out"
"$IMGRN" query --db="$WORKDIR/db.txt" --query="$WORKDIR/q.txt" \
    --gamma=0.5 --alpha=0.1 --shards=4 2>/dev/null > "$WORKDIR/shards4.out"
grep '^match' "$WORKDIR/shards1.out" > "$WORKDIR/s1" || true
grep '^match' "$WORKDIR/shards4.out" > "$WORKDIR/s4" || true
test -s "$WORKDIR/s1"  # The query must actually match something.
diff "$WORKDIR/s1" "$WORKDIR/s4"

# Replication is not a semantic knob: --replicas=3 (every
# shard mirrored, sub-queries routed round-robin) must match --shards=1
# exactly, with and without sharding on top.
"$IMGRN" query --db="$WORKDIR/db.txt" --query="$WORKDIR/q.txt" \
    --gamma=0.5 --alpha=0.1 --shards=4 --replicas=3 2>/dev/null \
    > "$WORKDIR/replicas.out"
grep '^match' "$WORKDIR/replicas.out" > "$WORKDIR/r43" || true
diff "$WORKDIR/s1" "$WORKDIR/r43"
"$IMGRN" query --db="$WORKDIR/db.txt" --query="$WORKDIR/q.txt" \
    --gamma=0.5 --alpha=0.1 --shards=1 --replicas=2 2>/dev/null \
    > "$WORKDIR/replicas12.out"
grep '^match' "$WORKDIR/replicas12.out" > "$WORKDIR/r12" || true
diff "$WORKDIR/s1" "$WORKDIR/r12"

# Invalid replica arguments are rejected up front.
if "$IMGRN" query --db="$WORKDIR/db.txt" --query="$WORKDIR/q.txt" \
    --replicas=0 2>/dev/null; then
  echo "expected failure on --replicas=0" >&2
  exit 1
fi

# `query` builds its index in memory; a disk-backed index is queried with
# `snapshot load --query`, so --store is an unknown flag here.
status=0
"$IMGRN" query --db="$WORKDIR/db.txt" --query="$WORKDIR/q.txt" \
    --store=mem > /dev/null 2> "$WORKDIR/store.err" || status=$?
if [ "$status" -ne 2 ]; then
  echo "expected exit 2 on query --store=mem, got $status" >&2
  exit 1
fi
grep -q "unknown flag --store" "$WORKDIR/store.err"

# Faults are armed only by tests (common/fault_injection.h): --fault is an
# unknown flag. There is no partial answer to ask for either:
# --allow-partial is an unknown flag too.
status=0
"$IMGRN" query --db="$WORKDIR/db.txt" --query="$WORKDIR/q.txt" \
    --fault=buffer_pool.fetch=n1 > /dev/null 2> "$WORKDIR/fault.err" ||
    status=$?
if [ "$status" -ne 2 ]; then
  echo "expected exit 2 on --fault=buffer_pool.fetch=n1, got $status" >&2
  exit 1
fi
grep -q "unknown flag --fault" "$WORKDIR/fault.err"
status=0
"$IMGRN" query --db="$WORKDIR/db.txt" --query="$WORKDIR/q.txt" \
    --shards=4 --allow-partial=1 > /dev/null 2> "$WORKDIR/partial.err" ||
    status=$?
if [ "$status" -ne 2 ]; then
  echo "expected exit 2 on --allow-partial=1, got $status" >&2
  exit 1
fi
grep -q "unknown flag --allow-partial" "$WORKDIR/partial.err"

# Placement invariance on a skewed database: matrices span 8..40 genes, so
# the per-source costs are far from uniform, and --shards=4 must still
# match --shards=1 exactly — placement only moves load, never answers.
"$IMGRN" generate --out="$WORKDIR/skew.txt" --n_matrices=16 \
    --genes_min=8 --genes_max=40 --gene_universe=200 --seed=11 \
    | grep -q "wrote 16 matrices"
"$IMGRN" extract-query --db="$WORKDIR/skew.txt" --out="$WORKDIR/sq.txt" \
    --genes=3 --gamma=0.6 | grep -q "3-gene query"
"$IMGRN" query --db="$WORKDIR/skew.txt" --query="$WORKDIR/sq.txt" \
    --gamma=0.5 --alpha=0.1 --shards=1 > "$WORKDIR/skew1.out"
"$IMGRN" query --db="$WORKDIR/skew.txt" --query="$WORKDIR/sq.txt" \
    --gamma=0.5 --alpha=0.1 --shards=4 \
    2> "$WORKDIR/skew4.err" > "$WORKDIR/skew4.out"
grep '^match' "$WORKDIR/skew1.out" > "$WORKDIR/k1" || true
grep '^match' "$WORKDIR/skew4.out" > "$WORKDIR/k4" || true
test -s "$WORKDIR/k1"  # The skewed query must actually match something.
diff "$WORKDIR/k1" "$WORKDIR/k4"
# The sharded path reports the shard load imbalance on stderr, estimated
# from the cost proxy and measured as sub-query busy time.
grep -q "imbalance=" "$WORKDIR/skew4.err"
grep -q "measured_imbalance=" "$WORKDIR/skew4.err"

# Placement is by id, with no strategy to pick: --partition is an unknown
# flag.
status=0
"$IMGRN" query --db="$WORKDIR/skew.txt" --query="$WORKDIR/sq.txt" \
    --shards=4 --partition=modulo > /dev/null 2> "$WORKDIR/badpart.err" ||
    status=$?
if [ "$status" -ne 2 ]; then
  echo "expected exit 2 on --partition=modulo, got $status" >&2
  exit 1
fi
grep -q "unknown flag --partition" "$WORKDIR/badpart.err"

"$IMGRN" infer --matrix="$WORKDIR/q.txt" --gamma=0.5 \
    | grep -q "inferred GRN"
"$IMGRN" infer --matrix="$WORKDIR/q.txt" --measure=correlation \
    --gamma=0.5 | grep -q "edges above"

# Matrix text whose header counts the text cannot back is an input error
# (exit 1), not an abort: 10^12 genes announced, a sample x gene count
# that wraps size_t, and a negative sample count.
printf 'IMGRN-MATRIX 1\n0 30 1000000000000\n1 2 3\n' > "$WORKDIR/bad1.txt"
printf 'IMGRN-MATRIX 1\n0 9223372036854775808 2\n1 2\n0.5 0.25\n' \
    > "$WORKDIR/bad2.txt"
printf 'IMGRN-MATRIX 1\n0 -1 1\n7\n0.5\n' > "$WORKDIR/bad3.txt"
for bad in bad1 bad2 bad3; do
  status=0
  "$IMGRN" infer --matrix="$WORKDIR/$bad.txt" > /dev/null \
      2> "$WORKDIR/$bad.err" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "expected exit 1 on infer of $bad.txt, got $status" >&2
    exit 1
  fi
  grep -q "^error: " "$WORKDIR/$bad.err"
done

# Numbers parse strictly and must be in range, and a choice flag must name
# one of its values: a negative count, a non-number, trailing garbage, a
# threshold outside [0, 1), a count of 0 or past its bound, a maximum
# below its minimum and an unknown distribution each exit 2 naming the
# flag, before any work runs. Each line: the flag to name, then the
# command.
DB="--db=$WORKDIR/db.txt"
GEN="generate --out=$WORKDIR/gen.txt"
while read -r flag command; do
  status=0
  # shellcheck disable=SC2086  # command is a deliberate word list
  "$IMGRN" $command < /dev/null > /dev/null 2> "$WORKDIR/badnum.err" ||
      status=$?
  if [ "$status" -ne 2 ]; then
    echo "expected exit 2 on $command, got $status" >&2
    exit 1
  fi
  grep -q -- "--$flag" "$WORKDIR/badnum.err"
done <<EOF
shards query $DB --query=$WORKDIR/q.txt --shards=-1
gamma query $DB --query=$WORKDIR/q.txt --gamma=abc
shards query $DB --query=$WORKDIR/q.txt --shards=2x
gamma query $DB --query=$WORKDIR/q.txt --gamma=1.5
alpha snapshot load --store=disk:$WORKDIR/db.pages --query=$WORKDIR/q.txt --alpha=1
gamma extract-query $DB --out=$WORKDIR/bad_q.txt --gamma=1.5
gamma infer --matrix=$WORKDIR/q.txt --gamma=1.5
gamma infer --matrix=$WORKDIR/q.txt --gamma=-0.1
samples infer --matrix=$WORKDIR/q.txt --samples=0
samples infer --matrix=$WORKDIR/q.txt --samples=1099511627776
genes extract-query $DB --out=$WORKDIR/bad_q.txt --genes=0
pivots snapshot save $DB --store=disk:$WORKDIR/bad.pages --pivots=0
pivots snapshot save $DB --store=disk:$WORKDIR/bad.pages --pivots=1000000
pivots snapshot save --db=$WORKDIR/no_db.txt --store=disk:$WORKDIR/bad.pages --pivots=1000000
genes_min $GEN --genes_min=1 --genes_max=1
genes_max $GEN --genes_min=50 --genes_max=10
samples_max $GEN --samples_min=40 --samples_max=30
samples_min $GEN --samples_min=1 --samples_max=1
gene_universe $GEN --gene_universe=1
gene_universe $GEN --gene_universe=4294967297
dist $GEN --dist=bogus
EOF
if [ -e "$WORKDIR/gen.txt" ]; then
  echo "a rejected generate wrote its output" >&2
  exit 1
fi

# Error paths exit non-zero.
if "$IMGRN" query --db="/nonexistent" --query="$WORKDIR/q.txt" \
    2>/dev/null; then
  echo "expected failure on missing database" >&2
  exit 1
fi
for command in bogus-subcommand cache maintenance; do
  status=0
  "$IMGRN" "$command" stats 2> "$WORKDIR/usage.err" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "expected exit 2 on unknown subcommand $command, got $status" >&2
    exit 1
  fi
  grep -q "^usage: imgrn" "$WORKDIR/usage.err"
done

echo "cli smoke test passed"
