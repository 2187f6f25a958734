#!/usr/bin/env bash
# Bit-identity probe matrix. Builds overlaysim from CHECKOUT and writes,
# for every probe, NAME.out (stdout), NAME.rc (exit status) and, where the
# command exports one, NAME.json (the -json export sorted by jq with its
# host-dependent meta block deleted) to OUTDIR. It also keeps the -csv
# series, the recorded trace of the trace -out/-in round trip and the
# stdout of three examples. Two checkouts compare with one `diff -r`:
#
#   scripts/identity-matrix.sh ../parent /tmp/id-parent
#   scripts/identity-matrix.sh .         /tmp/id-change
#   diff -r /tmp/id-parent /tmp/id-change
#
# Probes run one at a time with the CLI's default -parallel 1; progress
# and ETA lines (stderr) are discarded. Needs go and jq.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 CHECKOUT OUTDIR" >&2
  exit 2
fi
checkout=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go -C "$checkout" build -o "$work/overlaysim" ./cmd/overlaysim

# run NAME ARGS... records one invocation's stdout and exit status. It
# runs inside the work directory, so relative output paths (-csv, trace
# -out) land there and print the same on every checkout.
run() {
  local name=$1 rc=0
  shift
  (cd "$work" && ./overlaysim "$@") > "$out/$name.out" 2> /dev/null || rc=$?
  echo "$rc" > "$out/$name.rc"
}

# probe NAME ARGS... is run plus the invocation's -json export.
probe() {
  local name=$1
  shift
  rm -f "$work/export.json"
  run "$name" "$@" -json export.json
  if [ -s "$work/export.json" ]; then
    jq -S 'del(.meta)' "$work/export.json" > "$out/$name.json"
  fi
}

# keep FILE NAME moves an output file a probe wrote into OUTDIR.
keep() {
  if [ -f "$work/$1" ]; then
    mv "$work/$1" "$out/$2"
  fi
}

run config config

for b in hmmer lbm mcf; do
  probe "fork-$b" fork -bench "$b" -warm 60000 -measure 150000
done
probe fork-all fork -warm 20000 -measure 50000
probe fork-all-cold fork -warm 20000 -measure 50000 -cold
for be in overlay baseline vbi utopia; do
  probe "fork-all-$be" fork -warm 20000 -measure 50000 -backend "$be"
done

probe stats stats
probe stats-cow stats -overlay=false
for be in baseline vbi utopia; do
  probe "stats-$be" stats -backend "$be"
done
for be in overlay baseline vbi utopia; do
  probe "stats-hmmer-$be" stats -bench hmmer -measure 30000 -backend "$be"
done

for n in 0 6 12; do
  probe "spmv-$n" spmv -matrices "$n"
done
probe spmv-12-dense spmv -matrices 12 -dense
for n in 0 10; do
  probe "linesize-$n" linesize -matrices "$n"
done
probe sweep sweep
probe sweep-6-128 sweep -points 6 -rows 128

probe compare-3 compare -matrices 3
probe compare-3-cold compare -matrices 3 -cold

probe omsstress omsstress
probe omsstress-cap4 omsstress -oms-capacity 4
probe omsstress-unlimited omsstress -oms-capacity -1 -oms-spill=false

probe dualcore dualcore

run fork-hmmer-csv fork -bench hmmer -warm 20000 -measure 50000 -epoch 50000 -csv series.csv
keep series.csv fork-hmmer-csv.csv
run stats-hmmer-csv stats -bench hmmer -measure 30000 -epoch 50000 -csv series.csv
keep series.csv stats-hmmer-csv.csv

run trace-out trace -bench hmmer -out t.bin -n 20000
run trace-in trace -bench hmmer -in t.bin
keep t.bin trace.bin

for ex in quickstart forkserver spmv; do
  rc=0
  go -C "$checkout" run "./examples/$ex" > "$out/example-$ex.out" 2> /dev/null || rc=$?
  echo "$rc" > "$out/example-$ex.rc"
done
