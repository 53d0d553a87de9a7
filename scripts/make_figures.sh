#!/usr/bin/env bash
# Regenerates every table and figure of the paper as text reports and CSV
# series and (when gnuplot is installed) the Figure 2-3 panels as PNG plots.
#
# One trace per profile (dfn.wct, rtp.wct) feeds every paper result:
#   tables.txt             Tables 1-5 (`webcache characterize`)
#   {dfn,rtp}_profile.ini  the generator's per-class alpha/beta targets
#   fig1_gdstar_*.csv      Figure 1: per-class occupancy per metrics window
#   {fig2,fig3,rtp_cc,rtp_pc}_*.csv  Figures 2-3 and Section 4.4 (`sweep`)
# The ablation / extension bench binaries generate their own traces.
#
# Usage: scripts/make_figures.sh [BUILD_DIR] [OUT_DIR] [SCALE]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-figures}"
SCALE="${3:-0.05}"
WEBCACHE="$BUILD_DIR/tools/webcache"
CONSTANT='LRU,LFU-DA,GDS(1),GD*(1)'
PACKET='LRU,LFU-DA,GDS(packet),GD*(packet)'

mkdir -p "$OUT_DIR"

echo "== generating traces and Tables 1-5 (scale=$SCALE) =="
for profile in DFN RTP; do
  name="${profile,,}"
  "$WEBCACHE" generate --profile="$profile" --scale="$SCALE" --seed=42 \
      --out="$OUT_DIR/$name.wct"
  "$WEBCACHE" profile --profile="$profile" --out="$OUT_DIR/${name}_profile.ini"
done
"$WEBCACHE" characterize "$OUT_DIR/dfn.wct" "$OUT_DIR/rtp.wct" \
    > "$OUT_DIR/tables.txt"

echo "== Figure 1 =="
# 1.75 % of the DFN trace's overall size is roughly the paper's 1 GB cache.
# The default metrics window is 1 % of the trace: 100 occupancy snapshots.
for policy in 1 packet; do
  "$WEBCACHE" simulate "$OUT_DIR/dfn.wct" --policy="GD*($policy)" \
      --cache-fraction=0.0175 --metrics-out="$OUT_DIR/fig1_gdstar_$policy.csv" \
      > "$OUT_DIR/fig1_gdstar_$policy.txt"
done

echo "== sweeping Figures 2-3 and Section 4.4 =="
sweep() {  # PREFIX TRACE POLICIES
  echo "-- $1"
  "$WEBCACHE" sweep "$OUT_DIR/$2.wct" --policies="$3" \
      --panels-out="$OUT_DIR/$1" > "$OUT_DIR/$1.txt"
}
sweep fig2 dfn "$CONSTANT"
sweep fig3 dfn "$PACKET"
sweep rtp_cc rtp "$CONSTANT"
sweep rtp_pc rtp "$PACKET"

echo "== running benchmarks (scale=$SCALE) =="
for bench in ablation_gdstar_beta ablation_modification_rule \
             ablation_warmup opt_headroom ext_partitioned_cache \
             ext_hierarchy ext_future_workload ext_latency_savings \
             ext_per_class_beta replication_confidence \
             all_policies_overview; do
  echo "-- $bench"
  "$BUILD_DIR/bench/$bench" --scale="$SCALE" --csv="$OUT_DIR" \
      > "$OUT_DIR/$bench.txt"
done

if ! command -v gnuplot > /dev/null; then
  echo "gnuplot not found: CSVs and text reports are in $OUT_DIR/"
  exit 0
fi

echo "== plotting =="
for csv in "$OUT_DIR"/fig2_*.csv "$OUT_DIR"/fig3_*.csv \
           "$OUT_DIR"/rtp_cc_*.csv "$OUT_DIR"/rtp_pc_*.csv; do
  [ -e "$csv" ] || continue
  base="$(basename "$csv" .csv)"
  gnuplot -e "csv='$csv'; out='$OUT_DIR/$base.png'; title='$base'" \
      "$(dirname "$0")/panel.gnuplot"
done
echo "figures in $OUT_DIR/"
