#!/usr/bin/env bash
# Regenerates every figure of the paper as CSV series and (when gnuplot is
# installed) as PNG plots.
#
# Figures 2-3 and the Section 4.4 RTP runs come from `webcache sweep` over
# one generated trace per profile; the tables, Figure 1 and the ablation /
# extension studies come from the bench binaries.
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

echo "== generating traces (scale=$SCALE) =="
for profile in DFN RTP; do
  trace="$OUT_DIR/$(echo "$profile" | tr '[:upper:]' '[:lower:]').wct"
  "$WEBCACHE" generate --profile="$profile" --scale="$SCALE" --seed=42 \
      --out="$trace"
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
for bench in table1_trace_properties table2_dfn_breakdown table3_rtp_breakdown \
             table4_dfn_locality table5_rtp_locality fig1_adaptability \
             ablation_gdstar_beta ablation_modification_rule \
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
