#!/usr/bin/env bash
# Regenerates every table and figure of the paper, and the ablations and
# extensions around them, as text reports, CSVs and sweep JSON, and (when
# gnuplot is installed) the Figure 2-3 panels as PNG plots.
#
# One trace per profile (dfn.wct, rtp.wct, seed 42) feeds every result:
#   tables.txt             Tables 1-5 (`webcache characterize`)
#   {dfn,rtp}_profile.ini  the generator's per-class alpha/beta targets
#   fig1_gdstar_*.csv      Figure 1: per-class occupancy per metrics window
#   {fig2,fig3,rtp_cc,rtp_pc}_*.csv  Figures 2-3 and Section 4.4 (`sweep`)
#   ablation_*, opt_headroom, overview_*, ext_*  `sweep` (NAME.txt plus its
#                          --curve-out NAME.json), `stackdist`, `hierarchy`
# `replicate` (replication_*.txt) and the three bench binaries that remain
# (see each one's header) generate their own traces. Each section header
# shows the elapsed time.
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

section() { echo "== $1 (at ${SECONDS}s) =="; }

section "generating traces and Tables 1-5 (scale=$SCALE)"
for profile in DFN RTP; do
  name="${profile,,}"
  "$WEBCACHE" generate --profile="$profile" --scale="$SCALE" --seed=42 \
      --out="$OUT_DIR/$name.wct"
  "$WEBCACHE" profile --profile="$profile" --out="$OUT_DIR/${name}_profile.ini"
done
"$WEBCACHE" characterize "$OUT_DIR/dfn.wct" "$OUT_DIR/rtp.wct" \
    > "$OUT_DIR/tables.txt"

section "Figure 1"
# 1.75 % of the DFN trace's overall size is roughly the paper's 1 GB cache.
# The default metrics window is 1 % of the trace: 100 occupancy snapshots.
for policy in 1 packet; do
  "$WEBCACHE" simulate "$OUT_DIR/dfn.wct" --policy="GD*($policy)" \
      --cache-fraction=0.0175 --metrics-out="$OUT_DIR/fig1_gdstar_$policy.csv" \
      > "$OUT_DIR/fig1_gdstar_$policy.txt"
done

section "sweeping Figures 2-3 and Section 4.4"
sweep() {  # PREFIX TRACE POLICIES
  echo "-- $1"
  "$WEBCACHE" sweep "$OUT_DIR/$2.wct" --policies="$3" \
      --panels-out="$OUT_DIR/$1" > "$OUT_DIR/$1.txt"
}
sweep fig2 dfn "$CONSTANT"
sweep fig3 dfn "$PACKET"
sweep rtp_cc rtp "$CONSTANT"
sweep rtp_pc rtp "$PACKET"

study() {  # NAME TRACE POLICIES [SWEEP_FLAGS...]: a 4 % sweep by default
  echo "-- $1"
  "$WEBCACHE" sweep "$OUT_DIR/$2.wct" --policies="$3" --fractions=0.04 \
      "${@:4}" --curve-out="$OUT_DIR/$1.json" > "$OUT_DIR/$1.txt"
}

section "ablations: modification rule, warm-up, GD* beta"
# Section 4.1's < 5 % rule against [7, 8]'s any-change rule and no rule.
for rule in threshold any never; do
  study "ablation_mod_$rule" dfn 'GDS(1),GD*(1),LRU' --mod-rule="$rule"
done
# The 10 % warm-up, and the warm-up-free Mattson cold-miss floor.
for warmup in 0 0.05 0.1 0.2; do
  study "ablation_warmup_$warmup" dfn 'LRU,GD*(1)' --warmup="$warmup"
done
"$WEBCACHE" stackdist "$OUT_DIR/dfn.wct" > "$OUT_DIR/ablation_warmup_stackdist.txt"
# GD*'s online beta against fixed exponents; beta = 1 is GDSF exactly.
BETAS='GD*(1),GD*(1):beta=0.25,GD*(1):beta=0.5,GD*(1):beta=1,GD*(1):beta=2,GDSF(1)'
for trace in dfn rtp; do
  study "ablation_beta_$trace" "$trace" "$BETAS"
done

section "extensions: OPT headroom, overview, latency, lazy promotion"
study opt_headroom dfn 'OPT,GD*(1),GDS(1),GDSF(1),LFU-DA,LRU-MIN,LRU,SIZE,FIFO' \
    --fractions=0.01,0.04,0.16
ALL='OPT,GD*(1),GD*(packet),GD*(latency),GD*C(1),GD*C(packet),GDSF(1),GDS(1),GDS(packet)'
ALL+=',GDS(latency),LFU-DA,LRU-2,LRU-MIN,SIZE,LFU,LRU,LRU-THOLD(524288),FIFO'
ALL+=',DELAY-CLOCK:k=8,CLOCK,DELAY-LRU:k=16,BATCH-LRU:batch=64,PROB-LRU:p=0.1,RANDOM'
LAZY='LRU,CLOCK,DELAY-CLOCK:k=8,DELAY-LRU:k=16,BATCH-LRU:batch=64,PROB-LRU:p=0.1'
LAZY+=',RANDOM,FIFO,PROB-LRU:p=1,PROB-LRU:p=0.5,PROB-LRU:p=0.01'
for trace in dfn rtp; do
  study "overview_$trace" "$trace" "$ALL"
  study "ext_lazy_promotion_$trace" "$trace" "$LAZY"
done
study ext_latency dfn "$CONSTANT,GDS(packet),GD*(packet),GDS(latency),GD*(latency)"

section "extensions: two-level hierarchy"
# 4 GD*(1) edges at 0.5 % each in front of one 8 % root.
for root in 'GD*(packet)' 'GDS(packet)' LFU-DA LRU 'GD*(1)'; do
  slug="${root,,}"; slug="${slug/\*/star}"; slug="${slug/(/_}"
  "$WEBCACHE" hierarchy "$OUT_DIR/dfn.wct" --root-policy="$root" \
      > "$OUT_DIR/ext_hierarchy_${slug%)}.txt"
done
"$WEBCACHE" hierarchy "$OUT_DIR/dfn.wct" --mesh > "$OUT_DIR/ext_hierarchy_mesh.txt"

section "seed noise: 5 replicas per profile and cost model"
for profile in DFN RTP; do
  for cost in 1 packet; do
    "$WEBCACHE" replicate --profile="$profile" --scale="$SCALE" \
        --policies="LRU,LFU-DA,GDS($cost),GD*($cost)" \
        > "$OUT_DIR/replication_${profile}_$cost.txt"
  done
done

section "bench binaries (scale=$SCALE)"
for bench in ext_partitioned_cache ext_future_workload ext_per_class_beta; do
  echo "-- $bench"
  "$BUILD_DIR/bench/$bench" --scale="$SCALE" --csv="$OUT_DIR" \
      > "$OUT_DIR/$bench.txt"
done

if ! command -v gnuplot > /dev/null; then
  echo "gnuplot not found: CSVs and text reports are in $OUT_DIR/"
  exit 0
fi

section "plotting"
for csv in "$OUT_DIR"/fig2_*.csv "$OUT_DIR"/fig3_*.csv \
           "$OUT_DIR"/rtp_cc_*.csv "$OUT_DIR"/rtp_pc_*.csv; do
  [ -e "$csv" ] || continue
  base="$(basename "$csv" .csv)"
  gnuplot -e "csv='$csv'; out='$OUT_DIR/$base.png'; title='$base'" \
      "$(dirname "$0")/panel.gnuplot"
done
echo "figures in $OUT_DIR/ (${SECONDS}s)"
