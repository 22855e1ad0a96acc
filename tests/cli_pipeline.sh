#!/bin/sh
# End-to-end smoke test of the mcs-cli tool: generate -> optimize ->
# analyze -> simulate, chained through the portable task-set format —
# plus shard/merge byte-identity checks over the experiment drivers.
#
# Usage: cli_pipeline.sh <mcs-cli> [<mcs-merge> <fig6> <fig4> <table2>]
# The shard checks run only when the extra binaries are passed.
set -e
CLI="$1"
MERGE="$2"
FIG6="$3"
FIG4="$4"
TABLE2="$5"
WORKDIR="$(mktemp -d)"
trap 'if [ -n "${SERVER_PID:-}" ]; then kill "$SERVER_PID" 2>/dev/null || true; fi; \
  rm -rf "$WORKDIR"' EXIT

"$CLI" generate --u-bound=0.8 --seed=11 > "$WORKDIR/tasks.mcs"
grep -q "taskset v1" "$WORKDIR/tasks.mcs"

"$CLI" optimize "$WORKDIR/tasks.mcs" --seed=7 --population=30 \
  --generations=25 > "$WORKDIR/assigned.mcs"
grep -q "taskset v1" "$WORKDIR/assigned.mcs"

"$CLI" analyze "$WORKDIR/assigned.mcs" > "$WORKDIR/report.txt"
grep -q "EDF-VD" "$WORKDIR/report.txt"
grep -q "P_sys^MS" "$WORKDIR/report.txt"

"$CLI" simulate "$WORKDIR/assigned.mcs" --horizon=20000 --seed=3 \
  > "$WORKDIR/sim.txt"
grep -q "mode switches" "$WORKDIR/sim.txt"
grep -q "misses" "$WORKDIR/sim.txt"

# The measurement path must be bit-identical at every --jobs count now
# that measure_kernel samples through counter-based per-sample streams.
"$CLI" wcet qsort-100 --samples=400 --seed=5 --jobs=1 > "$WORKDIR/wcet_j1.txt"
"$CLI" wcet qsort-100 --samples=400 --seed=5 --jobs=4 > "$WORKDIR/wcet_j4.txt"
grep -q "ACET" "$WORKDIR/wcet_j1.txt"
cmp "$WORKDIR/wcet_j1.txt" "$WORKDIR/wcet_j4.txt"

# The simulator exits non-zero on HC deadline misses; reaching this line
# means the optimized set ran clean.

# Island-model GA determinism matrix: the in-process island run must be
# byte-identical at every --jobs value, and the sharded epoch dataflow
# (4 shards per epoch, merged, chained, finalized) must reproduce it.
ISL_ARGS="--seed=7 --population=12 --generations=8 --islands=4"
ISL_ARGS="$ISL_ARGS --migration-interval=3 --migrants=2"
"$CLI" optimize "$WORKDIR/tasks.mcs" $ISL_ARGS --jobs=1 \
  > "$WORKDIR/isl_j1.mcs"
"$CLI" optimize "$WORKDIR/tasks.mcs" $ISL_ARGS --jobs=2 \
  > "$WORKDIR/isl_j2.mcs"
"$CLI" optimize "$WORKDIR/tasks.mcs" $ISL_ARGS --jobs=8 \
  > "$WORKDIR/isl_j8.mcs"
cmp "$WORKDIR/isl_j1.mcs" "$WORKDIR/isl_j2.mcs"
cmp "$WORKDIR/isl_j1.mcs" "$WORKDIR/isl_j8.mcs"
grep -q "taskset v1" "$WORKDIR/isl_j1.mcs"
if [ -n "$MERGE" ]; then
  # 8 generations at interval 3 -> epochs 0,1,2. Each epoch runs both
  # unsharded and as 4 merged shards; every epoch state and the final
  # task set must be byte-identical between the two dataflows.
  PREV=""
  for e in 0 1 2; do
    EPOCH_ARGS="$ISL_ARGS --state-csv --epoch=$e"
    if [ -n "$PREV" ]; then EPOCH_ARGS="$EPOCH_ARGS --state-in=$PREV"; fi
    "$CLI" optimize "$WORKDIR/tasks.mcs" $EPOCH_ARGS \
      --out="$WORKDIR/isl_e${e}_full.csv"
    for i in 0 1 2 3; do
      "$CLI" optimize "$WORKDIR/tasks.mcs" $EPOCH_ARGS --shard=$i/4 \
        --out="$WORKDIR/isl_e${e}_s$i.csv"
    done
    "$MERGE" "$WORKDIR/isl_e${e}_s0.csv" "$WORKDIR/isl_e${e}_s1.csv" \
      "$WORKDIR/isl_e${e}_s2.csv" "$WORKDIR/isl_e${e}_s3.csv" \
      --output="$WORKDIR/isl_e${e}_merged.csv"
    cmp "$WORKDIR/isl_e${e}_full.csv" "$WORKDIR/isl_e${e}_merged.csv"
    PREV="$WORKDIR/isl_e${e}_merged.csv"
  done
  "$CLI" optimize "$WORKDIR/tasks.mcs" $ISL_ARGS --finalize \
    --state-in="$PREV" > "$WORKDIR/isl_finalized.mcs"
  cmp "$WORKDIR/isl_j1.mcs" "$WORKDIR/isl_finalized.mcs"

  # A state CSV row must carry whole decimal island and member cells, a
  # fitness that is finite or -inf, and finite genes: a fractional
  # member, a junk island cell and a nan fitness are each rejected rather
  # than read as a prefix or picked as the winner.
  E0="$WORKDIR/isl_e0_full.csv"
  sed 's/^0,1,/0,1.9,/' "$E0" > "$WORKDIR/bad_member.csv"
  sed 's/^0,0,/0junk,0,/' "$E0" > "$WORKDIR/bad_island.csv"
  sed 's/^0,0,[^,]*,/0,0,nan,/' "$E0" > "$WORKDIR/bad_fitness.csv"
  for bad in bad_member bad_island bad_fitness; do
    if "$CLI" optimize "$WORKDIR/tasks.mcs" $ISL_ARGS --finalize \
      --state-in="$WORKDIR/$bad.csv" > /dev/null 2>&1; then
      echo "optimize --finalize accepted $bad.csv" >&2
      exit 1
    fi
  done
fi

# Open-system admission service: replaying the same churn script must
# yield byte-identical output at every --jobs value.
cat > "$WORKDIR/churn.txt" <<'EOF'
# open-system churn script (see EXPERIMENTS.md)
admit name=video crit=HC wcet_lo=2.0 wcet_hi=6.0 period=20 acet=1.6 sigma=0.2
admit name=radar crit=HC wcet_lo=3.0 wcet_hi=9.0 period=30 acet=2.4 sigma=0.3
admit name=telemetry crit=LC wcet_lo=1.0 period=10
admit name=logger crit=LC wcet_lo=2.0 period=25
stats
admit name=hog crit=LC wcet_lo=9.0 period=10
remove name=logger
record name=video time=2.5
record name=video time=2.7
record name=video time=2.4
record name=video time=2.6
record name=video time=2.8
record name=video time=2.3
record name=video time=2.55
record name=video time=2.65
tick
stats
quit
EOF
"$CLI" serve --script="$WORKDIR/churn.txt" --min-jobs=8 --jobs=1 \
  > "$WORKDIR/serve_j1.txt"
"$CLI" serve --script="$WORKDIR/churn.txt" --min-jobs=8 --jobs=2 \
  > "$WORKDIR/serve_j2.txt"
"$CLI" serve --script="$WORKDIR/churn.txt" --min-jobs=8 --jobs=8 \
  > "$WORKDIR/serve_j8.txt"
cmp "$WORKDIR/serve_j1.txt" "$WORKDIR/serve_j2.txt"
cmp "$WORKDIR/serve_j1.txt" "$WORKDIR/serve_j8.txt"
grep -q "ok admit video" "$WORKDIR/serve_j1.txt"
grep -q "reject admit hog" "$WORKDIR/serve_j1.txt"
grep -q "reopt video" "$WORKDIR/serve_j1.txt"
grep -q "ok tick monitored=2 drifted=1 reoptimized=1" "$WORKDIR/serve_j1.txt"
grep -q "stats resident=3 state=ok" "$WORKDIR/serve_j1.txt"

# Malformed requests earn one `err` reply each and leave the admission
# state untouched — no aborts, no silent 0.0 coercions.
cat > "$WORKDIR/malformed.txt" <<'EOF'
admit name=ok crit=LC wcet_lo=1 period=10
admit name=junk crit=LC wcet_lo=3.5x period=10
admit name=junk crit=LC wcet_lo=nan period=10
admit name=junk crit=LC wcet_lo=1e999 period=10
admit name=junk crit=XX wcet_lo=1 period=10
admit name=ok crit=LC wcet_lo=1 period=10
remove id=0
remove id=7seven
frobnicate x=1
tick now
stats
quit
EOF
"$CLI" serve --script="$WORKDIR/malformed.txt" > "$WORKDIR/malformed_out.txt"
grep -q "^ok admit ok id=1" "$WORKDIR/malformed_out.txt"
grep -q "^err invalid number for 'wcet_lo'" "$WORKDIR/malformed_out.txt"
grep -q "^err crit must be HC or LC" "$WORKDIR/malformed_out.txt"
grep -q "^err name 'ok' already resident" "$WORKDIR/malformed_out.txt"
grep -q "^err invalid id '0'" "$WORKDIR/malformed_out.txt"
grep -q "^err invalid id '7seven'" "$WORKDIR/malformed_out.txt"
grep -q "^err unknown request 'frobnicate'" "$WORKDIR/malformed_out.txt"
grep -q "^err tick takes no arguments" "$WORKDIR/malformed_out.txt"
grep -q "^stats resident=1 " "$WORKDIR/malformed_out.txt"
test "$(grep -c '^err ' "$WORKDIR/malformed_out.txt")" = 9

# Partitioned service: the same script on 2 cores routes arrivals across
# per-core controllers; cores=1 output stays byte-identical to the
# monolithic service (already pinned above).
"$CLI" serve --script="$WORKDIR/churn.txt" --min-jobs=8 --cores=2 \
  --placement=worst-fit > "$WORKDIR/serve_mc.txt"
grep -q "ok admit video id=1 core=0" "$WORKDIR/serve_mc.txt"
grep -q "ok admit radar id=2 core=1" "$WORKDIR/serve_mc.txt"
grep -q "cores=2 placement=worst-fit" "$WORKDIR/serve_mc.txt"
grep -q "core1=\[resident=" "$WORKDIR/serve_mc.txt"

# Network front-end soak: a --listen server fed the serve script over TCP
# by the loopback client answers byte-identically to the --script replay
# (net `quit` maps to the same "ok quit" reply), and a second concurrent
# session sees the state the first one left behind.
"$CLI" serve --listen --port=0 --port-file="$WORKDIR/port.txt" \
  --min-jobs=8 2> "$WORKDIR/serve_net.log" &
SERVER_PID=$!
i=0
while [ ! -s "$WORKDIR/port.txt" ] && [ $i -lt 100 ]; do
  sleep 0.1; i=$((i + 1))
done
test -s "$WORKDIR/port.txt"
PORT="$(cat "$WORKDIR/port.txt")"
grep -v "^quit$" "$WORKDIR/churn.txt" > "$WORKDIR/churn_net.txt"
"$CLI" client --connect=127.0.0.1:"$PORT" --script="$WORKDIR/churn_net.txt" \
  > "$WORKDIR/client1.txt"
# The client appends the terminating quit itself; the transcript must
# equal the script replay byte for byte.
cmp "$WORKDIR/serve_j1.txt" "$WORKDIR/client1.txt"
# A long script: 2M pings earn 16 MB of replies, far past the server's
# 1 MiB cap on unread replies plus the socket buffers. The server stops
# reading a connection at that cap, so the client must read replies
# while it still writes; one that writes everything first waits forever
# (the timeout turns that into a failure).
awk 'BEGIN { for (i = 0; i < 2000000; i++) print "ping" }' \
  > "$WORKDIR/pings.txt"
awk 'BEGIN { for (i = 0; i < 2000000; i++) print "ok ping"; print "ok quit" }' \
  > "$WORKDIR/pings_expected.txt"
timeout 120 "$CLI" client --connect=127.0.0.1:"$PORT" \
  --script="$WORKDIR/pings.txt" > "$WORKDIR/pings_out.txt"
cmp "$WORKDIR/pings_expected.txt" "$WORKDIR/pings_out.txt"
rm -f "$WORKDIR/pings.txt" "$WORKDIR/pings_expected.txt" \
  "$WORKDIR/pings_out.txt"
# Second session over the SAME server: the resident set persisted.
printf 'stats\nshutdown\n' | "$CLI" client --connect=127.0.0.1:"$PORT" \
  > "$WORKDIR/client2.txt"
grep -q "^stats resident=3 " "$WORKDIR/client2.txt"
grep -q "^ok shutdown" "$WORKDIR/client2.txt"
wait "$SERVER_PID"
grep -q "serve: stopped after" "$WORKDIR/serve_net.log"

# Shard fan-out: running a driver as 4 independent shards and merging the
# partial CSVs must reproduce the unsharded CSV byte for byte.
if [ -n "$MERGE" ]; then
  # mcs-cli sweep (acceptance ratio, row-wise shards).
  SWEEP_ARGS="--points=4 --tasksets=20 --seed=2027"
  "$CLI" sweep $SWEEP_ARGS --csv > "$WORKDIR/sweep_full.csv"
  for i in 0 1 2 3; do
    "$CLI" sweep $SWEEP_ARGS --shard=$i/4 > "$WORKDIR/sweep_$i.csv"
  done
  "$MERGE" "$WORKDIR/sweep_0.csv" "$WORKDIR/sweep_1.csv" \
    "$WORKDIR/sweep_2.csv" "$WORKDIR/sweep_3.csv" \
    --output="$WORKDIR/sweep_merged.csv"
  cmp "$WORKDIR/sweep_full.csv" "$WORKDIR/sweep_merged.csv"

  # mcs-cli campaign (streamed simulation aggregates, row-wise shards).
  CAMP_ARGS="--points=4 --u-min=0.6 --u-max=1.2 --sets=25 --horizon=3000"
  "$CLI" campaign $CAMP_ARGS --csv > "$WORKDIR/camp_full.csv"
  for i in 0 1 2 3; do
    "$CLI" campaign $CAMP_ARGS --shard=$i/4 > "$WORKDIR/camp_$i.csv"
  done
  "$MERGE" "$WORKDIR/camp_0.csv" "$WORKDIR/camp_1.csv" \
    "$WORKDIR/camp_2.csv" "$WORKDIR/camp_3.csv" \
    > "$WORKDIR/camp_merged.csv"
  cmp "$WORKDIR/camp_full.csv" "$WORKDIR/camp_merged.csv"
  # ... and the per-point reduction is --jobs-invariant.
  "$CLI" campaign $CAMP_ARGS --csv --jobs=1 > "$WORKDIR/camp_j1.csv"
  cmp "$WORKDIR/camp_full.csv" "$WORKDIR/camp_j1.csv"

  # fig6 acceptance-ratio driver (row-wise shards).
  FIG6_ARGS="--tasksets=15 --seed=11"
  "$FIG6" $FIG6_ARGS --csv > "$WORKDIR/fig6_full.csv"
  for i in 0 1 2 3; do
    "$FIG6" $FIG6_ARGS --shard=$i/4 > "$WORKDIR/fig6_$i.csv"
  done
  "$MERGE" "$WORKDIR/fig6_0.csv" "$WORKDIR/fig6_1.csv" \
    "$WORKDIR/fig6_2.csv" "$WORKDIR/fig6_3.csv" \
    > "$WORKDIR/fig6_merged.csv"
  cmp "$WORKDIR/fig6_full.csv" "$WORKDIR/fig6_merged.csv"

  # fig4 policy-comparison driver (row-wise shards; exercises the GA).
  FIG4_ARGS="--tasksets=2 --seed=13 --ga-population=10 --ga-generations=5"
  "$FIG4" $FIG4_ARGS --csv > "$WORKDIR/fig4_full.csv"
  for i in 0 1 2 3; do
    "$FIG4" $FIG4_ARGS --shard=$i/4 > "$WORKDIR/fig4_$i.csv"
  done
  "$MERGE" "$WORKDIR/fig4_0.csv" "$WORKDIR/fig4_1.csv" \
    "$WORKDIR/fig4_2.csv" "$WORKDIR/fig4_3.csv" \
    > "$WORKDIR/fig4_merged.csv"
  cmp "$WORKDIR/fig4_full.csv" "$WORKDIR/fig4_merged.csv"

  # table2 shards column-wise over the kernels: the merge pastes the
  # measured columns back behind the two key columns.
  T2_ARGS="--samples=300 --seed=1"
  "$TABLE2" $T2_ARGS --csv > "$WORKDIR/t2_full.csv"
  "$TABLE2" $T2_ARGS --shard=0/2 > "$WORKDIR/t2_0.csv"
  "$TABLE2" $T2_ARGS --shard=1/2 > "$WORKDIR/t2_1.csv"
  "$MERGE" --paste=2 "$WORKDIR/t2_0.csv" "$WORKDIR/t2_1.csv" \
    > "$WORKDIR/t2_merged.csv"
  cmp "$WORKDIR/t2_full.csv" "$WORKDIR/t2_merged.csv"

  # A malformed spec must be rejected, not silently mis-shard.
  if "$CLI" sweep --shard=4/4 > /dev/null 2>&1; then
    echo "shard=4/4 should have been rejected" >&2
    exit 1
  fi
fi

# The sweeps run on synthetic task sets, which carry no measured samples,
# so they refuse the sample-only policies when they parse --policy: exit 1
# and one message naming the policy. fig4 used to die in std::terminate,
# and fig6 and sweep to fail inside the policy.
expect_sample_only_refused() {  # <policy> <command> [args...]
  policy="$1"
  shift
  code=0
  "$@" --policy="$policy" > /dev/null 2> "$WORKDIR/refused.txt" || code=$?
  if [ "$code" != 1 ] || [ "$(wc -l < "$WORKDIR/refused.txt")" != 1 ] ||
    ! grep -q "policy $policy(.*) needs measured samples; the synthetic task sets carry no samples" \
      "$WORKDIR/refused.txt"; then
    echo "$* --policy=$policy: exit $code, expected 1 and one message:" >&2
    cat "$WORKDIR/refused.txt" >&2
    exit 1
  fi
}
expect_sample_only_refused quantile "$CLI" sweep --points=2 --tasksets=2
if [ -n "$FIG4" ]; then
  expect_sample_only_refused quantile "$FIG4" --tasksets=5 --jobs=1
fi
if [ -n "$FIG6" ]; then
  expect_sample_only_refused evt "$FIG6" --tasksets=2
fi

echo "cli pipeline OK"
