#!/bin/sh
# Contracts of the front ends (hetsim_cli and a bench harness) that no
# unit test links:
#   - run --store and gpu --store, run cold then warm: the warm run
#     prints "store: verified hit", the same table and the cold run's
#     --report-json bytes;
#   - run, sweep and dse on one store keep one entry per computation
#     and serve each other's; a sweep's record (no report) does not
#     serve run --report-json; --freq 2.0000000001 misses the --freq 2
#     entry; a run resumed from a preempt-only checkpoint is not
#     journaled;
#   - every option rejection exits 1, not 0 or an abort, with the
#     option named on the first line of stderr;
#   - a --freq no machine can be built at fails run and dse with exit
#     1 and a sweep cell with the synthesis error, never an abort;
#   - replaying a trace whose registers lie outside the scoreboard
#     exits 1 with corrupt-record instead of crashing, and the same
#     file as a sweep cell fails that cell only;
#   - the sweep and dse argument lists of benchmark/run.py parse, and
#     a resumed checkpointed sweep matches its cold run;
#   - a checkpointed run SIGKILLed mid-run and rerun, and a sweep
#     SIGTERMed mid-cell (exit 3) and resumed, each match their
#     uninterrupted twin byte for byte;
#   - store fsck flags an orphaned temp until store gc prunes it;
#   - a bench harness given a [scale] that is not, in whole, a finite
#     number > 0 exits 1 with one error line and writes no CSV.
#
# Usage: scripts/check_cli.sh <path to hetsim_cli> <path to a bench_fig*>
set -u
usage="usage: check_cli.sh <hetsim_cli> <bench_fig*>"
cli=${1:?$usage}
bench=${2:?$usage}
cli=$(cd "$(dirname "$cli")" && pwd)/$(basename "$cli")
bench=$(cd "$(dirname "$bench")" && pwd)/$(basename "$bench")
work=$(mktemp -d "${TMPDIR:-/tmp}/hetsim_cli_XXXXXX")
trap 'rm -rf "$work"' EXIT
# Anything a misparsed option writes lands in the scratch directory.
cd "$work" || exit 1
fails=0

fail()
{
    echo "FAIL: $*" >&2
    fails=$((fails + 1))
}

# reject <option the error must name> <hetsim_cli arguments...>
reject()
{
    opt=$1
    shift
    "$cli" "$@" > "$work/out" 2> "$work/err"
    rc=$?
    [ "$rc" -eq 1 ] || fail "'$*' exited $rc, not 1"
    head -n 1 "$work/err" | grep -q -e "$opt" ||
        fail "'$*' did not name $opt: $(head -n 1 "$work/err")"
}

# An option the subcommand does not take.
reject --scal run --scal 0.02
reject --cores gpu --cores 2
reject --freq gpu --freq 1
reject --csv gpu --csv "$work/gpu.csv"
reject --app list --app fft
reject --cores sweep --workloads fft --cores 2
reject --checkpoint dse --checkpoint "$work/x.hckp"
# A missing value.
reject --scale run --scale
reject --report-json run --report-json --csv "$work/x.csv"
reject --out record --app fft
reject --trace replay
reject --dir store fsck
# A repeated option.
reject --scale run --scale 0.1 --scale 0.2
# A value that does not parse completely.
reject --scale run --scale abc
reject --scale run --scale 0.1x
reject --seed run --seed 1.5
reject --no-skip run --no-skip yes
reject --jobs dse --jobs -1
reject --resume sweep --workloads fft --resume true
# A value out of range.
reject --scale run --scale 0
reject --scale run --scale -1
reject --freq run --freq inf
reject --cores run --cores 33
reject --jobs sweep --workloads fft --jobs 5000
reject --seed run --seed 18446744073709551616
reject --timeout-ms sweep --workloads fft --timeout-ms nan
# Needs another option.
reject --checkpoint run --checkpoint-every 1000
reject --store sweep --workloads fft --checkpoint-every 1000

# A --freq below the DRAM/L3 round-trip floor cannot be synthesized:
# run exits 1 naming the error, a sweep cell fails with it (not as a
# crash) and the sweep completes, and dse names it too.
floor='invalid-argument: lat: dramRt (25) is below l3Rt (32)'
"$cli" run --config BaseCMOS --app fft --scale 0.01 --freq 0.5 \
    > /dev/null 2> "$work/err"
rc=$?
[ "$rc" -eq 1 ] || fail "run --freq 0.5 exited $rc, not 1"
grep -q "$floor" "$work/err" ||
    fail "run --freq 0.5: $(head -n 1 "$work/err")"
"$cli" sweep --configs BaseCMOS --workloads fft --scale 0.01 --freq 0.5 \
    --csv "$work/floor.csv" > /dev/null 2>&1 ||
    fail "sweep --freq 0.5 exited $?"
grep -q "^BaseCMOS,fft,failed,.*,$floor" "$work/floor.csv" ||
    fail "sweep --freq 0.5 cell: $(tail -n 1 "$work/floor.csv")"
"$cli" dse --space cpu --app fft --scale 0.002 --freq 0.5 \
    > /dev/null 2> "$work/err"
rc=$?
[ "$rc" -eq 1 ] || fail "dse --freq 0.5 exited $rc, not 1"
grep -q "$floor" "$work/err" ||
    fail "dse --freq 0.5: $(head -n 1 "$work/err")"

# A bench harness rejects a bad scale before it simulates anything.
for scale in 0.001x -1 nan inf 1e999; do
    mkdir "$work/bench_$scale"
    (cd "$work/bench_$scale" && "$bench" "$scale") > /dev/null \
        2> "$work/err"
    rc=$?
    [ "$rc" -eq 1 ] || fail "bench scale '$scale' exited $rc, not 1"
    [ "$(grep -c . "$work/err")" -eq 1 ] &&
        grep -q '^error: ' "$work/err" ||
        fail "bench scale '$scale' did not print one error line"
    ls "$work/bench_$scale" | grep -q '\.csv$' &&
        fail "bench scale '$scale' wrote a CSV"
done

# Warm --store hits reproduce the cold run.
for cmd in "run --config AdvHet --app fft --scale 0.05" \
           "gpu --config AdvHet --kernel reduction --scale 0.1"; do
    for pass in cold warm; do
        # shellcheck disable=SC2086
        $cli $cmd --store "$work/store" \
            --report-json "$work/$pass.json" > "$work/$pass.txt" ||
            fail "$cmd --store ($pass) exited $?"
        grep -v '^store: \|^report: ' "$work/$pass.txt" \
            > "$work/$pass.table"
    done
    grep -q '^store: verified hit' "$work/warm.txt" ||
        fail "$cmd: warm rerun was not a verified store hit"
    cmp -s "$work/cold.json" "$work/warm.json" ||
        fail "$cmd: warm --report-json differs from the cold run"
    cmp -s "$work/cold.table" "$work/warm.table" ||
        fail "$cmd: warm table differs from the cold run"
done

# One store entry per computation: run, sweep and dse name a run by
# one key and store one record, so each serves the others.
one="--config AdvHet --app fft --scale 0.002"
# shellcheck disable=SC2086
$cli run $one --store "$work/one" --report-json "$work/one_cold.json" \
    > /dev/null || fail "run into a new store exited $?"
"$cli" sweep --configs AdvHet --workloads fft --scale 0.002 \
    --store "$work/one" --resume 1 > "$work/out" 2> /dev/null ||
    fail "sweep after run exited $?"
grep -q '^journal: 1 cells replayed' "$work/out" ||
    fail "sweep did not replay the run's entry"
"$cli" dse --space cpu --app fft --scale 0.002 --jobs 2 \
    --store "$work/one" > "$work/out" || fail "dse after sweep exited $?"
grep -q '^store: 1 hits' "$work/out" ||
    fail "dse was not served the run's entry: $(grep '^store' "$work/out")"
entries=$(ls "$work/one" | grep -c '\.hres$')
[ "$entries" -eq 1153 ] ||
    fail "run, sweep and dse left $entries entries for 1153 computations"
# Doubles are keyed exactly: 2.0000000001 GHz is not 2 GHz.
# shellcheck disable=SC2086
$cli run $one --freq 2.0000000001 --store "$work/one" > "$work/out" ||
    fail "run --freq 2.0000000001 exited $?"
grep -q 'verified hit' "$work/out" &&
    fail "run --freq 2.0000000001 was served the --freq 2 entry"
# A sweep's record has no report: it does not serve run --report-json,
# which simulates (matching the cold run) and journals one that does.
"$cli" sweep --configs AdvHet --workloads fft --scale 0.002 \
    --store "$work/two" > /dev/null 2>&1 || fail "sweep exited $?"
for pass in miss hit; do
    # shellcheck disable=SC2086
    $cli run $one --store "$work/two" \
        --report-json "$work/two_$pass.json" > "$work/out" ||
        fail "run after sweep ($pass) exited $?"
    cmp -s "$work/one_cold.json" "$work/two_$pass.json" ||
        fail "run after sweep ($pass): report differs from a cold run"
    if [ $pass = miss ]; then
        grep -q 'verified hit' "$work/out" &&
            fail "run --report-json was served a record without a report"
    else
        grep -q 'verified hit' "$work/out" ||
            fail "second run after sweep was not a verified hit"
    fi
done

# A run resumed from a preempt-only checkpoint (--checkpoint without
# --checkpoint-every) drained off-cadence, so its timing is perturbed:
# it may read the store but must not journal that result.
pre="run --config AdvHet --app cholesky --scale 3 --store $work/pre"
# shellcheck disable=SC2086
$cli $pre --checkpoint "$work/pre.hckp" > /dev/null 2>&1 &
pid=$!
sleep 0.5
kill -TERM $pid 2> /dev/null
wait $pid
rc=$?
[ "$rc" -eq 3 ] || fail "preempt-only run exited $rc, not 3"
# shellcheck disable=SC2086
$cli $pre --checkpoint "$work/pre.hckp" > /dev/null 2> "$work/err" ||
    fail "rerun of the preempted run exited $?"
grep -q 'resumed' "$work/err" ||
    fail "the preempt-only run did not resume from its checkpoint"
ls "$work/pre" | grep -q '\.hres$' &&
    fail "a run resumed from a preempt-only checkpoint was journaled"

# A trace whose first 10 records have src1 and dst set to 20000.
"$cli" record --app fft --scale 0.01 --max 20 --out "$work/bad.trace" \
    > /dev/null || fail "record exited $?"
i=0
while [ $i -lt 10 ]; do
    for field in 4 8; do
        # 16-byte header, 36-byte records; 20000 is 0x4e20.
        printf '\040\116' | dd of="$work/bad.trace" bs=1 conv=notrunc \
            seek=$((16 + 36 * i + field)) 2> /dev/null
    done
    i=$((i + 1))
done
"$cli" replay --trace "$work/bad.trace" > /dev/null 2> "$work/err"
rc=$?
[ "$rc" -eq 1 ] || fail "replay of the corrupt trace exited $rc, not 1"
grep -q 'corrupt-record' "$work/err" ||
    fail "replay of the corrupt trace: $(head -n 1 "$work/err")"
"$cli" sweep --cells "BaseCMOS/trace:$work/bad.trace" --scale 0.01 \
    > "$work/out" 2> /dev/null || fail "corrupt-cell sweep exited $?"
grep -q '0 ok, 1 failed' "$work/out" ||
    fail "sweep with a corrupt cell: $(tail -n 1 "$work/out")"

# The argument lists benchmark/run.py passes.
sweep="sweep --configs all --workloads fft,lock_heavy --scale 0.01 \
--jobs 2 --seed 1 --store $work/bench --checkpoint-every 2000"
# shellcheck disable=SC2086
$cli $sweep --report-json "$work/sweep_cold.json" > /dev/null 2>&1 ||
    fail "benchmark sweep (cold) exited $?"
# shellcheck disable=SC2086
$cli $sweep --resume 1 --report-json "$work/sweep_warm.json" \
    > /dev/null 2>&1 || fail "benchmark sweep (warm) exited $?"
cmp -s "$work/sweep_cold.json" "$work/sweep_warm.json" ||
    fail "resumed benchmark sweep differs from its cold run"
"$cli" sweep --gpu-configs BaseCMOS,AdvHet --kernels dct --scale 0.05 \
    --jobs 2 --report-json "$work/gpu_cells.json" > /dev/null 2>&1 ||
    fail "benchmark GPU sweep exited $?"
"$cli" dse --space cpu --app fft --scale 0.002 --jobs 2 --seed 1 \
    --report-json "$work/dse.json" > /dev/null ||
    fail "benchmark dse exited $?"

# wait_for <file glob>: poll until the glob matches a file (at most
# 10 s).
wait_for()
{
    tries=0
    while ! ls $1 > /dev/null 2>&1 && [ $tries -lt 1000 ]; do
        sleep 0.01
        tries=$((tries + 1))
    done
}

# A checkpointed run SIGKILLed once its checkpoint exists restores from
# it: the rerun says "resumed", matches the uninterrupted run's
# --report-json at the same cadence and removes the checkpoint when done.
ckrun="run --config AdvHet --app cholesky --scale 0.5 --checkpoint-every 2000"
# shellcheck disable=SC2086
$cli $ckrun --checkpoint "$work/ref.hckp" \
    --report-json "$work/ckrun_ref.json" > /dev/null ||
    fail "uninterrupted checkpointed run exited $?"
# shellcheck disable=SC2086
$cli $ckrun --checkpoint "$work/run.hckp" > /dev/null 2>&1 &
pid=$!
wait_for "$work/run.hckp"
kill -KILL $pid 2> /dev/null
wait $pid 2> /dev/null
# shellcheck disable=SC2086
$cli $ckrun --checkpoint "$work/run.hckp" \
    --report-json "$work/ckrun_resumed.json" > /dev/null 2> "$work/err" ||
    fail "rerun of the killed run exited $?"
grep -q 'resumed' "$work/err" ||
    fail "the killed run did not resume from its checkpoint"
cmp -s "$work/ckrun_ref.json" "$work/ckrun_resumed.json" ||
    fail "resumed run differs from the uninterrupted run"
[ ! -e "$work/run.hckp" ] || fail "finished run left its checkpoint"

# A journaling sweep SIGTERMed once a cell has checkpointed exits 3;
# --resume 1 continues that cell mid-run and matches the uninterrupted
# sweep at the same cadence.
cksweep="sweep --configs AdvHet --workloads fft,lu,radix,cholesky \
--scale 0.5 --jobs 1 --checkpoint-every 2000"
# shellcheck disable=SC2086
$cli $cksweep --store "$work/ckref" \
    --report-json "$work/cksweep_ref.json" > /dev/null 2>&1 ||
    fail "uninterrupted checkpointed sweep exited $?"
# shellcheck disable=SC2086
$cli $cksweep --store "$work/ck" > /dev/null 2>&1 &
pid=$!
wait_for "$work/ck/*.hckp"
kill -TERM $pid 2> /dev/null
wait $pid
rc=$?
[ "$rc" -eq 3 ] || fail "preempted sweep exited $rc, not 3"
# shellcheck disable=SC2086
$cli $cksweep --store "$work/ck" --resume 1 \
    --report-json "$work/cksweep_resumed.json" > /dev/null \
    2> "$work/err" || fail "resumed sweep exited $?"
grep -q 'resumed' "$work/err" ||
    fail "the preempted cell did not resume from its checkpoint"
cmp -s "$work/cksweep_ref.json" "$work/cksweep_resumed.json" ||
    fail "resumed sweep differs from the uninterrupted sweep"

# Store triage: fsck flags an orphaned O_EXCL temp (nonzero exit), gc
# prunes it, and a re-fsck comes back clean.
touch "$work/ck/cell-dead.hckp.tmp.99.1"
"$cli" store fsck --dir "$work/ck" > /dev/null 2>&1 &&
    fail "store fsck passed a store with an orphaned temp"
"$cli" store gc --dir "$work/ck" > /dev/null ||
    fail "store gc exited $?"
"$cli" store fsck --dir "$work/ck" > /dev/null ||
    fail "store fsck after gc exited $?"

if [ "$fails" -gt 0 ]; then
    echo "$fails CLI contract(s) failed" >&2
    exit 1
fi
echo "ok: hetsim_cli contracts hold"
