#!/usr/bin/env bash
# Local/CI gate: formatting, lints, and the test suite.
#
# Usage: scripts/check.sh [--offline]
#
# Passes --offline through to cargo (and falls back to it automatically
# when the first cargo invocation cannot reach the registry), so the
# script works in air-gapped environments where the dependency cache is
# already populated.
set -u

cd "$(dirname "$0")/.."

OFFLINE=""
for arg in "$@"; do
    case "$arg" in
        --offline) OFFLINE="--offline" ;;
        *) echo "usage: scripts/check.sh [--offline]" >&2; exit 2 ;;
    esac
done

fail=0
run() {
    echo "==> $*"
    if ! "$@"; then
        echo "FAILED: $*" >&2
        fail=1
    fi
}

# Probe the registry once; fall back to --offline if unreachable.
if [ -z "$OFFLINE" ] && ! cargo fetch >/dev/null 2>&1; then
    echo "==> registry unreachable, retrying with --offline" >&2
    OFFLINE="--offline"
fi

# Every test step runs under a time limit, so a hung test fails the
# gate instead of stalling it; --no-fail-fast runs every test binary
# even after one fails, so one red binary cannot hide another.
TEST_LIMIT="timeout --kill-after=30 1800"

# The test scratch dirs a test process writes into the temp dir, one a
# line, for the hygiene check after the test passes.
scratch_dirs() {
    find "${TMPDIR:-/tmp}" -maxdepth 1 \( -name 'spindle-teldet-*' \
        -o -name 'spindle-resume-*' -o -name 'spindle-jsonl-*' \) | sort
}
SCRATCH_BEFORE=$(scratch_dirs)

run cargo fmt --all -- --check
run cargo clippy $OFFLINE --workspace --all-targets -- -D warnings
run $TEST_LIMIT cargo test $OFFLINE --workspace --no-fail-fast -q

# The engine's determinism contract, called out explicitly so a
# regression is named in the log rather than buried in the suite.
run $TEST_LIMIT cargo test $OFFLINE -q -p spindle-bench --test engine_determinism
run $TEST_LIMIT cargo test $OFFLINE -q -p spindle-engine --test channel_stress

# The robustness contracts: panic isolation and checkpoint/resume,
# likewise named explicitly.
run $TEST_LIMIT cargo test $OFFLINE -q -p spindle-bench --test fault_injection
run $TEST_LIMIT cargo test $OFFLINE -q -p spindle-bench --test checkpoint_resume

# Re-run the suite with parallel execution forced on: every pool that
# defaults its worker count must still produce sequential-identical
# results with two workers.
run env SPINDLE_JOBS=2 $TEST_LIMIT cargo test $OFFLINE --workspace --no-fail-fast -q

# Test scratch hygiene: every scratch dir a test pass made is gone when
# its test process ends (a leaked one holds up to a third of a
# gigabyte, and a full disk fails whichever test writes next).
SCRATCH_LEFT=$(comm -13 <(printf '%s\n' "$SCRATCH_BEFORE") <(scratch_dirs))
if [ -n "$SCRATCH_LEFT" ]; then
    echo "FAILED: the test passes left scratch dirs behind:" >&2
    printf '%s\n' "$SCRATCH_LEFT" >&2
    fail=1
fi

# Observability smoke: the flight recorder, run report and timescale
# rollups must actually come out of the shipped binaries, end to end.
# Artifacts land in artifacts/ so CI can upload them.
run cargo build $OFFLINE --release -p spindle-cli -p spindle-bench
SPINDLE=target/release/spindle
SMOKE=artifacts/smoke-trace.bin
mkdir -p artifacts
run "$SPINDLE" generate --env mail --span 60 --seed 7 --out "$SMOKE" --quiet
# Injected faults put media-retry and timeout slices on the trace too;
# the checker then validates the document a viewer would load.
run "$SPINDLE" simulate --in "$SMOKE" --faults media@3,timeout@5 \
    --trace-out artifacts/trace.json --quiet
run "$SPINDLE" trace check artifacts/trace.json
run "$SPINDLE" report --in "$SMOKE" --out artifacts/report.html --quiet
# The one multi-time-scale view: the attribution table and a row for
# each of the four time-scales.
for needle in '<caption>tail latency attribution' '<td>100 ms</td>' '<td>1 s</td>' \
        '<td>10 s</td>' '<td>60 s</td>'; do
    if ! grep -qF "$needle" artifacts/report.html; then
        echo "FAILED: artifacts/report.html lacks $needle" >&2
        fail=1
    fi
done
run target/release/experiments --quick --timescales-out artifacts/timescales.json --quiet t1
if ! grep -q '"resolutions"' artifacts/timescales.json; then
    echo "FAILED: timescales export carries no resolutions" >&2
    fail=1
fi
for artifact in artifacts/trace.json artifacts/report.html artifacts/timescales.json; do
    if [ ! -s "$artifact" ]; then
        echo "FAILED: smoke artifact $artifact missing or empty" >&2
        fail=1
    fi
done
EXPERIMENTS=target/release/experiments

# --quiet means quiet: a clean quick run writes nothing to stderr.
echo "==> $EXPERIMENTS --quick --quiet t1 (expect empty stderr)"
"$EXPERIMENTS" --quick --quiet t1 > /dev/null 2> artifacts/quiet.err
if [ -s artifacts/quiet.err ]; then
    echo "FAILED: experiments --quiet wrote to stderr:" >&2
    cat artifacts/quiet.err >&2
    fail=1
fi

# The determinism contract through the shipped binary: the quick matrix
# prints the same bytes on one worker and on eight.
run sh -c "$EXPERIMENTS --quick --jobs 1 --quiet > artifacts/matrix-jobs1.txt"
run sh -c "$EXPERIMENTS --quick --jobs 8 --quiet > artifacts/matrix-jobs8.txt"
run cmp artifacts/matrix-jobs1.txt artifacts/matrix-jobs8.txt

# Closed-stdout smoke: a reader that stops after one line (the quick
# matrix prints more than a pipe buffers, so the next write meets
# EPIPE) must end the run quietly, without a panic or a backtrace.
echo "==> $EXPERIMENTS --quick --quiet | head -n1 (expect no panic)"
"$EXPERIMENTS" --quick --quiet 2> artifacts/closed-stdout.err | head -n1 > /dev/null
if grep -q panicked artifacts/closed-stdout.err; then
    echo "FAILED: a closed stdout made experiments panic" >&2
    fail=1
fi

# Live-telemetry smoke: run the matrix with the HTTP endpoint on an
# ephemeral port, scrape /metrics and /healthz while the server is up
# (a shutdown linger keeps it alive past the quick matrix), and check
# the exposition is non-trivial.
echo "==> live telemetry scrape (--serve 127.0.0.1:0)"
SERVE_ERR=artifacts/serve.err
rm -f "$SERVE_ERR"
SPINDLE_SERVE_LINGER_MS=15000 "$EXPERIMENTS" --quick --serve 127.0.0.1:0 --quiet t2 f5 \
    > artifacts/serve.txt 2> "$SERVE_ERR" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^# serving telemetry on http://||p' "$SERVE_ERR" 2>/dev/null | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAILED: experiments --serve never announced a bound address" >&2
    fail=1
else
    run curl -sf "http://$ADDR/healthz" -o artifacts/healthz.txt
    run curl -sf "http://$ADDR/metrics" -o artifacts/metrics.prom
    run curl -sf "http://$ADDR/status" -o artifacts/status.json
    run curl -sf "http://$ADDR/timescales" -o artifacts/timescales-live.json
    if ! grep -q "^# TYPE " artifacts/metrics.prom; then
        echo "FAILED: /metrics exposition carries no TYPE lines" >&2
        fail=1
    fi
    if ! grep -q '"phase"' artifacts/status.json; then
        echo "FAILED: /status reports no phase" >&2
        fail=1
    fi
    if ! grep -q '"resolutions"' artifacts/timescales-live.json; then
        echo "FAILED: /timescales scrape carries no resolutions" >&2
        fail=1
    fi
fi
kill "$SERVE_PID" 2>/dev/null
wait "$SERVE_PID" 2>/dev/null

# Perf regression gate: the process wall time of a fresh quick matrix
# on two workers, against a committed baseline. QUICK_BASELINE_MS is
# the median of twenty runs, timed exactly as below, of the commit
# before this gate was introduced, on a 2-vCPU VM (on two occasions; runs
# 68-121 ms). The limit is deliberately generous (+300 %, since CI
# machines vary widely), so only a real blow-up trips it. A failing
# experiment trips the gate too: the run then exits 1. The timing lands
# in artifacts/ for upload.
QUICK_BASELINE_MS=92
QUICK_LIMIT_PCT=300
QUICK_LIMIT_MS=$((QUICK_BASELINE_MS * (100 + QUICK_LIMIT_PCT) / 100))
echo "==> timed $EXPERIMENTS --quick --jobs 2 --quiet (limit $QUICK_LIMIT_MS ms)"
start_ns=$(date +%s%N)
"$EXPERIMENTS" --quick --jobs 2 --quiet > /dev/null
status=$?
QUICK_MS=$((($(date +%s%N) - start_ns) / 1000000))
printf '{"measured_ms":%d,"baseline_ms":%d,"limit_pct":%d,"limit_ms":%d,"exit":%d}\n' \
    "$QUICK_MS" "$QUICK_BASELINE_MS" "$QUICK_LIMIT_PCT" "$QUICK_LIMIT_MS" "$status" \
    > artifacts/quick-matrix-time.json
echo "quick matrix: $QUICK_MS ms (baseline $QUICK_BASELINE_MS ms, limit $QUICK_LIMIT_MS ms)"
if [ "$status" -ne 0 ]; then
    echo "FAILED: the timed quick matrix exited $status" >&2
    fail=1
fi
if [ "$QUICK_MS" -gt "$QUICK_LIMIT_MS" ]; then
    echo "FAILED: quick matrix took $QUICK_MS ms, over the $QUICK_LIMIT_MS ms limit" >&2
    fail=1
fi

# Fault-injection smoke: the robustness layer end to end, through the
# shipped binaries.

# 1. Forced shard panic: the run must fail loudly (exit 1), name the
#    quarantined experiment, and still emit the survivor's output.
echo "==> $EXPERIMENTS --quick --faults panic@0 --quiet t1 t2 (expect exit 1)"
"$EXPERIMENTS" --quick --faults panic@0 --quiet t1 t2 \
    > artifacts/faulted.txt 2> artifacts/faulted.err
status=$?
if [ "$status" -ne 1 ]; then
    echo "FAILED: forced shard panic should exit 1, got $status" >&2
    fail=1
fi
if ! grep -q "t1 FAILED" artifacts/faulted.err; then
    echo "FAILED: quarantined shard not reported on stderr" >&2
    fail=1
fi
if [ ! -s artifacts/faulted.txt ]; then
    echo "FAILED: surviving experiment produced no output" >&2
    fail=1
fi

# 2. Corrupt-trace run: strict parsing must reject the damage with a
#    line number; --lenient must skip it and finish.
CORRUPT=artifacts/smoke-corrupt.txt
run "$SPINDLE" generate --env mail --span 60 --seed 7 --out "$CORRUPT" --quiet
printf 'not,a,valid,record\n' >> "$CORRUPT"
echo "==> $SPINDLE analyze --in $CORRUPT --quiet (expect failure)"
if "$SPINDLE" analyze --in "$CORRUPT" --quiet > /dev/null 2> artifacts/corrupt.err; then
    echo "FAILED: strict parsing accepted a corrupt trace" >&2
    fail=1
fi
if ! grep -q "line" artifacts/corrupt.err; then
    echo "FAILED: strict parse error does not name the damaged line" >&2
    fail=1
fi
run "$SPINDLE" analyze --in "$CORRUPT" --lenient --quiet

# 3. Kill-and-resume cycle: a matrix killed mid-run by an injected
#    kill fault must resume to byte-identical stdout.
JOURNAL=artifacts/resume.jsonl
rm -f "$JOURNAL"
run sh -c "$EXPERIMENTS --quick --quiet t1 t2 t3 > artifacts/uninterrupted.txt"
echo "==> $EXPERIMENTS --quick --resume $JOURNAL --faults kill@1 --quiet t1 t2 t3 (expect exit 137)"
"$EXPERIMENTS" --quick --resume "$JOURNAL" --faults kill@1 --quiet t1 t2 t3 > /dev/null 2>&1
status=$?
if [ "$status" -ne 137 ]; then
    echo "FAILED: injected kill should exit 137, got $status" >&2
    fail=1
fi
run sh -c "$EXPERIMENTS --quick --resume $JOURNAL --quiet t1 t2 t3 > artifacts/resumed.txt"
run cmp artifacts/uninterrupted.txt artifacts/resumed.txt

# 4. Job-service smoke: boot the daemon on an ephemeral port, submit
#    two jobs, poll one to completion and fetch its artifact, cancel a
#    queued one, kill -9 the daemon mid-job, and verify a restart with
#    --resume-dir re-adopts and finishes the orphan. Finish with a
#    loadtest whose summary lands in artifacts/ for CI upload.
echo "==> job service smoke (spindle serve 127.0.0.1:0)"
SERVE_DIR=artifacts/serve-jobs
JOBS_ERR=artifacts/serve-jobs.err
rm -rf "$SERVE_DIR"
rm -f "$JOBS_ERR"
"$SPINDLE" serve 127.0.0.1:0 --queue-bound 8 --parallel 1 --dir "$SERVE_DIR" 2> "$JOBS_ERR" &
JOBS_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^# serving jobs on http://||p' "$JOBS_ERR" 2>/dev/null | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
poll_job_state() {
    # poll_job_state ID STATE: wait up to 60s for the job to get there.
    for _ in $(seq 1 600); do
        state=$(curl -s "http://$ADDR/jobs/$1" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
        [ "$state" = "$2" ] && return 0
        sleep 0.1
    done
    echo "FAILED: job $1 never reached $2 (last state: $state)" >&2
    return 1
}
if [ -z "$ADDR" ]; then
    echo "FAILED: spindle serve never announced a bound address" >&2
    fail=1
else
    run curl -sf -X POST "http://$ADDR/jobs" \
        -d '{"kind":"generate","env":"web","span":10,"seed":1}' -o /dev/null
    run poll_job_state job-0001 done
    run curl -sf "http://$ADDR/jobs/job-0001/artifacts/stdout.txt" -o artifacts/serve-job1.txt
    if [ ! -s artifacts/serve-job1.txt ]; then
        echo "FAILED: completed job has no stdout artifact" >&2
        fail=1
    fi
    # A long job to be orphaned by the kill, and a queued one to cancel
    # (the single runner is busy, so it never starts).
    run curl -sf -X POST "http://$ADDR/jobs" \
        -d '{"kind":"generate","env":"web","span":172800,"seed":2}' -o /dev/null
    run poll_job_state job-0002 running
    run curl -sf -X POST "http://$ADDR/jobs" \
        -d '{"kind":"generate","env":"web","span":10,"seed":3}' -o /dev/null
    run curl -sf -X DELETE "http://$ADDR/jobs/job-0003" -o /dev/null
    run poll_job_state job-0003 cancelled
    kill -9 "$JOBS_PID" 2>/dev/null
    wait "$JOBS_PID" 2>/dev/null
    rm -f "$JOBS_ERR"
    "$SPINDLE" serve 127.0.0.1:0 --queue-bound 8 --parallel 2 --resume-dir "$SERVE_DIR" \
        2> "$JOBS_ERR" &
    JOBS_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's|^# serving jobs on http://||p' "$JOBS_ERR" 2>/dev/null | head -n1)
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "FAILED: spindle serve --resume-dir never announced an address" >&2
        fail=1
    else
        run poll_job_state job-0002 done
        if ! curl -s "http://$ADDR/jobs/job-0002" | grep -q '"readopted":true'; then
            echo "FAILED: orphaned job not flagged as re-adopted after --resume-dir" >&2
            fail=1
        fi
        # A job finished before the kill keeps its trace across the
        # restart: the replayed record serves the same slices as the
        # offline assembly of the spans.jsonl it persisted.
        echo "==> replayed job trace (/jobs/job-0001/trace vs trace assemble)"
        LIVE_SLICES=$(curl -s "http://$ADDR/jobs/job-0001/trace" | grep -o '"ph":"X"' | wc -l)
        OFFLINE_SLICES=$("$SPINDLE" trace assemble --dir "$SERVE_DIR/job-0001" \
            | grep -o '"ph":"X"' | wc -l)
        if [ "$LIVE_SLICES" -eq 0 ] || [ "$LIVE_SLICES" -ne "$OFFLINE_SLICES" ]; then
            echo "FAILED: replayed job-0001 trace has $LIVE_SLICES slices," \
                "its spans.jsonl assembles to $OFFLINE_SLICES" >&2
            fail=1
        fi
        # Served budget (ROADMAP item 2): a served analyze attempt,
        # spawn to exit as the job's `attempt` span records it, costs
        # at most 3x the same run straight on the CLI. Medians of five
        # runs each, on one ten-minute Mail stream (the scale of the
        # perfbench served_jobs input); both land in artifacts/.
        echo "==> served attempt budget (median attempt <= 3x median direct analyze)"
        BUDGET_IN="$PWD/artifacts/served-analyze.bin"
        run "$SPINDLE" generate --env mail --span 600 --seed 7 --out "$BUDGET_IN" --quiet
        DIRECT_US=""
        for _ in 1 2 3 4 5; do
            start_ns=$(date +%s%N)
            "$SPINDLE" analyze --in "$BUDGET_IN" > /dev/null
            DIRECT_US="$DIRECT_US $((($(date +%s%N) - start_ns) / 1000))"
        done
        ATTEMPT_US=""
        for _ in 1 2 3 4 5; do
            BUDGET_ID=$(curl -s -X POST "http://$ADDR/jobs" \
                -d "{\"kind\":\"analyze\",\"input\":\"$BUDGET_IN\"}" \
                | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
            if [ -z "$BUDGET_ID" ] || ! poll_job_state "$BUDGET_ID" done; then
                break
            fi
            dur=$(curl -s "http://$ADDR/jobs/$BUDGET_ID/trace" | sed -n \
                's/.*"name":"attempt","cat":"daemon","ph":"X","ts":[0-9.]*,"dur":\([0-9]*\).*/\1/p')
            ATTEMPT_US="$ATTEMPT_US $dur"
        done
        rm -f "$BUDGET_IN"
        DIRECT_MED=$(printf '%s\n' $DIRECT_US | sort -n | sed -n 3p)
        ATTEMPT_MED=$(printf '%s\n' $ATTEMPT_US | sort -n | sed -n 3p)
        if [ "$(printf '%s\n' $ATTEMPT_US | grep -c .)" -ne 5 ]; then
            echo "FAILED: served budget: only got attempt spans '$ATTEMPT_US' of 5 jobs" >&2
            fail=1
        else
            printf '{"direct_ms":%d.%03d,"attempt_ms":%d.%03d,"limit_ratio":3,"runs":5}\n' \
                $((DIRECT_MED / 1000)) $((DIRECT_MED % 1000)) \
                $((ATTEMPT_MED / 1000)) $((ATTEMPT_MED % 1000)) \
                > artifacts/served-attempt-time.json
            echo "served attempt: median $ATTEMPT_MED us; direct analyze: median $DIRECT_MED us"
            if [ "$ATTEMPT_MED" -gt $((3 * DIRECT_MED)) ]; then
                echo "FAILED: served attempt $ATTEMPT_MED us is over 3x direct $DIRECT_MED us" >&2
                fail=1
            fi
        fi
        run sh -c "$SPINDLE loadtest http://$ADDR --clients 50 --jobs 100 --span 2 \
            --out artifacts/loadtest.json > artifacts/loadtest.txt"
        if ! grep -q '"drained":true' artifacts/loadtest.json; then
            echo "FAILED: loadtest report says the server never drained" >&2
            fail=1
        fi

        # 5. Telemetry plane: submit a matrix job, stream its SSE event
        #    feed while it runs, and check the feed carried at least one
        #    progress frame plus a terminal event that agrees with the
        #    job's result document. Its telemetry stream must be whole,
        #    its rollups live in the timescales.json it writes, and a
        #    deeply nested job body is a 400, not a dead daemon.
        echo "==> telemetry plane smoke (/jobs/ID/events mid-run)"
        MATRIX_ID=$(curl -s -X POST "http://$ADDR/jobs" \
            -d '{"kind":"matrix","quick":true,"ids":["t2"],"jobs":2,"timescales":true}' \
            | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
        if [ -z "$MATRIX_ID" ]; then
            echo "FAILED: matrix job submission returned no id" >&2
            fail=1
        else
            curl -sN --max-time 120 "http://$ADDR/jobs/$MATRIX_ID/events" \
                > artifacts/job-events.txt &
            EVENTS_PID=$!
            run poll_job_state "$MATRIX_ID" done
            wait "$EVENTS_PID" 2>/dev/null
            if ! grep -q '"type":"progress"' artifacts/job-events.txt; then
                echo "FAILED: event stream carried no progress frame" >&2
                fail=1
            fi
            if ! grep -q '"type":"end".*"state":"done"' artifacts/job-events.txt; then
                echo "FAILED: event stream carried no terminal done event" >&2
                fail=1
            fi
            run curl -sf "http://$ADDR/jobs/$MATRIX_ID/result" -o artifacts/job-result.json
            if ! grep -q '"state":"done"' artifacts/job-result.json; then
                echo "FAILED: event stream and result document disagree" >&2
                fail=1
            fi
            run curl -sf "http://$ADDR/jobs/$MATRIX_ID/timescales" \
                -o artifacts/job-timescales.json
            if ! grep -q '"decode_errors":0' artifacts/job-timescales.json \
                || ! grep -q '"torn":false' artifacts/job-timescales.json; then
                echo "FAILED: per-job telemetry stream had decode errors or tore" >&2
                fail=1
            fi
            run curl -sf "http://$ADDR/jobs/$MATRIX_ID/artifacts/timescales.json" \
                -o artifacts/job-timescales-artifact.json
            if ! grep -q '"resolutions"' artifacts/job-timescales-artifact.json; then
                echo "FAILED: the matrix job's timescales.json carries no resolutions" >&2
                fail=1
            fi

            # Hostile nesting: a megabyte of `[` fits the request-body
            # cap, and the JSON parser's depth limit must answer it with
            # a 400 while the daemon stays up.
            head -c 1048576 /dev/zero | tr '\0' '[' > artifacts/nested-body.json
            NESTED_STATUS=$(curl -s -o /dev/null -w '%{http_code}' -H 'Expect:' \
                -X POST "http://$ADDR/jobs" --data-binary @artifacts/nested-body.json)
            rm -f artifacts/nested-body.json
            if [ "$NESTED_STATUS" != "400" ]; then
                echo "FAILED: a 1 MiB nested job body got HTTP $NESTED_STATUS, not 400" >&2
                fail=1
            fi
            if [ "$(curl -s "http://$ADDR/healthz")" != "ok" ]; then
                echo "FAILED: the daemon stopped answering /healthz after a nested body" >&2
                fail=1
            fi

            # Causal tracing: the finished job's Chrome trace must pass
            # the structural checker and carry both halves of the
            # story: the daemon lifecycle spans (queue wait + at least
            # one attempt) and the child's wall spans, whole. The
            # document stays in artifacts/ so CI uploads something
            # loadable straight into Perfetto.
            echo "==> causal trace smoke (/jobs/$MATRIX_ID/trace)"
            run curl -sf "http://$ADDR/jobs/$MATRIX_ID/trace" \
                -o artifacts/job-trace.json
            run "$SPINDLE" trace check artifacts/job-trace.json
            if ! grep -q '"name":"queue.wait"' artifacts/job-trace.json; then
                echo "FAILED: job trace carries no queue.wait span" >&2
                fail=1
            fi
            if ! grep -q '"name":"attempt"' artifacts/job-trace.json; then
                echo "FAILED: job trace carries no attempt span" >&2
                fail=1
            fi
            if ! grep -q '"job child (wall clock)"' artifacts/job-trace.json \
                || ! grep -q '"cat":"wall"' artifacts/job-trace.json; then
                echo "FAILED: job trace carries no child wall spans" >&2
                fail=1
            fi
            if ! grep -q '"dropped":0' artifacts/job-trace.json; then
                echo "FAILED: job trace dropped spans" >&2
                fail=1
            fi
        fi
    fi
    kill -9 "$JOBS_PID" 2>/dev/null
fi
rm -rf "$SERVE_DIR"

# 6. Chaos campaign: a daemon with tight supervision knobs driven
#    through the seeded fault scenarios — retry-to-identical-output,
#    deadline kill, stall kill, poison quarantine + breaker, injected
#    io fault, and (via --daemon-pid) the SIGTERM drain contract. The
#    JSON report is a CI artifact either way; afterwards a resume
#    restart must re-adopt the drained backlog losslessly.
echo "==> chaos campaign (spindle chaos, seed 7)"
CHAOS_DIR=artifacts/chaos-jobs
CHAOS_ERR=artifacts/chaos-serve.err
rm -rf "$CHAOS_DIR"
rm -f "$CHAOS_ERR"
"$SPINDLE" serve 127.0.0.1:0 --queue-bound 16 --parallel 2 --dir "$CHAOS_DIR" \
    --max-retries 2 --retry-base-ms 100 --stall-timeout 2 --drain-timeout 10 \
    2> "$CHAOS_ERR" &
CHAOS_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^# serving jobs on http://||p' "$CHAOS_ERR" 2>/dev/null | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "FAILED: chaos daemon never announced a bound address" >&2
    fail=1
    kill -9 "$CHAOS_PID" 2>/dev/null
else
    run "$SPINDLE" chaos "http://$ADDR" --seed 7 --daemon-pid "$CHAOS_PID" \
        --input "$SMOKE" --out artifacts/chaos.json
    if ! grep -q '"invariant_ok":true' artifacts/chaos.json; then
        echo "FAILED: chaos terminal-state invariant violated" >&2
        fail=1
    fi
    wait "$CHAOS_PID" 2>/dev/null
    # The drain left the backlog journaled without terminal records; a
    # resume restart re-adopts it and must run it dry.
    rm -f "$CHAOS_ERR"
    "$SPINDLE" serve 127.0.0.1:0 --parallel 2 --resume-dir "$CHAOS_DIR" 2> "$CHAOS_ERR" &
    CHAOS_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's|^# serving jobs on http://||p' "$CHAOS_ERR" 2>/dev/null | head -n1)
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "FAILED: chaos resume daemon never announced an address" >&2
        fail=1
    else
        drained_ok=0
        for _ in $(seq 1 600); do
            if ! curl -s "http://$ADDR/jobs" | grep -Eq '"state":"(queued|running)"'; then
                drained_ok=1
                break
            fi
            sleep 0.1
        done
        if [ "$drained_ok" -ne 1 ]; then
            echo "FAILED: drained backlog never ran dry after --resume-dir" >&2
            fail=1
        fi
    fi
    kill -9 "$CHAOS_PID" 2>/dev/null
fi
rm -rf "$CHAOS_DIR"

exit "$fail"
