#!/usr/bin/env bash
# CI gate: tier-1 verification plus lint, exactly what a PR must pass.
#
#   ./ci.sh          tier-1 (release build + full test suite) + every
#                    workspace crate's own tests + fmt + clippy over
#                    the whole workspace + perfbench (the benchmark
#                    package builds against the crates with its
#                    committed lock file and its unit tests pass) +
#                    manifest (committed results/ hash-verified by
#                    `exp verify` against the manifest of a fresh
#                    parallel run_all suite run, whose stderr
#                    footer must show the pinned trace-store totals,
#                    12/9 traces, 240/12 timelines, 6/6 histograms
#                    hit/miss, and 0 coalesced waits) + faults
#                    (canned fault plan degrades the suite instead of
#                    killing it, and a 2 ms REPRO_EXP_TIMEOUT times out
#                    every measured experiment)
#                    + stream (1 M-instruction streaming smoke with an
#                    RSS ceiling and a materialised oracle comparison)
#                    + analytic (closed-form backend bit-exact on FA LRU,
#                    within tolerance on the comparison grid, cut dense
#                    walk equal to the uncut one on the standard grid)
#                    + serve (tradeoff-server smoke: a canned simulate
#                    under each of the six stalling features and the
#                    experiments listing over HTTP byte-match the CLI,
#                    /stats proves memoisation
#                    and timeline byte accounting, clean shutdown)
#                    + chaos (armed serve-path fault plan: sheds are
#                    deterministic and survivable, no worker dies, and
#                    the post-chaos canned answer is byte-identical to
#                    a clean server's)
#                    + workloads (every example spec validates, every
#                    builtin the registry serves has its spec file,
#                    builtin specs keep their pinned content hashes and
#                    stay bit-identical to the reference constructors
#                    in tests/workloads.rs)
#                    + vars (every REPRO_* name in the docs and the
#                    binaries' headers is one the settings reader reads)
#                    + threads (product code starts threads only in the
#                    scheduler, the chunked folds and the server)
#   ./ci.sh bench    additionally run perfbench/ on its three workloads
#                    with the per-layer ledger (suite, serve_hot,
#                    plan_cold; see perfbench/README.md), then the
#                    stream and analytic gates at 5 M instructions
#                    (slow; perf-sensitive PRs)
#   ./ci.sh manifest run only the manifest staleness check
#   ./ci.sh faults   run only the fault-injection degradation check
#   ./ci.sh stream   run only the streaming smoke
#   ./ci.sh analytic run only the analytic-backend accuracy gate
#   ./ci.sh serve    run only the query-server smoke
#   ./ci.sh chaos    run only the query-server chaos gate (armed
#                    REPRO_FAULTS plan: forced accept sheds ridden out
#                    by client retries, a slow read inside the budget, a
#                    contained dispatch panic, a hang cancelled at its
#                    deadline, and a 6x overload flood — the pool must
#                    keep its size, no cancelled request may leave a
#                    thread behind, and a post-chaos canned query must be
#                    byte-identical to a clean server's answer)
#   ./ci.sh workloads run only the workload-spec gate (every example
#                    spec in workloads/ validates; every builtin the
#                    registry lists has its workloads/<name>.json, which
#                    hashes to the id the registry serves; builtins stay
#                    bit-identical to the reference constructors in
#                    tests/workloads.rs)
#   ./ci.sh vars     run only the documented-variables check (no build):
#                    collect every REPRO_[A-Z_]+ name in README.md,
#                    EXPERIMENTS.md, DESIGN.md, the verify skill and the
#                    leading //! headers of exp, run_all, tradeoff-cli
#                    and tradeoff-server, and fail if one is not the
#                    first argument of a bench::common::setting call
#   ./ci.sh threads  run only the thread-start check (no build): fail
#                    if product code (as `loc` counts it) outside
#                    crates/bench/src/sched.rs, crates/bench/src/stream.rs
#                    and src/server.rs names thread::spawn,
#                    thread::scope or thread::Builder
#   ./ci.sh loc      print the tracked Rust line counts outside
#                    perfbench/ (no build), the figures each change
#                    reports its net line deltas against: product
#                    lines (files outside any tests/ directory, each
#                    cut at its first top-level #[cfg(test)]), test
#                    lines (the rest) and their total
#
# Exit codes: 0 green, 1 failure, 2 usage, 3 manifest drift,
# 4 chaos worker death (the pool shrank), 5 chaos shed-policy drift
# (an armed fault was not observed by the overload counters, or the
# post-chaos answer changed).
set -euo pipefail
cd "$(dirname "$0")"

manifest_check() {
    echo "==> manifest: regenerate artifacts and hash-verify results/"
    local tmp
    tmp="$(mktemp -d)"
    # The suite document and every CSV must be byte-identical however
    # they are produced: regenerate with the parallel scheduler into a
    # scratch directory, then hash the committed results/ against the
    # fresh manifest. Any drift — stale committed artifact or lost
    # determinism — fails the build.
    REPRO_RESULTS_DIR="$tmp" REPRO_JOBS=4 \
        cargo run --release -q -p bench --bin run_all > /dev/null 2> "$tmp/footer.txt" \
        || { cat "$tmp/footer.txt"; echo "FAIL: run_all"; exit 1; }
    cargo run --release -q -p bench --bin exp -- verify \
        --results-dir results --manifest "$tmp/manifest.json"
    # The suite's trace-store call sequence is pinned too: which folds
    # hit the memo and which regenerate must not move, and no lookup
    # may block on another's build.
    grep -q 'trace store: traces 12 hit / 9 miss, timelines 240 hit / 12 miss, histograms 6 hit / 6 miss$' \
        "$tmp/footer.txt" \
        || { echo "FAIL: suite store totals drifted:"; head -1 "$tmp/footer.txt"; exit 1; }
    grep -q 'coalesced waits 0,' "$tmp/footer.txt" \
        || { echo "FAIL: suite lookups coalesced:"; grep 'store stats' "$tmp/footer.txt"; exit 1; }
    echo "    store totals: $(head -1 "$tmp/footer.txt" | sed 's/.*trace store: //'), coalesced waits 0"
    rm -rf "$tmp"
}

faults_check() {
    echo "==> faults: canned fault plan must degrade, not abort, the suite"
    local tmp out status
    tmp="$(mktemp -d)"
    # One panic (fig2) and one hang cancelled at its deadline (victim): the
    # keep-going parallel run must complete the other 26 experiments,
    # record per-experiment statuses in the manifest, and exit nonzero.
    set +e
    REPRO_FAULTS="run:fig2:panic,run:victim:delay60000" \
    REPRO_EXP_TIMEOUT=2 REPRO_INSTRUCTIONS=2000 \
        cargo run --release -q -p bench --bin exp -- run \
        --keep-going --jobs 4 --results-dir "$tmp" > "$tmp/stdout.txt" 2> "$tmp/stderr.txt"
    status=$?
    set -e
    [[ "$status" -ne 0 ]] || { echo "FAIL: degraded run exited 0"; exit 1; }
    grep -q '"status": "failed"' "$tmp/manifest.json" \
        || { echo "FAIL: manifest missing failed status"; exit 1; }
    grep -q '"status": "timed-out"' "$tmp/manifest.json" \
        || { echo "FAIL: manifest missing timed-out status"; exit 1; }
    out="$(grep -c '"status": "ok"' "$tmp/manifest.json")"
    [[ "$out" -eq 26 ]] || { echo "FAIL: expected 26 ok statuses, got $out"; exit 1; }
    grep -q "Suite failures" "$tmp/stdout.txt" \
        || { echo "FAIL: suite document missing failure section"; exit 1; }
    echo "    degraded run: exit $status, 26 ok / 1 failed / 1 timed-out"
    rm -rf "$tmp"

    # Every trace-driven experiment honours REPRO_EXP_TIMEOUT: under a
    # 2 ms deadline each `measured` footer row must read timed-out, none
    # may finish ok past it.
    local rows late
    tmp="$(mktemp -d)"
    set +e
    REPRO_EXP_TIMEOUT=0.002 \
        cargo run --release -q -p bench --bin exp -- run --filter measured \
        --keep-going --results-dir "$tmp" > /dev/null 2> "$tmp/stderr.txt"
    set -e
    rows="$(grep -E '^\| [a-z0-9]+ +\|' "$tmp/stderr.txt" | grep -v '^| experiment ' || true)"
    late="$(grep -v '| timed-out |' <<< "$rows" || true)"
    [[ -n "$rows" && -z "$late" ]] \
        || { echo "FAIL: measured experiments ran past a 2 ms deadline:"; echo "${late:-no footer rows}"; exit 1; }
    echo "    2 ms deadline: all $(grep -c . <<< "$rows") measured experiments timed-out"
    rm -rf "$tmp"
}

analytic_check() {
    local n="${1:-120000}"
    echo "==> analytic: closed-form backend exactness and tolerance gates ($n instructions)"
    # Gate 1: fully-associative LRU answers must be bit-equal to live
    # Cache replay (Mattson inclusion is exact, not approximate).
    # Gate 2: the binomial set-conflict model must stay within the
    # pinned tolerance of the stack-distance sweeps across the whole
    # comparison grid, all six proxies.
    # Gate 3: the cut dense_best walk must return exactly what the uncut
    # reference walk returns on the paper-scale dense grid, all six
    # proxies, at four targets. The binary exits nonzero on any
    # violation.
    cargo run --release -q -p bench --bin analytic_check -- --instructions "$n"
}

stream_check() {
    local n="${1:-1000000}"
    echo "==> stream: $n-instruction chunked pipeline, bounded RSS + oracle"
    # The streamed folds must stay byte-identical to the materialise-
    # then-scan oracle, and peak RSS must stay far below what the
    # materialised trace would pin (24 MB at 1 M instructions; the
    # binary checks VmHWM before its oracle pass materialises anything).
    # The reuse fold is finished, as the trace store holds it, before
    # it is compared with the serial fold.
    cargo run --release -q -p bench --bin stream_smoke -- \
        --instructions "$n" --rss-limit-mb 64
}

# The built query binaries. The modes that start them build the release
# binaries first; starting them directly keeps concurrent clients from
# queueing on cargo's build lock.
cli=target/release/tradeoff-cli
server=target/release/tradeoff-server

# Starts a two-worker tradeoff-server in the background (extra server
# flags after the first two arguments) and waits until it has bound.
# $1 names it in failure messages, $2 receives its stderr. Uses the
# caller's $tmp; sets the caller's $server_pid and $addr. Until
# stop_server, a failing gate's exit stops the server too, so it cannot
# hold the caller's stdout open.
spawn_server() {
    local name="$1" log="$2"
    shift 2
    rm -f "$tmp/addr"
    "$server" --addr 127.0.0.1:0 --threads 2 --addr-file "$tmp/addr" "$@" \
        2> "$log" &
    server_pid=$!
    trap "kill $server_pid 2> /dev/null || true" EXIT
    for _ in $(seq 1 100); do
        [[ -s "$tmp/addr" ]] && break
        kill -0 "$server_pid" 2>/dev/null \
            || { echo "FAIL: $name died on startup"; cat "$log"; exit 1; }
        sleep 0.1
    done
    [[ -s "$tmp/addr" ]] || { echo "FAIL: $name never bound"; exit 1; }
    addr="$(cat "$tmp/addr")"
}

# Shuts the caller's server down gracefully and waits for it; $1 names
# it in the failure message.
stop_server() {
    "$cli" query --server "$addr" --shutdown > /dev/null
    wait "$server_pid" \
        || { echo "FAIL: $1 exited nonzero after graceful shutdown"; exit 1; }
    trap - EXIT
}

# The OS thread count of the caller's $server_pid (Linux /proc).
server_threads() {
    awk '/^Threads:/ {print $2}' "/proc/$server_pid/status"
}

# Waits up to 1 s for server_threads to return to the baseline $2;
# fails naming the step $1 otherwise.
expect_threads() {
    local step="$1" want="$2" now
    for _ in $(seq 1 10); do
        now="$(server_threads)"
        [[ "$now" -eq "$want" ]] && return 0
        sleep 0.1
    done
    echo "FAIL: $step left $now server threads running, $want at baseline"
    exit 1
}

serve_check() {
    echo "==> serve: tradeoff-server smoke (byte parity, memoisation, shutdown)"
    local tmp addr req local_out remote_out server_pid
    tmp="$(mktemp -d)"
    spawn_server server "$tmp/server.log"
    # The canned φ point under every stalling feature, locally and over
    # HTTP, must be byte-identical — both are one tradeoff::api::dispatch
    # call, and each feature runs its own instance of the replay loop.
    # All six share one memoised timeline: the first request extracts
    # it, and every further request (the six features, then a repeat)
    # is a hit.
    local stall requests=0
    for stall in fs bl bnl1 bnl2 bnl3 nb; do
        req="{\"query\":\"simulate\",\"program\":\"ear\",\"instructions\":50000,\"stall\":\"$stall\"}"
        local_out="$("$cli" query --json "$req")"
        remote_out="$("$cli" query --server "$addr" --json "$req")"
        requests=$((requests + 1))
        [[ "$local_out" == "$remote_out" ]] \
            || { echo "FAIL: CLI and server answers differ under $stall"; exit 1; }
    done
    remote_out="$("$cli" query --server "$addr" --json "$req")"
    requests=$((requests + 1))
    [[ "$local_out" == "$remote_out" ]] \
        || { echo "FAIL: repeated query changed its answer"; exit 1; }
    "$cli" query --server "$addr" --get stats \
        > "$tmp/stats.json"
    grep -Eq '"timeline_misses":1[,}]' "$tmp/stats.json" \
        || { echo "FAIL: expected one extraction, got $(cat "$tmp/stats.json")"; exit 1; }
    grep -Eq "\"timeline_hits\":$((requests - 1))[,}]" "$tmp/stats.json" \
        || { echo "FAIL: expected $((requests - 1)) memo hits: $(cat "$tmp/stats.json")"; exit 1; }
    grep -Eq '"timeline_bytes":[1-9]' "$tmp/stats.json" \
        || { echo "FAIL: memoised timeline not byte-accounted: $(cat "$tmp/stats.json")"; exit 1; }
    # The registry listing must be byte-identical locally and over HTTP.
    req='{"query":"experiments"}'
    local_out="$("$cli" query --json "$req")"
    remote_out="$("$cli" query --server "$addr" --json "$req")"
    [[ "$local_out" == "$remote_out" ]] \
        || { echo "FAIL: CLI and server experiment listings differ"; exit 1; }
    stop_server server
    echo "    serve smoke: byte parity (simulate under all six stalls + experiments), 1 miss + $((requests - 1)) hits, timeline bytes accounted, clean shutdown"
    rm -rf "$tmp"
}

chaos_check() {
    echo "==> chaos: armed faults must shed, contain, and recover (4 = worker death, 5 = policy drift)"
    local tmp addr req clean_out post_out server_pid out status started elapsed sheds served p baseline
    tmp="$(mktemp -d)"
    req='{"query":"simulate","program":"ear","instructions":50000,"stall":"bnl3"}'

    # Reference answer: the canned query on a clean, fault-free server.
    spawn_server "clean server" "$tmp/clean.log"
    clean_out="$("$cli" query --server "$addr" --json "$req")"
    stop_server "clean server"

    # Chaos server: the plan arms two forced accept sheds, one slow
    # first read, one dispatch panic and one dispatch hang, in that
    # order; the overload flood below needs no fault at all, just a
    # tight queue watermark on two workers.
    REPRO_FAULTS="accept:serve:io:2,read:serve:delay400:1,dispatch:serve:panic:1,dispatch:serve:delay60000:1" \
        spawn_server "chaos server" "$tmp/chaos.log" \
        --queue 2 --request-timeout 1 --idle-timeout 2

    # 1. Client retries ride out both forced accept sheds (503 +
    #    Retry-After), then the slow read burns 400 ms of the 1 s
    #    budget — and the request still answers.
    out="$("$cli" \
        query --server "$addr" --get stats --retries 4)" \
        || { echo "FAIL: retries did not ride out the accept sheds"; exit 1; }
    grep -q '"sheds_accept":2' <<< "$out" \
        || { echo "FAIL: expected 2 accept sheds before the first answer: $out"; exit 5; }
    baseline="$(server_threads)"

    # 2. A poisoned query unwinds inside its contained dispatch: a typed
    #    500, and the worker pool is untouched (checked in step 5).
    set +e
    out="$("$cli" \
        query --server "$addr" --json "$req" --retries 0 2>&1)"
    status=$?
    set -e
    [[ "$status" -eq 1 ]] || { echo "FAIL: panicking query must exit 1, got $status: $out"; exit 1; }
    grep -q 'panicked' <<< "$out" \
        || { echo "FAIL: expected a contained panic, got: $out"; exit 1; }

    # 3. A hung handler's sleep is cancelled at the 1 s deadline: 504
    #    in seconds, not the 60 s the hang would take, and no thread
    #    is left sleeping it out.
    started=$SECONDS
    set +e
    out="$("$cli" \
        query --server "$addr" --json "$req" --retries 0 2>&1)"
    status=$?
    set -e
    elapsed=$(( SECONDS - started ))
    [[ "$status" -eq 1 ]] || { echo "FAIL: hung query must exit 1, got $status: $out"; exit 1; }
    grep -q 'deadline-exceeded' <<< "$out" \
        || { echo "FAIL: expected deadline-exceeded, got: $out"; exit 1; }
    [[ "$elapsed" -le 15 ]] \
        || { echo "FAIL: the hang took ${elapsed}s against a 1 s deadline"; exit 1; }
    expect_threads "the cancelled hang" "$baseline"

    # 4. Overload flood: 12 concurrent heavy simulates on 2 workers
    #    with a queue watermark of 2. The shed policy must act (503
    #    overloaded), and the backlog that fits must still be served.
    local pids=()
    for i in $(seq 0 11); do
        "$cli" query --server "$addr" --retries 0 \
            --json "{\"query\":\"simulate\",\"program\":\"ear\",\"instructions\":$((3000000 + 977 * i))}" \
            > /dev/null 2> "$tmp/flood.$i.err" &
        pids+=($!)
    done
    served=0
    for p in "${pids[@]}"; do
        if wait "$p"; then served=$((served + 1)); fi
    done
    sheds="$(cat "$tmp"/flood.*.err | grep -c 'overloaded' || true)"
    [[ "$sheds" -ge 1 ]] \
        || { echo "FAIL: 6x overload flood shed nothing (served $served/12)"; exit 5; }
    [[ "$served" -ge 1 ]] \
        || { echo "FAIL: overload flood served nothing"; cat "$tmp"/flood.*.err; exit 5; }
    expect_threads "the overload flood" "$baseline"

    # 5. /stats invariants: nobody died, and every armed fault left a
    #    mark on the policy counters.
    out="$("$cli" query --server "$addr" --get stats)"
    grep -q '"pool":{"size":2,"alive":2}' <<< "$out" \
        || { echo "FAIL: worker death — the pool shrank: $out"; exit 4; }
    grep -q '"panics_contained":1' <<< "$out" \
        || { echo "FAIL: panic not contained or not counted: $out"; exit 5; }
    grep -Eq '"deadline_timeouts":[1-9]' <<< "$out" \
        || { echo "FAIL: deadline timeout not counted: $out"; exit 5; }
    grep -q '"sheds_accept":2' <<< "$out" \
        || { echo "FAIL: accept-shed count drifted: $out"; exit 5; }
    grep -Eq '"sheds_dispatch":[1-9]' <<< "$out" \
        || { echo "FAIL: overload flood left no dispatch sheds: $out"; exit 5; }

    # 6. Post-chaos, the canned query answers byte-identically to the
    #    clean server: chaos may cost requests, never answers.
    post_out="$("$cli" query --server "$addr" --json "$req")"
    [[ "$post_out" == "$clean_out" ]] \
        || { echo "FAIL: post-chaos answer drifted from the clean server"; exit 5; }

    stop_server "chaos server"
    echo "    chaos: 2 sheds ridden out, panic + hang contained, $sheds/12 flood sheds, pool intact, $baseline threads after each cancellation, byte-identical recovery"
    rm -rf "$tmp"
}

workloads_check() {
    echo "==> workloads: example specs validate, builtin ids pinned"
    local out id f name want builtins
    # Every committed example spec must parse, validate and hash.
    for f in workloads/*.json; do
        out="$("$cli" workloads validate --file "$f")" \
            || { echo "FAIL: invalid spec $f"; exit 1; }
        id="$(sed -nE 's/^valid: .*\(([0-9a-f]{64})\)$/\1/p' <<< "$out")"
        [[ -n "$id" ]] || { echo "FAIL: no content hash for $f: $out"; exit 1; }
    done
    # The builtins are identity-critical: every name the registry lists
    # must have its committed spec file, hashing to the exact id the
    # registry serves, or the file has drifted from the memo keys in use.
    builtins="$("$cli" workloads list \
        | sed -nE 's/^\| ([^ |]+) +\| ([0-9a-f]{64}) \|$/\1 \2/p')"
    [[ -n "$builtins" ]] || { echo "FAIL: the registry lists no builtins"; exit 1; }
    while read -r name want; do
        f="workloads/$name.json"
        [[ -f "$f" ]] || { echo "FAIL: builtin $name has no $f"; exit 1; }
        out="$("$cli" workloads validate --file "$f")"
        id="$(sed -nE 's/^valid: .*\(([0-9a-f]{64})\)$/\1/p' <<< "$out")"
        [[ "$id" == "$want" ]] \
            || { echo "FAIL: $f hashes to $id, the registry serves $name as $want"; exit 1; }
    done <<< "$builtins"
    # Builtin specs must compile bit-identically to the reference
    # constructors in tests/workloads.rs, and their content hashes stay
    # pinned.
    cargo test --release -q --test workloads \
        || { echo "FAIL: workload contract tests"; exit 1; }
    echo "    $(ls workloads/*.json | wc -l) specs valid, $(wc -l <<< "$builtins") builtin ids pinned"
}

vars_check() {
    echo "==> vars: every documented REPRO_* variable is one the settings reader reads"
    local read documented missing f
    # The names the code reads: the first argument of every
    # `setting("REPRO_…", …)` call, which may span lines.
    read="$(grep -rhPzo 'setting\(\s*"\KREPRO_[A-Z_]+' crates/bench/src src \
        | tr '\0' '\n' | sort -u)"
    [[ -n "$read" ]] || { echo "FAIL: no setting(\"REPRO_…\") call found"; exit 1; }
    documented="$( {
        cat README.md EXPERIMENTS.md DESIGN.md .claude/skills/verify/SKILL.md
        for f in crates/bench/src/bin/exp.rs crates/bench/src/bin/run_all.rs \
            src/bin/tradeoff-cli.rs src/bin/tradeoff-server.rs; do
            awk '!/^\/\/!/ { exit } { print }' "$f"
        done
    } | grep -o 'REPRO_[A-Z_]*[A-Z]' | sort -u)"
    missing="$(comm -23 <(echo "$documented") <(echo "$read"))"
    [[ -z "$missing" ]] \
        || { echo "FAIL: documented but read by no setting call:" $missing; exit 1; }
    echo "    $(wc -l <<< "$documented") documented variables, all read:" $read
}

threads_check() {
    echo "==> threads: product code starts threads only in sched, stream and the server"
    local found
    # Product code as `loc` counts it: tracked Rust outside perfbench/
    # and any tests/ directory, each file cut at its first top-level
    # #[cfg(test)]. Comment lines may name the calls.
    found="$(git ls-files -z '*.rs' ':!perfbench' ':(exclude,glob)**/tests/**' \
        ':!crates/bench/src/sched.rs' ':!crates/bench/src/stream.rs' ':!src/server.rs' \
        | xargs -0 awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 }
            !cut && !/^[[:space:]]*\/\// && /thread::(spawn|scope|Builder)/ {
                print FILENAME ":" FNR ": " $0
            }')"
    [[ -z "$found" ]] \
        || { echo "FAIL: threads started outside sched, stream and the server:"; echo "$found"; exit 1; }
    echo "    no other product file starts a thread"
}

case "${1:-}" in
    vars|threads)
        "${1}_check"
        echo "CI green."
        exit 0
        ;;
    loc)
        total="$(git ls-files -z '*.rs' ':!perfbench' | xargs -0 cat | wc -l)"
        product="$(git ls-files -z '*.rs' ':!perfbench' ':(exclude,glob)**/tests/**' \
            | xargs -0 awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n + 0 }')"
        echo "product $product"
        echo "test $((total - product))"
        echo "total $total"
        exit 0
        ;;
    manifest|faults|stream|analytic|serve|chaos|workloads)
        cargo build --release
        "${1}_check"
        echo "CI green."
        exit 0
        ;;
esac

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> crates: cargo test -q --workspace --exclude unified-tradeoff"
cargo test -q --workspace --exclude unified-tradeoff

echo "==> lint: cargo fmt --check"
cargo fmt --check

echo "==> lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

vars_check
threads_check

echo "==> perfbench: builds with its committed lock file, unit tests pass"
CARGO_TARGET_DIR=.bench_build cargo test --offline --locked --manifest-path perfbench/Cargo.toml

manifest_check
faults_check
stream_check
analytic_check
serve_check
chaos_check
workloads_check

if [[ "${1:-}" == "bench" ]]; then
    for workload in suite serve_hot plan_cold; do
        echo "==> perf: perfbench --workload $workload (ledger, then record)"
        bash perfbench/run.sh --workload "$workload" --trace 1
    done
    stream_check 5000000
    analytic_check 5000000
fi

echo "CI green."
