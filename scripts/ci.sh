#!/usr/bin/env sh
# Offline CI gate: the whole workspace must build, test and run the
# figures smoke entirely without network access (no external crates —
# see DESIGN.md §6). Run from the repository root.
set -eu

export CARGO_NET_OFFLINE=true

echo "== tier 1: release build =="
cargo build --release

echo "== tier 1: tests =="
cargo test -q

echo "== lint: clippy over every target (tests, benches, examples), warnings are errors =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== bench targets compile (in-repo harness) =="
cargo bench --no-run -q

echo "== benchmark: xacbench builds against the crates and passes its smoke test =="
cargo test --release --offline --manifest-path xacbench/Cargo.toml

echo "== figures smoke: table3 =="
cargo run --release -q -p xac-bench --bin figures -- table3

echo "== vm: compiled mode is observationally identical =="
cargo test --release -q -p xac-serve --test vm_equivalence

echo "== figures smoke: annotate-modes artifact =="
cargo run --release -q -p xac-bench --bin figures -- annotate-modes
test -s BENCH_annotation_modes.json
# Its compiled rows (each repeating its reference row's writes and
# accessible count) are checked by the tier-1 test
# tracked_annotation_modes_artifact_pairs_compiled_with_the_reference
# (crates/bench/src/lib.rs).

echo "== figures smoke: serve artifact (incl. decide-path micro-sweep) =="
cargo run --release -q -p xac-bench --bin figures -- serve
test -s BENCH_serve.json
# Its compiled rows, decide-path columns and first-write rows are checked
# by the tier-1 test tracked_serve_artifact_has_compiled_decide_and_first_write_rows
# (crates/bench/src/lib.rs).

echo "== fault sweep: every injection point x every backend =="
cargo test --release -q -p xac-serve --test fault_recovery

echo "== storage: kill-and-reopen crash sweep (wal + pager) =="
cargo test --release -q -p xac-serve --test durability_recovery

echo "== figures smoke: fault-recovery artifact =="
cargo run --release -q -p xac-bench --bin figures -- fault-recovery
test -s BENCH_fault_recovery.json
# Its checkpoint_wal rows (one per backend x factor) are checked by the
# tier-1 test tracked_fault_recovery_artifact_has_a_checkpoint_wal_row_per_backend_and_factor
# (crates/bench/src/lib.rs).

echo "== obs: traced serve-bench smoke =="
cargo run --release -q -p xac-net --bin xmlac -- serve-bench \
    --schema data/hospital.dtd --policy data/hospital.pol --doc data/figure2.xml \
    --query "//patient/name" --readers 2 --reads 50 --delete "//regular" \
    --trace-out target/obs_trace.json --metrics-out target/obs_metrics.prom \
    > /dev/null
test -s target/obs_trace.json
test -s target/obs_metrics.prom

echo "== obs: exporter output validates (Prometheus exposition + trace JSON) =="
cargo run --release -q -p xac-net --bin xmlac -- obs check \
    --metrics target/obs_metrics.prom --trace target/obs_trace.json

echo "== obs: figures artifact (includes <2% tracing-off overhead assert) =="
cargo run --release -q -p xac-bench --bin figures -- obs
test -s BENCH_obs.json
# The wire-propagation rows (trace context on vs off over loopback, with
# the in-run <3% overhead assert) and the per-phase wire breakdown are
# checked by the tier-1 test
# tracked_obs_artifact_has_the_wire_propagation_and_phase_rows
# (crates/bench/src/lib.rs).

echo "== analyze: every checked-in policy passes the verifier gate =="
# Intentionally dirty fixtures are allowlisted with the exit code and
# diagnostic codes they are expected to produce; everything else must be
# clean under --deny warn.
for pol in data/*.pol examples/policies/*.pol; do
    case "$pol" in
    examples/policies/flawed_all5.pol)
        # Must fail with errors (exit 5) and report all five codes.
        out=$(cargo run --release -q -p xac-net --bin xmlac -- analyze \
            --policy "$pol" --schema data/hospital.dtd --format json \
            --deny warn) && {
            echo "ci.sh: $pol unexpectedly passed the analyzer"
            exit 1
        }
        status=$?
        if [ "$status" -ne 5 ]; then
            echo "ci.sh: $pol exited $status, expected 5"
            exit 1
        fi
        for code in XA001 XA002 XA003 XA004 XA005; do
            case "$out" in
            *"$code"*) ;;
            *)
                echo "ci.sh: $pol report is missing $code"
                exit 1
                ;;
            esac
        done
        ;;
    examples/policies/repairable.pol)
        # One finding per repair kind; the dead rule makes it exit 5.
        status=0
        out=$(cargo run --release -q -p xac-net --bin xmlac -- analyze \
            --policy "$pol" --schema data/hospital.dtd --format json \
            --deny warn) || status=$?
        if [ "$status" -ne 5 ]; then
            echo "ci.sh: $pol exited $status, expected 5"
            exit 1
        fi
        for code in XA001 XA002 XA003 XA004; do
            case "$out" in
            *"$code"*) ;;
            *)
                echo "ci.sh: $pol report is missing $code"
                exit 1
                ;;
            esac
        done
        ;;
    *)
        cargo run --release -q -p xac-net --bin xmlac -- analyze \
            --policy "$pol" --schema data/hospital.dtd --deny warn > /dev/null
        ;;
    esac
done

echo "== analyze: verified repair synthesis (--fix end-to-end) =="
# Repair the flawed fixture in place (on a copy): the synthesizer must
# clear the dead and shadowed rules, each edit verified by incremental
# re-analysis and differential annotation on all three backends, and the
# repaired file must then re-analyze clean under --deny warn.
cp examples/policies/flawed_all5.pol target/ci_repair.pol
cargo run --release -q -p xac-net --bin xmlac -- analyze \
    --policy target/ci_repair.pol --schema data/hospital.dtd \
    --doc data/figure2.xml --deny warn --fix > /dev/null
cargo run --release -q -p xac-net --bin xmlac -- analyze \
    --policy target/ci_repair.pol --schema data/hospital.dtd \
    --deny warn > /dev/null
# A --dry-run over the repairable fixture must reproduce the checked-in
# golden diff (headers carry the path, so compare from the first hunk).
dry=0
cargo run --release -q -p xac-net --bin xmlac -- analyze \
    --policy examples/policies/repairable.pol --schema data/hospital.dtd \
    --doc data/figure2.xml --deny warn --fix-level info --dry-run \
    --out target/ci_repairable_report.txt \
    > target/ci_repairable.diff 2> /dev/null || dry=$?
if [ "$dry" -ne 5 ]; then
    echo "ci.sh: repairable dry-run exited $dry, expected 5 (file untouched)"
    exit 1
fi
tail -n +3 target/ci_repairable.diff > target/ci_repairable.hunks
tail -n +3 tests/golden/repairable_fix.diff > target/ci_repairable_golden.hunks
if ! cmp -s target/ci_repairable.hunks target/ci_repairable_golden.hunks; then
    echo "ci.sh: repairable dry-run diff diverges from tests/golden/repairable_fix.diff"
    exit 1
fi

echo "== analyze: dynamic trigger-soundness audit on the paper instance =="
cargo run --release -q -p xac-net --bin xmlac -- analyze \
    --policy data/hospital.pol --schema data/hospital.dtd \
    --doc data/figure2.xml --format json --deny warn \
    --out target/analyze_hospital.json
grep -q '"missed": 0' target/analyze_hospital.json
grep -q '"sound": true' target/analyze_hospital.json

echo "== analyze: figures artifact =="
# The binary itself asserts the >= 5x incremental speedup at the largest
# ladder size and that the repaired fixture re-analyzes to exit 0; the
# tier-1 test `tracked_analyze_artifact_has_sound_incremental_and_repair_rows`
# checks the tracked artifact's row families.
cargo run --release -q -p xac-bench --bin figures -- analyze
test -s BENCH_analyze.json

echo "== net: loopback smoke (server + client, exit-code contract) =="
# A real server process on a free port, exercised by real client
# processes: a read (exit 0), a guarded write (exit 0), and a
# role-denied write attempt (exit 7).
rm -f target/net_addr.txt
cargo run --release -q -p xac-net --bin xmlac -- serve \
    --schema data/hospital.dtd --policy data/hospital.pol --doc data/figure2.xml \
    --addr-file target/net_addr.txt --linger-ms 30000 > /dev/null &
server_pid=$!
tries=0
while [ ! -s target/net_addr.txt ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "ci.sh: server never wrote its address file"
        exit 1
    fi
    sleep 0.1
done
addr=$(cat target/net_addr.txt)
cargo run --release -q -p xac-net --bin xmlac -- client \
    --addr "$addr" --query "//patient/name" status > /dev/null
cargo run --release -q -p xac-net --bin xmlac -- client \
    --addr "$addr" --role writer --delete "//regular" > /dev/null
denied=0
cargo run --release -q -p xac-net --bin xmlac -- client \
    --addr "$addr" --role reader --delete "//med" > /dev/null 2>&1 || denied=$?
if [ "$denied" -ne 7 ]; then
    echo "ci.sh: denied-role client exited $denied, expected 7"
    exit 1
fi

echo "== net: admin telemetry plane (scrape + tail + top over the wire) =="
# An admin scrape must carry the per-verb wire histograms with trace-id
# exemplars, validate as Prometheus exposition, and be refused for a
# reader with the role exit code.
cargo run --release -q -p xac-net --bin xmlac -- client \
    --addr "$addr" --role admin scrape --scrape-out target/net_scrape.prom \
    > /dev/null
test -s target/net_scrape.prom
grep -q 'xac_net_request_us_bucket{verb=' target/net_scrape.prom
grep -q '# {trace_id="' target/net_scrape.prom
cargo run --release -q -p xac-net --bin xmlac -- obs check \
    --metrics target/net_scrape.prom > /dev/null
scrape_denied=0
cargo run --release -q -p xac-net --bin xmlac -- client \
    --addr "$addr" --role reader scrape > /dev/null 2>&1 || scrape_denied=$?
if [ "$scrape_denied" -ne 7 ]; then
    echo "ci.sh: denied-role scrape exited $scrape_denied, expected 7"
    exit 1
fi
# The admin wire plane also serves the policy linter: an admin analyze
# of the live (clean) hospital policy reports zero repairs, and a reader
# is refused with the role exit code.
cargo run --release -q -p xac-net --bin xmlac -- client \
    --addr "$addr" --role admin --fix analyze | grep -q 'verified repair'
analyze_denied=0
cargo run --release -q -p xac-net --bin xmlac -- client \
    --addr "$addr" --role reader analyze > /dev/null 2>&1 || analyze_denied=$?
if [ "$analyze_denied" -ne 7 ]; then
    echo "ci.sh: denied-role analyze exited $analyze_denied, expected 7"
    exit 1
fi
# One `top` sample renders the reconstructed quantile table, and the
# flight tail shows the served requests with their phase breakdown.
cargo run --release -q -p xac-net --bin xmlac -- top \
    --addr "$addr" --iterations 1 | grep -q 'p999_us'
cargo run --release -q -p xac-net --bin xmlac -- client \
    --addr "$addr" --role admin tail --last 8 | grep -q 'flight records'
wait "$server_pid"

echo "== net: wire bench artifact =="
cargo run --release -q -p xac-net --bin xmlac -- serve-bench \
    --schema data/hospital.dtd --policy data/hospital.pol --doc data/figure2.xml \
    --query "//patient/name" --query "//med" --net 3 --reads 50 \
    --delete "//regular" --out BENCH_net.json > /dev/null
test -s BENCH_net.json

echo "== size: non-test lines per crate (report only; ROADMAP aim 2) =="
sh scripts/loc.sh

echo "ci.sh: all green"
