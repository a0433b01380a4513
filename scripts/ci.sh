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

echo "== storage: kill-and-reopen crash sweep (operation-only wal) =="
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

# The analyzer gate over every checked-in policy (with the allowlisted
# dirty fixtures), the --fix repair, the --dry-run golden diff and the
# paper-instance audit's --out report are tier-1 tests in tests/cli.rs.

echo "== analyze: figures artifact =="
# The binary itself asserts the >= 5x incremental speedup at the largest
# ladder size and that the repaired fixture re-analyzes to exit 0; the
# tier-1 test `tracked_analyze_artifact_has_sound_incremental_and_repair_rows`
# checks the tracked artifact's row families.
cargo run --release -q -p xac-bench --bin figures -- analyze
test -s BENCH_analyze.json

# The loopback server/client exit-code contract and the admin telemetry
# plane (scrape, obs check, analyze --fix, top, tail) run as the tier-1
# test serve_answers_clients_with_the_role_exit_codes_and_the_admin_plane
# in tests/cli.rs.

echo "== net: wire bench artifact =="
cargo run --release -q -p xac-net --bin xmlac -- serve-bench \
    --schema data/hospital.dtd --policy data/hospital.pol --doc data/figure2.xml \
    --query "//patient/name" --query "//med" --net 3 --reads 50 \
    --delete "//regular" --out BENCH_net.json > /dev/null
test -s BENCH_net.json

echo "== size: non-test lines per crate (report only; ROADMAP aim 2) =="
sh scripts/loc.sh

echo "ci.sh: all green"
