# Verification entry points for the edge-coloring reproduction workspace.

.PHONY: verify verify-fast build test clippy fmt examples doc perfbench-check pin-rr16 bench bench-smoke bench-regression bench-rounds bench-io snapshot-fuzz serve-smoke serve-pipeline-smoke serve-fuzz

# The full gate: tier-1 (release build + tests) plus lints, formatting,
# example compilation, the rustdoc gate and the benchmark's correctness
# gate.
verify: build test clippy fmt examples doc perfbench-check

# The inner-loop gate: build + tier-1 tests only (no clippy/fmt/doc/example
# compilation). Use while iterating; run `make verify` before pushing.
verify-fast: build test

build:
	cargo build --release

test:
	cargo test -q

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

fmt:
	cargo fmt --check

examples:
	cargo build --examples

# Rustdoc must stay warning-free (missing docs, broken intra-doc links).
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The benchmark's correctness gate: the perfbench smoke tests run every
# workload briefly and fail unless its output is proper, complete, within
# 2Δ−1 colors and identical on every repeat (perfbench is a workspace of
# its own, so the root `cargo test` does not reach it).
perfbench-check:
	cargo test --offline --release --manifest-path perfbench/Cargo.toml

# The release-mode pin of the benchmark instance: the ignored tests, among
# them the `color_rr16` coloring of random_regular(65536,16,1) checked
# against its recorded fingerprint, rounds, messages, bits and colors.
pin-rr16:
	cargo test --release -- --ignored

# The measured baseline: quick E1–E11 sweeps plus the full-size SCALE
# experiment (million-edge graphs at 1/2/4/8 threads), the DYN dynamic
# recoloring experiment (million-edge update streams), the FAULT
# adversary experiment (delivery losses + recovery cost), the IO
# out-of-core experiment (snapshot load paths + locality reordering) and
# the SERVE daemon experiment (concurrent seeded read/write mix with replay
# audit, including the million-edge serving row), serialized to
# BENCH_1.json at the repo root (schema: docs/BENCH_SCHEMA.md).
bench:
	cargo run --release -p edgecolor-bench --bin experiments -- quick scale dyn fault io serve --emit-json BENCH_1.json

# CI-sized variant: tiny sweeps and down-scaled SCALE/DYN graphs
# (FAULT and IO always run their baseline-comparable configurations;
# SERVE keeps its small-torus row and skips the million-edge row).
bench-smoke:
	cargo run --release -p edgecolor-bench --bin experiments -- smoke scale dyn fault io serve --emit-json /tmp/bench.json

# The regression gate: the smoke run diffed against the committed
# BENCH_1.json under the tolerance table of crates/bench/src/regression.rs.
# Fails on any deterministic-field mismatch; the diff lands in
# /tmp/bench-regression-diff.txt (CI uploads it as an artifact).
bench-regression:
	cargo run --release -p edgecolor-bench --bin experiments -- smoke scale dyn fault io serve --emit-json /tmp/bench.json --check-baseline BENCH_1.json --diff-out /tmp/bench-regression-diff.txt

# The IO gate on its own: the out-of-core load paths (text parse vs binary
# decode vs zero-copy open, plus reorder on/off) diffed against the
# committed baseline — including the ≥ 10× million-edge-torus cold-start
# floor. The diff lands in /tmp/bench-io-diff.txt.
bench-io:
	cargo run --release -p edgecolor-bench --bin experiments -- io --emit-json /tmp/bench-io.json --check-baseline BENCH_1.json --diff-out /tmp/bench-io-diff.txt

# The snapshot corruption battery: round-trip + corruption proptests of the
# binary snapshot codec (truncation, bit flips, forged checksums → typed
# errors, zero panics) with committed proptest seeds, plus the reorder
# determinism battery.
snapshot-fuzz:
	cargo test --release -p diststore --test snapshot_corruption --test snapshot_roundtrip --test reorder_determinism -- --nocapture

# The serving gate: an in-process daemon + the deterministic loadgen on a
# small torus over real TCP. Fails unless qps is nonzero, zero protocol
# errors occurred, every deliberate duplicate was rejected and the final
# coloring passes the checkers (see docs/SERVE.md).
serve-smoke:
	cargo run --release -p distserve --bin serve-loadgen -- --smoke

# The v2 serving gate: one daemon serving two torus tenants, driven by
# pipelined connections spread across both graphs. Fails unless every
# tenant's admission counters match the deterministic expectation exactly
# and both final colorings pass the checkers (see docs/SERVE.md).
serve-pipeline-smoke:
	cargo run --release -p distserve --bin serve-loadgen -- --pipeline-smoke

# The serving test battery: protocol fuzz over v1 and v2 framing
# (arbitrary/truncated/mutated byte streams and handshakes → typed errors,
# zero panics, committed proptest seeds), multi-client concurrency with
# batch-log replay equivalence, multi-graph tenant isolation with
# out-of-order pipelined completion, and hot-swap epoch coherence
# (torn-read detector + corrupt-snapshot rejection).
serve-fuzz:
	cargo test --release -p distserve --test protocol_fuzz --test concurrency --test multi_graph --test hot_swap -- --nocapture

# The round-complexity gate: only E1/E2/E3 (quick-size sweeps, same rows as
# the committed baseline) with the ledger-derived columns — per-doubling
# round ratio, polylog fit exponent, dominant stage, fallback levels. Round
# counts are exact-match in the tolerance table, so any blowup in the
# defective-coloring recursion fails here with a diff that names the
# dominant recursion stage (see docs/ROUNDS.md).
bench-rounds:
	cargo run --release -p edgecolor-bench --bin experiments -- rounds --emit-json /tmp/bench-rounds.json --check-baseline BENCH_1.json --diff-out /tmp/bench-rounds-diff.txt
