#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, clippy with warnings
# denied, and the seeded crash-recovery suite under a pinned fault
# schedule. Everything runs offline against the vendored dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --workspace --offline
# Fixed thread count: the default is the CPU count, which hides shared-temp-dir races on 1 CPU.
cargo test -q --offline --test plfsctl_cli -- --test-threads=4
cargo clippy --workspace --offline -- -D warnings

# Docs are part of the contract: rustdoc must build warning-clean
# (missing_docs is deny-by-lint in crates/core) and every doctest in
# the public API must pass.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
cargo test -q --doc --offline --workspace

# Pedantic subset on the crates that ship in the I/O path: unwrap() is
# banned outright there (tests are cfg'd out of --lib/--bins).
cargo clippy --offline -p plfs -p formats -p harness -p mpio -p plfs-lint \
    -p transformative-io --lib --bins -- -D warnings -D clippy::unwrap_used

# Workspace invariant checker (DESIGN.md §5d): zero unannotated
# findings, no malformed/unknown/unused pragmas, and the per-rule
# pragma budget in results/lint_baseline.md only ratchets down. The
# scan covers crates/ and src/ (src/bin/ included) with every rule,
# plus top-level tests/ and examples/ with the semantic ticket rules
# (§5d), checked against the DESIGN.md §5d–§5f and §5i tables.
cargo run --release --offline --bin plfsctl -- lint --deny-warnings \
    --baseline results/lint_baseline.md

# I/O-plane op-count ratchet (DESIGN.md §5e): per-profile backend op
# and round-trip counts must not exceed results/io_plane.md. The
# budget only ratchets down; regenerate with `io_plane --write` after
# a deliberate improvement.
cargo run --release --offline --bin io_plane -- --check results/io_plane.md

# Asynchronous-plane overlap ratchet (DESIGN.md §5h): the write-behind
# and read-open panels must keep beating their synchronous twins, and
# the overlap ratio (1 - blocked/total) must stay above the committed
# floor in results/io_async.md. The floor only ratchets up; regenerate
# with `io_plane --async --write` after a deliberate improvement.
cargo run --release --offline --bin io_plane -- --async --check results/io_async.md

# Crash-recovery under a fixed fault seed: the schedule replays
# byte-identically, so any recovery regression reproduces exactly.
PLFS_FAULT_SEED=3405691582 cargo test -q --offline --test crash_recovery

# 65,536-rank engine-scale ratchet (DESIGN.md §5g): event and
# peak-live budgets only ratchet down, events/s and the seed-vs-rebuilt
# dispatch-stack ratio only ratchet up, against results/sim_scale.md.
# Regenerate with `sim_scale --write` after a deliberate improvement.
cargo run --release --offline -p plfs-bench --bin sim_scale -- \
    --check results/sim_scale.md

# Memory-bounded read ratchet (DESIGN.md §5j): a 10M-entry read-open in
# a re-executed child must keep peak RSS under the committed ceiling and
# its backend round trips must not grow, against results/read_mem.md.
# Regenerate with `read_mem --write` after a deliberate improvement.
cargo run --release --offline --bin read_mem -- --check results/read_mem.md

# Service-layer scale ratchet (DESIGN.md §5k): 1,024 simulated clients
# through one shared Service in a re-executed child must sustain the
# committed ops/sec floor and stay under the p99-latency and peak-RSS
# ceilings in results/svc_scale.md. Regenerate with `svc_scale --write`
# after a deliberate improvement.
cargo run --release --offline --bin svc_scale -- --check results/svc_scale.md
