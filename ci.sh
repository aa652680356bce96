#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build + test pass.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The ingestion, mining, and graph libraries are panic-audited:
# unwrap/expect are denied, with `#[allow]` + a justification comment
# at the few provably infallible sites. Lib targets only — tests and
# benches may unwrap freely.
echo "==> panic audit: clippy -D clippy::unwrap_used -D clippy::expect_used (log, core, graph)"
cargo clippy -p procmine-log -p procmine-core -p procmine-graph --lib --no-deps -- \
  -D warnings -D clippy::unwrap_used -D clippy::expect_used

# The `*_instrumented` twin API is gone (its one-release grace period
# ended with the compat modules' removal) and must not regrow. The CLI
# must likewise build its telemetry through `MineSession` rather than
# wiring sinks and tracers by hand (`Tracer::default()` is the disabled
# tracer under another name).
echo "==> deprecation lane: no *_instrumented identifiers anywhere"
bad_shims=$(grep -rn --include='*.rs' '_instrumented' crates src tests || true)
if [ -n "$bad_shims" ]; then
  echo "*_instrumented identifiers reappeared (the twin API is retired):" >&2
  echo "$bad_shims" >&2
  exit 1
fi
cli_raw_telemetry=$(grep -rn --include='*.rs' -E 'NullSink|Tracer::(disabled|default)\(\)' crates/cli/src || true)
if [ -n "$cli_raw_telemetry" ]; then
  echo "CLI constructs sinks/tracers directly instead of using MineSession:" >&2
  echo "$cli_raw_telemetry" >&2
  exit 1
fi
echo "==> deprecation lane: retired ingestion/wrapper APIs, one Flowmark and one XES decoder, a copy-free follow loop"
# Retired ingestion and wrapper APIs must not regrow: the contiguous
# `ExecutionStream` reader (and its `ReopenedCase` error) behind the
# removed `mine --stream`, the `mine_general_dag_parallel` wrapper
# over `MineSession::with_threads`, the `WallStage` barrier timer
# (`run_stage` frames fanned-out stages too), the two env knobs
# that overrode the parallel thresholds (tune the constants instead),
# `locate_diagnostic`, which guessed a diagnostic's record by kind,
# activity and time (`assemble_case` returns the exact index), the
# codecs' `read_log_with_stats` wrappers (call `read_log_with`),
# `assemble_records`, the record-keyed batch assembly (every reader
# assembles through the one event table), `IncrementalMiner` with
# its `MinerState` (`OnlineMiner` is the one absorbing miner and
# `OnlineMinerState` its one checkpoint state), and the chunked
# parallel XES decode with its threshold (`xes::read_log_with` is the
# one XES decoder).
retired=$(grep -rnw --include='*.rs' \
  -E 'ExecutionStream|ReopenedCase|mine_general_dag_parallel|WallStage|PROCMINE_PARALLEL_MIN_VERTICES|PROCMINE_PARALLEL_XES_MIN_BYTES|locate_diagnostic|read_log_with_stats|assemble_records|IncrementalMiner|MinerState|read_log_with_threads|read_log_with_threads_min_bytes|PARALLEL_XES_MIN_BYTES|parallel_parse|merge_chunks' \
  crates src tests examples || true)
if [ -n "$retired" ]; then
  echo "retired APIs reappeared:" >&2
  echo "$retired" >&2
  exit 1
fi
# Stage functions take the session, and CLI commands their frame, not
# their parts: no argument tuple long enough to need clippy's
# `too_many_arguments` allowance.
long_args=$(grep -rn --include='*.rs' 'too_many_arguments' crates/core/src crates/cli/src || true)
if [ -n "$long_args" ]; then
  echo "a too_many_arguments allowance regrew (pass the session or command frame instead):" >&2
  echo "$long_args" >&2
  exit 1
fi
# One Flowmark line decoder: `parse_event_line` is called only by
# `FlowmarkSource` and the flowmark unit tests (below `#[cfg(test)]`).
# The batch reader takes borrowed fields from the source: outside its
# tests, flowmark.rs neither calls `next_event` nor builds an
# `EventRecord` (owned records are for library callers that hold
# events; `mine --follow` takes borrowed fields too). Likewise the XES
# reader interns each event into the event table as it closes: outside
# its tests, xes.rs names no `EventRecord`. And the follow loop in the
# CLI hands each line's fields to the case assembler with
# `FlowmarkSource::feed` and saves checkpoints from the live miner
# (`OnlineMiner::state_view`): it calls neither `next_event` nor the
# miner's `export_state`.
extra_decoders=$(
  grep -rn --include='*.rs' 'parse_event_line' crates src tests \
    | grep -v -e '^crates/log/src/stream/source.rs:' -e '^crates/log/src/codec/flowmark.rs:' || true
  awk '/^#\[cfg\(test\)\]/ { exit }
       (/parse_event_line\(/ && !/fn parse_event_line/) || /next_event|EventRecord/ {
         print FILENAME ":" FNR ": " $0 }' \
    crates/log/src/codec/flowmark.rs
  awk '/^#\[cfg\(test\)\]/ { exit }
       /EventRecord/ { print FILENAME ":" FNR ": " $0 }' \
    crates/log/src/codec/xes.rs
  grep -rnE '\bnext_event\b|\bminer\.export_state\b' crates/cli/src || true
)
if [ -n "$extra_decoders" ]; then
  echo "a second Flowmark decode path (parse_event_line outside FlowmarkSource, or records in the batch reader), records in the XES reader, or owned records or a copied miner in the CLI follow loop:" >&2
  echo "$extra_decoders" >&2
  exit 1
fi

# Public docs must build without warnings: no links to private items,
# no broken or redundant link targets.
echo "==> docs: RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps"
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# Tier-1's `cargo test -q` runs only the root `procmine` facade's
# tests. The workspace crates carry their own unit, differential,
# property and CLI tests; run them all.
echo "==> workspace crates: cargo test -q --workspace --exclude procmine"
cargo test -q --workspace --exclude procmine

# The benchmark harness is a package of its own that builds the
# library crates by path, outside the workspace, so tier-1 cannot see
# an API change that breaks it. Build and test it against this tree,
# sharing target/ as its run.sh does.
echo "==> benchmark package: cargo test against the workspace crates"
CARGO_TARGET_DIR="$PWD/target" cargo test -q \
  --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

# Benchmark output lane: one-second untraced runs of all four
# workloads through the release binary. The harness checks every
# invocation's edges against `core::reference`, which marks every
# execution, so this checks set-keyed marking end to end at T = 1 on
# logs whose executions all share one activity set. batch-narrow is the
# one workload that reads Flowmark through the batch reader.
# follow-narrow is the only workload whose case assembler evicts (each
# of its ~79 000 evictions must be balanced) and that saves
# checkpoints: the harness fails an invocation on any incomplete
# eviction, and on a final checkpoint that `FollowCheckpoint::load`
# (which verifies the CRC) refuses.
echo "==> benchmark output lane: every workload matches the reference"
for workload in follow-wide batch-wide follow-narrow batch-narrow; do
  result=$(bash crates/bench/src/bin/benchmark/run.sh \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  if ! grep -q '"correct":true' <<<"$result" || ! grep -q '"failed":0[,}]' <<<"$result"; then
    echo "benchmark $workload: an invocation failed or diverged from the reference:" >&2
    echo "$result" >&2
    exit 1
  fi
done

echo "==> corruption smoke subset"
cargo test -q --test corruption smoke_

# Streaming smoke: pipe a generated log through `mine --follow -` and
# require the exact edge set of the batch miner, plus an ingest section
# in the stats report. Guards the online pipeline end to end (source →
# assembler → online miner → CLI surface).
echo "==> streaming smoke: mine --follow parity with batch"
cargo build --release -q -p procmine-cli
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/procmine generate --preset graph10 --executions 150 --seed 11 \
  -o "$smoke_dir/follow.fm" >/dev/null
./target/release/procmine mine "$smoke_dir/follow.fm" \
  | grep -E '^  .* -> ' | sort > "$smoke_dir/batch.edges"
./target/release/procmine mine --follow - --stats-json "$smoke_dir/follow-stats.json" \
  < "$smoke_dir/follow.fm" \
  | grep -E '^  .* -> ' | sort > "$smoke_dir/follow.edges"
if ! diff -u "$smoke_dir/batch.edges" "$smoke_dir/follow.edges"; then
  echo "mine --follow diverged from batch mining on the smoke log" >&2
  exit 1
fi
grep -q '"cases_evicted"' "$smoke_dir/follow-stats.json" || {
  echo "follow stats-json is missing the ingest section" >&2
  exit 1
}

# Crash-recovery smoke: SIGKILL a checkpointing `mine --follow` mid
# stream, let the log keep growing, resume from the checkpoint, and
# require the exact edge set of batch-mining the whole log. Guards the
# checkpoint/resume path end to end (atomic save → kill → load →
# validate → seek → continue).
echo "==> crash-recovery smoke: SIGKILL mid-follow, resume, diff vs batch"
./target/release/procmine generate --preset graph10 --executions 300 --seed 17 \
  -o "$smoke_dir/crash.fm" >/dev/null
# Split at a case boundary so the torn tail is growth, not corruption.
half=$(( $(wc -l < "$smoke_dir/crash.fm") / 2 ))
head -n "$half" "$smoke_dir/crash.fm" > "$smoke_dir/crash-live.fm"
first_case=$(head -n 1 "$smoke_dir/crash.fm" | cut -d, -f1)
./target/release/procmine mine --follow "$smoke_dir/crash-live.fm" \
  --idle-ms 30000 --poll-ms 20 \
  --checkpoint "$smoke_dir/crash.ckpt" --checkpoint-every 40 \
  >/dev/null 2>"$smoke_dir/crash.follow.err" &
follow_pid=$!
# Wait for the first checkpoint to land, then kill without warning.
for _ in $(seq 1 100); do
  [ -f "$smoke_dir/crash.ckpt" ] && break
  sleep 0.1
done
if ! [ -f "$smoke_dir/crash.ckpt" ]; then
  echo "follow session never wrote a checkpoint" >&2
  cat "$smoke_dir/crash.follow.err" >&2
  kill -9 "$follow_pid" 2>/dev/null || true
  exit 1
fi
kill -9 "$follow_pid" 2>/dev/null || true
wait "$follow_pid" 2>/dev/null || true
# The log keeps growing while the miner is down.
tail -n +"$(( half + 1 ))" "$smoke_dir/crash.fm" >> "$smoke_dir/crash-live.fm"
./target/release/procmine mine --follow "$smoke_dir/crash-live.fm" \
  --checkpoint "$smoke_dir/crash.ckpt" --checkpoint-every 40 \
  2>"$smoke_dir/crash.resume.err" \
  | grep -E '^  .* -> ' | sort > "$smoke_dir/crash-resumed.edges"
grep -q 'resuming from checkpoint @ byte' "$smoke_dir/crash.resume.err" || {
  echo "resumed session did not report the checkpoint resume:" >&2
  cat "$smoke_dir/crash.resume.err" >&2
  exit 1
}
./target/release/procmine mine "$smoke_dir/crash.fm" \
  | grep -E '^  .* -> ' | sort > "$smoke_dir/crash-batch.edges"
if ! diff -u "$smoke_dir/crash-batch.edges" "$smoke_dir/crash-resumed.edges"; then
  echo "resumed mine --follow diverged from batch mining after SIGKILL" >&2
  exit 1
fi

# Perf-regression smoke: run the fixed scenario matrix once in smoke
# mode, validate the report against the perfsuite schema, and let the
# binary's built-in disabled-tracer overhead guard gate the run. The
# report lands in target/ci-artifacts/ for the workflow to upload.
echo "==> perfsuite smoke + schema validation"
mkdir -p target/ci-artifacts
cargo run --release -q -p procmine-bench --bin perfsuite -- \
  --smoke --out target/ci-artifacts/BENCH_perfsuite_smoke.json
cargo run --release -q -p procmine-bench --bin perfsuite -- \
  --check-schema target/ci-artifacts/BENCH_perfsuite_smoke.json

# Codec fast-path gate: on the committed baseline, decoding XES may
# cost at most 2x decoding JSONL. Checked against the repo's
# BENCH_perfsuite.json (not a fresh run) so the gate is deterministic.
echo "==> codec fast-path gate: codec.xes within 2x of codec.jsonl"
cargo run --release -q -p procmine-bench --bin perfsuite -- \
  --assert-xes-ratio BENCH_perfsuite.json

# Checkpoint overhead gate: on the committed baseline, the cadenced
# atomic checkpoint saves may cost the follow pipeline at most 10%
# over plain streaming (stream.checkpoint vs stream.mine, per pass).
echo "==> checkpoint overhead gate: stream.checkpoint within 1.1x of stream.mine"
cargo run --release -q -p procmine-bench --bin perfsuite -- \
  --assert-checkpoint-ratio BENCH_perfsuite.json

# Columnar data-layer gate: on the committed baseline, the columnar
# mine.general path must sit at or below parity with the retained
# nested-Vec reference implementation (mine.columnar_ratio <= 1000
# milli-units) — the layout refactor may never cost throughput.
echo "==> columnar layout gate: mine.general within 1.0x of mine.legacy"
cargo run --release -q -p procmine-bench --bin perfsuite -- \
  --assert-columnar-ratio BENCH_perfsuite.json

# Metrics lane: run the follow pipeline with cadenced --metrics-every
# exports over a case-boundary prefix of a log and then the full log
# (the second run reprocesses a superset from scratch, so every counter
# is deterministically >= the first scrape), then validate with the
# in-repo checker: exposition shape (HELP/TYPE per family, no duplicate
# series, every counter family named `…_total`), counter monotonicity
# across the two scrapes, and the JSON snapshot against its schema.
echo "==> metrics lane: follow --metrics-every + exposition/schema validation"
./target/release/procmine generate --preset graph10 --executions 200 --seed 23 \
  -o "$smoke_dir/metrics.fm" >/dev/null
total=$(wc -l < "$smoke_dir/metrics.fm")
half=$(( total / 2 ))
# Cut at the next case boundary so the prefix holds only whole cases.
cut_line=$(awk -F, -v h="$half" 'NR<=h {prev=$1; next} $1!=prev {print NR-1; exit}' \
  "$smoke_dir/metrics.fm")
head -n "${cut_line:-$total}" "$smoke_dir/metrics.fm" > "$smoke_dir/metrics-prefix.fm"
./target/release/procmine mine --follow "$smoke_dir/metrics-prefix.fm" \
  --metrics "$smoke_dir/scrape1.prom" --metrics-every 50 >/dev/null
./target/release/procmine mine --follow "$smoke_dir/metrics.fm" \
  --metrics "$smoke_dir/scrape2.prom" --metrics-every 50 >/dev/null
./target/release/procmine report "$smoke_dir/scrape1.prom" --validate
./target/release/procmine report "$smoke_dir/scrape2.prom" \
  --prev "$smoke_dir/scrape1.prom" --validate
./target/release/procmine mine --follow "$smoke_dir/metrics.fm" \
  --metrics "$smoke_dir/metrics-snapshot.json" --metrics-every 50 >/dev/null
./target/release/procmine report "$smoke_dir/metrics-snapshot.json" --validate

echo "ci: OK"
