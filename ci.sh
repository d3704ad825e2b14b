#!/usr/bin/env bash
# Local CI gate: run exactly what .github/workflows/ci.yml runs, plus the
# local-only bench regression gate (hosted runners are too noisy for
# wall-clock assertions, so the gate lives here; POLYSIG_BENCH_GATE=skip
# bypasses it, e.g. on a loaded machine).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc: every intra-doc link resolves and points at public items"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo check perfbench (a workspace of its own, so the steps above never build it)"
cargo check --locked --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> polysig-lint --deny warnings over the shipped programs"
cargo build -q --release --bin polysig-lint
./target/release/polysig-lint --deny warnings \
  --waivers programs/lint.waivers programs/*.sig

echo "==> examples: each checks itself with assert!, so the exit status is the check"
for example in quickstart producer_consumer multirate_sampler gals_pipeline split_and_deploy; do
  cargo run -q --release --example "$example" > /dev/null
done

echo "==> fuzz smoke: corpus replay + 200 generated cases per shape, fixed seed"
POLYSIG_FUZZ_SEED=1 POLYSIG_FUZZ_CASES=200 \
  cargo test -q --release --test fuzz_conformance

echo "==> federated soak: 4 federates x 250k instants, streaming counters, no trace recording"
POLYSIG_SOAK=1 cargo test -q --release --test federated_runtime \
  soak_long_horizon_streams_counters

echo "==> serve smoke: a 10 000-deep frame, a 1 000-deep parse and a 5 000-term lint, then 64 requests at concurrency 8, one adversarial, against a live server"
cargo build -q --release --bin polysig-serve
smoke_dir="$(mktemp -d)"
./target/release/polysig-serve serve --addr 127.0.0.1:0 \
  --port-file "$smoke_dir/port" --max-instants 64 &
serve_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$smoke_dir/port" ]] && break
  kill -0 "$serve_pid" 2> /dev/null || { echo "serve smoke: server died"; exit 1; }
  sleep 0.1
done
[[ -s "$smoke_dir/port" ]] || { echo "serve smoke: server never wrote its port"; exit 1; }
# a frame nested 10 000 levels deep, a parse request nested 1 000
# parentheses deep and a lint request summing 5 000 terms must each get a
# structured answer; the load step's `transport_errors 0` then shows the
# server survived them
python3 tools/serve_hostile_frame.py "$(cat "$smoke_dir/port")" \
  || { kill "$serve_pid" 2> /dev/null; echo "serve smoke: hostile input not answered"; exit 1; }
smoke_out="$(./target/release/polysig-serve load \
  --addr "127.0.0.1:$(cat "$smoke_dir/port")" \
  --requests 64 --concurrency 8 --adversarial 1 --adversarial-instants 128)" \
  || true # a transport failure leaves the report empty; the greps catch it
kill "$serve_pid" 2> /dev/null || true
echo "$smoke_out"
# the workload is deterministic, so the report is assertable: every frame
# answered, and exactly the one adversarial request breaches its budget
grep -q 'transport_errors 0 ' <<< "$smoke_out" \
  || { echo "serve smoke: transport errors"; exit 1; }
grep -q 'budget_exceeded 1$' <<< "$smoke_out" \
  || { echo "serve smoke: want exactly one budget breach"; exit 1; }
grep -q 'source_errors 0 ' <<< "$smoke_out" \
  || { echo "serve smoke: source errors"; exit 1; }
rm -rf "$smoke_dir"

echo "==> federated smoke: 3-stage pipeline, 2000 activations, capacity 4"
cargo build -q --release --bin polysig_cli
fed_out="$(./target/release/polysig_cli federated 3 2000 4)"
echo "$fed_out" | tail -n 2
grep -q 'OK: every value delivered, every thread joined' <<< "$fed_out" \
  || { echo "federated smoke: self-check failed"; exit 1; }

echo "==> federated --check preflight: pass path (pipeline launches) and refuse path (PA008 ring)"
fed_out="$(./target/release/polysig_cli federated 3 2000 4 --check)"
echo "$fed_out" | tail -n 2
grep -q 'preflight: deadlock-free' <<< "$fed_out" \
  || { echo "federated --check: expected a deadlock-free preflight"; exit 1; }
grep -q 'OK: every value delivered, every thread joined' <<< "$fed_out" \
  || { echo "federated --check: pass path did not complete"; exit 1; }
if fed_out="$(./target/release/polysig_cli federated 3 200 4 --ring --all-data-driven --check 2>&1)"; then
  echo "federated --check: the all-data-driven ring must be refused"; exit 1
fi
grep -q 'PA008' <<< "$fed_out" \
  || { echo "federated --check: the refusal must cite PA008"; exit 1; }
grep -q 'preflight refused the launch' <<< "$fed_out" \
  || { echo "federated --check: expected a preflight refusal"; exit 1; }

echo "==> polysig-lint --deny warnings over a generated ring corpus (documented waivers)"
ring_corpus="$(mktemp -d)"
cargo run -q --release -p polysig-gen --bin gen_corpus -- \
  --shape ring --count 32 --seed 1 --out "$ring_corpus"
./target/release/polysig-lint --deny warnings \
  --waivers programs/ring.waivers "$ring_corpus"/*.sig > /dev/null

echo "==> polysig-lint --json: one parseable document per file, shipped programs and ring corpus"
check_json='import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert len(lines) == int(sys.argv[2]), f"{len(lines)} documents for {sys.argv[2]} files"
for line in lines:
    json.loads(line)'
json_out="$ring_corpus/lint.json"
./target/release/polysig-lint --json --waivers programs/lint.waivers programs/*.sig > "$json_out"
python3 -c "$check_json" "$json_out" "$(ls programs/*.sig | wc -l)"
./target/release/polysig-lint --json \
  --waivers programs/ring.waivers "$ring_corpus"/*.sig > "$json_out"
python3 -c "$check_json" "$json_out" "$(ls "$ring_corpus"/*.sig | wc -l)"
rm -rf "$ring_corpus"

if [[ "${POLYSIG_BENCH_GATE:-run}" == "skip" ]]; then
  echo "==> bench regression gate: skipped (POLYSIG_BENCH_GATE=skip)"
else
  echo "==> bench regression gate (>30% vs BENCH_summary.json baseline fails)"
  # Two full passes, gated on the per-id minimum. Benches run with ASLR
  # disabled: address-layout randomization aliases hot loops into fast or
  # slow cache/predictor placements per *process*, which swings individual
  # ids 2-3× either way run-to-run and would drown the 30% threshold
  # (measured: exec_fig2 31-78µs across layouts, ±3% within one). On top
  # of that the criterion shim speed-calibrates every sample against a
  # fixed spin loop, cancelling host frequency drift; the min then
  # absorbs residual scheduler noise.
  aslr_off=""
  command -v setarch > /dev/null && aslr_off="setarch $(uname -m) -R"
  scratch1="$(mktemp -u)" scratch2="$(mktemp -u)"
  trap 'rm -f "$scratch1" "$scratch2"' EXIT
  for scratch in "$scratch1" "$scratch2"; do
    for bench in verify_alarm fig2_one_place_buffer buffer_estimation static_analysis compiled_exec serve federated; do
      BENCH_SUMMARY_PATH="$scratch" $aslr_off cargo bench -q -p polysig-bench --bench "$bench" \
        > /dev/null
    done
  done
  python3 tools/bench_gate.py BENCH_summary.json "$scratch1" "$scratch2"
fi

echo "CI green."
