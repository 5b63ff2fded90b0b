#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite (with the
# kernel objects checked for FMA instructions and the kernel-dispatch tests
# rerun under PA_SIMD scalar, avx2 and auto), a diff of both table benches'
# smoke CSVs against bench/golden/, the serving smokes and a
# short repository-benchmark run, then a
# ThreadSanitizer build of the concurrency-sensitive tests (thread pool,
# cross-thread determinism, parallel eval/training paths, the NDJSON TCP
# front-end and the sharded serving router), then an
# ASan/UBSan build of the serialization + serving + kernel-edge-case tests
# (the subsystems that parse attacker-shaped bytes, churn the session LRU,
# or run NaN/inf edge tensors through hand-dispatched SIMD loops).
#
# Usage: scripts/tier1.sh [--no-tsan]   (the flag skips both sanitizer passes)
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

# No-FMA guard: the kernel tables' bit identity rests on -ffp-contract=off,
# and -mavx512f is the first kernel flag that makes FMA instructions
# available. A fused multiply-add in any kernel object fails tier1.
kernel_objs=(build/src/tensor/CMakeFiles/pa_tensor.dir/kernels/*.o)
[[ -f ${kernel_objs[0]} ]] \
  || { echo "no kernel objects under build/src/tensor" >&2; exit 1; }
# Disassemble on its own line so that an objdump failure stops the script;
# the `|| true` only forgives grep finding nothing.
dis=$(objdump -d "${kernel_objs[@]}")
fma=$(grep -E 'vfn?m(add|sub)' <<<"$dis" || true)
if [[ -n $fma ]]; then
  echo "$fma" | head -n 5 >&2
  echo "FMA instructions in the kernel objects (see -ffp-contract=off)" >&2
  exit 1
fi
echo "kernel objects: no FMA instructions"

# The PA_SIMD values the dispatch-sensitive checks rerun under: both
# extremes, and avx2 where the CPU has it. On an AVX-512 host auto resolves
# to avx512, so the avx2 table needs its own pass.
simd_values=(scalar auto)
if grep -qw avx2 /proc/cpuinfo; then simd_values=(scalar avx2 auto); fi

# Kernel-dispatch cross-check: the tests that route through the SIMD kernel
# tables rerun under each of those values, so a bug that only manifests in
# one dispatch variant (or in the env-resolution itself) cannot hide behind
# whatever table the host auto-selected above.
for simd in "${simd_values[@]}"; do
  PA_SIMD=$simd ctest --test-dir build --output-on-failure \
    -R 'tensor_kernels_test|tensor_ops_test|tensor_inference_test|tensor_fusion_test|inference_equivalence_test'
done

# Golden smoke tables: the CSV block each table bench prints under --smoke
# must match its file in bench/golden/ byte for byte (the wall time prints
# after the block). The blocks are the same under every kernel table and
# thread count, so they are diffed under each PA_SIMD value above; a change
# that moves a number fails here until its golden file moves with it.
for simd in "${simd_values[@]}"; do
  for table in table1_gowalla table2_brightkite; do
    PA_SIMD=$simd "build/bench/bench_$table" --smoke 2>/dev/null \
      | awk '/^CSV:$/ {on = 1; next} /^$/ {on = 0} on' \
      | diff -u "bench/golden/${table}_smoke.csv" - \
      || { echo "bench_$table --smoke under PA_SIMD=$simd differs from" \
             "bench/golden/${table}_smoke.csv" >&2; exit 1; }
  done
done
echo "golden smoke tables: OK"

# Inference-path smoke: the bench binary in --smoke mode checks
# bit-identity between the graph forward and the explicit row forwards of
# the LSTM and ST-CLSTM cells (skipping the slow timed speedup gates), and bench_compare.py validates the emitted JSON
# — including the embedded obs::MetricRegistry snapshot — so a malformed
# BENCH file fails here rather than in CI diffing.
PA_BENCH_DIR=build build/bench/bench_inference_path --smoke
python3 scripts/bench_compare.py --schema build/BENCH_inference.json
# The bench times and stamps the table PA_SIMD resolves to, so an AVX-512
# host can still write an avx2 file; PA_SIMD=scalar is refused (exit 2),
# since its *_simd_speedup gates would time the scalar table against itself.
if grep -qw avx2 /proc/cpuinfo; then
  mkdir -p build/tier1_simd_avx2
  PA_SIMD=avx2 PA_BENCH_DIR=build/tier1_simd_avx2 \
    build/bench/bench_inference_path --smoke >/dev/null
  grep -q '"simd_table":"avx2"' build/tier1_simd_avx2/BENCH_inference.json \
    || { echo "PA_SIMD=avx2 bench_inference_path did not stamp avx2" >&2
         exit 1; }
  status=0
  PA_SIMD=scalar PA_BENCH_DIR=build/tier1_simd_avx2 \
    build/bench/bench_inference_path --smoke >/dev/null 2>&1 || status=$?
  [[ $status -eq 2 ]] \
    || { echo "PA_SIMD=scalar bench_inference_path exited $status, want 2" >&2
         exit 1; }
  echo "bench_inference_path: PA_SIMD=avx2 stamps avx2, scalar refused"
fi

# Serving-path smoke: bench_serving --smoke drives all four serving arms
# (sharded router at K=1/K=4, networked NDJSON replay with a live model
# flip, paced 2x overload, tracing off/on) with the timing gates skipped;
# the structural gates — zero dropped requests across the flip, typed
# `overloaded` sheds only, byte-identical scoring with tracing on — still
# apply, and bench_compare.py then checks the schema_version 3 fields.
PA_BENCH_DIR=build build/bench/bench_serving --smoke
python3 scripts/bench_compare.py --schema build/BENCH_serving.json

# Observability smoke: a tiny end-to-end table run with tracing enabled must
# produce a trace that chrome://tracing would load and trace_summary.py can
# aggregate (both fail loudly on malformed JSON / broken nesting).
PA_OBS_TRACE=build/tier1_trace.json build/bench/bench_table1_gowalla --smoke \
  >/dev/null
python3 scripts/trace_summary.py build/tier1_trace.json --top 10

# pa_serve stats smoke: publish a small model into a scratch store, then the
# stats subcommand must emit a registry snapshot covering the serving,
# session-store and thread-pool instruments.
rm -rf build/tier1_store
build/src/serve/pa_serve publish --store build/tier1_store \
  --users 4 --pois 60 --epochs-scale 0.125 >/dev/null
# A flag its subcommand does not read is refused before any work: the
# retired `--quantize 1` exits 2 and publishes no second version.
status=0
build/src/serve/pa_serve publish --store build/tier1_store \
  --users 4 --pois 60 --epochs-scale 0.125 --quantize 1 \
  >/dev/null 2>&1 || status=$?
[[ $status -eq 2 ]] \
  || { echo "publish --quantize 1 exited $status, want 2" >&2; exit 1; }
build/src/serve/pa_serve list --store build/tier1_store | python3 -c '
import json, sys
models = json.loads(sys.stdin.readline())["models"]
assert [m["versions"] for m in models] == [[1]], models
print("pa_serve publish --quantize 1: refused, store unchanged")
'
# A shard count or deadline that would crash the server (threads or a ring
# it cannot allocate, a deadline that overflows the clock) is refused the
# same way, before the model loads. `timeout` turns a server that starts
# anyway into a failure instead of a hang.
for cmd in serve listen; do
  for bad in "--shards 0" "--shards 257" "--shards 100000000000" \
             "--deadline-ms -1" "--deadline-ms 86400001" \
             "--deadline-ms 10000000000000"; do
    status=0
    # shellcheck disable=SC2086  # $bad is a flag and its value.
    timeout 60 build/src/serve/pa_serve "$cmd" --store build/tier1_store \
      $bad </dev/null >/dev/null 2>&1 || status=$?
    [[ $status -eq 2 ]] \
      || { echo "pa_serve $cmd $bad exited $status, want 2" >&2; exit 1; }
  done
done
echo "pa_serve serve/listen: out-of-range --shards and --deadline-ms refused"
# Every numeric flag pa_serve narrows to an int is refused the same way
# when out of range: publish sizes that would abort the generator or train
# over an empty POI table, a version that would wrap to another one, a
# probe or an idle timeout outside its bounds. Nothing is published.
big=4294967297  # 2^32 + 1: narrows to 1 as an int.
for args in \
    "publish --users -1" "publish --users 0" "publish --users 1000001" \
    "publish --users $big" "publish --pois -3" "publish --pois 0" \
    "publish --pois 1000001" "publish --pois $big" \
    "activate --model LSTM --version 0" "activate --model LSTM --version $big" \
    "serve --version 0" "serve --version -1" "serve --version $big" \
    "listen --version $big" "listen --idle-timeout-ms -1" \
    "listen --idle-timeout-ms 86400001" "stats --version $big" \
    "stats --probe 0" "stats --probe 100001"; do
  status=0
  # shellcheck disable=SC2086  # $args is a subcommand, a flag and a value.
  timeout 60 build/src/serve/pa_serve $args --store build/tier1_store \
    </dev/null >/dev/null 2>&1 || status=$?
  [[ $status -eq 2 ]] \
    || { echo "pa_serve $args exited $status, want 2" >&2; exit 1; }
done
build/src/serve/pa_serve list --store build/tier1_store | python3 -c '
import json, sys
doc = json.loads(sys.stdin.readline())
assert [(m["versions"], m["active"]) for m in doc["models"]] == [([1], 1)], doc
print("pa_serve: out-of-range numeric flags refused, store unchanged")
'
# A refused value does no work at all: it comes before the store
# directory is made, so a store that does not exist stays absent.
rm -rf build/tier1_no_store
for args in \
    "publish --pois 0" "activate --model LSTM --version 0" \
    "serve --version 0" "serve --shards 0" "listen --version $big" \
    "listen --idle-timeout-ms -1" "stats --version 0" "stats --probe 0"; do
  status=0
  # shellcheck disable=SC2086  # $args is a subcommand, a flag and a value.
  timeout 60 build/src/serve/pa_serve $args --store build/tier1_no_store \
    </dev/null >/dev/null 2>&1 || status=$?
  [[ $status -eq 2 ]] \
    || { echo "pa_serve $args exited $status, want 2" >&2; exit 1; }
  [[ ! -e build/tier1_no_store ]] \
    || { echo "pa_serve $args made its store before refusing" >&2; exit 1; }
done
echo "pa_serve: refused flags leave a missing store uncreated"
build/src/serve/pa_serve stats --store build/tier1_store | python3 -c '
import json, sys
doc = json.loads(sys.stdin.readline())
assert doc["ok"] is True, doc
reg = doc["registry"]
for name in ("serve.requests", "util.pool.submitted"):
    assert name in reg["counters"], f"missing counter {name}"
assert "serve.sessions.live" in reg["gauges"], "missing session gauge"
assert "serve.latency_us" in reg["histograms"], "missing latency histogram"
delta = doc["probe_delta"]
assert delta["counters"].get("serve.requests", 0) > 0, \
    "probe_delta must attribute the probe requests"
probe_requests = delta["counters"]["serve.requests"]
assert probe_requests <= reg["counters"]["serve.requests"]
c, g, h = len(reg["counters"]), len(reg["gauges"]), len(reg["histograms"])
print(f"pa_serve stats: registry snapshot OK "
      f"({c} counters, {g} gauges, {h} histograms; probe delta "
      f"{probe_requests} requests)")
'

# Continuous-telemetry smoke: run the serve loop with the time-series
# sampler on and a metrics port bound, drive a few requests, and check the
# whole exposition surface end to end — /metrics must be parseable
# Prometheus text covering the serving instruments, /healthz must report
# ok, /varz must be the registry JSON, and the NDJSON time-series the
# sampler wrote must pass the schema gate (monotonic seq/ts, non-negative
# counter deltas).
rm -f build/tier1_timeseries.ndjson
PA_OBS_TIMESERIES=build/tier1_timeseries.ndjson PA_OBS_SAMPLE_PERIOD_MS=50 \
python3 - build/src/serve/pa_serve build/tier1_store <<'EOF'
import http.client, json, re, subprocess, sys, time

proc = subprocess.Popen(
    [sys.argv[1], "serve", "--store", sys.argv[2], "--metrics-port", "0"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    text=True)
try:
    port = None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            raise SystemExit("pa_serve exited before binding metrics port")
        m = re.search(r"metrics listening on http://127\.0\.0\.1:(\d+)", line)
        if m:
            port = int(m.group(1))
            break
    assert port, "no metrics port announced within 30s"

    for i in range(4):
        proc.stdin.write(json.dumps(
            {"op": "topk", "user": 1, "k": 5, "timestamp": 1000 + i}) + "\n")
    proc.stdin.flush()
    for _ in range(4):
        assert json.loads(proc.stdout.readline())["ok"] is True

    # Wire lines that used to abort the process (an unknown POI) or reach
    # an undefined double->int64 cast get typed errors; serving goes on.
    for bad in ('{"op":"observe","user":1,"poi":999999,"timestamp":5}',
                '{"op":"topk","user":1e300,"k":5,"timestamp":5,"id":1e300}'):
        proc.stdin.write(bad + "\n")
        proc.stdin.flush()
        resp = json.loads(proc.stdout.readline())
        assert resp["ok"] is False and resp["code"] == "bad_request", resp
        assert resp.get("id") in (None, 1e300), resp
    proc.stdin.write('{"op":"topk","user":1,"k":5,"timestamp":2000}\n')
    proc.stdin.flush()
    assert json.loads(proc.stdout.readline())["ok"] is True

    def get(path):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("GET", path)
        resp = conn.getresponse()
        body = resp.read().decode()
        conn.close()
        return resp.status, body

    status, metrics = get("/metrics")
    assert status == 200, (status, metrics)
    names = set()
    for line in metrics.splitlines():
        if not line or line.startswith("#"):
            continue
        m = re.match(r"([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})? (\S+)", line)
        assert m, f"unparseable /metrics line: {line!r}"
        names.add(m.group(1))
        float(m.group(3))  # Value must be numeric (inf/nan allowed).
    for needed in ("serve_requests", "serve_latency_us_bucket",
                   "serve_latency_us_count", "pa_health_status"):
        assert needed in names, f"/metrics missing {needed}"

    status, health = get("/healthz")
    assert status == 200 and json.loads(health)["status"] == "ok", health
    status, varz = get("/varz")
    assert status == 200 and "serve.requests" in json.loads(varz)["counters"]

    time.sleep(0.3)  # A few 50ms sampler ticks with traffic recorded.
    proc.stdin.write('{"op":"quit"}\n')
    proc.stdin.close()
    assert proc.wait(timeout=30) == 0
    print(f"pa_serve exposition smoke: OK ({len(names)} metric families)")
finally:
    if proc.poll() is None:
        proc.kill()
EOF
python3 scripts/bench_compare.py --schema build/tier1_timeseries.ndjson

# Networked serving smoke: `pa_serve listen` with two shards on an
# ephemeral port. A pipelined TCP client must get in-order NDJSON
# responses, a typed `unknown_user` error for a strict query on a cold
# user, per-shard serving/router instruments on /metrics, a request-trace
# round trip (envelope trace id -> `pa_serve slowz` -> stage spans ->
# trace_summary.py --trace), and a graceful drain (quit answered,
# connection closed, exit 0).
python3 - build/src/serve/pa_serve build/tier1_store <<'EOF'
import http.client, json, re, socket, subprocess, sys, time

proc = subprocess.Popen(
    [sys.argv[1], "listen", "--store", sys.argv[2], "--port", "0",
     "--shards", "2", "--metrics-port", "0"],
    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
try:
    port = metrics_port = None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and not (port and metrics_port):
        line = proc.stderr.readline()
        if not line:
            raise SystemExit("pa_serve listen exited before binding")
        m = re.search(r"metrics listening on http://127\.0\.0\.1:(\d+)", line)
        if m:
            metrics_port = int(m.group(1))
            continue
        m = re.search(r"listening on 127\.0\.0\.1:(\d+) \(.*2 shards\)", line)
        if m:
            port = int(m.group(1))
    assert port and metrics_port, "ports not announced within 30s"

    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    f = sock.makefile("r")

    # Request-tracing round trip against the real binary: the trace id a
    # client reads from a response envelope must resolve on the slow-trace
    # reservoir — fetched through the `slowz` subcommand — with the four
    # stage spans attributed, and trace_summary.py must render the span
    # tree from that dump. It runs first: the reservoir is not yet full,
    # so the trace enters it whatever its latency.
    sock.sendall(b'{"op":"topk","user":1,"k":5,"timestamp":2000,"id":42}\n')
    resp_line = f.readline()
    m = re.search(r'"trace":"([0-9a-f]+)"', resp_line)
    assert m, f"no trace id echoed: {resp_line!r}"
    trace_hex = m.group(1)
    slowz = subprocess.run(
        [sys.argv[1], "slowz", "--port", str(metrics_port)],
        capture_output=True, text=True, timeout=10)
    assert slowz.returncode == 0, slowz.stderr
    doc = json.loads(slowz.stdout)
    entry = next((t for t in doc["traces"] if t["trace"] == trace_hex), None)
    assert entry, f"trace {trace_hex} not captured: {slowz.stdout}"
    stages = {s["name"] for s in entry["spans"]}
    for needed in ("net.parse", "net.queue_wait", "serve.compute",
                   "net.serialize"):
        assert needed in stages, f"missing stage {needed}: {stages}"
    with open("build/tier1_slowz.json", "w") as fh:
        fh.write(slowz.stdout)
    subprocess.run(
        ["python3", "scripts/trace_summary.py", "build/tier1_slowz.json",
         "--trace", trace_hex], check=True, stdout=subprocess.DEVNULL)

    reqs = [{"op": "topk", "user": u, "k": 5, "timestamp": 1000 + u}
            for u in range(6)]
    sock.sendall("".join(json.dumps(r) + "\n" for r in reqs).encode())
    for r in reqs:  # Pipelined burst comes back in request order.
        resp = json.loads(f.readline())
        assert resp["ok"] is True and "pois" in resp, resp

    sock.sendall(b'{"op":"topk","user":99999,"strict":true,"id":7}\n')
    resp = json.loads(f.readline())
    assert resp["ok"] is False and resp["code"] == "unknown_user" \
        and resp["id"] == 7, resp

    sock.sendall(b'{"op":"stats"}\n')
    resp = json.loads(f.readline())
    assert resp["ok"] is True and resp["shards"] == 2 \
        and len(resp["per_shard"]) == 2, resp
    assert resp["metrics_port"] == metrics_port, resp

    conn = http.client.HTTPConnection("127.0.0.1", metrics_port, timeout=10)
    conn.request("GET", "/metrics")
    http_resp = conn.getresponse()
    metrics = http_resp.read().decode()
    conn.close()
    assert http_resp.status == 200, metrics
    for needed in ("serve_shard0_requests", "serve_shard1_requests",
                   "net_shard0_dispatched", "net_shard1_dispatched",
                   "net_connections", "net_requests"):
        assert needed in metrics, f"/metrics missing {needed}"

    # Wire lines that used to abort every shard (an unknown POI) or reach
    # an undefined double->int64 cast get typed bad_request errors, and
    # both this connection and a fresh one keep being answered. (Like every
    # request after the trace round trip, they come once the reservoir has
    # been read, so they cannot crowd the traced request out of it.)
    sock.sendall(b'{"op":"observe","user":1,"poi":999999,"timestamp":5}\n'
                 b'{"op":"topk","user":1e300,"k":5,"timestamp":5,"id":1e300}\n'
                 b'{"op":"topk","user":1,"k":5,"timestamp":1500}\n')
    for _ in range(2):
        resp = json.loads(f.readline())
        assert resp["ok"] is False and resp["code"] == "bad_request", resp
    assert resp["id"] == 1e300, resp
    resp = json.loads(f.readline())
    assert resp["ok"] is True and len(resp["pois"]) == 5, resp
    other = socket.create_connection(("127.0.0.1", port), timeout=10)
    other.sendall(b'{"op":"topk","user":2,"k":5,"timestamp":1500}\n')
    resp = json.loads(other.makefile("r").readline())
    assert resp["ok"] is True and len(resp["pois"]) == 5, resp
    other.close()

    sock.sendall(b'{"op":"quit"}\n')
    resp = json.loads(f.readline())
    assert resp["ok"] is True, resp
    assert f.readline() == "", "server must close the connection after drain"
    sock.close()
    assert proc.wait(timeout=30) == 0, proc.returncode
    print("pa_serve listen smoke: OK (2 shards, pipelined NDJSON, "
          "typed errors, bad wire fields survived, per-shard /metrics, "
          "trace round trip, graceful drain)")
finally:
    if proc.poll() is None:
        proc.kill()
EOF

# Repository benchmark smoke: configure perfbench/ under build/, build and
# run its self-tests, then short serve_warm, serve_churn and augment_offline
# runs (the real `pa_serve listen` child under closed-loop load; churn
# rebuilds sessions under eviction pressure; augment_offline trains
# PA-Seq2Seq and imputes every masked timeline), each of which must report
# its reference check and guards as passed.
bench_target=build/perfbench_target
cmake -S perfbench -B "$bench_target/perfbench" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$bench_target/perfbench" -j"$(nproc)" --target perfbench_test
"$bench_target/perfbench/perfbench_test"
for workload in serve_warm serve_churn augment_offline; do
  CARGO_TARGET_DIR="$bench_target" python3 perfbench/run.py \
    --workload "$workload" --seed 1 --seconds 2 --trace 0 \
    | tee "build/tier1_perfbench_$workload.txt"
  tail -n 1 "build/tier1_perfbench_$workload.txt" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
assert result["correct"] is True, result
print("perfbench " + sys.argv[1] + " smoke: OK")
' "$workload"
done

if [[ "${1:-}" == "--no-tsan" ]]; then
  exit 0
fi

# TSan pass: the tests that exercise the parallel execution layer and the
# serving threads (shard workers that each own an engine and its session
# store, read cross-thread only through their stats) get rebuilt under
# -fsanitize=thread; a race anywhere in ParallelFor users, the shard
# router, the session rows stepped on the shard workers and their
# per-thread scratch, or the per-Backward transposed operands (tensor_ops_test runs two Backward walks over one
# shared weight at once) shows up here even on a single-core host.
cmake -B build-tsan -S . -DPA_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$(nproc)" --target \
  util_thread_pool_test parallel_determinism_test \
  serve_session_store_test serve_engine_test \
  tensor_inference_test tensor_fusion_test inference_equivalence_test \
  tensor_kernels_test tensor_ops_test \
  obs_metrics_test obs_trace_test obs_slow_trace_test \
  obs_health_test obs_telemetry_test obs_http_exposition_test \
  net_server_test net_trace_test serve_shard_test
ctest --test-dir build-tsan --output-on-failure \
  -R 'util_thread_pool_test|parallel_determinism_test|serve_session_store_test|serve_engine_test|tensor_inference_test|tensor_fusion_test|inference_equivalence_test|tensor_kernels_test|tensor_ops_test|obs_metrics_test|obs_trace_test|obs_slow_trace_test|obs_health_test|obs_telemetry_test|obs_http_exposition_test|net_server_test|net_trace_test|serve_shard_test'

# ASan/UBSan pass over the checkpoint parser, the serving subsystem
# (including the request-field boundary checks), the top-k selection, and
# the kernel layer: these tests feed truncated/corrupted byte streams,
# churn the session LRU from request paths, and push NaN/inf/denormal edge
# tensors through every kernel table — exactly where memory bugs and UB
# (bad float->int casts, OOB tails past a vector width) would hide. The op
# and gradient-check suites hand MatMul's backward the raw pointers of the
# per-Backward transposed operands and of its dA scratch. Backward closures
# read their operands only through the node's parents and Backward frees
# interior gradients mid-walk: the tensor suite drops every outside handle
# to a graph's operands before Backward, and the determinism suite runs
# per-item and mini-batch training (gradients redirected on pool threads).
# The kernel suite runs under both PA_SIMD extremes here too, and the fusion
# suite rides along because the cells' explicit forwards hand raw column
# offsets and scratch layouts (gate blocks inside one row, matmul_block
# column ranges) straight to the kernels. The PA-Seq2Seq imputation suites
# ride along because Impute decodes through pointers and indices into
# candidate-set tables and packed projection columns that live for one
# call, and so does the direct-recommendation suite, whose RankNext
# hands a raw logits row to the top-k, and the neural-recommender suite,
# whose sessions step raw h/c rows and must refuse a POI outside the table
# before any row or coordinate is read; the R-tree suite checks the radius
# queries those candidate sets come from. The golden suite runs the fitted
# model's Impute at 2 km, which reads the candidate bitmaps, and the
# linear-interpolation suite feeds out-of-range observed POIs that must be
# refused before any coordinate lookup. Any UBSan report fails the pass
# (-fno-sanitize-recover), and so does an out-of-bounds vector or string
# index that ASan's redzones would miss (-D_GLIBCXX_ASSERTIONS).
cmake -B build-asan -S . -DPA_SANITIZE=address,undefined \
  "-DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
  >/dev/null
cmake --build build-asan -j"$(nproc)" --target \
  nn_serialize_test serve_json_test serve_artifact_test \
  serve_model_store_test serve_session_store_test serve_engine_test \
  serve_shard_test rec_ranking_test tensor_kernels_test tensor_fusion_test \
  tensor_ops_test tensor_gradcheck_test tensor_test \
  parallel_determinism_test augment_pa_seq2seq_test augment_extensions_test \
  augment_linear_interpolation_test training_golden_test \
  rec_pa_seq2seq_direct_test rec_neural_test geo_rtree_test
ctest --test-dir build-asan --output-on-failure \
  -R 'nn_serialize_test|serve_json_test|serve_artifact_test|serve_model_store_test|serve_session_store_test|serve_engine_test|serve_shard_test|rec_ranking_test|tensor_kernels_test|tensor_fusion_test|tensor_ops_test|tensor_gradcheck_test|tensor_test|parallel_determinism_test|augment_pa_seq2seq_test|augment_extensions_test|augment_linear_interpolation_test|training_golden_test|rec_pa_seq2seq_direct_test|rec_neural_test|geo_rtree_test'
PA_SIMD=scalar ctest --test-dir build-asan --output-on-failure \
  -R 'tensor_kernels_test|tensor_fusion_test'
