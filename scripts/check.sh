#!/usr/bin/env bash
# Full pre-merge check: warnings-as-errors build + tests (ci preset),
# race-checked build + tests (tsan preset), memory/UB-checked
# fixpoint+semantics suites (asan preset), then an end-to-end telemetry
# smoke test that validates the CLI's trace/metrics/findings output
# against the documented schemas in schemas/.
#
# Usage: scripts/check.sh [--no-tsan] [--no-asan]

set -euo pipefail
cd "$(dirname "$0")/.."

NO_TSAN=0
NO_ASAN=0
for arg in "$@"; do
  case "$arg" in
    --no-tsan) NO_TSAN=1 ;;
    --no-asan) NO_ASAN=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

run_preset() {
  local preset=$1
  echo "== preset: $preset =="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  ctest --preset "$preset"
}

run_preset ci
if [ "$NO_TSAN" -eq 0 ]; then
  run_preset tsan
fi
if [ "$NO_ASAN" -eq 0 ]; then
  # ASan+UBSan over the suites that exercise the solver and the
  # semantics layer (including the demand-driven query battery), and
  # the session/result suites: results share ownership of the engine
  # their queries read, so their lifetimes are checked here too.
  echo "== preset: asan (fixpoint/semantics/session suites) =="
  ASAN_SUITES="wto_test solver_test transfer_cache_test analyzer_test
               transfer_test interproc_test store_test store_cow_test
               store_soa_test store_product_test expr_semantics_test
               soundness_test demand_query_test liveness_prune_test
               congruence_test domain_test domain_differential_test
               serve_test session_test batch_test debugger_test"
  cmake --preset asan
  # shellcheck disable=SC2086
  cmake --build build-asan -j "$(nproc)" --target $ASAN_SUITES syntox_serve
  for suite in $ASAN_SUITES; do
    echo "-- asan: $suite"
    # ASan redzones inflate the concrete interpreter's recursive eval
    # frames ~8x; the recursion depth is program-bounded, so give the
    # sanitized runs a larger stack instead of capping the programs.
    (ulimit -s 65536; exec "build-asan/tests/$suite" --gtest_brief=1)
  done
fi

echo "== telemetry smoke test =="
CLI=build-ci/examples/syntox_cli
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

cat > "$OUT/for.pas" <<'EOF'
program forprog;
var i, n : integer;
    T : array [1..100] of integer;
begin
  read(n);
  for i := 0 to n do
    read(T[i])
end.
EOF

"$CLI" --format=json --metrics-json="$OUT/metrics.json" \
       --trace="$OUT/trace.jsonl" --trace-format=json \
       "$OUT/for.pas" > "$OUT/findings.json"
"$CLI" --trace="$OUT/trace-chrome.json" --trace-format=chrome \
       "$OUT/for.pas" > /dev/null

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]

def load_schema(path):
    with open(path) as f:
        return json.load(f)

def check(cond, what):
    if not cond:
        raise SystemExit(f"schema violation: {what}")

def validate(obj, schema, where):
    for key in schema.get("required", []):
        check(key in obj, f"{where}: missing required key '{key}'")
    props = schema.get("properties", {})
    if schema.get("additionalProperties") is False:
        for key in obj:
            check(key in props, f"{where}: unexpected key '{key}'")
    for key, sub in props.items():
        if key not in obj:
            continue
        v, w = obj[key], f"{where}.{key}"
        if "enum" in sub:
            check(v in sub["enum"], f"{w}: '{v}' not in enum")
        t = sub.get("type")
        if t == "integer":
            check(isinstance(v, int) and not isinstance(v, bool), f"{w}: not an integer")
        elif t == "number":
            check(isinstance(v, (int, float)) and not isinstance(v, bool), f"{w}: not a number")
        elif t == "string":
            check(isinstance(v, str), f"{w}: not a string")
        elif t == "boolean":
            check(isinstance(v, bool), f"{w}: not a boolean")
        elif t == "array":
            check(isinstance(v, list), f"{w}: not an array")
            for i, e in enumerate(v):
                validate(e, sub.get("items", {}), f"{w}[{i}]")
        elif t == "object":
            check(isinstance(v, dict), f"{w}: not an object")
            validate(v, sub, w)
        if "minimum" in sub and isinstance(v, (int, float)):
            check(v >= sub["minimum"], f"{w}: {v} < minimum {sub['minimum']}")

# JSON-lines trace: every line validates against the event schema and
# timestamps are globally ordered.
trace_schema = load_schema("schemas/trace-jsonl.schema.json")
last_t = 0
n = 0
with open(f"{out}/trace.jsonl") as f:
    for n, line in enumerate(f, 1):
        ev = json.loads(line)
        validate(ev, trace_schema, f"trace.jsonl:{n}")
        check(ev["t"] >= last_t, f"trace.jsonl:{n}: timestamps out of order")
        last_t = ev["t"]
check(n > 0, "trace.jsonl: empty trace")

# Chrome trace: the document shape chrome://tracing expects, with
# balanced B/E spans per thread.
with open(f"{out}/trace-chrome.json") as f:
    doc = json.load(f)
check(isinstance(doc.get("traceEvents"), list) and doc["traceEvents"],
      "trace-chrome.json: no traceEvents")
depth = {}
for e in doc["traceEvents"]:
    for key in ("ph", "name", "ts", "pid", "tid"):
        check(key in e, f"trace-chrome.json: event missing '{key}'")
    if e["ph"] == "B":
        depth[e["tid"]] = depth.get(e["tid"], 0) + 1
    elif e["ph"] == "E":
        depth[e["tid"]] = depth.get(e["tid"], 0) - 1
        check(depth[e["tid"]] >= 0, "trace-chrome.json: E before B")
check(all(d == 0 for d in depth.values()), "trace-chrome.json: unbalanced spans")

# Findings document (includes the metrics snapshot) and the standalone
# metrics file.
findings_schema = load_schema("schemas/findings.schema.json")
with open(f"{out}/findings.json") as f:
    findings = json.load(f)
validate(findings, findings_schema, "findings.json")
check(findings["conditions"], "findings.json: For program must yield a condition")
with open(f"{out}/metrics.json") as f:
    metrics = json.load(f)
validate(metrics, findings_schema["properties"]["metrics"], "metrics.json")
check(metrics["counters"].get("solver.ascending_steps", 0) > 0,
      "metrics.json: no solver work recorded")
# The for loop's descending sweeps re-run equations whose inputs did not
# change: the solver must reuse those results instead of re-evaluating.
check(metrics["counters"].get("solver.reused_evaluations", 0) > 0,
      "metrics.json: the solver reused no evaluation")
# for.pas unfolds to one instance. This run is traced, so it builds a
# fresh engine instead of analyzing the one create() validated with;
# only the engine that ran may report its construction.
check(metrics["counters"].get("interproc.instances") == 1,
      "metrics.json: interproc.instances != 1 (an engine that never ran "
      "reported its construction)")

print(f"telemetry smoke test OK ({n} trace events)")
EOF

echo "== domain-matrix smoke test =="
# Every --domain on the stride referee program: schema-valid findings
# that report the active domain, the pinned precision matrix
# (interval 2/3, congruence 0/3, product 3/3 safe checks — see
# EXPERIMENTS.md E-domain), and per-domain persistent caches that
# never satisfy a cross-domain load.
cat > "$OUT/stride.pas" <<'EOF'
program stridesearch;
type index = 1..99;
var T : array [index] of integer;
    key : integer;
    i : integer;
    found : boolean;
begin
  read(key);
  for i := 1 to 99 do
    read(T[i]);
  found := false;
  i := 2;
  while i < 100 do
  begin
    if T[i] = key then
      found := true;
    i := i + 2
  end;
  if not found then
    found := T[i - 1] = key;
  writeln(found)
end.
EOF

for dom in interval congruence product; do
  "$CLI" --domain="$dom" --format=json "$OUT/stride.pas" \
      > "$OUT/domain-$dom.json"
done
DCACHE="$OUT/domain-cache"
"$CLI" --domain=interval --cache-dir="$DCACHE" --format=json \
       --metrics-json="$OUT/domain-m1.json" "$OUT/stride.pas" > /dev/null
"$CLI" --domain=product --cache-dir="$DCACHE" --format=json \
       --metrics-json="$OUT/domain-m2.json" "$OUT/stride.pas" > /dev/null
"$CLI" --domain=product --cache-dir="$DCACHE" --format=json \
       --metrics-json="$OUT/domain-m3.json" "$OUT/stride.pas" > /dev/null

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]

def check(cond, what):
    if not cond:
        raise SystemExit(f"domain-matrix violation: {what}")

with open("schemas/findings.schema.json") as f:
    schema = json.load(f)

expected_safe = {"interval": 2, "congruence": 0, "product": 3}
for dom, safe in expected_safe.items():
    with open(f"{out}/domain-{dom}.json") as f:
        doc = json.load(f)
    for key in schema["required"]:
        check(key in doc, f"{dom}: findings missing required key '{key}'")
    check(doc["domain"] == dom, f"{dom}: findings report domain '{doc['domain']}'")
    check(doc["checks"]["domain"] == dom,
          f"{dom}: checks block reports domain '{doc['checks']['domain']}'")
    s = doc["checks"]["summary"]
    check(s["total"] == 3, f"{dom}: expected 3 check sites, got {s['total']}")
    check(s["safe"] == safe,
          f"{dom}: expected {safe}/3 safe checks, got {s['safe']}")

def counters(path):
    with open(path) as f:
        return json.load(f)["counters"]

# The product run over the interval-keyed cache must fall back cold
# (save its own entry, load nothing), and only then replay warm.
check(counters(f"{out}/domain-m1.json").get("persist.saved") == 1,
      "interval run did not save a cache")
m2 = counters(f"{out}/domain-m2.json")
check(m2.get("persist.loaded", 0) == 0,
      "product run loaded the interval-keyed cache")
check(m2.get("persist.saved") == 1, "product run did not save its own cache")
check(counters(f"{out}/domain-m3.json").get("persist.loaded") == 1,
      "product rerun did not load the product-keyed cache")

print("domain-matrix smoke test OK "
      "(interval 2/3, congruence 0/3, product 3/3; caches keyed per domain)")
EOF

echo "== store-kernel perf floor =="
# Perf-regression smoke for the SoA lattice kernels: bench_store must
# not fall more than 25% below the checked-in floor
# (bench/BENCH_store.floor.json — refresh it when the kernels get
# faster). Only the ci (unsanitized) binary is measured; the tsan and
# asan presets never reach this stanza, so sanitizer overhead can not
# trip the floor.
build-ci/bench/bench_store --out="$OUT/BENCH_store_check.json" > /dev/null

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]

def check(cond, what):
    if not cond:
        raise SystemExit(f"store perf floor violation: {what}")

with open("bench/BENCH_store.floor.json") as f:
    floors = json.load(f)
with open(f"{out}/BENCH_store_check.json") as f:
    report = json.load(f)

rows = {r["size"]: r for r in report["rows"]}
checked = 0
for frow in floors["rows"]:
    size = frow["size"]
    check(size in rows, f"bench_store reported no size-{size} row")
    for col, floor in frow.items():
        if col == "size":
            continue
        got = rows[size].get(col)
        check(got is not None, f"size {size}: missing column '{col}'")
        check(got >= floor * 0.75,
              f"size {size} {col}: {got:,.0f} ops/s is more than 25% below "
              f"the floor {floor:,.0f}")
        checked += 1

print(f"store perf floor OK ({checked} cells within 25% of the floor)")
EOF

echo "== incremental-solving smoke test =="
build-ci/bench/bench_incremental --out="$OUT/BENCH_incremental.json" \
    --bench-rounds=3 > /dev/null

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]

def check(cond, what):
    if not cond:
        raise SystemExit(f"bench_incremental violation: {what}")

with open("schemas/bench.schema.json") as f:
    schema = json.load(f)
with open(f"{out}/BENCH_incremental.json") as f:
    report = json.load(f)

for key in schema["required"]:
    check(key in report, f"missing required key '{key}'")
check(report["benchmark"] == "bench_incremental", "wrong benchmark name")
check(isinstance(report["rows"], list) and report["rows"], "no rows")
for i, row in enumerate(report["rows"]):
    check(isinstance(row, dict), f"rows[{i}] not an object")
    for col in ("family", "k", "round", "cold_evals", "warm_evals",
                "warm_component_skips", "warm_skipped_evals"):
        check(col in row, f"rows[{i}] missing '{col}'")
for a in report["analyses"]:
    for key in ("label", "seconds", "stats"):
        check(key in a, f"analysis entry missing '{key}'")
check("counters" in report["metrics"], "metrics missing counters")

# The acceptance claim: from round 2 on, warm starts cut the live
# evaluations at least 2x on both families (full replay counts as inf).
families = set()
for row in report["rows"]:
    families.add(row["family"])
    if row["round"] >= 2:
        check(row["warm_evals"] * 2 <= row["cold_evals"],
              f"{row['family']}/{row['k']} round {row['round']}: "
              f"warm {row['warm_evals']} vs cold {row['cold_evals']} "
              "is under a 2x reduction")
check(families == {"loopChain", "mcCarthy"}, f"unexpected families {families}")

print("incremental-solving smoke test OK "
      f"({len(report['rows'])} rows, both families >= 2x from round 2)")
EOF

echo "== persistent-cache smoke test =="
cat > "$OUT/two.pas" <<'EOF'
program two;
var a, b : integer;

procedure p1(var x : integer);
var i : integer;
begin
  i := 0;
  while i < 50 do begin
    i := i + 1;
    x := i
  end
end;

procedure p2(var y : integer);
var j : integer;
begin
  j := 10;
  while j > 0 do begin
    j := j - 1;
    y := j
  end
end;

begin
  a := 0;
  b := 0;
  p1(a);
  p2(b);
  assert(a >= 0);
  assert(b >= 0)
end.
EOF
sed 's/j := 10/j := 20/' "$OUT/two.pas" > "$OUT/two-edited.pas"

CACHE="$OUT/cache"
"$CLI" --cache-dir="$CACHE" --format=json \
       --metrics-json="$OUT/persist-cold.json" "$OUT/two.pas" \
       > "$OUT/persist-findings-cold.json"
"$CLI" --cache-dir="$CACHE" --format=json \
       --metrics-json="$OUT/persist-warm.json" "$OUT/two.pas" \
       > "$OUT/persist-findings-warm.json"
"$CLI" --cache-dir="$CACHE" --format=json \
       --metrics-json="$OUT/persist-edit.json" "$OUT/two-edited.pas" \
       > "$OUT/persist-findings-edit.json"
"$CLI" --format=json --metrics-json="$OUT/persist-editcold.json" \
       "$OUT/two-edited.pas" > "$OUT/persist-findings-editcold.json"

python3 - "$OUT" <<'EOF'
import glob, json, sys
out = sys.argv[1]

def check(cond, what):
    if not cond:
        raise SystemExit(f"persistent-cache violation: {what}")

def counters(path):
    with open(path) as f:
        return json.load(f)["counters"]

def live_steps(c):
    return c.get("solver.ascending_steps", 0) + c.get("solver.descending_steps", 0)

def findings(path):
    with open(path) as f:
        doc = json.load(f)
    return {k: v for k, v in doc.items() if k not in ("stats", "metrics")}

cold = counters(f"{out}/persist-cold.json")
warm = counters(f"{out}/persist-warm.json")
edit = counters(f"{out}/persist-edit.json")
editcold = counters(f"{out}/persist-editcold.json")

# Run 1 saved, run 2 replayed the whole chain: zero live solver steps,
# every component skipped, identical findings.
check(cold.get("persist.saved") == 1, "run 1 did not save a cache")
check(warm.get("persist.loaded") == 1, "run 2 did not load the cache")
check(live_steps(cold) > 0, "cold run did no solver work")
check(live_steps(warm) == 0,
      f"unchanged rerun performed {live_steps(warm)} live solver steps")
check(warm.get("solver.component_skips", 0) > 0, "rerun replayed nothing")
check(findings(f"{out}/persist-findings-cold.json")
      == findings(f"{out}/persist-findings-warm.json"),
      "replayed findings differ from cold findings")

# Editing one routine of two: the cache still loads, only the changed
# routine's components (and what its values feed) re-solve, and the
# findings equal an uncached run of the edited program.
check(edit.get("persist.loaded") == 1, "edited run did not load the cache")
check(edit.get("persist.invalidated_nodes", 0) > 0,
      "edit invalidated no nodes")
check(edit.get("persist.matched_elements", 0) > 0,
      "edit run matched no elements (cache was useless)")
check(0 < live_steps(edit) < live_steps(editcold),
      f"edited run did {live_steps(edit)} live steps vs cold "
      f"{live_steps(editcold)}: expected a strict partial re-solve")
check(findings(f"{out}/persist-findings-edit.json")
      == findings(f"{out}/persist-findings-editcold.json"),
      "edited-warm findings differ from edited-cold findings")

# The .meta.json sidecar matches schemas/cache.schema.json.
with open("schemas/cache.schema.json") as f:
    schema = json.load(f)
sidecars = glob.glob(f"{out}/cache/*.meta.json")
check(sidecars, "no .meta.json sidecar written")
import re
for path in sidecars:
    with open(path) as f:
        meta = json.load(f)
    for key in schema["required"]:
        check(key in meta, f"{path}: missing '{key}'")
    for key in meta:
        check(key in schema["properties"], f"{path}: unexpected key '{key}'")
    for key, sub in schema["properties"].items():
        v = meta[key]
        if sub["type"] == "integer":
            check(isinstance(v, int) and not isinstance(v, bool),
                  f"{path}.{key}: not an integer")
            check(v >= sub.get("minimum", v), f"{path}.{key}: below minimum")
        else:
            check(isinstance(v, str), f"{path}.{key}: not a string")
            if "pattern" in sub:
                check(re.fullmatch(sub["pattern"], v),
                      f"{path}.{key}: '{v}' fails pattern")
            if "enum" in sub:
                check(v in sub["enum"], f"{path}.{key}: '{v}' not in enum")

print("persistent-cache smoke test OK "
      f"(replay: {warm.get('solver.component_skips', 0)} skips, edit: "
      f"{live_steps(edit)}/{live_steps(editcold)} live steps)")
EOF

echo "== persistence benchmark =="
build-ci/bench/bench_persist --out="$OUT/BENCH_persist.json" > /dev/null

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]

def check(cond, what):
    if not cond:
        raise SystemExit(f"bench_persist violation: {what}")

with open("schemas/bench.schema.json") as f:
    schema = json.load(f)
with open(f"{out}/BENCH_persist.json") as f:
    report = json.load(f)

for key in schema["required"]:
    check(key in report, f"missing required key '{key}'")
check(report["benchmark"] == "bench_persist", "wrong benchmark name")
check(isinstance(report["rows"], list) and report["rows"], "no rows")
for i, row in enumerate(report["rows"]):
    for col in ("family", "k", "cold_evals", "persisted_evals",
                "persisted_replays", "edited_evals", "edited_cold_evals"):
        check(col in row, f"rows[{i}] missing '{col}'")
    # The acceptance claim: a rerun of the unchanged program replays the
    # whole refinement chain from disk.
    check(row["persisted_evals"] == 0,
          f"{row['family']}/{row['k']}: unchanged rerun performed "
          f"{row['persisted_evals']} live evaluations")
    check(row["persisted_replays"] > 0,
          f"{row['family']}/{row['k']}: no components replayed")
for a in report["analyses"]:
    for key in ("label", "seconds", "stats"):
        check(key in a, f"analysis entry missing '{key}'")

print(f"persistence benchmark OK ({len(report['rows'])} rows, all "
      "unchanged reruns at 0 live evaluations)")
EOF

echo "== demand-query smoke test =="
# CLI query path: a demanded point answer must come back with a strict
# non-empty subset of components scheduled (the solved-cone claim, read
# off the demand stats).
"$CLI" --query=point:9 --format=json "$OUT/two.pas" > "$OUT/demand-point.json"

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]

def check(cond, what):
    if not cond:
        raise SystemExit(f"demand query violation: {what}")

with open(f"{out}/demand-point.json") as f:
    doc = json.load(f)
check(doc["query"]["kind"] == "point", "wrong query kind")
check(doc["query"]["line"] == 9, "wrong query line")
check(isinstance(doc["states"], list) and doc["states"],
      "point query returned no states")
stats = doc["stats"]
check(stats["demanded_components"] > 0, "no components demanded")
check(stats["skipped_by_demand"] > 0,
      "no components skipped: the demand cone was not a strict subset")

print("demand CLI smoke OK "
      f"({stats['demanded_components']} demanded, "
      f"{stats['skipped_by_demand']} skipped)")
EOF

build-ci/bench/bench_demand --out="$OUT/BENCH_demand.json" > /dev/null

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]

def check(cond, what):
    if not cond:
        raise SystemExit(f"bench_demand violation: {what}")

with open("schemas/bench.schema.json") as f:
    schema = json.load(f)
with open(f"{out}/BENCH_demand.json") as f:
    report = json.load(f)

for key in schema["required"]:
    check(key in report, f"missing required key '{key}'")
check(report["benchmark"] == "bench_demand", "wrong benchmark name")
check(isinstance(report["rows"], list) and report["rows"], "no rows")
families = set()
for i, row in enumerate(report["rows"]):
    for col in ("family", "k", "query", "cold_evals", "demand_evals",
                "warm_demand_evals", "demanded_components",
                "skipped_components"):
        check(col in row, f"rows[{i}] missing '{col}'")
    families.add(row["family"])
    where = f"{row['family']}/{row['k']} {row['query']}"
    # The solved-cone-is-a-strict-subset claim, on every query.
    check(row["demanded_components"] > 0, f"{where}: no components demanded")
    check(row["skipped_components"] > 0,
          f"{where}: no components skipped (cone == whole program)")
    # A demand solve never does more live work than a full solve.
    check(row["demand_evals"] <= row["cold_evals"],
          f"{where}: demand {row['demand_evals']} > cold {row['cold_evals']}")
    # The acceptance claim: a cache-warmed demand query costs at least
    # 2x fewer live evaluations than a cold full solve.
    check(row["warm_demand_evals"] * 2 <= row["cold_evals"],
          f"{where}: warm demand {row['warm_demand_evals']} vs cold "
          f"{row['cold_evals']} is under a 2x reduction")
check(families == {"loopChain", "dispatchChain", "mcCarthy"},
      f"unexpected families {families}")
check(any(r["family"] == "loopChain" and r["query"] == "check:far"
          for r in report["rows"]),
      "missing the far-end assertion query on loopChain")
for a in report["analyses"]:
    for key in ("label", "seconds", "stats"):
        check(key in a, f"analysis entry missing '{key}'")

print(f"demand benchmark OK ({len(report['rows'])} rows, every query a "
      "strict subset, warm queries >= 2x under cold full solves)")
EOF

echo "== batch-corpus smoke test =="
# A small corpus through both serving paths: the binary itself exits
# non-zero if any batch wave's findings diverge from the sequential
# reference, and the report it writes is validated against the bench
# schema below. (The request pool gets its concurrency stress from
# batch_test and serve_test, which the tsan preset above runs with the
# rest of ctest.)
build-ci/bench/bench_corpus --programs=24 --batch=4 \
    --out="$OUT/BENCH_corpus.json" > /dev/null

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]

def check(cond, what):
    if not cond:
        raise SystemExit(f"bench_corpus violation: {what}")

with open("schemas/bench.schema.json") as f:
    schema = json.load(f)
with open(f"{out}/BENCH_corpus.json") as f:
    report = json.load(f)

for key in schema["required"]:
    check(key in report, f"missing required key '{key}'")
check(report["benchmark"] == "bench_corpus", "wrong benchmark name")
check(isinstance(report["rows"], list) and report["rows"], "no rows")
waves = set()
for i, row in enumerate(report["rows"]):
    for col in ("wave", "mode", "programs", "seconds", "programs_per_sec",
                "p50_ms", "p99_ms", "cache_hits", "cache_misses"):
        check(col in row, f"rows[{i}] missing '{col}'")
    waves.add((row["wave"], row["mode"]))
    # The determinism claim, per wave: batch findings are bitwise equal
    # to the sequential reference on cold, warm, and edit traffic.
    if row["mode"] == "batch":
        check(row.get("matches_sequential") is True,
              f"{row['wave']}/batch findings diverge from sequential")
check(waves == {(w, m) for w in ("cold", "warm", "edit")
                for m in ("seq", "batch")} | {("prime", "seq")},
      f"unexpected wave coverage {sorted(waves)}")
check(report["batch_matches_sequential"] is True,
      "batch_matches_sequential is not true")
# The throughput claim only makes sense with real parallel hardware:
# on a single-core host the batch path measures overlap overhead, so
# the wall-clock assertion is gated on hardware_threads >= 2.
if report["hardware_threads"] >= 2:
    check(report["aggregate_speedup"] > 1.0,
          f"aggregate batch speedup {report['aggregate_speedup']:.2f}x "
          f"on {report['hardware_threads']} hardware threads")
    print("batch-corpus smoke test OK "
          f"({len(report['rows'])} waves, batch == sequential, "
          f"{report['aggregate_speedup']:.2f}x aggregate)")
else:
    print("batch-corpus smoke test OK "
          f"({len(report['rows'])} waves, batch == sequential; "
          "single hardware thread, throughput assertion skipped)")
EOF

echo "== serve smoke test =="
# The analysis daemon end to end, under the ci binary and (unless
# disabled) the asan one: cold + warm + malformed + admin traffic over
# stdio with every response validated against the serve schemas, then a
# SIGTERM drain with a request in flight.
serve_smoke() {
  local bin=$1 tag=$2
  echo "-- serve smoke: $tag"
  local dir="$OUT/serve-$tag"
  mkdir -p "$dir/cache"

  # Sleeps order the traffic so the inline metrics answer observes the
  # earlier analyses (responses themselves are unordered by contract).
  {
    printf '%s\n' '{"protocol_version":1,"id":"cold","source":"program p; var i, n : integer; begin read(n); i := 0; while i < n do begin i := i + 1; assert(i >= 1) end end.","cache_key":"doc"}'
    sleep 1
    printf '%s\n' '{"protocol_version":1,"id":"warm","source":"program p; var i, n : integer; begin read(n); i := 0; while i < n do begin i := i + 1; assert(i >= 1) end end.","cache_key":"doc"}'
    sleep 1
    printf '%s\n' 'this line is not a request'
    printf '%s\n' '{"protocol_version":1,"id":"badopt","source":"program p; begin end.","options":{"cache_dir":"/tmp/x"}}'
    printf '%s\n' '{"protocol_version":1,"id":"sweep","kind":"gc"}'
    printf '%s\n' '{"protocol_version":1,"id":"snap","kind":"metrics"}'
    printf '%s\n' '{"protocol_version":1,"id":"alive","kind":"ping"}'
  } | "$bin" --cache-dir="$dir/cache" --cache-max-bytes=65536 \
      > "$dir/responses.jsonl"

  python3 - "$dir/responses.jsonl" <<'PYEOF'
import json, sys

def check(cond, what):
    if not cond:
        raise SystemExit(f"serve smoke violation: {what}")

def load_schema(path):
    with open(path) as f:
        return json.load(f)

resp_schema = load_schema("schemas/serve-response.schema.json")
findings_schema = load_schema("schemas/findings.schema.json")

def validate(obj, schema, where):
    if "$ref" in schema:
        check(schema["$ref"] == "findings.schema.json",
              f"{where}: unknown $ref {schema['$ref']}")
        schema = findings_schema
    if "const" in schema:
        check(obj == schema["const"], f"{where}: != const {schema['const']}")
    if "enum" in schema:
        check(obj in schema["enum"], f"{where}: '{obj}' not in enum")
    t = schema.get("type")
    if t == "integer":
        check(isinstance(obj, int) and not isinstance(obj, bool),
              f"{where}: not an integer")
    elif t == "number":
        check(isinstance(obj, (int, float)) and not isinstance(obj, bool),
              f"{where}: not a number")
    elif t == "string":
        check(isinstance(obj, str), f"{where}: not a string")
    elif t == "boolean":
        check(isinstance(obj, bool), f"{where}: not a boolean")
    elif t == "array":
        check(isinstance(obj, list), f"{where}: not an array")
        for i, e in enumerate(obj):
            validate(e, schema.get("items", {}), f"{where}[{i}]")
    elif t == "object" or "properties" in schema or "required" in schema:
        check(isinstance(obj, dict), f"{where}: not an object")
        for key in schema.get("required", []):
            check(key in obj, f"{where}: missing required key '{key}'")
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            for key in obj:
                check(key in props, f"{where}: unexpected key '{key}'")
        for key, sub in props.items():
            if key in obj:
                validate(obj[key], sub, f"{where}.{key}")
    if "minimum" in schema and isinstance(obj, (int, float)):
        check(obj >= schema["minimum"],
              f"{where}: {obj} < minimum {schema['minimum']}")

by_id = {}
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        resp = json.loads(line)
        validate(resp, resp_schema, f"responses:{n}")
        by_id[resp["id"]] = resp

check(set(by_id) == {"cold", "warm", "", "badopt", "sweep", "snap", "alive"},
      f"unexpected response ids {sorted(by_id)}")

def findings(resp):
    return {k: v for k, v in resp["findings"].items()
            if k not in ("stats", "metrics")}

check(by_id["cold"]["status"] == "ok", "cold analyze failed")
check(by_id["warm"]["status"] == "ok", "warm analyze failed")
check(findings(by_id["cold"]) == findings(by_id["warm"]),
      "warm findings differ from cold findings")
cold_counters = by_id["cold"]["findings"]["metrics"]["counters"]
check(cold_counters.get("solver.ascending_steps", 0) > 0,
      "cold findings carry no session metrics")
check(by_id[""]["status"] == "error", "malformed line not answered error")
check(by_id["badopt"]["status"] == "error"
      and "cache_key" in by_id["badopt"]["error"],
      "wire cache_dir option not rejected")
check(by_id["sweep"]["gc"]["max_bytes"] == 65536, "gc cap not reported")
counters = by_id["snap"]["metrics"]["counters"]
check(counters.get("serve.session_hits", 0) >= 1,
      "warm resubmission did not hit the parked session")
check(counters.get("session.engine_reuses", 0) >= 1,
      "warm resubmission did not reuse the engine")
check(counters.get("persist.saved", 0) >= 1, "no cache save recorded")
check(by_id["alive"]["status"] == "ok", "ping failed")

print(f"serve traffic OK ({len(by_id)} responses, warm == cold, "
      f"{counters.get('serve.session_hits', 0)} session hits)")
PYEOF

  # SIGTERM drain: the daemon holds one request in flight (start delay),
  # gets the signal, and must still answer it and exit 0.
  mkfifo "$dir/in"
  "$bin" --test-start-delay-ms=300 < "$dir/in" > "$dir/drain.jsonl" &
  local pid=$!
  exec 3>"$dir/in"
  printf '%s\n' '{"protocol_version":1,"id":"inflight","source":"program p; var i : integer; begin i := 0; while i < 10 do i := i + 1 end."}' >&3
  sleep 0.1
  kill -TERM "$pid"
  local rc=0
  wait "$pid" || rc=$?
  exec 3>&-
  if [ "$rc" -ne 0 ]; then
    echo "serve smoke violation: SIGTERM drain exited $rc" >&2
    exit 1
  fi
  python3 - "$dir/drain.jsonl" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [json.loads(l) for l in f]
if len(lines) != 1 or lines[0]["id"] != "inflight" or lines[0]["status"] != "ok":
    raise SystemExit("serve smoke violation: in-flight request not answered "
                     f"across SIGTERM drain: {lines}")
print("SIGTERM drain OK (in-flight request answered, exit 0)")
PYEOF
}

serve_smoke build-ci/src/serve/syntox_serve ci
if [ "$NO_ASAN" -eq 0 ]; then
  (ulimit -s 65536; serve_smoke build-asan/src/serve/syntox_serve asan)
fi

echo "ALL CHECKS PASSED"
