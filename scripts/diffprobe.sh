#!/usr/bin/env bash
# Behaviour probe: runs the syntox_cli of revision REV and of the working
# tree over one corpus and fails when a single byte of the findings or
# the abstract states differs.
#
# Corpus (written by the working tree's dump_corpus): the paper programs,
# McCarthy_k for k = 9, 12, ..., 24 and SEEDS seeds x 4 RandomProgramGen families.
# Configurations: {interval, product} x {default, --no-prune,
# --strategy=worklist, --terminate}, each run with
# --format=json --states --metrics-json.
#
# Compared byte for byte: exit status, stderr, and the findings document
# without its stats and metrics blocks (verdict, conditions, warnings,
# checks, states). The stats block and the metrics counters and gauges
# are compared too, with every timing masked; counters that moved are
# printed as an old -> new table and do not fail the probe.
#
# REV is exported with `git archive` and built under build/diffprobe/
# (kept between runs, keyed by commit); the working tree is built in
# build/ (the default preset).
#
# Usage: scripts/diffprobe.sh REV [SEEDS]     (SEEDS defaults to 200)

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/diffprobe.sh REV [SEEDS]" >&2
  exit 2
fi
SHA=$(git rev-parse --verify "$1^{commit}")
SEEDS=${2:-200}
JOBS=$(nproc)
[ "$JOBS" -gt 4 ] && JOBS=4

WORK=build/diffprobe
OLD_SRC="$WORK/src-$SHA"
OLD_BUILD="$WORK/build-$SHA"
mkdir -p "$WORK"

# Runs a build step quietly; on failure shows the end of its log.
quiet() {
  if ! "$@" > "$WORK/build.log" 2>&1; then
    tail -30 "$WORK/build.log" >&2
    echo "diffprobe: build step failed: $*" >&2
    exit 2
  fi
}

echo "== building $SHA"
if [ ! -d "$OLD_SRC" ]; then
  rm -rf "$OLD_SRC.tmp"
  mkdir -p "$OLD_SRC.tmp"
  git archive "$SHA" | tar -x -C "$OLD_SRC.tmp"
  mv "$OLD_SRC.tmp" "$OLD_SRC"
fi
quiet cmake -S "$OLD_SRC" -B "$OLD_BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo
quiet cmake --build "$OLD_BUILD" -j "$JOBS" --target syntox_cli

echo "== building the working tree"
quiet cmake --preset default
quiet cmake --build build -j "$JOBS" --target syntox_cli dump_corpus

CORPUS="$WORK/corpus"
rm -rf "$CORPUS" "$WORK/out"
mkdir -p "$CORPUS"
build/tests/dump_corpus "$CORPUS" "$SEEDS"

python3 - "$OLD_BUILD/examples/syntox_cli" build/examples/syntox_cli \
  "$CORPUS" "$WORK/out" "$JOBS" <<'EOF'
import concurrent.futures, json, os, subprocess, sys

old_cli, new_cli, corpus, out, jobs = sys.argv[1:6]
domains = ["interval", "product"]
variants = {"default": [], "no-prune": ["--no-prune"],
            "worklist": ["--strategy=worklist"], "terminate": ["--terminate"]}
configs = [(f"{d}/{v}", [f"--domain={d}"] + flags)
           for d in domains for v, flags in variants.items()]
programs = sorted(os.listdir(corpus))


def run(cli, side, config, flags, prog):
    stem = os.path.join(out, side, config.replace("/", "-"), prog[:-4])
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    metrics = stem + ".metrics.json"
    p = subprocess.run([cli, "--format=json", "--states",
                        f"--metrics-json={metrics}"] + flags +
                       [os.path.join(corpus, prog)],
                       capture_output=True, text=True)
    doc, counters = None, {}
    if p.returncode == 0:
        doc = json.loads(p.stdout)
        with open(metrics) as f:
            m = json.load(f)
        counters = {f"metrics.{k}": v for kind in ("counters", "gauges")
                    for k, v in m.get(kind, {}).items()}
    return p.returncode, p.stderr, doc, counters


def flat_stats(stats):
    """Leaf counters of the stats block, timings masked."""
    flat = {}
    for k, v in stats.items():
        if k == "phases":
            for i, ph in enumerate(v):
                for pk, pv in ph.items():
                    if pk not in ("seconds", "name"):
                        flat[f"stats.phases[{i}].{pk}"] = pv
        elif not k.endswith("seconds"):
            flat[f"stats.{k}"] = v
    return flat


def probe(job):
    config, flags, prog = job
    o = run(old_cli, "old", config, flags, prog)
    n = run(new_cli, "new", config, flags, prog)
    where = f"{config} {prog}"
    if o[0] != n[0] or o[1] != n[1]:
        return where, "exit status or stderr differs", {}, {}
    if o[2] is None:
        return where, None, {}, {}
    strip = lambda d: json.dumps({k: v for k, v in d.items()
                                  if k not in ("stats", "metrics")},
                                 sort_keys=True)
    if strip(o[2]) != strip(n[2]):
        return where, "findings or states differ", {}, {}
    oc = {**flat_stats(o[2]["stats"]), **o[3]}
    nc = {**flat_stats(n[2]["stats"]), **n[3]}
    return where, None, oc, nc


jobs_list = [(c, f, p) for c, f in configs for p in programs]
diffs, moved = [], {}
with concurrent.futures.ThreadPoolExecutor(int(jobs)) as pool:
    for where, diff, oc, nc in pool.map(probe, jobs_list):
        if diff:
            diffs.append(f"{where}: {diff}")
            continue
        for key in sorted(set(oc) | set(nc)):
            a, b = oc.get(key, 0), nc.get(key, 0)
            if a == b:
                continue
            # Per-phase counters fold into one row per phase field.
            row = moved.setdefault(key.split("[")[0] + key.split("]")[-1]
                                   if "[" in key else key,
                                   [0, 0, 0, 0])
            row[0] += a
            row[1] += b
            row[2 if b < a else 3] += 1

print(f"{len(jobs_list)} comparisons ({len(programs)} programs x "
      f"{len(configs)} configurations)")
if moved:
    print(f"{'counter':44} {'old':>14} {'new':>14} {'down':>6} {'up':>6}")
    for key, (a, b, down, up) in sorted(moved.items()):
        print(f"{key:44} {a:>14} {b:>14} {down:>6} {up:>6}")
else:
    print("no counter moved")
if diffs:
    print(f"FAIL: {len(diffs)} runs differ")
    for d in diffs[:40]:
        print("  " + d)
    sys.exit(1)
print("findings and states identical")
EOF
