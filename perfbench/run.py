#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark package in
perfbench/ (the analyzer libraries from src/ plus the harness) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset, then runs one workload and prints the harness's output. The
last line of standard output is the result object; the line before it
is the run's provenance. The same result, with provenance, is written
under the build directory's out/.

Exits non-zero without printing a result when the build fails (for
example in a directory holding only BENCHMARK.json and perfbench/), when
the harness fails, or when the metrics it reports do not match
BENCHMARK.json. Exits 1 after printing the result when an output failed
its oracle.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("configuring the benchmark failed")
    step = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return out / "perfbench"


def revision():
    """The git revision when the checkout is a repository; otherwise a
    digest of the analyzer sources, which names the code just as well."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return "git:" + rev.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def check_metrics(result, spec, trace):
    want = spec["per_layer"] if trace else spec["end_to_end"]
    want = [(m["name"], m["unit"]) for m in want]
    got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
    if sorted(want) != sorted(got):
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(want)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("no BENCHMARK.json at the root of the checkout")
    spec = json.loads(spec_path.read_text())
    # BENCHMARK.json lists the gated workloads; serve-edit, in
    # workloads.json only, runs the same way but is not gated (README.md).
    known = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in known:
        fail(f"unknown workload {args.workload}")

    out = build_dir()
    binary = build(out)
    results = out / "out"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--config", str(HERE / "workloads.json"),
           "--expected-dir", str(HERE / "expected"),
           "--out-dir", str(results), "--revision", revision()]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the harness did not finish within {HARNESS_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"the harness failed with exit code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the harness's last line is not a result object")
    check_metrics(result, spec, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
