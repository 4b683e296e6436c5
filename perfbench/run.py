#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_fleet --seed 1 \
        --seconds 30 --trace 0

Builds the library sources and the benchmark program (perfbench/)
into .bench_build on first use, runs the helper self-tests (this
file's metric-name and result validation, then perfbench_selftest),
then one measured run of the named workload. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}; the line
before it carries run metadata (source revision, compiler and flags,
build type, nproc, CPU model, thread counts, seed) and the count and
quartiles of the samples behind every statistic. With --trace 0 the
metrics are BENCHMARK.json's end_to_end set, with --trace 1 its
per_layer set; the run fails if the printed set differs.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not NAME_RE.match(metric["name"]):
                fail(f"bad metric name in BENCHMARK.json: {metric['name']!r}")
            if not UNIT_RE.match(metric["unit"]):
                fail(f"bad unit in BENCHMARK.json: {metric['unit']!r}")
    return spec


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources (src/) next to perfbench/; run from "
             "the root of a full checkout", code=2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir)])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", code=2)


def git_revision():
    """HEAD of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources, so a result
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".hh", ".txt",
                                                  ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def check_result(result, spec, trace):
    """Problems with the printed result, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    group = spec["per_layer" if trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in group}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append("metric set differs from BENCHMARK.json: "
                        f"missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if name in declared and entry.get("unit") != declared[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, "
                            f"declared {declared[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: non-finite value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end metric is {value}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    return problems


def self_test():
    """Problems found in this file's own validation, as a list."""
    problems = []
    good_names = ["setup_s", "server.admission.self_ms", "0x-ratio",
                  "a" * 64]
    bad_names = ["", "_x", ".x", "a b", "a/b", "a" * 65, "x\n"]
    good_units = ["ms", "1/s", "%", "ms/op", "samples/s", "a" * 16]
    bad_units = ["", "\u00b5s", "a b", "a" * 17]
    for name in good_names:
        if not NAME_RE.match(name):
            problems.append(f"name {name!r} refused")
    for name in bad_names:
        if NAME_RE.match(name):
            problems.append(f"name {name!r} accepted")
    for unit in good_units:
        if not UNIT_RE.match(unit):
            problems.append(f"unit {unit!r} refused")
    for unit in bad_units:
        if UNIT_RE.match(unit):
            problems.append(f"unit {unit!r} accepted")
    spec = {"end_to_end": [{"name": "a_ms", "unit": "ms"}],
            "per_layer": [{"name": "b", "unit": "count"}]}
    ok = {"correct": True, "attempted": 1, "failed": 0,
          "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}}}
    cases = [
        (ok, 0, 0),
        ({**ok, "metrics": {"a_ms": {"value": 1.5, "unit": "s"}}}, 0, 1),
        ({**ok, "metrics": {"a_ms": {"value": 0, "unit": "ms"}}}, 0, 1),
        ({**ok, "metrics": {"b": {"value": 0, "unit": "count"}}}, 1, 0),
        ({**ok, "metrics": {}}, 0, 1),
        ({**ok, "metrics": {"a_ms": {"value": 1.5, "unit": "ms"},
                            "c": {"value": 1, "unit": "ms"}}}, 0, 1),
        ({**ok, "attempted": 0}, 0, 1),
        ({"correct": True, "metrics": {}}, 0, 1),
    ]
    for i, (result, trace, want) in enumerate(cases):
        got = len(check_result(result, spec, trace))
        if got != want:
            problems.append(f"check_result case {i}: {got} problem(s), "
                            f"expected {want}")
    return problems


def main():
    problems = self_test()
    for problem in problems:
        print(f"perfbench: self-test: {problem}", file=sys.stderr)
    if problems:
        fail("run.py self-test failed")
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", code=2)

    out_dir = ROOT / ".bench_build"
    build(out_dir)
    selftest = subprocess.run([str(out_dir / "perfbench_selftest")],
                              cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("helper self-tests failed")

    work_dir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    results_dir = ROOT / ".bench_out"
    command = [str(out_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--out-dir", str(results_dir)]
    try:
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        fail("perfbench printed no result")
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])

    problems = check_result(result, spec, args.trace)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if problems:
        result["correct"] = False
    info["metadata"].update({
        "git_sha": git_revision(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
    })
    results_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(
        json.dumps({**info, "result": result}, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
