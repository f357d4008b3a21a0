"""survkit pipeline benchmark.

Runs one workload (or all of them) through the real CLI verbs, each
repetition in a fresh interpreter with BLAS threads pinned, and prints every
metric with its unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
``end_to_end`` list of BENCHMARK.json for an untraced run (``--trace 0``)
and the ``per_layer`` list for a traced one (``--trace 1``).

    python3 bench/run.py --workload compare --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 0 --save new.json
    python3 bench/run.py --compare bench/results/baseline.json new.json
    python3 bench/run.py --workload all --record-reference 0-63

A correctness failure (a verb exiting nonzero, a failed family or trial,
outputs that differ between repetitions or between traced and untraced
runs, or results that deviate from bench/reference.json) prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import aggregate
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.json"
SPEC_FILE = ROOT / "BENCHMARK.json"
RUNS_DIR = ROOT / ".bench_runs"

PINNED_THREADS = 1
MIN_REPS = 3           # untraced repetitions per run, at least
SETUP_SAMPLES = 8      # extra set-up-only interpreters per run
RUN_TIMEOUT_S = 170.0  # a run must end within 180 s
RESULT_TOLERANCE = 1e-9
DEFAULT_BOUND = 0.10   # for metrics BENCHMARK.json does not gate

E2E_UNITS = {"setup_s": "s", "prep_s": "s", "hpo_s": "s", "train_eval_s": "s",
             "explain_s": "s", "total_s": "s", "peak_rss_mb": "MB",
             "output_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a worker crashed)."""


# ------------------------------------------------------------ host context

def ref_kernel_s() -> float:
    """Wall time of a fixed numpy kernel: 10 argsorts of 200k floats."""
    import numpy as np
    x = np.random.default_rng(12345).random(200_000)
    started = time.perf_counter()
    for _ in range(10):
        np.argsort(x, kind="stable")
    return time.perf_counter() - started


def host_info() -> dict:
    import numpy as np
    from importlib.metadata import version
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"), "blas": blas,
            "pinned_threads": PINNED_THREADS}


# ----------------------------------------------------------------- workers

def _spawn(workload: str, seed: int, workdir: Path, deadline: float,
           trace: bool = False, setup_only: bool = False) -> tuple[float, dict | None]:
    """Run one worker; returns (set-up seconds, report or None)."""
    workdir.mkdir(parents=True)
    report = workdir / "report.json"
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir),
           "--report", str(report)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(PINNED_THREADS)
    with open(workdir / "stderr.log", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=env)
        try:
            if not select.select([proc.stdout], [], [],
                                 max(0.0, deadline - time.monotonic()))[0]:
                raise subprocess.TimeoutExpired(cmd, deadline)
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{workload} worker exceeded the time limit")
        finally:
            proc.stdout.close()
    if line.strip() != b"setup-done" or rc != 0:
        tail = (workdir / "stderr.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"{workload} worker failed (exit {rc}):\n{tail}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(report.read_text(encoding="utf-8"))


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def result_dev(values: dict, reference: dict) -> float:
    """Largest absolute deviation; a missing or extra value counts as inf."""
    dev = 0.0
    for key in set(values) | set(reference):
        a, b = values.get(key, math.nan), reference.get(key, math.nan)
        if a is None or b is None:
            dev = max(dev, 0.0 if a is b else math.inf)
        elif not (math.isfinite(a) and math.isfinite(b)):
            dev = math.inf
        else:
            dev = max(dev, abs(a - b))
    return dev


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result record (see README.md)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    run_dir = RUNS_DIR / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    kernel_before = ref_kernel_s()
    n_dirs = 0

    def spawn(**kw):
        nonlocal n_dirs
        n_dirs += 1
        return _spawn(name, seed, run_dir / f"w{n_dirs}", deadline, **kw)

    try:
        spawn(setup_only=True)  # warm-up: byte-compile, fill the file cache
        started = time.monotonic()
        setups = [spawn(setup_only=True)[0] for _ in range(SETUP_SAMPLES)]
        plain, traced, walls = [], [], []
        while True:
            rep_started = time.monotonic()
            # traced and untraced repetitions alternate which goes first
            if trace and len(traced) % 2:
                traced.append(spawn(trace=True)[1])
            setup_s, report = spawn()
            setups.append(setup_s)
            plain.append(report)
            if trace and len(traced) < len(plain):
                traced.append(spawn(trace=True)[1])
            walls.append(time.monotonic() - rep_started)
            enough = trace or len(plain) >= MIN_REPS
            if enough and (time.monotonic() + statistics.median(walls)
                           > started + seconds):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if RUNS_DIR.exists() and not any(RUNS_DIR.iterdir()):
            RUNS_DIR.rmdir()
    kernel_after = ref_kernel_s()

    e2e = {"setup_s": _quartiles(setups)}
    for key in plain[0]["verb_s"]:
        e2e[key] = _quartiles([r["verb_s"][key] for r in plain])
    for key in ("total_s", "peak_rss_mb", "output_mb"):
        e2e[key] = _quartiles([r[key] for r in plain])

    problems = []
    reports = plain + traced
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if any(r["files"] != plain[0]["files"] for r in reports):
        problems.append("outputs differ between repetitions"
                        + (" or between traced and untraced runs" if trace else ""))
    reference = _reference(name, seed)
    dev = None
    if reference is None:
        print(f"note: no stored reference for {name} seed {seed}; results "
              "are checked for determinism only", file=sys.stderr)
    else:
        dev = max(result_dev(r["values"], reference) for r in reports)
        if not dev <= RESULT_TOLERANCE:
            problems.append(f"result_dev {dev!r} exceeds {RESULT_TOLERANCE}")

    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "reps": len(plain), "end_to_end": e2e,
        "result_dev": dev, "failed_ops_frac": failed / attempted,
        "attempted": attempted, "failed": failed,
        "correct": not problems, "problems": problems,
        "files": plain[0]["files"],
        "host_ref_kernel_s": {"before": kernel_before, "after": kernel_after},
    }
    if trace:
        layers = [aggregate(r["spans"]) for r in traced]
        keys = sorted(set().union(*layers))
        per_layer = {k: statistics.median([m.get(k, 0) for m in layers])
                     for k in keys}
        per_layer["trace.overhead_s"] = (
            statistics.median([r["total_s"] for r in traced])
            - e2e["total_s"]["median"])
        per_layer["host.ref_kernel_s"] = 0.5 * (kernel_before + kernel_after)
        record["per_layer"] = per_layer
        record["traced_reps"] = len(traced)
    return record


# ------------------------------------------------------------------ output

def load_spec() -> dict:
    if not SPEC_FILE.exists():
        raise BenchError(f"{SPEC_FILE.name} not found at the checkout root")
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def print_record(record: dict, spec: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['reps']} untraced reps"
          + (f", {record['traced_reps']} traced" if "traced_reps" in record else "")
          + f"  closed loop, 1 client, {PINNED_THREADS} BLAS thread")
    for key, q in record["end_to_end"].items():
        print(f"  {key:<16} {q['median']:>12.6g} {E2E_UNITS[key]:<5} "
              f"median of {q['n']}  (q1 {q['q1']:.6g}, q3 {q['q3']:.6g})")
    dev = record["result_dev"]
    print(f"  {'result_dev':<16} {'n/a' if dev is None else format(dev, '12.6g'):>12} abs")
    print(f"  {'failed_ops_frac':<16} {record['failed_ops_frac']:>12.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations)")
    k = record["host_ref_kernel_s"]
    print(f"  host.ref_kernel_s before {k['before']:.4f} s, after {k['after']:.4f} s")
    if "per_layer" in record:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for key, value in sorted(record["per_layer"].items()):
            print(f"  {key:<34} {value:>12.6g} {units.get(key, '')}")
    for problem in record["problems"]:
        print(f"  INCORRECT: {problem}")


def result_line(record: dict, spec: dict, trace: bool) -> dict:
    metrics = {}
    if trace:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": record["per_layer"].get(m["name"], 0),
                                  "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {
                "value": record["end_to_end"][m["name"]]["median"],
                "unit": m["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


# -------------------------------------------------------------- comparison

def compare(old: dict, new: dict, spec: dict) -> list[str]:
    """Per-workload, per-metric deltas of ``new`` against ``old``."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    lines = []
    for name, rec in new["workloads"].items():
        base = old["workloads"].get(name)
        if base is None:
            lines.append(f"{name}: not in the earlier file")
            continue
        lines.append(f"== {name}")
        for key, q in rec["end_to_end"].items():
            if key not in base["end_to_end"]:
                continue
            b = base["end_to_end"][key]
            bound, better = bounds.get(key, (DEFAULT_BOUND, "lower"))
            sign = 1.0 if better == "lower" else -1.0
            delta = (q["median"] - b["median"]) / b["median"]
            spread = max((b["q3"] - b["q1"]) / b["median"],
                         (q["q3"] - q["q1"]) / q["median"])
            if sign * delta > bound and spread <= bound:
                status = "regressed"
            elif spread > bound:
                status = "unresolved"
            else:
                status = "within bound"
            lines.append(f"  {key:<16} {b['median']:>10.4g} -> {q['median']:<10.4g}"
                         f" {delta:+8.1%}  spread {spread:5.1%}  bound "
                         f"{bound:.0%}  {status}")
        changed = sorted(k for k in set(rec["files"]) | set(base["files"])
                         if rec["files"].get(k, {}).get("sha256")
                         != base["files"].get(k, {}).get("sha256"))
        lines.append("  outputs: " + ("same hashes" if not changed
                                      else "changed: " + ", ".join(changed)))
    return lines


# ------------------------------------------------------------- references

def record_reference(name: str, seeds: list[int]) -> None:
    table = (json.loads(REFERENCE.read_text(encoding="utf-8"))
             if REFERENCE.exists() else {})
    run_dir = RUNS_DIR / f"reference-{os.getpid()}"
    try:
        for seed in seeds:
            deadline = time.monotonic() + RUN_TIMEOUT_S
            _, report = _spawn(name, seed, run_dir / f"s{seed}", deadline)
            if report["failed"]:
                raise BenchError(f"{name} seed {seed}: failed operations")
            table.setdefault(name, {})[str(seed)] = report["values"]
            print(f"{name} seed {seed}: {len(report['values'])} values")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print the deltas between two results files")
    parser.add_argument("--record-reference", metavar="SEEDS",
                        help="store result values for seeds LO-HI")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.compare:
            try:
                old, new = (json.loads(Path(p).read_text()) for p in args.compare)
            except (OSError, ValueError) as exc:
                raise BenchError(f"cannot read a results file: {exc}") from None
            print("\n".join(compare(old, new, spec)))
            return 0
        if not args.workload:
            parser.error("--workload is required")
        if not (ROOT / "src" / "survkit" / "__init__.py").exists():
            raise BenchError(f"survkit sources not found under {ROOT / 'src'}")
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        if args.record_reference:
            for name in names:
                record_reference(name, _seed_range(args.record_reference))
            return 0

        results = {"host": host_info(), "workloads": {}}
        lines = []
        for name in names:
            record = run_workload(name, args.seed, args.seconds,
                                  trace=bool(args.trace))
            if args.save and not args.trace:
                # a results file holds per-layer figures too
                traced = run_workload(name, args.seed, args.seconds, trace=True)
                record["per_layer"] = traced["per_layer"]
                record["traced_reps"] = traced["traced_reps"]
                record["correct"] &= traced["correct"]
                record["problems"] += traced["problems"]
            results["workloads"][name] = record
            print_record(record, spec)
            lines.append(result_line(record, spec, bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    print("host: " + json.dumps(results["host"], sort_keys=True))
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1, sort_keys=True)
                                   + "\n", encoding="utf-8")
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {"correct": all(x["correct"] for x in lines),
                 "attempted": sum(x["attempted"] for x in lines),
                 "failed": sum(x["failed"] for x in lines),
                 "metrics": {f"{n}.{k}": v for n, x in zip(names, lines)
                             for k, v in x["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
