"""One repetition of a workload in a fresh interpreter.

Started by run.py, which times it from process start. The worker imports
survkit from the checkout's ``src/``, generates the cohort with ``synth``
and prints ``setup-done``; that is the end of set-up. It then runs the
workload's verbs back to back through ``survkit.cli.main`` (traced when
asked), and writes a JSON report: per-verb wall times, peak RSS, output
sizes and hashes, result values and operation counts.

    python3 bench/worker.py --workload compare --seed 0 --workdir DIR \
        --report FILE [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, config_text

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_survkit():
    sys.path.insert(0, str(SRC))
    import survkit
    origin = Path(survkit.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"survkit imported from {origin}, not from {SRC}")
    from survkit.cli import main
    return main


def _run_verb(main, verb: str, cfg: Path, extra=()) -> int:
    try:
        return main([verb, "--config", str(cfg), *extra])
    except Exception:  # a traceback is a failed operation, not a crash
        traceback.print_exc()
        return 1


def _output_files(out: Path) -> dict[str, dict]:
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            files[path.relative_to(out).as_posix()] = {
                "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return files


def _read_csv_values(path: Path) -> dict[str, float]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return {line.split(",")[0]: float(line.split(",")[1]) for line in lines}


def _results(out: Path) -> tuple[dict, int, int]:
    """Compared result values, plus (attempted, failed) family and trial
    operations."""
    values: dict[str, float | None] = {}
    attempted = failed = 0
    metrics_file = out / "metrics.json"
    if metrics_file.exists():
        report = json.loads(metrics_file.read_text(encoding="utf-8"))
        for row in report["models"]:
            for key in ("c_index", "c_index_ipcw", "ibs", "mean_td_auc"):
                values[f"{row['model']}.{key}"] = row[key]
        attempted += len(report["models"]) + len(report["failures"])
        failed += len(report["failures"])
    for path in sorted((out / "studies").glob("study_*.json")):
        study = json.loads(path.read_text(encoding="utf-8"))
        name = path.stem[len("study_"):]
        best = study["best_index"]
        values[f"study.{name}.best"] = (None if best is None
                                        else study["trials"][best]["value"])
        attempted += len(study["trials"])
        failed += sum(t["error"] is not None for t in study["trials"])
    for path in sorted(out.glob("importance_*.csv")):
        kind = path.stem[len("importance_"):]
        for feature, value in _read_csv_values(path).items():
            values[f"importance.{kind}.{feature}"] = value
    return values, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli_main = _import_survkit()
    # survkit's main() leaves an existing logging setup alone: keep INFO
    # lines out of the timed region.
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    workload = WORKLOADS[args.workload]
    out = Path(args.workdir) / "out"
    cfg = Path(args.workdir) / "run.cfg"
    cfg.write_text(config_text(workload, str(out)), encoding="utf-8")

    synth_rc = _run_verb(cli_main, "synth", cfg, ("--seed", str(args.seed)))
    print("setup-done", flush=True)
    if args.setup_only or synth_rc != 0:
        return synth_rc

    tracer = None
    if args.trace:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    verb_s: dict[str, float] = {}
    steps = []
    for verb, extra in workload.steps:
        started = time.perf_counter()
        rc = _run_verb(cli_main, verb, cfg, extra)
        elapsed = time.perf_counter() - started
        key = f"{verb.replace('-', '_')}_s"
        verb_s[key] = verb_s.get(key, 0.0) + elapsed
        steps.append({"verb": verb, "args": list(extra), "rc": rc,
                      "seconds": elapsed})

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    files = _output_files(out)
    values, attempted, failed = _results(out)
    report = {
        "steps": steps,
        "verb_s": verb_s,
        "total_s": sum(verb_s.values()),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "output_mb": sum(f["bytes"] for f in files.values()) / 1e6,
        "files": files,
        "values": values,
        "attempted": attempted + 1 + len(steps),
        "failed": failed + sum(s["rc"] != 0 for s in steps),
        "spans": tracer.spans if tracer else None,
    }
    tmp = Path(args.report + ".tmp")
    tmp.write_text(json.dumps(report), encoding="utf-8")
    os.replace(tmp, args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
