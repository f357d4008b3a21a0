"""Scale smoke test for random survival forest prediction and evaluation.

Fits a 10-tree forest on a synthetic 10,000-row cohort, predicts the risk
and the survival curve of every training row at the cohort's default
100-point time grid, and scores them with Harrell's C, Uno's C,
time-dependent AUC and the integrated Brier score. Prints each step's time,
the process's peak RSS and the bytes of leaf hazards the forest holds, and
exits 1 if a result is not finite, that peak passes its limit (150 MB by
default) or the hazards pass 2 MB. The forest holds each leaf's hazard as
its steps, and each prediction works in row blocks, so the peak is the
fit's own; dense (leaves x |grid|) tables (about 7,000 grid times here)
would hold about 95 MB, and the whole n x |grid| ensemble CHF over half a
gigabyte.

    PYTHONPATH=src python scripts/rsf_scale_smoke.py [--limit-mb 150]
"""

import argparse
import resource
import sys
import time

import numpy as np

from survkit.data import synth_cohort
from survkit.estimators import censoring_survival
from survkit.metrics import default_time_grid, harrell_c, ibs, ipcw_c, td_auc
from survkit.models import fit_family, predict_risk, survival_matrix

# the forest's steps take about 0.74 MB here
HAZARD_LIMIT_MB = 2.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit-mb", type=float, default=150.0)
    args = parser.parse_args(argv)
    n = 10_000
    cohort = synth_cohort(n, 5, "ph", [1.0, 0.5, 0.0, 0.0, -0.5],
                          censor_rate=0.3, seed=0)
    X = np.asarray(cohort.features, dtype=float)
    started = time.perf_counter()
    model = fit_family("rsf", cohort, n_trees=10, seed=1)
    fitted = time.perf_counter()
    fit_peak = peak_rss_mb()
    risks = predict_risk(model, X)
    risked = time.perf_counter()
    risk_peak = peak_rss_mb()
    censor_dist = censoring_survival(cohort.time, cohort.event)
    grid = default_time_grid(cohort.time, cohort.event, censor_dist)
    curves = survival_matrix(model, X, grid.times)
    done = time.perf_counter()
    curve_peak = peak_rss_mb()
    held = sum(array.nbytes for steps in model.artifact.steps
               for array in (steps.offsets, steps.positions, steps.values,
                             steps.sums)) / 1e6
    print(f"rows {n}, grid {model.artifact.grid.size} times, leaf hazards "
          f"held {held:.2f} MB")
    print(f"fit {fitted - started:.2f} s, peak RSS {fit_peak:.1f} MB")
    print(f"predict_risk {risked - fitted:.2f} s, peak RSS {risk_peak:.1f} MB")
    print(f"survival_matrix {done - risked:.2f} s, peak RSS {curve_peak:.1f} MB")
    risk_args = (cohort.time, cohort.event, risks)
    scores = {}
    for name, metric in (
            ("harrell_c", lambda: harrell_c(*risk_args).c_index),
            ("ipcw_c", lambda: ipcw_c(*risk_args, censor_dist).c_index),
            ("td_auc", lambda: td_auc(*risk_args, grid, censor_dist).mean),
            ("ibs", lambda: ibs(grid, curves, cohort.time, cohort.event,
                                censor_dist))):
        begun = time.perf_counter()
        scores[name] = metric()
        print(f"{name} {scores[name]:.4f} in "
              f"{time.perf_counter() - begun:.2f} s")
    peak = peak_rss_mb()
    print(f"peak RSS {peak:.1f} MB")
    if not (np.all(np.isfinite(risks)) and curves.shape == (n, 100)):
        print("predictions are malformed", file=sys.stderr)
        return 1
    if not all(np.isfinite(list(scores.values()))):
        print(f"a metric is not finite: {scores}", file=sys.stderr)
        return 1
    if held > HAZARD_LIMIT_MB:
        print(f"the forest holds {held:.2f} MB of leaf hazards, past the "
              f"{HAZARD_LIMIT_MB:g} MB limit", file=sys.stderr)
        return 1
    if peak > args.limit_mb:
        print(f"peak RSS {peak:.1f} MB passes the {args.limit_mb:g} MB limit",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
