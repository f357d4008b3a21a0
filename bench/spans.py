"""Span tracing of survkit's layers from outside the package.

``install`` replaces public survkit functions with timing wrappers in every
module namespace that binds them (and in the dispatch tables the CLI and
the HPO runner use), so calls are traced wherever callers look them up.
Nothing under ``src/`` changes. A wrapper opens a span, calls the original,
closes the span, and returns the original's result or re-raises its
exception unchanged.

Spans are kept in memory as ``[name, start, end, parent, counts]`` lists
and aggregated when the run ends: a span's self time is its duration minus
the durations of its direct children.

Span names are ``layer.op`` or ``layer.op.label``; they aggregate to the
metrics ``layer.op_s`` and ``layer.op_s.label``.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# Modules whose self time is reported as a layer total.
LAYERS = ("cli", "data", "preprocess", "estimators", "metrics", "engine",
          "losses", "models", "hpo", "explain")


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def start(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, idx: int, counts: dict) -> None:
        span = self.spans[idx]
        if span[4] is None:
            span[4] = {}
        for key, value in counts.items():
            span[4][key] = span[4].get(key, 0) + value


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def metric_name(span_name: str) -> str:
    layer, op, *label = span_name.split(".", 2)
    return f"{layer}.{op}_s" + (f".{label[0]}" if label else "")


def aggregate(spans) -> dict[str, float]:
    """Per-op self time, per-layer self time, verb wall time and counts."""
    metrics: dict[str, float] = {f"layer.{name}_s": 0.0 for name in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, counts = span
        key = metric_name(name)
        metrics[key] = metrics.get(key, 0.0) + own
        layer = name.split(".", 1)[0]
        metrics[f"layer.{layer}_s"] = metrics.get(f"layer.{layer}_s", 0.0) + own
        if layer == "cli":
            verb = f"verb.{name.split('.', 1)[1]}_s"
            metrics[verb] = metrics.get(verb, 0.0) + (end - start)
        for ckey, value in (counts or {}).items():
            metrics[ckey] = metrics.get(ckey, 0) + value
    metrics["trace.spans"] = len(spans)
    return metrics


def traced(tracer: Tracer, fn, name, counter=None, failure=None):
    """Wrap ``fn`` in a span. ``name`` is a string or a function of the call
    arguments; ``counter(args, kwargs, result)`` returns counts to attach;
    ``failure = (exception type, count key)`` counts that exception before
    it propagates."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.start(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if failure is not None and isinstance(exc, failure[0]):
                tracer.count(idx, {failure[1]: 1})
            raise
        finally:
            tracer.end(idx)
        if counter is not None:
            tracer.count(idx, counter(args, kwargs, result))
        return result

    return wrapper


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _tree_nodes(node) -> int:
    if node.feature is None:
        return 1
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _coalitions(args, kwargs, report) -> dict:
    """Coalition values a global attribution evaluated: 2^d per row in exact
    mode, the two endpoints plus d per permutation in Monte Carlo mode."""
    rows, d = report.raw.shape
    if kwargs.get("mode", "exact") == "exact":
        per_row = 2 ** d
    else:
        per_row = 2 + kwargs.get("n_permutations", 2000) * d
    return {"explain.coalitions": rows * per_row}


class Installation:
    """Record of replaced bindings, so ``uninstall`` can restore them."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object, bool]] = []

    def set(self, owner, attr, value, is_item=False):
        old = owner[attr] if is_item else vars(owner)[attr]
        self.replaced.append((owner, attr, old, is_item))
        if is_item:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, old, is_item in reversed(self.replaced):
            if is_item:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self.replaced.clear()


def _rebind(inst: Installation, fn, wrapper) -> None:
    """Replace every binding of ``fn`` in loaded survkit module namespaces."""
    for modname, module in list(sys.modules.items()):
        if modname != "survkit" and not modname.startswith("survkit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                inst.set(module, attr, wrapper)


def install(tracer: Tracer) -> Installation:
    """Install timing wrappers on survkit's public layer functions."""
    import survkit.cli as cli
    import survkit.data as data
    import survkit.engine as engine
    import survkit.estimators as estimators
    import survkit.explain as explain
    import survkit.hpo as hpo
    import survkit.losses as losses
    import survkit.metrics as metrics
    import survkit.models as models
    import survkit.preprocess as preprocess
    from survkit.errors import ConvergenceError

    inst = Installation()

    def wrap(fn, name, counter=None, failure=None):
        _rebind(inst, fn, traced(tracer, fn, name, counter, failure))

    wrap(data.read_cohort_csv, "data.csv_read",
         lambda a, k, r: {"data.csv_rows": int(r.n)})
    wrap(data.write_cohort_csv, "data.csv_write",
         lambda a, k, r: {"data.csv_rows": int(_arg(a, k, 0, "cohort").n)})
    wrap(data.synth_cohort, "data.synth")

    wrap(preprocess.split, "preprocess.split")
    wrap(preprocess.fit_encoder, "preprocess.encode")
    wrap(preprocess.transform, "preprocess.encode")
    wrap(preprocess.kfold, "preprocess.kfold")

    wrap(estimators.censoring_survival, "estimators.censoring_survival")
    wrap(estimators.kaplan_meier, "estimators.kaplan_meier")
    wrap(estimators.breslow_baseline, "estimators.breslow")
    wrap(estimators.cox_calibrate, "estimators.cox_calibrate",
         failure=(ConvergenceError, "estimators.cox_calibrate_failed"))

    wrap(metrics.harrell_c, "metrics.harrell_c",
         lambda a, k, r: {"metrics.harrell_c_calls": 1,
                          "metrics.harrell_c_pairs": int(r.comparable)})
    wrap(metrics.ipcw_c, "metrics.ipcw_c")
    wrap(metrics.td_auc, "metrics.td_auc",
         lambda a, k, r: {"metrics.td_auc_times": int(r.times.size)})
    wrap(metrics.ibs, "metrics.ibs")
    wrap(metrics.default_time_grid, "metrics.time_grid")

    wrap(engine.fit_survival_tree, "engine.survival_tree",
         lambda a, k, r: {"engine.survival_tree_nodes": _tree_nodes(r)})
    wrap(engine.fit_regression_tree, "engine.regression_tree",
         lambda a, k, r: {"engine.regression_tree_nodes": _tree_nodes(r)})
    wrap(engine.boost, "engine.boost",
         lambda a, k, r: {"engine.boost_rounds": len(r.trees)})
    wrap(engine.predict_tree, "engine.predict_tree",
         lambda a, k, r: {"engine.predict_tree_row_trees": int(r.size)})

    for cls in (losses.CoxLoss, losses.AftLoss, losses.SquaredLoss,
                losses.LogisticLoss, losses.FirstOrder):
        inst.set(cls, "value_grad_hess",
                 traced(tracer, cls.value_grad_hess, "losses.grad_hess",
                        lambda a, k, r: {"losses.grad_hess_calls": 1}))

    wrap(models.fit_family,
         lambda a, k: f"models.fit.{_arg(a, k, 0, 'family')}")
    wrap(models.fit_horizon_classifier, "models.fit.horizon")
    wrap(models.predict_risk, "models.predict_risk",
         lambda a, k, r: {"models.predict_risk_rows": int(r.size)})
    wrap(models.predict_curves, "models.predict_curves",
         lambda a, k, r: {"models.curves_built": len(r)})
    wrap(models.save_model, "models.save",
         lambda a, k, r: {"models.save_bytes":
                          os.path.getsize(_arg(a, k, 1, "path"))})
    wrap(models.load_model, "models.load")

    for sampler, fn in list(hpo.SAMPLERS.items()):
        inst.set(hpo.SAMPLERS, sampler,
                 traced(tracer, fn, f"hpo.sample.{sampler}"), is_item=True)
    inst.set(hpo.Study, "to_json",
             traced(tracer, hpo.Study.to_json, "hpo.study_io"))
    inst.set(hpo.Study, "from_json", classmethod(
        traced(tracer, vars(hpo.Study)["from_json"].__func__, "hpo.study_io")))

    wrap(hpo.run_study, "hpo.run_study")
    inst.set(hpo.Study, "record", traced(
        tracer, hpo.Study.record, "hpo.record",
        lambda a, k, r: {"hpo.trials": 1,
                         "hpo.trials_failed": int(_arg(a, k, 1, "trial").failed)}))

    wrap(explain.permutation_importance, "explain.permutation")
    wrap(explain.global_attribution, "explain.shapley", _coalitions)

    for verb, fn in list(cli.COMMANDS.items()):
        inst.set(cli.COMMANDS, verb,
                 traced(tracer, fn, f"cli.{verb.replace('-', '_')}"),
                 is_item=True)
    return inst
