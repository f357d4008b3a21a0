"""The benchmark's workloads: a survkit config and the verbs run on it.

Every workload starts with ``synth`` (timed as set-up) on a cohort drawn
from the benchmark seed; the steps after it are the timed verbs. The
pipeline's own master seed is fixed, so the seed changes only the inputs.
See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

PIPELINE_SEED = 0
BETA = "1,0.5,0,0,-0.5"
BOOSTED = ("gbsa", "gb_cox", "gb_aft", "gb_reg_weighted", "horizon")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict[str, str]
    steps: tuple[tuple[str, tuple[str, ...]], ...]  # (verb, extra CLI args)


WORKLOADS = {w.name: w for w in (
    # The paper pipeline: a resumed cross-validated SSVM search over all
    # three samplers, then six families with curves and horizons, then
    # attribution.
    Workload(
        name="compare",
        config={"synth.n": "400", "synth.d": "5", "synth.model": "ph",
                "synth.beta": BETA, "synth.censor_rate": "0.3",
                "prep.test_fraction": "0.2", "prep.stratify": "true",
                "families": "rsf,gbsa,ssvm,gb_cox,gb_aft,gb_reg_weighted",
                "sampler": "all", "folds": "3",
                "hpo.space.ssvm.gamma": "float:0.001:10:log",
                "hpo.space.ssvm.step_size": "float:0.001:0.1:log",
                "hpo.space.ssvm.epochs": "int:50:300",
                "horizons": "0.25,1.0",
                **{f"family.{f}.n_rounds": "50" for f in BOOSTED},
                "explain.model": "gb_cox", "explain.mode": "exact",
                "explain.sample_size": "10"},
        steps=(("prep", ()),
               ("hpo", ("--families", "ssvm", "--trials", "15")),
               ("hpo", ("--families", "ssvm", "--trials", "30")),
               ("train-eval", ()), ("explain", ()))),
    # Evaluation at scale: a small training set and a large test set.
    Workload(
        name="large-eval",
        config={"synth.n": "4000", "synth.d": "5", "synth.model": "ph",
                "synth.beta": BETA, "synth.censor_rate": "0.3",
                "prep.test_fraction": "0.8333", "prep.stratify": "true",
                "families": "rsf,gbsa,ssvm,gb_cox",
                "family.rsf.n_trees": "10", "family.gbsa.n_rounds": "50",
                "family.gb_cox.n_rounds": "50"},
        steps=(("prep", ()), ("train-eval", ()))),
)}


def config_text(workload: Workload, out_dir: str) -> str:
    """The survkit config file for one repetition writing into ``out_dir``."""
    values = {"out": out_dir, "seed": str(PIPELINE_SEED),
              "prep.mode": "survival", "prep.input": f"{out_dir}/cohort.csv",
              **workload.config}
    return "".join(f"{k} = {v}\n" for k, v in values.items())
