import json
import shutil
import typing

import numpy as np
import pytest

from survkit.cli import (MAX_GRID_RESOLUTION, RunConfig, _best_params,
                         _space_for, main)
from survkit.errors import ConfigError, DataError
from survkit.hpo import ParamSpec, Study
from survkit.models import GbParams, load_model
from test_data import _row, write_csv
from test_models import LEAF_STEP_DEFECTS


def run(argv):
    return main(argv)


def write_config(path, **keys):
    lines = [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def prepared_dir(tmp_path):
    """synth -> prep(survival mode) in a fresh output directory."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "synth.cfg", **{
        "out": str(out), "seed": "11", "synth.n": "300", "synth.d": "3",
        "synth.beta": "1.0,0.5,0.0", "synth.censor_rate": "0.3",
    })
    assert run(["synth", "--config", cfg]) == 0
    cfg2 = write_config(tmp_path / "prep.cfg", **{
        "out": str(out), "seed": "11", "prep.mode": "survival",
        "prep.input": str(out / "cohort.csv"),
    })
    assert run(["prep", "--config", cfg2]) == 0
    return out


class TestSynthPrep:
    def test_outputs_exist(self, prepared_dir):
        for name in ("cohort.csv", "train.csv", "test.csv", "encoder.json",
                     "filter_report.json", "prep_meta.json"):
            assert (prepared_dir / name).exists(), name

    def test_split_metadata(self, prepared_dir):
        meta = json.loads((prepared_dir / "prep_meta.json").read_text())
        assert meta["test_fraction"] == 0.2
        assert meta["n_train"] == 240 and meta["n_test"] == 60

    def test_prep_rerun_byte_identical(self, prepared_dir, tmp_path):
        before = {p.name: p.read_bytes() for p in prepared_dir.iterdir()
                  if p.suffix in (".csv", ".json")}
        cfg = write_config(tmp_path / "prep2.cfg", **{
            "out": str(prepared_dir), "seed": "11", "prep.mode": "survival",
            "prep.input": str(prepared_dir / "cohort.csv"),
        })
        assert run(["prep", "--config", cfg]) == 0
        after = {p.name: p.read_bytes() for p in prepared_dir.iterdir()
                 if p.suffix in (".csv", ".json")}
        assert before == after

    def test_synth_deterministic(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = write_config(tmp_path / f"s_{sub}.cfg", **{
                "out": str(out), "seed": "5", "synth.n": "50", "synth.d": "2",
            })
            assert run(["synth", "--config", cfg]) == 0
            outs.append((out / "cohort.csv").read_bytes())
        assert outs[0] == outs[1]


class TestRegistryPrep:
    def test_underage_row_filtered(self, tmp_path):
        src = tmp_path / "registry.csv"
        rows = [_row() for _ in range(30)] + [_row(age=19)]
        # vary a couple of fields so encoding has content
        rows += [_row(age=60 + i, last="2013-05-0%d" % (i % 8 + 1),
                      status="0") for i in range(10)]
        write_csv(src, rows)
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "prep.cfg", **{
            "out": str(out), "seed": "3", "prep.mode": "registry",
            "prep.input": str(src), "prep.test_fraction": "0.2",
        })
        assert run(["prep", "--config", cfg]) == 0
        report = json.loads((out / "filter_report.json").read_text())
        assert report["removed"]["age_below_minimum"] == 1
        assert report["final"] == 40
        meta = json.loads((out / "prep_meta.json").read_text())
        assert meta["n_train"] + meta["n_test"] == 40
        # ordinal interval categories present in the encoder
        enc = json.loads((out / "encoder.json").read_text())
        assert "consult_to_treatment_cat" in enc["ordinal"]

    def test_untreated_kept_but_missing_covariates_dropped(self, tmp_path):
        src = tmp_path / "registry.csv"
        rows = [_row(age=50 + i, last="2013-0%d-02" % (i % 9 + 1))
                for i in range(20)]
        rows.append(_row(treat=""))   # untreated: no treatment date
        # treated but missing consultation date: a missing covariate
        missing = _row().split(",")
        missing[15] = ""  # DTCONSULT
        rows.append(",".join(missing))
        write_csv(src, rows)
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "prep.cfg", **{
            "out": str(out), "seed": "4", "prep.mode": "registry",
            "prep.input": str(src), "prep.test_fraction": "0.25",
        })
        assert run(["prep", "--config", cfg]) == 0
        meta = json.loads((out / "prep_meta.json").read_text())
        assert meta["dropped_missing_covariates"] == 1
        assert meta["n_train"] + meta["n_test"] == 21  # untreated row kept
        enc = json.loads((out / "encoder.json").read_text())
        # the fixed delay hierarchy, not lexicographic order
        assert enc["ordinal"]["consult_to_treatment_cat"] == \
            ["<=60", "61-90", ">90", "untreated"]
        assert "consult_to_treatment_cat" not in enc["lexicographic_fallback"]

    def _registry_config(self, tmp_path, **keys):
        src = tmp_path / "registry.csv"
        write_csv(src, [_row() for _ in range(30)])
        return write_config(tmp_path / "prep.cfg", **{
            "out": str(tmp_path / "run"), "seed": "3", "prep.mode": "registry",
            "prep.input": str(src), **keys})

    @pytest.mark.parametrize("days", ["inf", "nan", "0", "-5"])
    def test_bad_days_per_month_refused_before_any_output(self, tmp_path,
                                                          days, caplog):
        cfg = self._registry_config(tmp_path, **{"prep.days_per_month": days})
        assert run(["prep", "--config", cfg]) == 2
        assert "prep.days_per_month must be finite and positive" in caplog.text
        assert not (tmp_path / "run" / "filter_report.json").exists()

    def test_unknown_filter_off_name_refused_before_any_output(self, tmp_path,
                                                               caplog):
        cfg = self._registry_config(tmp_path,
                                    **{"filter.off": "age,residence"})
        assert run(["prep", "--config", cfg]) == 2
        assert "unknown rule(s) residence" in caplog.text
        assert "age, residency, staging" in caplog.text
        assert list((tmp_path / "run").glob("*")) == []


class TestSurvivalModeOrdinals:
    def test_ordinal_columns_and_explicit_order(self, tmp_path):
        src = tmp_path / "cohort.csv"
        rows = ["stage,size,time,event"]
        rng = np.random.default_rng(9)
        stages = ["low", "mid", "high"]
        for i in range(60):
            stage = stages[i % 3]
            rows.append(f"{stage},{rng.normal():.6f},{rng.exponential() + 0.1:.6f},"
                        f"{int(rng.random() < 0.7)}")
        src.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "prep.cfg", **{
            "out": str(out), "seed": "4", "prep.mode": "survival",
            "prep.input": str(src), "columns.ordinal": "stage",
            "order.stage": "low,mid,high",
        })
        assert run(["prep", "--config", cfg]) == 0
        enc = json.loads((out / "encoder.json").read_text())
        assert enc["ordinal"]["stage"] == ["low", "mid", "high"]
        assert enc["lexicographic_fallback"] == []
        # encoded output is numeric: the stage column holds ranks 0..2 scaled
        train_lines = (out / "train.csv").read_text().splitlines()
        first_value = float(train_lines[1].split(",")[0])
        assert first_value in (0.0, 1.0, 2.0)

    def test_unknown_ordinal_name_exits_2_before_any_output(self, tmp_path,
                                                            caplog):
        src = tmp_path / "cohort.csv"
        src.write_text("stage,size,time,event\n1,0.5,2.0,1\n2,0.1,3.0,0\n",
                       encoding="utf-8")
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "prep.cfg", **{
            "out": str(out), "prep.mode": "survival", "prep.input": str(src),
            "columns.ordinal": "stage,grade,time"})
        assert run(["prep", "--config", cfg]) == 2
        assert "columns.ordinal names no feature column: grade, time" \
            in caplog.text
        assert list(out.glob("*")) == []


class TestTrainEval:
    @pytest.fixture()
    def evaluated_dir(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11",
            "families": "gbsa,gb_cox,gb_aft,gb_reg_weighted",
            "family.gbsa.n_rounds": "15", "family.gb_cox.n_rounds": "15",
            "family.gb_aft.n_rounds": "15",
            "family.gb_reg_weighted.n_rounds": "15",
            "horizons": "6,12",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        return prepared_dir

    def test_metrics_applicability_matrix(self, evaluated_dir):
        payload = json.loads((evaluated_dir / "metrics.json").read_text())
        rows = {r["model"]: r for r in payload["models"]}
        assert rows["gbsa"]["ibs"] is not None
        for fam in ("gb_cox", "gb_aft", "gb_reg_weighted"):
            assert rows[fam]["ibs"] is None
        assert rows["gb_cox"]["mean_td_auc"] is not None
        for fam in ("gb_aft", "gb_reg_weighted"):
            assert rows[fam]["mean_td_auc"] is None
        for fam in rows:
            assert 0.0 <= rows[fam]["c_index"] <= 1.0
            assert 0.0 <= rows[fam]["c_index_ipcw"] <= 1.0

    def test_curves_csv_shape(self, evaluated_dir):
        lines = (evaluated_dir / "curves.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["time", "km"]
        assert "gbsa" in header
        assert "gb_cox" not in header
        assert len(lines) == 101  # grid resolution 100 + header

    def test_horizon_file_pairs_km_and_classifier(self, evaluated_dir):
        lines = (evaluated_dir / "horizons.csv").read_text().splitlines()
        assert lines[0].startswith("horizon,km_survival,")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 6.0
        assert 0.0 <= float(first[1]) <= 1.0   # km value
        assert 0.0 <= float(first[2]) <= 1.0   # classifier fraction
        assert int(first[4]) >= 0              # exclusions

    def test_model_files_saved(self, evaluated_dir):
        for fam in ("gbsa", "gb_cox", "gb_aft", "gb_reg_weighted"):
            assert (evaluated_dir / f"model_{fam}.json").exists()

    def test_zero_families_is_config_error(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "zero.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "",
        })
        assert run(["train-eval", "--config", cfg]) == 2
        cfg2 = write_config(tmp_path / "bad.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "nope",
        })
        assert run(["train-eval", "--config", cfg2]) == 2


class TestHpoCommand:
    def test_study_files_and_resume(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "hpo.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "sampler": "random", "trials": "2", "folds": "2",
            "family.gb_cox.n_rounds": "5",
            "hpo.space.gb_cox.learning_rate": "float:0.05:0.3",
            "hpo.space.gb_cox.n_rounds": "int:3:6",
        })
        assert run(["hpo", "--config", cfg]) == 0
        study_path = prepared_dir / "studies" / "study_gb_cox_random.json"
        assert study_path.exists()
        study = json.loads(study_path.read_text())
        assert len(study["trials"]) == 2
        best = json.loads(
            (prepared_dir / "best_params_gb_cox.json").read_text())
        assert best["sampler"] == "random"
        assert best["n_trials"] == 2

        # resume to 3 trials: first two must be unchanged
        cfg3 = write_config(tmp_path / "hpo3.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "sampler": "random", "trials": "3", "folds": "2",
            "hpo.space.gb_cox.learning_rate": "float:0.05:0.3",
            "hpo.space.gb_cox.n_rounds": "int:3:6",
        })
        assert run(["hpo", "--config", cfg3]) == 0
        resumed = json.loads(study_path.read_text())
        assert len(resumed["trials"]) == 3
        assert resumed["trials"][:2] == study["trials"][:2]

    def test_resume_with_other_folds_is_config_error(self, prepared_dir,
                                                     tmp_path):
        keys = {"out": str(prepared_dir), "seed": "11", "families": "gb_cox",
                "sampler": "random", "trials": "1", "folds": "2",
                "family.gb_cox.n_rounds": "3"}
        assert run(["hpo", "--config",
                    write_config(tmp_path / "a.cfg", **keys)]) == 0
        study_path = prepared_dir / "studies" / "study_gb_cox_random.json"
        before = study_path.read_bytes()
        keys.update(trials="2", folds="3")
        assert run(["hpo", "--config",
                    write_config(tmp_path / "b.cfg", **keys)]) == 2
        assert study_path.read_bytes() == before

    def test_winner_is_argmax_across_samplers(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "hpo.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "sampler": "all", "trials": "2", "folds": "2",
            "hpo.space.gb_cox.learning_rate": "float:0.05:0.3",
            "hpo.space.gb_cox.n_rounds": "int:3:6",
        })
        assert run(["hpo", "--config", cfg]) == 0
        bests = []
        for sampler in ("random", "tpe", "cmaes"):
            study = json.loads((prepared_dir / "studies" /
                                f"study_gb_cox_{sampler}.json").read_text())
            values = [t["value"] for t in study["trials"]
                      if t["value"] is not None]
            bests.append(max(values))
        winner = json.loads(
            (prepared_dir / "best_params_gb_cox.json").read_text())
        assert winner["value"] == max(bests)

    def test_best_params_flow_into_train_eval(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "hpo.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "sampler": "random", "trials": "1", "folds": "2",
            "hpo.space.gb_cox.n_rounds": "int:3:4",
        })
        assert run(["hpo", "--config", cfg]) == 0
        cfg2 = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
        })
        assert run(["train-eval", "--config", cfg2]) == 0
        best = json.loads(
            (prepared_dir / "best_params_gb_cox.json").read_text())
        model = json.loads((prepared_dir / "model_gb_cox.json").read_text())
        assert model["params"]["n_rounds"] == best["params"]["n_rounds"]

    @pytest.mark.parametrize("key", ["families", "sampler"])
    def test_empty_list_exits_2_before_any_output(self, prepared_dir,
                                                  tmp_path, caplog, key):
        cfg = write_config(tmp_path / "hpo.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "sampler": "random", "trials": "1", "folds": "2", key: ""})
        assert run(["hpo", "--config", cfg]) == 2
        assert "at least one family and one sampler" in caplog.text
        assert not list(prepared_dir.glob("best_params_*.json"))
        assert not (prepared_dir / "studies").exists()


class TestMalformedBestParams:
    @pytest.mark.parametrize("text", [
        '{"family": "gb_cox", "params": {"n_rou', '[]', '{"params": []}',
        '{"params": {"n_rounds": "abc"}}', '{"params": {"no_such_key": 1}}',
        '{"params": {"n_rounds": true}}', '{"params": {"n_rounds": -2}}',
        '{"family": "gb_cox"}'])
    def test_exits_3_with_message(self, prepared_dir, tmp_path, caplog, text):
        (prepared_dir / "best_params_gb_cox.json").write_text(text)
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "family.gb_cox.n_rounds": "3",
        })
        assert run(["train-eval", "--config", cfg]) == 3
        assert "malformed" in caplog.text and "best_params_gb_cox" in caplog.text
        assert not (prepared_dir / "metrics.json").exists()

    def test_optional_and_float_fields_take_json_types(self, prepared_dir,
                                                      tmp_path):
        (prepared_dir / "best_params_rsf.json").write_text(json.dumps(
            {"params": {"n_trees": 2, "mtry": None, "bootstrap_fraction": 1}}))
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "rsf",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        params = json.loads(
            (prepared_dir / "model_rsf.json").read_text())["params"]
        assert params["n_trees"] == 2 and params["mtry"] is None


def _set_trial(position, **fields):
    return lambda study: study["trials"][position].update(fields)


def _set_param(position, name, value):
    return lambda study: study["trials"][position]["params"].update(
        {name: value})


# One field of a 3-trial ssvm study, changed to what no run writes.
STUDY_MUTANTS = {
    "best_index_fraction": lambda study: study.update(best_index=1.5),
    "best_index_string": lambda study: study.update(best_index="0"),
    "best_index_huge": lambda study: study.update(best_index=10 ** 30),
    "best_index_negative": lambda study: study.update(best_index=-99),
    "best_index_not_best": lambda study: study.update(
        best_index=min(range(3), key=lambda i: study["trials"][i]["value"])),
    "value_list": _set_trial(1, value=[1]),
    "value_string": _set_trial(1, value="x"),
    "value_nan": _set_trial(0, value=float("nan")),
    "params_number": _set_trial(1, params=3),
    "param_string": _set_param(1, "gamma", "x"),
    "param_out_of_bounds": _set_param(1, "epochs", 1000),
    "int_param_fraction": _set_param(1, "epochs", 7.5),
    "param_extra": _set_param(1, "tol", 0.1),
    "param_missing": lambda study: study["trials"][1]["params"].pop("epochs"),
    "index_shifted": _set_trial(1, index=2),
    "meta_number": lambda study: study.update(meta=3),
    "trials_object": lambda study: study.update(trials={}),
}


@pytest.fixture(scope="module")
def ssvm_studies(tmp_path_factory):
    """A run directory with a 3-trial ssvm study for every sampler, and the
    config that resumes them."""
    root = tmp_path_factory.mktemp("studies")
    out = root / "run"
    keys = {"out": str(out), "seed": "11", "synth.n": "120", "synth.d": "3",
            "prep.input": str(out / "cohort.csv"), "families": "ssvm",
            "sampler": "all", "trials": "3", "folds": "2",
            "hpo.space.ssvm.gamma": "float:0.01:1:log",
            "hpo.space.ssvm.epochs": "int:5:20"}
    cfg = write_config(root / "a.cfg", **keys)
    for verb in ("synth", "prep", "hpo"):
        assert run([verb, "--config", cfg]) == 0
    return out, keys


class TestMalformedStudy:
    def test_unchanged_studies_resume(self, ssvm_studies, tmp_path):
        base, keys = ssvm_studies
        shutil.copytree(base, tmp_path / "run")
        cfg = write_config(tmp_path / "b.cfg", **{
            **keys, "out": str(tmp_path / "run"), "trials": "8"})
        assert run(["hpo", "--config", cfg]) == 0

    @pytest.mark.parametrize("mutant", STUDY_MUTANTS)
    def test_resumed_study_exits_3(self, ssvm_studies, tmp_path, mutant):
        # 8 trials take CMA-ES (population 6 over two numeric params) past
        # one generation, so the resumed trials are replayed too
        base, keys = ssvm_studies
        out = tmp_path / "run"
        shutil.copytree(base, out)
        for sampler in ("random", "tpe", "cmaes"):
            path = out / "studies" / f"study_ssvm_{sampler}.json"
            study = json.loads(path.read_text())
            STUDY_MUTANTS[mutant](study)
            path.write_text(json.dumps(study))
        cfg = write_config(tmp_path / "b.cfg",
                           **{**keys, "out": str(out), "trials": "8"})
        assert run(["hpo", "--config", cfg]) == 3


class TestExplainCommand:
    def test_outputs(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "family.gb_cox.n_rounds": "10",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        cfg2 = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11",
            "explain.model": "gb_cox", "explain.n_repeats": "3",
            "explain.sample_size": "10",
        })
        assert run(["explain", "--config", cfg2]) == 0
        pi = (prepared_dir / "importance_pi_gb_cox.csv").read_text()
        shap = (prepared_dir / "importance_shap_gb_cox.csv").read_text()
        assert pi.splitlines()[0] == "feature,value,dispersion"
        assert len(shap.splitlines()) == 4  # header + 3 features

    def test_more_than_12_features_take_monte_carlo(self, tmp_path):
        # no explain.mode: above EXACT_MAX_FEATURES the CLI falls back to
        # Monte Carlo, the path a 16-predictor registry takes
        out = tmp_path / "run"
        steps = [("synth", {"synth.n": "80", "synth.d": "13"}),
                 ("prep", {"prep.mode": "survival",
                           "prep.input": str(out / "cohort.csv")}),
                 ("train-eval", {"families": "gb_cox",
                                 "family.gb_cox.n_rounds": "3"}),
                 ("explain", {"explain.model": "gb_cox",
                              "explain.n_repeats": "1",
                              "explain.sample_size": "2",
                              "explain.n_permutations": "3"})]
        for verb, keys in steps:
            cfg = write_config(tmp_path / f"{verb}.cfg", out=str(out),
                               seed="11", **keys)
            assert run([verb, "--config", cfg]) == 0, verb
        shap = (out / "importance_shap_gb_cox.csv").read_text().splitlines()
        assert shap[0] == "feature,value,dispersion"
        assert len(shap) == 1 + 13

    def test_missing_model_is_data_error(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11", "explain.model": "rsf",
        })
        assert run(["explain", "--config", cfg]) == 3

    def test_explain_works_for_curve_less_family(self, prepared_dir, tmp_path):
        # attribution explains the risk score, so a family without survival
        # curves is still explainable
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_aft",
            "family.gb_aft.n_rounds": "8",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        cfg2 = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11",
            "explain.model": "gb_aft", "explain.n_repeats": "2",
            "explain.sample_size": "5",
        })
        assert run(["explain", "--config", cfg2]) == 0
        assert (prepared_dir / "importance_pi_gb_aft.csv").exists()
        assert (prepared_dir / "importance_shap_gb_aft.csv").exists()

    @pytest.mark.parametrize("key,value", [
        ("sample_size", "-1"), ("sample_size", "0"), ("n_repeats", "-1"),
        ("n_repeats", "0"), ("background_size", "-3"),
        ("n_permutations", "0"), ("n_permutations", "-2")])
    def test_count_below_one_exits_3(self, prepared_dir, tmp_path, caplog,
                                     key, value):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "family.gb_cox.n_rounds": "3",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        cfg2 = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11", "explain.model": "gb_cox",
            "explain.n_repeats": "1", "explain.sample_size": "2",
            "explain.mode": "montecarlo", "explain.n_permutations": "3",
            f"explain.{key}": value,
        })
        assert run(["explain", "--config", cfg2]) == 3
        assert f"{key} must be at least 1, got {value}" in caplog.text
        assert not list(prepared_dir.glob("importance_*.csv"))

    @pytest.mark.parametrize("key,value", [("metric", "foo"),
                                           ("mode", "bogus")])
    def test_unknown_metric_or_mode_exits_2(self, prepared_dir, tmp_path,
                                            caplog, key, value):
        # refused before the (here missing) model file is looked for
        cfg = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11", "explain.model": "gb_cox",
            f"explain.{key}": value,
        })
        assert run(["explain", "--config", cfg]) == 2
        assert f"explain.{key} must be" in caplog.text


class TestExitCodes:
    def test_missing_required_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", out=str(tmp_path / "x"))
        assert run(["prep", "--config", cfg]) == 2  # no prep.input

    def test_missing_input_file_is_data_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", **{
            "out": str(tmp_path / "x"),
            "prep.mode": "survival", "prep.input": str(tmp_path / "nope.csv"),
        })
        assert run(["prep", "--config", cfg]) == 3

    def test_out_that_is_a_file_exits_2(self, tmp_path, caplog):
        afile = tmp_path / "afile"
        afile.write_text("x\n", encoding="utf-8")
        assert run(["synth", "--out", str(afile)]) == 2
        assert f"cannot use {afile} as a directory" in caplog.text
        assert afile.read_text(encoding="utf-8") == "x\n"

    def test_studies_path_that_is_a_file_exits_2(self, prepared_dir,
                                                 tmp_path, caplog):
        (prepared_dir / "studies").write_text("x\n", encoding="utf-8")
        cfg = write_config(tmp_path / "hpo.cfg", **{
            "out": str(prepared_dir), "families": "gb_cox",
            "sampler": "random", "trials": "1", "folds": "2"})
        assert run(["hpo", "--config", cfg]) == 2
        assert f"cannot use {prepared_dir / 'studies'} as a directory" \
            in caplog.text
        assert not list(prepared_dir.glob("best_params_*.json"))

    def test_malformed_config_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a key value pair\n", encoding="utf-8")
        assert run(["synth", "--config", str(path)]) == 2

    def test_flag_overrides_config(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "c.cfg", **{
            "out": str(out), "seed": "1", "synth.n": "20", "synth.d": "2",
        })
        assert run(["synth", "--config", cfg, "--seed", "2"]) == 0
        first = (out / "cohort.csv").read_bytes()
        assert run(["synth", "--config", cfg]) == 0
        second = (out / "cohort.csv").read_bytes()
        assert first != second  # different master seed changed the cohort

    def test_time_only_csv_is_data_error(self, prepared_dir, tmp_path):
        (prepared_dir / "train.csv").write_text("time\n1.0\n",
                                                encoding="utf-8")
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "families": "ssvm"})
        assert run(["train-eval", "--config", cfg]) == 3

    def test_truncated_study_is_data_error(self, prepared_dir, tmp_path):
        studies = prepared_dir / "studies"
        studies.mkdir()
        (studies / "study_gb_cox_random.json").write_text(
            '{"space": [{"name": "x", "kind"', encoding="utf-8")
        cfg = write_config(tmp_path / "hpo.cfg", **{
            "out": str(prepared_dir), "families": "gb_cox",
            "sampler": "random", "trials": "1", "folds": "2"})
        assert run(["hpo", "--config", cfg]) == 3

    def test_truncated_model_is_data_error(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "family.gb_cox.n_rounds": "3",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        model = prepared_dir / "model_gb_cox.json"
        model.write_bytes(model.read_bytes()[:40])
        cfg2 = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11", "explain.model": "gb_cox",
        })
        assert run(["explain", "--config", cfg2]) == 3

    def test_out_of_range_rsf_leaf_id_is_data_error(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "rsf",
            "family.rsf.n_trees": "2",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        path = prepared_dir / "model_rsf.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        node = obj["trees"][1]
        while "feature" in node:
            node = node["right"]
        node["value"] = 999.0
        path.write_text(json.dumps(obj), encoding="utf-8")
        cfg2 = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11", "explain.model": "rsf",
        })
        assert run(["explain", "--config", cfg2]) == 3

    def test_malformed_rsf_leaf_steps_are_data_errors(self, prepared_dir,
                                                      tmp_path):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "rsf",
            "family.rsf.n_trees": "2",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        path = prepared_dir / "model_rsf.json"
        text = path.read_text(encoding="utf-8")
        cfg2 = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11", "explain.model": "rsf",
            "explain.n_repeats": "1", "explain.sample_size": "5",
        })
        assert run(["explain", "--config", cfg2]) == 0
        for name, defect in sorted(LEAF_STEP_DEFECTS.items()):
            obj = json.loads(text)
            defect(obj)
            path.write_text(json.dumps(obj), encoding="utf-8")
            assert run(["explain", "--config", cfg2]) == 3, name


    def test_out_of_range_split_feature_is_data_error(self, prepared_dir,
                                                      tmp_path):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "family.gb_cox.n_rounds": "3",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        path = prepared_dir / "model_gb_cox.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert "feature" in obj["ensemble"]["trees"][0]
        obj["ensemble"]["trees"][0]["feature"] = obj["n_features"] + 4
        path.write_text(json.dumps(obj), encoding="utf-8")
        cfg2 = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11", "explain.model": "gb_cox",
        })
        assert run(["explain", "--config", cfg2]) == 3

    def test_deeply_nested_model_is_data_error(self, prepared_dir, tmp_path):
        (prepared_dir / "model_gb_cox.json").write_text(_DEEP_JSON,
                                                        encoding="utf-8")
        cfg = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11", "explain.model": "gb_cox",
        })
        assert run(["explain", "--config", cfg]) == 3

    @pytest.mark.parametrize("key", ["base_score", "learning_rate"])
    def test_non_numeric_ensemble_scalar_is_data_error(self, prepared_dir,
                                                       tmp_path, key):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "family.gb_cox.n_rounds": "3",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        path = prepared_dir / "model_gb_cox.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["ensemble"][key] = "abc"
        path.write_text(json.dumps(obj), encoding="utf-8")
        cfg2 = write_config(tmp_path / "ex.cfg", **{
            "out": str(prepared_dir), "seed": "11", "explain.model": "gb_cox",
        })
        assert run(["explain", "--config", cfg2]) == 3


# nested past the JSON decoder's recursion limit
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("read", [
    load_model,
    lambda path: Study.from_json(path.read_text(encoding="utf-8")),
    lambda path: _best_params(path, GbParams, typing.get_type_hints(GbParams)),
], ids=["model", "study", "best_params"])
def test_deeply_nested_json_is_data_error(tmp_path, read):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP_JSON, encoding="utf-8")
    with pytest.raises(DataError):
        read(path)


# The built-in search spaces, as the CLI defined them before they moved
# into the family table; study files record them, so order and types
# (int bounds stay ints) must not change.
_BOOST = [ParamSpec("n_rounds", "int", 50, 300),
          ParamSpec("learning_rate", "float", 0.01, 0.3, log=True),
          ParamSpec("max_depth", "int", 2, 5),
          ParamSpec("subsample", "float", 0.5, 1.0)]
_REG_LAMBDA = [ParamSpec("reg_lambda", "float", 1e-3, 10.0, log=True)]
DEFAULT_SPACES = {
    "rsf": [ParamSpec("n_trees", "int", 30, 150),
            ParamSpec("max_depth", "int", 3, 10),
            ParamSpec("min_samples_leaf", "int", 5, 50)],
    "gbsa": _BOOST,
    "gb_cox": _BOOST + _REG_LAMBDA,
    "gb_aft": _BOOST + _REG_LAMBDA + [ParamSpec("sigma", "float", 0.5, 2.0)],
    "gb_reg_weighted": _BOOST + _REG_LAMBDA + [
        ParamSpec("censored_weight", "float", 0.1, 1.0)],
    "ssvm": [ParamSpec("gamma", "float", 1e-3, 10.0, log=True)],
}


class TestDefaultSpaces:
    @pytest.mark.parametrize("family", sorted(DEFAULT_SPACES))
    def test_space_unchanged(self, family):
        space = _space_for(RunConfig({}), family)
        assert [repr(s) for s in space] == [repr(s) for s in
                                            DEFAULT_SPACES[family]]

    def test_horizon_has_no_default_space(self):
        with pytest.raises(ConfigError, match="no default search space"):
            _space_for(RunConfig({}), "horizon")


class TestMalformedConfigValues:
    @pytest.mark.parametrize("text", [
        "float:abc:10:log", "float:0.1:abc", "float:1", "float:0.1:1:lin",
        "float:0.1:1:log:x", "float:0.1:inf", "int:1.5:4", "int:1:4:6",
        "int:3", "cat", "cat:a|b:c", "cat:a||b", "uniform:0:1"])
    def test_bad_space_entry_is_config_error(self, text):
        config = RunConfig({"hpo.space.ssvm.gamma": text})
        with pytest.raises(ConfigError, match="bad space entry"):
            _space_for(config, "ssvm")

    def test_good_space_entries_parse(self):
        config = RunConfig({"hpo.space.ssvm.gamma": "float:0.001:10:log",
                            "hpo.space.ssvm.epochs": "int: 50 : 300",
                            "hpo.space.ssvm.pair_mode": "cat:all|nearest"})
        assert [repr(s) for s in _space_for(config, "ssvm")] == [repr(s) for s in [
            ParamSpec("epochs", "int", 50, 300),
            ParamSpec("gamma", "float", 0.001, 10.0, log=True),
            ParamSpec("pair_mode", "categorical",
                      choices=("all", "nearest"))]]

    def test_bad_space_entry_exits_2(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "hpo.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "ssvm",
            "sampler": "random", "trials": "1", "folds": "2",
            "hpo.space.ssvm.gamma": "float:abc:10:log",
        })
        assert run(["hpo", "--config", cfg]) == 2

    @pytest.mark.parametrize("verb,key,value", [
        ("synth", "synth.beta", "1,x,0"), ("train-eval", "horizons", "12,x")])
    def test_non_number_in_float_list_exits_2(self, prepared_dir, tmp_path,
                                              caplog, verb, key, value):
        cfg = write_config(tmp_path / "bad.cfg", **{
            "out": str(prepared_dir), "seed": "11", "synth.d": "3",
            "families": "gb_cox", "family.gb_cox.n_rounds": "3", key: value,
        })
        assert run([verb, "--config", cfg]) == 2
        assert f"{key}: expected numbers, got {value!r}" in caplog.text

    @pytest.mark.parametrize("family,key,value", [
        ("gbsa", "n_rounds", "abc"), ("rsf", "n_trees", "2.5"),
        ("rsf", "bootstrap", "maybe"), ("rsf", "mtry", "two"),
        ("gb_cox", "learning_rate", "fast"), ("gb_cox", "no_such_key", "1"),
        ("rsf", "n_trees", "0"), ("rsf", "mtry", "0"),
        ("rsf", "bootstrap_fraction", "0"), ("ssvm", "step_size", "-1"),
        ("gb_cox", "reg_lambda", "-5"), ("gb_aft", "sigma", "0"),
        ("gb_aft", "distribution", "weibull"), ("ssvm", "pair_mode", "foo"),
        ("gb_reg_weighted", "censored_weight", "-1")])
    def test_bad_family_value_exits_2(self, prepared_dir, tmp_path, family,
                                      key, value):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": family,
            f"family.{family}.{key}": value,
        })
        assert run(["train-eval", "--config", cfg]) == 2
        assert not (prepared_dir / "metrics.json").exists()

    def test_zero_trees_message(self, prepared_dir, tmp_path, caplog):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "rsf",
            "family.rsf.n_trees": "0",
        })
        assert run(["train-eval", "--config", cfg]) == 2
        assert "family.rsf: n_trees must be at least 1" in caplog.text

    @pytest.mark.parametrize("family,key,value,message", [
        ("gb_cox", "learning_rate", "-1",
         "learning_rate must be finite and nonnegative"),
        ("gb_cox", "learning_rate", "inf",
         "learning_rate must be finite and nonnegative"),
        ("gbsa", "subsample", "0", "subsample must be in (0, 1]"),
        ("gbsa", "subsample", "1.5", "subsample must be in (0, 1]"),
        ("gb_aft", "subsample", "nan", "subsample must be in (0, 1]"),
        ("ssvm", "gamma", "-1", "gamma must be finite and nonnegative"),
        ("ssvm", "gamma", "nan", "gamma must be finite and nonnegative")])
    def test_bad_rate_exits_2(self, prepared_dir, tmp_path, caplog, family,
                              key, value, message):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": family,
            f"family.{family}.{key}": value,
        })
        assert run(["train-eval", "--config", cfg]) == 2
        assert f"family.{family}: {message}" in caplog.text
        assert not (prepared_dir / "metrics.json").exists()

    @pytest.mark.parametrize("family,key,text", [
        ("rsf", "n_trees", "int:0:2"), ("gb_cox", "n_rounds", "int:-1:3"),
        ("gb_cox", "max_depth", "float:-0.5:2"), ("ssvm", "epochs", "int:-5:10"),
        ("ssvm", "no_such_key", "int:1:3"), ("ssvm", "pair_mode", "cat:all|foo"),
        ("gb_aft", "distribution", "cat:normal|weibull")])
    def test_refused_space_bound_is_config_error(self, family, key, text):
        config = RunConfig({f"hpo.space.{family}.{key}": text})
        with pytest.raises(ConfigError, match=f"hpo.space.{family}.{key}"):
            _space_for(config, family)

    def test_refused_space_bound_exits_2_before_fitting(self, prepared_dir,
                                                       tmp_path, caplog):
        cfg = write_config(tmp_path / "hpo.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "rsf",
            "sampler": "random", "trials": "6", "folds": "2",
            "hpo.space.rsf.n_trees": "int:0:2",
        })
        assert run(["hpo", "--config", cfg]) == 2
        assert "n_trees must be at least 1" in caplog.text
        assert not list((prepared_dir / "studies").iterdir())

    @pytest.mark.parametrize("resolution", ["-1", "0", "1"])
    def test_grid_resolution_below_2_exits_2(self, prepared_dir, tmp_path,
                                             caplog, resolution):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gbsa",
            "family.gbsa.n_rounds": "3",
            "metrics.grid_resolution": resolution,
        })
        assert run(["train-eval", "--config", cfg]) == 2
        assert ("metrics.grid_resolution must be at least 2, "
                f"got {resolution}") in caplog.text
        assert not (prepared_dir / "metrics.json").exists()
        assert not (prepared_dir / "model_gbsa.json").exists()

    def test_grid_resolution_above_cap_exits_2(self, prepared_dir, tmp_path,
                                               caplog):
        resolution = MAX_GRID_RESOLUTION + 1
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gbsa",
            "family.gbsa.n_rounds": "3",
            "metrics.grid_resolution": str(resolution),
        })
        assert run(["train-eval", "--config", cfg]) == 2
        assert ("metrics.grid_resolution must be at most "
                f"{MAX_GRID_RESOLUTION}, got {resolution}") in caplog.text
        assert not list(prepared_dir.glob("model_*.json"))
        assert not (prepared_dir / "metrics.json").exists()

    @pytest.mark.parametrize("tau", ["nan", "0", "-1"])
    def test_bad_tau_exits_2_before_fitting(self, prepared_dir, tmp_path,
                                            caplog, tau):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11",
            "families": "ssvm,gb_cox", "family.gb_cox.n_rounds": "3",
            "metrics.tau": tau,
        })
        assert run(["train-eval", "--config", cfg]) == 2
        assert f"metrics.tau must be positive, got {float(tau)}" in caplog.text
        assert not list(prepared_dir.glob("model_*.json"))
        assert not (prepared_dir / "metrics.json").exists()

    @pytest.mark.parametrize("tau", ["inf", "1e9"])
    def test_tau_past_censoring_support_exits_3(self, prepared_dir, tmp_path,
                                                caplog, tau):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11",
            "families": "ssvm,gb_cox", "family.gb_cox.n_rounds": "3",
            "metrics.tau": tau,
        })
        assert run(["train-eval", "--config", cfg]) == 3
        assert ("censoring survival is zero at metrics.tau = "
                f"{float(tau)}") in caplog.text
        assert not list(prepared_dir.glob("model_*.json"))

    def test_bad_censor_source_names_the_value(self, prepared_dir, tmp_path,
                                               caplog):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "family.gb_cox.n_rounds": "3", "metrics.censor_source": "test",
        })
        assert run(["train-eval", "--config", cfg]) == 2
        assert ("metrics.censor_source must be eval or train, got 'test'"
                in caplog.text)
        assert not list(prepared_dir.glob("model_*.json"))

    @pytest.mark.parametrize("horizon", ["0", "-1", "inf"])
    def test_bad_horizon_exits_2_before_fitting(self, prepared_dir, tmp_path,
                                                caplog, horizon):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "family.gb_cox.n_rounds": "3", "horizons": f"1.0,{horizon}",
        })
        assert run(["train-eval", "--config", cfg]) == 2
        assert "horizon must be finite and positive" in caplog.text
        assert not (prepared_dir / "metrics.json").exists()
        assert not (prepared_dir / "model_gb_cox.json").exists()

    def test_bad_horizon_value_exits_2(self, prepared_dir, tmp_path):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "gb_cox",
            "family.gb_cox.n_rounds": "3", "horizons": "1.0",
            "family.horizon.n_rounds": "3.5",
        })
        assert run(["train-eval", "--config", cfg]) == 2

    def test_family_values_take_their_field_types(self, prepared_dir,
                                                  tmp_path):
        cfg = write_config(tmp_path / "te.cfg", **{
            "out": str(prepared_dir), "seed": "11", "families": "rsf",
            "family.rsf.n_trees": "2", "family.rsf.mtry": "none",
            "family.rsf.bootstrap": "false",
            "family.rsf.bootstrap_fraction": "1",
        })
        assert run(["train-eval", "--config", cfg]) == 0
        params = json.loads(
            (prepared_dir / "model_rsf.json").read_text())["params"]
        assert params["n_trees"] == 2 and params["mtry"] is None
        assert params["bootstrap"] is False
        assert type(params["bootstrap_fraction"]) is float


@pytest.mark.parametrize("verb,target", [("hpo", "survkit.hpo.fit_family"),
                                         ("train-eval", "survkit.models.fit_family")])
def test_memory_error_exits_4_with_message(prepared_dir, tmp_path, caplog,
                                           monkeypatch, verb, target):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 GiB")

    monkeypatch.setattr(target, out_of_memory)
    cfg = write_config(tmp_path / "mem.cfg", **{
        "out": str(prepared_dir), "seed": "11", "families": "ssvm",
        "sampler": "random", "trials": "1", "folds": "2"})
    assert run([verb, "--config", cfg]) == 4
    assert "out of memory" in caplog.text and "2.00 GiB" in caplog.text
