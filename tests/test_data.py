import datetime as dt

import numpy as np
import pytest

from conftest import write_cohort_csv_oracle
from survkit.data import (Cohort, ColumnSpec, FilterRules, RawRecord,
                          SurvivalTarget, apply_filters, build_targets,
                          categorize_interval, ingest_csv, read_cohort_csv,
                          synth_cohort, write_cohort_csv)
from survkit.errors import DataError
from survkit.metrics import harrell_c

CSV_HEADER = ("INSTITU,ESCOLARI,IDADE,SEXO,IBGE,CATEATEND,DIAGPREV,TOPO,EC,"
              "ANODIAG,DRS,IBGEATEN,HABILIT2,DRS_INST,DTDIAG,DTCONSULT,DTTRAT,"
              "DTULTINFO,ULTINFO,MORFO,UF,BASEDIAG,TMO")

SCHEMA = {
    "institution": "INSTITU", "education": "ESCOLARI", "age": "IDADE",
    "sex": "SEXO", "residence_city": "IBGE", "care_category": "CATEATEND",
    "prior_diagnosis": "DIAGPREV", "topography": "TOPO", "staging": "EC",
    "diagnosis_year": "ANODIAG", "health_region": "DRS",
    "treatment_city": "IBGEATEN", "hospital_qualification": "HABILIT2",
    "hospital_region": "DRS_INST", "diagnosis_date": "DTDIAG",
    "consultation_date": "DTCONSULT", "treatment_date": "DTTRAT",
    "last_info_date": "DTULTINFO", "vital_status": "ULTINFO",
    "morphology": "MORFO", "residence_state": "UF",
    "microscopic_confirmation": "BASEDIAG", "bone_marrow_transplant": "TMO",
}


def _row(age=55, treat="2010-03-01", staging="II", morpho="8140/3", state="SP",
         confirm="1", tmo="0", last="2012-01-01", status="1"):
    return (f"H1,3,{age},1,355030,2,1,C18,{staging},2010,5,355030,A,5,"
            f"2010-01-15,2010-02-01,{treat},{last},{status},{morpho},{state},"
            f"{confirm},{tmo}")


def write_csv(path, rows):
    path.write_text("\n".join([CSV_HEADER] + rows) + "\n", encoding="utf-8")


def compliant_record(**kw):
    base = dict(age=55, residence_state="SP", staging="II",
                microscopic_confirmation="1", bone_marrow_transplant="0",
                morphology="8140/3",
                diagnosis_date=dt.date(2010, 1, 15),
                consultation_date=dt.date(2010, 2, 1),
                treatment_date=dt.date(2010, 3, 1),
                last_info_date=dt.date(2012, 1, 1), vital_status="1")
    base.update(kw)
    return RawRecord(**base)


class TestIngestCsv:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_csv(path, [_row(), _row(age=60), _row(age=70)])
        records = ingest_csv(path, SCHEMA)
        assert len(records) == 3
        assert records[0].age == 55
        assert records[0].diagnosis_date == dt.date(2010, 1, 15)
        assert records[0].staging == "II"

    def test_missing_mapped_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1,2\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing column"):
            ingest_csv(path, {"staging": "EC"})

    def test_empty_treatment_date_is_missing(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_csv(path, [_row(treat="")])
        records = ingest_csv(path, SCHEMA)
        assert records[0].treatment_date is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(tmp_path / "nope.csv", SCHEMA)

    def test_zero_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="no data rows"):
            ingest_csv(path, SCHEMA)

    def test_unparseable_cell_becomes_missing(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_csv(path, [_row(age="abc")])
        records = ingest_csv(path, SCHEMA)
        assert records[0].age is None


class TestApplyFilters:
    def test_underage_removed_first_rule(self):
        kept, report = apply_filters([compliant_record(age=19)], FilterRules())
        assert kept == []
        assert report.removed["age_below_minimum"] == 1

    def test_compliant_retained(self):
        kept, report = apply_filters([compliant_record()], FilterRules())
        assert len(kept) == 1
        assert report.final == 1

    def test_all_rules_inactive_identity(self):
        records = [compliant_record(age=5, residence_state="XX",
                                    morphology="9999")]
        rules = FilterRules(min_age=None, resident_state=None,
                            undefined_staging_codes=(),
                            confirmation_positive_codes=None,
                            transplant_positive_codes=(),
                            morphology_code=None)
        kept, report = apply_filters(records, rules)
        assert kept == records
        assert sum(report.removed.values()) == 0

    def test_first_match_attribution(self):
        # fails both the age and morphology rules: counted under age only
        rec = compliant_record(age=10, morphology="9999")
        _, report = apply_filters([rec], FilterRules())
        assert report.removed["age_below_minimum"] == 1
        assert report.removed["morphology_mismatch"] == 0

    def test_each_rule_triggers(self):
        cases = [
            (compliant_record(age=19), "age_below_minimum"),
            (compliant_record(residence_state="RJ"), "non_resident"),
            (compliant_record(staging="X"), "undefined_or_in_situ_staging"),
            (compliant_record(microscopic_confirmation="0"),
             "no_microscopic_confirmation"),
            (compliant_record(bone_marrow_transplant="1"),
             "bone_marrow_transplant"),
            (compliant_record(morphology="8000/3"), "morphology_mismatch"),
        ]
        for rec, rule in cases:
            _, report = apply_filters([rec], FilterRules())
            assert report.removed[rule] == 1, rule

    def test_idempotent(self):
        records = [compliant_record(), compliant_record(age=10),
                   compliant_record(staging="X")]
        once, _ = apply_filters(records, FilterRules())
        twice, report2 = apply_filters(once, FilterRules())
        assert twice == once
        assert sum(report2.removed.values()) == 0

    def test_report_reconciles(self):
        records = [compliant_record(), compliant_record(age=1),
                   compliant_record(morphology="x")]
        _, report = apply_filters(records, FilterRules())
        assert report.initial - sum(report.removed.values()) == report.final


class TestCategorizeInterval:
    @pytest.mark.parametrize("days,want", [
        (45, "<=60"), (0, "<=60"), (60, "<=60"),
        (61, "61-90"), (90, "61-90"),
        (91, ">90"), (5000, ">90"),
        (None, "untreated"),
    ])
    def test_bins(self, days, want):
        assert categorize_interval(days) == want

    def test_negative_errors(self):
        with pytest.raises(DataError, match="precedes"):
            categorize_interval(-1)

    def test_partition_no_gaps_or_overlaps(self):
        cats = {categorize_interval(d) for d in range(0, 400)}
        cats.add(categorize_interval(None))
        assert cats == {"<=60", "61-90", ">90", "untreated"}


class TestBuildTargets:
    def test_zero_interval(self):
        rec = compliant_record(last_info_date=dt.date(2010, 1, 15),
                               vital_status="0")
        target = build_targets([rec])[0]
        assert target == SurvivalTarget(0.0, 0)

    def test_exact_month_conversion(self):
        rec = compliant_record(
            diagnosis_date=dt.date(2010, 1, 1),
            last_info_date=dt.date(2010, 1, 1) + dt.timedelta(days=365),
            vital_status="1")
        # 365.25 days / 30.4375 = 12 exactly; use a fractional-day-free pair
        rec2 = compliant_record(diagnosis_date=dt.date(2010, 1, 1),
                                last_info_date=dt.date(2010, 1, 1)
                                + dt.timedelta(days=365), vital_status="1")
        t = build_targets([rec2], days_per_month=365 / 12.0)[0]
        assert t.time == pytest.approx(12.0)
        assert t.event == 1
        t365 = build_targets([rec], days_per_month=30.4375)[0]
        assert t365.time == pytest.approx(365 / 30.4375)

    @pytest.mark.parametrize("days", [0.0, -5.0, np.nan, np.inf])
    def test_days_per_month_must_be_finite_and_positive(self, days):
        with pytest.raises(DataError, match="finite and positive"):
            build_targets([compliant_record()], days_per_month=days)

    def test_last_info_before_diagnosis_errors(self):
        rec = compliant_record(last_info_date=dt.date(2009, 1, 1))
        with pytest.raises(DataError, match="precedes"):
            build_targets([rec])

    def test_event_count_matches_death_statuses(self):
        records = [compliant_record(vital_status=s) for s in
                   ["1", "0", "1", "2", "1"]]
        targets = build_targets(records)
        assert sum(t.event for t in targets) == 3


class TestSynthCohort:
    def test_zero_censoring_all_events(self):
        cohort = synth_cohort(200, 3, "ph", [1, 0, 0], censor_rate=0.0, seed=1)
        assert cohort.event.sum() == 200

    def test_deterministic(self):
        a = synth_cohort(100, 2, "aft", [0.5, -0.5], censor_rate=0.2, seed=7)
        b = synth_cohort(100, 2, "aft", [0.5, -0.5], censor_rate=0.2, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.time, b.time)
        np.testing.assert_array_equal(a.event, b.event)

    def test_censoring_calibration(self):
        cohort = synth_cohort(10000, 2, "ph", [1.0, 0.0], censor_rate=0.3,
                              seed=2)
        frac = 1.0 - cohort.event.mean()
        assert 0.25 <= frac <= 0.35

    def test_null_signal_concordance_near_half(self):
        cohort = synth_cohort(10000, 3, "ph", [0, 0, 0], censor_rate=0.0, seed=3)
        rng = np.random.default_rng(4)
        risk = rng.standard_normal(10000)  # arbitrary scores on null data
        c = harrell_c(cohort.time, cohort.event, risk).c_index
        assert abs(c - 0.5) <= 0.02

    def test_aft_mode_oracle_direction(self):
        cohort = synth_cohort(4000, 2, "aft", [1.0, 0.0], censor_rate=0.0,
                              seed=5)
        c = harrell_c(cohort.time, cohort.event,
                      cohort.meta["linear_predictor"]).c_index
        assert c > 0.7  # higher linear predictor = earlier event

    def test_bad_censor_rate(self):
        with pytest.raises(DataError):
            synth_cohort(10, 2, "ph", None, censor_rate=1.0)


class TestCohort:
    def test_weight_validation(self):
        with pytest.raises(DataError):
            Cohort(features=np.ones((2, 1)),
                   columns=[ColumnSpec("x", "numeric")],
                   time=[1.0, 2.0], event=[1, 0], weights=[-1.0, 1.0])

    def test_subset(self):
        cohort = synth_cohort(10, 2, "ph", [1, 0], censor_rate=0.0, seed=6)
        sub = cohort.subset([1, 3, 5])
        assert sub.n == 3
        np.testing.assert_array_equal(sub.time, cohort.time[[1, 3, 5]])

    def test_targets_view(self):
        cohort = synth_cohort(3, 1, "ph", [1.0], censor_rate=0.0, seed=8)
        targets = cohort.targets
        assert all(isinstance(t, SurvivalTarget) for t in targets)
        assert targets[0].time == cohort.time[0]

    def test_csv_round_trip(self, tmp_path):
        cohort = synth_cohort(50, 3, "ph", [1, 0, 0], censor_rate=0.3, seed=9)
        path = tmp_path / "cohort.csv"
        write_cohort_csv(cohort, path)
        back = read_cohort_csv(path)
        np.testing.assert_array_equal(back.features, cohort.features)
        np.testing.assert_array_equal(back.time, cohort.time)
        np.testing.assert_array_equal(back.event, cohort.event)

    def test_csv_header_without_event_column(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("time\n1.0\n2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="trailing time,event"):
            read_cohort_csv(path)

    def test_csv_short_row_is_data_error(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("x,time,event\n1.0,2.0,1\n1.0\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_cohort_csv(path)

    def test_csv_nan_time_is_data_error(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("x,time,event\n1.0,2.0,1\n1.0,nan,0\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match="times must not be NaN"):
            read_cohort_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("x,time,event\n1.0,2.0,1\n1.0,inf,0\n", "times must be finite"),
        ("x,time,event,weight\n1.0,2.0,1,1.0\n1.0,3.0,0,nan\n",
         "weights must be finite"),
        ("x,time,event,weight\n1.0,2.0,1,1.0\n1.0,3.0,0,inf\n",
         "weights must be finite")],
        ids=["inf-time", "nan-weight", "inf-weight"])
    def test_csv_non_finite_time_or_weight_is_data_error(self, tmp_path, text,
                                                         message):
        path = tmp_path / "cohort.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            read_cohort_csv(path)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_csv_bytes_equal_row_writer_oracle(self, tmp_path, weighted):
        rng = np.random.default_rng(11)
        n = 40
        # raw categories that need quoting (comma, quote, line break),
        # numpy and Python floats and ints, and strings that look like
        # numbers, in one object column beside float columns
        cells = ["a,b", 'say "hi"', "two\nlines", "plain", "", " pad ",
                 np.float32(0.1), 1e-300, -0.0, 7, np.int64(-3), "1.5",
                 float("inf"), True, "\u00e9,\u2603"]
        raw = np.empty((n, 1), dtype=object)
        raw[:, 0] = [cells[i % len(cells)] for i in range(n)]
        features = np.hstack([rng.standard_normal((n, 2)) * 1e5, raw,
                              np.round(rng.random((n, 1)), 3)])
        columns = [ColumnSpec("x0", "numeric"), ColumnSpec('x "1", b',
                                                           "numeric"),
                   ColumnSpec("grade", "ordinal",
                              tuple(sorted({str(c) for c in cells}))),
                   ColumnSpec("x3", "numeric")]
        cohort = Cohort(features=features, columns=columns,
                        time=rng.exponential(1.0, n) * 1e3,
                        event=(rng.random(n) < 0.6).astype(int),
                        weights=rng.random(n) + 0.1 if weighted else None)
        write_cohort_csv(cohort, tmp_path / "new.csv")
        write_cohort_csv_oracle(cohort, tmp_path / "old.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert b'"a,b"' in new and b'"say ""hi"""' in new
        numeric = synth_cohort(30, 3, "ph", [1, 0, 0], censor_rate=0.3,
                               seed=12)
        if weighted:
            numeric.weights = np.linspace(0.5, 2.0, 30)
        write_cohort_csv(numeric, tmp_path / "new.csv")
        write_cohort_csv_oracle(numeric, tmp_path / "old.csv")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    def test_csv_round_trip_with_weights(self, tmp_path):
        cohort = synth_cohort(20, 2, "ph", [1, 0], censor_rate=0.0, seed=10)
        cohort.weights = np.linspace(0.5, 2.0, 20)
        path = tmp_path / "cohort.csv"
        write_cohort_csv(cohort, path)
        back = read_cohort_csv(path)
        np.testing.assert_array_equal(back.weights, cohort.weights)
