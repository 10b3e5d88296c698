import math

import numpy as np
import pytest

from adpredict.evaluation import Confusion, CvResult, FoldResult
from adpredict.features import BaseKind, InputConfig, InputKind, ModelBase
from adpredict.runner import ExperimentSpec, ScoreRecord, load_score_records
from adpredict.stats import (_aggregate_rows, _present_average_tables,
                             _render_average_table, _render_pvalue_table,
                             _score_rows, hypothesis_suite,
                             paired_t_test, regularized_incomplete_beta,
                             student_t_two_sided_p, welch_t_test,
                             write_average_tables, write_pvalue_tables)
from adpredict.targets import Behavior
from oracles import average_table
from test_runner import reference_load_score_records


# ---------------------------------------------------------------------------
# Quadrature oracle for the t-distribution survival function.
# ---------------------------------------------------------------------------

def t_pdf(x: float, df: float) -> float:
    log_c = (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
             - 0.5 * math.log(df * math.pi))
    return math.exp(log_c - (df + 1.0) / 2.0 * math.log1p(x * x / df))


def _adaptive_simpson(f, a, b, tol, depth=60):
    m = (a + b) / 2.0
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, m, b, fa, fm, fb, whole, tol, depth):
        lm = (a + m) / 2.0
        rm = (m + b) / 2.0
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, lm, m, fa, flm, fm, left, tol / 2.0, depth - 1)
                + recurse(m, rm, b, fm, frm, fb, right, tol / 2.0, depth - 1))

    return recurse(a, m, b, fa, fm, fb, whole, tol, depth)


def quadrature_two_sided_p(t_stat: float, df: float) -> float:
    """2 * integral of the t density from |t| to infinity, via adaptive
    Simpson on [|t|, X] plus a 1/x change of variables for the tail."""
    tt = abs(t_stat)
    cut = max(tt + 30.0, 50.0)
    head = _adaptive_simpson(lambda x: t_pdf(x, df), tt, cut, 1e-13)

    def tail_integrand(u: float) -> float:
        if u == 0.0:
            return 1.0 / math.pi if df == 1.0 else 0.0
        return t_pdf(1.0 / u, df) / (u * u)

    tail = _adaptive_simpson(tail_integrand, 0.0, 1.0 / cut, 1e-13)
    return 2.0 * (head + tail)


def test_incomplete_beta_boundaries():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) is the identity.
    for x in (0.1, 0.5, 0.9):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)


def test_t_sf_against_quadrature_oracle():
    rng = np.random.default_rng(6)
    for _ in range(40):
        t_stat = float(rng.normal() * 3)
        df = float(rng.uniform(1.0, 60.0))
        p = student_t_two_sided_p(t_stat, df)
        oracle = quadrature_two_sided_p(t_stat, df)
        assert abs(p - oracle) <= 1e-6, (t_stat, df)


def test_t_sf_known_value():
    # Cauchy: P(|T| >= 1) with df=1 is exactly 0.5.
    assert student_t_two_sided_p(1.0, 1.0) == pytest.approx(0.5, abs=1e-10)
    assert student_t_two_sided_p(0.0, 7.0) == 1.0


def test_welch_nan_iff_both_samples_constant():
    result = welch_t_test([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert math.isnan(result.t_stat) and math.isnan(result.p_value)
    result = welch_t_test([2.5, 2.5], [1.0, 1.0, 1.0])
    assert math.isnan(result.p_value)
    # One constant sample computes normally with df = n_b - 1.
    result = welch_t_test([1.0, 1.0, 1.0], [0.5, 1.5, 2.5, 3.0])
    assert not math.isnan(result.p_value)
    assert result.df == pytest.approx(3.0)


def test_welch_identical_nonconstant_sample():
    sample = [1.0, 2.0, 3.0]
    result = welch_t_test(sample, list(sample))
    assert result.t_stat == 0.0
    assert result.p_value == 1.0


def test_welch_symmetry_exact():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = rng.normal(size=int(rng.integers(2, 9))).tolist()
        b = rng.normal(size=int(rng.integers(2, 9))).tolist()
        ab = welch_t_test(a, b)
        ba = welch_t_test(b, a)
        assert ab.p_value == ba.p_value  # bitwise
        if not math.isnan(ab.t_stat):
            assert ab.t_stat == -ba.t_stat


def test_welch_affine_invariance():
    rng = np.random.default_rng(18)
    for _ in range(25):
        a = rng.normal(size=6)
        b = rng.normal(size=5)
        base = welch_t_test(a.tolist(), b.tolist())
        scale, shift = float(rng.uniform(0.1, 10)), float(rng.normal() * 4)
        moved = welch_t_test((a * scale + shift).tolist(),
                             (b * scale + shift).tolist())
        assert moved.t_stat == pytest.approx(base.t_stat, abs=1e-12, rel=1e-12)
        assert moved.df == pytest.approx(base.df, rel=1e-12)


def test_welch_rejects_small_samples():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])


def test_paired_t_test_on_shifted_sample():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [0.5, 1.5, 2.5, 3.5]
    result = paired_t_test(a, b)
    assert math.isnan(result.p_value)  # constant difference: undefined variance
    result = paired_t_test([1.0, 2.0, 3.0, 4.0], [0.9, 2.2, 2.7, 3.9])
    assert 0.0 < result.p_value <= 1.0
    assert result.df == 3.0


# ---------------------------------------------------------------------------
# Aggregation and the hypothesis suite.
# ---------------------------------------------------------------------------

def _record(model="svm", base_kind=BaseKind.PRODUCT_BASED, base_id="p01",
            kind=InputKind.VIEW_WEEKDAY_SLOT, pi=False,
            behavior=Behavior.ACTUAL_PURCHASE, category=1, f1=0.5):
    spec = ExperimentSpec(model_kind=model, base=ModelBase(base_kind, base_id),
                          config=InputConfig(kind, include_pi_feature=pi),
                          behavior=behavior, category=category, k=5)
    fold = FoldResult(0, Confusion(1, 1, 1, 1), f1, f1, f1)
    cv = CvResult(folds=(fold,), mean_precision=f1, mean_recall=f1, mean_f1=f1)
    return ScoreRecord(spec=spec, cv=cv, seed=0)


def test_aggregate_simple_mean():
    records = [_record(f1=0.2), _record(f1=0.4)]
    table = _aggregate_rows(_score_rows(records), ("model_kind", "category"))
    assert table[("svm", 1)] == pytest.approx(0.3)


def test_aggregate_matches_brute_force():
    rng = np.random.default_rng(25)
    kinds = list(InputKind)
    records = []
    for i in range(300):
        records.append(_record(
            model=("svm", "gbrt", "logreg")[int(rng.integers(3))],
            base_id=f"p{rng.integers(4):02d}",
            kind=kinds[int(rng.integers(len(kinds)))],
            behavior=list(Behavior)[int(rng.integers(2))],
            category=int(rng.integers(6)),
            f1=float(rng.random())))
    table = _aggregate_rows(_score_rows(records), ("behavior", "category", "input_config"))
    for key, value in table.items():
        matching = [r.cv.mean_f1 for r in records
                    if (r.spec.behavior.value, r.spec.category,
                        r.spec.config.kind.value) == key]
        assert value == pytest.approx(sum(matching) / len(matching))


def test_general_average_is_mean_of_category_means():
    # Six categories with means {0, 0, 0, 0, 0, 0.6} average to 0.1.
    records = []
    for category in range(6):
        records.append(_record(category=category,
                               f1=0.6 if category == 5 else 0.0))
    [table] = _present_average_tables(records, "category_means")
    general = table["behaviors"]["actual_purchase"]["general_average"]
    assert general["view_weekday_slot"] == pytest.approx(0.1)


def test_average_table_total_average_over_configs():
    records = []
    for kind, f1 in zip(InputKind, (0.1, 0.2, 0.3, 0.4, 0.5)):
        records.append(_record(kind=kind, f1=f1))
    [table] = _present_average_tables(records, "category_means")
    row = table["behaviors"]["actual_purchase"]["categories"][1]
    assert row["total_average"] == pytest.approx(0.3)


def test_average_table_pools_pi_toggle_states():
    records = [_record(kind=InputKind.DEMOGRAPHICS, pi=False, f1=0.2),
               _record(kind=InputKind.DEMOGRAPHICS, pi=True, f1=0.4)]
    [table] = _present_average_tables(records, "category_means")
    row = table["behaviors"]["actual_purchase"]["categories"][1]
    assert row["demographics"] == pytest.approx(0.3)


def test_average_table_absent_groups_blank():
    [table] = _present_average_tables([_record()], "category_means")
    row = table["behaviors"]["purchase_intention"]["categories"][0]
    assert row["view_weekday_slot"] is None
    rendered = _render_average_table(table)
    assert "purchase_intention\t0\t\t" in rendered


def _suite_records(models=("svm",), n_bases=4, categories=(1,), spread=False,
                   base_kinds=(BaseKind.PRODUCT_BASED,),
                   behaviors=(Behavior.ACTUAL_PURCHASE,)):
    rng = np.random.default_rng(33)
    records = []
    for model in models:
        for base_kind in base_kinds:
            for behavior in behaviors:
                for category in categories:
                    for i in range(n_bases):
                        for kind in InputKind:
                            f1 = float(rng.random()) if spread else 0.5
                            records.append(_record(
                                model=model, base_kind=base_kind,
                                base_id=f"b{i:02d}", kind=kind,
                                behavior=behavior, category=category, f1=f1))
    return records


def test_hypothesis_suite_row_structure():
    records = _suite_records(
        models=("svm", "gbrt", "logreg"), categories=(0, 1, 2, 3, 4, 5),
        base_kinds=(BaseKind.PRODUCT_BASED, BaseKind.USER_BASED),
        behaviors=tuple(Behavior), spread=True)
    reports, gaps = hypothesis_suite(records)
    assert not gaps
    # 3 models x 2 bases x 2 viewing variants x 2 behaviors x 6 categories
    # per hypothesis.
    for hypothesis in ("h1", "h2", "h3"):
        assert sum(r.hypothesis == hypothesis for r in reports) == 144
    h1 = [r for r in reports if r.hypothesis == "h1"]
    assert all(r.group_b == "demographics" for r in h1)
    h3 = [r for r in reports if r.hypothesis == "h3"]
    assert all(r.group_b in ("view_weekday_slot", "view_weekday") for r in h3)


def test_hypothesis_suite_constant_groups_yield_nan():
    reports, gaps = hypothesis_suite(_suite_records(spread=False))
    assert not gaps
    assert all(math.isnan(r.p_value) for r in reports)


def test_hypothesis_suite_reports_gaps():
    records = [r for r in _suite_records(spread=True)
               if r.spec.config.kind is not InputKind.DEMOGRAPHICS]
    reports, gaps = hypothesis_suite(records)
    assert gaps
    assert all("demographics" in g for g in gaps)
    assert {r.hypothesis for r in reports} == {"h3"}


def test_hypothesis_suite_paired_mode():
    reports, gaps = hypothesis_suite(_suite_records(spread=True), paired=True)
    assert not gaps
    assert all(r.n_a == r.n_b for r in reports)


def test_pvalue_table_renders_nan_literal(tmp_path):
    reports, _ = hypothesis_suite(_suite_records(spread=False))
    rendered = _render_pvalue_table(reports, "h1", "actual_purchase")
    assert "\tnan" in rendered
    paths = write_pvalue_tables(reports, tmp_path)
    assert len(paths) == 3  # one behavior in the records, three hypotheses
    assert "nan" in paths[0].read_text()


def test_write_average_tables_per_model_base(tmp_path):
    records = _suite_records(models=("svm", "logreg"))
    paths = write_average_tables(records, tmp_path)
    names = {p.name for p in paths}
    assert names == {"averages_svm_product.tsv", "averages_logreg_product.tsv"}


# ---------------------------------------------------------------------------
# Oracles for the grouping code, on a store with every model and base kind.
# ---------------------------------------------------------------------------

_REFERENCE_GROUP_FIELDS = {
    "model_kind": lambda r: r.spec.model_kind,
    "base_kind": lambda r: r.spec.base.kind.value,
    "base_id": lambda r: r.spec.base.base_id,
    "input_config": lambda r: r.spec.config.kind.value,
    "behavior": lambda r: r.spec.behavior.value,
    "category": lambda r: r.spec.category,
}


def reference_aggregate(records, group_by):
    """Record-at-a-time grouping, as before the row extraction."""
    extractors = [_REFERENCE_GROUP_FIELDS[name] for name in group_by]
    sums = {}
    for record in records:
        key = tuple(extract(record) for extract in extractors)
        bucket = sums.setdefault(key, [0.0, 0])
        bucket[0] += record.cv.mean_f1
        bucket[1] += 1
    return {key: total / count for key, (total, count) in sums.items()}


def reference_samples(records):
    """Per-base mean F1 of each (model, base kind, behavior, category,
    configuration) group, grouped as ``hypothesis_suite`` did before."""
    samples = {}
    for record in records:
        spec = record.spec
        key = (spec.model_kind, spec.base.kind.value, spec.behavior.value,
               spec.category, spec.config.kind.value)
        samples.setdefault(key, {}).setdefault(spec.base.base_id, []).append(
            record.cv.mean_f1)
    return {key: {base_id: sum(values) / len(values) for base_id, values in per_base.items()}
            for key, per_base in samples.items()}


@pytest.mark.parametrize("group_by", [
    ("behavior", "category", "input_config"),  # average table cells
    ("behavior", "input_config"),  # average table experiment means
    ("model_kind", "base_kind", "base_id", "input_config", "behavior", "category"),
    ("category",),
])
def test_aggregate_matches_reference(oracle_store, group_by):
    records, _ = load_score_records(oracle_store)
    assert (list(_aggregate_rows(_score_rows(records), group_by).items())
            == list(reference_aggregate(records, group_by).items()))


def test_average_tables_match_per_pair_selection(oracle_store):
    records, _ = load_score_records(oracle_store)
    for mode in ("category_means", "experiment_means"):
        tables = _present_average_tables(records, mode)
        assert [(t["model"], t["base"]) for t in tables] == [
            (model, kind) for model in ("svm", "gbrt", "logreg")
            for kind in ("product", "user")]
        for table in tables:
            assert table == average_table(records, table["model"],
                                          BaseKind(table["base"]), mode)


@pytest.mark.parametrize("paired", [False, True])
def test_hypothesis_suite_matches_reference(oracle_store, paired):
    records, _ = load_score_records(oracle_store)
    reports, gaps = hypothesis_suite(records, paired=paired)
    assert reports and gaps  # view_weekday_slot is absent from the store
    samples = reference_samples(records)
    for r in reports:
        map_a = samples[(r.model_kind, r.base_kind, r.behavior, r.category, r.group_a)]
        map_b = samples[(r.model_kind, r.base_kind, r.behavior, r.category, r.group_b)]
        if paired:
            shared = sorted(set(map_a) & set(map_b))
            expected = paired_t_test([map_a[b] for b in shared], [map_b[b] for b in shared])
        else:
            expected = welch_t_test([map_a[b] for b in sorted(map_a)],
                                    [map_b[b] for b in sorted(map_b)])
        assert (repr((r.n_a, r.n_b, r.t_stat, r.df, r.p_value))
                == repr((expected.n_a, expected.n_b, expected.t_stat, expected.df,
                         expected.p_value)))
    spans = {key[:4] for key in samples}
    assert len(reports) + len(gaps) == len(spans) * 3 * 2  # hypotheses x variants
    reference_records, _ = reference_load_score_records(oracle_store)
    assert repr(hypothesis_suite(reference_records, paired=paired)) == repr((reports, gaps))
