"""Score aggregation tables and Welch t-test comparisons.

The t-test is the two-sided unequal-variance (Welch) test with
Welch-Satterthwaite degrees of freedom; groups are unpaired by default
because the compared model families carry no stated pairing, and a paired
mode (pairing samples by base id) exists for sensitivity checks. When both
samples are constant the statistic is undefined and the p-value is emitted
as NaN, never dropped; report files render it as the literal ``nan``.

p-values come from the t-distribution survival function evaluated through a
continued-fraction regularized incomplete beta, accurate to about 1e-10.
No multiple-comparison correction is applied anywhere; treat families of
p-values accordingly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .features import INPUT_KIND_ORDER, BaseKind, InputKind
from .learners import MODEL_KINDS
from .targets import CATEGORIES, Behavior

if TYPE_CHECKING:  # records come from the runner; consumed duck-typed
    from .runner import ScoreRecord


# ---------------------------------------------------------------------------
# t-distribution machinery.
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (modified
    Lentz iteration)."""
    max_iter = 500
    eps = 1e-15
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t_stat: float, df: float) -> float:
    """P(|T| >= |t|) for T ~ t(df)."""
    if math.isnan(t_stat) or math.isnan(df):
        return math.nan
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    t2 = t_stat * t_stat
    if math.isinf(t2):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t2))


@dataclass(frozen=True)
class WelchResult:
    t_stat: float
    df: float
    p_value: float
    n_a: int
    n_b: int
    mean_a: float
    mean_b: float


def _sample_stats(sample: Sequence[float]) -> tuple[float, float]:
    n = len(sample)
    mean = sum(sample) / n
    if min(sample) == max(sample):  # exactly constant, variance is 0 by fiat
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in sample) / (n - 1)
    return mean, var


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> WelchResult:
    """Two-sided Welch test. NaN statistic iff both samples are constant."""
    n_a, n_b = len(sample_a), len(sample_b)
    if n_a < 2 or n_b < 2:
        raise ValueError("both samples need at least 2 observations")
    mean_a, var_a = _sample_stats(sample_a)
    mean_b, var_b = _sample_stats(sample_b)
    if var_a == 0.0 and var_b == 0.0:
        return WelchResult(math.nan, math.nan, math.nan, n_a, n_b, mean_a, mean_b)
    se_a = var_a / n_a
    se_b = var_b / n_b
    pooled = se_a + se_b
    t_stat = (mean_a - mean_b) / math.sqrt(pooled)
    df = pooled * pooled / (se_a * se_a / (n_a - 1) + se_b * se_b / (n_b - 1))
    return WelchResult(t_stat, df, student_t_two_sided_p(t_stat, df),
                       n_a, n_b, mean_a, mean_b)


def paired_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> WelchResult:
    """Two-sided paired test on element-wise differences."""
    if len(sample_a) != len(sample_b):
        raise ValueError("paired samples must have equal length")
    n = len(sample_a)
    if n < 2:
        raise ValueError("paired test needs at least 2 pairs")
    diffs = [a - b for a, b in zip(sample_a, sample_b)]
    mean_d, var_d = _sample_stats(diffs)
    if var_d == 0.0:
        return WelchResult(math.nan, math.nan, math.nan, n, n,
                           sum(sample_a) / n, sum(sample_b) / n)
    t_stat = mean_d / math.sqrt(var_d / n)
    df = float(n - 1)
    return WelchResult(t_stat, df, student_t_two_sided_p(t_stat, df),
                       n, n, sum(sample_a) / n, sum(sample_b) / n)


# ---------------------------------------------------------------------------
# Aggregation into the six average tables.
# ---------------------------------------------------------------------------

# Positions in the rows of ``_score_rows``.
_GROUP_FIELDS = {"model_kind": 0, "base_kind": 1, "base_id": 2,
                 "input_config": 3, "behavior": 4, "category": 5}
_F1 = 6


def _score_rows(records: Iterable["ScoreRecord"]) -> list[tuple]:
    """(model, base kind, base id, input config, behavior, category, mean F1)
    of each record, enum values read once. The average tables and the
    hypothesis suite group these rows, not the records."""
    rows = []
    for record in records:
        spec = record.spec
        base = spec.base
        rows.append((spec.model_kind, base.kind.value, base.base_id,
                     spec.config.kind.value, spec.behavior.value, spec.category,
                     record.cv.mean_f1))
    return rows


def _aggregate_rows(rows: Iterable[tuple], group_by: Sequence[str]) -> dict[tuple, float]:
    """Mean of cross-validated mean F1 within each group; empty groups are
    simply absent from the result."""
    positions = [_GROUP_FIELDS[name] for name in group_by]
    sums: dict[tuple, list[float]] = {}
    for row in rows:
        bucket = sums.setdefault(tuple([row[i] for i in positions]), [0.0, 0])
        bucket[0] += row[_F1]
        bucket[1] += 1
    return {key: total / count for key, (total, count) in sums.items()}


_CONFIG_COLUMNS = tuple(kind.value for kind in INPUT_KIND_ORDER)

_BEHAVIOR_ORDER = tuple(Behavior)

_BASE_KIND_ORDER = tuple(kind.value for kind in BaseKind)


def _report_order(model_kind: str, base_kind: str, *rest) -> tuple:
    """Sort key of report rows: model family, then product before user bases."""
    return (MODEL_KINDS.index(model_kind), _BASE_KIND_ORDER.index(base_kind), *rest)


def _mean_or_none(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _average_table(rows: list[tuple], model_kind: str, base_kind: str,
                   general_average: str) -> dict:
    """One table of mean F1 cells from the ``_score_rows`` of a (model, base) pair.

    Columns are the five input configurations plus a Total Average column
    (mean over the configurations). Per behavior there is one row per
    category plus a General Average row; by default that row is the mean of
    the six category means, with ``general_average="experiment_means"``
    averaging over the underlying experiments instead. A final row averages
    the two behaviors' General Average cells.
    """
    if general_average not in ("category_means", "experiment_means"):
        raise ValueError(f"unknown general_average mode {general_average!r}")
    cell_means = _aggregate_rows(rows, ("behavior", "category", "input_config"))
    experiment_means = _aggregate_rows(rows, ("behavior", "input_config"))

    behaviors: dict[str, dict] = {}
    for behavior in _BEHAVIOR_ORDER:
        categories: dict[int, dict] = {}
        for category in CATEGORIES:
            row = {config: cell_means.get((behavior.value, category, config))
                   for config in _CONFIG_COLUMNS}
            present = [v for v in row.values() if v is not None]
            row["total_average"] = _mean_or_none(present)
            categories[category] = row
        general: dict[str, float | None] = {}
        for config in _CONFIG_COLUMNS:
            if general_average == "category_means":
                values = [categories[c][config] for c in CATEGORIES
                          if categories[c][config] is not None]
                general[config] = _mean_or_none(values)
            else:
                general[config] = experiment_means.get((behavior.value, config))
        general["total_average"] = _mean_or_none(
            [v for c, v in general.items() if c != "total_average" and v is not None])
        behaviors[behavior.value] = {"general_average": general,
                                     "categories": categories}

    both: dict[str, float | None] = {}
    for config in list(_CONFIG_COLUMNS) + ["total_average"]:
        values = [behaviors[b.value]["general_average"][config]
                  for b in _BEHAVIOR_ORDER
                  if behaviors[b.value]["general_average"][config] is not None]
        both[config] = _mean_or_none(values)

    return {"model": model_kind, "base": base_kind,
            "behaviors": behaviors, "both_targets": both}


# ---------------------------------------------------------------------------
# Hypothesis suite: the six p-value tables.
# ---------------------------------------------------------------------------

VIEWING_VARIANTS = (
    ("weekday_slot", InputKind.VIEW_WEEKDAY_SLOT, InputKind.VIEW_WEEKDAY_SLOT_DEMO),
    ("weekday", InputKind.VIEW_WEEKDAY, InputKind.VIEW_WEEKDAY_DEMO),
)

HYPOTHESES = ("h1", "h2", "h3")


@dataclass(frozen=True)
class TTestReport:
    hypothesis: str
    model_kind: str
    base_kind: str
    behavior: str
    variant: str
    category: int
    group_a: str
    group_b: str
    n_a: int
    n_b: int
    t_stat: float
    df: float
    p_value: float


def _comparison_configs(hypothesis: str, viewing: InputKind,
                        combined: InputKind) -> tuple[InputKind, InputKind]:
    if hypothesis == "h1":
        return viewing, InputKind.DEMOGRAPHICS
    if hypothesis == "h2":
        return combined, InputKind.DEMOGRAPHICS
    if hypothesis == "h3":
        return combined, viewing
    raise ValueError(f"unknown hypothesis {hypothesis!r}")


def hypothesis_suite(records: Sequence["ScoreRecord"],
                     paired: bool = False) -> tuple[list[TTestReport], list[str]]:
    """All three hypothesis comparisons over every populated group.

    Per (model, base kind, behavior, category, configuration) the sample is
    one F1 value per base id: the mean of that base's runs, so duplicated
    intent-feature toggles average into a single observation. Returns the
    test rows plus a gap list naming every comparison that lacked a sample;
    gaps are reported, never silently dropped.
    """
    samples: dict[tuple, dict[str, list[float]]] = {}
    span: set[tuple] = set()
    for model, base_kind, base_id, config, behavior, category, f1 in _score_rows(records):
        samples.setdefault((model, base_kind, behavior, category, config), {}).setdefault(
            base_id, []).append(f1)
        span.add((model, base_kind, behavior, category))

    def sample_map(model, base_kind, behavior, category, kind):
        per_base = samples.get((model, base_kind, behavior, category, kind.value))
        if not per_base:
            return None
        return {base_id: sum(values) / len(values)
                for base_id, values in per_base.items()}

    behavior_rank = {b.value: i for i, b in enumerate(_BEHAVIOR_ORDER)}
    ordered_span = sorted(span, key=lambda s: _report_order(s[0], s[1],
                                                            behavior_rank[s[2]], s[3]))

    reports: list[TTestReport] = []
    gaps: list[str] = []
    for model, base_kind, behavior, category in ordered_span:
        for hypothesis in HYPOTHESES:
            for variant, viewing, combined in VIEWING_VARIANTS:
                kind_a, kind_b = _comparison_configs(hypothesis, viewing, combined)
                map_a = sample_map(model, base_kind, behavior, category, kind_a)
                map_b = sample_map(model, base_kind, behavior, category, kind_b)
                where = (f"{hypothesis}/{model}/{base_kind}/{behavior}"
                         f"/category {category}/{variant}")
                if map_a is None or map_b is None:
                    missing = [k.value for k, m in ((kind_a, map_a), (kind_b, map_b))
                               if m is None]
                    gaps.append(f"{where}: no records for {', '.join(missing)}")
                    continue
                if paired:
                    shared = sorted(set(map_a) & set(map_b))
                    if len(shared) < 2:
                        gaps.append(f"{where}: fewer than 2 paired bases")
                        continue
                    result = paired_t_test([map_a[b] for b in shared],
                                           [map_b[b] for b in shared])
                else:
                    sample_a = [map_a[b] for b in sorted(map_a)]
                    sample_b = [map_b[b] for b in sorted(map_b)]
                    if len(sample_a) < 2 or len(sample_b) < 2:
                        gaps.append(f"{where}: fewer than 2 bases per side")
                        continue
                    result = welch_t_test(sample_a, sample_b)
                reports.append(TTestReport(
                    hypothesis=hypothesis, model_kind=model, base_kind=base_kind,
                    behavior=behavior, variant=variant, category=category,
                    group_a=kind_a.value, group_b=kind_b.value,
                    n_a=result.n_a, n_b=result.n_b, t_stat=result.t_stat,
                    df=result.df, p_value=result.p_value))
    return reports, gaps


# ---------------------------------------------------------------------------
# Report emission.
# ---------------------------------------------------------------------------

_GAPS_FILE = "report_gaps.txt"


def _format_cell(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.3f}"  # renders NaN as the literal "nan"


def _render_average_table(table: dict) -> str:
    header = ["prediction_target", "category", *_CONFIG_COLUMNS, "total_average"]
    lines = ["\t".join(header)]
    for behavior in _BEHAVIOR_ORDER:
        data = table["behaviors"][behavior.value]
        general = data["general_average"]
        cells = [_format_cell(general[c]) for c in header[2:]]
        lines.append("\t".join([behavior.value, "general_average", *cells]))
        for category in CATEGORIES:
            row = data["categories"][category]
            cells = [_format_cell(row[c]) for c in header[2:]]
            lines.append("\t".join([behavior.value, str(category), *cells]))
    both = table["both_targets"]
    cells = [_format_cell(both[c]) for c in header[2:]]
    lines.append("\t".join(["both_targets", "total_average", *cells]))
    return "\n".join(lines) + "\n"


def _present_average_tables(records: Sequence["ScoreRecord"],
                            general_average: str) -> list[dict]:
    """``_average_table`` for each (model, base) pair present, in report order."""
    groups: dict[tuple[str, str], list[tuple]] = {}
    for row in _score_rows(records):
        groups.setdefault(row[:2], []).append(row)
    return [_average_table(groups[pair], *pair, general_average)
            for pair in sorted(groups, key=lambda pair: _report_order(*pair))]


def write_average_tables(records: Sequence["ScoreRecord"], out_dir: str | Path,
                         general_average: str = "category_means") -> list[Path]:
    """One TSV per (model, base) pair present in the records."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for table in _present_average_tables(records, general_average):
        path = out_dir / f"averages_{table['model']}_{table['base']}.tsv"
        path.write_text(_render_average_table(table), encoding="utf-8")
        paths.append(path)
    return paths


def _render_pvalue_table(reports: Sequence[TTestReport], hypothesis: str,
                         behavior: str) -> str:
    header = ["model", "base", "configuration", *[str(c) for c in CATEGORIES]]
    lines = ["\t".join(header)]
    rows = {}
    for r in reports:
        if r.hypothesis == hypothesis and r.behavior == behavior:
            rows.setdefault((r.model_kind, r.base_kind, r.variant), {})[r.category] = r.p_value
    variant_rank = {v[0]: i for i, v in enumerate(VIEWING_VARIANTS)}
    for key in sorted(rows, key=lambda k: _report_order(k[0], k[1], variant_rank[k[2]])):
        model, base_kind, variant = key
        cells = [_format_cell(rows[key].get(c)) for c in CATEGORIES]
        lines.append("\t".join([model, base_kind, variant, *cells]))
    return "\n".join(lines) + "\n"


def write_pvalue_tables(reports: Sequence[TTestReport],
                        out_dir: str | Path) -> list[Path]:
    """One TSV per (hypothesis, behavior) pair: the six p-value tables."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    present = {(r.hypothesis, r.behavior) for r in reports}
    paths = []
    for hypothesis in HYPOTHESES:
        for behavior in _BEHAVIOR_ORDER:
            if (hypothesis, behavior.value) not in present:
                continue
            path = out_dir / f"pvalues_{hypothesis}_{behavior.value}.tsv"
            path.write_text(_render_pvalue_table(reports, hypothesis, behavior.value),
                            encoding="utf-8")
            paths.append(path)
    return paths


def write_report_document(records: Sequence["ScoreRecord"],
                          reports: Sequence[TTestReport], gaps: Sequence[str],
                          out_dir: str | Path,
                          general_average: str = "category_means") -> Path:
    """Machine-readable JSON companion to the delimited tables; also writes
    the gaps to ``report_gaps.txt``, or removes a stale one when there are none."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def jsonable(value: float) -> float | str:
        return "nan" if isinstance(value, float) and math.isnan(value) else value

    doc = {
        "average_tables": _present_average_tables(records, general_average),
        "t_tests": [{
            "hypothesis": r.hypothesis, "model": r.model_kind,
            "base": r.base_kind, "behavior": r.behavior, "variant": r.variant,
            "category": r.category, "group_a": r.group_a, "group_b": r.group_b,
            "n_a": r.n_a, "n_b": r.n_b, "t_stat": jsonable(r.t_stat),
            "df": jsonable(r.df), "p_value": jsonable(r.p_value),
        } for r in reports],
        "gaps": list(gaps),
    }
    path = out_dir / "report.json"
    path.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n",
                    encoding="utf-8")
    gap_path = out_dir / _GAPS_FILE
    if gaps:
        gap_path.write_text("\n".join(gaps) + "\n", encoding="utf-8")
    else:
        gap_path.unlink(missing_ok=True)
    return path
