"""Workloads, timed passes and metrics of the adpredict benchmark.

Every call into ``adpredict`` goes through a module attribute (``runner.run_matrix``,
not an imported name), so that a traced phase sees the wrappers installed
from ``spans``.

The load is one closed-loop caller in one process: each ``run_matrix`` call
starts after the previous one returned. The only concurrency is the
program's own ``workers`` (at most 2).
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from adpredict import data_model, exposure, learners, runner, stats, synthgen
from adpredict.features import InputKind
from adpredict.learners import LearnerParams
from adpredict.runner import MatrixConfig
from spans import Tracer, patched, self_times, tail_percentile

DEFAULT_SEED = 2024
GLOBAL_SEED = 11
WIDE_USER_BASES = 20
SAMPLE_SECONDS = 15.0  # window of the set-up and report samples

PANELS = {
    # The acceptance determinism panel.
    "learn": dict(n_users=200, n_products=6, n_advert_matched=6),
    # The reference study's 36 advert-matched products.
    "wide": dict(n_users=1000, n_products=40, n_advert_matched=36),
}

# sha256 of results.tsv + specs.tsv for the default seed. learn-serial and
# learn-w2 must write the same bytes; the wide store is limit-then-resume
# and equals an uninterrupted run's store.
PINNED = {
    "learn": "c9fc845fb3674ed7ae09d7f6fd9a776a0d7b9eee173f2fed8a96e42343554f04",
    "wide": "2082533101207a28e113b9c901ee3736018f165995bb00dae9bf6edcca9a4cbb",
}


@dataclass(frozen=True)
class Workload:
    panel: str
    workers: int
    split: bool  # stop at half the specs with ``limit``, then ``resume``


WORKLOADS = {
    "learn-serial": Workload("learn", workers=1, split=False),
    "learn-w2": Workload("learn", workers=2, split=False),
    "wide-resume": Workload("wide", workers=1, split=True),
}

END_TO_END = {
    "specs_per_s": "specs/s",
    "setup_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "synthgen.generate_panel_s": "s",
    "data_model.parse_catalog_s": "s",
    "data_model.rows": "count",
    "data_model.fingerprint_s": "s",
    "exposure.compute_exposure_s": "s",
    "exposure.cells": "count",
    "runner.run_matrix_s": "s",
    "runner.self_s": "s",
    "runner.enumerate_s": "s",
    "runner.first_result_s": "s",
    "runner.resume_first_result_s": "s",
    "runner.commit_gap_ms.p50": "ms",
    "runner.commit_gap_ms.p90": "ms",
    "runner.commit_gap_ms.samples": "count",
    "runner.store_bytes": "bytes",
    "runner.load_score_records_s": "s",
    "features.build_matrix_s": "s",
    "features.build_matrix_calls": "count",
    "features.reuse_ratio": "specs/build",
    "targets.label_vector_s": "s",
    "targets.label_vector_calls": "count",
    "evaluation.cross_validate_s": "s",
    "evaluation.self_s": "s",
    **{f"learners.{m}.{name}": unit
       for m in learners.MODEL_KINDS
       for name, unit in (("fit_s", "s"), ("fits", "count"),
                          ("fit_ms.p50", "ms"), ("fit_ms.p90", "ms"))},
    "learners.predict_s": "s",
    "learners.svm.epochs": "count",
    "learners.svm.cap_hit_ratio": "ratio",
    "stats.write_average_tables_s": "s",
    "stats.hypothesis_suite_s": "s",
    "stats.write_tables_s": "s",
    "stats.tests": "count",
    "trace.overhead_ratio": "ratio",
}

# Calls the benchmark makes itself.
OUTER_CALLS = [
    (synthgen, "generate_panel", "synthgen.generate_panel"),
    (data_model, "parse_catalog", "data_model.parse_catalog"),
    (exposure, "compute_exposure", "exposure.compute_exposure"),
    (runner, "run_matrix", "runner.run_matrix"),
    (runner, "load_score_records", "runner.load_score_records"),
    (stats, "write_average_tables", "stats.write_average_tables"),
    (stats, "hypothesis_suite", "stats.hypothesis_suite"),
    (stats, "write_pvalue_tables", "stats.write_pvalue_tables"),
    (stats, "write_report_document", "stats.write_report_document"),
]

# Calls the pipeline makes inside run_matrix, named by the module that
# implements them.
INNER_CALLS = [
    (data_model.Catalog, "fingerprint", "data_model.fingerprint"),
    (runner, "enumerate_experiments", "runner.enumerate_experiments"),
    (runner, "build_matrix", "features.build_matrix"),
    (runner, "label_vector", "targets.label_vector"),
    (runner, "cross_validate", "evaluation.cross_validate"),
    (learners, "train_svm", "learners.train_svm"),
    (learners, "train_gbrt", "learners.train_gbrt"),
    (learners, "train_logreg", "learners.train_logreg"),
    (learners, "predict", "learners.predict"),
]


@dataclass
class Call:
    """One run_matrix call and the perf_counter stamp of each committed row."""

    start: float
    end: float
    stamps: list[float]
    resumed: bool


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    lines: list[str]


def matrix_for(panel: str, catalog) -> MatrixConfig:
    if panel == "learn":
        return MatrixConfig(
            models=("svm", "gbrt", "logreg"),
            products=catalog.advert_matched_products[:1],
            users=catalog.user_ids[:1],
            configs=(InputKind.VIEW_WEEKDAY_SLOT, InputKind.VIEW_WEEKDAY,
                     InputKind.DEMOGRAPHICS),
            categories=(1, 4), k=5,
            learner_params=LearnerParams(svm_max_epochs=30))
    return MatrixConfig(models=("logreg",), products=(),
                        users=catalog.user_ids[:WIDE_USER_BASES],
                        categories=(1, 4), k=5)


def setup(data_dir: Path):
    """What a user with a panel on disk pays before the first spec."""
    catalog = data_model.parse_catalog(data_dir)
    return catalog, exposure.compute_exposure(list(catalog.viewing),
                                              list(catalog.broadcasts))


def report(store: Path, out_dir: Path) -> int:
    records, _ = runner.load_score_records(store)
    stats.write_average_tables(records, out_dir)
    reports, gaps = stats.hypothesis_suite(records)
    stats.write_pvalue_tables(reports, out_dir)
    stats.write_report_document(records, reports, gaps, out_dir)
    return len(reports)


def timed(times: list[float], fn):
    """Call ``fn``, append its wall time to ``times`` and return its result."""
    start = time.perf_counter()
    result = fn()
    times.append(time.perf_counter() - start)
    return result


def run_pass(workload: Workload, catalog, exp, matrix: MatrixConfig, total: int,
             store: Path) -> list[Call]:
    steps = [{"limit": total // 2}, {"resume": True}] if workload.split else [{}]
    calls = []
    for kwargs in steps:
        stamps: list[float] = []

        def stamp(*_):
            stamps.append(time.perf_counter())

        start = time.perf_counter()
        runner.run_matrix(catalog, matrix, store, GLOBAL_SEED,
                          workers=workload.workers, exposure=exp,
                          progress=stamp, **kwargs)
        calls.append(Call(start, time.perf_counter(), stamps,
                          bool(kwargs.get("resume"))))
    return calls


class GateError(RuntimeError):
    """A result store failed the benchmark's correctness gate."""


def check_digest(store: Path, pinned: str | None) -> str:
    """sha256 of results.tsv + specs.tsv; raises GateError if it is not ``pinned``."""
    digest = hashlib.sha256()
    for name in (runner.RESULTS_FILE, runner.SPECS_FILE):
        digest.update((store / name).read_bytes())
    actual = digest.hexdigest()
    if pinned is not None and actual != pinned:
        raise GateError(f"{store}: store digest {actual} != pinned {pinned}")
    return actual


def verify(store: Path, pinned: str | None, total: int) -> tuple[str, int]:
    """Gate one store: every row loads, rows match the enumeration, digest.

    Returns the digest and the number of rows with ``status=error``.
    """
    records, failures = runner.load_score_records(store)
    if len(records) + len(failures) != total:
        raise GateError(f"{store}: {len(records) + len(failures)} rows, "
                        f"enumeration has {total}")
    return check_digest(store, pinned), len(failures)


def specs_per_s(calls: list[Call]) -> float:
    return sum(len(c.stamps) for c in calls) / sum(c.end - c.start for c in calls)


def write_panel(workload: Workload, seed: int, work: Path) -> Path:
    """Generate the workload's panel and write it to disk; the program's input."""
    panel = synthgen.generate_panel(
        synthgen.GenConfig(seed=seed, **PANELS[workload.panel]))
    data_model.write_catalog(panel, work / "panel")
    return work / "panel"


def plan(workload: Workload, seed: int, catalog) -> tuple[MatrixConfig, int, str | None]:
    """The matrix, its spec count and the pinned digest (default seed only)."""
    matrix = matrix_for(workload.panel, catalog)
    total = len(runner.enumerate_experiments(catalog, matrix))
    return matrix, total, PINNED[workload.panel] if seed == DEFAULT_SEED else None


def measure(workload: Workload, seed: int, seconds: float, work: Path) -> Outcome:
    """Untraced run: end-to-end metrics."""
    data_dir = write_panel(workload, seed, work)
    setup_times: list[float] = []
    catalog, exp = timed(setup_times, lambda: setup(data_dir))
    matrix, total, pinned = plan(workload, seed, catalog)
    calls: list[Call] = []
    digests = set()
    failed = passes = 0
    began = time.perf_counter()
    last = 0.0
    # Start another pass only if it is expected to end within the budget.
    while passes == 0 or time.perf_counter() - began + last <= seconds:
        store = work / f"store{passes}"
        start = time.perf_counter()
        calls += run_pass(workload, catalog, exp, matrix, total, store)
        last = time.perf_counter() - start
        digest, errors = verify(store, pinned, total)
        digests.add(digest)
        failed += errors
        passes += 1
        if passes > 1:
            shutil.rmtree(work / f"store{passes - 2}")
    if len(digests) != 1:
        raise GateError(f"passes of one run wrote different stores: {sorted(digests)}")
    # Further set-ups alternate with one-second bursts of reports, so that
    # both medians sample the same stretch of machine time, which drifts by
    # several percent over seconds on a shared host.
    report_times: list[float] = []
    began = time.perf_counter()
    while len(setup_times) < 3 or time.perf_counter() - began < SAMPLE_SECONDS:
        timed(setup_times, lambda: setup(data_dir))
        burst_end = time.perf_counter() + 1.0
        while time.perf_counter() < burst_end:
            timed(report_times, lambda: report(store, work / "report"))
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    attempted = passes * total
    lines = [
        f"passes {passes} x {total} specs, store digest {digests.pop()}"
        f"{' (pinned)' if pinned else ''}",
        f"spec_error_ratio {failed / attempted} ratio "
        f"(base: {attempted} specs executed)",
        *(f"{name} {value:.6g}" for name, value in timeline(calls).items()),
    ]
    return Outcome({
        "specs_per_s": specs_per_s(calls),
        "setup_s": statistics.median(setup_times),
        "report_s": statistics.median(report_times),
        "peak_rss_mb": peak_kb / 1024.0,
    }, attempted, failed, lines)


def counting_svm(train_svm, fits: list):
    """train_svm that records (epochs started, epoch cap reached) per fit."""
    def train(X, y, params=LearnerParams(), epoch_callback=None):
        epochs = 0

        def count(index, value):
            nonlocal epochs
            epochs += index >= 0  # the final call reports index -1
            if epoch_callback is not None:
                epoch_callback(index, value)

        model = train_svm(X, y, params, epoch_callback=count)
        fits.append((epochs, epochs >= params.svm_max_epochs))
        return model
    return train


def percentiles(prefix: str, samples: list[float]) -> dict[str, float]:
    """``<prefix>.p50`` and ``.p90`` by the ten-beyond rule; 0 when too few samples."""
    out = {}
    for want in (50, 90):
        tail = tail_percentile(samples, want)
        out[f"{prefix}.p{want}"] = tail[1] if tail else 0.0
    return out


def timeline(calls: list[Call]) -> dict[str, float]:
    """Commit timeline from the progress stamps of one run's calls."""
    gaps = [1000.0 * (b - a) for c in calls for a, b in zip(c.stamps, c.stamps[1:])]
    out = {"runner.commit_gap_ms.samples": len(gaps),
           **percentiles("runner.commit_gap_ms", gaps)}
    for resumed, name in ((False, "runner.first_result_s"),
                          (True, "runner.resume_first_result_s")):
        firsts = [c.stamps[0] - c.start for c in calls
                  if c.stamps and c.resumed == resumed]
        out[name] = firsts[0] if firsts else 0.0
    return out


def trace(workload: Workload, seed: int, work: Path, trace_path: Path) -> Outcome:
    """Traced run: one untraced pass for the baseline, then one traced pass."""
    tracer = Tracer()
    with tracer.installed(OUTER_CALLS):
        catalog, exp = setup(write_panel(workload, seed, work))
    matrix, total, pinned = plan(workload, seed, catalog)
    plain = run_pass(workload, catalog, exp, matrix, total, work / "plain")
    digest, failed = verify(work / "plain", pinned, total)

    svm_fits: list[tuple[int, bool]] = []
    with patched(learners, "train_svm", counting_svm(learners.train_svm, svm_fits)), \
            tracer.installed(OUTER_CALLS + INNER_CALLS):
        traced = run_pass(workload, catalog, exp, matrix, total, work / "traced")
        tests = report(work / "traced", work / "report")
    failed += verify(work / "traced", digest, total)[1]  # same bytes as untraced
    tracer.write(trace_path)

    spans = tracer.spans
    total_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        total_s[span.name] += span.end - span.start
        self_s[span.name] += own
        durations[span.name].append(span.end - span.start)
    builds = len(durations["features.build_matrix"])
    executed = sum(len(c.stamps) for c in traced)
    m: dict[str, float] = {
        "synthgen.generate_panel_s": total_s["synthgen.generate_panel"],
        "data_model.parse_catalog_s": total_s["data_model.parse_catalog"],
        "data_model.rows": sum(len(t) for t in (
            catalog.users, catalog.products, catalog.responses,
            catalog.viewing, catalog.broadcasts)),
        "data_model.fingerprint_s": total_s["data_model.fingerprint"],
        "exposure.compute_exposure_s": total_s["exposure.compute_exposure"],
        "exposure.cells": len(exp.cells),
        "runner.run_matrix_s": total_s["runner.run_matrix"],
        "runner.self_s": (self_s["runner.run_matrix"]
                          + self_s["runner.enumerate_experiments"]),
        "runner.enumerate_s": total_s["runner.enumerate_experiments"],
        **timeline(plain),
        "runner.store_bytes": sum((work / "traced" / name).stat().st_size
                                  for name in (runner.RESULTS_FILE, runner.SPECS_FILE)),
        "runner.load_score_records_s": total_s["runner.load_score_records"],
        "features.build_matrix_s": total_s["features.build_matrix"],
        "features.build_matrix_calls": builds,
        "features.reuse_ratio": executed / builds if builds else 0.0,
        "targets.label_vector_s": total_s["targets.label_vector"],
        "targets.label_vector_calls": len(durations["targets.label_vector"]),
        "evaluation.cross_validate_s": total_s["evaluation.cross_validate"],
        "evaluation.self_s": self_s["evaluation.cross_validate"],
        "learners.predict_s": total_s["learners.predict"],
        "learners.svm.epochs": sum(e for e, _ in svm_fits),
        "learners.svm.cap_hit_ratio": (sum(c for _, c in svm_fits) / len(svm_fits)
                                       if svm_fits else 0.0),
        "stats.write_average_tables_s": total_s["stats.write_average_tables"],
        "stats.hypothesis_suite_s": total_s["stats.hypothesis_suite"],
        "stats.write_tables_s": (total_s["stats.write_pvalue_tables"]
                                 + total_s["stats.write_report_document"]),
        "stats.tests": tests,
        "trace.overhead_ratio": specs_per_s(traced) / specs_per_s(plain),
    }
    for model in learners.MODEL_KINDS:
        fit_ms = [1000.0 * d for d in durations[f"learners.train_{model}"]]
        m[f"learners.{model}.fit_s"] = total_s[f"learners.train_{model}"]
        m[f"learners.{model}.fits"] = len(fit_ms)
        m.update(percentiles(f"learners.{model}.fit_ms", fit_ms))

    partition = (m["runner.self_s"] + m["data_model.fingerprint_s"]
                 + m["features.build_matrix_s"] + m["targets.label_vector_s"]
                 + m["evaluation.self_s"] + m["learners.predict_s"]
                 + sum(m[f"learners.{model}.fit_s"] for model in learners.MODEL_KINDS))
    if abs(partition - m["runner.run_matrix_s"]) > 1e-9 * m["runner.run_matrix_s"]:
        raise GateError(f"module self times sum to {partition} s, "
                        f"run_matrix took {m['runner.run_matrix_s']} s")
    lines = [f"spans {len(spans)} written to {trace_path}",
             f"store digest {digest}{' (pinned)' if pinned else ''}"]
    if workload.workers > 1:
        lines.append("spans inside worker processes are lost: features, targets, "
                     "evaluation and learners read 0 here (parent side only)")
    return Outcome(m, 2 * total, failed, lines)
