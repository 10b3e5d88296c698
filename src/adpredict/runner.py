"""Experiment-matrix enumeration, deterministic parallel execution, storage.

The matrix is the cross product of model family, model base, input
configuration (with the purchase-intention feature toggle where it is
legal), target behavior and category. Two accounting modes exist:

``canonical``
    every semantically distinct experiment exactly once: the toggle only
    doubles configurations that carry demographics, and only for
    actual-purchase targets.

``expanded``
    reference-total arithmetic that counts the toggle as doubling every
    configuration for every base: inputs = bases x configs x 2, experiments
    per model = inputs x targets. At full scale (3,000 users, 36 matched
    products, all selections) this reproduces the reference totals of
    30,360 inputs, 364,320 experiments per model and 1,092,960 overall.
    Execution always runs the deduplicated canonical list; the expanded
    numbers are carried in the manifest.

Results land in an append-only tab-separated log (``results.tsv``) next to
an enumeration index (``specs.tsv``) and a ``manifest.json``. Rows are
committed in enumeration order no matter how many workers run, and every
per-experiment seed is a stable hash of (global seed, spec id), so the log
bytes are a pure function of (catalog, matrix, global seed). Failures are
recorded per spec with a reason; they never abort the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .data_model import Catalog
from .evaluation import Confusion, CvResult, FoldResult, cross_validate
from .exposure import ExposureMatrix, compute_exposure
from .features import (INPUT_KIND_ORDER, BaseKind, InputConfig, InputKind,
                       ModelBase, Panel, build_matrix)
from .learners import MODEL_KINDS, LearnerParams
from .targets import CATEGORIES, Behavior, label_vector

RESULTS_FILE = "results.tsv"
SPECS_FILE = "specs.tsv"
MANIFEST_FILE = "manifest.json"

_RESULT_COLUMNS = ("spec_id", "model", "base_kind", "base_id", "config_kind",
                   "pi_feature", "behavior", "category", "k", "seed", "status",
                   "error", "mean_precision", "mean_recall", "mean_f1", "folds")

_SPEC_COLUMNS = _RESULT_COLUMNS[:10]


class RunnerError(ValueError):
    """Invalid matrix configuration or store state."""


class StoreError(RunnerError):
    """A result store is unreadable or inconsistent with its manifest."""


@dataclass(frozen=True)
class ExperimentSpec:
    model_kind: str
    base: ModelBase
    config: InputConfig
    behavior: Behavior
    category: int
    k: int

    def __post_init__(self):
        if self.config.include_pi_feature and self.behavior is Behavior.PURCHASE_INTENTION:
            raise RunnerError(
                "purchase-intention feature is not available when predicting it")
        if self.category not in CATEGORIES:
            raise RunnerError(f"category must be 0..5, got {self.category}")

    @property
    def spec_id(self) -> str:
        return "|".join((
            self.model_kind, self.base.kind.value, self.base.base_id,
            self.config.kind.value,
            "pi1" if self.config.include_pi_feature else "pi0",
            self.behavior.value, str(self.category), f"k{self.k}",
        ))


@dataclass(frozen=True)
class ScoreRecord:
    spec: ExperimentSpec
    cv: CvResult
    seed: int


@dataclass
class MatrixConfig:
    """Selection of the experiment matrix; defaults select everything."""

    models: tuple[str, ...] = MODEL_KINDS
    products: tuple[str, ...] | str = "all"
    users: tuple[str, ...] | str = "all"
    configs: tuple[InputKind, ...] = INPUT_KIND_ORDER
    pi_feature_states: str = "both"  # "both" | "off" | "on"
    behaviors: tuple[Behavior, ...] = (Behavior.ACTUAL_PURCHASE,
                                       Behavior.PURCHASE_INTENTION)
    categories: tuple[int, ...] = CATEGORIES
    k: int = 5
    accounting: str = "canonical"  # "canonical" | "expanded"
    learner_params: LearnerParams = field(default_factory=LearnerParams)

    def __post_init__(self):
        for model in self.models:
            if model not in MODEL_KINDS:
                raise RunnerError(f"unknown model kind {model!r}")
        if not self.models or not self.configs or not self.behaviors or not self.categories:
            raise RunnerError("matrix selections must be non-empty")
        if self.pi_feature_states not in ("both", "off", "on"):
            raise RunnerError(f"bad pi_feature_states {self.pi_feature_states!r}")
        if self.accounting not in ("canonical", "expanded"):
            raise RunnerError(f"bad accounting mode {self.accounting!r}")
        if self.k < 2:
            raise RunnerError("k must be at least 2")

    @classmethod
    def from_dict(cls, doc: dict) -> "MatrixConfig":
        doc = dict(doc)
        if "models" in doc:
            doc["models"] = tuple(doc["models"])
        for key in ("products", "users"):
            if key in doc and doc[key] != "all":
                doc[key] = tuple(doc[key])
        if "configs" in doc:
            doc["configs"] = tuple(InputKind(v) for v in doc["configs"])
        if "behaviors" in doc:
            doc["behaviors"] = tuple(Behavior(v) for v in doc["behaviors"])
        if "categories" in doc:
            doc["categories"] = tuple(int(c) for c in doc["categories"])
        if "learner_params" in doc:
            doc["learner_params"] = LearnerParams(**doc["learner_params"])
        return cls(**doc)

    def to_dict(self) -> dict:
        return {
            "models": list(self.models),
            "products": self.products if self.products == "all" else list(self.products),
            "users": self.users if self.users == "all" else list(self.users),
            "configs": [c.value for c in self.configs],
            "pi_feature_states": self.pi_feature_states,
            "behaviors": [b.value for b in self.behaviors],
            "categories": list(self.categories),
            "k": self.k,
            "accounting": self.accounting,
            "learner_params": self.learner_params.__dict__,
        }


def spec_seed(global_seed: int, spec_id: str) -> int:
    digest = hashlib.sha256(f"{global_seed}|{spec_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # keep it in 63 bits


def _pi_states(matrix: MatrixConfig, kind: InputKind,
               behavior: Behavior) -> tuple[bool, ...]:
    legal = kind.has_demographics and behavior is Behavior.ACTUAL_PURCHASE
    if matrix.pi_feature_states == "off" or not legal:
        return (False,)
    if matrix.pi_feature_states == "on":
        return (True,)
    return (False, True)


def _selected_bases(catalog: Catalog, matrix: MatrixConfig) -> list[ModelBase]:
    matched = catalog.advert_matched_products
    if matrix.products == "all":
        product_ids: Sequence[str] = matched
    else:
        unknown = set(matrix.products) - set(matched)
        if unknown:
            raise RunnerError(f"selected products are not advert-matched: {sorted(unknown)}")
        product_ids = sorted(matrix.products)
    if matrix.users == "all":
        user_ids: Sequence[str] = catalog.user_ids
    else:
        unknown = set(matrix.users) - set(catalog.user_ids)
        if unknown:
            raise RunnerError(f"unknown users selected: {sorted(unknown)}")
        user_ids = sorted(matrix.users)
    return ([ModelBase(BaseKind.PRODUCT_BASED, p) for p in product_ids]
            + [ModelBase(BaseKind.USER_BASED, u) for u in user_ids])


def enumerate_experiments(catalog: Catalog,
                          matrix: MatrixConfig) -> list[ExperimentSpec]:
    """Duplicate-free spec list in deterministic order."""
    bases = _selected_bases(catalog, matrix)
    if not bases:
        raise RunnerError("base selection is empty")
    specs = []
    for model in matrix.models:
        for base in bases:
            for behavior in matrix.behaviors:
                for category in matrix.categories:
                    for kind in matrix.configs:
                        for pi in _pi_states(matrix, kind, behavior):
                            specs.append(ExperimentSpec(
                                model_kind=model, base=base,
                                config=InputConfig(kind, include_pi_feature=pi),
                                behavior=behavior, category=category, k=matrix.k))
    return specs


def matrix_counts(matrix: MatrixConfig, n_product_bases: int,
                  n_user_bases: int) -> dict:
    """Pure count arithmetic for both accounting modes.

    Needs only base counts, so reference-scale totals can be verified
    without materializing any catalog or spec list.
    """
    n_bases = n_product_bases + n_user_bases
    per_base_per_model = 0
    for behavior in matrix.behaviors:
        for kind in matrix.configs:
            per_base_per_model += len(_pi_states(matrix, kind, behavior)) * len(matrix.categories)
    canonical = n_bases * per_base_per_model * len(matrix.models)
    counts = {
        "accounting": matrix.accounting,
        "bases": n_bases,
        "canonical_specs": canonical,
    }
    if matrix.accounting == "expanded":
        inputs = n_bases * len(matrix.configs) * 2
        targets = len(matrix.behaviors) * len(matrix.categories)
        counts["expanded_inputs"] = inputs
        counts["expanded_per_model"] = inputs * targets
        counts["expanded_total"] = inputs * targets * len(matrix.models)
    return counts


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------

_WORKER: dict = {}


def _init_worker(panel: Panel, params: LearnerParams, global_seed: int) -> None:
    _WORKER["panel"] = panel
    _WORKER["params"] = params
    _WORKER["global_seed"] = global_seed


def _execute_spec(spec: ExperimentSpec) -> tuple[str, str, str]:
    """Run one experiment; returns (spec_id, status, payload)."""
    seed = spec_seed(_WORKER["global_seed"], spec.spec_id)
    try:
        panel = _WORKER["panel"]
        fm = build_matrix(panel, spec.base, spec.config, spec.behavior)
        y = label_vector(*panel.waves(spec.base, spec.behavior), spec.category)
        cv = cross_validate(fm.values, y, spec.model_kind, _WORKER["params"],
                            spec.k, seed)
    except Exception as exc:  # recorded, never fatal to the run
        reason = f"{type(exc).__name__}: {exc}".replace("\t", " ").replace("\n", " ")
        return spec.spec_id, "error", reason
    folds = "|".join(
        f"{f.confusion.tp}:{f.confusion.fp}:{f.confusion.tn}:{f.confusion.fn}"
        f":{f.precision!r}:{f.recall!r}:{f.f1!r}"
        for f in cv.folds)
    payload = "\t".join((repr(cv.mean_precision), repr(cv.mean_recall),
                         repr(cv.mean_f1), folds))
    return spec.spec_id, "ok", payload


def _row_head(spec: ExperimentSpec, seed: int) -> str:
    """The identity columns that open every row of specs.tsv and results.tsv."""
    return "\t".join((
        spec.spec_id, spec.model_kind, spec.base.kind.value, spec.base.base_id,
        spec.config.kind.value, "1" if spec.config.include_pi_feature else "0",
        spec.behavior.value, str(spec.category), str(spec.k), str(seed)))


def _result_line(spec: ExperimentSpec, seed: int, status: str, payload: str) -> str:
    head = _row_head(spec, seed)
    if status == "ok":
        return f"{head}\tok\t\t{payload}\n"
    return f"{head}\terror\t{payload}\t\t\t\t\n"


def _spec_counts(matrix: MatrixConfig, specs: list[ExperimentSpec]) -> dict:
    """``matrix_counts`` for the bases that an enumeration covers."""
    bases = {spec.base for spec in specs}
    n_products = sum(1 for b in bases if b.kind is BaseKind.PRODUCT_BASED)
    return matrix_counts(matrix, n_product_bases=n_products,
                         n_user_bases=len(bases) - n_products)


def run_matrix(catalog: Catalog, matrix: MatrixConfig, out_dir: str | Path,
               global_seed: int, workers: int = 1,
               limit: int | None = None, resume: bool = False,
               progress: Callable[[int, int, str, str], None] | None = None,
               exposure: ExposureMatrix | None = None) -> dict:
    """Execute the matrix into ``out_dir`` and return the manifest dict.

    The result store is a pure function of (catalog, matrix, global_seed):
    worker count and scheduling order never change its bytes. ``limit``
    stops after that many results (for smoke runs and resumability tests);
    ``resume`` continues an interrupted store after verifying that the
    catalog fingerprint, matrix and seed all match the manifest.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / RESULTS_FILE
    specs_path = out_dir / SPECS_FILE
    manifest_path = out_dir / MANIFEST_FILE

    if exposure is None:
        exposure = compute_exposure(list(catalog.viewing), list(catalog.broadcasts))
    specs = enumerate_experiments(catalog, matrix)
    seeds = {spec.spec_id: spec_seed(global_seed, spec.spec_id) for spec in specs}
    fingerprint = catalog.fingerprint()

    specs_text = "".join(["\t".join(_SPEC_COLUMNS) + "\n"]
                         + [_row_head(spec, seeds[spec.spec_id]) + "\n" for spec in specs])
    identity = {"global_seed": global_seed, "fingerprint": fingerprint,
                "matrix": matrix.to_dict(), "spec_count": len(specs)}
    if resume:
        manifest = _load_manifest(manifest_path)
        if manifest["fingerprint"] != fingerprint:
            raise StoreError("catalog fingerprint does not match the manifest")
        if manifest["matrix"] != identity["matrix"] or manifest["global_seed"] != global_seed:
            raise StoreError("matrix configuration or seed does not match the manifest")
        if not specs_path.exists() or specs_path.read_bytes() != specs_text.encode("utf-8"):
            raise StoreError(f"{specs_path} does not match the enumeration")
        if not results_path.exists():  # killed between manifest and log
            _write_atomic(results_path, "\t".join(_RESULT_COLUMNS) + "\n")
        executed = {row["spec_id"] for row in _read_result_rows(results_path)}
        remaining = [spec for spec in specs if spec.spec_id not in executed]
        # Drop a torn final line so that appends start on a fresh row.
        os.truncate(results_path, results_path.read_bytes().rfind(b"\n") + 1)
    else:
        if results_path.exists():
            raise StoreError(f"{results_path} already exists; use resume")
        # The log is created last: once it exists, the store can be resumed.
        _write_atomic(specs_path, specs_text)
        _write_atomic(manifest_path, json.dumps(identity, indent=1) + "\n")
        _write_atomic(results_path, "\t".join(_RESULT_COLUMNS) + "\n")
        executed = set()
        remaining = specs

    if limit is not None:
        remaining = remaining[:limit]

    started = time.time()
    done = len(executed)
    total = len(specs)
    counts = _spec_counts(matrix, specs)
    panel = Panel.build(catalog, exposure)

    with results_path.open("a", encoding="utf-8") as sink:
        def commit(spec: ExperimentSpec, status: str, payload: str) -> None:
            nonlocal done
            sink.write(_result_line(spec, seeds[spec.spec_id], status, payload))
            sink.flush()
            done += 1
            if progress is not None:
                progress(done, total, spec.spec_id, status)

        if workers <= 1 or len(remaining) <= 1:
            _init_worker(panel, matrix.learner_params, global_seed)
            for spec in remaining:
                _, status, payload = _execute_spec(spec)
                commit(spec, status, payload)
        else:
            chunk = max(1, min(32, len(remaining) // (workers * 4) or 1))
            with ProcessPoolExecutor(
                    max_workers=workers, initializer=_init_worker,
                    initargs=(panel, matrix.learner_params, global_seed)) as pool:
                # map() yields in submission order, which keeps the log
                # bytes independent of completion order.
                for spec, (_, status, payload) in zip(
                        remaining, pool.map(_execute_spec, remaining, chunksize=chunk)):
                    commit(spec, status, payload)

    by_model: dict[str, int] = {}
    by_base_kind: dict[str, int] = {}
    for spec in specs:
        by_model[spec.model_kind] = by_model.get(spec.model_kind, 0) + 1
        kind = spec.base.kind.value
        by_base_kind[kind] = by_base_kind.get(kind, 0) + 1
    manifest = {
        **identity,
        "counts": counts,
        "counts_by_model": by_model,
        "counts_by_base_kind": by_base_kind,
        "executed": done,
        "workers": workers,
        "wall_seconds": round(time.time() - started, 3),
    }
    _write_atomic(manifest_path, json.dumps(manifest, indent=1) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# Store access.
# ---------------------------------------------------------------------------

def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so that a reader sees old or new, never half."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _load_manifest(path: Path) -> dict:
    if not path.exists():
        raise StoreError(f"missing manifest {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _read_result_rows(path: Path) -> list[dict]:
    if not path.exists():
        raise StoreError(f"missing results log {path}")
    data = path.read_bytes()
    # A partial final line is an interrupted append; it is not a row.
    lines = data[:data.rfind(b"\n") + 1].decode("utf-8").splitlines()
    if not lines or tuple(lines[0].split("\t")) != _RESULT_COLUMNS:
        raise StoreError(f"{path}: bad or missing header")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(_RESULT_COLUMNS):
            raise StoreError(f"{path}:{line_no}: expected {len(_RESULT_COLUMNS)} fields")
        rows.append(dict(zip(_RESULT_COLUMNS, fields)))
    return rows


def _spec_from_row(row: dict) -> ExperimentSpec:
    return ExperimentSpec(
        model_kind=row["model"],
        base=ModelBase(BaseKind(row["base_kind"]), row["base_id"]),
        config=InputConfig(InputKind(row["config_kind"]),
                           include_pi_feature=row["pi_feature"] == "1"),
        behavior=Behavior(row["behavior"]),
        category=int(row["category"]),
        k=int(row["k"]),
    )


def load_score_records(store_dir: str | Path) -> tuple[list[ScoreRecord], list[dict]]:
    """Parse the results log back into ScoreRecords plus failure rows."""
    store_dir = Path(store_dir)
    records: list[ScoreRecord] = []
    failures: list[dict] = []
    for row in _read_result_rows(store_dir / RESULTS_FILE):
        if row["status"] != "ok":
            failures.append(row)
            continue
        folds = []
        for index, blob in enumerate(row["folds"].split("|")):
            tp, fp, tn, fn, precision, recall, f1 = blob.split(":")
            folds.append(FoldResult(
                fold_index=index,
                confusion=Confusion(tp=int(tp), fp=int(fp), tn=int(tn), fn=int(fn)),
                precision=float(precision), recall=float(recall), f1=float(f1)))
        cv = CvResult(folds=tuple(folds),
                      mean_precision=float(row["mean_precision"]),
                      mean_recall=float(row["mean_recall"]),
                      mean_f1=float(row["mean_f1"]))
        records.append(ScoreRecord(spec=_spec_from_row(row), cv=cv,
                                   seed=int(row["seed"])))
    return records, failures
