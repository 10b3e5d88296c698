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

import ctypes
import fcntl
import functools
import hashlib
import json
import multiprocessing
import os
import platform
import signal
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data_model import Catalog, _collector_paused
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
    behaviors: tuple[Behavior, ...] = tuple(Behavior)
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

_WORKER: dict = {}  # the run's panel and learner parameters

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _detach_from_run(store_lock: int) -> None:
    """Pool initializer: close the forked worker's copy of the store lock and
    have the kernel SIGKILL the worker once its parent, the run, is gone.
    SIGKILL reaches only the run's own process, and an orphaned worker would
    block on the call queue for good."""
    os.close(store_lock)
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != multiprocessing.parent_process().pid:  # gone before the call
        os._exit(1)


def _execute_spec(spec: ExperimentSpec, seed: int) -> tuple[str, str]:
    """Run one experiment; returns (status, payload), where the payload is
    the last five columns of its log row, ``error`` through ``folds``."""
    try:
        panel = _WORKER["panel"]
        X = build_matrix(panel, spec.base, spec.config, spec.behavior)
        y = label_vector(*panel.waves(spec.base, spec.behavior), spec.category)
        cv = cross_validate(X, y, spec.model_kind, _WORKER["params"],
                            spec.k, seed)
    except Exception as exc:  # recorded, never fatal to the run
        reason = f"{type(exc).__name__}: {exc}".replace("\t", " ").replace("\n", " ")
        return "error", f"{reason}\t\t\t\t"
    folds = "|".join(
        f"{f.confusion.tp}:{f.confusion.fp}:{f.confusion.tn}:{f.confusion.fn}"
        f":{f.precision!r}:{f.recall!r}:{f.f1!r}"
        for f in cv.folds)
    return "ok", "\t".join(("", repr(cv.mean_precision), repr(cv.mean_recall),
                            repr(cv.mean_f1), folds))


def _row_head(spec: ExperimentSpec, seed: int) -> str:
    """The identity columns that open every row of specs.tsv and results.tsv."""
    return "\t".join((
        spec.spec_id, spec.model_kind, spec.base.kind.value, spec.base.base_id,
        spec.config.kind.value, "1" if spec.config.include_pi_feature else "0",
        spec.behavior.value, str(spec.category), str(spec.k), str(seed)))


def numeric_environment() -> dict:
    """What result bits depend on besides the inputs: the Python and numpy
    versions, the BLAS build and the kernel it picked for this CPU.

    numpy's OpenBLAS is built with ``DYNAMIC_ARCH``: one install selects its
    kernels per CPU at load time, and the build info alone does not show
    which. ``blas_kernel`` is ``None`` when the loaded library cannot say.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_kernel": _openblas_kernel()}


@functools.cache
def _openblas_kernel() -> str | None:
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_",
                               None)
        except OSError:
            continue
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode("ascii")
    return None


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
    catalog fingerprint, matrix and seed all match the manifest, and starts
    a directory without a results log afresh. One run at a time may write a
    store; a second one raises ``StoreError``.
    """
    if limit is not None and limit < 0:
        raise RunnerError(f"limit must be non-negative, got {limit}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if exposure is None:
        exposure = compute_exposure(list(catalog.viewing), list(catalog.broadcasts))
    specs = enumerate_experiments(catalog, matrix)
    seeds = [spec_seed(global_seed, spec.spec_id) for spec in specs]
    heads = list(map(_row_head, specs, seeds))
    identity = {"global_seed": global_seed, "fingerprint": catalog.fingerprint(),
                "matrix": matrix.to_dict(), "spec_count": len(specs),
                "environment": numeric_environment()}

    with ExitStack() as stack:
        lock = os.open(out_dir, os.O_RDONLY)
        stack.callback(os.close, lock)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StoreError(f"{out_dir} is being written by another run") from None
        done = _open_store(out_dir, identity, heads, resume)
        remaining = specs[done:] if limit is None else specs[done:done + limit]
        started = time.time()
        # Pool workers are forked, so they inherit these inputs.
        _WORKER.update(panel=Panel.build(catalog, exposure), params=matrix.learner_params)
        stack.callback(_WORKER.clear)  # the run's panel is not kept past it
        sink = stack.enter_context((out_dir / RESULTS_FILE).open("a", encoding="utf-8"))
        if workers <= 1 or len(remaining) <= 1:
            outcomes = map(_execute_spec, remaining, seeds[done:])
        else:
            # Forked, whatever the default start method: each worker is a
            # child of the run, holding a copy of its lock to close.
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_detach_from_run, initargs=(lock,)))
            # One spec per task: specs are enumerated model-major, so chunks
            # would bunch the costly ones. map() yields in submission order,
            # which keeps the log bytes independent of completion order.
            outcomes = pool.map(_execute_spec, remaining, seeds[done:])
        for index, (status, payload) in enumerate(outcomes, start=done):
            sink.write(f"{heads[index]}\t{status}\t{payload}\n")
            sink.flush()
            if progress is not None:
                progress(index + 1, len(specs), specs[index].spec_id, status)

        manifest = {
            **identity,
            "counts": _spec_counts(matrix, specs),
            "counts_by_model": dict(Counter(spec.model_kind for spec in specs)),
            "counts_by_base_kind": dict(Counter(spec.base.kind.value for spec in specs)),
            "executed": done + len(remaining),
            "workers": workers,
            "wall_seconds": round(time.time() - started, 3),
        }
        _write_atomic(out_dir / MANIFEST_FILE, json.dumps(manifest, indent=1) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# Store access.
# ---------------------------------------------------------------------------

def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so that a reader sees old or new, never
    half, and the new bytes survive a power loss once this returns."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)  # makes the rename itself durable
    finally:
        os.close(directory)


def _open_store(out_dir: Path, identity: dict, heads: list[str], resume: bool) -> int:
    """Create or reopen the store in ``out_dir``; return its committed row count.

    Rows are committed in enumeration order, so the count n says that
    exactly the first n specs have run. The log is created last, so a store
    holds committed work only once it exists: without it, resume starts the
    store afresh, whatever a crash left of ``specs.tsv`` and the manifest.
    """
    results_path = out_dir / RESULTS_FILE
    specs_path = out_dir / SPECS_FILE
    manifest_path = out_dir / MANIFEST_FILE
    specs_text = "".join(["\t".join(_SPEC_COLUMNS) + "\n"] + [head + "\n" for head in heads])
    if not results_path.exists():
        _write_atomic(specs_path, specs_text)
        _write_atomic(manifest_path, json.dumps(identity, indent=1) + "\n")
        _write_atomic(results_path, "\t".join(_RESULT_COLUMNS) + "\n")
    elif not resume:
        raise StoreError(f"{results_path} already exists; use resume")
    else:
        if not manifest_path.exists():
            raise StoreError(f"missing manifest {manifest_path}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest["fingerprint"] != identity["fingerprint"]:
            raise StoreError("catalog fingerprint does not match the manifest")
        if (manifest["matrix"] != identity["matrix"]
                or manifest["global_seed"] != identity["global_seed"]):
            raise StoreError("matrix configuration or seed does not match the manifest")
        if manifest.get("environment") != identity["environment"]:
            raise StoreError(f"numeric environment {identity['environment']} does not "
                             f"match the manifest's {manifest.get('environment')}")
        if not specs_path.exists() or specs_path.read_bytes() != specs_text.encode("utf-8"):
            raise StoreError(f"{specs_path} does not match the enumeration")
    rows, end = _read_log(results_path, heads)
    os.truncate(results_path, end)  # appends start on a fresh row
    return len(rows)


def _read_lines(path: Path, nul_ends: bool = False) -> tuple[list[str], int]:
    """The complete lines of a store file, without their newlines, and their
    byte length; an unreadable file, or a byte that is not UTF-8 (with its
    line), raises StoreError. With ``nul_ends``, the lines end before the
    one that holds the first NUL."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StoreError(f"{path}: cannot read: {exc.strerror}") from None
    nul = data.find(b"\0") if nul_ends else -1
    end = data.rfind(b"\n", 0, len(data) if nul < 0 else nul) + 1
    try:
        return data[:end].decode("utf-8").split("\n")[:-1], end
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise StoreError(f"{path}:{line_no}: not UTF-8") from None


def _read_log(path: Path, heads: Sequence[str]) -> tuple[list[list[str]], int]:
    """The rows of a results log, each as its list of fields, and the byte
    length of its complete lines.

    Row k must open with ``heads[k]``, the identity columns of spec k, so
    the log is a prefix of the enumeration. A partial final line is an
    interrupted append; it is not a row. Neither is anything from the line
    that holds the first NUL byte on: a crash can leave zeroed blocks in
    the log, even before rows written later. No valid row holds a NUL,
    since ``Catalog`` refuses it in every id.
    """
    if not path.exists():
        raise StoreError(f"missing results log {path}")
    lines, end = _read_lines(path, nul_ends=True)
    if not lines or tuple(lines[0].split("\t")) != _RESULT_COLUMNS:
        raise StoreError(f"{path}: bad or missing header")
    rows = []
    for line_no, (line, head) in enumerate(zip(lines[1:], heads), start=2):
        fields = line.split("\t")
        if len(fields) != len(_RESULT_COLUMNS):
            raise StoreError(f"{path}:{line_no}: expected {len(_RESULT_COLUMNS)} fields")
        if not line.startswith(head + "\t"):
            raise StoreError(f"{path}:{line_no}: row does not match line "
                             f"{line_no} of {SPECS_FILE}")
        rows.append(fields)
    if len(lines) - 1 > len(heads):
        raise StoreError(f"{path}:{len(heads) + 2}: row beyond the "
                         f"{len(heads)} specs of {SPECS_FILE}")
    return rows, end


@_collector_paused()
def load_score_records(store_dir: str | Path) -> tuple[list[ScoreRecord], list[dict]]:
    """Parse the results log back into ScoreRecords plus failure rows.

    The log must be a prefix of the store's ``specs.tsv``, row for row, and
    the score fields of every ``ok`` row must parse; otherwise StoreError
    names the offending line. Records share one ``ModelBase`` per base, one
    ``InputConfig`` per configuration and one ``FoldResult`` per distinct
    (fold index, fold field); all are frozen and equal by value, and each
    distinct value passes its constructor's checks once. Small folds repeat
    their scores often: perfbench's wide-resume store holds 501 distinct
    folds in 2,600. None of the objects holds a reference cycle, so
    automatic cyclic garbage collection is paused meanwhile, as in
    ``data_model.parse_catalog``.
    """
    store_dir = Path(store_dir)
    specs_path = store_dir / SPECS_FILE
    if not specs_path.exists():
        raise StoreError(f"missing enumeration index {specs_path}")
    heads = _read_lines(specs_path)[0][1:]
    results_path = store_dir / RESULTS_FILE
    rows, _ = _read_log(results_path, heads)
    behaviors = {behavior.value: behavior for behavior in Behavior}
    bases: dict[tuple[str, str], ModelBase] = {}
    configs: dict[tuple[str, str], InputConfig] = {}
    fold_results: dict[tuple[int, str], FoldResult] = {}
    records: list[ScoreRecord] = []
    failures: list[dict] = []
    for line_no, row in enumerate(rows, start=2):
        (_, model, base_kind, base_id, config_kind, pi, behavior, category, k,
         seed, status, _, mean_precision, mean_recall, mean_f1, fold_blobs) = row
        if status != "ok":
            failures.append(dict(zip(_RESULT_COLUMNS, row)))
            continue
        try:
            base = bases.get((base_kind, base_id))
            if base is None:
                base = bases[base_kind, base_id] = ModelBase(BaseKind(base_kind), base_id)
            config = configs.get((config_kind, pi))
            if config is None:
                config = configs[config_kind, pi] = InputConfig(InputKind(config_kind),
                                                                pi == "1")
            folds = []
            for index, blob in enumerate(fold_blobs.split("|")):
                fold = fold_results.get((index, blob))
                if fold is None:
                    tp, fp, tn, fn, precision, recall, f1 = blob.split(":")
                    fold = fold_results[index, blob] = FoldResult(
                        index, Confusion(int(tp), int(fp), int(tn), int(fn)),
                        float(precision), float(recall), float(f1))
                folds.append(fold)
            spec = ExperimentSpec(model, base, config, behaviors[behavior],
                                  int(category), int(k))
            cv = CvResult(tuple(folds), float(mean_precision), float(mean_recall),
                          float(mean_f1))
            records.append(ScoreRecord(spec, cv, int(seed)))
        except (KeyError, ValueError) as exc:
            raise StoreError(f"{results_path}:{line_no}: fields do not parse "
                             f"({type(exc).__name__}: {exc})") from None
    return records, failures
