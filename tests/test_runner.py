import contextlib
import fcntl
import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from adpredict import runner
from adpredict.evaluation import Confusion, CvResult, FoldResult
from adpredict.features import BaseKind, InputConfig, InputKind, ModelBase
from adpredict.runner import (MANIFEST_FILE, MatrixConfig, RESULTS_FILE, RunnerError,
                              SPECS_FILE, ExperimentSpec, ScoreRecord, StoreError,
                              enumerate_experiments, load_score_records, matrix_counts,
                              run_matrix, spec_seed)
from adpredict.learners import LearnerParams
from adpredict.synthgen import GenConfig, generate_panel
from adpredict.targets import Behavior


@pytest.fixture(scope="module")
def small_catalog():
    return generate_panel(GenConfig(n_users=12, n_products=3, n_advert_matched=2,
                                    seed=5, broadcasts_per_day=3))


SMALL_MATRIX = MatrixConfig(
    models=("logreg",),
    configs=(InputKind.VIEW_WEEKDAY, InputKind.DEMOGRAPHICS),
    categories=(1, 4),
    k=3,
)


def brute_force_enumeration_count(n_bases, matrix) -> int:
    count = 0
    for _ in range(n_bases):
        for _model in matrix.models:
            for behavior in matrix.behaviors:
                for _category in matrix.categories:
                    for kind in matrix.configs:
                        states = 1
                        if (matrix.pi_feature_states == "both"
                                and kind.has_demographics
                                and behavior is Behavior.ACTUAL_PURCHASE):
                            states = 2
                        count += states
    return count


def test_expanded_counts_reproduce_reference_totals():
    counts = matrix_counts(MatrixConfig(accounting="expanded"),
                           n_product_bases=36, n_user_bases=3000)
    assert counts["expanded_inputs"] == 30360
    assert counts["expanded_per_model"] == 364320
    assert counts["expanded_total"] == 1092960


def test_canonical_count_formula_two_by_two():
    # 2 users + 2 advert-matched products, every selection: per base and
    # model the actual-purchase target admits 8 configurations (5 plus 3
    # intent-feature variants) and purchase intention admits 5, for
    # (8 + 5) * 6 = 78 combinations; 4 bases x 78 x 3 models = 936.
    matrix = MatrixConfig()
    counts = matrix_counts(matrix, n_product_bases=2, n_user_bases=2)
    assert counts["canonical_specs"] == 936
    assert counts["canonical_specs"] == brute_force_enumeration_count(4, matrix)


def test_enumeration_is_deterministic_and_duplicate_free(small_catalog):
    specs_a = enumerate_experiments(small_catalog, SMALL_MATRIX)
    specs_b = enumerate_experiments(small_catalog, SMALL_MATRIX)
    assert specs_a == specs_b
    ids = [s.spec_id for s in specs_a]
    assert len(set(ids)) == len(ids)
    counts = matrix_counts(SMALL_MATRIX, n_product_bases=2, n_user_bases=12)
    assert len(specs_a) == counts["canonical_specs"]


def test_enumeration_matches_catalog_bases(small_catalog):
    specs = enumerate_experiments(small_catalog, SMALL_MATRIX)
    product_ids = {s.base.base_id for s in specs if s.base.kind.value == "product"}
    assert product_ids == set(small_catalog.advert_matched_products)


def test_pi_states_respect_constraints(small_catalog):
    matrix = MatrixConfig(models=("logreg",),
                          configs=(InputKind.DEMOGRAPHICS, InputKind.VIEW_WEEKDAY))
    specs = enumerate_experiments(small_catalog, matrix)
    for spec in specs:
        if spec.config.include_pi_feature:
            assert spec.behavior is Behavior.ACTUAL_PURCHASE
            assert spec.config.kind.has_demographics


def test_spec_seed_is_stable():
    assert spec_seed(1, "a|b") == spec_seed(1, "a|b")
    assert spec_seed(1, "a|b") != spec_seed(2, "a|b")
    assert spec_seed(1, "a|b") != spec_seed(1, "a|c")


def test_unknown_selection_rejected(small_catalog):
    with pytest.raises(RunnerError):
        enumerate_experiments(small_catalog,
                              MatrixConfig(products=("p999",)))


def test_matrix_config_round_trips_via_dict():
    matrix = MatrixConfig(models=("svm",), categories=(0, 4),
                          users=("u0001",), accounting="expanded",
                          learner_params=LearnerParams(svm_max_epochs=10))
    clone = MatrixConfig.from_dict(matrix.to_dict())
    assert clone == matrix


def test_run_store_bytes_independent_of_workers(small_catalog, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_matrix(small_catalog, SMALL_MATRIX, a_dir, global_seed=9, workers=1)
    run_matrix(small_catalog, SMALL_MATRIX, b_dir, global_seed=9, workers=2)
    assert (a_dir / RESULTS_FILE).read_bytes() == (b_dir / RESULTS_FILE).read_bytes()
    assert (a_dir / SPECS_FILE).read_bytes() == (b_dir / SPECS_FILE).read_bytes()


def test_rerun_identical_and_seed_sensitive(small_catalog, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    c_dir = tmp_path / "c"
    run_matrix(small_catalog, SMALL_MATRIX, a_dir, global_seed=9)
    run_matrix(small_catalog, SMALL_MATRIX, b_dir, global_seed=9)
    run_matrix(small_catalog, SMALL_MATRIX, c_dir, global_seed=10)
    assert (a_dir / RESULTS_FILE).read_bytes() == (b_dir / RESULTS_FILE).read_bytes()
    assert (a_dir / RESULTS_FILE).read_bytes() != (c_dir / RESULTS_FILE).read_bytes()


def test_store_row_count_equals_spec_count(small_catalog, tmp_path):
    manifest = run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=1)
    records, failures = load_score_records(tmp_path / "s")
    assert manifest["spec_count"] == len(records) + len(failures)
    assert manifest["executed"] == manifest["spec_count"]
    assert sum(manifest["counts_by_model"].values()) == manifest["spec_count"]
    assert sum(manifest["counts_by_base_kind"].values()) == manifest["spec_count"]
    assert manifest["counts_by_base_kind"]["product"] > 0
    assert manifest["counts_by_base_kind"]["user"] > 0


def _resume(catalog, store, global_seed) -> list[str]:
    """Resume ``store``; returns the spec ids the resumed run executed."""
    executed = []
    run_matrix(catalog, SMALL_MATRIX, store, global_seed=global_seed, resume=True,
               progress=lambda done, total, spec_id, status: executed.append(spec_id))
    return executed


def test_resume_on_complete_store_is_empty(small_catalog, tmp_path):
    run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=1)
    before = (tmp_path / "s" / RESULTS_FILE).read_bytes()
    assert _resume(small_catalog, tmp_path / "s", global_seed=1) == []
    assert (tmp_path / "s" / RESULTS_FILE).read_bytes() == before


def test_limit_then_resume_matches_uninterrupted(small_catalog, tmp_path):
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    run_matrix(small_catalog, SMALL_MATRIX, full_dir, global_seed=4)
    run_matrix(small_catalog, SMALL_MATRIX, part_dir, global_seed=4, limit=7)
    specs = enumerate_experiments(small_catalog, SMALL_MATRIX)
    executed = _resume(small_catalog, part_dir, global_seed=4)
    assert executed == [spec.spec_id for spec in specs[7:]]
    assert ((full_dir / RESULTS_FILE).read_bytes()
            == (part_dir / RESULTS_FILE).read_bytes())


def test_resume_after_torn_row_matches_uninterrupted(small_catalog, tmp_path):
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    run_matrix(small_catalog, SMALL_MATRIX, full_dir, global_seed=4)
    run_matrix(small_catalog, SMALL_MATRIX, part_dir, global_seed=4, limit=7)
    # A run killed mid-append leaves half of the eighth row behind.
    eighth_row = (full_dir / RESULTS_FILE).read_text().splitlines()[8]
    with (part_dir / RESULTS_FILE).open("a") as fh:
        fh.write(eighth_row[:len(eighth_row) // 2])
    _resume(small_catalog, part_dir, global_seed=4)
    assert ((full_dir / RESULTS_FILE).read_bytes()
            == (part_dir / RESULTS_FILE).read_bytes())
    records, failures = load_score_records(part_dir)
    assert len(records) + len(failures) == len(
        enumerate_experiments(small_catalog, SMALL_MATRIX))


@pytest.mark.parametrize("tail", ["NUL garbage line", "zeroed block then rows"])
def test_resume_cuts_the_log_at_its_first_nul(small_catalog, tmp_path, tail):
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    run_matrix(small_catalog, SMALL_MATRIX, full_dir, global_seed=4)
    run_matrix(small_catalog, SMALL_MATRIX, part_dir, global_seed=4, limit=7)
    full_lines = (full_dir / RESULTS_FILE).read_bytes().splitlines(keepends=True)
    if tail == "NUL garbage line":
        junk = b"\0\0garbage\n"
    else:  # after a power loss: half of the eighth row, a block that never
        # reached the disk, then rows from the tenth on that did
        eighth_row = full_lines[8]
        junk = eighth_row[:len(eighth_row) // 2] + b"\0" * 4096 + b"".join(full_lines[10:])
    with (part_dir / RESULTS_FILE).open("ab") as fh:
        fh.write(junk)
    records, failures = load_score_records(part_dir)
    assert len(records) + len(failures) == 7
    specs = enumerate_experiments(small_catalog, SMALL_MATRIX)
    assert _resume(small_catalog, part_dir, global_seed=4) == [
        spec.spec_id for spec in specs[7:]]
    assert ((full_dir / RESULTS_FILE).read_bytes()
            == (part_dir / RESULTS_FILE).read_bytes())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("state", ["specs.tsv only", "specs.tsv and manifest"])
def test_resume_without_a_log_starts_afresh(small_catalog, tmp_path, state, workers):
    full = tmp_path / "full"
    manifest = run_matrix(small_catalog, SMALL_MATRIX, full, global_seed=4)
    # What a crash before the log's rename leaves: the files renamed into
    # place so far, and the temporary file of the next one.
    store = tmp_path / "crashed"
    store.mkdir()
    (store / SPECS_FILE).write_bytes((full / SPECS_FILE).read_bytes())
    if state == "specs.tsv only":
        (store / (MANIFEST_FILE + ".tmp")).write_text('{"global_se')
    else:
        identity = {key: manifest[key]
                    for key in ("global_seed", "fingerprint", "matrix", "spec_count",
                                "environment")}
        (store / MANIFEST_FILE).write_text(json.dumps(identity, indent=1) + "\n")
        (store / (RESULTS_FILE + ".tmp")).write_text("spec_id\tmod")
    run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4, workers=workers,
               resume=True)
    for name in (RESULTS_FILE, SPECS_FILE):
        assert (store / name).read_bytes() == (full / name).read_bytes()


def test_store_files_are_fsynced_but_rows_are_not(small_catalog, tmp_path, monkeypatch):
    synced = []
    fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    store = tmp_path / "s"
    run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4, limit=5)
    inode = {name: (store / name).stat().st_ino
             for name in (SPECS_FILE, MANIFEST_FILE, RESULTS_FILE)}
    # specs.tsv, the final manifest and the log header once each, none for
    # the five rows; the directory after each of the four renames; and the
    # identity manifest that the final one replaced.
    assert [synced.count(inode[name]) for name in inode] == [1, 1, 1]
    assert synced.count(store.stat().st_ino) == 4
    assert len(synced) == 8


def test_resume_rejects_edited_specs_index(small_catalog, tmp_path):
    run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=4, limit=3)
    specs_path = tmp_path / "s" / SPECS_FILE
    lines = specs_path.read_text().splitlines(keepends=True)
    lines[5] = lines[5].replace("\t3\t", "\t5\t", 1)  # k of one row
    specs_path.write_text("".join(lines))
    with pytest.raises(StoreError, match="enumeration"):
        run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=4,
                   resume=True)


@pytest.mark.parametrize("case", ["duplicated row", "swapped rows", "foreign seed",
                                  "extra row", "not UTF-8"])
def test_log_must_be_a_prefix_of_the_enumeration(small_catalog, tmp_path, case):
    store = tmp_path / "s"
    run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4,
               limit=None if case == "extra row" else 5)
    log = store / RESULTS_FILE
    lines = log.read_bytes().splitlines(keepends=True)  # lines[i] is line i + 1
    if case == "duplicated row":  # the fourth and fifth rows, appended again
        lines += lines[4:6]
        bad_line = 7
    elif case == "swapped rows":
        lines[2], lines[3] = lines[3], lines[2]
        bad_line = 3
    elif case == "foreign seed":  # the sixth row, as global seed 5 writes it
        run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "other", global_seed=5, limit=6)
        lines.append((tmp_path / "other" / RESULTS_FILE).read_bytes().splitlines(
            keepends=True)[6])
        bad_line = 7
    elif case == "extra row":  # a complete log plus one more row
        lines.append(lines[-1])
        bad_line = len(lines)
    else:  # 0xff never occurs in UTF-8
        lines[4] = b"\xff" + lines[4]
        bad_line = 5
    log.write_bytes(b"".join(lines))
    with pytest.raises(StoreError, match=f"{RESULTS_FILE}:{bad_line}:"):
        load_score_records(store)
    with pytest.raises(StoreError, match=f"{RESULTS_FILE}:{bad_line}:"):
        run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4, resume=True)


SCORE_FIELD_DEFECTS = ("mean_f1 not a number", "fold of 6 parts", "negative count",
                       "empty folds")


def break_score_fields(log: Path, line_no: int, defect: str) -> None:
    """Rewrite the score fields of the ``ok`` row on line ``line_no`` of a
    results log so that they no longer parse."""
    lines = log.read_text(encoding="utf-8").split("\n")
    fields = lines[line_no - 1].split("\t")
    assert fields[10] == "ok"
    folds = fields[15].split("|")
    if defect == "mean_f1 not a number":
        fields[14] = "x"
    elif defect == "fold of 6 parts":
        folds[1] = folds[1].rsplit(":", 1)[0]
    elif defect == "negative count":
        folds[0] = "-1" + folds[0][folds[0].index(":"):]
    else:
        folds = [""]
    fields[15] = "|".join(folds)
    lines[line_no - 1] = "\t".join(fields)
    log.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("defect", SCORE_FIELD_DEFECTS)
def test_unparsable_score_fields_refuse_the_store(small_catalog, tmp_path, defect):
    store = tmp_path / "s"
    run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4, limit=5)
    break_score_fields(store / RESULTS_FILE, 4, defect)
    with pytest.raises(StoreError, match=f"{RESULTS_FILE}:4: "):
        load_score_records(store)


def _reference_spec_from_row(row: dict) -> ExperimentSpec:
    return ExperimentSpec(
        model_kind=row["model"],
        base=ModelBase(BaseKind(row["base_kind"]), row["base_id"]),
        config=InputConfig(InputKind(row["config_kind"]),
                           include_pi_feature=row["pi_feature"] == "1"),
        behavior=Behavior(row["behavior"]),
        category=int(row["category"]),
        k=int(row["k"]),
    )


def reference_load_score_records(store_dir: Path) -> tuple[list[ScoreRecord], list[dict]]:
    """The dict-per-row loader that ``load_score_records`` replaced, kept as
    its oracle; it reads well-formed stores only."""
    header, *lines = (store_dir / RESULTS_FILE).read_text(encoding="utf-8").split("\n")[:-1]
    rows = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]
    records: list[ScoreRecord] = []
    failures: list[dict] = []
    for row in rows:
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
        records.append(ScoreRecord(spec=_reference_spec_from_row(row), cv=cv,
                                   seed=int(row["seed"])))
    return records, failures


def test_load_matches_reference_loader(oracle_store):
    records, failures = load_score_records(oracle_store)
    expected_records, expected_failures = reference_load_score_records(oracle_store)
    assert records == expected_records
    assert failures == expected_failures
    assert repr(records) == repr(expected_records)  # also tells -0.0 from 0.0
    # The store covers what the loader distinguishes.
    assert {r.spec.model_kind for r in records} == {"svm", "gbrt", "logreg"}
    assert {r.spec.base.kind for r in records} == set(BaseKind)
    assert {r.spec.config.include_pi_feature for r in records} == {False, True}
    assert [f["status"] for f in failures] == ["error"]


def test_load_starts_no_collection(oracle_store, collections):
    body = getattr(load_score_records, "__wrapped__", load_score_records).__code__
    gc.collect()
    records, _ = load_score_records(oracle_store)
    assert not [stack for stack in collections if body in stack]
    assert len(records) * 10 > 700  # more new objects than the youngest threshold
    assert gc.isenabled()
    with pytest.raises(StoreError):
        load_score_records(oracle_store / "missing")
    assert gc.isenabled()


def test_load_requires_the_specs_index(small_catalog, tmp_path):
    run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=4, limit=3)
    (tmp_path / "s" / SPECS_FILE).unlink()
    with pytest.raises(StoreError, match=SPECS_FILE):
        load_score_records(tmp_path / "s")


def test_load_refuses_specs_index_that_is_not_utf8(small_catalog, tmp_path):
    store = tmp_path / "s"
    run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4, limit=5)
    specs = store / SPECS_FILE
    lines = specs.read_bytes().splitlines(keepends=True)  # lines[i] is line i + 1
    lines[3] = b"\xff" + lines[3]
    specs.write_bytes(b"".join(lines))
    with pytest.raises(StoreError, match=f"{SPECS_FILE}:4: not UTF-8"):
        load_score_records(store)


def test_negative_limit_is_refused(small_catalog, tmp_path):
    store = tmp_path / "s"
    with pytest.raises(RunnerError, match="limit"):
        run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4, limit=-1)
    assert not store.exists()
    manifest = run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4, limit=0)
    assert manifest["executed"] == 0
    assert len(load_score_records(store)[0]) == 0


@pytest.mark.parametrize("edit", [
    pytest.param({"blas_kernel": "Haswell"}, id="another kernel"),
    pytest.param({"numpy": "1.26.4"}, id="another numpy"),
    pytest.param(None, id="not recorded"),
])
def test_resume_refuses_another_numeric_environment(small_catalog, tmp_path, edit):
    store = tmp_path / "s"
    manifest = run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4, limit=3)
    assert manifest["environment"] == runner.numeric_environment()
    assert set(manifest["environment"]) == {"python", "numpy", "blas", "blas_kernel"}
    recorded = json.loads((store / MANIFEST_FILE).read_text())
    if edit is None:
        del recorded["environment"]
    else:
        recorded["environment"].update(edit)
    (store / MANIFEST_FILE).write_text(json.dumps(recorded))
    log = (store / RESULTS_FILE).read_bytes()
    with pytest.raises(StoreError, match="numeric environment"):
        run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4, resume=True)
    assert (store / RESULTS_FILE).read_bytes() == log


def test_numeric_environment_without_the_kernel_symbol(monkeypatch):
    runner._openblas_kernel.cache_clear()
    monkeypatch.setattr(runner.ctypes, "CDLL", lambda path: object())
    try:
        assert runner.numeric_environment()["blas_kernel"] is None
    finally:
        runner._openblas_kernel.cache_clear()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_releases_its_panel(small_catalog, tmp_path, workers):
    run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "a", global_seed=4, limit=3,
               workers=workers)
    assert runner._WORKER == {}

    def interrupt(done, total, spec_id, status):
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "b", global_seed=4,
                   workers=workers, progress=interrupt)
    assert runner._WORKER == {}


def test_second_writer_is_refused(small_catalog, tmp_path):
    store = tmp_path / "s"
    store.mkdir()
    holder = os.open(store, os.O_RDONLY)
    try:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(StoreError, match="another run") as refused:
            run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4, limit=3)
        assert str(store) in str(refused.value)
        assert not any(store.iterdir())
    finally:
        os.close(holder)
    assert run_matrix(small_catalog, SMALL_MATRIX, store, global_seed=4,
                      limit=3)["executed"] == 3


KILL_SYNTH = {"n_users": 12, "n_products": 3, "n_advert_matched": 2, "seed": 5,
              "broadcasts_per_day": 3}
KILL_MATRIX = {"models": ["logreg"], "configs": ["view_weekday", "demographics"],
               "categories": [1, 4], "k": 3}


def _run_killed_after(lines: int, store: Path, tmp_path: Path) -> None:
    """Run the CLI on a small logreg matrix and SIGKILL it after ``lines``
    progress lines, wherever it happens to be by then."""
    config = tmp_path / f"run{lines}.json"
    config.write_text(json.dumps({"synth": KILL_SYNTH, "out_dir": str(store),
                                  "global_seed": 4, "matrix": KILL_MATRIX}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "adpredict.cli", "run", "--config", str(config),
         "--progress"],
        stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    seen = 0
    for line in proc.stdout:
        seen += line.startswith("{")
        if seen == lines:
            os.kill(proc.pid, signal.SIGKILL)
            break
    proc.stdout.close()
    assert proc.wait() == -signal.SIGKILL


def test_sigkill_then_resume_matches_uninterrupted(tmp_path):
    catalog = generate_panel(GenConfig(**KILL_SYNTH))
    matrix = MatrixConfig.from_dict(KILL_MATRIX)
    total = len(enumerate_experiments(catalog, matrix))
    run_matrix(catalog, matrix, tmp_path / "full", global_seed=4)
    # Kills land at most halfway, so the run cannot finish before its kill.
    for lines in (1, total // 4, total // 2):
        store = tmp_path / f"killed{lines}"
        _run_killed_after(lines, store, tmp_path)
        manifest = json.loads((store / MANIFEST_FILE).read_text())
        assert manifest["spec_count"] == total and "executed" not in manifest
        run_matrix(catalog, matrix, store, global_seed=4, resume=True)
        for name in (RESULTS_FILE, SPECS_FILE):
            assert (store / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
    # Killed after the manifest was written but before the log was created.
    store = tmp_path / "no_log"
    run_matrix(catalog, matrix, store, global_seed=4, limit=0)
    (store / RESULTS_FILE).unlink()
    run_matrix(catalog, matrix, store, global_seed=4, resume=True)
    assert ((store / RESULTS_FILE).read_bytes()
            == (tmp_path / "full" / RESULTS_FILE).read_bytes())


def test_orphaned_workers_do_not_hold_the_store(tmp_path):
    # SIGKILL reaches only the run's own process; its pool workers outlive it.
    store = tmp_path / "store"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"synth": KILL_SYNTH, "out_dir": str(store),
                                  "global_seed": 4, "workers": 2, "matrix": KILL_MATRIX}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "adpredict.cli", "run", "--config", str(config),
         "--progress"], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), start_new_session=True)
    catalog = generate_panel(GenConfig(**KILL_SYNTH))
    matrix = MatrixConfig.from_dict(KILL_MATRIX)
    try:
        for line in proc.stdout:
            if line.startswith('{"done": 40,'):
                os.kill(proc.pid, signal.SIGKILL)
                break
        proc.stdout.close()
        assert proc.wait() == -signal.SIGKILL
        run_matrix(catalog, matrix, store, global_seed=4, resume=True)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    run_matrix(catalog, matrix, tmp_path / "full", global_seed=4)
    assert (store / RESULTS_FILE).read_bytes() == (tmp_path / "full" / RESULTS_FILE).read_bytes()


def _process_state(pid: int) -> tuple[str, int] | None:
    """(state, parent pid) of a process from /proc, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
    return state, int(ppid)


def _children(pid: int) -> set[int]:
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            info = _process_state(int(entry.name))
            if info is not None and info[1] == pid:
                found.add(int(entry.name))
    return found


def _running(pids: set[int]) -> set[int]:
    """The processes of ``pids`` that exist and are not zombies."""
    return {pid for pid in pids
            if (info := _process_state(pid)) is not None and info[0] not in "ZX"}


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_orphaned_workers_exit_with_their_run(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"synth": KILL_SYNTH, "out_dir": str(tmp_path / "store"),
                                  "global_seed": 4, "workers": 2, "matrix": KILL_MATRIX}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "adpredict.cli", "run", "--config", str(config),
         "--progress"], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), start_new_session=True)
    workers = set()
    try:
        for line in proc.stdout:
            if line.startswith('{"done": 20,'):
                workers = _children(proc.pid)
                os.kill(proc.pid, signal.SIGKILL)
                break
        proc.stdout.close()
        assert proc.wait() == -signal.SIGKILL
        assert len(workers) == 2
        deadline = time.monotonic() + 10.0
        while _running(workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(workers)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_pool_workers_fork_whatever_the_default_start_method(tmp_path, method):
    script = f"""
import multiprocessing, sys
from adpredict.runner import MatrixConfig, run_matrix
from adpredict.synthgen import GenConfig, generate_panel
if __name__ == "__main__":
    multiprocessing.set_start_method({method!r})
    run_matrix(generate_panel(GenConfig(**{KILL_SYNTH!r})),
               MatrixConfig.from_dict({KILL_MATRIX!r}), sys.argv[1], global_seed=4,
               workers=2)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "pool")], check=True,
                   timeout=300, env=dict(os.environ, PYTHONPATH=str(src)))
    run_matrix(generate_panel(GenConfig(**KILL_SYNTH)), MatrixConfig.from_dict(KILL_MATRIX),
               tmp_path / "serial", global_seed=4)
    assert ((tmp_path / "pool" / RESULTS_FILE).read_bytes()
            == (tmp_path / "serial" / RESULTS_FILE).read_bytes())


def test_resume_rejects_changed_catalog(small_catalog, tmp_path):
    run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=4, limit=3)
    other = generate_panel(GenConfig(n_users=12, n_products=3, n_advert_matched=2,
                                     seed=6, broadcasts_per_day=3))
    with pytest.raises(StoreError, match="fingerprint"):
        run_matrix(other, SMALL_MATRIX, tmp_path / "s", global_seed=4, resume=True)


def test_resume_rejects_changed_seed(small_catalog, tmp_path):
    run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=4, limit=3)
    with pytest.raises(StoreError, match="seed"):
        run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=5,
                   resume=True)


def test_fresh_run_refuses_existing_store(small_catalog, tmp_path):
    run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=4, limit=1)
    with pytest.raises(StoreError, match="resume"):
        run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=4)


def test_failures_recorded_not_fatal(tmp_path):
    # One advert-matched product gives user-based rows = 1 < k: every
    # user-based spec fails while product-based specs succeed.
    catalog = generate_panel(GenConfig(n_users=10, n_products=2,
                                       n_advert_matched=1, seed=2,
                                       broadcasts_per_day=3))
    matrix = MatrixConfig(models=("logreg",), configs=(InputKind.VIEW_WEEKDAY,),
                          categories=(1,), k=3)
    manifest = run_matrix(catalog, matrix, tmp_path / "s", global_seed=0)
    records, failures = load_score_records(tmp_path / "s")
    assert failures and records
    assert manifest["spec_count"] == len(records) + len(failures)
    assert all("rows" in f["error"] or "k=" in f["error"] for f in failures)


def test_load_round_trips_fold_details(small_catalog, tmp_path):
    run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=1)
    records, _ = load_score_records(tmp_path / "s")
    record = records[0]
    assert len(record.cv.folds) == SMALL_MATRIX.k
    confusion = record.cv.folds[0].confusion
    assert confusion.tp + confusion.fp + confusion.tn + confusion.fn > 0
    assert record.cv.mean_f1 == pytest.approx(
        sum(f.f1 for f in record.cv.folds) / SMALL_MATRIX.k)


def test_progress_callback_counts(small_catalog, tmp_path):
    seen = []
    run_matrix(small_catalog, SMALL_MATRIX, tmp_path / "s", global_seed=1,
               progress=lambda done, total, spec_id, status: seen.append(done))
    assert seen == list(range(1, len(seen) + 1))
