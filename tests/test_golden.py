"""Golden-store digests: refactors must leave these bytes unchanged.

One small fixed panel and matrix touch every learner family, both base
kinds, all five input configurations with the purchase-intention toggle in
both states, and both behaviors. The digests were pinned on the
dict-of-tuples implementation that preceded the dense panel; a change that
moves them changes the result contract and must say so in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adpredict.cli import main
from adpredict.data_model import TABLE_FILENAMES, write_catalog
from adpredict.learners import LearnerParams
from adpredict.runner import (RESULTS_FILE, SPECS_FILE, MatrixConfig, numeric_environment,
                              run_matrix)
from adpredict.synthgen import GenConfig, generate_panel

GOLDEN_PANEL = GenConfig(n_users=30, n_products=5, n_advert_matched=4, seed=8,
                         beta_exposure=0.5, broadcasts_per_day=4)

STORE_DIGEST = "811ebe4b7345c7b86a3f41befd4236e90dbf4933a12854b97203c228bc4c4b4d"
EXPOSURE_DIGEST = "9728586f0a1bf4276d1dd41c635ff3f1e193a27bd6bd7be92a223fe8cdc6d178"
# The five table files of GOLDEN_PANEL, in TABLE_FILENAMES order.
PANEL_FILES_DIGEST = "c073d0c9c21f64d7c3440859c2f900157d2605bfcbbc1a31b4032f07e3878d4c"
# The report directory of a 182-spec logreg store, as written by ``report``
# with its defaults and with ``--paired --general-average experiment_means``.
REPORT_DIGEST = "c1f27cb94095cfe2195b7e4d6fd5e11936fd5e098bf64eb162fa1a7bded6be5b"
PAIRED_REPORT_DIGEST = "29094cbd08423ede795670401d18cdc75ea1bd221965fe4d41c6bb8c67911ee0"


def _sha256(*paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _tree_sha256(directory) -> str:
    """sha256 over the sorted file names and bytes of ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_golden_store(tmp_path):
    catalog = generate_panel(GOLDEN_PANEL)
    matrix = MatrixConfig(
        products=catalog.advert_matched_products[:1],
        users=catalog.user_ids[:1],
        categories=(1, 4), k=3,
        learner_params=LearnerParams(svm_max_epochs=5, gbrt_n_estimators=10))
    fresh = tmp_path / "fresh"
    manifest = run_matrix(catalog, matrix, fresh, global_seed=3)
    assert manifest["executed"] == manifest["spec_count"] == 156
    assert _sha256(fresh / RESULTS_FILE, fresh / SPECS_FILE) == STORE_DIGEST

    # Two workers, stopped part-way and resumed: the same bytes.
    resumed = tmp_path / "resumed"
    run_matrix(catalog, matrix, resumed, global_seed=3, workers=2, limit=61)
    run_matrix(catalog, matrix, resumed, global_seed=3, workers=2, resume=True)
    assert _sha256(resumed / RESULTS_FILE, resumed / SPECS_FILE) == STORE_DIGEST


@pytest.mark.parametrize("key, variable, value", [
    ("blas_kernel", "OPENBLAS_CORETYPE", "Prescott"),
    ("blas_threads", "OPENBLAS_NUM_THREADS", "1"),
    ("simd", "NPY_DISABLE_CPU_FEATURES", None),  # every enabled target
], ids=["Prescott kernel", "one BLAS thread", "baseline SIMD"])
def test_golden_store_across_numeric_environments(tmp_path, key, variable, value):
    # Each setting moves some model bits (the BLAS kernel, the BLAS thread
    # count at paper-scale shapes, numpy's exp and log1p), but no prediction
    # flips.
    here = numeric_environment()[key]
    if here in (1, []):  # one CPU, or no SIMD target above numpy's baseline
        pytest.skip(f"{key} is already {here} on this host")
    child = ("import json, sys, pathlib, test_golden\n"
             "test_golden.test_golden_store(pathlib.Path(sys.argv[1]))\n"
             "print(json.dumps(test_golden.numeric_environment()))\n")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    result = subprocess.run([sys.executable, "-c", child, str(tmp_path)],
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path,
                                     **{variable: " ".join(here) if value is None else value}))
    assert result.returncode == 0, result.stderr
    # The child ran under the setting, so its digest held there.
    assert json.loads(result.stdout)[key] != here


def test_golden_exposure_dump(tmp_path):
    write_catalog(generate_panel(GOLDEN_PANEL), tmp_path / "panel")
    dump = tmp_path / "exposure.tsv"
    assert main(["ingest", "--data-dir", str(tmp_path / "panel"),
                 "--dump-exposure", str(dump)]) == 0
    assert _sha256(dump) == EXPOSURE_DIGEST


def test_golden_panel_files(tmp_path):
    write_catalog(generate_panel(GOLDEN_PANEL), tmp_path)
    assert _sha256(*(tmp_path / name for name in TABLE_FILENAMES.values())) \
        == PANEL_FILES_DIGEST


def test_golden_report(tmp_path):
    # Four product bases and three user bases: every p-value table is filled.
    catalog = generate_panel(GOLDEN_PANEL)
    matrix = MatrixConfig(models=("logreg",), users=catalog.user_ids[:3],
                          categories=(1, 4), k=3)
    store = tmp_path / "store"
    assert run_matrix(catalog, matrix, store, global_seed=3)["spec_count"] == 182
    for name, flags, pinned in (
            ("default", [], REPORT_DIGEST),
            ("paired", ["--paired", "--general-average", "experiment_means"],
             PAIRED_REPORT_DIGEST)):
        out = tmp_path / name
        assert main(["report", "--store", str(store), "--out-dir", str(out), *flags]) == 0
        assert _tree_sha256(out) == pinned
