import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adpredict import runner
from adpredict.cli import main
from adpredict.data_model import parse_catalog
from adpredict.features import BaseKind, InputConfig, InputKind, ModelBase
from adpredict.targets import Behavior
from test_runner import SCORE_FIELD_DEFECTS, break_score_fields

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "adpredict.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


GEN_CONFIG = {
    "n_users": 12,
    "n_products": 4,
    "n_advert_matched": 3,
    "seed": 5,
    "broadcasts_per_day": 3,
}

MATRIX = {
    "models": ["logreg"],
    "categories": [1, 4],
    "k": 3,
}


@pytest.fixture(scope="module")
def panel_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("panel")
    config_path = tmp / "gen.json"
    config_path.write_text(json.dumps(GEN_CONFIG))
    data_dir = tmp / "data"
    result = run_cli("synth", "--config", str(config_path),
                     "--out-dir", str(data_dir))
    assert result.returncode == 0, result.stderr
    return data_dir


def test_synth_writes_five_files_and_is_deterministic(panel_dir, tmp_path):
    names = sorted(p.name for p in panel_dir.iterdir())
    assert names == ["broadcasts.tsv", "products.tsv", "survey.tsv",
                     "users.tsv", "viewing.tsv"]
    config_path = tmp_path / "gen.json"
    config_path.write_text(json.dumps(GEN_CONFIG))
    again = tmp_path / "again"
    result = run_cli("synth", "--config", str(config_path), "--out-dir", str(again))
    assert result.returncode == 0
    for name in names:
        assert (again / name).read_bytes() == (panel_dir / name).read_bytes()


def test_synth_infeasible_config_exits_validation(tmp_path):
    bad = dict(GEN_CONFIG, wave_persistence=0.99)
    config_path = tmp_path / "gen.json"
    config_path.write_text(json.dumps(bad))
    result = run_cli("synth", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out"))
    assert result.returncode == 3
    assert "infeasible" in result.stderr


def test_synth_unreadable_config_exits_parse(tmp_path):
    config_path = tmp_path / "gen.json"
    config_path.write_text("{not json")
    result = run_cli("synth", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out"))
    assert result.returncode == 2


def test_ingest_reports_counts_and_fingerprint(panel_dir):
    result = run_cli("ingest", "--data-dir", str(panel_dir))
    assert result.returncode == 0
    assert "users: 12" in result.stdout
    assert "advert-matched products: 3" in result.stdout
    assert "fingerprint: " in result.stdout


def test_ingest_bad_file_is_positional(panel_dir, tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    for path in panel_dir.iterdir():
        (broken / path.name).write_bytes(path.read_bytes())
    survey = broken / "survey.tsv"
    lines = survey.read_text().splitlines()
    lines[2] = lines[2].replace("yes", "maybe").replace("no", "maybe", 1)
    survey.write_text("\n".join(lines) + "\n")
    result = run_cli("ingest", "--data-dir", str(broken))
    assert result.returncode == 2
    assert ":3:" in result.stderr


def test_dry_run_reference_scale_counts(tmp_path):
    config = {
        "assume_product_bases": 36,
        "assume_user_bases": 3000,
        "matrix": {"accounting": "expanded"},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    result = run_cli("run", "--config", str(config_path), "--dry-run")
    assert result.returncode == 0, result.stderr
    assert "inputs: 30360" in result.stdout
    assert "experiments per model: 364320" in result.stdout
    assert "total experiments: 1092960" in result.stdout


def test_run_report_roundtrip(panel_dir, tmp_path):
    store = tmp_path / "store"
    run_config = {
        "data_dir": str(panel_dir),
        "out_dir": str(store),
        "global_seed": 3,
        "workers": 1,
        "matrix": MATRIX,
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))

    result = run_cli("run", "--config", str(config_path))
    assert result.returncode == 0, result.stderr
    assert "canonical specs:" in result.stdout
    assert (store / "results.tsv").exists()

    reports = tmp_path / "reports"
    result = run_cli("report", "--store", str(store), "--out-dir", str(reports))
    assert result.returncode == 0, result.stderr
    assert (reports / "averages_logreg_product.tsv").exists()
    assert (reports / "averages_logreg_user.tsv").exists()
    assert (reports / "report.json").exists()
    pvalue_files = list(reports.glob("pvalues_*.tsv"))
    assert len(pvalue_files) == 6  # 3 hypotheses x 2 behaviors

    # Regenerating the report must be byte-identical.
    reports2 = tmp_path / "reports2"
    run_cli("report", "--store", str(store), "--out-dir", str(reports2))
    for path in sorted(reports.iterdir()):
        assert (reports2 / path.name).read_bytes() == path.read_bytes(), path.name


def test_report_gap_exit_code(panel_dir, tmp_path):
    store = tmp_path / "store"
    run_config = {
        "data_dir": str(panel_dir),
        "out_dir": str(store),
        "global_seed": 3,
        "matrix": dict(MATRIX, configs=["view_weekday"]),
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))
    assert run_cli("run", "--config", str(config_path)).returncode == 0
    reports = tmp_path / "reports"
    result = run_cli("report", "--store", str(store), "--out-dir", str(reports))
    assert result.returncode == 5
    assert (reports / "report_gaps.txt").exists()


@pytest.mark.parametrize("defect", SCORE_FIELD_DEFECTS)
def test_report_refuses_unparsable_score_fields(panel_dir, tmp_path, defect):
    store = tmp_path / "store"
    runner.run_matrix(parse_catalog(panel_dir), runner.MatrixConfig.from_dict(MATRIX),
                      store, global_seed=3, limit=5)
    break_score_fields(store / runner.RESULTS_FILE, 4, defect)
    result = run_cli("report", "--store", str(store), "--out-dir", str(tmp_path / "r"))
    assert result.returncode == 2
    assert f"{runner.RESULTS_FILE}:4: " in result.stderr
    assert "Traceback" not in result.stderr


def test_run_flag_conflict_warns_and_config_wins(panel_dir, tmp_path):
    store = tmp_path / "store"
    run_config = {
        "data_dir": str(panel_dir),
        "out_dir": str(store),
        "global_seed": 3,
        "matrix": dict(MATRIX, categories=[1]),
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))
    result = run_cli("run", "--config", str(config_path), "--global-seed", "99",
                     "--limit", "2")
    assert result.returncode == 0
    assert "config file wins" in result.stderr
    manifest = json.loads((store / "manifest.json").read_text())
    assert manifest["global_seed"] == 3


def test_run_progress_stream(panel_dir, tmp_path):
    store = tmp_path / "store"
    run_config = {
        "data_dir": str(panel_dir),
        "out_dir": str(store),
        "matrix": dict(MATRIX, categories=[1]),
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))
    result = run_cli("run", "--config", str(config_path), "--progress",
                     "--limit", "3")
    assert result.returncode == 0
    events = [json.loads(line) for line in result.stdout.splitlines()
              if line.startswith("{")]
    assert [e["done"] for e in events] == [1, 2, 3]
    assert all(e["status"] == "ok" for e in events)


def test_run_resume_flag_completes_interrupted_store(panel_dir, tmp_path):
    full_store = tmp_path / "full"
    part_store = tmp_path / "part"
    base = {"data_dir": str(panel_dir), "global_seed": 8,
            "matrix": dict(MATRIX, categories=[1])}
    full_cfg = tmp_path / "full.json"
    full_cfg.write_text(json.dumps(dict(base, out_dir=str(full_store))))
    part_cfg = tmp_path / "part.json"
    part_cfg.write_text(json.dumps(dict(base, out_dir=str(part_store))))

    assert run_cli("run", "--config", str(full_cfg)).returncode == 0
    assert run_cli("run", "--config", str(part_cfg), "--limit", "5").returncode == 0
    result = run_cli("run", "--config", str(part_cfg), "--resume")
    assert result.returncode == 0, result.stderr
    assert ((full_store / "results.tsv").read_bytes()
            == (part_store / "results.tsv").read_bytes())


def test_run_store_io_failure_exits_execution(panel_dir, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "data_dir": str(panel_dir),
        "out_dir": str(blocker / "store"),
        "matrix": dict(MATRIX, categories=[1]),
    }))
    result = run_cli("run", "--config", str(config_path))
    assert result.returncode == 4
    assert "result store failure" in result.stderr


DOOMED_SPEC = runner.ExperimentSpec(
    "logreg", ModelBase(BaseKind.USER_BASED, "u0002"),
    InputConfig(InputKind.VIEW_WEEKDAY_SLOT), Behavior.ACTUAL_PURCHASE, 1, 3).spec_id
_execute_spec = runner._execute_spec


def _die_on_doomed_spec(spec):
    """Worker body that ends its process abruptly, as the OOM killer would."""
    if spec.spec_id == DOOMED_SPEC:
        os._exit(1)
    return _execute_spec(spec)


def test_run_dead_worker_exits_execution_then_resumes(panel_dir, tmp_path,
                                                      monkeypatch, capsys):
    base = {"data_dir": str(panel_dir), "global_seed": 8, "workers": 2,
            "matrix": dict(MATRIX, categories=[1])}
    stores = {}
    for name in ("full", "part"):
        stores[name] = tmp_path / name
        (tmp_path / f"{name}.json").write_text(
            json.dumps(dict(base, out_dir=str(stores[name]))))
    assert main(["run", "--config", str(tmp_path / "full.json")]) == 0

    # run_matrix ships the patched function to the pool by name; forked
    # workers already hold this test module.
    monkeypatch.setattr(runner, "_execute_spec", _die_on_doomed_spec)
    assert main(["run", "--config", str(tmp_path / "part.json")]) == 4
    assert "--resume" in capsys.readouterr().err
    monkeypatch.undo()

    assert main(["run", "--config", str(tmp_path / "part.json"), "--resume"]) == 0
    for name in ("results.tsv", "specs.tsv"):
        assert (stores["part"] / name).read_bytes() == (stores["full"] / name).read_bytes()


def test_run_requires_exactly_one_source(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"matrix": MATRIX, "out_dir": "x"}))
    result = run_cli("run", "--config", str(config_path))
    assert result.returncode == 3
    assert "exactly one data source" in result.stderr


def test_run_with_inline_synth_source(tmp_path):
    store = tmp_path / "store"
    run_config = {
        "synth": GEN_CONFIG,
        "out_dir": str(store),
        "matrix": dict(MATRIX, categories=[4]),
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))
    result = run_cli("run", "--config", str(config_path))
    assert result.returncode == 0, result.stderr
    assert (store / "results.tsv").exists()


def test_ttest_command(tmp_path):
    table = tmp_path / "scores.tsv"
    table.write_text("a\tb\n1.0\t2.0\n2.0\t3.0\n3.0\t4.0\n4.0\t5.0\n")
    result = run_cli("ttest", "--file", str(table),
                     "--column-a", "a", "--column-b", "b")
    assert result.returncode == 0
    out = dict(line.split(": ") for line in result.stdout.splitlines())
    assert out["n_a"] == "4"
    assert float(out["t"]) == pytest.approx(-1.0954451150103321)
    # Paired variant: constant differences are an undefined-variance case.
    result = run_cli("ttest", "--file", str(table), "--column-a", "a",
                     "--column-b", "b", "--paired")
    assert "p: nan" in result.stdout


def test_ttest_missing_column(tmp_path):
    table = tmp_path / "scores.csv"
    table.write_text("a,b\n1,2\n")
    result = run_cli("ttest", "--file", str(table),
                     "--column-a", "a", "--column-b", "zz")
    assert result.returncode == 3
