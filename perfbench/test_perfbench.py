"""Fast checks of the benchmark's own arithmetic on hand-made spans and samples.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
from spans import Span, Tracer, self_times, tail_percentile  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("runner.run_matrix", 0.0, 10.0, None),
        Span("features.build_matrix", 1.0, 2.0, 0),
        Span("evaluation.cross_validate", 3.0, 9.0, 0),
        Span("learners.train_svm", 3.5, 6.0, 2),
        Span("learners.predict", 6.0, 6.5, 2),
    ]
    assert self_times(spans) == [3.0, 1.0, 3.0, 2.5, 0.5]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, None), Span("b", 1.0, 5.0, 0),
             Span("c", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == 1.0


def test_tracer_records_parents():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert tracer.spans[0].start <= tracer.spans[1].start <= tracer.spans[1].end \
        <= tracer.spans[0].end


def test_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 201))  # 200 samples: p90 has 20 beyond it
    assert tail_percentile(samples, 90) == (90, 180)
    assert tail_percentile(samples, 50) == (50, 100)
    # 83 samples: p90 would leave 8 beyond, so p87 (rank 73, 10 beyond).
    assert tail_percentile(list(range(1, 84)), 90) == (87, 73)
    assert tail_percentile(list(range(1, 12)), 50) == (9, 1)
    assert tail_percentile(list(range(10)), 50) is None
    # Order of the input does not matter.
    assert tail_percentile(list(range(200, 0, -1)), 90) == (90, 180)


def test_digest_mismatch_is_rejected(tmp_path):
    (tmp_path / "results.tsv").write_text("spec_id\nx\n")
    (tmp_path / "specs.tsv").write_text("spec_id\nx\n")
    digest = bench.check_digest(tmp_path, None)
    assert bench.check_digest(tmp_path, digest) == digest
    (tmp_path / "results.tsv").write_text("spec_id\ny\n")
    with pytest.raises(bench.GateError):
        bench.check_digest(tmp_path, digest)


def test_metric_tables_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
