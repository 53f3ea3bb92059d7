import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_next_record_is_one_past_the_highest(tmp_path):
    assert bench_record.next_record(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "BENCH_2.txt"):
        (tmp_path / name).write_text("{}")
    assert bench_record.next_record(tmp_path).name == "BENCH_4.json"


def test_summary_takes_medians_and_pools_counts():
    def result(wall, correct=True, failed=0):
        return {"correct": correct, "attempted": 10, "failed": failed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    out = bench_record.summarize([result(3.0), result(1.0, failed=1), result(2.0)])
    assert out["metrics"]["wall_s"] == {"median": 2.0, "unit": "s", "values": [3.0, 1.0, 2.0]}
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 30, 1)
    assert not bench_record.summarize([result(1.0), result(1.0, correct=False)])["correct"]


def test_rejects_empty_runs():
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--runs", "0"])


def test_run_length_and_seeds_are_fixed():
    assert bench_record.run_seconds(bench_record.ROOT) == 30.0
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--seconds", "5"])
    with pytest.raises(SystemExit):
        bench_record.parse_args(["--seed", "7"])
