"""Tests of the benchmark itself, on a tiny fixture database.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import streams
import workloads
from oracle import Oracle
from tracer import LAYER_METRICS
from verity.fixtures import generate_fixture

HERE = os.path.dirname(os.path.abspath(__file__))
TINY = {"region": 5, "nation": 25, "customer": 30, "supplier": 6, "part": 20,
        "partsupp": 40, "orders": 60, "lineitem": 240}


@pytest.fixture(scope="module")
def shape(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("fixture"))
    generate_fixture(d, counts=TINY, seed=42)
    oracle = Oracle(d)
    try:
        return oracle.shape()
    finally:
        oracle.close()


def sqls(stmts):
    return [s.sql for s in stmts]


def test_same_seed_same_stream_and_other_seed_another(shape):
    assert sqls(streams.read_cycle(shape, 3)) == sqls(streams.read_cycle(shape, 3))
    assert sqls(streams.read_cycle(shape, 3)) != sqls(streams.read_cycle(shape, 4))
    assert sqls(streams.write_cycle(shape, 3, 5)) == sqls(streams.write_cycle(shape, 3, 5))
    assert sqls(streams.write_cycle(shape, 3, 5)) != sqls(streams.write_cycle(shape, 4, 5))


def test_seeds_keep_the_statement_mix(shape):
    def mix(stmts):
        return sorted((s.kind, s.tables) for s in stmts)

    assert mix(streams.read_cycle(shape, 1)) == mix(streams.read_cycle(shape, 2))
    assert mix(streams.write_cycle(shape, 1, 0)) == mix(streams.write_cycle(shape, 2, 7))


def test_write_cycle_deletes_only_rows_it_inserted_earlier(shape):
    stmts = streams.write_cycle(shape, 9, 2)
    inserted = set()
    for s in stmts:
        if s.kind == "insert":
            inserted.update(int(v.split(",")[0]) for v in s.sql.split("values (")[1].split("), ("))
        if s.kind == "delete":
            lo, hi = (int(w) for w in s.sql.split() if w.isdigit())
            assert set(range(lo, hi + 1)) <= inserted


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 53)]
    assert workloads.tail(samples) == (42.0, 80, 10)
    assert workloads.tail(samples[:11]) == (6.0, 50, 5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_errors(workload, tmp_path):
    r = workloads.run_workload(workload, 1, 0, False, str(tmp_path), counts=TINY)
    assert r.attempted > 0
    assert r.failed == 0, r.notes
    assert [n for n, _, _ in r.metrics] == [n for n, _ in workloads.END_TO_END]
    assert all(v > 0 for _, v, _ in r.metrics)


@pytest.mark.parametrize("workload", ["read", "write"])
def test_traced_counts_repeat_exactly(workload, tmp_path):
    runs = []
    for i in range(2):
        d = tmp_path / str(i)
        d.mkdir()
        runs.append(workloads.run_workload(workload, 7, 0, True, str(d), counts=TINY))
    for r in runs:
        assert r.failed == 0, r.notes
        assert [n for n, _, _ in r.metrics] == [n for n, _ in LAYER_METRICS]
    first, second = runs
    for name in ("verifier.tuples_checked", "verifier.tuples_seen", "storage.wide_rows",
                 "fingerprint.calls", "ledger.sign_calls_per_tx",
                 "ledger.verify_calls_per_tx", "ledger.append_bytes"):
        assert first.per_layer[name] == second.per_layer[name], name
    assert first.end_to_end["ledger_bytes_per_tx"] == second.end_to_end["ledger_bytes_per_tx"]
    if workload == "write":
        assert first.per_layer["ledger.sign_calls_per_tx"] == 6    # 5 peers + submitter
        assert first.per_layer["ledger.verify_calls_per_tx"] == 5
    else:
        assert first.per_layer["ledger.submit_ms"] == 0


def test_benchmark_json_names_what_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == LAYER_METRICS


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
