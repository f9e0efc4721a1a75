"""The benchmark's own ops, run in process: each workload's setup calls and first ops exit 0,
and the benchmark's output checks (``bench/check.py``) accept what they wrote, the bundled
tables against their pinned digests.  No file under ``bench/`` is written."""

import importlib
import pathlib

import pytest

from nonrecip import cli, tuner

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
# the ops checked: each workload's first, and sweep-io's second (the bundled diramp table)
CHECKED_OPS = {"sweep-io": (0, 1), "phase-map": (0,), "tune-loop": (0,)}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return tuple(importlib.import_module(m) for m in ("gen", "client", "check"))


@pytest.mark.parametrize("name", sorted(CHECKED_OPS))
def test_setup_and_first_ops_pass_the_benchmark_checks(name, bench, tmp_path):
    gen, client, check = bench
    w = gen.build(name, 1, str(tmp_path / name))
    _, results, err = client.run_op(w.setup_spec["calls"], cli, tuner)
    assert [r["rc"] for r in results] == [0] * len(results), err
    digests = check.load_digests()
    for k in CHECKED_OPS[name]:
        calls = w.op(k)
        _, results, err = client.run_op(calls, cli, tuner)
        reply = {"results": results, "stderr": err}
        assert check.check_op(w, k, calls, reply, digests) is None, k
