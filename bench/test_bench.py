"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import subprocess
import sys

import pytest

import checks
import inputs
import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    return run.setup("decide", 0, str(tmp_path_factory.mktemp("setup")), 1)[0]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_writes_identical_files(cli, tmp_path, workload):
    a = inputs.build(workload, 7, str(tmp_path / "a"), rounds=2)
    b = inputs.build(workload, 7, str(tmp_path / "b"), rounds=2)
    c = inputs.build(workload, 8, str(tmp_path / "c"), rounds=2)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [[q.digest for q in rnd] for rnd in a] == [[q.digest for q in rnd] for rnd in b]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, 11])
def test_tiny_run_has_no_failures(cli, tmp_path, workload, seed):
    pool = inputs.build(workload, seed, str(tmp_path), rounds=1)
    results = []
    run.run_queries(cli, pool[0], results)
    assert results
    assert run.count_failures(results, run.load_reference(workload)) == 0


def test_reference_covers_default_seed(cli, tmp_path):
    for workload in inputs.WORKLOADS:
        ref = run.load_reference(workload)
        pool = inputs.build(workload, inputs.DEFAULT_SEED, str(tmp_path / workload))
        assert {q.digest for rnd in pool for q in rnd} <= set(ref)


def test_checks_catch_wrong_answers(cli, tmp_path):
    pool = inputs.build("decide", 3, str(tmp_path), rounds=1)
    results = []
    run.run_queries(cli, pool[0], results)
    conv = next(r for r in results if r[0].kind == "check-order" and r[0].expect)
    q, code, out, _ = conv
    doc = json.loads(out)
    doc["witness"]["columns"][0] = doc["witness"]["columns"][1][::-1]
    assert checks.check(q, 0, json.dumps(doc), {}) is not None
    assert checks.check(q, 3, out, {}) == "exit 3"
    refused = dict(doc, convertible=False, certificate={"farkas": ["1"], "verified": False})
    assert checks.check(q, 0, json.dumps(refused), {}) is not None


@pytest.mark.parametrize("trace", [0, 1])
def test_output_names_every_metric_with_its_unit(trace):
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "modules",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in wanted:
        assert f"{m['name']} " in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bench"
    bare.mkdir()
    for name in ("run.py", "inputs.py", "checks.py", "spans.py"):
        with open(os.path.join(run.HERE, name), "rb") as src:
            (bare / name).write_bytes(src.read())
    proc = subprocess.run([sys.executable, str(bare / "run.py"), "--workload", "decide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
