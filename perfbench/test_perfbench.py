"""Self-test of the benchmark harness on one (5,2) instance; runs in seconds.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_the_harness_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}


@pytest.fixture
def small(monkeypatch, tmp_path):
    """A one-instance (5,2) workload per command set, output under tmp_path."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    for name, commands in (("small-verify", ("verify", "flows")),
                           ("small-solve", ("solve",)),
                           ("small-spectral", ("route-one",))):
        monkeypatch.setitem(run.WORKLOADS, name,
                            run.Workload(rungs=((5, 2),), commands=commands, instances=1,
                                         why="self-test"))


def run_lines(capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[0]), lines[1:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["small-verify", "small-solve", "small-spectral"])
def test_every_end_to_end_metric_is_printed_with_its_unit(small, capsys, workload):
    head, _, result = run_lines(capsys, workload, 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == len(run.WORKLOADS[workload].commands)
    for command in run.WORKLOADS[workload].commands:
        assert head[run.COMMAND_METRIC[command]] > 0
    assert head["failed_frac"] == result["failed"] / result["attempted"]
    assert {"python", "numpy", "blas", "cpu", "nproc"} <= set(head["environment"])


@pytest.mark.parametrize("workload", ["small-verify", "small-solve", "small-spectral"])
def test_traced_run_prints_every_per_layer_metric(small, capsys, workload):
    _, _, result = run_lines(capsys, workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"]


def test_discriminant_base_point_counts_as_failed(small, capsys, monkeypatch):
    real_set_up = run.set_up

    def on_discriminant(workload, seed, work, env):
        configs, walls = real_set_up(workload, seed, work, env)
        for path in configs.values():
            cfg = json.loads(path.read_text(encoding="utf-8"))
            cfg["z"] = ["0"] * cfg["n"]  # every discriminant form vanishes at z = 0
            path.write_text(json.dumps(cfg), encoding="utf-8")
        return configs, walls

    monkeypatch.setattr(run, "set_up", on_discriminant)
    head, failures, result = run_lines(capsys, "small-solve", 0)
    assert result["failed"] == result["attempted"] == 1
    assert head["failed_frac"] == 1.0
    assert result["correct"]  # solve said so itself, with exit status 2
    assert any("(5,2)#0 solve: exit_2" in line for line in failures)


def test_a_crashing_child_makes_the_result_incorrect(small, capsys, monkeypatch):
    def crash(command, cfg, out):
        return [sys.executable, "-c", "raise RuntimeError('crash')"]

    monkeypatch.setattr(run, "command_argv", crash)
    _, failures, result = run_lines(capsys, "small-solve", 0)
    assert result["failed"] == result["attempted"] == 1
    assert not result["correct"]
    assert any("(5,2)#0 solve: report:unreadable" in line for line in failures)


def test_a_crash_in_the_traced_run_makes_it_incorrect(small, capsys, monkeypatch):
    from critvar import spectrum

    def crash(*args, **kwargs):
        raise RuntimeError("crash")

    monkeypatch.setattr(spectrum, "poly_roots", crash)
    _, _, result = run_lines(capsys, "small-spectral", 1)
    assert result["failed"] == result["attempted"] == 1
    assert not result["correct"]
