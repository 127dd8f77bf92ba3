"""The benchmark's own tests, on tiny units.

Run from the repository root::

    python3 -m pytest perfbench -q

Each test drives ``run.py`` in subprocesses, as the benchmark itself
does: a traced repetition rewires classes, and that must not leak into
an untraced one.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

#: unit shrink factor per workload: a few hundred to a few thousand
#: requests each, enough for every layer to do some work.
SCALES = {"jpeg-wide": 0.05, "transend-trace": 0.1, "chaos-mix": 0.25}
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    return ({e["name"]: e["unit"] for e in config["end_to_end"]},
            {e["name"]: e["unit"] for e in config["per_layer"]})


def host_clock(name: str) -> bool:
    """Per-layer metrics read from the host clock; the rest are counts
    or simulated time and must repeat exactly."""
    return (name.endswith(("_us", "_s", ".self_share"))
            or name == "obs.trace_overhead")


def child(workload: str, mode: str, seed: int = 7) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--scale", str(SCALES[workload]), "--child", mode,
         "--t0", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def parent(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--scale", str(SCALES[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", sorted(SCALES))
def test_repeated_units_match(workload):
    first, second = child(workload, "plain"), child(workload, "plain")
    assert first["requests"] >= 100
    for key in ("digest", "sim", "requests", "submitted", "statuses"):
        assert first[key] == second[key], key


@pytest.mark.parametrize("workload", sorted(SCALES))
def test_traced_runs_match_untraced(workload):
    plain = child(workload, "plain")
    traced = [child(workload, "spans") for _ in range(2)]
    obs = child(workload, "obs")
    for rep in traced + [obs]:
        assert rep["digest"] == plain["digest"]
    layers = [rep["layers"] for rep in traced]
    for name, value in layers[0].items():
        if not host_clock(name):
            assert layers[1][name] == value, name
    for rep in layers:
        shares = [v for k, v in rep.items() if k.endswith(".self_share")]
        assert all(share >= 0.0 for share in shares)
        assert math.isclose(sum(shares), 1.0, rel_tol=1e-9)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    end_to_end, per_layer = declared()
    out = parent("jpeg-wide", trace)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = per_layer if trace else end_to_end
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert NAME.match(name)
        assert entry["unit"] == expected[name]
        assert isinstance(entry["value"], float)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = parent("jpeg-wide", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
