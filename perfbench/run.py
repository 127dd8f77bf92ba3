"""End-to-end benchmark of the SNS request path: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload jpeg-wide --seed 1997 \\
        --seconds 30 --trace 0

Each repetition runs one deterministic unit of the workload (see
``workloads.py``) in a fresh interpreter, so set-up time and peak memory
are those of a fresh process.  Repetitions continue until ``--seconds``
of wall time have passed; host-clock figures are medians over them,
scaled to a reference machine speed (see ``end_to_end``), and every
repetition must produce the same outcome digest.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced and a span-traced repetition, one repetition under the
program's own simulated-time tracer (``repro.obs``), then more
untraced/traced pairs while they fit, and reports the per-layer
metrics.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from workloads import WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
CONFIG = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")

#: at least this many untraced repetitions, however long each takes.
MIN_REPS = 3
#: a single repetition may not take longer than this (wall seconds).
REP_TIMEOUT_S = 150.0
#: head-sampling rate of the ``repro.obs`` repetition.
OBS_SAMPLE_EVERY = 5
#: objects one calibration pass allocates, and the pass's host time on
#: the machine the benchmark was built on (the reference speed).  Fixed
#: for good: changing either rescales every figure ever recorded.
CALIBRATION_ITEMS = 50_000
CALIBRATION_REFERENCE_S = 0.20

# -- one repetition (child process) -----------------------------------------

class _Item:
    def __init__(self, index: int, when: float) -> None:
        self.index = index
        self.when = when
        self.seen = 0


def calibration_s() -> float:
    """Host seconds for one pass of a fixed, allocation-heavy loop.

    Objects with instance dicts, string-keyed lookups and a heap: the
    simulator's memory behaviour without any of its code, so the reading
    moves with the machine's speed and never with the program's.
    """
    import random
    from heapq import heappop, heappush

    started = time.perf_counter()
    rng = random.Random(1997)
    items = [_Item(index, rng.random()) for index in range(CALIBRATION_ITEMS)]
    by_name = {f"item{item.index}": item for item in items}
    heap: List[Any] = []
    for item in items:
        heappush(heap, (item.when, item.index))
    while heap:
        _when, index = heappop(heap)
        by_name[f"item{index}"].seen += 1
    return time.perf_counter() - started


def run_child(workload: str, seed: int, mode: str, t0: float,
              scale: float) -> Dict[str, Any]:
    sys.path.insert(0, SRC)
    import workloads
    from layers import SpanTracer, instrument, layer_metrics, obs_metrics

    if mode == "plain":
        # a pass on each side of the unit; the first is not set-up
        started = time.monotonic()
        before = calibration_s()
        t0 += time.monotonic() - started
    tracer = None
    if mode == "spans":
        tracer = SpanTracer()
        instrument(tracer)
    session = workloads.Session(t0, tracer)
    unit = workloads.WORKLOADS[workload]
    result: Dict[str, Any] = {}
    if mode == "obs":
        from repro.obs.runtime import capture_traces
        with capture_traces(sample_every=OBS_SAMPLE_EVERY) as tracers:
            outcome = unit(seed, session, scale)
        metrics, report = obs_metrics(tracers)
        result["obs"] = metrics
        result["attribution"] = report.render()
    else:
        outcome = unit(seed, session, scale)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, session, outcome)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{workload}.tsv.gz")
        tracer.write(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
        result["spans"] = tracer.span_count
    result.update(
        setup_s=session.setup_s,
        timed_s=session.timed_s,
        requests=session.requests,
        submitted=outcome.submitted,
        unanswered=outcome.unanswered,
        statuses=outcome.statuses,
        digest=outcome.digest(),
        sim=outcome.sim_metrics(),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if mode == "plain":
        result["slowdown"] = (before + calibration_s()) / 2.0 \
            / CALIBRATION_REFERENCE_S
    return result


def child_main(args: argparse.Namespace) -> int:
    try:
        result = run_child(args.workload, args.seed, args.child, args.t0,
                           args.scale)
    except CheckFailed as error:
        print(json.dumps({"check_failed": str(error)}))
        return 1
    print(json.dumps(result))
    return 0


# -- orchestration (parent process) -----------------------------------------

class RunFailed(Exception):
    pass


def repetition(args: argparse.Namespace, mode: str) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", repr(args.scale), "--child", mode]
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    try:
        stdout, _ = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} repetition ran past {REP_TIMEOUT_S:.0f}s")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if "check_failed" in result:
        raise RunFailed(f"output check failed ({mode} repetition): "
                        f"{result['check_failed']}")
    if process.returncode != 0 or "digest" not in result:
        raise RunFailed(f"{mode} repetition exited with code "
                        f"{process.returncode}")
    return result


def same_outcome(reps: List[Dict[str, Any]]) -> None:
    """Every repetition of one seed must simulate the same outcome."""
    first = reps[0]
    for rep in reps[1:]:
        if rep["digest"] != first["digest"] or rep["sim"] != first["sim"]:
            raise RunFailed(
                f"outcome digest differs between repetitions of one "
                f"seed: {first['digest'][:16]} vs {rep['digest'][:16]}")


def unscaled(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    return {
        "host_req_per_s": statistics.median(
            rep["requests"] / rep["timed_s"] for rep in reps),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
    }


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Host times at the reference machine speed: each repetition's
    figures are scaled by its own calibration reading, because the
    shared host's speed drifts by tens of percent within minutes."""
    metrics = {
        "host_req_per_s": statistics.median(
            rep["requests"] / rep["timed_s"] * rep["slowdown"]
            for rep in reps),
        "setup_s": statistics.median(rep["setup_s"] / rep["slowdown"]
                                     for rep in reps),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
    }
    metrics.update(reps[0]["sim"])
    return metrics


def per_layer(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              obs: Dict[str, Any]) -> Dict[str, float]:
    """The layer figures of the median traced repetition (by host time),
    so its self shares still sum to 1."""
    by_time = sorted(traced, key=lambda rep: rep["timed_s"])
    middle = by_time[(len(by_time) - 1) // 2]
    metrics = dict(middle["layers"])
    metrics.update(obs["obs"])
    metrics["obs.trace_overhead"] = (
        middle["timed_s"]
        / statistics.median(rep["timed_s"] for rep in plain) - 1.0)
    return metrics


def declared_units() -> Dict[str, str]:
    with open(CONFIG) as handle:
        config = json.load(handle)
    return {entry["name"]: entry["unit"]
            for entry in config["end_to_end"] + config["per_layer"]}


def recorded_digest(workload: str, seed: int) -> Any:
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def parent_main(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    units = declared_units()
    started = time.monotonic()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    attempted = 0
    try:
        if args.trace:
            # one traced pair and the obs repetition always run; more
            # pairs only while they fit in the run length
            pair_started = time.monotonic()
            plain.append(repetition(args, "plain"))
            traced.append(repetition(args, "spans"))
            pair_s = time.monotonic() - pair_started
            obs = repetition(args, "obs")
            while time.monotonic() - started + pair_s <= args.seconds:
                plain.append(repetition(args, "plain"))
                traced.append(repetition(args, "spans"))
        else:
            obs = None
            while (len(plain) < MIN_REPS
                   or time.monotonic() - started < args.seconds):
                plain.append(repetition(args, "plain"))
        reps = plain + traced + ([obs] if obs else [])
        attempted = sum(rep["submitted"] for rep in reps)
        same_outcome(reps)
    except RunFailed as error:
        attempted = sum(rep["submitted"] for rep in plain + traced)
        print(f"FAILED: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": 1, "metrics": {}}))
        return 1

    first = plain[0]
    metrics = per_layer(plain, traced, obs) if args.trace \
        else end_to_end(plain)
    golden = recorded_digest(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(plain)} untraced + {len(traced)} traced repetition(s), "
          f"{first['requests']} requests each")
    raw = unscaled(plain)
    print(f"  unscaled: host_req_per_s {raw['host_req_per_s']:.1f}  "
          f"setup_s {raw['setup_s']:.4f}  slowdown "
          f"{statistics.median(rep['slowdown'] for rep in plain):.3f} "
          f"(calibration time / {CALIBRATION_REFERENCE_S} s)")
    print(f"  submitted {first['submitted']}  unanswered "
          f"{first['unanswered']}  replies {first['statuses']}")
    print(f"  outcome digest {first['digest']}"
          + ("" if golden is None else
             f"  ({'matches' if golden == first['digest'] else 'DIFFERS from'}"
             f" the recorded digest)"))
    if obs is not None:
        print("  " + obs["attribution"].replace("\n", "\n  "))
        print(f"  spans written to {traced[-1]['spans_file']} "
              f"({traced[-1]['spans']} spans)")
    for name, value in metrics.items():
        # a zero from a layer that never ran is "not applicable"
        idle = value == 0 and metrics.get(
            name.split(".")[0] + ".self_share") == 0
        shown = f"{'n/a':>14}" if idle else f"{value:14.6g}"
        print(f"  {name:<34} {shown} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink each unit (the benchmark's own "
                             "tests run tiny units)")
    parser.add_argument("--child", choices=("plain", "spans", "obs"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
