"""Golden trajectory pins: every chaos preset, both manager backends.

Each (campaign, backend) run at seed 1997 is reduced to one sha256
over simulated values only — per-request outcomes, the fault timeline,
the integer counters, the re-registration times and the violations —
and compared with ``golden_trajectories.json``.  A refactor that claims
"no behaviour change" must leave every digest alone.

Host-clock figures and ``sum()``-derived float means are deliberately
left out: float ``sum`` is compensated on Python >= 3.12, so those can
differ by an ulp across interpreters while the trajectory does not.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/chaos/test_golden_trajectories.py
"""

import hashlib
import json
import os

import pytest

from repro.chaos import CAMPAIGNS, CampaignRunner, get_campaign

SEED = 1997
BACKENDS = ("soft", "consensus")
GOLDEN = os.path.join(os.path.dirname(__file__),
                      "golden_trajectories.json")


def trajectory_digest(name: str, backend: str) -> str:
    campaign = get_campaign(name)
    campaign.manager_backend = backend
    runner = CampaignRunner(campaign, seed=SEED)
    report = runner.run()
    lines = []
    for outcome in runner.engine.outcomes:
        lines.append(repr((
            outcome.record.url, outcome.submitted_at,
            outcome.completed_at, outcome.ok, outcome.error,
            getattr(outcome.response, "status", None))))
    for record in report.fault_timeline:
        lines.append(repr((record.time, record.kind, record.target)))
    for key, value in sorted(report.counters.items()):
        if isinstance(value, int):
            lines.append(f"{key}={value}")
    lines.append(repr(report.reregistration_times))
    for violation in report.violations:
        lines.append(repr((violation.time, violation.invariant,
                           violation.detail)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_preset_and_backend():
    assert sorted(_load_golden()) == sorted(
        f"{name}/{backend}" for name in CAMPAIGNS for backend in BACKENDS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_trajectory_matches_golden(name, backend):
    assert trajectory_digest(name, backend) \
        == _load_golden()[f"{name}/{backend}"]


if __name__ == "__main__":
    digests = {f"{name}/{backend}": trajectory_digest(name, backend)
               for name in sorted(CAMPAIGNS) for backend in BACKENDS}
    with open(GOLDEN, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
