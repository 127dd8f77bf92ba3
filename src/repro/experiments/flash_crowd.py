"""Flash-crowd experiment: the brownout controller vs the binary shed.

Runs the two flash-crowd chaos campaigns (:mod:`repro.chaos.campaign`)
— identical topology, identical 10x offered-load burst, identical
degradable service and cost model — differing only in whether the
brownout defenses are armed:

* **controller** — the closed-loop :class:`~repro.degrade.controller.
  DegradationController` walking the ladder, plus the per-front-end
  retry budget and the origin circuit breaker;
* **baseline** — binary admission control only, unlimited retries, no
  breaker: the overload posture the seed repo shipped with.

The comparison is the paper's harvest/yield trade made quantitative:
the controller should hold yield at or above its 0.99 SLO through the
burst by spending harvest (stale serves, low-fidelity distillation,
relaxed quorum reads), while the baseline's retry storm amplifies the
overload into a congestion collapse that outlives the burst.

Arms are independent simulations sharing a seed, so ``jobs=2`` fans
them across processes via :mod:`repro.fanout` with byte-identical
output — the CI drift gate diffs serial against parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.chaos.report import ChaosReport
from repro.experiments._harness import run_grid

#: the controller arm's yield SLO (mirrors the campaign's invariant).
CONTROLLER_YIELD_SLO = 0.99
#: the baseline must do *worse* than this for the comparison to mean
#: anything — if binary shedding survives the burst, the burst is too
#: gentle to justify a degradation ladder.
BASELINE_YIELD_CEILING = 0.90

ARMS = ("flash-crowd", "flash-crowd-baseline")


@dataclass
class FlashCrowdResult:
    """Both arms' reports plus the comparison verdict."""

    controller: ChaosReport
    baseline: ChaosReport
    seed: int

    @property
    def controller_held_slo(self) -> bool:
        return (self.controller.overall_yield
                >= CONTROLLER_YIELD_SLO - 1e-12
                and self.controller.ok)

    @property
    def baseline_collapsed(self) -> bool:
        return self.baseline.overall_yield < BASELINE_YIELD_CEILING

    @property
    def ok(self) -> bool:
        return self.controller_held_slo and self.baseline_collapsed

    def _arm_row(self, label: str, report: ChaosReport) -> str:
        return (f"  {label:<12} {report.overall_yield:7.3f} "
                f"{report.min_yield():9.3f} "
                f"{report.overall_harvest:8.3f} "
                f"{report.degraded_replies:9d} "
                f"{report.shed_replies:6d} "
                f"{report.latency.get('p50', 0.0):7.2f} "
                f"{report.latency.get('p99', 0.0):7.2f}")

    def render(self) -> str:
        controller, baseline = self.controller, self.baseline
        lines: List[str] = [
            f"Flash crowd: 10x offered-load burst, brownout controller "
            f"vs binary shed (seed {self.seed})",
            f"  {baseline.description}",
            "",
            f"  {'arm':<12} {'yield':>7} {'min-yield':>9} "
            f"{'harvest':>8} {'degraded':>9} {'shed':>6} "
            f"{'p50':>7} {'p99':>7}",
            self._arm_row("controller", controller),
            self._arm_row("baseline", baseline),
            "",
        ]
        degradation = controller.degradation
        if degradation:
            level_time = ", ".join(
                f"{name} {seconds:.1f}s"
                for name, seconds in degradation["level_time"].items())
            lines.append(
                f"  controller ladder: peak level "
                f"{degradation['peak_level']}, peak pressure "
                f"{degradation['peak_pressure']:.2f}, "
                f"{len(degradation['transitions'])} transition(s); "
                f"{level_time}")
        counters = controller.counters
        lines.append(
            f"  controller defenses: "
            f"{counters.get('stale_served', 0)} stale serves, "
            f"{counters.get('low_fidelity_served', 0)} low-fidelity, "
            f"{counters.get('relaxed_profile_reads', 0)} relaxed "
            f"reads, {counters.get('breaker_opens', 0)} breaker "
            f"open(s) short-circuiting "
            f"{counters.get('breaker_short_circuits', 0)} fetches, "
            f"{counters.get('retry_budget_denials', 0)} retry-budget "
            f"denial(s)")
        base_counters = baseline.counters
        lines.append(
            f"  baseline amplification: "
            f"{base_counters.get('dispatch_retries', 0)} retries, "
            f"{base_counters.get('worker_expired_sheds', 0)} expired "
            f"envelopes shed by workers, recovery "
            + (f"{baseline.recovery_s:.1f}s after the burst"
               if baseline.recovery_s is not None
               else "never within the run"))
        lines.append("")
        slo = (f"held its {CONTROLLER_YIELD_SLO:.2f} yield SLO"
               if self.controller_held_slo
               else f"MISSED its {CONTROLLER_YIELD_SLO:.2f} yield SLO")
        collapse = (f"collapsed below {BASELINE_YIELD_CEILING:.2f}"
                    if self.baseline_collapsed
                    else f"STAYED ABOVE {BASELINE_YIELD_CEILING:.2f} "
                         f"(burst too gentle)")
        lines.append(
            f"  verdict: controller {slo} at "
            f"{controller.overall_yield:.3f}; baseline {collapse} at "
            f"{baseline.overall_yield:.3f}"
            + ("" if self.ok else " -- COMPARISON FAILED"))
        for label, report in (("controller", controller),
                              ("baseline", baseline)):
            lines.append("")
            lines.append(f"--- {label} arm ---")
            lines.append(report.render())
        return "\n".join(lines)


def run_flash_crowd(seed: int = 1997,
                    jobs: int = 1) -> FlashCrowdResult:
    """Run both arms; ``jobs > 1`` fans them across processes,
    byte-identical to serial."""
    # function scope: repro.chaos.batch imports the experiments package
    # (via chaos.campaign), so a module-level import here is a cycle
    from repro.chaos.batch import run_campaign_shard

    arms = [dict(name=name, seed=seed) for name in ARMS]
    if jobs > 1:
        reports = list(run_grid(run_campaign_shard, arms, jobs=jobs,
                                label="flash-crowd").values())
    else:
        reports = [run_campaign_shard(**arm) for arm in arms]
    return FlashCrowdResult(controller=reports[0], baseline=reports[1],
                            seed=seed)
