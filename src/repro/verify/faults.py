"""Fault-injection parity: the exhaustive single-fault campaign.

The paper's fault story (Section on fault tolerance) splits ``B(n)``
into *distribution* stages (``0 .. n-2``) and *destination* stages
(``n-1 .. 2n-2``): a control flip in a distribution stage merely
permutes which sub-network carries a signal and can therefore be
**masked** (the vector still self-routes), while a flip in a
destination stage commits two signals to the wrong half and is
**always fatal**.  The flipped pair can further displace downstream
control decisions, so the total damage is any even misroute count
≥ 2 — exactly two only at the final column, where no downstream
switch is left to disturb.

:func:`run_campaign` turns that dichotomy into a checked artifact: for
every single stuck-at fault ``(stage, switch, state)`` — the exhaustive
sweep — it routes the same permutation batch through the structural
oracle (``BenesNetwork.route``) and every batch kernel,
demands byte-identical success masks, delivered mappings, *and* switch
states, and classifies each actual control flip as masked or fatal.
The resulting :class:`FaultCampaignReport` records the per-stage
dichotomy (destination stages must have zero masked flips, and every
fatal destination flip an even misroute count ≥ 2) alongside any
cross-engine disagreement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..accel.kernels import KERNELS
from ..core.benes import BenesNetwork
from ..core.sampling import random_class_f
from ..engines import ALL_SELF_ROUTE_ENGINES, SELF_ROUTE_ENGINES
from .fuzzer import Disagreement, _compare_runs

__all__ = ["FaultCampaignReport", "StageSummary", "run_campaign"]

Row = Tuple[int, ...]


@dataclass
class StageSummary:
    """Per-stage tally of the exhaustive fault sweep."""

    stage: int
    kind: str              # "distribution" | "destination"
    agree: int = 0         # stuck state matched the healthy state
    masked: int = 0        # actual flip, vector still routed
    fatal: int = 0         # actual flip, routing failed
    bad_misroute: int = 0  # fatal destination flip with a misroute
                           # count that is odd or < 2

    def to_dict(self) -> Dict[str, int]:
        return {
            "stage": self.stage, "kind": self.kind,  # type: ignore
            "agree": self.agree, "masked": self.masked,
            "fatal": self.fatal, "bad_misroute": self.bad_misroute,
        }


@dataclass
class FaultCampaignReport:
    """Outcome of one exhaustive single-fault campaign at one order."""

    order: int
    n_perms: int
    n_faults: int
    engines: Tuple[str, ...]
    stages: List[StageSummary] = field(default_factory=list)
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def dichotomy_holds(self) -> bool:
        """The paper's mask-vs-fatal stage split: destination stages
        never mask a flip, and every fatal destination flip misroutes
        an even number (≥ 2) of signals."""
        return all(
            summary.masked == 0 and summary.bad_misroute == 0
            for summary in self.stages
            if summary.kind == "destination"
        )

    @property
    def ok(self) -> bool:
        return not self.disagreements and self.dichotomy_holds

    def to_dict(self) -> Dict[str, object]:
        return {
            "order": self.order,
            "n_perms": self.n_perms,
            "n_faults": self.n_faults,
            "engines": list(self.engines),
            "ok": self.ok,
            "dichotomy_holds": self.dichotomy_holds,
            "stages": [s.to_dict() for s in self.stages],
            "disagreements": [d.to_dict() for d in self.disagreements],
        }


def _campaign_perms(order: int, n_perms: int,
                    rng: random.Random) -> List[Row]:
    """Healthy-routable workload: the dichotomy is only observable on
    vectors that self-route without the fault, so draw ``F(order)``
    members (identity first, for the deterministic baseline)."""
    rows: List[Row] = [tuple(range(1 << order))]
    while len(rows) < n_perms:
        rows.append(random_class_f(order, rng).as_tuple())
    return rows[:n_perms]


def run_campaign(order: int, *, rng: random.Random,
                 n_perms: int = 12,
                 engines: Optional[Sequence[str]] = None,
                 ) -> FaultCampaignReport:
    """Exhaustive single-fault sweep at ``order``: every
    ``(stage, switch, stuck_state)`` triple, the same ``n_perms``-row
    batch of ``F(order)`` members, structural oracle vs each engine in
    ``engines`` (default: every kernel available here) —
    state-for-state."""
    if engines is None:
        engines = tuple(name for name in SELF_ROUTE_ENGINES
                        if name in KERNELS)
    net = BenesNetwork(order)
    half = net.n_terminals // 2
    rows = _campaign_perms(order, n_perms, rng)
    oracle_of = ALL_SELF_ROUTE_ENGINES["oracle"]
    healthy = oracle_of(rows, order)
    report = FaultCampaignReport(
        order=order, n_perms=len(rows),
        n_faults=net.n_stages * half * 2, engines=tuple(engines),
    )
    summaries = {
        stage: StageSummary(
            stage=stage,
            kind="distribution" if stage < order - 1 else "destination",
        )
        for stage in range(net.n_stages)
    }
    for stage in range(net.n_stages):
        summary = summaries[stage]
        for switch in range(half):
            for state in (0, 1):
                stuck = {(stage, switch): state}
                oracle = oracle_of(rows, order, stuck_switches=stuck)
                options = {"omega_mode": False,
                           "stuck_switches": stuck}
                for name in engines:
                    candidate = ALL_SELF_ROUTE_ENGINES[name](
                        rows, order, stuck_switches=stuck
                    )
                    report.disagreements.extend(_compare_runs(
                        "faults", order, rows, options, oracle,
                        candidate,
                    ))
                for b in range(len(rows)):
                    if not healthy.success[b]:
                        continue  # dichotomy defined on routable input
                    if healthy.states[b][stage][switch] == state:
                        summary.agree += 1
                        continue
                    if oracle.success[b]:
                        summary.masked += 1
                    else:
                        summary.fatal += 1
                        if summary.kind == "destination":
                            expected = healthy.mappings[b]
                            got = oracle.mappings[b]
                            misrouted = sum(
                                1 for o in range(len(got))
                                if got[o] != expected[o]
                            )
                            if misrouted < 2 or misrouted % 2:
                                summary.bad_misroute += 1
    report.stages = [summaries[s] for s in sorted(summaries)]
    return report
