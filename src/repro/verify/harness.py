"""The verification campaign driver behind ``benes verify``.

One :func:`run_verify` call is a seeded, time-budgeted bug hunt:

- every round sweeps all configured orders and comparison families
  (self-routing with plain / omega / fault-injected options, F(n)
  membership, Waksman universal setup, two-pass routing, composed
  block decomposition, partial k-of-N call patterns), drawing fresh
  seeded workloads each time;
- the first round always completes in full — the budget bounds *extra*
  rounds, so even ``--budget 0`` yields a complete sweep;
- fault-injection campaigns (:func:`~repro.verify.faults.run_campaign`)
  run once per configured fault order — they are exhaustive, not
  sampled, so repeating them adds nothing;
- every disagreement is minimized by :func:`~repro.verify.shrink.
  shrink` and rendered as a ready-to-paste regression test;
- a **self-test** plants a control-bit mutant engine and demands the
  pipeline catch and shrink it — a verifier that cannot find a planted
  bug is vacuous, so a missed mutant fails the whole report.

Progress is observable: the harness increments ``verify.*`` metrics
(rounds, per-family case counts, disagreements, shrink attempts)
through :mod:`repro.obs`, and :meth:`VerifyReport.to_json` is the
stable artifact CI archives.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs as _obs
from ..accel import have_numpy
from ..accel.plans import cached_topology
from ..core.bits import log2_exact
from ..engines import (
    ALL_SELF_ROUTE_ENGINES,
    MEMBERSHIP_ENGINES,
    PARTIAL_ENGINES,
    SELF_ROUTE_ENGINES,
    STATES_ENGINES,
    EngineRun,
)
from .faults import run_campaign
from .fuzzer import (
    Disagreement,
    _setup_kernels,
    check_composed,
    check_membership,
    check_partial,
    check_selfroute,
    check_twopass,
    check_universal,
)
from .shrink import regression_test_source, shrink
from .workloads import partial_rows, perm_rows, tag_rows

__all__ = ["VerifyConfig", "VerifyReport", "mutant_self_route_engine",
           "run_self_test", "run_verify"]

REPORT_SCHEMA_VERSION = 1

Row = Tuple[int, ...]


@dataclass(frozen=True)
class VerifyConfig:
    """Campaign parameters (all seeded, all JSON-serializable)."""

    seed: int = 0
    budget_seconds: float = 30.0
    orders: Tuple[int, ...] = (2, 3, 4, 5, 6)
    batch: int = 64
    families: Tuple[str, ...] = ("selfroute", "membership",
                                 "universal", "twopass", "composed",
                                 "partial")
    fault_orders: Tuple[int, ...] = (2, 3, 4, 5)
    fault_perms: int = 8
    engines: Optional[Tuple[str, ...]] = None  # None = all self-route
    self_test: bool = True
    max_shrinks: int = 5


@dataclass
class VerifyReport:
    """Everything one campaign learned, JSON-ready."""

    config: VerifyConfig
    numpy: bool = False
    rounds: int = 0
    elapsed_seconds: float = 0.0
    cases: Dict[str, int] = field(default_factory=dict)
    engines: Dict[str, List[str]] = field(default_factory=dict)
    disagreements: List[Dict[str, object]] = field(default_factory=list)
    fault_campaigns: List[Dict[str, object]] = field(
        default_factory=list)
    self_test: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return (
            not self.disagreements
            and all(c["ok"] for c in self.fault_campaigns)
            and (self.self_test is None
                 or bool(self.self_test.get("caught")))
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "ok": self.ok,
            "seed": self.config.seed,
            "budget_seconds": self.config.budget_seconds,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "orders": list(self.config.orders),
            "batch": self.config.batch,
            "families": list(self.config.families),
            "numpy": self.numpy,
            "rounds": self.rounds,
            "cases": dict(self.cases),
            "engines": {k: list(v) for k, v in self.engines.items()},
            "disagreements": list(self.disagreements),
            "fault_campaigns": list(self.fault_campaigns),
            "self_test": self.self_test,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          sort_keys=True)


def _signature(d: Disagreement) -> str:
    return (f"{d.family}/{d.field}: {d.engine_a} vs {d.engine_b} "
            f"(order {d.order})")


def _selfroute_check(engines):
    """Build the shrinker predicate for a self-routing disagreement."""

    def check(order: int, rows: List[Row],
              options: Dict[str, object]) -> Optional[str]:
        found = check_selfroute(
            rows, order,
            omega_mode=bool(options.get("omega_mode")),
            stuck_switches=options.get("stuck_switches"),
            engines=engines,
        )
        return _signature(found[0]) if found else None

    return check


def _family_check(family: str):
    if family == "membership":
        return lambda order, rows, options: (
            lambda found: _signature(found[0]) if found else None
        )(check_membership(rows, order))
    if family == "universal":
        return lambda order, rows, options: (
            lambda found: _signature(found[0]) if found else None
        )(check_universal(rows, order))
    if family == "twopass":
        return lambda order, rows, options: (
            lambda found: _signature(found[0]) if found else None
        )(check_twopass(rows, order))
    if family == "composed":
        return lambda order, rows, options: (
            lambda found: _signature(found[0]) if found else None
        )(check_composed(rows, order))
    if family == "partial":
        return lambda order, rows, options: (
            lambda found: _signature(found[0]) if found else None
        )(check_partial(
            rows, order,
            omega_mode=bool(options.get("omega_mode"))))
    raise AssertionError(family)


def _shrink_and_record(report: VerifyReport, disagreement: Disagreement,
                       rows: Sequence[Row], check,
                       rng: random.Random) -> None:
    """Minimize one disagreement and append it (with its regression
    test) to the report."""

    def order_probe(smaller: int):
        if disagreement.options.get("stuck_switches"):
            # fault coordinates are order-specific; probe without them
            options = dict(disagreement.options,
                           stuck_switches=None)
        else:
            options = dict(disagreement.options)
        probe_rows = perm_rows(smaller, max(4, min(len(rows), 16)), rng)
        return list(probe_rows), options

    result = shrink(disagreement.order, list(rows),
                    dict(disagreement.options), check,
                    order_probe=order_probe)
    entry = disagreement.to_dict()
    if result is not None:
        _obs.inc("verify.shrink.attempts", result.attempts)
        entry["shrunk"] = result.to_dict()
        entry["regression_test"] = regression_test_source(
            result, disagreement.engine_a, disagreement.engine_b,
            slug=f"{disagreement.family}_{disagreement.field}".replace(
                "-", "_"),
        )
    else:
        entry["shrunk"] = None
        entry["flaky"] = True
    report.disagreements.append(entry)
    _obs.inc("verify.disagreements")


# ----------------------------------------------------------------------
# Deliberate mutant (self-test target)
# ----------------------------------------------------------------------

def mutant_self_route_engine(mutate_stage: int
                             ) -> Callable[..., EngineRun]:
    """A self-routing engine with an injected control-bit bug: in
    column ``mutate_stage`` every switch reads bit ``b ^ 1`` of its
    upper input's tag instead of bit ``b``.  Everything else — links,
    omega forcing, fault injection — matches the scalar fast path, so
    any disagreement the fuzzer reports against the oracle is exactly
    the planted bug.  Used by the verify self-test to prove the
    pipeline catches (and shrinks) real control-logic regressions."""

    def _engine(rows, order, *, omega_mode=False,
                stuck_switches=None) -> EngineRun:
        topology = cached_topology(order)
        success_out, mappings, states_out = [], [], []
        omega_stages = order - 1 if omega_mode else 0
        stuck_all = stuck_switches or {}
        for row in rows:
            n = len(row)
            log2_exact(n)  # validates power-of-two width
            rows_tag = list(row)
            rows_src = list(range(n))
            per_stage: List[Tuple[int, ...]] = []
            for stage in range(topology.n_stages):
                ctrl = min(stage, 2 * order - 2 - stage)
                if stage == mutate_stage:
                    ctrl ^= 1  # the planted bug: wrong tag bit
                column = []
                for i in range(n // 2):
                    if (stage, i) in stuck_all:
                        s = 1 if stuck_all[(stage, i)] else 0
                    elif stage < omega_stages:
                        s = 0
                    else:
                        s = (rows_tag[2 * i] >> ctrl) & 1
                    if s:
                        rows_tag[2 * i], rows_tag[2 * i + 1] = (
                            rows_tag[2 * i + 1], rows_tag[2 * i]
                        )
                        rows_src[2 * i], rows_src[2 * i + 1] = (
                            rows_src[2 * i + 1], rows_src[2 * i]
                        )
                    column.append(s)
                per_stage.append(tuple(column))
                if stage < topology.n_stages - 1:
                    link = topology.links[stage]
                    new_tag = [0] * n
                    new_src = [0] * n
                    for r in range(n):
                        new_tag[link[r]] = rows_tag[r]
                        new_src[link[r]] = rows_src[r]
                    rows_tag, rows_src = new_tag, new_src
            success_out.append(all(rows_tag[r] == r for r in range(n)))
            mappings.append(tuple(rows_src))
            states_out.append(tuple(per_stage))
        return EngineRun(f"mutant(stage={mutate_stage})",
                        tuple(success_out), tuple(mappings),
                        tuple(states_out))

    return _engine


def run_self_test(seed: int = 0, *, order: int = 3,
                  batch: int = 16) -> Dict[str, object]:
    """Plant a control-bit mutant (wrong tag bit in the first
    destination column) among the engines and prove the fuzzer catches
    it and the shrinker reduces it to a single-row counterexample."""
    rng = random.Random(seed)
    mutate_stage = order - 1
    engines = {
        "oracle": SELF_ROUTE_ENGINES["oracle"],
        "mutant": mutant_self_route_engine(mutate_stage),
    }
    rows = perm_rows(order, batch, rng)
    found = check_selfroute(rows, order, engines=engines)
    result: Dict[str, object] = {
        "order": order,
        "mutate_stage": mutate_stage,
        "caught": bool(found),
        "disagreements": len(found),
    }
    if found:
        shrunk = shrink(order, rows, dict(found[0].options),
                        _selfroute_check(engines))
        if shrunk is not None:
            result["shrunk"] = shrunk.to_dict()
            result["minimal"] = shrunk.batch_minimal
            result["regression_test"] = regression_test_source(
                shrunk, "oracle", "mutant", slug="self_test")
    return result


def run_verify(config: VerifyConfig) -> VerifyReport:
    """Run the full differential campaign described by ``config``."""
    rng = random.Random(config.seed)
    start = time.monotonic()
    if config.engines is None:
        selfroute_engines = dict(SELF_ROUTE_ENGINES)
    else:
        # Explicit subsets resolve through the FULL tables so opt-in
        # engines (e.g. the live `serve` daemon adapter) can be pulled
        # into a campaign by name without joining the default sweep;
        # the oracle always leads, as the reference for the others.
        selfroute_engines = {
            name: ALL_SELF_ROUTE_ENGINES[name]
            for name in ("oracle",) + tuple(config.engines)
        }
    report = VerifyReport(
        config=config,
        numpy=have_numpy(),
        engines={
            "selfroute": list(selfroute_engines),
            "membership": list(MEMBERSHIP_ENGINES),
            "universal": [f"waksman-{k}" for k in _setup_kernels()]
            + list(STATES_ENGINES),
            "twopass": [f"twopass-{k}" for k in _setup_kernels()],
            "composed": ["waksman-scalar", "waksman-composed",
                         "composed-stream"],
            "partial": list(PARTIAL_ENGINES),
        },
    )
    cases = report.cases

    def family_round(order: int, family: str) -> None:
        cases[family] = cases.get(family, 0) + 1
        _obs.inc(f"verify.cases.{family}")
        if family == "selfroute":
            rows = perm_rows(order, config.batch, rng)
            variants: List[Dict[str, object]] = [
                {"omega_mode": False, "stuck_switches": None},
                {"omega_mode": True, "stuck_switches": None},
            ]
            # one random single fault per round keeps the injected
            # path exercised without an exhaustive sweep (faults.py
            # owns exhaustiveness)
            n_stages = 2 * order - 1
            stage = rng.randrange(n_stages)
            switch = rng.randrange((1 << order) // 2)
            variants.append({
                "omega_mode": False,
                "stuck_switches": {(stage, switch): rng.randrange(2)},
            })
            legs = [(selfroute_engines, rows)]
            # duplicate-destination tag vectors are legal self-routing
            # input but not Permutations, so the structural oracle
            # sits that leg out; the next engine (itself pinned
            # against the oracle on the first leg) takes over
            others = {name: engine
                      for name, engine in selfroute_engines.items()
                      if name != "oracle"}
            if len(others) > 1:
                legs.append((
                    others,
                    tag_rows(order, max(8, config.batch // 4), rng),
                ))
            for engines, leg_rows in legs:
                check = _selfroute_check(engines)
                for options in variants:
                    found = check_selfroute(
                        leg_rows, order,
                        omega_mode=bool(options["omega_mode"]),
                        stuck_switches=options["stuck_switches"],
                        engines=engines,
                    )
                    for d in found[:config.max_shrinks]:
                        _shrink_and_record(report, d, leg_rows, check,
                                           rng)
        elif family == "partial":
            # the shrinker's order-probe falls back to perm_rows,
            # which is fine: a full permutation is a legal dense
            # partial row (k = N)
            rows = partial_rows(order, config.batch, rng)
            for options in ({"omega_mode": False},
                            {"omega_mode": True}):
                found = check_partial(
                    rows, order,
                    omega_mode=bool(options["omega_mode"]))
                check = _family_check(family)
                for d in found[:config.max_shrinks]:
                    _shrink_and_record(report, d, rows, check, rng)
            return
        else:
            rows = perm_rows(order, config.batch, rng)
            if family == "membership":
                found = check_membership(rows, order)
            elif family == "universal":
                found = check_universal(rows, order)
            elif family == "composed":
                found = check_composed(rows, order)
            else:
                found = check_twopass(rows, order)
            check = _family_check(family)
            for d in found[:config.max_shrinks]:
                _shrink_and_record(report, d, rows, check, rng)

    while True:
        for order in config.orders:
            for family in config.families:
                family_round(order, family)
        report.rounds += 1
        _obs.inc("verify.rounds")
        if time.monotonic() - start >= config.budget_seconds:
            break

    for order in config.fault_orders:
        campaign = run_campaign(order, rng=rng,
                                n_perms=config.fault_perms)
        _obs.inc("verify.faults.configs", campaign.n_faults)
        report.fault_campaigns.append(campaign.to_dict())
        for d in campaign.disagreements[:config.max_shrinks]:
            report.disagreements.append(d.to_dict())
            _obs.inc("verify.disagreements")

    if config.self_test:
        report.self_test = run_self_test(config.seed)

    report.elapsed_seconds = time.monotonic() - start
    _obs.observe("verify.seconds", report.elapsed_seconds)
    return report
