"""Routing strategy planner: pick the cheapest way to realize a
permutation with the systems in this library.

Given a permutation (and, optionally, the machine it must run on), the
planner classifies it against every Section II class and returns an
ordered plan:

- on the **network** (an attached ``B(n)``): self-routing when the
  permutation is in F; omega-bit mode when it is in Omega(n) only;
  external Waksman setup otherwise;
- on an **SIMD machine** (CCC/PSC/MCC): the Section III simulation with
  the strongest applicable skip rule (BPC fixed dimensions, omega /
  inverse-omega loop halves), falling back to the bitonic sort for
  permutations outside F.

The plan carries the classification evidence (the BPC A-vector when one
exists, the Theorem 1 failure witness when self-routing is impossible),
so callers can log *why* a strategy was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from . import obs as _obs
from .core.membership import first_failure, in_class_f
from .obs.spans import spanned as _spanned
from .core.permutation import Permutation
from .permclasses.bpc import BPCSpec, is_bpc
from .permclasses.omega import is_inverse_omega, is_omega

__all__ = ["RoutingPlan", "plan", "plan_batch"]

PermutationLike = Union[Permutation, Sequence[int]]


@dataclass(frozen=True)
class RoutingPlan:
    """The planner's verdict for one permutation.

    Attributes:
        permutation: the permutation planned for.
        in_f / in_omega / in_inverse_omega: class membership.
        bpc: the recovered A-vector, when the permutation is BPC.
        network_strategy: ``"self-routing"``, ``"omega-mode"`` or
            ``"external-setup"`` — how an attached B(n) should run it.
        simd_strategy: ``"simulate"`` (the Section III loop) or
            ``"sort"`` (bitonic fallback).
        skip_rule: ``"bpc"``, ``"omega"``, ``"inverse-omega"`` or
            ``None`` — the loop-shortening rule the SIMD simulation may
            apply.
        ccc_unit_routes: predicted CCC cost under the plan.
        failure_witness: the Theorem 1 conflict when the permutation is
            outside F (None otherwise).
        alternatives: other viable network strategies, e.g.
            ``"two-pass"`` (every permutation can be realized by two
            self-routed transits with zero setup — see
            :mod:`repro.core.twopass`).
    """

    permutation: Permutation
    in_f: bool
    in_omega: bool
    in_inverse_omega: bool
    bpc: Optional[BPCSpec]
    network_strategy: str
    simd_strategy: str
    skip_rule: Optional[str]
    ccc_unit_routes: int
    failure_witness: Optional[Tuple[int, ...]]
    alternatives: Tuple[str, ...] = ()


def _ccc_cost(order: int, skip_rule: Optional[str],
              bpc: Optional[BPCSpec], in_f: bool) -> int:
    if not in_f:
        return order * (order + 1) // 2  # bitonic compare steps
    full = 2 * order - 1
    if skip_rule in ("omega", "inverse-omega"):
        return order
    if skip_rule == "bpc" and bpc is not None:
        fixed = bpc.fixed_dimensions()
        saved = sum(2 if b != order - 1 else 1 for b in fixed)
        return full - saved
    return full


@_spanned("plan")
def plan(perm: PermutationLike) -> RoutingPlan:
    """Classify ``perm`` and choose routing strategies.

    >>> report = plan([1, 3, 2, 0])          # the Fig. 5 permutation
    >>> report.network_strategy
    'omega-mode'
    >>> plan([0, 1, 2, 3]).network_strategy
    'self-routing'
    """
    perm = perm if isinstance(perm, Permutation) else Permutation(perm)
    return _build_plan(perm, in_class_f(perm))


@_spanned("plan.batch")
def plan_batch(perms: Sequence[PermutationLike],
               *, parallel=False, engine=None) -> "list[RoutingPlan]":
    """:func:`plan` for a whole batch, with the F-membership test — the
    planner's dominant cost — pushed through the vectorized engine
    (:func:`repro.accel.batch_in_class_f`); ``parallel`` forwards to
    the shard executor and ``engine`` to the engine seam (``None`` =
    auto-pick: NumPy when available, else bitslice for batches of 3+
    rows and scalar below, overridable via ``BENES_ENGINE``; at or
    above the composed threshold — order 14 by default,
    ``BENES_COMPOSED_ORDER`` — auto picks ``"composed"``, the
    block-decomposing engine whose streamed chunks keep large-N memory
    bounded).  Plans are
    identical to ``[plan(p) for p in perms]``, order preserved.
    """
    from .accel.batch import batch_in_class_f

    normalized = [
        p if isinstance(p, Permutation) else Permutation(p)
        for p in perms
    ]
    if not normalized:
        return []
    # The engine needs rectangular batches; mixed sizes are grouped and
    # membership-tested per size, results re-scattered in input order.
    members: "list[bool]" = [False] * len(normalized)
    by_size: "dict[int, list[int]]" = {}
    for i, p in enumerate(normalized):
        by_size.setdefault(p.size, []).append(i)
    for indices in by_size.values():
        verdicts = batch_in_class_f(
            [normalized[i].as_tuple() for i in indices],
            parallel=parallel,
            engine=engine,
        )
        for i, verdict in zip(indices, verdicts):
            members[i] = bool(verdict)
    return [
        _build_plan(perm, member)
        for perm, member in zip(normalized, members)
    ]


def _build_plan(perm: Permutation, member: bool) -> RoutingPlan:
    """Assemble the :class:`RoutingPlan` given the (already computed)
    F-membership verdict — shared by the scalar and batch entry
    points."""
    order = perm.order
    omega = is_omega(perm)
    inverse_omega = is_inverse_omega(perm)
    bpc = is_bpc(perm)

    if member:
        network_strategy = "self-routing"
    elif omega:
        network_strategy = "omega-mode"
    else:
        network_strategy = "external-setup"

    if member:
        simd_strategy = "simulate"
        # prefer the rule that skips the most iterations
        candidates = []
        if bpc is not None:
            fixed = bpc.fixed_dimensions()
            saved = sum(2 if b != order - 1 else 1 for b in fixed)
            candidates.append(("bpc", saved))
        if inverse_omega:
            candidates.append(("inverse-omega", order - 1))
        if omega:
            candidates.append(("omega", order - 1))
        skip_rule = max(candidates, key=lambda c: c[1])[0] \
            if candidates and max(candidates, key=lambda c: c[1])[1] > 0 \
            else None
    else:
        simd_strategy = "sort"
        skip_rule = None

    alternatives: Tuple[str, ...] = ()
    if not member:
        # two self-routed transits realize any permutation without
        # external setup (core.twopass); omega-mode is its own row.
        alternatives = ("two-pass",)

    if _obs.enabled():
        # Planner decisions, keyed by the strategies chosen — the
        # "per permutation class" success/failure view: each network
        # strategy corresponds to a Section II class verdict.
        _obs.inc("planner.plan.calls")
        _obs.inc(f"planner.network_strategy.{network_strategy}")
        _obs.inc(f"planner.simd_strategy.{simd_strategy}")
        if skip_rule:
            _obs.inc(f"planner.skip_rule.{skip_rule}")

    return RoutingPlan(
        permutation=perm,
        in_f=member,
        in_omega=omega,
        in_inverse_omega=inverse_omega,
        bpc=bpc,
        network_strategy=network_strategy,
        simd_strategy=simd_strategy,
        skip_rule=skip_rule,
        ccc_unit_routes=_ccc_cost(order, skip_rule, bpc, member),
        failure_witness=first_failure(perm) if not member else None,
        alternatives=alternatives,
    )
