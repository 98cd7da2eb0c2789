"""Differential comparison core: run identical workloads through every
engine pair and report any field that differs.

Four comparison families mirror the repo's four public surfaces:

- **selfroute** — :data:`~repro.engines.SELF_ROUTE_ENGINES` (the
  structural oracle, every kernel, the sharded executor) on the same
  tag vectors, with optional omega mode and fault injection; success
  flags, delivered mappings, and per-stage switch states must all be
  byte-identical, the strongest equivalence the engines promise.
- **partial** — :data:`~repro.engines.PARTIAL_ENGINES` on dense
  k-of-N partial permutations (idle lanes ``-1``): per-instance
  success and the active lanes' arrival outputs, masked through every
  engine via the one canonical completion, must match the scalar
  oracle byte-for-byte — the packet subsystem's call-model parity.
- **membership** — the Theorem-1 recursion vs every kernel's batch
  verdict (the NumPy, bit-sliced and composed kernels decide by
  routing); the paper's membership ≡ routability equivalence,
  cross-engine.
- **universal** — Waksman looping setup: every kernel's batch setup
  states vs the scalar looping algorithm byte-for-byte, then the
  realized permutation under those states via every external-state
  engine, checked against the requested permutation itself (the oracle
  is algebra, not another engine).
- **twopass** — every kernel's two-pass factors vs the scalar
  decomposition, factor properties (``omega_2[omega_1] == p``), and the
  composed two-transit delivery realizing ``p`` exactly.
- **composed** — the block-composed engine's decomposition itself:
  assembled composed setup states vs the scalar looping oracle
  byte-for-byte, and the *streamed* form
  (:func:`repro.accel.iter_composed_states`) re-assembled chunk by
  chunk with every sub-block independently checked against the scalar
  oracle on its local permutation — the sub-block parity the
  million-port path rests on, verified at an order where the full
  tensor is still affordable.

Every discrepancy becomes a :class:`Disagreement` carrying enough
context (family, field, engine pair, batch index, row, options) for the
shrinker to reproduce and minimize it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..accel.composed import (
    composed_plan,
    composed_setup_states,
    iter_composed_states,
)
from ..accel.setup import (
    batch_route_two_pass,
    batch_setup_states,
    batch_two_pass,
)
from ..core.twopass import two_pass_decomposition
from ..core.waksman import setup_states
from ..engines import (
    MEMBERSHIP_ENGINES,
    PARTIAL_ENGINES,
    SELF_ROUTE_ENGINES,
    STATES_ENGINES,
    EngineRun,
    exec_engine_names,
    get,
)

__all__ = [
    "Disagreement",
    "check_composed",
    "check_membership",
    "check_partial",
    "check_selfroute",
    "check_twopass",
    "check_universal",
]

Row = Tuple[int, ...]


@dataclass(frozen=True)
class Disagreement:
    """One observed divergence between two engines (or between an
    engine and an algebraic oracle).

    ``row`` and ``options`` reproduce the failing instance standalone;
    ``index`` locates it inside the original batch (batch-dependent
    bugs shrink differently from per-row bugs).
    """

    family: str
    field: str
    order: int
    engine_a: str
    engine_b: str
    index: int
    row: Row
    options: Dict[str, object] = field(default_factory=dict)
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        options: Dict[str, object] = {}
        for key, value in self.options.items():
            if key == "stuck_switches" and value:
                # JSON-safe: tuple keys become "stage:switch" strings
                options[key] = {
                    f"{stage}:{idx}": int(state)
                    for (stage, idx), state in value.items()
                }
            else:
                options[key] = value
        return {
            "family": self.family,
            "field": self.field,
            "order": self.order,
            "engines": [self.engine_a, self.engine_b],
            "index": self.index,
            "row": list(self.row),
            "options": options,
            "detail": self.detail,
        }


def _first_diff(a: Sequence, b: Sequence) -> Optional[int]:
    """Index of the first differing element, or None if equal
    (length differences count as index ``min(len)``)."""
    for i, (va, vb) in enumerate(zip(a, b)):
        if va != vb:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def _compare_runs(family: str, order: int, rows: Sequence[Row],
                  options: Dict[str, object], oracle: EngineRun,
                  candidate: EngineRun) -> List[Disagreement]:
    """Field-by-field comparison of two EngineRuns; at most one
    disagreement per field (the first differing batch index) so a
    systematically wrong engine doesn't flood the report."""
    out: List[Disagreement] = []

    def report(fld: str, index: int, detail: str) -> None:
        out.append(Disagreement(
            family=family, field=fld, order=order,
            engine_a=oracle.engine, engine_b=candidate.engine,
            index=index, row=tuple(rows[index]), options=dict(options),
            detail=detail,
        ))

    i = _first_diff(oracle.success, candidate.success)
    if i is not None:
        report("success", i,
               f"{oracle.success[i]} vs {candidate.success[i]}")
    i = _first_diff(oracle.mappings, candidate.mappings)
    if i is not None:
        report("mappings", i,
               f"{oracle.mappings[i]} vs {candidate.mappings[i]}")
    if oracle.states is not None and candidate.states is not None:
        i = _first_diff(oracle.states, candidate.states)
        if i is not None:
            stage = _first_diff(oracle.states[i], candidate.states[i])
            report("states", i,
                   f"first divergent column {stage}: "
                   f"{oracle.states[i][stage]} vs "
                   f"{candidate.states[i][stage]}")
    return out


def check_selfroute(rows: Sequence[Row], order: int, *,
                    omega_mode: bool = False,
                    stuck_switches: Optional[dict] = None,
                    engines: Optional[Dict[str, object]] = None,
                    ) -> List[Disagreement]:
    """Route ``rows`` through every self-routing engine and compare all
    of them against the oracle (first engine in the mapping).

    ``engines`` overrides the engine set — the self-test injects a
    mutant here; tests can drop the threaded ``sharded`` entry."""
    table = engines if engines is not None else SELF_ROUTE_ENGINES
    options = {"omega_mode": omega_mode,
               "stuck_switches": stuck_switches}
    names = list(table)
    runs = [
        table[name](list(rows), order, omega_mode=omega_mode,
                    stuck_switches=stuck_switches)
        for name in names
    ]
    oracle = runs[0]
    out: List[Disagreement] = []
    for candidate in runs[1:]:
        out.extend(_compare_runs("selfroute", order, rows, options,
                                 oracle, candidate))
    return out


def check_partial(rows: Sequence[Row], order: int, *,
                  omega_mode: bool = False,
                  engines: Optional[Dict[str, object]] = None,
                  ) -> List[Disagreement]:
    """Partial-permutation parity: route dense k-of-N rows (idle lanes
    ``-1``) through every partial engine and compare the masked
    active-lane view — per-instance success and arrival outputs — to
    the scalar oracle byte-for-byte.  ``rows`` may include full
    permutations (``k = N``): a full row is a valid partial row, which
    is what lets the shrinker's order probe reuse ``perm_rows``."""
    table = engines if engines is not None else PARTIAL_ENGINES
    options = {"omega_mode": omega_mode}
    names = list(table)
    runs = [
        table[name](list(rows), order, omega_mode=omega_mode)
        for name in names
    ]
    oracle = runs[0]
    out: List[Disagreement] = []
    for candidate in runs[1:]:
        out.extend(_compare_runs("partial", order, rows, options,
                                 oracle, candidate))
    return out


def check_membership(rows: Sequence[Row], order: int, *,
                     engines: Optional[Dict[str, object]] = None,
                     ) -> List[Disagreement]:
    """F(n) verdict masks from every membership engine must agree
    (Theorem 1: recursion == routing success, scalar == batch)."""
    table = engines if engines is not None else MEMBERSHIP_ENGINES
    names = list(table)
    masks = [table[name](list(rows), order) for name in names]
    out: List[Disagreement] = []
    for name, mask in zip(names[1:], masks[1:]):
        i = _first_diff(masks[0], mask)
        if i is not None:
            out.append(Disagreement(
                family="membership", field="verdict", order=order,
                engine_a=names[0], engine_b=name, index=i,
                row=tuple(rows[i]),
                detail=f"{masks[0][i]} vs {mask[i]}",
            ))
    return out


def _normalize_states_batch(states_batch):
    return tuple(
        tuple(tuple(int(s) for s in column) for column in per_instance)
        for per_instance in states_batch
    )


def _setup_kernels() -> List[str]:
    """The kernel rows the ``universal`` and ``twopass`` families run
    their setup ops on: every row of the kernel table whose dependency
    gate is open right now (``numpy`` only when NumPy is importable)."""
    return [name for name in exec_engine_names() if get(name).available()]


def check_universal(rows: Sequence[Row], order: int, *,
                    engines: Optional[Dict[str, object]] = None,
                    ) -> List[Disagreement]:
    """Waksman universal setup, differentially: every kernel's batch
    setup states (``waksman-<kernel>``) must equal the scalar looping
    algorithm byte-for-byte, and every external-state engine must
    realize exactly the requested permutation under those states."""
    table = engines if engines is not None else STATES_ENGINES
    out: List[Disagreement] = []
    scalar_states = [setup_states(row) for row in rows]
    expected = _normalize_states_batch(scalar_states)
    for kernel in _setup_kernels():
        batch_states = batch_setup_states(order, list(rows),
                                          engine=kernel)
        i = _first_diff(expected, _normalize_states_batch(batch_states))
        if i is not None:
            out.append(Disagreement(
                family="universal", field="setup_states", order=order,
                engine_a="waksman-scalar", engine_b=f"waksman-{kernel}",
                index=i, row=tuple(rows[i]),
                detail=f"{kernel} Waksman states diverge from scalar "
                       f"looping",
            ))
    if out:
        return out  # realized comparisons would only echo these
    for name in table:
        realized = table[name](scalar_states, order)
        for b, row in enumerate(rows):
            if tuple(realized[b]) != tuple(row):
                out.append(Disagreement(
                    family="universal", field="realized", order=order,
                    engine_a="requested-permutation", engine_b=name,
                    index=b, row=tuple(row),
                    detail=f"states realize {tuple(realized[b])}",
                ))
                break
    return out


def check_composed(rows: Sequence[Row], order: int, *,
                   sub_order: Optional[int] = None,
                   ) -> List[Disagreement]:
    """The composed engine's block decomposition, differentially.

    Two legs: the assembled form
    (:func:`~repro.accel.composed_setup_states`) must equal the scalar
    looping oracle byte-for-byte for every row, and the streamed form
    (:func:`~repro.accel.iter_composed_states`) on the first row must
    re-assemble to the same tensor with each sub-block's states
    matching ``setup_states`` of its *local* permutation — the
    chunk-level parity ``benes route --order N`` samples at orders
    where the full oracle is unaffordable, verified here exhaustively
    at an order where it is.
    """
    out: List[Disagreement] = []
    if order < 2 or not rows:
        return out
    scalar_states = [setup_states(list(row)) for row in rows]
    assembled = composed_setup_states(order, list(rows),
                                      sub_order=sub_order)
    i = _first_diff(_normalize_states_batch(scalar_states),
                    _normalize_states_batch(assembled))
    if i is not None:
        out.append(Disagreement(
            family="composed", field="setup_states", order=order,
            engine_a="waksman-scalar", engine_b="waksman-composed",
            index=i, row=tuple(rows[i]),
            detail="composed block assembly diverges from scalar "
                   "looping",
        ))
        return out  # the streamed form would only echo this
    plan = composed_plan(order, sub_order)
    row = rows[0]
    half = plan.n_terminals // 2
    streamed = [[0] * half for _ in range(plan.n_stages)]
    w = plan.block_half
    for chunk in iter_composed_states(order, row,
                                      sub_order=plan.sub_order):
        if chunk.kind == "column":
            streamed[chunk.stage] = [int(v) for v in chunk.states]
            continue
        for i in range(len(chunk.states)):
            k = chunk.block_start + i
            states = chunk.states[i]
            local = [int(v) for v in chunk.perms[i]]
            if plan.sub_order > 1:
                oracle = setup_states(local)
                got = [[int(v) for v in col] for col in states]
                if got != [list(col) for col in oracle]:
                    out.append(Disagreement(
                        family="composed", field="block_states",
                        order=order, engine_a="waksman-scalar",
                        engine_b="composed-chunk", index=0,
                        row=tuple(row),
                        detail=f"block {k} states diverge from the "
                               f"scalar oracle on its local "
                               f"permutation {tuple(local)}",
                    ))
                    return out
            for s_local in range(plan.mid_stages):
                streamed[plan.levels + s_local][k * w:(k + 1) * w] = [
                    int(v) for v in states[s_local]
                ]
    if streamed != [[int(v) for v in col] for col in scalar_states[0]]:
        out.append(Disagreement(
            family="composed", field="streamed_states", order=order,
            engine_a="waksman-scalar", engine_b="composed-stream",
            index=0, row=tuple(row),
            detail="re-assembled stream diverges from scalar looping",
        ))
    return out


def _as_row_list(factor_batch) -> List[Row]:
    return [tuple(int(v) for v in row) for row in factor_batch]


def check_twopass(rows: Sequence[Row], order: int) -> List[Disagreement]:
    """Two-pass universal routing, differentially: every kernel's
    factors (``twopass-<kernel>``) must match the scalar decomposition
    and compose back to ``p``, and the composed two-transit delivery
    must realize ``p`` exactly."""
    out: List[Disagreement] = []
    scalar_first, scalar_second = [], []
    for row in rows:
        f, s = two_pass_decomposition(row)
        scalar_first.append(f.as_tuple())
        scalar_second.append(s.as_tuple())
    for kernel in _setup_kernels():
        name = f"twopass-{kernel}"
        first_b, second_b = batch_two_pass(order, list(rows),
                                           engine=kernel)
        first_b, second_b = _as_row_list(first_b), _as_row_list(second_b)
        for fld, scalar, batch in (
                ("factor-omega1", scalar_first, first_b),
                ("factor-omega2", scalar_second, second_b)):
            i = _first_diff(scalar, batch)
            if i is not None:
                out.append(Disagreement(
                    family="twopass", field=fld, order=order,
                    engine_a="twopass-scalar", engine_b=name,
                    index=i, row=tuple(rows[i]),
                    detail=f"{scalar[i]} vs {batch[i]}",
                ))
        for b, row in enumerate(rows):
            composed = tuple(second_b[b][v] for v in first_b[b])
            if composed != tuple(row):
                out.append(Disagreement(
                    family="twopass", field="factor-composition",
                    order=order, engine_a="requested-permutation",
                    engine_b=name, index=b, row=tuple(row),
                    detail=f"omega_2[omega_1] == {composed}",
                ))
                break
    routed = batch_route_two_pass(order, list(rows))
    for b, row in enumerate(rows):
        delivered = tuple(int(v) for v in routed.mappings[b])
        expected = tuple(sorted(range(len(row)), key=row.__getitem__))
        if not routed.success_mask[b] or delivered != expected:
            out.append(Disagreement(
                family="twopass", field="routed", order=order,
                engine_a="requested-permutation",
                engine_b="twopass-batch-routed", index=b,
                row=tuple(row),
                detail=(f"success={bool(routed.success_mask[b])}, "
                        f"delivered {delivered}, expected p^-1 "
                        f"{expected}"),
            ))
            break
    return out
