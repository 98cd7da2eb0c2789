"""Counterexample minimization: from a fuzzer disagreement to the
smallest reproducer, plus a ready-to-paste regression test.

A raw fuzzer hit is a (order, batch, options) triple with dozens of
rows — useless as a bug report.  :func:`shrink` performs greedy
delta-debugging in four phases, re-running the *same* check after every
candidate reduction so only still-failing simplifications survive:

1. **batch** — drop rows (halves, quarters, ... single rows).  Most
   bugs are per-row and collapse to batch size 1; a reduction that
   stalls above 1 is itself a diagnosis (the bug is batch-dependent —
   e.g. a sharding merge or a cache warmed by an earlier row).
2. **order** — optional: re-sample the failing scenario at smaller
   orders via a caller-supplied probe, restarting the shrink there when
   the bug reproduces (smallest network wins).
3. **options** — drop ``omega_mode`` / ``stuck_switches`` if the
   disagreement survives without them.
4. **row** — move each position toward the identity permutation (for
   permutation rows: by swapping; for raw tag vectors: by overwriting),
   holding every change that keeps the check failing.

The result carries the minimization trace and
:func:`regression_test_source` renders it as a self-contained pytest
function, so a shrunken bug can be committed as a pinned test verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["ShrinkResult", "regression_test_source", "shrink"]

Row = Tuple[int, ...]
#: A check re-runs the scenario and returns a short failure signature
#: (any non-empty string) when it still disagrees, or None if the
#: candidate passes — the delta-debugging predicate.
CheckFn = Callable[[int, List[Row], Dict[str, object]], Optional[str]]


@dataclass
class ShrinkResult:
    """The minimized counterexample."""

    order: int
    rows: List[Row]
    options: Dict[str, object]
    signature: str
    steps: int = 0                 # successful reductions applied
    attempts: int = 0              # candidate re-runs, total
    batch_minimal: bool = False    # could not drop below one row
    trace: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        options = dict(self.options)
        stuck = options.get("stuck_switches")
        if stuck:
            options["stuck_switches"] = {
                f"{stage}:{idx}": int(state)
                for (stage, idx), state in stuck.items()
            }
        return {
            "order": self.order,
            "rows": [list(row) for row in self.rows],
            "options": options,
            "signature": self.signature,
            "steps": self.steps,
            "attempts": self.attempts,
            "batch_minimal": self.batch_minimal,
            "trace": list(self.trace),
        }


def _is_permutation(row: Row) -> bool:
    return sorted(row) == list(range(len(row)))


def _shrink_batch(state: ShrinkResult, check: CheckFn) -> None:
    """Greedy ddmin over the row list: try keeping ever-smaller
    chunks, then individual rows."""
    rows = state.rows
    # Phase A: binary chunk reduction
    while len(rows) > 1:
        half = (len(rows) + 1) // 2
        for candidate in (rows[:half], rows[half:]):
            state.attempts += 1
            sig = check(state.order, list(candidate), state.options)
            if sig:
                rows = list(candidate)
                state.signature = sig
                state.steps += 1
                break
        else:
            break  # neither half fails alone
    # Phase B: if chunking stalled above 1 row, scan for a single
    # failing row (the chunk may carry passengers)
    if len(rows) > 1:
        for row in rows:
            state.attempts += 1
            sig = check(state.order, [row], state.options)
            if sig:
                rows = [row]
                state.signature = sig
                state.steps += 1
                break
    state.rows = rows
    state.batch_minimal = len(rows) == 1
    if not state.batch_minimal:
        state.trace.append(
            f"batch stalled at {len(rows)} rows — batch-dependent bug"
        )


def _shrink_options(state: ShrinkResult, check: CheckFn) -> None:
    for key, neutral in (("stuck_switches", None),
                         ("omega_mode", False)):
        if state.options.get(key) in (None, False):
            continue
        candidate = dict(state.options)
        candidate[key] = neutral
        state.attempts += 1
        sig = check(state.order, list(state.rows), candidate)
        if sig:
            state.options = candidate
            state.signature = sig
            state.steps += 1
            state.trace.append(f"dropped option {key}")


def _shrink_rows_toward_identity(state: ShrinkResult,
                                 check: CheckFn) -> None:
    """Greedy per-position simplification, to a fixpoint: for each row
    and position, try making it the identity at that position —
    swapping for permutations (stays a permutation), overwriting for
    raw tag vectors."""
    changed = True
    while changed:
        changed = False
        for r, row in enumerate(list(state.rows)):
            is_perm = _is_permutation(row)
            for i in range(len(row)):
                if row[i] == i:
                    continue
                cells = list(row)
                if is_perm:
                    j = cells.index(i)
                    cells[i], cells[j] = cells[j], cells[i]
                else:
                    cells[i] = i
                candidate_row = tuple(cells)
                candidate = list(state.rows)
                candidate[r] = candidate_row
                state.attempts += 1
                sig = check(state.order, candidate, state.options)
                if sig:
                    state.rows = candidate
                    state.signature = sig
                    state.steps += 1
                    row = candidate_row
                    changed = True


def shrink(order: int, rows: Sequence[Row], options: Dict[str, object],
           check: CheckFn, *,
           order_probe: Optional[Callable[[int], Optional[Tuple[
               List[Row], Dict[str, object]]]]] = None,
           ) -> Optional[ShrinkResult]:
    """Minimize a failing scenario.  Returns None if the scenario does
    not actually fail under ``check`` (a flaky report — surfaced to the
    caller rather than silently 'minimized' to nonsense).

    ``order_probe(smaller_order)`` may return a replacement
    ``(rows, options)`` scenario at a smaller order to try; the shrink
    restarts there when that scenario still fails.
    """
    sig = check(order, list(rows), dict(options))
    if not sig:
        return None
    state = ShrinkResult(order=order, rows=[tuple(r) for r in rows],
                         options=dict(options), signature=sig,
                         attempts=1)
    _shrink_batch(state, check)
    if order_probe is not None:
        for smaller in range(1, state.order):
            probe = order_probe(smaller)
            if probe is None:
                continue
            probe_rows, probe_options = probe
            state.attempts += 1
            sig = check(smaller, list(probe_rows), dict(probe_options))
            if sig:
                state.trace.append(
                    f"reproduced at order {smaller} (from "
                    f"{state.order})"
                )
                state.order = smaller
                state.rows = [tuple(r) for r in probe_rows]
                state.options = dict(probe_options)
                state.signature = sig
                state.steps += 1
                _shrink_batch(state, check)
                break
    _shrink_options(state, check)
    _shrink_rows_toward_identity(state, check)
    return state


def regression_test_source(result: ShrinkResult,
                           engine_a: str, engine_b: str,
                           slug: str = "shrunk") -> str:
    """Render a shrunken counterexample as a standalone pytest function
    pinning the two engines' full agreement on that exact input."""
    options = result.options
    stuck = options.get("stuck_switches") or None
    lines = [
        f"def test_verify_regression_{slug}():",
        f'    """Pinned by repro.verify.shrink: {result.signature}',
        f'    ({engine_a} vs {engine_b}, order {result.order})."""',
        "    from repro.engines import run_engine",
        "",
        f"    rows = {[list(r) for r in result.rows]!r}",
        f"    kwargs = dict(omega_mode="
        f"{bool(options.get('omega_mode'))!r},",
        f"                  stuck_switches={stuck!r})",
        f"    a = run_engine({engine_a!r}, rows, "
        f"order={result.order}, **kwargs)",
        f"    b = run_engine({engine_b!r}, rows, "
        f"order={result.order}, **kwargs)",
        "    assert a.success == b.success",
        "    assert a.mappings == b.mappings",
        "    assert a.states == b.states",
        "",
    ]
    return "\n".join(lines)
