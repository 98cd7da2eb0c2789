"""The kernel table: one row per batch execution engine.

Every engine computes the same function — each switch sets itself from
bit ``b`` of its upper input's destination tag — and differs only in
the kernel that evaluates it over a ``(B, N)`` batch:

- ``scalar`` — the per-row integer fast path and the scalar Waksman /
  two-pass algorithms (defined here);
- ``numpy`` — the vectorized ``(N, B)`` kernels of
  :mod:`repro.accel.batch` and :mod:`repro.accel.setup`;
- ``bitslice`` — the big-int lane-parallel kernels of
  :mod:`repro.accel.bitslice`;
- ``composed`` — the block decomposition of :mod:`repro.accel.composed`,
  which hands its sub-network blocks back to the other rows.

Each row maps an op to a kernel called as ``kernel(rows, **options)``:

========================  =============================================
op                        options
========================  =============================================
``self_route``            ``omega_mode``, ``stage_data``,
                          ``stage_states``, ``stuck_switches``,
                          ``_stage_totals`` (metrics tap: a list the
                          kernel extends with per-stage cross totals
                          when it can)
``in_class_f``            —
``route_with_states``     ``order``, ``stage_data``
``setup_states``          ``order``
``two_pass``              ``order``
========================  =============================================

The ``composed`` kernels also take ``parallel``: they shard their
inner block batches themselves (``two_pass``, which has no block form,
its whole batch on the inner engine).  :func:`repro.accel.batch.dispatch` is
the one caller — it resolves the engine, shards through the executor
and records the ``accel.*`` metrics around the kernel call.
"""

from __future__ import annotations

from ..core.bits import log2_exact
from ..core.fastpath import (
    fast_route_with_states,
    fast_self_route,
    fast_self_route_states,
)
from ..core.routing import BatchRouteResult
from . import batch, bitslice, composed, setup
from ._np import auto_engine

__all__ = ["ENGINES", "KERNELS", "scalar_in_class_f",
           "scalar_route_with_states", "scalar_self_route",
           "scalar_setup_states", "scalar_two_pass"]


def _check_tag_range(tags) -> None:
    """Reject a row whose width is not a power of two, then a row
    holding a tag outside ``[0, N)``, with the errors of the other
    kernels (``fast_self_route`` itself answers an out-of-range row
    with a failure, ``in_class_f`` with ``InvalidPermutationError``)."""
    n = len(tags)
    log2_exact(n)
    if not (0 <= min(tags) and max(tags) < n):
        raise batch._tag_range_error(n)


def scalar_self_route(tags_batch, *, omega_mode=False, stage_data=False,
                      stage_states=False, stuck_switches=None,
                      _stage_totals=None) -> BatchRouteResult:
    """``[fast_self_route(t) for t in tags_batch]`` as a batch result,
    with the batch kernels' tag range check.  The loop keeps no
    per-stage tallies, so ``per_stage`` stays ``None`` and the metrics
    tap is left empty."""
    successes, delivered, states = [], [], []
    for tags in tags_batch:
        _check_tag_range(tags)
        if stage_states:
            ok, dst, st = fast_self_route_states(
                tags, omega_mode=omega_mode,
                stuck_switches=stuck_switches)
            states.append(st)
        else:
            ok, dst = fast_self_route(tags, omega_mode=omega_mode,
                                      stuck_switches=stuck_switches)
        successes.append(ok)
        delivered.append(dst)
    return BatchRouteResult(success_mask=successes, mappings=delivered,
                            stage_states=states if stage_states else None)


def scalar_in_class_f(perms_batch) -> list:
    """Theorem-1 verdicts; the recursion exits on the first conflict,
    so it beats a full scalar routing pass.  A row of in-range tags
    with a repeat is no permutation and no routing delivers it, so it
    answers ``False``, as the routing kernels do."""
    from ..core.membership import in_class_f

    verdicts = []
    for perm in perms_batch:
        _check_tag_range(perm)
        verdicts.append(len(set(perm)) == len(perm) and in_class_f(perm))
    return verdicts


def scalar_route_with_states(states_batch, *, order: int,
                             stage_data=False) -> BatchRouteResult:
    """``[fast_route_with_states(s, order) for s in states_batch]``;
    like the self-route loop it keeps no per-stage tallies."""
    mappings = [fast_route_with_states(states, order)
                for states in states_batch]
    return BatchRouteResult(success_mask=[True] * len(mappings),
                            mappings=mappings)


def scalar_setup_states(perms, *, order: int) -> list:
    """The serial Waksman looping algorithm applied per instance."""
    from ..core.waksman import setup_states

    return [setup_states(p) for p in perms]


def scalar_two_pass(perms, *, order: int):
    """The scalar two-pass decomposition per instance, as
    ``(firsts, seconds)`` lists of tuples."""
    from ..core.twopass import two_pass_decomposition

    firsts, seconds = [], []
    for p in perms:
        first, second = two_pass_decomposition(p)
        firsts.append(first.as_tuple())
        seconds.append(second.as_tuple())
    return firsts, seconds


def _composed_two_pass(perms, *, order: int, parallel=False):
    """The two-pass factorization reads the *global* first-half map —
    it does not block-decompose — so the composed row runs it whole on
    the inner engine, sharded like any batch; the factors are identical
    either way."""
    inner = auto_engine(order, len(perms), "setup", composed=False)
    return setup.batch_two_pass(order, perms, engine=inner,
                                parallel=parallel)


KERNELS = {
    "scalar": {
        "self_route": scalar_self_route,
        "in_class_f": scalar_in_class_f,
        "route_with_states": scalar_route_with_states,
        "setup_states": scalar_setup_states,
        "two_pass": scalar_two_pass,
    },
    "numpy": {
        "self_route": batch.numpy_self_route,
        "in_class_f": batch.numpy_in_class_f,
        "route_with_states": batch.numpy_route_with_states,
        "setup_states": setup.numpy_setup_states,
        "two_pass": setup.numpy_two_pass,
    },
    "bitslice": {
        "self_route": bitslice.bitslice_self_route,
        "in_class_f": bitslice.bitslice_in_class_f,
        "route_with_states": bitslice.bitslice_route_with_states,
        # Looping is data-dependent cycle chasing: no lane-parallel form.
        "setup_states": scalar_setup_states,
        "two_pass": lambda perms, *, order:
            bitslice.bitslice_two_pass(order, perms),
    },
    "composed": {
        "self_route": composed.composed_self_route,
        "in_class_f": composed.composed_in_class_f,
        "route_with_states": composed.composed_route_with_states,
        "setup_states": lambda perms, *, order, parallel=False:
            composed.composed_setup_states(order, perms,
                                           parallel=parallel),
        "two_pass": _composed_two_pass,
    },
}

#: The engine names, in table order — what ``engine=`` accepts.
ENGINES = tuple(KERNELS)
