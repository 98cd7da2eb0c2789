"""Vectorized **universal setup**: batch Waksman looping and the batch
two-pass decomposition.

:mod:`repro.accel.batch` vectorizes the *self-routing* surface; this
module vectorizes the paper's other half — the ``O(N log N)`` serial
looping setup it benchmarks against (Waksman 1968, Section I) and the
two-pass universality construction (Section II) — so the
all-``N!``-permutations path scales like the ``F(n)`` path.

**Batched looping** (:func:`batch_setup_states`).  The serial algorithm
walks each input/output-pair constraint cycle one element at a time;
here a whole ``(B, N)`` permutation array is processed *level by
level*, every cycle of every instance at once:

- the looping successor ``succ(t) = inv[D[t XOR 1] XOR 1]`` of every
  terminal is two NumPy gathers;
- each succ-orbit elects its minimum-index **leader** by pointer
  jumping (``log m`` doubling steps, each one gather + one ``minimum``)
  — exactly the data-parallel formulation of
  :mod:`repro.simd.parallel_setup`, which provably assigns the same
  sub-network sides as the serial walk: the serial scan starts every
  cycle at its smallest untouched terminal with side 0, so *side 0 is
  the orbit with the smaller leader* (the states are byte-identical to
  :func:`repro.core.waksman.setup_states`, pinned by
  ``tests/test_accel_setup.py``);
- the first/last switch columns fall out of the side array with one
  slice and one gather, and the two half-size sub-problems of every
  instance are stacked onto the batch axis (``(B*S, m)`` with ``S``
  same-level sub-problems of size ``m``) so the next level is again one
  flat array pass — no recursion, no Python per cycle.

The same level loop, stopped early, is the composed engine's **peel**
(:func:`peel_level_stream`).

**Batch two-pass** (:func:`batch_two_pass`).  Mirrors
:mod:`repro.core.twopass`: run the batched looping setup, push identity
rows through the first ``n`` switch columns with the stage plan's link
gathers to read the half-way map ``M``, compose with the cached
inverse of the fixed all-straight wire map — one gather for
``omega_1`` and one scatter for ``omega_2``.
:func:`batch_route_two_pass` then routes both factors through the
batch engine (pass 1 ordinary self-routing, pass 2 with the omega
bit set) and composes the delivered mappings.

Per-order constants (the fixed all-straight map and its inverse) live
in a :class:`SetupPlan`, cached in the bounded LRU exposed through
:func:`repro.accel.cache_stats` next to the topology and stage-plan
caches.

The NumPy kernels here are the ``setup_states`` / ``two_pass`` cells of
the ``numpy`` row of :data:`repro.accel.kernels.KERNELS`; the entry
points go through :func:`repro.accel.batch.dispatch` like every batch
op, so they accept ``parallel=`` and ``engine=`` and degrade to the
scalar algorithms when NumPy is absent — identical values, element for
element.
"""

from __future__ import annotations

from ..core.permutation import Permutation
from ..core.routing import BatchRouteResult
from ..errors import (
    InvalidParameterError,
    InvalidPermutationError,
    SizeMismatchError,
)
from ..obs.spans import spanned as _spanned
from ._np import numpy_or_none
from .batch import _as_tag_array, _realized, batch_self_route, dispatch
from .plans import setup_plan_cache

__all__ = [
    "SetupPlan",
    "batch_setup_states",
    "batch_two_pass",
    "batch_route_two_pass",
    "peel_level_stream",
    "setup_plan",
]


class SetupPlan:
    """Per-order constants of the batched universal setup.

    Attributes:
        order: the paper's ``n``.
        n_terminals: ``N = 2^n``.
        straight: the fixed wire permutation the first ``n`` columns
            perform with every switch straight (the "rearrangement of
            switches" between the Benes half and a true inverse-omega
            network), as a tuple.
        straight_inverse: its inverse, the gather form used by the
            two-pass factorization.
    """

    __slots__ = ("order", "n_terminals", "straight", "straight_inverse",
                 "_np_straight_inverse")

    def __init__(self, order: int):
        # Local import: core.twopass pulls in the structural network,
        # which this leaf package must not require at import time.
        from ..core.twopass import straight_map

        self.order = order
        self.n_terminals = 1 << order
        self.straight = straight_map(order).as_tuple()
        self.straight_inverse = Permutation(self.straight) \
            .inverse().as_tuple()
        self._np_straight_inverse = None

    def np_straight_inverse(self):
        """``(N,)`` index array of :attr:`straight_inverse` (NumPy
        path only), built on first use."""
        if self._np_straight_inverse is None:
            np = numpy_or_none()
            arr = np.array(self.straight_inverse, dtype=np.intp)
            arr.setflags(write=False)
            self._np_straight_inverse = arr
        return self._np_straight_inverse


def setup_plan(order: int) -> SetupPlan:
    """The (cached) :class:`SetupPlan` for ``B(order)``."""
    return setup_plan_cache().get_or_build(
        order, lambda: SetupPlan(order)
    )


def _as_perm_array(np, order: int, perms):
    """Validate a ``(B, N)`` batch where every row must be a genuine
    permutation (the looping algorithm's cycles are only consistent on
    permutations — duplicates would walk forever); a list of int lists
    when ``np`` is None."""
    n = 1 << order
    if np is None:
        rows = [list(Permutation(row)) for row in perms]
        for row in rows:
            if len(row) != n:
                raise SizeMismatchError(
                    f"expected permutations of {n} elements for order "
                    f"{order}, got {len(row)}"
                )
        return rows
    arr = _as_tag_array(np, perms)
    if arr.shape[1] != n:
        raise SizeMismatchError(
            f"expected (B, {n}) permutations for order {order}, got "
            f"shape {arr.shape}"
        )
    if arr.size and (np.sort(arr, axis=1)
                     != np.arange(n, dtype=arr.dtype)).any():
        raise InvalidPermutationError(
            "every row of a setup batch must be a permutation — "
            "duplicate or missing destinations break the looping cycles"
        )
    return arr


def _leaders(np, succ, base, steps: int):
    """Minimum-index orbit leader of every element of the **flat**
    successor array (values are flat indices, so orbits compose with
    plain ``take``), by pointer jumping: after ``k`` doubling steps each
    element has folded ``2^k`` successors into its running minimum, so
    ``steps >= log2(orbit length)`` converges.  Leaders are flat indices
    too — orbits never cross a sub-problem boundary, so within any
    comparison the flat and local orderings agree."""
    leader = base.copy()
    jump = succ
    for _ in range(steps):
        leader = np.minimum(leader, leader.take(jump))
        jump = jump.take(jump)
    return leader


def _peel(np, order: int, arr, levels: int):
    """The batched looping algorithm's first ``levels`` levels,
    breadth-first, in the item format of :func:`peel_level_stream`
    (columns left as 0/1 bool / int arrays).

    All gathers run on **flat** arrays with precomputed per-sub-problem
    offsets (``ndarray.take`` / fancy assignment, no ``*_along_axis``
    wrapper overhead); the stacked sub-problems of every level occupy
    contiguous flat runs, so the (batch, sub-problem) structure is
    carried entirely by index arithmetic."""
    n = 1 << order
    batch = arr.shape[0]
    half = n // 2
    total = batch * n
    tags = arr.astype(np.intp).ravel()  # flat working copy
    base = np.arange(total, dtype=np.intp)
    inv = np.empty(total, dtype=np.intp)
    for level in range(levels):
        m = n >> level
        offs = base & ~(m - 1)  # flat start of each sub-problem
        # inverse permutation of every sub-problem: inv[D[t]] = t,
        # both sides in flat coordinates (full overwrite every level)
        inv[tags + offs] = base
        # looping successor succ(t) = inv[D[t ^ 1] ^ 1]; the partner's
        # tag is one pair-flip of the flat layout away
        partner_tags = tags.reshape(-1, 2)[:, ::-1].ravel()
        succ = inv.take((partner_tags ^ 1) + offs)
        leader = _leaders(np, succ, base,
                          steps=max(1, order - level - 1))
        # serial walk starts each cycle at its smallest untouched
        # terminal with side 0 => side 0 iff my orbit's leader is the
        # smaller of the pair (matches the scalar states exactly).
        pairs = leader.reshape(-1, 2)
        side_even = pairs[:, 0] >= pairs[:, 1]  # side of even terminals
        yield ("entry", level, side_even.reshape(batch, half))
        # last column: side of the terminal feeding each even output;
        # side[t] = side_even[t >> 1] ^ (t & 1), t = inv at even slots
        sources = inv[0::2]
        yield ("exit", level,
               (side_even.take(sources >> 1) ^ (sources & 1))
               .reshape(batch, half))
        even, odd = tags[0::2], tags[1::2]
        upper = (np.where(side_even, odd, even) >> 1).reshape(-1, m // 2)
        lower = (np.where(side_even, even, odd) >> 1).reshape(-1, m // 2)
        # stack (sub-problem-major) onto the batch axis: row r splits
        # into rows 2r (its upper half) and 2r + 1 (its lower half) —
        # exactly the recursion order of the serial algorithm, so each
        # level's columns concatenate into the stage rows above.
        tags = np.stack((upper, lower), axis=1).ravel()
    yield ("subs", -1, tags.reshape(batch << levels, n >> levels))


def _scalar_peel(order: int, rows, levels: int):
    """Pure-Python :func:`_peel`: the serial looping assignment
    (:func:`repro.core.waksman.looping_assignment`) on every
    sub-problem of a level, stacked in the same recursion order, with
    the columns as per-instance lists."""
    from ..core.waksman import looping_assignment

    half = 1 << (order - 1)
    subs = rows
    for level in range(levels):
        first, last, nxt = [], [], []
        for tags in subs:
            side = looping_assignment(tags)
            inverse = [0] * len(tags)
            for t, d in enumerate(tags):
                inverse[d] = t
            first.extend(side[0::2])
            last.extend(side[t] for t in inverse[0::2])
            upper = [0] * (len(tags) // 2)
            lower = [0] * (len(tags) // 2)
            for t, d in enumerate(tags):
                (upper if side[t] == 0 else lower)[t >> 1] = d >> 1
            nxt.append(upper)
            nxt.append(lower)
        yield ("entry", level, [first[i:i + half]
                                for i in range(0, len(first), half)])
        yield ("exit", level, [last[i:i + half]
                               for i in range(0, len(last), half)])
        subs = nxt
    yield ("subs", -1, subs)


def _setup_levels(np, order: int, arr):
    """The ``(B, 2n-1, N/2)`` int8 states of the validated ``(B, N)``
    permutation array ``arr``: the peel run ``order - 1`` levels deep
    (none for order 1), then the ``m == 2`` base case — one switch per
    sub-problem, crossed iff its upper terminal's tag is 1."""
    batch = arr.shape[0]
    states = np.empty((batch, 2 * order - 1, 1 << (order - 1)),
                      dtype=np.int8)
    for kind, level, payload in _peel(np, order, arr, order - 1):
        if kind == "entry":
            states[:, level, :] = payload
        elif kind == "exit":
            states[:, 2 * order - 2 - level, :] = payload
        else:
            states[:, order - 1, :] = payload[:, 0].reshape(batch, -1)
    return states


def peel_level_stream(np, order: int, arr, levels: int):
    """Generator core of the composed-block engine's **peel**: run the
    first ``levels`` levels of the batched looping algorithm
    breadth-first, streaming each level's two finished switch columns
    out the moment they exist.

    Yields ``("entry", level, col)`` then ``("exit", level, col)`` per
    level — ``col`` a ``(B, N/2)`` int8 array holding global switch
    column ``level`` resp. ``2*order - 2 - level`` — and finally one
    ``("subs", -1, subs)`` item with the ``(B << levels, N >> levels)``
    array of sub-network permutations in recursion (block-major)
    order: row ``b * 2**levels + k`` is the local permutation of middle
    block ``k`` of instance ``b``, whose switch columns occupy slice
    ``[k*w, (k+1)*w)`` (``w = N >> (levels + 1)``) of the global
    columns ``levels .. 2*order-2-levels``.  Assembling the yielded
    pieces reproduces :func:`batch_setup_states` byte for byte (pinned
    by ``tests/test_composed.py``).

    Peak working memory is ``O(B * N)`` machine words — never the
    ``O(B * N * order)`` full state tensor, which is the point: the
    composed engine forwards the columns/blocks downstream as chunks.

    With ``np`` None, ``arr`` is a list of validated int lists
    (:func:`_as_perm_array`) and the same items come out as lists: the
    columns as ``B`` lists of ``N/2`` ints, ``subs`` as
    ``B << levels`` lists, from the serial looping assignment run on
    every sub-problem of a level.
    """
    if not 1 <= levels <= order - 1:
        raise InvalidParameterError(
            f"peel depth must satisfy 1 <= levels <= order - 1; got "
            f"levels={levels} for order {order}"
        )
    if np is None:
        yield from _scalar_peel(order, arr, levels)
        return
    for kind, level, payload in _peel(np, order, arr, levels):
        yield kind, level, (payload if kind == "subs"
                            else payload.astype(np.int8))


def numpy_setup_states(perms, *, order: int):
    """The ``numpy`` kernel of :func:`batch_setup_states`."""
    np = numpy_or_none()
    return _setup_levels(np, order, _as_perm_array(np, order, perms))


def numpy_two_pass(perms, *, order: int):
    """The ``numpy`` kernel of :func:`batch_two_pass`."""
    np = numpy_or_none()
    arr = _as_perm_array(np, order, perms)
    # M: where each input sits after the first n switch columns.
    middle = _realized(np, _setup_levels(np, order, arr), order, order)
    # omega_1 = M ∘ M_straight^{-1}  (gather), then
    # omega_2 = omega_1^{-1} ∘ D    (scatter: second[first[i]] = D[i]).
    first = setup_plan(order).np_straight_inverse()[middle]
    second = np.empty_like(arr)
    np.put_along_axis(second, first, arr, axis=1)
    return first, second


def batch_setup_states(order: int, perms, *, parallel=False,
                       engine=None):
    """Switch states realizing a whole batch of **arbitrary**
    permutations on ``B(order)`` — the batched equivalent of
    ``[setup_states(p) for p in perms]``, byte-identical to the serial
    looping algorithm of :mod:`repro.core.waksman`.

    Args:
        perms: ``(B, N)`` array-like; every row must be a permutation
            and ``B >= 1``.
        parallel: shard the batch across threads above the executor
            threshold (``True`` for one worker per usable CPU, an int
            for an explicit worker count).
        engine: execution engine as in
            :func:`repro.accel.batch_self_route`.  The looping side
            assignment has no bit-sliced formulation, so
            ``"bitslice"`` here runs the scalar algorithm per instance
            and ``auto`` resolves to numpy-or-scalar.

    Returns:
        a ``(B, 2*order - 1, N/2)`` int8 array (a list of per-instance
        nested state lists on the pure-Python engines) that plugs
        straight into :func:`repro.accel.batch_route_with_states`.
    """
    return dispatch("setup_states", perms, engine=engine,
                    parallel=parallel, order=order)


def batch_two_pass(order: int, perms, *, parallel=False, engine=None):
    """Factor a whole batch of arbitrary permutations for two-pass
    universal routing: returns ``(omega_1, omega_2)`` as ``(B, N)``
    arrays with ``omega_2[omega_1] == perms`` row-wise, ``omega_1``
    inverse-omega (self-routable) and ``omega_2`` omega (routable with
    the omega bit set) — the batched equivalent of
    ``[two_pass_decomposition(p) for p in perms]``, identical factors.

    On the pure-Python engines both factors are lists of tuples;
    ``engine="bitslice"`` pushes the first-half map through the switch
    columns lane-parallel (scalar side assignment, bit-sliced transit
    — see :func:`repro.accel.bitslice.bitslice_two_pass`), and
    ``"composed"`` runs on its inner engine (the factorization reads
    the global first-half map; it does not block-decompose).
    """
    return dispatch("two_pass", perms, engine=engine, parallel=parallel,
                    order=order)


@_spanned("batch.route_two_pass")
def batch_route_two_pass(order: int, perms, *, parallel=False,
                         engine=None) -> BatchRouteResult:
    """Route a batch of arbitrary permutations by two self-routed
    transits each — factor with :func:`batch_two_pass`, route pass 1
    through the ordinary batch engine and pass 2 with the omega bit
    set, and compose the delivered mappings.  ``engine`` forwards to
    both the factorization and the two transits.

    Returns a :class:`~repro.core.routing.BatchRouteResult` whose
    ``mappings`` row ``b`` is the composed input -> position-of-signal
    view (``mappings[b][o]`` = input whose signal reached output ``o``
    after both transits); ``success_mask`` is all-True for genuine
    permutations (two-pass universality, Section II).
    """
    first, second = batch_two_pass(order, perms, parallel=parallel,
                                   engine=engine)
    pass1 = batch_self_route(first, parallel=parallel, engine=engine)
    pass2 = batch_self_route(second, omega_mode=True, parallel=parallel,
                             engine=engine)
    # Compose by result *type*, not NumPy availability: a forced
    # pure-Python engine returns lists even with the accel extra
    # installed.
    if isinstance(pass1.mappings, list):
        success = [a and b for a, b in zip(pass1.success_mask,
                                           pass2.success_mask)]
        mappings = [
            tuple(m1[o] for o in m2)
            for m1, m2 in zip(pass1.mappings, pass2.mappings)
        ]
        return BatchRouteResult(success_mask=success, mappings=mappings)
    np = numpy_or_none()
    mappings = np.take_along_axis(
        np.asarray(pass1.mappings), np.asarray(pass2.mappings), axis=1
    )
    success = np.asarray(pass1.success_mask) \
        & np.asarray(pass2.success_mask)
    return BatchRouteResult(success_mask=success, mappings=mappings)
