"""Quantifying the "richness" of class F (Section II, CLM-RICH).

The paper argues qualitatively that ``F(n)`` is much larger than the
omega class and contains all of BPC, the inverse-omega class and
Lenfant's FUB families.  This module makes the claim quantitative:

- exact ``|F(n)|`` by exhaustive enumeration for ``n <= 3``;
- a sampling estimator of ``|F(n)| / N!`` for larger ``n``;
- closed forms ``|BPC(n)| = 2^n n!`` and
  ``|Omega(n)| = |InverseOmega(n)| = 2^{n N/2}``;
- exact intersection/containment counts for small ``n`` (e.g. how many
  omega permutations fall outside F — the Fig. 5 phenomenon).
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass
from itertools import permutations as _all_permutations
from typing import Dict

from ..accel._np import require_numpy
from ..accel.batch import batch_in_class_f
from ..core.membership import enumerate_class_f, in_class_f
from ..core.permutation import Permutation, random_permutation
from ..errors import InvalidParameterError
from ..permclasses.bpc import is_bpc
from ..permclasses.omega import is_inverse_omega, is_omega

__all__ = [
    "bpc_count",
    "class_f_count",
    "class_f_count_fast",
    "estimate_class_f_density",
    "class_census",
    "ClassCensus",
]


def bpc_count(order: int) -> int:
    """``|BPC(n)| = 2^n * n!``."""
    return (1 << order) * math.factorial(order)


def class_f_count(order: int, limit_order: int = 3) -> int:
    """Exact ``|F(order)|`` by exhaustive enumeration (guarded to
    ``order <= limit_order``; ``8! = 40320`` cases at order 3)."""
    if order > limit_order:
        raise InvalidParameterError(
            f"exhaustive count limited to order <= {limit_order}; "
            "use estimate_class_f_density for larger orders"
        )
    n_elements = 1 << order
    return sum(
        1 for p in _all_permutations(range(n_elements)) if in_class_f(p)
    )


def estimate_class_f_density(order: int, samples: int,
                             rng: "_random.Random | None" = None,
                             batch_size: int = 1024,
                             parallel=False) -> float:
    """Monte-Carlo estimate of ``|F(n)| / N!`` — the probability that a
    uniformly random permutation is self-routable.

    Candidates are drawn from ``rng`` one by one (so a given seed sees
    the exact same permutation stream as the historical scalar loop)
    but membership-tested in blocks of ``batch_size`` through the
    vectorized engine of :mod:`repro.accel` — the hot path of large
    density sweeps.  ``parallel`` forwards to the shard executor
    (:mod:`repro.accel.executor`), splitting blocks above its threshold
    across threads.  Falls back to the scalar Theorem 1
    recursion when NumPy is absent, with identical results.
    """
    rng = rng if rng is not None else _random.Random()
    n_elements = 1 << order
    hits = 0
    remaining = samples
    while remaining > 0:
        block = min(batch_size, remaining)
        candidates = [
            random_permutation(n_elements, rng).as_tuple()
            for _ in range(block)
        ]
        hits += sum(map(bool, batch_in_class_f(candidates,
                                               parallel=parallel)))
        remaining -= block
    return hits / samples


def _transfer_traces(max_len: int) -> Dict[int, int]:
    """``trace(M^d)`` for the transfer matrix ``M = [[2,1],[1,0]]``:
    the number of valid per-cycle parameter assignments along a
    sigma-cycle of length ``d`` (see :mod:`repro.core.sampling`).
    Satisfies ``t_d = 2 t_{d-1} + t_{d-2}``."""
    traces = {1: 2, 2: 6}
    for d in range(3, max_len + 1):
        traces[d] = 2 * traces[d - 1] + traces[d - 2]
    return traces


def class_f_count_fast(order: int) -> int:
    """Exact ``|F(order)|`` by the transfer-matrix recursion over all
    pairs of ``F(order-1)`` members, vectorized with numpy.

    ``|F(n)| = sum over (u, l) in F(n-1)^2 of prod over cycles c of
    u^{-1}∘l of trace(M^{|c|})`` — the same identity as
    :func:`repro.core.sampling.class_f_count_recursive`, but fast
    enough to compute the previously out-of-reach ``|F(4)|`` exactly
    (the exhaustive route would need to test 16! ≈ 2·10^13
    permutations).

    Practical up to ``order = 4`` (a few minutes); ``order = 5`` would
    need |F(4)|^2 ≈ 10^22 pairs.
    """
    if order < 1:
        raise InvalidParameterError(f"order must be >= 1, got {order}")
    if order == 1:
        return 2
    np = require_numpy("class_f_count_fast")

    members = np.array(
        [p.as_tuple() for p in enumerate_class_f(order - 1)],
        dtype=np.int64,
    )
    n_members, half = members.shape
    traces = _transfer_traces(half)
    positions = np.arange(half)
    total = 0
    for u in members:
        u_inv = np.empty(half, dtype=np.int64)
        u_inv[u] = positions
        sigma = u_inv[members]                      # (m, half)
        fixed = np.empty((half + 1, n_members), dtype=np.int64)
        current = sigma
        for k in range(1, half + 1):
            fixed[k] = (current == positions).sum(axis=1)
            if k < half:
                current = np.take_along_axis(sigma, current, axis=1)
        # invert f_k = sum_{d | k} d * c_d  to get cycle counts c_d
        cycle_counts = np.zeros((half + 1, n_members), dtype=np.int64)
        for d in range(1, half + 1):
            surplus = fixed[d].copy()
            for e in range(1, d):
                if d % e == 0:
                    surplus -= e * cycle_counts[e]
            cycle_counts[d] = surplus // d
        weights = np.ones(n_members, dtype=np.int64)
        for d in range(1, half + 1):
            weights *= np.power(traces[d], cycle_counts[d])
        total += int(weights.sum())
    return total


@dataclass(frozen=True)
class ClassCensus:
    """Exact joint classification of all N! permutations at one order.

    Every count is the number of permutations with the given property;
    ``omega_not_f`` witnesses the Fig. 5 phenomenon
    (``Omega(n) ⊄ F(n)``) and the zero ``inverse_omega_not_f`` and
    ``bpc_not_f`` witness Theorems 3 and 2.
    """

    order: int
    total: int
    in_f: int
    in_bpc: int
    in_omega: int
    in_inverse_omega: int
    bpc_not_f: int
    omega_not_f: int
    inverse_omega_not_f: int
    f_not_bpc_not_omega_not_inverse: int


def class_census(order: int, limit_order: int = 3) -> ClassCensus:
    """Exhaustively classify every permutation of ``2^order`` elements
    against F, BPC, Omega and InverseOmega (``order <= limit_order``)."""
    if order > limit_order:
        raise InvalidParameterError(
            f"census limited to order <= {limit_order}"
        )
    n_elements = 1 << order
    total = in_f = in_bpc = in_om = in_iom = 0
    bpc_not_f = omega_not_f = iom_not_f = only_f = 0
    for dest in _all_permutations(range(n_elements)):
        perm = Permutation(dest)
        total += 1
        f = in_class_f(perm)
        b = is_bpc(perm) is not None
        o = is_omega(perm)
        io = is_inverse_omega(perm)
        in_f += f
        in_bpc += b
        in_om += o
        in_iom += io
        bpc_not_f += b and not f
        omega_not_f += o and not f
        iom_not_f += io and not f
        only_f += f and not b and not o and not io
    return ClassCensus(
        order=order,
        total=total,
        in_f=in_f,
        in_bpc=in_bpc,
        in_omega=in_om,
        in_inverse_omega=in_iom,
        bpc_not_f=bpc_not_f,
        omega_not_f=omega_not_f,
        inverse_omega_not_f=iom_not_f,
        f_not_bpc_not_omega_not_inverse=only_f,
    )
