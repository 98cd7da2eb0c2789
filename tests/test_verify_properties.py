"""Hypothesis metamorphic property tests across every engine
generation (orders 2-7).

These are the laws the differential verifier (``repro.verify``) leans
on, pinned as properties so hypothesis explores the input space instead
of a fixed seed:

- cross-engine agreement on arbitrary permutations and tag vectors;
- routing success delivers exactly ``p^-1`` at the outputs;
- omega-mode success coincides with :func:`is_omega`, and
  ``is_inverse_omega(p) == is_omega(p.inverse())`` (the valid inverse
  law — note ``F(n)`` itself is *not* closed under inversion, so no
  test here may assert that);
- Theorem-4 block composites of ``F(r)`` members are in ``F(order)``
  under every membership engine, and within-block composition commutes
  with :func:`within_blocks`;
- the two-pass decomposition's factors compose back to ``p`` and the
  batch decomposition matches the scalar one;
- the Waksman universal setup realizes ``p`` under every
  external-state engine.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Permutation, in_class_f
from repro.core.fastpath import fast_self_route
from repro.core.sampling import random_class_f
from repro.permclasses import is_inverse_omega, is_omega
from repro.permclasses.blocks import JPartition, within_blocks
from repro.verify import (
    check_membership,
    check_selfroute,
    check_twopass,
    check_universal,
)
from repro.engines import MEMBERSHIP_ENGINES, SELF_ROUTE_ENGINES

#: Spawn-pool-free engine subset — property tests run hundreds of
#: examples; worker-pool startup per example would dominate.
ENGINES = {
    name: engine for name, engine in SELF_ROUTE_ENGINES.items()
    if name != "sharded"
}

FEW = settings(max_examples=20, deadline=None)
SOME = settings(max_examples=40, deadline=None)


def perms(order):
    """Strategy: a random permutation of 2^order elements."""
    return st.permutations(list(range(1 << order))).map(Permutation)


@st.composite
def order_and_perm(draw, min_order=2, max_order=7):
    """Strategy: ``(order, Permutation)`` across the order range —
    order 7 is B(7) with 128 terminals and 13 columns."""
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    return order, draw(perms(order))


@st.composite
def order_and_tags(draw, min_order=2, max_order=6):
    """Strategy: ``(order, tag vector)`` — arbitrary destination tags,
    duplicates allowed (legal self-routing input that is not a
    permutation)."""
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    n = 1 << order
    tags = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                         min_size=n, max_size=n))
    return order, tuple(tags)


@st.composite
def order_and_class_f(draw, min_order=2, max_order=7):
    """Strategy: ``(order, member of F(order))`` via the seeded
    sampler."""
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return order, random_class_f(order, random.Random(seed))


@st.composite
def block_scenario(draw, min_order=2, max_order=6):
    """Strategy: a Theorem-4 scenario — a J-partition of ``order`` and
    two independent per-block F(r) assignments."""
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    j_size = draw(st.integers(min_value=1, max_value=order - 1))
    j_bits = draw(st.permutations(list(range(order)))
                  .map(lambda bits: tuple(sorted(bits[:j_size]))))
    partition = JPartition(order, j_bits)
    r = partition.block_order
    seeds = draw(st.tuples(st.integers(min_value=0, max_value=2 ** 32),
                           st.integers(min_value=0, max_value=2 ** 32)))
    blocks_g = [random_class_f(r, random.Random(seeds[0] + b))
                for b in range(partition.n_blocks)]
    blocks_h = [random_class_f(r, random.Random(seeds[1] + b))
                for b in range(partition.n_blocks)]
    return partition, blocks_g, blocks_h


class TestEngineAgreement:
    @FEW
    @given(order_and_perm())
    def test_engines_agree_on_permutations(self, scenario):
        order, p = scenario
        assert check_selfroute([p.as_tuple()], order,
                               engines=ENGINES) == []

    @FEW
    @given(order_and_tags())
    def test_engines_agree_on_raw_tags(self, scenario):
        order, tags = scenario
        engines = {k: v for k, v in ENGINES.items() if k != "oracle"}
        assert check_selfroute([tags], order, engines=engines) == []

    @FEW
    @given(order_and_perm(max_order=5))
    def test_engines_agree_under_single_fault(self, scenario):
        order, p = scenario
        stuck = {(order - 1, 0): 1}  # first destination column
        assert check_selfroute([p.as_tuple()], order,
                               stuck_switches=stuck,
                               engines=ENGINES) == []

    @FEW
    @given(order_and_perm())
    def test_membership_engines_agree(self, scenario):
        order, p = scenario
        assert check_membership([p.as_tuple()], order) == []

    @FEW
    @given(order_and_perm())
    def test_membership_engines_agree_on_inverse(self, scenario):
        # F(n) is NOT closed under inversion, so the inverse's verdict
        # is genuinely independent input — engines must still agree.
        order, p = scenario
        assert check_membership([p.inverse().as_tuple()], order) == []


class TestRoutingLaws:
    @SOME
    @given(order_and_perm())
    def test_success_delivers_inverse(self, scenario):
        order, p = scenario
        ok, delivered = fast_self_route(p.as_tuple())
        assert ok == in_class_f(p)
        if ok:
            assert delivered == p.inverse().as_tuple()

    @SOME
    @given(order_and_class_f())
    def test_class_f_members_route_everywhere(self, scenario):
        order, p = scenario
        row = p.as_tuple()
        for name, engine in ENGINES.items():
            run = engine([row], order)
            assert run.success == (True,), name
            assert run.mappings[0] == p.inverse().as_tuple(), name

    @SOME
    @given(order_and_perm())
    def test_omega_mode_iff_is_omega(self, scenario):
        order, p = scenario
        ok, _ = fast_self_route(p.as_tuple(), omega_mode=True)
        assert ok == is_omega(p)

    @SOME
    @given(order_and_perm())
    def test_inverse_omega_law(self, scenario):
        _, p = scenario
        assert is_inverse_omega(p) == is_omega(p.inverse())


class TestTheorem4Metamorphic:
    @FEW
    @given(block_scenario())
    def test_block_composite_in_class_f(self, scenario):
        partition, blocks_g, _ = scenario
        composite = within_blocks(partition,
                                  lambda b: blocks_g[b])
        row = composite.as_tuple()
        for name, engine in MEMBERSHIP_ENGINES.items():
            assert engine([row], partition.order) == (True,), name

    @FEW
    @given(block_scenario())
    def test_block_composition_commutes(self, scenario):
        # (within_blocks G) then (within_blocks H)
        #   == within_blocks(local G then H).  F(r) is NOT closed
        # under composition, so Theorem 4 only promises membership
        # when every composed block map stays in F(r); either way the
        # membership engines must agree on the verdict.
        partition, blocks_g, blocks_h = scenario
        composed_blocks = [blocks_g[b].then(blocks_h[b])
                           for b in range(partition.n_blocks)]
        g = within_blocks(partition, lambda b: blocks_g[b])
        h = within_blocks(partition, lambda b: blocks_h[b])
        combined = within_blocks(partition,
                                 lambda b: composed_blocks[b])
        assert g.then(h) == combined
        if all(in_class_f(block) for block in composed_blocks):
            assert in_class_f(combined)
        assert check_membership([combined.as_tuple()],
                                partition.order) == []

    @FEW
    @given(block_scenario(max_order=5))
    def test_block_composite_routes_on_all_engines(self, scenario):
        partition, blocks_g, _ = scenario
        composite = within_blocks(partition, lambda b: blocks_g[b])
        row = composite.as_tuple()
        for name, engine in ENGINES.items():
            run = engine([row], partition.order)
            assert run.success == (True,), name


class TestUniversalLaws:
    @FEW
    @given(order_and_perm(max_order=6))
    def test_universal_setup_realizes_p(self, scenario):
        order, p = scenario
        assert check_universal([p.as_tuple()], order) == []

    @FEW
    @given(order_and_perm(max_order=6))
    def test_two_pass_factors_compose(self, scenario):
        order, p = scenario
        assert check_twopass([p.as_tuple()], order) == []

    @FEW
    @given(order_and_perm(max_order=5))
    def test_universal_of_inverse(self, scenario):
        # the valid inverse law on the universal side: setting up p^-1
        # must realize p^-1, independent of p's own F(n) verdict
        order, p = scenario
        inv = p.inverse().as_tuple()
        assert check_universal([inv], order) == []
        assert check_twopass([inv], order) == []
