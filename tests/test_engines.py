"""The verifier's engine tables (``repro.engines``).

The kernel names come from the kernel table (``repro.accel.KERNELS``)
and are what ``resolve_engine`` accepts; every family table leads with
the oracle, then one generic adapter per kernel, then the wrappers.
These tests pin that contract, the default/opt-in split (the
socket-backed ``serve`` engine must never join a default sweep), and
that a registered engine appears in the family tables.
"""

from __future__ import annotations

import random

import pytest

from repro import engines as registry
from repro.accel._np import resolve_engine
from repro.core import random_permutation
from repro.errors import InvalidParameterError


@pytest.fixture
def rows(rng):
    return [random_permutation(8, rng).as_tuple() for _ in range(6)]


class TestRegistry:
    def test_builtin_engines_registered(self):
        names = registry.names()
        for expected in ("oracle", "scalar", "numpy", "bitslice",
                         "composed", "sharded", "serve"):
            assert expected in names

    def test_exec_seam_names_in_registration_order(self):
        assert registry.exec_engine_names() == ("scalar", "numpy",
                                                "bitslice", "composed")

    def test_get_unknown_engine_raises(self):
        with pytest.raises(InvalidParameterError):
            registry.get("warp-drive")

    def test_require_exec_accepts_seam_engines(self):
        assert registry.require_exec("scalar").name == "scalar"
        assert registry.require_exec("bitslice").name == "bitslice"

    def test_require_exec_rejects_non_seam_engines(self):
        # fastpath routes, but it is not a batch execution engine.
        with pytest.raises(InvalidParameterError):
            registry.require_exec("fastpath")
        with pytest.raises(InvalidParameterError):
            registry.require_exec("nope")

    def test_duplicate_registration_requires_replace(self):
        spec = registry.get("scalar")
        with pytest.raises(InvalidParameterError):
            registry.register(registry.EngineSpec(name="scalar"))
        # replace=True restores the original untouched
        assert registry.register(spec, replace=True) is spec
        assert registry.get("scalar") is spec

    def test_oracle_is_first_engine(self):
        # The verify fuzzer treats the first table entry as the oracle.
        for table in (registry.SELF_ROUTE_ENGINES,
                      registry.MEMBERSHIP_ENGINES,
                      registry.STATES_ENGINES,
                      registry.PARTIAL_ENGINES):
            assert next(iter(table)) == "oracle"


class TestDefaultOptInSplit:
    def test_serve_hidden_from_default_views(self):
        assert "serve" not in registry.SELF_ROUTE_ENGINES
        assert "serve" in registry.ALL_SELF_ROUTE_ENGINES
        assert "serve" not in registry.MEMBERSHIP_ENGINES
        assert "serve" in registry.ALL_MEMBERSHIP_ENGINES

    def test_default_selfroute_names_exclude_serve(self):
        names = registry.default_selfroute_names()
        assert "serve" not in names
        assert "scalar" in names

    def test_default_views_subset_of_full_views(self):
        assert set(registry.SELF_ROUTE_ENGINES) <= set(
            registry.ALL_SELF_ROUTE_ENGINES)
        assert set(registry.STATES_ENGINES) <= set(
            registry.ALL_STATES_ENGINES)


class TestLiveRegistration:
    """A registered engine appears in the family tables and in
    explicit-name lookups without any other call site changing."""

    def _echo_spec(self, name, **kwargs):
        def adapter(batch, order, *, omega_mode=False,
                    stuck_switches=None):
            return registry.run_engine("scalar", batch, order,
                                       omega_mode=omega_mode,
                                       stuck_switches=stuck_switches)

        return registry.EngineSpec(name=name, selfroute=adapter,
                                   **kwargs)

    def test_new_engine_appears_in_views_and_run_engine(self, rows):
        name = "test-echo"
        registry.register(self._echo_spec(name))
        try:
            assert name in registry.SELF_ROUTE_ENGINES
            assert name in registry.ALL_SELF_ROUTE_ENGINES
            run = registry.run_engine(name, rows, 3)
            oracle = registry.run_engine("scalar", rows, 3)
            assert run.success == oracle.success
            assert run.mappings == oracle.mappings
        finally:
            registry._REGISTRY.pop(name, None)
        assert name not in registry.ALL_SELF_ROUTE_ENGINES

    def test_opt_out_engine_stays_out_of_default_sweeps(self, rows):
        name = "test-optout"
        registry.register(self._echo_spec(name, default=False))
        try:
            assert name not in registry.SELF_ROUTE_ENGINES
            assert name not in registry.default_selfroute_names()
            # ...but remains reachable by explicit name
            run = registry.run_engine(name, rows, 3)
            assert run.engine == "scalar"
        finally:
            registry._REGISTRY.pop(name, None)


class TestResolveEngineDelegation:
    def test_explicit_engine_validated_by_registry(self):
        with pytest.raises(InvalidParameterError):
            resolve_engine("fastpath")  # real engine, not a seam

    def test_auto_resolves_to_seam_engine(self):
        name = resolve_engine("auto", order=4, batch_size=64)
        assert name in registry.exec_engine_names()


class TestServeEngineAdapter:
    """The opt-in ``serve`` adapter routes through a live daemon and
    must agree with the scalar oracle bit for bit."""

    def test_serve_matches_scalar(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(5)]
        run = registry.run_engine("serve", rows, 3)
        oracle = registry.run_engine("scalar", rows, 3)
        assert run.engine == "serve"
        assert run.success == oracle.success
        assert run.mappings == oracle.mappings
        assert run.states == oracle.states

    def test_serve_fault_injection_matches_scalar(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(4)]
        stuck = {(1, 0): True, (3, 2): False}
        run = registry.run_engine("serve", rows, 3,
                                  stuck_switches=stuck)
        oracle = registry.run_engine("scalar", rows, 3,
                                     stuck_switches=stuck)
        assert run.success == oracle.success
        assert run.mappings == oracle.mappings

    def test_membership_serve_matches_theorem1(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(6)]
        verdicts = registry.run_membership_engine("serve", rows, 3)
        oracle = registry.run_membership_engine("oracle", rows, 3)
        assert verdicts == oracle
