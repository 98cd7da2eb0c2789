"""Wrappers preserve kernel output: one generic parity test.

Every engine is a row of ``repro.accel.KERNELS``; the dispatch, the
shard executor and the ``serve`` daemon only wrap a kernel call.  For
every kernel × op the bare kernel output must come back identical —
same container types, dtypes and values, byte for byte — through:

- the dispatch (``repro.accel.batch.dispatch``) with metrics on;
- the executor's threads, sharded with NumPy present and under
  ``force_fallback``;
- the serve daemon, for the four wire ops (compared by value: the wire
  carries plain JSON).

Plus the edge cases: order 1, B=1, k=0 partial rows, empty batches and
auto resolution at the composed threshold.
"""

from __future__ import annotations

import random

import pytest

import repro.obs as obs
from repro.accel import (
    KERNELS,
    batch_in_class_f,
    batch_route_partial,
    batch_route_two_pass,
    batch_route_with_states,
    batch_self_route,
    batch_setup_states,
    batch_two_pass,
    composed_route_with_states,
    composed_self_route,
    composed_setup_states,
    have_numpy,
    resolve_engine,
)
from repro.accel.batch import dispatch
from repro.core import random_permutation, setup_states
from repro.core.routing import BatchRouteResult
from repro.engines import force_fallback, low_shard_threshold
from repro.errors import InvalidParameterError, NotAPowerOfTwoError
from repro.serve import ServeConfig
from repro.serve.client import ServeClient
from repro.serve.daemon import start_in_thread

OPS = ("self_route", "in_class_f", "route_with_states", "setup_states",
       "two_pass")

#: The options each op is exercised with (beyond ``order``).
OPTIONS = {
    "self_route": dict(stage_data=True, stage_states=True,
                       stuck_switches={(0, 0): 1}),
    "in_class_f": {},
    "route_with_states": dict(stage_data=True),
    "setup_states": {},
    "two_pass": {},
}


def _canon(value):
    """A comparable form that keeps container types, dtypes and bytes."""
    if isinstance(value, BatchRouteResult):
        return ("BatchRouteResult", _canon(value.success_mask),
                _canon(value.mappings), _canon(value.per_stage),
                _canon(value.stage_states))
    if hasattr(value, "dtype") and hasattr(value, "tobytes"):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_canon(v) for v in value])
    return (type(value).__name__, value)


def _batch(op, order, size, seed):
    rng = random.Random(seed)
    perms = [random_permutation(1 << order, rng).as_tuple()
             for _ in range(size)]
    if op == "route_with_states":
        return [setup_states(p) for p in perms]
    return perms


def _options(op, order):
    if op in ("self_route", "in_class_f"):
        return dict(OPTIONS[op])
    return dict(OPTIONS[op], order=order)


def _kernels(fallback):
    return [k for k in KERNELS if not (k == "numpy"
                                       and (fallback or not have_numpy()))]


def _cases(fallback=False):
    return [(k, op) for k in _kernels(fallback) for op in OPS]


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestWrappersPreserveKernelOutput:
    @pytest.mark.parametrize("kernel,op", _cases())
    @pytest.mark.parametrize("order,size", [(1, 1), (1, 5), (3, 1),
                                            (3, 9)])
    def test_dispatch_with_metrics(self, kernel, op, order, size):
        rows = _batch(op, order, size, seed=order * 31 + size)
        options = _options(op, order)
        bare = KERNELS[kernel][op](rows, **options)
        obs.enable()
        wrapped = dispatch(op, rows, engine=kernel, **options)
        counters = obs.snapshot()["counters"]
        assert _canon(wrapped) == _canon(bare)
        assert counters[f"accel.engine_selected.{kernel}"] == 1

    @staticmethod
    def _check_sharded(kernel, op, seed):
        rows = _batch(op, 3, 9, seed=seed)
        options = _options(op, 3)
        bare = KERNELS[kernel][op](rows, **options)
        obs.enable()
        with low_shard_threshold(2):
            sharded = dispatch(op, rows, engine=kernel, parallel=2,
                               **options)
        assert _canon(sharded) == _canon(bare)
        # composed shards its inner blocks (several shardings); its
        # two_pass runs whole on the inner engine, sharded once
        if kernel != "composed" or op == "two_pass":
            assert obs.snapshot()["counters"]["executor.calls"] == 1

    @pytest.mark.skipif(not have_numpy(), reason="NumPy absent")
    @pytest.mark.parametrize("kernel,op", _cases())
    def test_executor_numpy_leg(self, kernel, op):
        self._check_sharded(kernel, op, seed=7)

    @pytest.mark.parametrize("kernel,op", _cases(fallback=True))
    def test_executor_thread_leg(self, kernel, op):
        with force_fallback():
            self._check_sharded(kernel, op, seed=8)


def _ints(rows):
    return [tuple(int(v) for v in row) for row in rows]


@pytest.fixture(scope="module", params=_kernels(fallback=False))
def daemon(request):
    handle = start_in_thread(ServeConfig(port=0, max_batch=64,
                                         max_wait_us=5000.0,
                                         engine=request.param))
    try:
        yield request.param, handle
    finally:
        handle.stop()


class TestServeWireOps:
    ORDER = 3

    def test_route(self, daemon):
        kernel, handle = daemon
        rows = _batch("self_route", self.ORDER, 6, seed=11)
        bare = KERNELS[kernel]["self_route"](
            rows, stage_states=True, stuck_switches={(1, 2): 1})
        with ServeClient(*handle.address) as client:
            got = client.route_many(rows, stage_states=True,
                                    stuck_switches={(1, 2): 1})
        assert [r.success for r in got] == \
            [bool(ok) for ok in bare.success_mask]
        assert [r.mapping for r in got] == _ints(bare.mappings)
        assert [[tuple(c) for c in r.stage_states] for r in got] == \
            [_ints(states) for states in bare.stage_states]

    def test_membership(self, daemon):
        kernel, handle = daemon
        rows = _batch("in_class_f", self.ORDER, 6, seed=12)
        bare = KERNELS[kernel]["in_class_f"](rows)
        with ServeClient(*handle.address) as client:
            got = client.membership_many(rows)
        assert [r.success for r in got] == [bool(ok) for ok in bare]

    def test_packet(self, daemon):
        kernel, handle = daemon
        rng = random.Random(13)
        n = 1 << self.ORDER
        rows = []
        for k in (0, 1, n // 2, n):  # k=0 partial rows included
            row = [-1] * n
            for src, dst in zip(rng.sample(range(n), k),
                                rng.sample(range(n), k)):
                row[src] = dst
            rows.append(tuple(row))
        direct = batch_route_partial(rows, engine=kernel)
        with ServeClient(*handle.address) as client:
            got = client.packet_many(rows)
        assert [r.success for r in got] == list(direct.success_mask)
        assert [r.mapping for r in got] == list(direct.delivered)
        assert direct.success_mask[0]  # k=0: vacuously delivered

    def test_setup(self, daemon):
        kernel, handle = daemon
        rows = _batch("setup_states", self.ORDER, 5, seed=14)
        bare = KERNELS[kernel]["setup_states"](rows, order=self.ORDER)
        with ServeClient(*handle.address) as client:
            got = client.setup_many(rows)
        assert [[tuple(c) for c in r.stage_states] for r in got] == \
            [_ints(states) for states in bare]


class TestEdges:
    @pytest.mark.parametrize("kernel", _kernels(fallback=False))
    def test_empty_batch_rejected_on_every_engine(self, kernel):
        calls = (
            lambda: batch_self_route([], engine=kernel),
            lambda: batch_in_class_f([], engine=kernel),
            lambda: batch_route_with_states([], 3, engine=kernel),
            lambda: batch_setup_states(3, [], engine=kernel),
            lambda: batch_two_pass(3, [], engine=kernel),
            lambda: batch_route_two_pass(3, [], engine=kernel),
            lambda: batch_route_partial([], engine=kernel),
        )
        for call in calls:
            with pytest.raises(InvalidParameterError):
                call()

    @pytest.mark.parametrize("kernel", _kernels(fallback=False))
    @pytest.mark.parametrize("op", ["self_route", "in_class_f"])
    @pytest.mark.parametrize("tag,want", [
        (9, InvalidParameterError), (-1, InvalidParameterError),
        (2 ** 70, InvalidParameterError), (4, False)],
        ids=["9", "-1", "2**70", "repeat"])
    def test_malformed_rows_agree(self, kernel, op, tag, want):
        """Every kernel gives one answer to an order-3 row with one
        tag replaced: a tag outside ``[0, 8)``, of any width, raises
        the range error; an in-range repeat is not delivered."""
        row = [0, 1, 2, tag, 4, 5, 6, 7]
        if want is InvalidParameterError:
            with pytest.raises(InvalidParameterError, match=r"\[0, 8\)"):
                dispatch(op, [row], engine=kernel)
            return
        result = dispatch(op, [row], engine=kernel)
        mask = result.success_mask if op == "self_route" else result
        assert [bool(ok) for ok in mask] == [want]

    @pytest.mark.parametrize("kernel", _kernels(fallback=False))
    @pytest.mark.parametrize("op", ["self_route", "in_class_f"])
    @pytest.mark.parametrize("row", [[0, 1, 2], [0, 0, 1], [0, 1, 5],
                                     [0, 1, -1], [0, 1, 2 ** 70]],
                             ids=["perm", "repeat", "5", "-1", "2**70"])
    def test_width_error_precedes_tag_range(self, kernel, op, row):
        """Every kernel rejects a row of width 3 as not a power of
        two, whatever its tags hold."""
        with pytest.raises(NotAPowerOfTwoError):
            dispatch(op, [row], engine=kernel)

    @pytest.mark.parametrize("kernel", _kernels(fallback=False))
    def test_all_idle_partial_rows(self, kernel):
        rows = [(-1,) * 8, (-1,) * 8]
        result = batch_route_partial(rows, engine=kernel)
        assert result.success_mask == (True, True)
        assert result.arrivals == ((), ())
        assert result.completed == (tuple(range(8)),) * 2

    @pytest.mark.parametrize("entry", [
        lambda rows: composed_self_route(rows, engine="bitslice"),
        lambda rows: composed_route_with_states(
            [setup_states(p) for p in rows], 1, engine="bitslice"),
        lambda rows: composed_setup_states(1, rows, engine="bitslice"),
    ], ids=["self_route", "route_with_states", "setup_states"])
    def test_composed_order_one_keeps_inner_engine(self, entry):
        obs.enable()
        entry([(0, 1), (1, 0)])
        counters = obs.snapshot()["counters"]
        assert counters.get("accel.engine_selected.bitslice") == 1

    @pytest.mark.parametrize("kernel,op", [
        ("scalar", "in_class_f"), ("scalar", "setup_states"),
        ("bitslice", "setup_states"), ("scalar", "two_pass"),
        ("bitslice", "two_pass")])
    def test_pure_python_kernels_take_ndarray_rows(self, kernel, op):
        if not have_numpy():
            pytest.skip("NumPy absent")
        import numpy as np

        rows = _batch(op, 3, 4, seed=23)
        options = _options(op, 3)
        from_lists = dispatch(op, rows, engine=kernel, **options)
        from_array = dispatch(op, np.asarray(rows), engine=kernel,
                              **options)
        assert _canon(from_array) == _canon(from_lists)

    def test_composed_setup_on_scalar_inner_engine(self, monkeypatch,
                                                   capsys):
        """The composed engine hands NumPy sub-permutations to its
        inner engine; a pure-Python one gets them as lists."""
        if not have_numpy():
            pytest.skip("NumPy absent")
        from repro.accel import iter_composed_states
        from repro.cli import main

        monkeypatch.setenv("BENES_COMPOSED_ORDER", "3")
        assert resolve_engine(None, order=3, kind="setup") == "composed"
        rows = _batch("setup_states", 3, 4, seed=29)
        oracle = [[list(col) for col in setup_states(p)] for p in rows]
        for inner in ("scalar", "bitslice"):
            states = composed_setup_states(3, rows, engine=inner)
            assert states.tolist() == oracle
            chunks = list(iter_composed_states(3, rows[0], engine=inner))
            assert chunks
        assert main(["route", "--order", "4", "--engine", "scalar",
                     "--check-blocks", "2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_auto_at_composed_threshold(self, monkeypatch):
        monkeypatch.setenv("BENES_COMPOSED_ORDER", "3")
        monkeypatch.delenv("BENES_ENGINE", raising=False)
        assert resolve_engine(None, order=3, batch_size=4) == "composed"
        assert resolve_engine(None, order=2, batch_size=4) != "composed"
        rows = _batch("self_route", 3, 4, seed=15)
        options = dict(stage_states=True, stage_data=True)
        obs.enable()
        auto = batch_self_route(rows, **options)
        counters = obs.snapshot()["counters"]
        assert counters["accel.engine_selected.composed"] == 1
        bare = KERNELS["composed"]["self_route"](rows, **options)
        assert _canon(auto) == _canon(bare)
        states = batch_setup_states(3, rows)
        assert _canon(states) == _canon(
            KERNELS["composed"]["setup_states"](rows, order=3))
        assert _ints(batch_route_with_states(states, 3).mappings) == \
            [tuple(p) for p in rows]
