"""Packet mode: partial permutations, queues, contention, the wire op.

Four layers, four strategies:

- **PartialMapping / completion kernels** — normalization and
  validation of the call model, and NumPy-vs-fallback parity of the
  canonical completion (the reduction every engine shares);
- **masked routing** — active-lane verdicts checked against the
  structural :class:`~repro.core.BenesNetwork` oracle, plus
  byte-identical cross-engine parity through the ``partial`` verify
  family (k = 0 and k = 1 edges included by construction);
- **time-stepped simulator** — delivery/conservation invariants,
  the pipeline-depth latency floor (pinned against
  :class:`~repro.core.PipelinedBenes`), seeded determinism, drop and
  backoff behavior, and the ``packet.*`` metric counters;
- **serve wire op** — ``op = "packet"`` answers byte-identical to
  :func:`repro.serve.protocol.from_partial_result` over a direct
  engine call.
"""

from __future__ import annotations

import random

import pytest

import repro.obs as obs
from repro.accel import (
    batch_complete_partial,
    batch_route_partial,
    batch_self_route,
    complete_partial_row,
    have_numpy,
)
from repro.accel import _np as _np_seam
from repro.accel.partial import IDLE
from repro.core import BenesNetwork, PipelinedBenes, random_permutation
from repro.errors import InvalidParameterError
from repro.packet import (
    PacketSimConfig,
    PartialMapping,
    route_partial,
    saturation_sweep,
    simulate,
)
from repro.verify import PARTIAL_ENGINES, check_partial
from repro.verify.workloads import partial_rows


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def rng():
    return random.Random(1980)


# ----------------------------------------------------------------------
# PartialMapping and the completion kernels
# ----------------------------------------------------------------------

class TestPartialMapping:
    def test_pairs_normalized_sorted(self):
        mapping = PartialMapping.from_pairs(3, [(5, 1), (0, 7), (2, 3)])
        assert mapping.pairs == ((0, 7), (2, 3), (5, 1))
        assert mapping.n == 8 and mapping.k == 3

    def test_dense_round_trip(self):
        dense = (IDLE, 3, IDLE, 0, IDLE, IDLE, 5, IDLE)
        mapping = PartialMapping.from_dense(dense)
        assert mapping.order == 3
        assert mapping.to_dense() == dense
        assert PartialMapping.from_dense(mapping.to_dense()) == mapping

    def test_empty_mapping_is_legal(self):
        mapping = PartialMapping.from_dense((IDLE,) * 4)
        assert mapping.k == 0
        assert sorted(mapping.complete()) == [0, 1, 2, 3]

    @pytest.mark.parametrize("pairs", [
        [(0, 1), (0, 2)],       # duplicate source
        [(0, 1), (3, 1)],       # duplicate destination
        [(0, 9)],               # destination out of range
        [(-1, 0)],              # source out of range
    ])
    def test_invalid_pairs_rejected(self, pairs):
        with pytest.raises(InvalidParameterError):
            PartialMapping.from_pairs(3, pairs)

    def test_complete_agrees_on_active_lanes(self, rng):
        for _ in range(20):
            n = 8
            k = rng.randrange(n + 1)
            row = [IDLE] * n
            for src, dst in zip(rng.sample(range(n), k),
                                rng.sample(range(n), k)):
                row[src] = dst
            full = complete_partial_row(row)
            assert sorted(full) == list(range(n))
            for src in range(n):
                if row[src] != IDLE:
                    assert full[src] == row[src]

    def test_completion_is_canonical(self):
        # idle inputs take the unused outputs in increasing order
        assert complete_partial_row((IDLE, 5, IDLE, 0, IDLE, IDLE,
                                     IDLE, IDLE)) == \
            (1, 5, 2, 0, 3, 4, 6, 7)


class TestCompletionKernels:
    def _rows(self, rng, batch=16, order=3):
        return partial_rows(order, batch, rng)

    def test_numpy_and_fallback_agree(self, rng, monkeypatch):
        if not have_numpy():
            pytest.skip("needs NumPy to compare against the fallback")
        rows = self._rows(rng)
        got_np, active_np = batch_complete_partial(rows)
        monkeypatch.setattr(_np_seam, "FORCE_FALLBACK", True)
        got_py, active_py = batch_complete_partial(rows)
        assert [tuple(int(v) for v in r) for r in got_np] == \
            [tuple(r) for r in got_py]
        assert [tuple(bool(v) for v in r) for r in active_np] == \
            [tuple(r) for r in active_py]

    @pytest.mark.parametrize("fallback", [False, True])
    def test_duplicate_destination_rejected(self, fallback,
                                            monkeypatch):
        if fallback:
            monkeypatch.setattr(_np_seam, "FORCE_FALLBACK", True)
        with pytest.raises(InvalidParameterError):
            batch_complete_partial([(0, 0, IDLE, IDLE)])

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidParameterError):
            batch_complete_partial([])


# ----------------------------------------------------------------------
# Masked routing
# ----------------------------------------------------------------------

class TestPartialRouting:
    def test_active_lanes_match_structural_oracle(self, rng):
        net = BenesNetwork(3)
        rows = partial_rows(3, 24, rng)
        result = batch_route_partial(rows)
        for b, row in enumerate(rows):
            completed = complete_partial_row(row)
            oracle = net.route(list(completed))
            assert result.completed[b] == completed
            assert result.delivered[b] == tuple(oracle.delivered)
            for (src, out), ok in zip(result.arrivals[b],
                                      result.lane_ok[b]):
                assert ok == (out == row[src])
            assert result.success_mask[b] == all(result.lane_ok[b])

    def test_idle_batch_vacuously_succeeds(self):
        result = route_partial([(IDLE,) * 8, (IDLE,) * 8])
        assert result.success_mask == (True, True)
        assert result.lane_ok == ((), ())
        assert result.arrivals == ((), ())

    def test_full_permutation_matches_batch_self_route(self, rng):
        rows = [random_permutation(8, rng).as_tuple()
                for _ in range(6)]
        partial = batch_route_partial(rows)
        full = batch_self_route(rows)
        assert partial.success_mask == \
            tuple(bool(ok) for ok in full.success_mask)
        assert partial.delivered == tuple(
            tuple(int(v) for v in row) for row in full.mappings)

    def test_mapping_objects_and_dense_rows_mix(self):
        mapping = PartialMapping.from_pairs(2, [(0, 3), (2, 1)])
        result = route_partial([mapping, mapping.to_dense()])
        assert result.success_mask[0] == result.success_mask[1]
        assert result.delivered[0] == result.delivered[1]

    @pytest.mark.parametrize("omega_mode", [False, True])
    def test_cross_engine_byte_parity(self, omega_mode):
        # partial_rows always leads with the k=0 and k=1 edges
        for order in (2, 3, 4):
            rows = partial_rows(order, 24, random.Random(order))
            assert check_partial(rows, order,
                                 omega_mode=omega_mode) == []

    def test_partial_metrics_counted(self, rng):
        obs.enable()
        batch_route_partial(partial_rows(3, 8, rng))
        counters = obs.snapshot()["counters"]
        assert counters["partial.calls"] == 1
        assert counters["partial.instances"] == 8


# ----------------------------------------------------------------------
# Time-stepped simulator
# ----------------------------------------------------------------------

class TestPacketSim:
    def test_lone_packet_latency_is_pipeline_depth(self):
        order = 3
        depth = PipelinedBenes(order).latency
        for src in range(1 << order):
            for dst in range(1 << order):
                report = simulate(
                    PacketSimConfig(order=order, ticks=1),
                    arrivals=[(0, src, dst)])
                assert report.delivered == 1
                assert report.misrouted == 0
                assert report.latencies == [depth]

    def test_conservation_and_no_misroutes(self):
        for load in (0.2, 0.6, 1.0):
            for policy in ("dest", "random"):
                report = simulate(PacketSimConfig(
                    order=4, ticks=64, offered_load=load,
                    policy=policy, seed=11))
                assert report.misrouted == 0
                assert report.delivered + report.dropped + \
                    report.stranded == report.offered
                assert all(lat >= 2 * 4 - 1
                           for lat in report.latencies)

    def test_seeded_determinism(self):
        config = PacketSimConfig(order=3, ticks=48, offered_load=0.7,
                                 seed=5)
        assert simulate(config).to_dict() == simulate(config).to_dict()
        other = PacketSimConfig(order=3, ticks=48, offered_load=0.7,
                                seed=6)
        assert simulate(other).to_dict() != simulate(config).to_dict()

    def test_full_wave_delivers_with_generous_buffers(self, rng):
        # a full permutation injected as one wave: per-packet
        # forwarding conflicts are resolved by queueing, never by loss,
        # when the buffers are deep enough
        order, n = 3, 8
        perm = random_permutation(n, rng).as_tuple()
        report = simulate(
            PacketSimConfig(order=order, ticks=1, queue_capacity=n,
                            max_retries=4 * n),
            arrivals=[(0, src, perm[src]) for src in range(n)])
        assert report.delivered == n
        assert report.dropped == 0
        assert report.misrouted == 0

    def test_tiny_queues_drop_under_saturation(self):
        report = simulate(PacketSimConfig(
            order=4, ticks=64, offered_load=1.0, queue_capacity=1,
            max_retries=0, seed=3))
        assert report.dropped > 0
        assert report.dropped == report.dropped_inject + \
            report.dropped_retry
        assert sum(s.dropped for s in report.per_stage) == \
            report.dropped
        assert report.misrouted == 0

    def test_backoff_changes_schedule_not_correctness(self):
        base = PacketSimConfig(order=3, ticks=48, offered_load=0.9,
                               seed=9)
        backed = PacketSimConfig(order=3, ticks=48, offered_load=0.9,
                                 seed=9, backoff_base=2,
                                 backoff_exp=True)
        r_base, r_backed = simulate(base), simulate(backed)
        for report in (r_base, r_backed):
            assert report.misrouted == 0
            assert report.delivered + report.dropped + \
                report.stranded == report.offered
        assert r_base.to_dict() != r_backed.to_dict()

    def test_zero_load_is_silent(self):
        report = simulate(PacketSimConfig(order=3, ticks=16,
                                          offered_load=0.0))
        assert report.offered == 0
        assert report.latencies == []
        assert report.latency_mean is None
        assert report.to_dict()["latency_p99"] is None

    def test_stage_stats_cover_all_columns(self):
        report = simulate(PacketSimConfig(order=3, ticks=32,
                                          offered_load=0.8, seed=2))
        assert len(report.per_stage) == 2 * 3 - 1
        assert sum(s.contention for s in report.per_stage) == \
            report.contention
        assert sum(s.blocked for s in report.per_stage) == \
            report.blocked

    @pytest.mark.parametrize("kwargs", [
        {"order": 0}, {"ticks": 0}, {"offered_load": 1.5},
        {"offered_load": -0.1}, {"queue_capacity": 0},
        {"max_retries": -1}, {"backoff_base": -1},
        {"policy": "nope"},
    ])
    def test_invalid_config_rejected(self, kwargs):
        base = dict(order=3)
        base.update(kwargs)
        with pytest.raises(InvalidParameterError):
            PacketSimConfig(**base)

    @pytest.mark.parametrize("arrival", [
        (0, 9, 0), (0, 0, 9), (-1, 0, 0),
    ])
    def test_invalid_arrivals_rejected(self, arrival):
        with pytest.raises(InvalidParameterError):
            simulate(PacketSimConfig(order=3, ticks=1),
                     arrivals=[arrival])

    def test_metrics_counted(self):
        obs.enable()
        report = simulate(PacketSimConfig(order=3, ticks=32,
                                          offered_load=0.6, seed=4))
        counters = obs.snapshot()["counters"]
        assert counters["packet.offered"] == report.offered
        assert counters["packet.injected"] == report.injected
        assert counters["packet.delivered"] == report.delivered
        assert counters.get("packet.misrouted", 0) == 0

    def test_saturation_sweep_one_report_per_load(self):
        reports = saturation_sweep((0.1, 0.5), order=3, ticks=16)
        assert [r.config.offered_load for r in reports] == [0.1, 0.5]


# ----------------------------------------------------------------------
# The serve wire op
# ----------------------------------------------------------------------

class TestPacketWireOp:
    def test_packet_op_byte_identical_to_direct(self, rng):
        import socket

        from repro.serve import ServeConfig, protocol
        from repro.serve.daemon import start_in_thread

        rows = partial_rows(3, 6, rng)
        requests = [
            protocol.RouteRequest(op="packet", tags=row, id=i + 1)
            for i, row in enumerate(rows)
        ]
        with start_in_thread(ServeConfig(
                port=0, max_batch=len(rows), max_wait_us=2000.0,
                warm_orders=(2, 3))) as handle:
            host, port = handle.address
            with socket.create_connection((host, port),
                                          timeout=30.0) as sock:
                payload = "".join(
                    protocol.encode_request(request) + "\n"
                    for request in requests)
                sock.sendall(payload.encode("utf-8"))
                reader = sock.makefile("rb")
                wire_lines = [reader.readline() for _ in requests]
        from repro.accel._np import resolve_engine

        engine = resolve_engine(None, order=3, batch_size=len(rows),
                                kind="route")
        direct = batch_route_partial(rows, engine=engine)
        by_id = {}
        for line in wire_lines:
            by_id[protocol.decode_response(line).id] = line
        for index, request in enumerate(requests):
            expected = (protocol.encode_response(
                protocol.from_partial_result(request, direct, index,
                                             engine)) + "\n") \
                .encode("utf-8")
            assert by_id[request.id] == expected

    def test_client_packet_many_masks_to_calls(self, rng):
        from repro.serve import ServeClient, ServeConfig
        from repro.serve.daemon import start_in_thread

        mapping = PartialMapping.from_pairs(3, [(1, 6), (4, 0)])
        with start_in_thread(ServeConfig(
                port=0, max_batch=8, max_wait_us=2000.0,
                warm_orders=(2, 3))) as handle:
            with ServeClient(*handle.address) as client:
                response = client.packet_many(
                    [mapping.to_dense()])[0]
        assert response.status == "ok"
        direct = route_partial([mapping])
        assert response.success == direct.success_mask[0]
        assert response.mapping == direct.delivered[0]

    def test_partial_engine_registry_lists_adapters(self):
        names = list(PARTIAL_ENGINES)
        assert names[0] == "oracle"  # the fuzzer's reference
        assert "scalar" in names
        assert "bitslice" in names
