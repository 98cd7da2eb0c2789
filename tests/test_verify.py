"""Tests for the differential verification subsystem (``repro.verify``)
and the engine-divergence bugfixes that ride along with it.

Covers the normalized engine adapters, the four fuzzer families, the
exhaustive fault-parity campaign, the shrinker (including the planted
control-bit mutant it must catch and minimize), the seeded harness and
its JSON report, the ``benes verify`` CLI, and the batch entry points'
rejection of unsupported scalar-path options.
"""

import json
import random

import pytest

import repro.obs as obs
from repro.accel import (
    KERNELS,
    batch_in_class_f,
    batch_route_with_states,
    batch_self_route,
    batch_setup_states,
)
from repro.accel.kernels import scalar_setup_states, scalar_two_pass
from repro.cli import main
from repro.errors import InvalidParameterError, SwitchStateError
from repro.verify import (
    VerifyConfig,
    check_membership,
    check_selfroute,
    check_twopass,
    check_universal,
    mutant_self_route_engine,
    run_campaign,
    run_engine,
    run_self_test,
    run_verify,
    shrink,
)
from repro.engines import SELF_ROUTE_ENGINES, force_fallback
from repro.verify.shrink import regression_test_source
from repro.verify.workloads import perm_rows, structured_rows, tag_rows

#: Engine subset without the spawn-pool ``sharded`` entry — most tests
#: don't need worker processes; the sharded leg gets its own test.
FAST_ENGINES = {
    name: engine for name, engine in SELF_ROUTE_ENGINES.items()
    if name != "sharded"
}


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestEngineAdapters:
    def test_run_engine_normalizes(self):
        run = run_engine("scalar", [(3, 2, 1, 0), (0, 1, 2, 3)], 2)
        assert run.success == (True, True)
        assert run.mappings == ((3, 2, 1, 0), (0, 1, 2, 3))
        assert len(run.states) == 2
        assert all(len(per) == 3 for per in run.states)  # B(2) stages

    def test_unknown_engine_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_engine("warp-drive", [(0, 1)], 1)

    def test_all_engines_equal_on_structured_rows(self):
        for order in (2, 3):
            rows = structured_rows(order)
            runs = {name: engine(rows, order)
                    for name, engine in FAST_ENGINES.items()}
            baseline = runs["scalar"]
            for name, run in runs.items():
                assert run.success == baseline.success, name
                assert run.mappings == baseline.mappings, name
                assert run.states == baseline.states, name

    def test_mutant_engine_diverges_from_oracle(self):
        mutant = mutant_self_route_engine(2)  # first destination stage
        rows = perm_rows(3, 12, random.Random(0))
        healthy = SELF_ROUTE_ENGINES["scalar"](rows, 3)
        broken = mutant(rows, 3)
        assert healthy.states != broken.states

    def test_duplicate_tags_agree_without_scalar(self):
        rng = random.Random(1)
        rows = [tuple(rng.randrange(8) for _ in range(8))
                for _ in range(6)]
        # the structural oracle takes Permutations only
        nonscalar = {k: v for k, v in FAST_ENGINES.items()
                     if k != "oracle"}
        assert check_selfroute(rows, 3, engines=nonscalar) == []


class TestFuzzerFamilies:
    def test_selfroute_clean_all_options(self):
        rng = random.Random(2)
        for order in (2, 3):
            rows = perm_rows(order, 10, rng)
            assert check_selfroute(rows, order,
                                   engines=FAST_ENGINES) == []
            assert check_selfroute(rows, order, omega_mode=True,
                                   engines=FAST_ENGINES) == []
            assert check_selfroute(
                rows, order, stuck_switches={(order, 0): 1},
                engines=FAST_ENGINES,
            ) == []

    def test_sharded_engine_agrees(self):
        rows = perm_rows(3, 12, random.Random(3))
        engines = {"scalar": SELF_ROUTE_ENGINES["scalar"],
                   "sharded": SELF_ROUTE_ENGINES["sharded"]}
        assert check_selfroute(rows, 3, engines=engines) == []

    def test_membership_universal_twopass_clean(self):
        rng = random.Random(4)
        for order in (2, 3):
            rows = perm_rows(order, 10, rng)
            assert check_membership(rows, order) == []
            assert check_universal(rows, order) == []
            assert check_twopass(rows, order) == []

    def test_wrong_setup_row_reported_under_its_name(self, monkeypatch):
        def wrong_states(perms, *, order):
            states = scalar_setup_states(perms, order=order)
            states[0][0][0] ^= 1
            return states

        monkeypatch.setitem(KERNELS["bitslice"], "setup_states",
                            wrong_states)
        found = check_universal(perm_rows(3, 4, random.Random(6)), 3)
        assert [(d.field, d.engine_b) for d in found] == \
            [("setup_states", "waksman-bitslice")]

    def test_wrong_two_pass_row_reported_under_its_name(self,
                                                        monkeypatch):
        def wrong_factors(perms, *, order):
            first, second = scalar_two_pass(perms, order=order)
            return first, [tuple(reversed(s)) for s in second]

        monkeypatch.setitem(KERNELS["bitslice"], "two_pass",
                            wrong_factors)
        found = check_twopass(perm_rows(3, 4, random.Random(7)), 3)
        assert found
        assert {d.engine_b for d in found} == {"twopass-bitslice"}

    def test_catches_planted_mutant(self):
        engines = {
            "scalar": SELF_ROUTE_ENGINES["scalar"],
            "mutant": mutant_self_route_engine(2),
        }
        rows = perm_rows(3, 16, random.Random(5))
        found = check_selfroute(rows, 3, engines=engines)
        assert found
        assert found[0].engine_b == "mutant(stage=2)"
        assert found[0].family == "selfroute"

    def test_disagreement_json_safe(self):
        engines = {
            "scalar": SELF_ROUTE_ENGINES["scalar"],
            "mutant": mutant_self_route_engine(2),
        }
        rows = perm_rows(3, 8, random.Random(6))
        found = check_selfroute(rows, 3, stuck_switches={(0, 0): 1},
                                engines=engines)
        assert found
        payload = json.dumps(found[0].to_dict())
        assert "stuck_switches" in payload


class TestShrink:
    def _mutant_check(self):
        engines = {
            "scalar": SELF_ROUTE_ENGINES["scalar"],
            "mutant": mutant_self_route_engine(2),
        }

        def check(order, rows, options):
            found = check_selfroute(
                rows, order,
                omega_mode=bool(options.get("omega_mode")),
                stuck_switches=options.get("stuck_switches"),
                engines=engines,
            )
            return found[0].field if found else None

        return check

    def test_shrinks_to_single_row(self):
        check = self._mutant_check()
        rows = perm_rows(3, 16, random.Random(7))
        result = shrink(3, rows, {"omega_mode": False,
                                  "stuck_switches": None}, check)
        assert result is not None
        assert result.batch_minimal and len(result.rows) == 1
        assert check(3, list(result.rows), result.options)

    def test_row_moves_toward_identity(self):
        check = self._mutant_check()
        rows = perm_rows(3, 16, random.Random(8))
        result = shrink(3, rows, {"omega_mode": False,
                                  "stuck_switches": None}, check)
        # greedy identity pass: every remaining off-identity position
        # is load-bearing, so re-fixing any of them must pass
        row = result.rows[0]
        fixed = sum(1 for i, v in enumerate(row) if v == i)
        assert fixed >= len(row) - 4

    def test_passing_scenario_returns_none(self):
        check = self._mutant_check()
        assert shrink(3, [tuple(range(8))],
                      {"omega_mode": False, "stuck_switches": None},
                      check) is None

    def test_regression_test_source_compiles(self):
        check = self._mutant_check()
        rows = perm_rows(3, 8, random.Random(9))
        result = shrink(3, rows, {"omega_mode": False,
                                  "stuck_switches": None}, check)
        source = regression_test_source(result, "oracle", "scalar",
                                        slug="compiles")
        compile(source, "<generated>", "exec")
        namespace = {}
        exec(source, namespace)
        # oracle and scalar genuinely agree, so the generated test
        # body must pass when aimed at two healthy engines
        namespace["test_verify_regression_compiles"]()


class TestFaultCampaign:
    def test_exhaustive_parity_small_orders(self):
        for order in (2, 3):
            campaign = run_campaign(order, rng=random.Random(10),
                                    n_perms=6)
            assert campaign.ok, campaign.to_dict()
            assert campaign.n_faults == \
                (2 * order - 1) * (1 << order) // 2 * 2

    def test_dichotomy_structure(self):
        campaign = run_campaign(3, rng=random.Random(11), n_perms=10)
        kinds = {s.stage: s.kind for s in campaign.stages}
        assert kinds == {0: "distribution", 1: "distribution",
                         2: "destination", 3: "destination",
                         4: "destination"}
        # distribution stages must show actual masking, destination
        # stages must never mask (the paper's dichotomy)
        assert any(s.masked > 0 for s in campaign.stages
                   if s.kind == "distribution")
        assert all(s.masked == 0 and s.fatal > 0
                   for s in campaign.stages
                   if s.kind == "destination")

    def test_campaign_on_fallback(self):
        with force_fallback():
            campaign = run_campaign(2, rng=random.Random(12), n_perms=4)
        assert campaign.ok

    def test_report_roundtrips_json(self):
        campaign = run_campaign(2, rng=random.Random(13), n_perms=4)
        payload = json.loads(json.dumps(campaign.to_dict()))
        assert payload["ok"] and payload["dichotomy_holds"]
        assert len(payload["stages"]) == 3


class TestHarness:
    CONFIG = VerifyConfig(
        seed=0, budget_seconds=0.0, orders=(2, 3), batch=8,
        fault_orders=(2,), fault_perms=4,
        engines=("scalar", "bitslice"),
    )

    def test_report_ok_and_schema(self):
        report = run_verify(self.CONFIG)
        assert report.ok and report.rounds == 1
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert payload["ok"] is True
        assert payload["cases"] == {"selfroute": 2, "membership": 2,
                                    "universal": 2, "twopass": 2,
                                    "composed": 2, "partial": 2}
        assert payload["self_test"]["caught"] is True

    def test_self_test_shrinks_to_minimal(self):
        result = run_self_test(0)
        assert result["caught"] and result["minimal"]
        assert len(result["shrunk"]["rows"]) == 1
        assert "def test_verify_regression_self_test"  \
            in result["regression_test"]

    def test_deterministic_for_seed(self):
        a = run_verify(self.CONFIG).to_dict()
        b = run_verify(self.CONFIG).to_dict()
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b

    def test_emits_verify_metrics(self):
        obs.enable()
        run_verify(self.CONFIG)
        counters = obs.snapshot()["counters"]
        obs.disable()
        assert counters["verify.rounds"] == 1
        assert counters["verify.cases.selfroute"] == 2
        assert counters["verify.faults.configs"] == 12
        assert "verify.disagreements" not in counters

    def test_fallback_harness_run(self):
        with force_fallback():
            report = run_verify(self.CONFIG)
        assert report.ok and report.numpy is False


class TestCLIVerify:
    ARGS = ["verify", "--seed", "0", "--budget", "0s",
            "--orders", "2,3", "--batch", "8",
            "--fault-orders", "2", "--fault-perms", "4",
            "--engines", "scalar,bitslice"]

    def test_exit_zero_and_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out
        assert "self-test : mutant at stage" in out
        assert "dichotomy holds" in out

    def test_json_report_written(self, capsys, tmp_path):
        path = tmp_path / "VERIFY.json"
        assert main(self.ARGS + ["--json", str(path),
                                 "--profile"]) == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert payload["schema_version"] == 1
        counters = payload["metrics"]["counters"]
        assert counters["verify.rounds"] >= 1

    def test_budget_suffixes(self, capsys):
        assert main(self.ARGS[:3] + ["--budget", "500ms",
                                     "--orders", "2", "--batch", "4",
                                     "--fault-orders", "2",
                                     "--engines",
                                     "scalar,bitslice"]) == 0

    def test_bad_budget_rejected(self):
        with pytest.raises(SystemExit):
            main(self.ARGS[:3] + ["--budget", "soon"])

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--engines", "scalar,warp-drive"])

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--families", "selfroute,astrology"])


class TestScalarOptionRejection:
    """Satellite: accel batch entry points must refuse scalar-path
    options instead of silently ignoring them (the engines would
    diverge unnoticed)."""

    def test_batch_self_route_rejects_trace(self):
        with pytest.raises(InvalidParameterError) as exc:
            batch_self_route([(0, 1, 2, 3)], trace=True)
        assert "trace" in str(exc.value)

    def test_batch_self_route_rejects_payloads(self):
        with pytest.raises(InvalidParameterError):
            batch_self_route([(0, 1, 2, 3)], payloads=["a"] * 4)

    def test_batch_in_class_f_rejects_stuck(self):
        with pytest.raises(InvalidParameterError):
            batch_in_class_f([(0, 1, 2, 3)],
                             stuck_switches={(0, 0): 1})

    def test_batch_route_with_states_rejects_options(self):
        states = batch_setup_states(2, [(0, 1, 2, 3)])
        with pytest.raises(InvalidParameterError):
            batch_route_with_states(states, 2, omega_mode=True)

    def test_stuck_validation_is_eager(self):
        # bad fault coordinates fail loudly before any routing
        with pytest.raises(SwitchStateError):
            batch_self_route([(0, 1, 2, 3)],
                             stuck_switches={(99, 0): 1})
        with pytest.raises(SwitchStateError):
            batch_self_route([(0, 1, 2, 3)],
                             stuck_switches={(0, 0): 7})
