"""``repro.verify`` — the differential verification subsystem.

Every batch kernel (scalar loop, NumPy, bitslice, composed), the
sharded executor and the ``serve`` daemon claim to implement the same
paper as the structural network.  This package *proves* they agree
instead of assuming it:

- :mod:`repro.engines` — every engine behind one normalized adapter
  interface per comparison family (plus environment toggles);
- :mod:`~repro.verify.workloads` — seeded permutation / tag-vector
  generators mixing random, ``F(n)``, structured, and Theorem-4 inputs;
- :mod:`~repro.verify.fuzzer` — the pairwise comparison core across
  the self-routing, membership, universal-setup, and two-pass families;
- :mod:`~repro.verify.faults` — the exhaustive single-fault parity
  campaign and the paper's mask-vs-fatal stage dichotomy;
- :mod:`~repro.verify.shrink` — counterexample minimization emitting
  ready-to-paste regression tests;
- :mod:`~repro.verify.harness` — the seeded, time-budgeted campaign
  driver behind ``benes verify``, with a deliberately broken mutant
  engine for its self-test.

Submodules load lazily (mirroring :mod:`repro.accel`) so importing
``repro`` never pays for the verifier.
"""

from __future__ import annotations

__all__ = [
    "Disagreement",
    "EngineRun",
    "FaultCampaignReport",
    "MEMBERSHIP_ENGINES",
    "PARTIAL_ENGINES",
    "SELF_ROUTE_ENGINES",
    "STATES_ENGINES",
    "ShrinkResult",
    "VerifyConfig",
    "VerifyReport",
    "check_membership",
    "check_partial",
    "check_selfroute",
    "check_twopass",
    "check_universal",
    "force_fallback",
    "low_shard_threshold",
    "mutant_self_route_engine",
    "regression_test_source",
    "run_campaign",
    "run_engine",
    "run_self_test",
    "run_verify",
    "shrink",
]

_EXPORTS = {
    "Disagreement": ".fuzzer",
    "EngineRun": "repro.engines",
    "FaultCampaignReport": ".faults",
    "MEMBERSHIP_ENGINES": "repro.engines",
    "PARTIAL_ENGINES": "repro.engines",
    "SELF_ROUTE_ENGINES": "repro.engines",
    "STATES_ENGINES": "repro.engines",
    "ShrinkResult": ".shrink",
    "VerifyConfig": ".harness",
    "VerifyReport": ".harness",
    "check_membership": ".fuzzer",
    "check_partial": ".fuzzer",
    "check_selfroute": ".fuzzer",
    "check_twopass": ".fuzzer",
    "check_universal": ".fuzzer",
    "force_fallback": "repro.engines",
    "low_shard_threshold": "repro.engines",
    "mutant_self_route_engine": ".harness",
    "regression_test_source": ".shrink",
    "run_campaign": ".faults",
    "run_engine": "repro.engines",
    "run_self_test": ".harness",
    "run_verify": ".harness",
}

# ``shrink`` (the function) shares its name with the submodule it lives
# in; a lazy binding would be clobbered the first time the submodule is
# imported.  Binding it eagerly keeps ``repro.verify.shrink`` callable
# regardless of import order (the module stays reachable as
# ``repro.verify.shrink`` via sys.modules for anyone importing from it).
from .shrink import shrink  # noqa: E402


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from importlib import import_module

    module = import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
