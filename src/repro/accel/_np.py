"""Graceful optional import of NumPy, and the **engine seam**.

NumPy is the ``accel`` extra (``pip install repro[accel]``), **not** a
hard dependency: every public entry point of :mod:`repro.accel` falls
back to a pure-Python engine when it is absent.  All optional imports
in the package go through this one module so

- the degraded mode is decided in exactly one place,
- error messages consistently name the extra to install,
- tests can force the no-NumPy path by monkeypatching
  :data:`FORCE_FALLBACK` (no uninstalling required).

"Which engine runs this batch" is resolved here by
:func:`resolve_engine`, in precedence order:

1. an explicit ``engine=`` keyword on the batch entry point;
2. the :data:`FORCE_ENGINE` test hook (monkeypatch seam);
3. the ``BENES_ENGINE`` environment variable;
4. ``auto`` — :func:`auto_engine`.

The engine names are the rows of the kernel table
(:data:`repro.accel.kernels.KERNELS`).  The integer environment knobs
of the package are parsed by :func:`env_int`, which rejects bad values
loudly.
"""

from __future__ import annotations

import os

from ..errors import InvalidParameterError, MissingDependencyError

__all__ = ["numpy_or_none", "require_numpy", "have_numpy", "env_int",
           "resolve_engine", "auto_engine", "composed_order_threshold",
           "BITSLICE_MIN_BATCH", "DEFAULT_COMPOSED_ORDER",
           "FORCE_FALLBACK", "FORCE_ENGINE"]

#: Test hook: set to True (e.g. via monkeypatch) to behave as if NumPy
#: were not installed, exercising every pure-Python fallback path.
FORCE_FALLBACK = False

#: Test hook: set to an engine name (or ``"auto"``) to steer every
#: resolution that was not given an explicit ``engine=`` keyword —
#: the monkeypatch equivalent of exporting ``BENES_ENGINE``.
FORCE_ENGINE = None

#: Order at and above which ``auto`` resolution hands batches to the
#: block-composed engine (override: ``BENES_COMPOSED_ORDER``).  Below
#: this, one monolithic state tensor is cheap; at order 14+
#: (N >= 16,384) the O(N/blocks · log N) chunked form wins on both
#: memory and wall time.
DEFAULT_COMPOSED_ORDER = 14

#: Smallest no-NumPy self-routing batch that ``auto`` gives to the
#: bit-sliced kernel instead of the scalar loop.  Measured on a 2-vCPU
#: x86 host (pure-Python mode, median of 7): bitslice/scalar time is
#: 0.63-0.87 at B=3 and 0.66-0.75 at B=4 for orders 2-14, while at
#: B=1 the scalar loop is 1.1-2.5x faster (DESIGN.md, engine matrix).
BITSLICE_MIN_BATCH = 3


def env_int(name: str, default: int, minimum: int = 1) -> int:
    """The integer value of environment variable ``name``, or
    ``default`` when it is unset or empty.  A value that is not an
    integer, or is below ``minimum``, raises
    :class:`~repro.errors.InvalidParameterError` naming the variable
    and the value — a misconfigured knob never falls back silently."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < minimum:
        raise InvalidParameterError(
            f"{name}={raw!r} is invalid: expected an integer >= "
            f"{minimum}"
        )
    return value


def composed_order_threshold() -> int:
    """The auto-pick threshold for the composed engine —
    ``BENES_COMPOSED_ORDER`` when set, else
    :data:`DEFAULT_COMPOSED_ORDER`."""
    return env_int("BENES_COMPOSED_ORDER", DEFAULT_COMPOSED_ORDER)


_UNRESOLVED = object()
_numpy = _UNRESOLVED


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when it cannot be imported
    (or when :data:`FORCE_FALLBACK` is set).  The import is attempted
    once and memoized."""
    global _numpy
    if FORCE_FALLBACK:
        return None
    if _numpy is _UNRESOLVED:
        try:
            import numpy
        except ImportError:
            _numpy = None
        else:
            _numpy = numpy
    return _numpy


def have_numpy() -> bool:
    """True when the vectorized paths are available."""
    return numpy_or_none() is not None


def require_numpy(feature: str):
    """Return ``numpy`` or raise a :class:`MissingDependencyError`
    explaining that ``feature`` needs the ``accel`` extra."""
    np = numpy_or_none()
    if np is None:
        raise MissingDependencyError(
            f"{feature} requires NumPy, which is not installed; "
            "install the optional acceleration extra with "
            "`pip install repro[accel]` (or plain `pip install numpy`)"
        )
    return np


def auto_engine(order=None, batch_size=None, kind: str = "route", *,
                composed: bool = True) -> str:
    """The ``auto`` policy — also the composed engine's choice of inner
    engine for its sub-network blocks (``composed=False``):

    - at or above :func:`composed_order_threshold`: ``"composed"``, the
      only engine that bounds peak state memory by chunking;
    - NumPy when available (array results whenever the extra is
      active, so auto never changes result types under a NumPy
      caller);
    - else, for ``kind="route"`` (self-routing, membership,
      external-state routing), the bit-sliced kernel iff the batch
      holds at least :data:`BITSLICE_MIN_BATCH` rows;
    - else the scalar loop — ``kind="setup"`` (Waksman looping,
      two-pass factorization) is data-dependent cycle chasing with no
      bit-sliced form.
    """
    if composed and order is not None \
            and order >= composed_order_threshold():
        return "composed"
    if have_numpy():
        return "numpy"
    if kind == "route" and (batch_size or 0) >= BITSLICE_MIN_BATCH:
        return "bitslice"
    return "scalar"


def resolve_engine(engine=None, *, order=None, batch_size=None,
                   kind: str = "route") -> str:
    """Resolve a requested engine to a row of the kernel table.

    ``engine`` is the entry point's explicit keyword (``None`` means
    "not specified"); :data:`FORCE_ENGINE` and the ``BENES_ENGINE``
    environment variable fill in for an unspecified engine, and
    ``"auto"`` (the default default) applies :func:`auto_engine` to
    ``order``, ``batch_size`` and ``kind``.

    An unknown name raises :class:`~repro.errors.InvalidParameterError`;
    requesting ``"numpy"`` without NumPy raises
    :class:`~repro.errors.MissingDependencyError`.
    """
    requested = engine
    if requested is None:
        requested = FORCE_ENGINE or os.environ.get("BENES_ENGINE") \
            or "auto"
    if requested == "auto":
        return auto_engine(order, batch_size, kind)
    # Imported here: the table holds kernels built on this module.
    from .kernels import ENGINES

    if requested not in ENGINES:
        raise InvalidParameterError(
            f"unknown accel engine {requested!r}; choose one of "
            f"{', '.join(ENGINES)} or 'auto' (also settable via the "
            "BENES_ENGINE environment variable)"
        )
    if requested == "numpy":
        require_numpy("engine='numpy'")
    return requested
