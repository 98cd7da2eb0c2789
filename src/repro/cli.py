"""Command-line interface: ``benes``.

Subcommands::

    benes info N                      structural summary of B(log N)
    benes check 3,1,2,0               class membership of a permutation
    benes plan 1,3,2,0                routing-strategy recommendation
    benes route 3,1,2,0 [--omega]     route with a stage-by-stage trace
    benes route --order 18            million-port mode: realize a
                [--engine composed]   seeded random permutation through
                [--check-blocks K]    the streaming composed engine,
                                      spot-checking K sub-blocks
                                      byte-for-byte against the scalar
                                      oracle
    benes fig4 / fig5 / fig6          reproduce the paper's figures
    benes table1 N                    Table I at a given size
    benes sample N [--count k]        random self-routable permutations
    benes census N                    classify all N! permutations
    benes report [--sections ...]     regenerate the evaluation report
    benes bench [--json PATH]         scalar vs batch-engine throughput
                [--suite setup]       ... of the universal setup instead
                [--suite scaling]     ... serial vs batch vs composed
                                      across orders (the BENCH_scaling
                                      producer lives in
                                      benchmarks/bench_scaling.py)
                [--parallel]          ... plus shard-executor cells
    benes metrics                     run a demo workload, dump metrics
    benes metrics dump                render OpenMetrics / JSON once
                [--format openmetrics|json] [--input PATH] [--demo]
    benes metrics serve --port P      serve GET /metrics for Prometheus
    benes verify [--seed S]           differential cross-engine fuzzing,
                [--budget 30s]        fault-injection parity, and the
                [--json PATH]         planted-mutant self-test
    benes packet --load 0.9           time-stepped packet simulation:
                [--loads 0.2,..]      bounded per-switch queues,
                [--policy random]     seeded contention arbitration,
                [--json PATH]         drop/retry (see repro.packet)
    benes serve --port P              routing-as-a-service daemon:
                [--max-batch B]       coalesce concurrent JSON-line
                [--max-wait-us U]     requests into (B, N) engine
                [--metrics-port M]    batches (see repro.serve)

Permutations are comma-separated destination-tag lists.

``benes route|bench|verify|serve`` share one option block —
``--engine/--parallel/--seed/--profile`` — defined once in
:func:`_shared_engine_parent`; its ``--engine`` choices are the rows of
the kernel table (:data:`repro.accel.KERNELS`), and the resolution
precedence is documented at :func:`repro.accel.resolve_engine` (and
only there).

``benes route D --profile`` emits a JSON-lines event trace on stderr
while routing; ``benes bench --profile`` runs the sweep with metrics
collection on and embeds the snapshot in the report (see
:mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import obs as _obs
from .core import (
    BenesNetwork,
    Permutation,
    in_class_f,
    random_class_f,
    setup_states,
)
from .core.bits import log2_exact
from .errors import ReproError
from .permclasses import (
    bit_reversal,
    is_bpc,
    is_inverse_omega,
    is_omega,
    table_i_specs,
)
from .simd import CCC, permute_ccc
from .viz import render_ccc_trace, render_route, render_topology

__all__ = ["main"]


def _parse_permutation(text: str) -> Permutation:
    try:
        values = [int(tok) for tok in text.replace(" ", "").split(",")]
    except ValueError:
        raise SystemExit(f"cannot parse permutation {text!r}: use a "
                         "comma-separated destination list like 3,1,2,0")
    return Permutation(values)


def _cmd_info(args: argparse.Namespace) -> int:
    order = log2_exact(args.size)
    print(render_topology(order))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    perm = _parse_permutation(args.permutation)
    spec = is_bpc(perm)
    print(f"permutation D = {perm.as_tuple()}  (N = {perm.size})")
    print(f"  in F(n)            : {in_class_f(perm)}")
    print(f"  in BPC(n)          : "
          f"{spec is not None}{f'  [{spec}]' if spec else ''}")
    print(f"  in Omega(n)        : {is_omega(perm)}")
    print(f"  in InverseOmega(n) : {is_inverse_omega(perm)}")
    return 0


def _cmd_route_large(args: argparse.Namespace) -> int:
    """``benes route --order N``: realize one seeded random permutation
    of ``N = 2^order`` terminals through the streaming composed engine
    (:func:`repro.accel.iter_composed_states`) — the million-port mode.
    The full switch-state tensor is never held; finished columns and
    per-block chunks stream past, and up to ``--check-blocks`` sampled
    sub-blocks are re-derived with the scalar Waksman oracle on their
    local permutations and compared byte for byte."""
    import random
    import resource
    import time

    from .accel import (
        composed_plan,
        composed_stats,
        composed_stats_clear,
        iter_composed_states,
        numpy_or_none,
    )

    order = args.order
    if order < 2:
        raise SystemExit("--order must be >= 2 (use the positional "
                         "permutation form for tiny networks)")
    if args.omega:
        raise SystemExit("--omega applies to the trace form; the "
                         "--order mode realizes an arbitrary "
                         "permutation via the universal setup")
    seed = args.seed if args.seed is not None else 1980
    n = 1 << order
    np = numpy_or_none()
    if np is not None:
        perm = np.random.default_rng(seed).permutation(n)
    else:
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
    # --engine composed is the default and the outer decomposition is
    # always this engine; any other explicit name steers the *inner*
    # per-block dispatch.
    inner = None if args.engine in (None, "auto", "composed") \
        else args.engine
    if args.profile:
        _obs.enable(trace=sys.stderr)
    plan = composed_plan(order)
    composed_stats_clear()
    rng = random.Random(seed + 1)
    columns = blocks = checked = bad = 0
    t0 = time.perf_counter()
    for chunk in iter_composed_states(order, perm, engine=inner):
        if chunk.kind == "column":
            columns += 1
            continue
        size = len(chunk.states)
        blocks += size
        if checked < args.check_blocks:
            i = rng.randrange(size)
            local = [int(v) for v in chunk.perms[i]]
            oracle = setup_states(local)
            got = [[int(v) for v in col] for col in chunk.states[i]]
            if got != [list(col) for col in oracle]:
                bad += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats = composed_stats()
    print(f"benes route --order {order}: N = {n} terminals, "
          f"{2 * order - 1} switch columns")
    print(f"  engine         : composed "
          f"(sub-order {plan.sub_order}, {plan.n_blocks} blocks of "
          f"{plan.block_size})")
    print(f"  streamed       : {columns} transit columns + "
          f"{blocks} sub-blocks in {stats['chunks']} chunks")
    print(f"  peak chunk     : {stats['peak_chunk_bytes']} bytes "
          f"(vs {(2 * order - 1) * (n // 2)} for the full tensor)")
    print(f"  elapsed        : {elapsed:.3f}s   peak RSS: {rss_kb} kB")
    print(f"  oracle parity  : {checked - bad}/{checked} sampled "
          f"blocks byte-identical to scalar Waksman "
          f"-> {'OK' if bad == 0 else 'MISMATCH'}")
    return 0 if bad == 0 else 1


def _cmd_route(args: argparse.Namespace) -> int:
    if args.order is not None:
        if args.permutation is not None:
            raise SystemExit("give either a permutation or --order N, "
                             "not both")
        return _cmd_route_large(args)
    if args.permutation is None:
        raise SystemExit("benes route needs a permutation like "
                         "3,1,2,0, or --order N for the streaming "
                         "million-port mode")
    if args.engine not in (None, "auto"):
        # Cross-check the name against the kernel table even though
        # the structural trace route is engine-independent — a typo
        # should fail identically across every subcommand.
        from .engines import require_exec

        require_exec(args.engine)
    perm = _parse_permutation(args.permutation)
    order = perm.order
    net = BenesNetwork(order)
    if args.profile:
        _obs.enable(trace=sys.stderr)
    result = net.route(perm, omega_mode=args.omega, trace=True)
    print(render_route(result, order))
    if not result.success and not args.omega:
        print("\nhint: the permutation is outside the self-routing "
              "class; external setup still realizes it:")
        realized = net.route_with_states(setup_states(perm)).realized
        print(f"  Waksman setup realizes: {realized.as_tuple()}")
    return 0 if result.success else 1


def _cmd_fig4(args: argparse.Namespace) -> int:
    net = BenesNetwork(3)
    perm = bit_reversal(3).to_permutation()
    print("Fig. 4 — bit reversal on the self-routing B(3):\n")
    print(render_route(net.route(perm, trace=True), 3))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    net = BenesNetwork(2)
    perm = Permutation((1, 3, 2, 0))
    print("Fig. 5 — D = (1,3,2,0) cannot be self-routed on B(2):\n")
    print(render_route(net.route(perm, trace=True), 2))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    machine = CCC(3)
    perm = bit_reversal(3).to_permutation()
    run = permute_ccc(machine, perm, trace=True)
    print("Fig. 6 — the CCC algorithm performing bit reversal "
          "(N = 8):\n")
    print(render_ccc_trace(run, 3))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    order = log2_exact(args.size)
    print(f"Table I — example permutations in BPC({order}):\n")
    for name, spec in table_i_specs(order):
        in_f = in_class_f(spec.to_permutation())
        print(f"  {name:<20} {str(spec):<28} in F: {in_f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import generate_report

    sections = args.sections.split(",") if args.sections else None
    print(generate_report(sections))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .planner import plan

    report = plan(_parse_permutation(args.permutation))
    print(f"permutation D = {report.permutation.as_tuple()}")
    print(f"  classes            : F={report.in_f} "
          f"BPC={report.bpc is not None} Omega={report.in_omega} "
          f"InvOmega={report.in_inverse_omega}")
    if report.bpc is not None:
        print(f"  A-vector           : {report.bpc}")
    print(f"  network strategy   : {report.network_strategy}"
          + (f" (alternatives: {', '.join(report.alternatives)})"
             if report.alternatives else ""))
    print(f"  SIMD strategy      : {report.simd_strategy}"
          + (f" (skip rule: {report.skip_rule})"
             if report.skip_rule else ""))
    print(f"  predicted CCC cost : {report.ccc_unit_routes} unit-routes")
    if report.failure_witness is not None:
        print(f"  Theorem 1 conflict : {report.failure_witness}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    import random

    order = log2_exact(args.size)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        perm = random_class_f(order, rng)
        print(",".join(str(d) for d in perm))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    from .analysis import class_census

    order = log2_exact(args.size)
    c = class_census(order)
    print(f"census of all {c.total} permutations at N = {args.size}:")
    print(f"  |F|            : {c.in_f}")
    print(f"  |BPC|          : {c.in_bpc}")
    print(f"  |Omega|        : {c.in_omega}")
    print(f"  |InverseOmega| : {c.in_inverse_omega}")
    print(f"  Omega \\ F      : {c.omega_not_f}")
    print(f"  BPC \\ F        : {c.bpc_not_f}   (Theorem 2)")
    print(f"  InvOmega \\ F   : {c.inverse_omega_not_f}   (Theorem 3)")
    return 0


def _parse_int_list(text: str, what: str) -> list:
    try:
        return [int(tok) for tok in text.replace(" ", "").split(",")]
    except ValueError:
        raise SystemExit(f"cannot parse {what} {text!r}: use a "
                         "comma-separated integer list like 4,6,8")


def _cmd_bench(args: argparse.Namespace) -> int:
    from .accel.benchmark import (
        format_scaling_table,
        format_setup_table,
        format_table,
        run_benchmark,
        run_scaling_benchmark,
        run_setup_benchmark,
        write_json,
    )

    if args.profile:
        _obs.enable()
    if args.suite == "scaling":
        orders = (_parse_int_list(args.orders, "--orders")
                  if args.orders != "4,6,8" else None)
        report = run_scaling_benchmark(
            orders=orders if orders is not None else (10, 12, 14),
            seed=args.seed,
            repeats=args.repeats,
        )
        print(format_scaling_table(report))
    elif args.suite == "setup":
        report = run_setup_benchmark(
            orders=_parse_int_list(args.orders, "--orders"),
            batch_sizes=_parse_int_list(args.batches, "--batches"),
            seed=args.seed,
            repeats=args.repeats,
            include_parallel=args.parallel,
            engine=args.engine or "auto",
        )
        print(format_setup_table(report))
    else:
        report = run_benchmark(
            orders=_parse_int_list(args.orders, "--orders"),
            batch_sizes=_parse_int_list(args.batches, "--batches"),
            seed=args.seed,
            repeats=args.repeats,
            include_parallel=args.parallel,
            engine=args.engine or "auto",
        )
        print(format_table(report))
    if args.json:
        write_json(report, args.json)
        print(f"\nwrote {args.json}")
    return 0


def _run_metrics_demo(count: int, seed: Optional[int]) -> None:
    """The small demo workload behind ``benes metrics``: enable
    collection and route/plan enough to populate every instrument
    family — a self-test of the observability layer."""
    import random

    from .accel import batch_self_route
    from .core.fastpath import fast_self_route
    from .planner import plan

    _obs.enable()
    # main() bumped this before collection was on; count ourselves in.
    _obs.inc("cli.command.metrics")
    rng = random.Random(seed)
    net = BenesNetwork(3)
    for _ in range(count):
        perm = random_class_f(3, rng)
        net.route(perm)
        fast_self_route(perm.as_tuple())
        plan(perm)
    BenesNetwork(2).route(Permutation((1, 3, 2, 0)))  # guaranteed failure
    batch_self_route([random_class_f(3, rng).as_tuple()
                      for _ in range(count)])


def _cmd_metrics(args: argparse.Namespace) -> int:
    _run_metrics_demo(args.count, args.seed)
    print(json.dumps(_obs.snapshot(), indent=2, sort_keys=True))
    return 0


def _load_snapshot(path: str) -> dict:
    """A metrics snapshot from ``path`` — either a raw ``benes
    metrics``-style snapshot or a bench report embedding one under its
    ``"metrics"`` key (``benes bench --profile --json``)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: not a metrics snapshot")
    if "counters" not in data and isinstance(data.get("metrics"), dict):
        return data["metrics"]
    return data


def _cmd_metrics_dump(args: argparse.Namespace) -> int:
    """Render the registry (or a saved snapshot) once, in the format
    external tooling wants."""
    from .obs import export

    snapshot = _load_snapshot(args.input) if args.input else None
    if snapshot is None and args.demo:
        _run_metrics_demo(args.count, args.seed)
    if args.format == "json":
        print(export.render_json(snapshot))
    else:
        print(export.render_openmetrics(snapshot), end="")
    return 0


def _cmd_metrics_serve(args: argparse.Namespace) -> int:
    """Serve ``GET /metrics`` (OpenMetrics text) until interrupted."""
    from .obs import export

    if args.demo:
        _run_metrics_demo(args.count, args.seed)
    print(f"serving OpenMetrics on http://{args.host}:{args.port}"
          f"/metrics (ctrl-C to stop)", file=sys.stderr)
    export.serve(args.port, args.host)
    return 0


def _parse_budget(text: str) -> float:
    """Seconds from a human budget string: ``30``, ``30s``, ``500ms``,
    ``2m``."""
    token = text.strip().lower()
    try:
        if token.endswith("ms"):
            return float(token[:-2]) / 1000.0
        if token.endswith("s"):
            return float(token[:-1])
        if token.endswith("m"):
            return float(token[:-1]) * 60.0
        return float(token)
    except ValueError:
        raise SystemExit(f"cannot parse --budget {text!r}: use seconds "
                         "like 30, '30s', '500ms', or '2m'")


def _cmd_verify(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .engines import ALL_SELF_ROUTE_ENGINES, force_engine
    from .verify import VerifyConfig, run_verify

    if args.profile:
        _obs.enable()
        _obs.inc("cli.command.verify")
    engines = None
    if args.engines:
        engines = tuple(args.engines.replace(" ", "").split(","))
        # Validated against the FULL engine table: opt-in engines
        # (e.g. the live-daemon "serve" adapter) are reachable by
        # explicit name even though default sweeps exclude them.
        unknown = [e for e in engines
                   if e not in ALL_SELF_ROUTE_ENGINES]
        if unknown:
            raise SystemExit(
                f"unknown --engines {', '.join(unknown)}; known: "
                f"{', '.join(ALL_SELF_ROUTE_ENGINES)}"
            )
    families = tuple(args.families.replace(" ", "").split(","))
    known_families = VerifyConfig().families
    unknown = [f for f in families if f not in known_families]
    if unknown:
        raise SystemExit(
            f"unknown --families {', '.join(unknown)}; known: "
            f"{', '.join(known_families)}"
        )
    config = VerifyConfig(
        seed=args.seed,
        budget_seconds=_parse_budget(args.budget),
        orders=tuple(_parse_int_list(args.orders, "--orders")),
        batch=args.batch,
        families=families,
        fault_orders=tuple(
            _parse_int_list(args.fault_orders, "--fault-orders")),
        fault_perms=args.fault_perms,
        engines=engines,
        self_test=not args.no_self_test,
    )
    # The shared --engine flag steers the engine-resolution seam for
    # the whole campaign — the in-process form of BENES_ENGINE.
    steer = force_engine(args.engine) \
        if args.engine not in (None, "auto") else nullcontext()
    with steer:
        report = run_verify(config)

    d = report.to_dict()
    print(f"verify: seed={config.seed} budget={config.budget_seconds}s "
          f"elapsed={d['elapsed_seconds']}s rounds={report.rounds} "
          f"numpy={report.numpy}")
    print(f"  engines   : {', '.join(report.engines['selfroute'])}")
    print(f"  orders    : {','.join(str(o) for o in config.orders)}  "
          f"batch={config.batch}")
    for family in config.families:
        print(f"  {family:<10}: {report.cases.get(family, 0)} rounds")
    for campaign in report.fault_campaigns:
        print(f"  faults n={campaign['order']}: "
              f"{campaign['n_faults']} configs x "
              f"{campaign['n_perms']} perms -> "
              f"{'ok' if campaign['ok'] else 'FAIL'} "
              f"(dichotomy "
              f"{'holds' if campaign['dichotomy_holds'] else 'BROKEN'})")
    if report.self_test is not None:
        st = report.self_test
        print(f"  self-test : mutant at stage {st['mutate_stage']} "
              f"{'caught' if st['caught'] else 'MISSED'}"
              + (", shrunk to minimal counterexample"
                 if st.get("minimal") else ""))
    if report.disagreements:
        print(f"\n{len(report.disagreements)} DISAGREEMENT(S):")
        for entry in report.disagreements:
            print(f"  - {entry['family']}/{entry['field']}: "
                  f"{' vs '.join(entry['engines'])} at order "
                  f"{entry['order']} (row {entry['row']})")
            test_source = entry.get("regression_test")
            if test_source:
                print("    ready-to-paste regression test:")
                for line in test_source.splitlines():
                    print(f"      {line}")
    print(f"\nverdict: {'OK' if report.ok else 'FAIL'}")
    if args.json:
        payload = report.to_dict()
        if args.profile:
            payload["metrics"] = _obs.snapshot()
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def _cmd_packet(args: argparse.Namespace) -> int:
    from .packet import PacketSimConfig, saturation_sweep, simulate

    if args.profile:
        _obs.enable()
        _obs.inc("cli.command.packet")
    if args.loads is not None:
        loads = []
        for token in args.loads.replace(" ", "").split(","):
            try:
                loads.append(float(token))
            except ValueError:
                raise SystemExit(
                    f"cannot parse --loads entry {token!r}")
    else:
        loads = [args.load]
    kwargs = dict(
        order=args.order,
        ticks=args.ticks,
        queue_capacity=args.queue_capacity,
        max_retries=args.max_retries,
        backoff_base=args.backoff_base,
        backoff_exp=args.backoff_exp,
        policy=args.policy,
        seed=args.seed if args.seed is not None else 1980,
    )
    try:
        reports = saturation_sweep(loads, **kwargs)
    except ReproError as exc:
        raise SystemExit(str(exc))
    n = 1 << args.order
    print(f"packet: N={n} (order {args.order})  ticks={args.ticks}  "
          f"queue={args.queue_capacity}  policy={args.policy}  "
          f"seed={kwargs['seed']}")
    print(f"  {'load':>6} {'thru':>8} {'drop%':>7} {'lat_mean':>9} "
          f"{'p50':>5} {'p99':>5} {'max':>5}")
    for report in reports:
        d = report.to_dict()
        mean = d["latency_mean"]
        print(f"  {d['offered_load']:>6.2f} {d['throughput']:>8.4f} "
              f"{100 * d['drop_rate']:>6.2f}% "
              f"{mean if mean is not None else '-':>9} "
              f"{d['latency_p50'] if d['latency_p50'] is not None else '-':>5} "
              f"{d['latency_p99'] if d['latency_p99'] is not None else '-':>5} "
              f"{d['latency_max'] if d['latency_max'] is not None else '-':>5}")
        if d["misrouted"]:
            print(f"    WARNING: {d['misrouted']} misrouted packets")
    if args.json:
        import os

        from .accel import have_numpy

        # same cells schema as benchmarks/bench_packet.py, so the
        # report feeds tools/bench_history.py and (if committed)
        # tools/check_bench_regression.py unchanged
        payload = {
            "benchmark": "packet",
            "numpy": have_numpy(),
            "cpu_count": os.cpu_count(),
            "order": args.order,
            "ticks": args.ticks,
            "queue_capacity": args.queue_capacity,
            "seed": kwargs["seed"],
            "cells": [
                dict(report.to_dict(), kind="packet", engine="sim",
                     speedup=None, batch_size=None, parallel=False)
                for report in reports
            ],
        }
        if args.profile:
            payload["metrics"] = _obs.snapshot()
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if all(r.misrouted == 0 for r in reports) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from .serve import ServeConfig
    from .serve import daemon as serve_daemon

    if args.profile or args.metrics_port is not None:
        _obs.enable()
        # main() bumped this before collection was on; count ourselves.
        _obs.inc("cli.command.serve")
    if args.metrics_port is not None:
        from .obs import export

        scrape = export.build_server(args.metrics_port, args.host)
        threading.Thread(target=scrape.serve_forever,
                         name="benes-metrics", daemon=True).start()
        print(f"benes serve: scrape endpoint on "
              f"http://{args.host}:{args.metrics_port}/metrics",
              file=sys.stderr)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        queue_limit=args.queue_limit,
        engine=None if args.engine in (None, "auto") else args.engine,
        parallel=args.parallel,
        warm_orders=tuple(_parse_int_list(args.warm_orders,
                                          "--warm-orders")),
    )
    if args.smoke_requests is not None:
        return _serve_smoke(config, args.smoke_requests,
                            seed=args.seed if args.seed is not None
                            else 1981)
    serve_daemon.serve(config)
    return 0


def _serve_smoke(config, count: int, *, seed: int) -> int:
    """Self-test mode for ``benes serve``: start the daemon, route
    ``count`` random permutations through a real socket client, check
    every response against the direct engine answer, and shut down.
    Gives CI a deterministic one-shot serving session (one trace tree,
    no backgrounded process to babysit)."""
    import random

    from .core.fastpath import fast_self_route
    from .errors import InvalidParameterError
    from .serve import ServeClient
    from .serve import daemon as serve_daemon

    if count < 1:
        raise InvalidParameterError("--smoke-requests must be >= 1")
    order = max(config.warm_orders) if config.warm_orders else 3
    size = 2 ** order
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        perm = list(range(size))
        rng.shuffle(perm)
        rows.append(perm)

    handle = serve_daemon.start_in_thread(config)
    try:
        host, port = handle.address
        with ServeClient(host, port) as client:
            responses = client.route_many(rows)
    finally:
        handle.stop()

    bad = 0
    for perm, response in zip(rows, responses):
        success, delivered = fast_self_route(perm)
        if (response.status != "ok"
                or bool(response.success) != success
                or (success
                    and tuple(response.mapping) != tuple(delivered))):
            bad += 1
    verdict = "OK" if bad == 0 else "MISMATCH"
    print(f"benes serve --smoke-requests: {count - bad}/{count} "
          f"responses matched the direct engine (order {order}) "
          f"-> {verdict}")
    return 0 if bad == 0 else 1


def _shared_engine_parent() -> argparse.ArgumentParser:
    """The option block ``route``/``bench``/``verify``/``serve``
    share: ``--engine/--parallel/--seed/--profile``, defined exactly
    once.  The ``--engine`` choices are the kernel table's rows;
    per-command seed defaults are installed with ``set_defaults`` on
    each subparser."""
    from .engines import exec_engine_names

    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "shared engine options (route/bench/verify/serve)")
    group.add_argument(
        "--engine", default=None,
        choices=tuple(exec_engine_names()) + ("auto",),
        help="execution engine for batched work; resolution "
             "precedence: explicit --engine > the FORCE_ENGINE test "
             "hook > the BENES_ENGINE environment variable > 'auto' "
             "policy (composed at order >= BENES_COMPOSED_ORDER, else "
             "NumPy when available, else bitslice for batches of 3+ "
             "rows and scalar below)")
    group.add_argument(
        "--parallel", action="store_true",
        help="shard batches above the executor threshold across "
             "threads (commands without batched work accept and "
             "ignore this)")
    group.add_argument(
        "--seed", type=int, default=None,
        help="deterministic workload seed (each command supplies its "
             "own default)")
    group.add_argument(
        "--profile", action="store_true",
        help="collect obs metrics during the command (benes route: "
             "stream a JSON-lines event trace on stderr instead)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the `benes` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="benes",
        description="Self-routing Benes network toolkit "
                    "(Nassimi & Sahni, 1981)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = _shared_engine_parent()

    p_info = sub.add_parser("info", help="structural summary of B(n)")
    p_info.add_argument("size", type=int, help="N (power of two)")
    p_info.set_defaults(func=_cmd_info)

    p_check = sub.add_parser("check", help="classify a permutation")
    p_check.add_argument("permutation", help="e.g. 3,1,2,0")
    p_check.set_defaults(func=_cmd_check)

    p_route = sub.add_parser("route", parents=[shared],
                             help="self-route a permutation with trace "
                                  "(or --order N for the streaming "
                                  "million-port mode)")
    p_route.add_argument("permutation", nargs="?", default=None,
                         help="e.g. 3,1,2,0 (omit when using --order)")
    p_route.add_argument("--omega", action="store_true",
                         help="force the first n-1 stages straight")
    p_route.add_argument("--order", type=int, default=None,
                         metavar="N",
                         help="million-port mode: realize a seeded "
                              "random permutation of 2^N terminals "
                              "through the streaming composed engine, "
                              "never holding the full state tensor")
    p_route.add_argument("--check-blocks", type=int, default=4,
                         metavar="K",
                         help="sampled sub-blocks checked byte-for-"
                              "byte against the scalar Waksman oracle "
                              "in --order mode (default 4)")
    p_route.set_defaults(func=_cmd_route)

    for fig, fn in (("fig4", _cmd_fig4), ("fig5", _cmd_fig5),
                    ("fig6", _cmd_fig6)):
        p = sub.add_parser(fig, help=f"reproduce the paper's {fig}")
        p.set_defaults(func=fn)

    p_t1 = sub.add_parser("table1", help="Table I at size N")
    p_t1.add_argument("size", type=int, help="N (power of two)")
    p_t1.set_defaults(func=_cmd_table1)

    p_plan = sub.add_parser(
        "plan", help="choose a routing strategy for a permutation"
    )
    p_plan.add_argument("permutation", help="e.g. 1,3,2,0")
    p_plan.set_defaults(func=_cmd_plan)

    p_sample = sub.add_parser(
        "sample", help="draw random self-routable permutations"
    )
    p_sample.add_argument("size", type=int, help="N (power of two)")
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.set_defaults(func=_cmd_sample)

    p_census = sub.add_parser(
        "census", help="classify all N! permutations (N <= 8)"
    )
    p_census.add_argument("size", type=int, help="N (power of two, <= 8)")
    p_census.set_defaults(func=_cmd_census)

    p_bench = sub.add_parser(
        "bench", parents=[shared],
        help="benchmark the vectorized batch engine vs the scalar "
             "fast path",
    )
    p_bench.add_argument("--suite", choices=("route", "setup",
                                             "scaling"),
                         default="route",
                         help="'route' times batch self-routing; "
                              "'setup' times the batched universal "
                              "setup and two-pass factorization; "
                              "'scaling' times serial Waksman vs "
                              "batch vs composed across orders")
    p_bench.add_argument("--orders", default="4,6,8",
                         help="comma-separated network orders")
    p_bench.add_argument("--batches", default="64,256,1024",
                         help="comma-separated batch sizes")
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="timing repetitions (best is kept)")
    p_bench.add_argument("--json", default=None, metavar="PATH",
                         help="also write the machine-readable report "
                              "(e.g. BENCH_accel.json)")
    p_bench.set_defaults(func=_cmd_bench, engine="auto", seed=1980)

    p_metrics = sub.add_parser(
        "metrics",
        help="observability: demo snapshot (default), 'dump' renders "
             "OpenMetrics/JSON once, 'serve' exposes GET /metrics",
    )
    p_metrics.add_argument("--count", type=int, default=8,
                           help="routes per leg of the demo workload")
    p_metrics.add_argument("--seed", type=int, default=1980)
    p_metrics.set_defaults(func=_cmd_metrics)
    sub_metrics = p_metrics.add_subparsers(dest="metrics_command")

    p_dump = sub_metrics.add_parser(
        "dump",
        help="render the live registry (or a saved snapshot) once",
    )
    p_dump.add_argument("--format", choices=("openmetrics", "json"),
                        default="openmetrics")
    p_dump.add_argument("--input", default=None, metavar="PATH",
                        help="render a saved snapshot instead of the "
                             "live registry — a 'benes metrics' JSON "
                             "dump or a bench report with an embedded "
                             "'metrics' key")
    p_dump.add_argument("--demo", action="store_true",
                        help="run the demo workload first so the dump "
                             "has content")
    p_dump.set_defaults(func=_cmd_metrics_dump)

    p_serve = sub_metrics.add_parser(
        "serve",
        help="serve GET /metrics in the OpenMetrics text format",
    )
    p_serve.add_argument("--port", type=int, default=9464)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--demo", action="store_true",
                         help="run the demo workload first so scrapes "
                              "have content")
    p_serve.set_defaults(func=_cmd_metrics_serve)

    p_verify = sub.add_parser(
        "verify", parents=[shared],
        help="differential verification: fuzz every engine pair, "
             "run the exhaustive fault-parity campaign, and prove "
             "the pipeline catches a planted mutant",
    )
    p_verify.add_argument("--budget", default="30s",
                          help="time budget like '30s', '500ms', or "
                               "'2m'; the first full sweep always "
                               "completes, the budget bounds extra "
                               "rounds")
    p_verify.add_argument("--orders", default="2,3,4,5,6",
                          help="comma-separated network orders to fuzz")
    p_verify.add_argument("--batch", type=int, default=64,
                          help="workload rows per (order, family) case")
    p_verify.add_argument("--families",
                          default="selfroute,membership,universal,"
                                  "twopass,composed,partial",
                          help="comma-separated comparison families")
    p_verify.add_argument("--engines", default=None,
                          help="comma-separated self-route engine "
                               "subset (default: all; first entry is "
                               "the oracle)")
    p_verify.add_argument("--fault-orders", default="2,3,4,5",
                          help="orders for the exhaustive single-fault "
                               "campaign")
    p_verify.add_argument("--fault-perms", type=int, default=8,
                          help="F(n) members routed per fault config")
    p_verify.add_argument("--no-self-test", action="store_true",
                          help="skip the planted-mutant self-test")
    p_verify.add_argument("--json", default=None, metavar="PATH",
                          help="also write the machine-readable report "
                               "(e.g. VERIFY.json)")
    p_verify.set_defaults(func=_cmd_verify, seed=0)

    p_packet = sub.add_parser(
        "packet", parents=[shared],
        help="time-stepped packet simulation over the pipelined "
             "network: bounded queues, seeded contention, drop/retry "
             "(Huang & Walrand workload class)",
    )
    p_packet.add_argument("--order", type=int, default=4,
                          help="network order n (N = 2^n inputs)")
    p_packet.add_argument("--load", type=float, default=0.5,
                          help="per-input injection probability per "
                               "tick")
    p_packet.add_argument("--loads", default=None,
                          help="comma-separated offered loads for a "
                               "saturation sweep (overrides --load)")
    p_packet.add_argument("--ticks", type=int, default=512,
                          help="injection window length in ticks")
    p_packet.add_argument("--queue-capacity", type=int, default=4,
                          help="per-switch buffer bound in packets")
    p_packet.add_argument("--max-retries", type=int, default=16,
                          help="losses a packet survives before drop")
    p_packet.add_argument("--backoff-base", type=int, default=0,
                          help="ticks a contention loser waits before "
                               "re-arbitrating (0 = next tick)")
    p_packet.add_argument("--backoff-exp", action="store_true",
                          help="double the backoff per consecutive "
                               "loss")
    p_packet.add_argument("--policy", choices=("dest", "random"),
                          default="dest",
                          help="first-half steering: own destination "
                               "bits, or seeded random distribution "
                               "(Benes-packet load balancing)")
    p_packet.add_argument("--json", default=None, metavar="PATH",
                          help="also write the machine-readable "
                               "report (e.g. BENCH_packet.json shape)")
    p_packet.set_defaults(func=_cmd_packet)

    p_daemon = sub.add_parser(
        "serve", parents=[shared],
        help="long-lived routing daemon: newline-delimited JSON "
             "requests, micro-batched across connections into accel "
             "batches",
    )
    p_daemon.add_argument("--port", type=int, default=9463,
                          help="TCP port to listen on (0 = ephemeral)")
    p_daemon.add_argument("--host", default="127.0.0.1")
    p_daemon.add_argument("--max-batch", type=int, default=64,
                          help="coalescer size cutoff: flush a bucket "
                               "the moment it holds this many requests")
    p_daemon.add_argument("--max-wait-us", type=float, default=500.0,
                          help="upper bound (>= 0) on a request's wait "
                               "in the coalescer, in microseconds; the "
                               "daemon flushes at the end of every "
                               "event-loop tick, which always meets it")
    p_daemon.add_argument("--queue-limit", type=int, default=4096,
                          help="backpressure bound: requests queued "
                               "beyond this are rejected with status "
                               "'rejected'")
    p_daemon.add_argument("--warm-orders", default="2,3,4,5,6",
                          help="comma-separated network orders whose "
                               "plan caches are warmed at startup")
    p_daemon.add_argument("--metrics-port", type=int, default=None,
                          metavar="PORT",
                          help="also expose GET /metrics (OpenMetrics) "
                               "on this port, with serve.* counters")
    p_daemon.add_argument("--smoke-requests", type=int, default=None,
                          metavar="N",
                          help="self-test mode: start the daemon, "
                               "route N random permutations through a "
                               "socket client, check each answer "
                               "against the direct engine, and exit "
                               "(for CI smoke — no backgrounding)")
    p_daemon.set_defaults(func=_cmd_serve)

    p_report = sub.add_parser(
        "report", help="regenerate the reproduction report"
    )
    p_report.add_argument(
        "--sections", default=None,
        help="comma-separated ids, e.g. FIG4,CLM-SIMD (default: all)"
    )
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the `benes` command-line tool."""
    args = build_parser().parse_args(argv)
    _obs.inc(f"cli.command.{args.command}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
