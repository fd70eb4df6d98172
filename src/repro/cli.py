"""Command-line interface: reproduce any figure or run simulations.

    python -m repro figure 9
    python -m repro ablation sync
    python -m repro simulate --n-aps 4 --duration 0.5
    python -m repro quickstart
    python -m repro report
    python -m repro obs profile out.jsonl --top 10
    python -m repro obs runs list
    python -m repro obs regress
    python -m repro lint --format json

Every command prints the same tables ``repro report`` prints, so the CLI
is the quickest way to poke at one experiment with custom parameters;
default seeds come from the claims table (:mod:`repro.sim.claims`).

Output policy: result tables go to **stdout**; diagnostics go to **stderr**
through :mod:`repro.obs.logging` (``-v`` for progress, ``-vv`` for debug,
``-q`` for errors only).  Every run command also accepts ``--trace
out.jsonl`` (span/event telemetry, see ``docs/observability.md``) and
``--metrics out.json`` (the metrics-registry snapshot).

Run commands (``figure``/``ablation``/``simulate``/``quickstart``/
``report``) additionally append a :class:`repro.obs.ledger.RunRecord` —
git sha, config hash, master seed, duration, headline metrics, alarms —
to the run ledger (``runs/ledger.jsonl`` by default; ``--ledger DIR`` or
``$REPRO_RUNS_DIR`` to relocate, ``--no-ledger`` to skip).  Each run
command ends with one pass of the built-in alert rules
(:func:`repro.obs.alerts.builtin_rules`, the §7.3 phase-error budget)
over the run's metrics: fired rules become ledger alarms, a critical one
writes a ``critical_alert`` crash bundle, and ``--fail-on-alert`` turns
a firing into exit code 3.

``repro obs`` has three commands: ``profile`` (where a traced run's
time went), ``runs list/show/diff`` (which claim moved between runs;
``runs show`` also links the crash bundle of a failed run) and
``regress`` (whether every check of the paper-claims table still holds).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import get_logger, metrics, setup_logging, trace
from repro.runtime import SELECTABLE_BACKENDS

logger = get_logger(__name__)

#: Commands whose invocations land in the run ledger.
RUN_COMMANDS = ("figure", "ablation", "simulate", "quickstart", "report")

#: Exit code for "an alert rule fired" (``--fail-on-alert``).  Distinct
#: from ``repro obs regress``'s 1 (a claim check failed).
EXIT_ALERT = 3


@dataclass
class RunContext:
    """What a run command hands back for its ledger record.

    The ``_run_*`` handlers fill this in as a side channel — exit codes
    stay the CLI contract, the context carries everything the ledger
    wants (normalized config, effective master seed, headline metrics,
    artifact paths, alarms).
    """

    config: Dict = field(default_factory=dict)
    master_seed: Optional[int] = None
    headline: Dict[str, float] = field(default_factory=dict)
    artifacts: Dict[str, str] = field(default_factory=dict)
    alarms: List[dict] = field(default_factory=list)


def _common_options() -> argparse.ArgumentParser:
    """Observability flags shared by every subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSONL span/event trace of the run to FILE",
    )
    group.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write the metrics-registry snapshot (JSON) to FILE",
    )
    group.add_argument(
        "--ledger", metavar="DIR", default=None,
        help="runs directory holding ledger.jsonl "
             "(default: $REPRO_RUNS_DIR or ./runs)",
    )
    group.add_argument(
        "--no-ledger", action="store_true",
        help="do not append this run to the ledger",
    )
    group.add_argument(
        "--fail-on-alert", action="store_true",
        help="exit 3 when an alert rule fires in the end-of-run judge "
             "(run commands)",
    )
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-vv for debug)",
    )
    group.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="only log errors to stderr",
    )
    return common


def _add_figure_parser(subparsers, common) -> None:
    p = subparsers.add_parser(
        "figure", parents=[common], help="reproduce one evaluation figure (6-13)"
    )
    p.add_argument("number", type=int, choices=range(6, 14), metavar="6-13")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply the default topology/round counts (e.g. 2.0 = paper scale)",
    )
    _add_runtime_options(p)


def _add_runtime_options(p: argparse.ArgumentParser) -> None:
    """Parallel-sweep flags (see docs/parallelism.md)."""
    group = p.add_argument_group("runtime")
    group.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for Monte-Carlo sweeps (default 1 = in-parent; "
             "results are bit-identical for any N)",
    )
    group.add_argument(
        "--backend", choices=SELECTABLE_BACKENDS, default=None,
        help="sweep execution backend: 'batched' runs chunks in-parent, "
             "'process' on a pool of --workers, 'auto' picks the pool only "
             "for --workers > 1 on >= 2 CPUs and large sweeps (default: "
             "process when --workers > 1, else batched; see "
             "docs/parallelism.md)",
    )
    group.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="append completed sweep chunks to a JSONL checkpoint FILE",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="skip chunks already recorded in --checkpoint",
    )


def _add_ablation_parser(subparsers, common) -> None:
    p = subparsers.add_parser(
        "ablation", parents=[common], help="run one design-choice ablation"
    )
    p.add_argument(
        "name",
        choices=["sync", "tracking", "sounding", "cfo", "overhead", "screening"],
    )
    p.add_argument("--seed", type=int, default=None)
    _add_runtime_options(p)


def _add_simulate_parser(subparsers, common) -> None:
    p = subparsers.add_parser(
        "simulate", parents=[common],
        help="event-driven link-layer simulation over fading channels",
    )
    p.add_argument("--n-aps", type=int, default=4)
    p.add_argument("--n-clients", type=int, default=4)
    p.add_argument("--duration", type=float, default=0.5, help="seconds")
    p.add_argument(
        "--arrival-rate", type=float, default=None,
        help="Poisson packets/s per client (default: backlogged)",
    )
    p.add_argument("--resound-interval", type=float, default=25e-3, help="seconds")
    p.add_argument("--coherence-time", type=float, default=0.25, help="seconds")
    p.add_argument("--seed", type=int, default=1)


def _add_obs_parser(subparsers, common) -> None:
    p = subparsers.add_parser(
        "obs", parents=[common], help="inspect observability outputs"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    pr = obs_sub.add_parser(
        "profile", parents=[common],
        help="where a traced run's time went: hot spans by self time and "
             "per-sweep wall-time attribution",
    )
    pr.add_argument("trace_file", help="path to a --trace JSONL output")
    pr.add_argument("--sweep", metavar="GLOB", default=None,
                    help="only sweeps matching this glob (e.g. 'fig9*'); "
                         "exit 1 when none matches")
    pr.add_argument("--top", type=int, default=None, metavar="K",
                    help="show only the K hottest spans")
    pr.add_argument("--folded", metavar="FILE", default=None,
                    help="write folded flamegraph stacks to FILE "
                         "(flamegraph.pl input format)")
    pr.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the attribution as JSON instead of tables")

    runs = obs_sub.add_parser(
        "runs", parents=[common], help="query the run ledger"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    rl = runs_sub.add_parser("list", parents=[common],
                             help="tabulate recent ledger records")
    rl.add_argument("--command", dest="filter_command", default=None,
                    metavar="CMD", help="only runs of this command")
    rl.add_argument("-n", "--limit", type=int, default=20,
                    help="show the last N runs (default 20)")
    rs = runs_sub.add_parser("show", parents=[common],
                             help="print one record as JSON")
    rs.add_argument("run_id", help="run id, unambiguous prefix, or 'latest'")
    rd = runs_sub.add_parser("diff", parents=[common],
                             help="compare two runs (identity + metrics)")
    rd.add_argument("old", help="run id, prefix, or 'latest'")
    rd.add_argument("new", nargs="?", default="latest",
                    help="run id, prefix, or 'latest' (default)")

    obs_sub.add_parser(
        "regress", parents=[common],
        help="run every check of the paper-claims table; exit 1 on a breach",
    )


def _add_lint_parser(subparsers, common) -> None:
    from repro.analysis.cli import add_lint_arguments

    p = subparsers.add_parser(
        "lint", parents=[common],
        help="AST-based determinism/numerics/obs linter (repro lint)",
    )
    add_lint_arguments(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MegaMIMO / JMB (SIGCOMM 2012) reproduction toolkit",
    )
    common = _common_options()
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_figure_parser(subparsers, common)
    _add_ablation_parser(subparsers, common)
    _add_simulate_parser(subparsers, common)
    subparsers.add_parser(
        "quickstart", parents=[common], help="2 APs jointly serve 2 clients"
    )
    subparsers.add_parser(
        "report", parents=[common], help="regenerate all EXPERIMENTS.md tables"
    )
    _add_obs_parser(subparsers, common)
    _add_lint_parser(subparsers, common)
    return parser


def _runtime_kwargs(args, supported: bool, what: str) -> dict:
    """Translate --workers/--backend/--checkpoint/--resume into runner kwargs.

    Serial-only targets (``supported=False``) get an empty dict plus a
    warning, so the flags never silently change semantics.  ``--backend``
    is only forwarded when given, keeping config hashes of existing
    invocations stable.
    """
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")
    if not supported:
        if args.workers != 1 or args.checkpoint or args.backend:
            logger.warning(
                "%s runs serially; ignoring --workers/--backend/"
                "--checkpoint/--resume", what
            )
        return {}
    kwargs = {
        "workers": args.workers,
        "checkpoint": args.checkpoint,
        "resume": args.resume,
    }
    if args.backend is not None:
        kwargs["backend"] = args.backend
    return kwargs


def _run_figure(args, ctx: RunContext) -> int:
    from repro.sim import experiments as E
    from repro.sim.claims import CLAIMS

    scale = max(args.scale, 0.1)
    n = args.number
    seed = args.seed if args.seed is not None else CLAIMS[f"fig{n}"].seed
    rt = _runtime_kwargs(args, supported=n in (6, 8, 9, 10, 11), what=f"figure {n}")
    logger.info("running figure %d at scale %.2f", n, scale)

    if n == 6:
        result = E.run_fig6(seed=seed, n_channels=max(int(100 * scale), 10), **rt)
    elif n == 7:
        result = E.run_fig7(
            seed=seed, n_systems=max(int(8 * scale), 2),
            n_rounds=max(int(25 * scale), 5),
        )
    elif n == 8:
        result = E.run_fig8(seed=seed, n_topologies=max(int(10 * scale), 2), **rt)
    elif n == 9:
        result = E.run_fig9(seed=seed, n_topologies=max(int(10 * scale), 2), **rt)
    elif n == 10:
        result = E.run_fig10(seed=seed, n_topologies=max(int(10 * scale), 2), **rt)
    elif n == 11:
        result = E.run_fig11(seed=seed, n_draws=max(int(20 * scale), 4), **rt)
    elif n == 12:
        result = E.run_fig12(seed=seed, n_topologies=max(int(20 * scale), 4))
    else:
        result = E.run_fig13(seed=seed, n_topologies=max(int(20 * scale), 4))
    ctx.config = {"figure": n, "scale": scale, "seed": seed, **rt}
    ctx.master_seed = seed
    if hasattr(result, "headline"):
        ctx.headline = result.headline()
    print(f"=== Figure {n} ===")
    print(result.format_table())
    return 0


def _run_ablation(args, ctx: RunContext) -> int:
    from repro.sim.claims import CLAIMS

    claim = CLAIMS[args.name]
    seed = args.seed if args.seed is not None else claim.seed
    rt = _runtime_kwargs(
        args, supported=args.name in ("sync", "screening"),
        what=f"ablation {args.name!r}",
    )
    if args.name == "screening":
        # two nested fig9 sweeps would fight over one checkpoint file
        if rt.pop("checkpoint", None):
            logger.warning("screening ablation ignores --checkpoint/--resume")
        rt.pop("resume", None)
    logger.info("running ablation %r", args.name)
    result = claim.runner(seed=seed, **rt)
    ctx.config = {"ablation": args.name, "seed": seed, **rt}
    ctx.master_seed = seed
    if hasattr(result, "headline"):
        ctx.headline = result.headline()
    print(f"=== Ablation: {args.name} ===")
    print(result.format_table())
    return 0


def _run_simulate(args, ctx: RunContext) -> int:
    from repro.mac.simulator import DownlinkSimulator, LinkLayerConfig

    config = LinkLayerConfig(
        n_aps=args.n_aps,
        n_clients=args.n_clients,
        duration_s=args.duration,
        arrival_rate_pps=args.arrival_rate,
        resound_interval_s=args.resound_interval,
        coherence_time_s=args.coherence_time,
        seed=args.seed,
    )
    logger.info(
        "simulating %d APs x %d clients for %.0f ms",
        config.n_aps, config.n_clients, config.duration_s * 1e3,
    )
    sim_trace = DownlinkSimulator(config).run()
    ctx.config = {
        "n_aps": config.n_aps,
        "n_clients": config.n_clients,
        "duration_s": config.duration_s,
        "arrival_rate_pps": config.arrival_rate_pps,
        "resound_interval_s": config.resound_interval_s,
        "coherence_time_s": config.coherence_time_s,
        "seed": config.seed,
    }
    ctx.master_seed = config.seed
    ctx.headline = sim_trace.headline()
    print(sim_trace.format_summary())
    return 0


def _run_quickstart(ctx: RunContext) -> int:
    from repro import MegaMimoSystem, SystemConfig, get_mcs
    from repro.channel.models import RicianChannel

    logger.info("quickstart: 2 APs jointly serving 2 clients")
    system = MegaMimoSystem.create(
        SystemConfig(n_aps=2, n_clients=2, seed=7),
        client_snr_db=25.0,
        channel_model=RicianChannel(k_factor=8.0),
    )
    system.run_sounding(0.0)
    payloads = [b"packet for client zero", b"packet for client one!"]
    report = system.joint_transmit(payloads, get_mcs(2), start_time=1e-3)
    for i, r in enumerate(report.receptions):
        status = "ok" if r.decoded.crc_ok else "FAILED"
        print(
            f"client{i}: {status}, SNR {r.effective_snr_db:.1f} dB, "
            f"payload={r.decoded.payload!r}"
        )
    ctx.config = {"n_aps": 2, "n_clients": 2, "seed": 7}
    ctx.master_seed = 7
    ok = [r.decoded.crc_ok for r in report.receptions]
    ctx.headline = {
        "quickstart.crc_ok_frac": sum(ok) / len(ok),
        "quickstart.min_snr_db": min(
            float(r.effective_snr_db) for r in report.receptions
        ),
    }
    return 0 if all(ok) else 1


def _run_report() -> int:
    from repro.sim.report import generate_report

    generate_report()
    return 0


# ---------------------------------------------------------------------------
# obs subcommands
# ---------------------------------------------------------------------------


def _resolve_run(ledger, token: str):
    """A ledger record from an id, unambiguous prefix, or ``latest``."""
    record = ledger.latest() if token == "latest" else ledger.get(token)
    if record is None:
        logger.error("no run %r in %s", token, ledger.path)
    return record


def _run_obs_runs(args) -> int:
    from repro.obs.ledger import (
        Ledger, diff_records, format_diff, format_list, format_show,
    )

    ledger = Ledger(args.ledger)
    if args.runs_command == "list":
        print(format_list(ledger.last(args.limit, command=args.filter_command)))
        return 0
    if args.runs_command == "show":
        record = _resolve_run(ledger, args.run_id)
        if record is None:
            return 1
        print(format_show(record))
        return 0
    # diff
    old = _resolve_run(ledger, args.old)
    new = _resolve_run(ledger, args.new)
    if old is None or new is None:
        return 1
    print(format_diff(diff_records(old, new)))
    return 0


def _run_obs_regress() -> int:
    from repro.sim.claims import CLAIMS

    checks = [(claim, check) for claim in CLAIMS.values() for check in claim.checks]
    failed = []
    for claim, check in checks:
        name = f"{claim.key}/{check.name}"
        with metrics.timer("obs.regress_check_s") as timer:
            try:
                status = "ok" if claim.holds(check.name) else "BREACH"
            except Exception as exc:  # a runner that raises fails its row, not the run
                logger.debug("%s raised", name, exc_info=True)
                status = f"ERROR {type(exc).__name__}: {exc}"
        print(f"{name:<72} {status:<8} {timer.wall_s:7.1f} s")
        if status != "ok":
            failed.append(name)
    if failed:
        print(f"regress FAILED: {len(failed)} of {len(checks)} checks do not hold "
              f"({', '.join(failed)})")
        return 1
    print(f"regress passed: all {len(checks)} checks hold")
    return 0


def _run_obs_profile(args) -> int:
    from dataclasses import replace
    from fnmatch import fnmatchcase

    from repro.obs import profile as P

    try:
        prof = P.profile_trace(args.trace_file)
    except OSError as exc:
        logger.error("cannot read trace: %s", exc)
        return 1
    except ValueError as exc:  # includes JSONDecodeError
        logger.error("malformed trace %s: %s", args.trace_file, exc)
        return 1
    if not prof.spans:
        logger.error("no span records in %s", args.trace_file)
        return 1
    if args.sweep:
        prof = replace(prof, attributions=[
            a for a in prof.attributions if fnmatchcase(a.sweep, args.sweep)
        ])
        if not prof.attributions:
            logger.error(
                "no sweep matching %r with dispatch records in %s — trace a "
                "sweep-running command (e.g. `repro figure 9 --workers 4 "
                "--trace out.jsonl`)", args.sweep, args.trace_file,
            )
            return 1
    if args.folded:
        lines = P.folded_stacks(prof.records)
        with open(args.folded, "w") as f:
            f.write("\n".join(lines) + ("\n" if lines else ""))
        logger.info("%d folded stacks written to %s", len(lines), args.folded)
    if args.as_json:
        print(json.dumps([a.to_dict() for a in prof.attributions], indent=2))
    else:
        print(P.format_profile(prof, top_k=args.top))
    return 0


def _run_obs(args) -> int:
    if args.obs_command == "profile":
        return _run_obs_profile(args)
    if args.obs_command == "runs":
        return _run_obs_runs(args)
    if args.obs_command == "regress":
        return _run_obs_regress()
    return 2  # unreachable: argparse enforces the choices


def _dispatch(args, ctx: RunContext) -> int:
    from repro.runtime import CheckpointMismatch, SweepError

    try:
        if args.command == "figure":
            return _run_figure(args, ctx)
        if args.command == "ablation":
            return _run_ablation(args, ctx)
    except CheckpointMismatch as exc:
        logger.error("%s", exc)
        logger.error("delete the file or rerun without --resume to start fresh")
        return 1
    except SweepError as exc:
        # e.g. a kernel that returned the wrong number of results, or
        # trials lost to a stall the retry path could not cover
        from repro.obs import blackbox

        blackbox.write_crash_bundle(
            "sweep_error", error=exc, runs_dir=args.ledger,
        )
        logger.error("%s", exc)
        return 1
    if args.command == "simulate":
        return _run_simulate(args, ctx)
    if args.command == "quickstart":
        return _run_quickstart(ctx)
    if args.command == "report":
        return _run_report()
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "lint":
        from repro.analysis.cli import run_lint_command

        return run_lint_command(args)
    return 2  # unreachable: argparse enforces the choices


def _record_run(
    args, ctx: RunContext, argv: List[str], started: float,
    duration_s: float, status: str, run_id: Optional[str] = None,
) -> None:
    """Append this invocation to the run ledger (best-effort, never raises)."""
    if args.command not in RUN_COMMANDS or args.no_ledger:
        return
    from repro.obs import ledger as L
    from repro.obs import provenance

    for kind in ("trace", "metrics", "checkpoint"):
        path = getattr(args, kind, None)
        if path:
            ctx.artifacts.setdefault(kind, path)
    prov = provenance.collect(ctx.config)
    record = L.RunRecord(
        run_id=run_id if run_id is not None else L.new_run_id(started),
        ts=started,
        command=args.command,
        argv=list(argv),
        status=status,
        duration_s=duration_s,
        git_sha=prov["git_sha"],
        git_dirty=prov["git_dirty"],
        config_hash=prov["config_hash"],
        config=ctx.config,
        master_seed=ctx.master_seed,
        platform={
            k: prov[k]
            for k in ("platform", "python", "numpy", "cpu_count", "hostname")
        },
        metrics=ctx.headline,
        artifacts=ctx.artifacts,
        alarms=ctx.alarms,
    )
    try:
        path = L.Ledger(args.ledger).append(record)
    except OSError as exc:
        logger.warning("could not append run record: %s", exc)
        return
    logger.info("run %s appended to %s", record.run_id, path)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # The stdout reader went away mid-print (e.g. `repro obs runs show
        # | head`).  Point the dangling fd at devnull so interpreter
        # shutdown doesn't raise again while flushing, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _judge_run(args, ctx: RunContext, code: int) -> int:
    """The end-of-run alert judge: one pass of the built-in rules.

    Fired rules become ledger alarms; a critical one writes the run's
    ``critical_alert`` crash bundle (unless a stall, signal or exception
    already wrote one); under ``--fail-on-alert`` a firing turns a
    successful run into :data:`EXIT_ALERT`.
    """
    from repro.obs import blackbox
    from repro.obs.alerts import AlertEngine, builtin_rules

    fired = AlertEngine(builtin_rules()).evaluate(metrics.get_registry())
    ctx.alarms.extend(fired)
    critical = [a["rule"] for a in fired if a["severity"] == "critical"]
    if critical and blackbox.pending_bundles() == 0:
        blackbox.write_crash_bundle(
            "critical_alert", runs_dir=args.ledger, detail={"rules": critical},
        )
    if fired and args.fail_on_alert and code == 0:
        logger.error(
            "alert rules fired during the run: %s",
            ", ".join(a["rule"] for a in fired),
        )
        return EXIT_ALERT
    return code


def _main(argv: Optional[List[str]]) -> int:
    argv_list = list(argv) if argv is not None else sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv_list)
    setup_logging(verbosity=args.verbose - args.quiet)
    if args.trace:
        try:
            trace.configure(args.trace, command=args.command, argv=argv_list)
        except OSError as exc:
            logger.error("cannot open trace file: %s", exc)
            return 1
        logger.info("tracing to %s", args.trace)
    ctx = RunContext()
    started = time.time()
    run_timer = metrics.timer("cli.command_s").start()
    status = "error"
    run_id: Optional[str] = None
    guard = None
    is_run = args.command in RUN_COMMANDS
    if is_run:
        # the end-of-run judge reads this run's samples only
        metrics.reset()
        # Crash forensics: mint the ledger run id *now* (not at record
        # time) so any bundle written mid-run — watchdog stall, signal,
        # unhandled exception — lands in runs/crash-<runid>/ with the
        # same id the ledger record will carry.
        from repro.obs import blackbox
        from repro.obs.ledger import new_run_id

        run_id = new_run_id(started)
        blackbox.set_run_context(
            run_id=run_id, command=args.command, argv=argv_list,
            runs_dir=args.ledger,
        )
        guard = blackbox.signal_guard(runs_dir=args.ledger)
        guard.__enter__()
    try:
        try:
            with trace.span("cli.command", command=args.command):
                code = _dispatch(args, ctx)
        except Exception as exc:
            if is_run:
                from repro.obs import blackbox

                blackbox.write_crash_bundle(
                    "unhandled_exception", error=exc, runs_dir=args.ledger,
                )
            raise
        status = "ok" if code == 0 else "error"
        if is_run:
            # judged while the trace is still open, so the obs.alert
            # events land in it
            code = _judge_run(args, ctx, code)
            if code == EXIT_ALERT:
                status = "alert"
        return code
    finally:
        run_timer.stop()
        if guard is not None:
            guard.__exit__(None, None, None)
        if is_run:
            from repro.obs import blackbox

            # crash bundles written anywhere this run become ledger
            # alarms, so `repro obs runs show` links to the forensics
            ctx.alarms.extend(blackbox.drain_bundles())
            blackbox.clear_run_context()
        if args.trace:
            trace.close()
            logger.info("trace written to %s", args.trace)
        if args.metrics:
            metrics.write_json(args.metrics)
            logger.info("metrics written to %s", args.metrics)
        _record_run(args, ctx, argv_list, started, run_timer.wall_s, status,
                    run_id=run_id)


if __name__ == "__main__":
    raise SystemExit(main())
