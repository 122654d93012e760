"""Command-line interface.

Subcommands mirror the analysis areas: ``bias-table`` (closed forms),
``simulate`` (ensemble summaries), ``estimate`` (growth/renewal estimators
and predictions), ``exposures`` (multiple-infector estimator study),
``cfr`` (delayed-observation corrections), and ``reproduce-paper`` (all of
them).  Each report is a JSON file that carries the seed, package version,
and config hash that produced it, and a CSV of its rows beside it.  A run
that succeeds also writes the canonical text of its config as
``config.ini``, so ``--config config.ini`` re-runs it.  Every file is
written into a staging directory under ``--out`` and moved into place
only when the command succeeds, so one that fails leaves ``--out`` as it
found it.  Identical (config, seed, version) triples give byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
from functools import partial
from pathlib import Path

from . import __version__, analysis, cfr as cfr_mod, growth_math
from .config import ConfigError, DEFAULT_CONFIG, RunConfig, load_config
from .distributions import laplace
from .outbreak_sim import ensemble_map, summarize_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
# The directory under --out that a command writes into before its files move into place.
STAGING = "epibias.partial"
# The reports each command writes, each as NAME.json and NAME.csv.
REPORTS = {"bias-table": ["bias_table"], "cfr": ["cfr_report"], "estimate": ["estimates"],
           "exposures": ["exposure_estimates"], "simulate": ["ensemble_summary"],
           "reproduce-paper": ["bias_table", "cfr_report", "exposure_estimates", "estimates"]}


def _write_report(config: RunConfig, outdir: Path, name: str, payload: dict,
                  header: list[str] | None = None, rows: list[list] | None = None) -> None:
    """Write one report: ``payload`` stamped with the run's ``meta`` as ``<name>.json``
    (NaN and infinity as null), and ``rows`` under ``header`` as ``<name>.csv``
    when there are rows.  The CSV carries no ``meta``: its stamp is in the JSON."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    text = json.dumps({"meta": config.metadata(), **payload}, indent=2, sort_keys=True,
                      allow_nan=False)
    (outdir / f"{name}.json").write_text(text + "\n")
    if rows is not None:
        with open(outdir / f"{name}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])


def _stats_row(*labels, stats: dict) -> list:
    """``labels`` followed by the mean, sd and central 95% range of ``stats``."""
    return [*labels, stats["mean"], stats["sd"], stats["q025"], stats["q975"]]


def _require_R0(scenario, report: str) -> None:
    """Raise unless ``scenario``'s R0 links to a growth rate: it must be positive and finite."""
    if not 0.0 < scenario.R0() < math.inf:
        raise ConfigError(f"[scenario] contact_rate = {scenario.contact_rate:g}: the {report} "
                          f"needs R0 > 0 and finite, got {scenario.R0():g}")


def cmd_bias_table(config: RunConfig, outdir: Path) -> None:
    scn = config.scenario
    _require_R0(scn, "bias table")
    try:
        reports = growth_math.bias_table(scn)
    except ValueError as err:  # an outbreak declining so fast that a re-solved R0 diverges
        r = growth_math.solve_r(scn.R0(), scn.implied_generation())
        raise ConfigError(f"[scenario] contact_rate = {scn.contact_rate:g}: growth rate "
                          f"{r:g} declines too fast for the bias table: {err}") from err
    rows = [{
        "source": report.source.value,
        "R0_biased": report.R0_biased,
        "r_biased": report.r_biased,
        "R0_bias_pct": 100.0 * report.R0_rel_bias,
        "r_bias_pct": 100.0 * report.r_rel_bias,
        "note": report.note,
    } for report in reports]
    _write_report(config, outdir, "bias_table", {"rows": rows},
                  list(rows[0]), [list(r.values()) for r in rows])
    print(f"bias-table: wrote {len(rows)} rows")


def _trace_name(replicate_index: int) -> str:
    return f"trace_{replicate_index:04d}.csv"


def _summarize_and_write(trace, replicate_index: int, trace_dir: Path):
    """Summarize one trace and write its CSV into ``trace_dir``, in the worker."""
    trace.to_csv(trace_dir / _trace_name(replicate_index))
    return summarize_trace(trace, replicate_index)


def cmd_simulate(config: RunConfig, outdir: Path, write_traces: bool = False) -> None:
    # Each trace is written where it is simulated; the pool simulates
    # replicates past the accepted set, whose files are then removed.
    fn = summarize_trace
    trace_dir = outdir / "traces"
    if write_traces:
        trace_dir.mkdir()
        fn = partial(_summarize_and_write, trace_dir=trace_dir)
    summaries, attempts = ensemble_map(
        config.scenario, config.replicates, fn, threads=config.threads
    )
    if write_traces:
        accepted = {_trace_name(s.replicate_index) for s in summaries}
        for path in trace_dir.iterdir():
            if path.name not in accepted:
                path.unlink()
    stats = analysis.summarize_traces(summaries)
    _write_report(config, outdir, "ensemble_summary",
                  {"n_accepted": len(summaries), "n_attempts": attempts, **stats},
                  ["quantity", "mean", "sd", "q025", "q975"],
                  [_stats_row(name, stats=s) for name, s in stats.items()])
    print(f"simulate: {len(summaries)} accepted of {attempts} attempts")


def cmd_estimate(config: RunConfig, outdir: Path) -> None:
    config.check_estimate()
    ens = analysis.analyze_ensemble(
        config.scenario, config.replicates, options=config.options,
        threads=config.threads,
    )
    report = analysis.ensemble_report(ens)
    rows = [_stats_row(quantity, key, stats=(report[group] if group else report)[key])
            for quantity, group, key, _ in analysis.REPORTED]
    _write_report(config, outdir, "estimates", report,
                  ["quantity", "method", "mean", "sd", "q025", "q975"], rows)
    print(f"estimate: analyzed {len(ens)} accepted runs")


def cmd_exposures(config: RunConfig, outdir: Path) -> None:
    study = analysis.exposure_study(
        config.exposure_model,
        config.exposure_n_persons,
        config.exposure_replicates,
        master_seed=config.seed,
        threads=config.threads,
    )
    truth = {
        "p": config.exposure_model.p,
        "mean": config.exposure_model.incubation.mean(),
        "sd": config.exposure_model.incubation.sd(),
        "contact_rate": config.exposure_model.contact_rate,
    }
    rows = []
    for family, by_est in study.items():
        for estimator in ("ml", "moment"):
            for param, stats in by_est[estimator].items():
                rows.append([family, estimator, param, stats["mean"],
                             stats["q025"], stats["q975"]])
        rows.append([family, "moment", "sd_pooled",
                     by_est["moment_sd_pooled"], "", ""])
    _write_report(config, outdir, "exposure_estimates", {"truth": truth, "study": study},
                  ["generator", "estimator", "parameter", "mean", "q025", "q975"], rows)
    print("exposures: wrote estimator study")


def cmd_cfr(config: RunConfig, outdir: Path) -> None:
    # The simulated outbreak's growth rate, CFR and notification-to-outcome delays.
    scn = config.scenario
    _require_R0(scn, "cfr report")
    r = growth_math.solve_r(scn.R0(), scn.implied_generation())
    death = scn.notification_delay(scn.to_death)
    recovery = scn.notification_delay(scn.to_recovery)
    try:
        pi, rho = laplace(death, r), laplace(recovery, r)
    except ValueError as err:  # an outbreak declining faster than a delay's tail thins
        raise ConfigError(f"[scenario] contact_rate = {scn.contact_rate:g}: growth rate "
                          f"{r:g} outruns the notification-to-outcome delays: {err}") from err
    resolved = cfr_mod.resolved_cfr_bias(scn.p_death, pi, rho)
    payload = {
        "r": r,
        "true_cfr": scn.p_death,
        "observed_death_fraction": pi,
        "observed_recovery_fraction": rho,
        "naive_estimator_expectation": scn.p_death * pi,
        "naive_correction_factor": 1.0 / pi,
        "resolved_estimator_expectation": resolved,
        "resolved_relative_bias": resolved / scn.p_death - 1.0 if scn.p_death else math.nan,
    }
    _write_report(config, outdir, "cfr_report", payload,
                  ["quantity", "value"], [list(item) for item in payload.items()])
    print("cfr: wrote report")


def cmd_reproduce(config: RunConfig, outdir: Path) -> None:
    config.check_estimate()  # before the first report is written
    cmd_bias_table(config, outdir)
    cmd_cfr(config, outdir)
    cmd_exposures(config, outdir)
    cmd_estimate(config, outdir)
    _write_report(config, outdir, "bundle", {"contents": REPORTS["reproduce-paper"]})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epibias",
        description="Bias quantification and correction for emerging-epidemic estimation",
    )
    parser.add_argument("--version", action="version", version=f"epibias {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, replicates=True, threads=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="INI config file (defaults are built in)")
        p.add_argument("--seed", type=int, help="master seed override")
        if replicates:
            p.add_argument("--replicates", type=int, help="[run] replicates override")
        if threads:
            p.add_argument("--threads", type=int,
                           help="worker processes for ensembles and the exposure study")
        p.add_argument("--out", default=".", help="output directory")
        return p

    command("bias-table", "closed-form bias table", replicates=False, threads=False)
    command("simulate", "run the outbreak ensemble").add_argument(
        "--write-traces", action="store_true", help="also write one CSV per accepted run")
    command("estimate", "growth/renewal estimators and predictions")
    command("exposures", "multiple-infector estimator study", replicates=False)
    command("cfr", "case-fatality corrections", replicates=False, threads=False)
    command("reproduce-paper", "run every analysis")
    sub.add_parser("default-config", help="print the built-in config")
    return parser


def _in_the_way(outdir: Path, command: str, write_traces: bool, own_ini: bool) -> str | None:
    """Why ``command`` cannot put its files into ``outdir``, or None if it can:
    a file or link in place of the staging directory it remakes, a file in
    place of ``traces/`` under --write-traces, or a directory in place of a
    file it writes (its reports, reproduce-paper's ``bundle.json``, and
    ``config.ini`` when ``own_ini``) or removes (an earlier run's trace CSVs,
    under --write-traces)."""
    staging, traces = outdir / STAGING, outdir / "traces"
    for path in [staging, traces] if write_traces else [staging]:
        if os.path.lexists(path) and (not path.is_dir() or path == staging and path.is_symlink()):
            return f"{path} is in the way: the {command} command writes a directory there"
    names = [f"{name}.{ext}" for name in REPORTS[command] for ext in ("json", "csv")]
    names += ["bundle.json"] if command == "reproduce-paper" else []
    names += ["config.ini"] if own_ini else []
    stale = list(traces.glob("trace_*.csv")) if write_traces else []
    for path in stale + [outdir / name for name in names]:
        if path.is_dir() and not path.is_symlink():
            verb = "removes" if path in stale else "writes"
            return f"{path} is in the way: the {command} command {verb} a file there"


def _move_into_place(staging: Path, outdir: Path) -> None:
    """Move every file written into ``staging`` to the same name in ``outdir``.

    A ``traces`` directory replaces the trace CSVs an earlier run left in
    ``outdir/traces``, not only those of the same name.
    """
    if (staging / "traces").exists():
        for path in (outdir / "traces").glob("trace_*.csv"):
            path.unlink()
    for path in [path for path in staging.rglob("*") if path.is_file()]:
        dst = outdir / path.relative_to(staging)
        dst.parent.mkdir(exist_ok=True)
        path.replace(dst)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "default-config":
        sys.stdout.write(DEFAULT_CONFIG)
        return EXIT_OK
    try:
        config = load_config(
            path=args.config,
            seed=args.seed,
            replicates=getattr(args, "replicates", None),
            threads=getattr(args, "threads", None),
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # The file --config names already describes the run: never rewrite it.
    config_ini = outdir / "config.ini"
    own_ini = args.config is None or config_ini.resolve() != Path(args.config).resolve()
    # Checked before the command runs: nothing is simulated for files it cannot write.
    write_traces = getattr(args, "write_traces", False)
    if blocked := _in_the_way(outdir, args.command, write_traces, own_ini):
        print(f"config error: {blocked}", file=sys.stderr)
        return EXIT_CONFIG

    commands = {
        "bias-table": cmd_bias_table, "estimate": cmd_estimate, "exposures": cmd_exposures,
        "cfr": cmd_cfr, "reproduce-paper": cmd_reproduce,
        "simulate": partial(cmd_simulate, write_traces=write_traces),
    }
    staging = outdir / STAGING
    shutil.rmtree(staging, ignore_errors=True)   # left by a run that was killed
    staging.mkdir()
    try:
        commands[args.command](config, staging)
        if own_ini:
            (staging / "config.ini").write_text(config.canonical_text)
        _move_into_place(staging, outdir)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(f"{args.command}: output in {outdir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
