"""Command-line interface.

Subcommands mirror the analysis areas: ``bias-table`` (closed forms),
``simulate`` (ensemble summaries), ``estimate`` (growth/renewal estimators
and predictions), ``exposures`` (multiple-infector estimator study),
``cfr`` (delayed-observation corrections), and ``reproduce-paper`` (all of
them).  Outputs are CSV or JSON files carrying the seed, package version,
and config hash that produced them; identical (config, seed, version)
triples give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from functools import partial
from pathlib import Path

from . import __version__, analysis, cfr as cfr_mod, growth_math
from .config import ConfigError, DEFAULT_CONFIG, RunConfig, load_config
from .exposures import ConvergenceError, MomentFitError
from .outbreak_sim import (
    AcceptanceError,
    EnsembleStats,
    SimulationLimitError,
    ensemble_map,
    summarize_trace,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _float6(x) -> str:
    return f"{x:.6g}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_float6(v) if isinstance(v, float) else v for v in row])


def _bias_rows(config: RunConfig) -> list[dict]:
    combined_note = (
        "combined row is the product of unrounded factors; "
        "tables assembled from rounded rows may differ by a point or two"
    )
    rows = []
    for report in growth_math.bias_table(config.bias):
        rows.append({
            "source": report.source.value,
            "R0_biased": report.R0_biased,
            "r_biased": report.r_biased,
            "R0_bias_pct": 100.0 * report.R0_rel_bias,
            "r_bias_pct": 100.0 * report.r_rel_bias,
            "note": report.note or (combined_note if report.source.value == "combined" else ""),
        })
    return rows


def cmd_bias_table(config: RunConfig, outdir: Path) -> None:
    rows = _bias_rows(config)
    if config.out_format == "json":
        _write_json(outdir / "bias_table.json", {"meta": config.metadata(), "rows": rows})
    else:
        _write_csv(
            outdir / "bias_table.csv",
            ["source", "R0_biased", "r_biased", "R0_bias_pct", "r_bias_pct", "note"],
            [[r["source"], r["R0_biased"], r["r_biased"],
              r["R0_bias_pct"], r["r_bias_pct"], r["note"]] for r in rows],
        )
    print(f"bias-table: wrote {len(rows)} rows to {outdir}")


def _summarize_and_write(trace, replicate_index: int, staging: Path):
    """Summarize one trace and write its CSV into ``staging``, in the worker."""
    trace.to_csv(staging / f"trace_{replicate_index:04d}.csv")
    return summarize_trace(trace, replicate_index)


def cmd_simulate(config: RunConfig, outdir: Path, write_traces: bool = False) -> None:
    # Each trace is written where it is simulated, into a staging directory:
    # the pool simulates replicates past the accepted set, and only the
    # accepted replicates' files are moved into traces/.
    fn = summarize_trace
    staging = outdir / "traces.partial"
    if write_traces:
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
        fn = partial(_summarize_and_write, staging=staging)
    try:
        summaries, attempts = ensemble_map(
            config.scenario, config.replicates, fn, threads=config.threads
        )
        if write_traces:
            trace_dir = outdir / "traces"
            trace_dir.mkdir(exist_ok=True)
            for summary in summaries:
                name = f"trace_{summary.replicate_index:04d}.csv"
                (staging / name).replace(trace_dir / name)
    finally:
        if write_traces:
            shutil.rmtree(staging, ignore_errors=True)
    stats = EnsembleStats(config.scenario, len(summaries), attempts, summaries)
    payload = {
        "meta": config.metadata(),
        "n_accepted": stats.n_accepted,
        "n_attempts": stats.n_attempts,
        "threshold_time": analysis.summarize(stats.threshold_times()),
        "notified_over_infected": analysis.summarize(stats.ratios()),
        "time_to_first_100": analysis.summarize(
            [s.time_to_first_100 for s in stats.summaries]
        ),
        "time_100_to_threshold": analysis.summarize(
            [s.time_100_to_threshold for s in stats.summaries]
        ),
        "resolved": analysis.summarize([s.resolved for s in stats.summaries]),
        "pending_notified": analysis.summarize(
            [s.pending_notified for s in stats.summaries]
        ),
        "unnotified": analysis.summarize([s.unnotified for s in stats.summaries]),
    }
    _write_json(outdir / "ensemble_summary.json", payload)
    print(
        f"simulate: {stats.n_accepted} accepted of {stats.n_attempts} attempts; "
        f"summary in {outdir}"
    )


def cmd_estimate(config: RunConfig, outdir: Path) -> None:
    ens = analysis.analyze_ensemble(
        config.scenario, config.replicates, options=config.options,
        threads=config.threads,
    )
    report = analysis.ensemble_report(ens)
    report["meta"] = config.metadata()
    if config.out_format == "json":
        _write_json(outdir / "estimates.json", report)
    else:
        rows = []
        for method, stats in report["growth_estimates"].items():
            rows.append(["r", method, stats["mean"], stats["sd"], stats["q025"], stats["q975"]])
        for name in ("renewal_R0_backward_weights", "renewal_R0_true_weights"):
            stats = report[name]
            rows.append(["R0", name, stats["mean"], stats["sd"], stats["q025"], stats["q975"]])
        for method, stats in report["prediction_ratios"].items():
            rows.append(["prediction_ratio", method, stats["mean"], stats["sd"],
                         stats["q025"], stats["q975"]])
        _write_csv(outdir / "estimates.csv",
                   ["quantity", "method", "mean", "sd", "q025", "q975"], rows)
    print(f"estimate: analyzed {len(ens)} accepted runs; report in {outdir}")


def cmd_exposures(config: RunConfig, outdir: Path) -> None:
    study = analysis.exposure_study(
        config.exposure_model,
        config.exposure_n_persons,
        config.exposure_replicates,
        master_seed=config.seed,
    )
    truth = {
        "p": config.exposure_model.p,
        "mean": config.exposure_model.incubation.mean(),
        "sd": config.exposure_model.incubation.sd(),
        "contact_rate": config.exposure_model.contact_rate,
    }
    if config.out_format == "json":
        _write_json(outdir / "exposure_estimates.json",
                    {"meta": config.metadata(), "truth": truth, "study": study})
    else:
        rows = []
        for family, by_est in study.items():
            for estimator in ("ml", "moment"):
                for param, stats in by_est[estimator].items():
                    rows.append([family, estimator, param, stats["mean"],
                                 stats["q025"], stats["q975"]])
            rows.append([family, "moment", "sd_pooled",
                         by_est["moment_sd_pooled"], "", ""])
        _write_csv(outdir / "exposure_estimates.csv",
                   ["generator", "estimator", "parameter", "mean", "q025", "q975"], rows)
    print(f"exposures: wrote estimator study to {outdir}")


def cmd_cfr(config: RunConfig, outdir: Path) -> None:
    death = cfr_mod.DelaySpec.exponential(config.cfr_death_delay_mean, cfr_mod.DelayKind.TO_DEATH)
    recovery = cfr_mod.DelaySpec.exponential(
        config.cfr_recovery_delay_mean, cfr_mod.DelayKind.TO_RECOVERY
    )
    r = config.cfr_r
    pi = cfr_mod.pi_infinity(r, death)
    rho = cfr_mod.pi_infinity(r, recovery)
    resolved = cfr_mod.resolved_cfr_bias(config.cfr_true, r, death, recovery)
    payload = {
        "meta": config.metadata(),
        "r": r,
        "true_cfr": config.cfr_true,
        "observed_death_fraction": pi,
        "observed_recovery_fraction": rho,
        "naive_estimator_expectation": config.cfr_true * pi,
        "naive_correction_factor": 1.0 / pi,
        "resolved_estimator_expectation": resolved,
        "resolved_relative_bias": resolved / config.cfr_true - 1.0,
    }
    if config.out_format == "json":
        _write_json(outdir / "cfr_report.json", payload)
    else:
        _write_csv(outdir / "cfr_report.csv",
                   ["quantity", "value"],
                   [[k, v] for k, v in payload.items() if k != "meta"])
    print(f"cfr: report in {outdir}")


def cmd_reproduce(config: RunConfig, outdir: Path) -> None:
    cmd_bias_table(config, outdir)
    cmd_cfr(config, outdir)
    cmd_exposures(config, outdir)
    cmd_estimate(config, outdir)
    _write_json(outdir / "bundle.json", {
        "meta": config.metadata(),
        "contents": ["bias_table", "cfr_report", "exposure_estimates", "estimates"],
    })
    print(f"reproduce-paper: full bundle in {outdir}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epibias",
        description="Bias quantification and correction for emerging-epidemic estimation",
    )
    parser.add_argument("--version", action="version", version=f"epibias {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file (defaults are built in)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--replicates", type=int, help="ensemble size override")
        p.add_argument("--threads", type=int, help="worker processes for ensembles")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=["csv", "json"], help="output format")

    add_common(sub.add_parser("bias-table", help="closed-form bias table"))
    p_sim = sub.add_parser("simulate", help="run the outbreak ensemble")
    add_common(p_sim)
    p_sim.add_argument("--write-traces", action="store_true",
                       help="also write one CSV per accepted run")
    add_common(sub.add_parser("estimate", help="growth/renewal estimators and predictions"))
    add_common(sub.add_parser("exposures", help="multiple-infector estimator study"))
    add_common(sub.add_parser("cfr", help="case-fatality corrections"))
    add_common(sub.add_parser("reproduce-paper", help="run every analysis"))
    p_cfg = sub.add_parser("default-config", help="print the built-in config")
    p_cfg.set_defaults(command="default-config")
    return parser


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
            replicates=args.replicates,
            threads=args.threads,
            out_format=args.format,
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

    try:
        if args.command == "bias-table":
            cmd_bias_table(config, outdir)
        elif args.command == "simulate":
            cmd_simulate(config, outdir, write_traces=args.write_traces)
        elif args.command == "estimate":
            cmd_estimate(config, outdir)
        elif args.command == "exposures":
            cmd_exposures(config, outdir)
        elif args.command == "cfr":
            cmd_cfr(config, outdir)
        elif args.command == "reproduce-paper":
            cmd_reproduce(config, outdir)
        else:  # pragma: no cover - argparse enforces the choices
            raise AssertionError(args.command)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AcceptanceError, SimulationLimitError, ConvergenceError,
            MomentFitError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
