"""Command-line experiment runner.

Subcommands: run, sweep, compare-bart, model-eval.  Config precedence is
defaults < JSON config file (flat keys mirroring the long flag names of the
scenario fields; run options stay on the command line) < flags.
Every subcommand is a pure function of (config, seed) to bytes on disk; exit
code 0 on success, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .analysis import lookup_coeffs, required_m
from .experiment import (
    COMPARE_HEADER,
    SWEEP_HEADER,
    RunConfig,
    compare_bart,
    model_grid_rows,
    run,
    sweep,
    _fmt,
    _write_rows,
)

MODEL_HEADER = ["M", "P", "C", "xi_analytic", "xi_empirical"]
TARGET_HEADER = ["P", "C", "a", "b", "xi_target", "M"]

_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


class ConfigError(ValueError):
    pass


def _parse_number_list(text: str) -> list[float]:
    out: list[float] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        out.append(float(part))
    if not out:
        raise ConfigError(f"empty number list: {text!r}")
    return out


def _parse_int_list(text: str) -> list[int]:
    """Comma list of ints; a:b expands to the half-open range, a:b:step too."""
    out: list[int] = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            pieces = [int(p) for p in part.split(":")]
            if len(pieces) == 2:
                out.extend(range(pieces[0], pieces[1]))
            elif len(pieces) == 3:
                out.extend(range(pieces[0], pieces[1], pieces[2]))
            else:
                raise ConfigError(f"bad range syntax: {part!r}")
        else:
            out.append(int(part))
    if not out:
        raise ConfigError(f"empty integer list: {text!r}")
    return out


def _single(values, flag: str):
    if values is None:
        return None
    if isinstance(values, (int, float)):
        return values
    if len(values) != 1:
        raise ConfigError(f"{flag} takes a single value here, got {values}")
    return values[0]


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    add = sub.add_argument
    add("--capacity", type=_parse_number_list, default=None, help="bottleneck capacity, bits/s")
    add("--hurst", type=float, default=None, help="cross-traffic self-similarity index")
    add("--sigma", type=float, default=None, help="cross-traffic fluctuation factor, bits*s^-H")
    add("--mu", type=float, default=None, help="mean cross-traffic rate, bits/s")
    add("--packets", type=_parse_int_list, default=None, help="packets per sequence (M)")
    add("--portions", type=_parse_int_list, default=None, help="portions per sequence (P)")
    add("--packet-size", type=_parse_number_list, default=None, help="probe packet size, bytes (S)")
    add("--sequences", type=int, default=None, help="probing sequences per run (N)")
    add("--rate-min", type=float, default=None, help="lower probe-rate draw edge, bits/s")
    add("--rate-max", type=float, default=None, help="upper probe-rate draw edge, bits/s")
    add("--lambda", dest="lam", type=float, default=None, help="filter process-noise level")
    add("--initial-ab", type=_parse_number_list, default=None, help="initial AB guess, bits/s")
    add("--seed", type=int, default=None, help="RNG seed")
    add("--seeds", type=_parse_int_list, default=None, help="seed list for ensembles, e.g. 0:10 or 1,2,5")
    add("--reset-queue", action="store_true", default=None, help="reset the bottleneck queue before every sequence")
    add("--no-gating", action="store_true", default=None, help="disable congestion gating of zero-strain portions")
    add("--dt", type=float, default=None, help="traffic grid spacing, s (default packet_bits/4C)")
    add("--workers", type=int, default=1, help="worker processes for sweeps")
    add("--out", type=str, default=None, help="output CSV path")
    add("--config", type=str, default=None, help="JSON config file (flat keys = flag names)")


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a flat JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


def _build_run_config(args, file_cfg: dict) -> RunConfig:
    """defaults < config file < explicit flags."""
    merged: dict = {}
    for key, value in file_cfg.items():
        if key == "no_gating":
            if value:
                merged["gate_threshold"] = None
            continue
        if key not in _CONFIG_FIELDS:
            raise ConfigError(
                f"unknown config key {key!r}; a config file holds scenario fields, and "
                "run options (--seeds, --workers, --out, --paired, --event-log) go on "
                "the command line"
            )
        merged[key] = value

    direct = {
        "hurst": args.hurst,
        "sigma": args.sigma,
        "mu": args.mu,
        "sequences": args.sequences,
        "rate_min": args.rate_min,
        "rate_max": args.rate_max,
        "lam": args.lam,
        "seed": args.seed,
        "dt": args.dt,
    }
    for key, value in direct.items():
        if value is not None:
            merged[key] = value
    if args.capacity is not None:
        merged["capacity"] = _single(args.capacity, "--capacity")
    if args.packets is not None:
        merged["packets"] = _single(args.packets, "--packets")
    if args.portions is not None:
        merged["portions"] = _single(args.portions, "--portions")
    if args.packet_size is not None:
        merged["packet_size"] = _single(args.packet_size, "--packet-size")
    if args.initial_ab is not None:
        merged["initial_ab"] = _single(args.initial_ab, "--initial-ab")
    if args.reset_queue:
        merged["reset_queue"] = True
    if args.no_gating:
        merged["gate_threshold"] = None

    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_run(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    base = _build_run_config(args, file_cfg)
    report = run(base, event_log=args.event_log)
    report.to_csv(args.out)
    print(
        f"sequences={report.n} xi={report.xi:.6g} "
        f"clamp_fraction={report.clamp_fraction:.4g} "
        f"cap_fraction={report.cap_fraction:.4g} csv={args.out or '<stdout>'}",
        file=sys.stdout if args.out else sys.stderr,
    )
    return 0


def _multi_or_none(values):
    return None if values is None else list(values)


def _cmd_sweep(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    base = _build_run_config_multi(args, file_cfg)
    seeds = args.seeds if args.seeds is not None else [base.seed]
    rows = sweep(
        base,
        packets=_multi_or_none(args.packets),
        portions=_multi_or_none(args.portions),
        packet_sizes=_multi_or_none(args.packet_size),
        capacities=_multi_or_none(args.capacity),
        seeds=seeds,
        paired=args.paired,
        max_workers=args.workers,
    )
    _write_rows(args.out, SWEEP_HEADER, rows)
    return 0


def _build_run_config_multi(args, file_cfg: dict) -> RunConfig:
    """Like _build_run_config but multi-valued axes fall back to defaults in
    the base config (the sweep supplies them per grid point)."""
    multi = {
        name: None
        for name in ("capacity", "packets", "portions", "packet_size", "initial_ab")
        if len(getattr(args, name) or ()) > 1
    }
    return _build_run_config(argparse.Namespace(**{**vars(args), **multi}), file_cfg)


def _cmd_compare(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    base = _build_run_config_multi(args, file_cfg)
    portions = list(args.portions) if args.portions is not None else [2]
    seeds = args.seeds if args.seeds is not None else [base.seed]
    initial_abs = _multi_or_none(args.initial_ab)
    rows = compare_bart(
        base,
        portions=portions,
        initial_abs=initial_abs,
        seeds=seeds,
        max_workers=args.workers,
    )
    _write_rows(args.out, COMPARE_HEADER, rows)
    return 0


def _cmd_model_eval(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    base = _build_run_config_multi(args, file_cfg)
    if args.xi_target is not None:
        p = _single(args.portions, "--portions") if args.portions else 3
        p = int(p)
        coeffs = lookup_coeffs(base.capacity, p)
        m = required_m(coeffs, p, args.xi_target)
        print(
            f"P={p} C={_fmt(base.capacity)} a={coeffs.a} b={coeffs.b} "
            f"xi_target={_fmt(args.xi_target)} -> M={m}"
        )
        if args.out:
            _write_rows(
                args.out,
                TARGET_HEADER,
                [{
                    "P": p, "C": base.capacity, "a": coeffs.a, "b": coeffs.b,
                    "xi_target": args.xi_target, "M": m,
                }],
            )
        return 0

    packets = args.packets if args.packets is not None else list(range(16, 101, 6))
    portions = args.portions if args.portions is not None else [1, 2, 3, 4, 5]
    rows = model_grid_rows(base, packets=packets, portions=portions)
    _write_rows(args.out, MODEL_HEADER, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abprobe",
        description="Available-bandwidth probing lab: simulate, estimate, sweep.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="one estimation run; emits the estimate-stream CSV")
    _add_common_flags(p_run)
    p_run.add_argument("--event-log", type=str, default=None, help="per-packet event log CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = subs.add_parser("sweep", help="grid sweep over M/P/S/C and seeds")
    _add_common_flags(p_sweep)
    p_sweep.add_argument(
        "--paired",
        action="store_true",
        help="pair i-th values of multi-valued axes instead of crossing them",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = subs.add_parser(
        "compare-bart", help="single-rate vs multi-rate estimation on identical traffic"
    )
    _add_common_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_model = subs.add_parser("model-eval", help="evaluate the analytic/fitted error models")
    _add_common_flags(p_model)
    p_model.add_argument("--xi-target", type=float, default=None, help="target error; prints the recommended M")
    p_model.set_defaults(func=_cmd_model_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
