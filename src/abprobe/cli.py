"""Command-line experiment runner.

Subcommands: run, sweep, compare-bart, model-eval.  Config precedence is
defaults < JSON config file (flat keys, each a flag name such as "lambda" or a
RunConfig field name such as "lam"; run options stay on the command line)
< flags.  Each subcommand takes only the flags it honours.  The list-valued
flags (comma lists; integer ones also take ranges a:b and a:b:step) are
  sweep         --capacity --packets --portions --packet-size
  compare-bart  --portions --initial-ab
  model-eval    --packets --portions
  run           none
and --seeds / --workers belong to sweep and compare-bart.  An axis not given
on the command line takes the scenario's value; model-eval --xi-target
computes M from C and P alone, so it takes no other scenario flag.  Config
keys name the flags' fields plus psi0; every other model value is a constant.
Every subcommand is a pure function of (config, seed) to bytes on disk; exit
code 0 on success, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class Switch:
    """A flag that takes no value; given, it stores const in its field."""

    const: object


# flag -> (RunConfig field, value type, help); the field is the flag's dest
SCENARIO_FLAGS = {
    "--capacity": ("capacity", float, "bottleneck capacity, bits/s"),
    "--hurst": ("hurst", float, "cross-traffic self-similarity index"),
    "--sigma": ("sigma", float, "cross-traffic fluctuation factor, bits*s^-H"),
    "--mu": ("mu", float, "mean cross-traffic rate, bits/s"),
    "--packets": ("packets", int, "packets per sequence (M)"),
    "--portions": ("portions", int, "portions per sequence (P)"),
    "--packet-size": ("packet_size", float, "probe packet size, bytes (S)"),
    "--sequences": ("sequences", int, "probing sequences per run (N)"),
    "--rate-min": ("rate_min", float, "lower probe-rate draw edge, bits/s"),
    "--rate-max": ("rate_max", float, "upper probe-rate draw edge, bits/s"),
    "--lambda": ("lam", float, "filter process-noise level"),
    "--initial-ab": ("initial_ab", float, "initial AB guess, bits/s"),
    "--seed": ("seed", int, "RNG seed"),
    "--reset-queue": ("reset_queue", Switch(True), "reset the bottleneck queue before every sequence"),
    "--no-gating": ("gate_threshold", Switch(0.0), "disable congestion gating of zero-strain portions"),
    "--dt": ("dt", float, "traffic grid spacing, s (default packet_bits/4C)"),
}

_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def _values(kind):
    """argparse type: a comma list of kind; for int, a:b and a:b:step expand
    to the half-open range."""

    def parse(text: str) -> list:
        out: list = []
        for part in filter(None, (p.strip() for p in text.split(","))):
            if kind is int and ":" in part:
                out.extend(range(*(int(p) for p in part.split(":"))))
            else:
                out.append(kind(part))
        if not out:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return out

    parse.__name__ = f"{kind.__name__} list"  # argparse names it in errors
    return parse


def _worker_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_flags(sub: argparse.ArgumentParser, axes: tuple = (), ensemble: bool = False) -> None:
    """The scenario flags, list-valued for the subcommand's axes, and its run
    options; an ensemble takes --seeds and --workers."""
    for flag, (dest, kind, text) in SCENARIO_FLAGS.items():
        if isinstance(kind, Switch):
            value = {"action": "store_const", "const": kind.const}
        else:
            value = {"type": kind}
            if dest in axes:
                value = {"type": _values(kind)}
                text = f"{text}; a list"
        sub.add_argument(flag, dest=dest, default=argparse.SUPPRESS, help=text, **value)
    if ensemble:
        sub.add_argument("--seeds", type=_values(int), default=None, help="seed list, e.g. 0:10 or 1,2,5")
        sub.add_argument("--workers", type=_worker_count, default=1, help="worker processes")
    sub.add_argument("--out", type=str, default=None, help="output CSV path")
    sub.add_argument("--config", type=str, default=None, help="JSON config file (flag or field names as keys)")


def _load_config_file(path: str) -> dict:
    """RunConfig fields set by a flat JSON object of flag or field names."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a flat JSON object")
    merged: dict = {}
    for key, value in raw.items():
        key = str(key).replace("-", "_")
        if key in _CONFIG_FIELDS:
            merged[key] = value
            continue
        flag = "--" + key.replace("_", "-")
        if flag not in SCENARIO_FLAGS:
            raise ValueError(
                f"unknown config key {key!r}; a config file holds scenario fields, and "
                "run options (--seeds, --workers, --out, --paired, --event-log) go on "
                "the command line"
            )
        dest, kind, _ = SCENARIO_FLAGS[flag]
        if not isinstance(kind, Switch):
            merged[dest] = value
        elif not isinstance(value, bool):
            raise ValueError(f"config key {flag[2:]!r} is a switch: give true or false, got {value!r}")
        elif value:
            merged[dest] = kind.const
    return merged


def _scenario(args) -> RunConfig:
    """The base RunConfig of a command line: defaults < config file < flags.
    An axis given one value sets the base; one given several leaves the base
    value, and the command varies it."""
    merged = _load_config_file(args.config) if args.config else {}
    for dest, _, _ in SCENARIO_FLAGS.values():
        value = getattr(args, dest, [])
        values = value if isinstance(value, list) else [value]
        if len(values) == 1:
            merged[dest] = values[0]
    return RunConfig(**merged)


def _cmd_run(args) -> int:
    if args.out and args.event_log and os.path.realpath(args.out) == os.path.realpath(args.event_log):
        raise ValueError(
            f"--out and --event-log name the same file {args.out}; the estimate CSV "
            "would overwrite the event log, so give each its own path"
        )
    report = run(_scenario(args), event_log=args.event_log)
    report.to_csv(args.out)
    print(
        f"sequences={report.n} xi={report.xi:.6g} "
        f"clamp_fraction={report.clamp_fraction:.4g} "
        f"cap_fraction={report.cap_fraction:.4g} csv={args.out or '<stdout>'}",
        file=sys.stdout if args.out else sys.stderr,
    )
    return 0


def _ensemble_seeds(args, base: RunConfig) -> list[int]:
    """--seeds, or else the scenario's one seed; --seed beside --seeds would be
    dropped, so the two together are refused."""
    if args.seeds is not None and hasattr(args, "seed"):
        raise ValueError(
            "give --seed or --seeds, not both; --seeds lists every seed the ensemble runs"
        )
    return args.seeds or [base.seed]


def _cmd_sweep(args) -> int:
    base = _scenario(args)
    rows = sweep(
        base,
        packets=getattr(args, "packets", None),
        portions=getattr(args, "portions", None),
        packet_sizes=getattr(args, "packet_size", None),
        capacities=getattr(args, "capacity", None),
        seeds=_ensemble_seeds(args, base),
        paired=args.paired,
        max_workers=args.workers,
    )
    _write_rows(args.out, SWEEP_HEADER, rows)
    return 0


def _cmd_compare(args) -> int:
    base = _scenario(args)
    rows = compare_bart(
        base,
        portions=getattr(args, "portions", None),
        initial_abs=getattr(args, "initial_ab", None),
        seeds=_ensemble_seeds(args, base),
        max_workers=args.workers,
    )
    _write_rows(args.out, COMPARE_HEADER, rows)
    return 0


def _cmd_model_eval(args) -> int:
    base = _scenario(args)
    packets = getattr(args, "packets", [base.packets])
    portions = getattr(args, "portions", [base.portions])
    if args.xi_target is not None:
        extra = [f for f, (dest, _, _) in SCENARIO_FLAGS.items()
                 if hasattr(args, dest) and dest not in ("capacity", "portions")]
        if extra:
            raise ValueError(f"--xi-target reads only C and P; drop {', '.join(extra)}")
        if len(portions) != 1:
            raise ValueError(f"--xi-target takes a single --portions value, got {portions}")
        p = portions[0]
        coeffs = lookup_coeffs(base.capacity, p)
        m = required_m(coeffs, p, args.xi_target)
        print(
            f"P={p} C={_fmt(base.capacity)} a={coeffs.a} b={coeffs.b} "
            f"xi_target={_fmt(args.xi_target)} -> M={m}"
        )
        if args.out:
            row = dict(zip(TARGET_HEADER, (p, base.capacity, coeffs.a, coeffs.b, args.xi_target, m)))
            _write_rows(args.out, TARGET_HEADER, [row])
        return 0

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
    _add_flags(p_run)
    p_run.add_argument("--event-log", type=str, default=None, help="per-packet event log CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = subs.add_parser("sweep", help="grid sweep over M/P/S/C and seeds")
    _add_flags(p_sweep, ("capacity", "packets", "portions", "packet_size"), ensemble=True)
    p_sweep.add_argument(
        "--paired",
        action="store_true",
        help="pair i-th values of multi-valued axes instead of crossing them",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = subs.add_parser(
        "compare-bart", help="single-rate vs multi-rate estimation on identical traffic"
    )
    _add_flags(p_cmp, ("portions", "initial_ab"), ensemble=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_model = subs.add_parser("model-eval", help="evaluate the analytic/fitted error models")
    _add_flags(p_model, ("packets", "portions"))
    p_model.add_argument("--xi-target", type=float, default=None, help="target error; prints the recommended M")
    p_model.set_defaults(func=_cmd_model_eval)

    return parser


def _check_outputs(args) -> None:
    """ValueError naming the first output that is not a writable file in an existing directory."""
    for flag, path in (("--out", args.out), ("--event-log", getattr(args, "event_log", None))):
        if not path:
            continue
        target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise ValueError(f"{flag} {path} is not a writable file in an existing directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
