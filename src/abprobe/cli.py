"""Command-line experiment runner.

Subcommands: run, sweep, compare-bart, model-eval.  Config precedence is
defaults < JSON config file (flat keys, each a flag name such as "lambda" or a
RunConfig field name such as "lam"; run options stay on the command line)
< flags.  Each subcommand takes only the flags it honours.  The list-valued
flags (comma lists; integer ones also take ranges a:b and a:b:step) are the
fields of experiment's axis tuples, slowest-varying first:
  sweep         --capacity --packet-size --packets --portions   (SWEEP_AXES)
  compare-bart  --initial-ab --portions                          (COMPARE_AXES)
  model-eval    --portions --packets                             (MODEL_AXES)
  run           none
and --seeds belongs to sweep and compare-bart (one worker per seed, capped by
the CPUs taskset allows and by physical memory).  An axis not given on the
command line takes the scenario's value, and a grid point listed twice exits
2; model-eval --xi-target computes M from C and P alone, so it takes no other
scenario flag.  Config keys name the flags' fields plus psi0; every other
model value is a constant.  Every subcommand is a pure function of (config,
seed) to bytes on disk; exit code 0 on success, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from .analysis import lookup_coeffs, required_m
from .experiment import (
    COMPARE_AXES,
    COMPARE_HEADER,
    MODEL_AXES,
    SWEEP_AXES,
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

# config-file key ("-" read as "_") -> (RunConfig field, the flag's Switch or
# None); a field name passes its value through as given
_CONFIG_KEYS = {
    **{flag[2:].replace("-", "_"): (dest, kind if isinstance(kind, Switch) else None)
       for flag, (dest, kind, _) in SCENARIO_FLAGS.items()},
    **{f.name: (f.name, None) for f in fields(RunConfig)},
}


def _values(kind):
    """argparse type: a comma list of kind; for int, a:b and a:b:step expand
    to the half-open range, which must not be empty."""

    def parse(text: str) -> list:
        out: list = []
        for part in filter(None, (p.strip() for p in text.split(","))):
            if kind is int and ":" in part:
                values = range(*(int(p) for p in part.split(":")))
                if not values:
                    raise argparse.ArgumentTypeError(f"empty range {part!r} in {text!r}")
                out.extend(values)
            else:
                out.append(kind(part))
        if not out:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return out

    parse.__name__ = f"{kind.__name__} list"  # argparse names it in errors
    return parse


def _add_flags(sub: argparse.ArgumentParser, axes: tuple = (), ensemble: bool = False) -> None:
    """The scenario flags, list-valued for the subcommand's axes, and its run
    options; an ensemble takes --seeds."""
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
    given: dict = {}  # field -> the key that set it
    for key, value in raw.items():
        entry = _CONFIG_KEYS.get(key.replace("-", "_"))
        if entry is None:
            raise ValueError(
                f"unknown config key {key!r}; a config file holds scenario fields, and "
                "run options (--seeds, --out, --paired, --event-log) go on the command line"
            )
        dest, switch = entry
        if dest in given:
            raise ValueError(f"config keys {given[dest]!r} and {key!r} both set {dest}; give one")
        given[dest] = key
        if switch is None:
            merged[dest] = value
        elif not isinstance(value, bool):
            raise ValueError(f"config key {key!r} is a switch: give true or false, got {value!r}")
        elif value:
            merged[dest] = switch.const
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


def _axes(args, names) -> dict:
    """The list-valued flags given on the command line, as {field: values}."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _cmd_sweep(args) -> int:
    base = _scenario(args)
    seeds = _ensemble_seeds(args, base)
    rows = sweep(base, seeds=seeds, paired=args.paired, **_axes(args, SWEEP_AXES))
    _write_rows(args.out, SWEEP_HEADER, rows)
    return 0


def _cmd_compare(args) -> int:
    base = _scenario(args)
    rows = compare_bart(base, seeds=_ensemble_seeds(args, base), **_axes(args, COMPARE_AXES))
    _write_rows(args.out, COMPARE_HEADER, rows)
    return 0


def _cmd_model_eval(args) -> int:
    base = _scenario(args)
    if args.xi_target is not None:
        extra = [f for f, (dest, _, _) in SCENARIO_FLAGS.items()
                 if hasattr(args, dest) and dest not in ("capacity", "portions")]
        if extra:
            raise ValueError(f"--xi-target reads only C and P; drop {', '.join(extra)}")
        portions = getattr(args, "portions", [base.portions])
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

    rows = model_grid_rows(base, **_axes(args, MODEL_AXES))
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
    _add_flags(p_sweep, SWEEP_AXES, ensemble=True)
    p_sweep.add_argument(
        "--paired",
        action="store_true",
        help="pair i-th values of multi-valued axes instead of crossing them",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = subs.add_parser(
        "compare-bart", help="single-rate vs multi-rate estimation on identical traffic"
    )
    _add_flags(p_cmp, COMPARE_AXES, ensemble=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_model = subs.add_parser("model-eval", help="evaluate the analytic/fitted error models")
    _add_flags(p_model, MODEL_AXES)
    p_model.add_argument("--xi-target", type=float, default=None, help="target error; prints the recommended M")
    p_model.set_defaults(func=_cmd_model_eval)

    return parser


def _check_outputs(args) -> None:
    """ValueError naming the first output that is not a writable file in an
    existing directory, or the one file that both outputs name."""
    out, log = args.out, getattr(args, "event_log", None)
    for flag, path in (("--out", out), ("--event-log", log)):
        if not path:
            continue
        target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise ValueError(f"{flag} {path} is not a writable file in an existing directory")
    if out and log and os.path.realpath(out) == os.path.realpath(log):
        raise ValueError(
            f"--out and --event-log name the same file {out}; the estimate CSV "
            "would overwrite the event log, so give each its own path"
        )


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
