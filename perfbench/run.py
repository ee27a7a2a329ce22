"""abprobe benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload run_cli --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 is the
separate traced run: it alternates traced and untraced iterations and reports
the per-layer metrics, the tracing overhead and the oracle checks.  Every
iteration's outputs are checked.  Lines before the last print every metric by
name with its unit, then the run's metadata; the last line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  The full result, and with
--trace 1 every span, is written under perfbench/out/.

See perfbench/README.md for the metrics, the workloads and what they stress.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import traceback
from itertools import count
from pathlib import Path
from statistics import median
from time import perf_counter

import bootstrap

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("run_cli", "fine_trace")
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="base seed; iteration i uses seed+i")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall time of warm iterations to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--sequences", type=int, default=None,
        help="override N (for the self-test); skips the reference-xi check",
    )
    return parser.parse_args(argv)


class Ledger:
    """Attempted and failed operations; every iteration's outputs are checked."""

    def __init__(self, workload, reference: dict, rtol: float):
        self.workload = workload
        self.reference = reference
        self.rtol = rtol
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {detail}")
        print(f"perfbench: FAILED {what}: {detail}", file=sys.stderr)

    def iterate(self, seed: int, tracer=None, abprobe=None):
        """One checked iteration: (seconds, output bytes or None), or None if it failed."""
        self.attempted += 1
        try:
            if tracer is None:
                t0 = perf_counter()
                raw = self.workload.iterate(seed)
                elapsed = perf_counter() - t0
            else:
                with tracer.install(abprobe):
                    t0 = perf_counter()
                    raw = self.workload.iterate(seed, tracer.call)
                    elapsed = perf_counter() - t0
            output = self.workload.verify(seed, raw, self.reference.get(str(seed)), self.rtol)
        except Exception:  # keep the closed loop running; the failure is counted
            self.fail(f"iteration seed={seed}", traceback.format_exc())
            return None
        return elapsed, output


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_once(cmd: list[str], ledger: Ledger) -> float | None:
    """import + cold probe unit in one fresh process, or None if it failed."""
    ledger.attempted += 1
    try:
        proc = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        return probe["import_s"] + probe["cold_s"]
    except subprocess.CalledProcessError as exc:
        ledger.fail("set-up probe", f"exit {exc.returncode}: {exc.stderr[-2000:]}")
    except (subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        ledger.fail("set-up probe", repr(exc))
    return None


def end_to_end(workload, ledger: Ledger, seed: int, seconds: float,
               import_s: float) -> tuple[dict, dict]:
    first = ledger.iterate(seed)  # cold: fills the program's caches
    # Later iterations in one process can raise ru_maxrss by heap fragmentation
    # alone, at an iteration that varies from run to run; one iteration in a
    # fresh process is what a user of the CLI sees.
    peak_rss_mb = max_rss_mb()
    warm: list[float] = []
    spent = 0.0  # wall time of warm iterations, failed ones included
    seeds = count(seed + 1)

    def warm_iteration() -> float | None:
        nonlocal spent
        t0 = perf_counter()
        result = ledger.iterate(next(seeds))
        spent += perf_counter() - t0
        if result is None:
            return None
        warm.append(result[0])
        return result[0]

    # Set-up: each sample is one fresh process's import + cold iteration,
    # minus the mean of the warm iterations timed here just before and just
    # after it, so that the host's drift over a run stays out of the difference.
    probe_dir = workload.work_dir / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           workload.name, str(seed), str(workload.sequences), str(probe_dir)]
    setup: list[float] = []
    probes = workload.setup_probes
    before = warm_iteration()
    for k in range(1, probes + 1):
        cold = probe_once(cmd, ledger)
        after = warm_iteration()
        if None not in (cold, before, after):
            setup.append(cold - (before + after) / 2)
        # The host's speed drifts over tens of seconds: warm iterations spread
        # evenly over the whole run sample more of that drift than a block.
        while spent < seconds * k / probes:
            after = warm_iteration()
        before = after
    if first is not None and warm:
        # this process is a fresh one too
        setup.append(import_s + first[0] - warm[0])
    if first is not None and first[1] is not None:
        again = ledger.iterate(seed)
        if again is not None and again[1] != first[1]:
            ledger.fail(f"determinism seed={seed}", "re-run output bytes differ")
    if not warm or not setup:
        raise SystemExit("perfbench: no warm iteration or set-up probe succeeded")
    metrics = {
        "seq_per_s": workload.sequences * len(warm) / sum(warm),
        "wall_s": median(warm),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": median(setup),
    }
    notes = {
        "seq_per_s": f"{workload.sequences} sequences per iteration, "
                     f"{len(warm)} warm iterations",
        "wall_s": f"median of {len(warm)} warm iterations",
        "peak_rss_mb": "ru_maxrss of this fresh process after its first iteration",
        "setup_s": f"median of {len(setup)} fresh processes: import + cold iteration "
                   f"- mean of the warm iterations timed beside it",
    }
    details = {"cold_s": first[0] if first else None, "warm_s": warm,
               "end_of_run_rss_mb": max_rss_mb(), "setup_samples_s": setup}
    return metrics, {"notes": notes, "details": details}


def traced(workload, ledger: Ledger, seed: int, seconds: float, abprobe) -> tuple[dict, dict]:
    import layers
    from tracer import Tracer

    tracer = Tracer()
    hooks = layers.Hooks()
    hooks.install(tracer)
    ledger.iterate(seed)  # cold, untraced, not reported
    snapshots, traced_s, untraced_s = [], [], []
    i = 0
    start = perf_counter()
    while True:
        tracer.begin_iteration()
        result = ledger.iterate(seed + i, tracer, abprobe)
        hooks.keep_samples = False
        if result is not None:
            snapshots.append(layers.snapshot(tracer))
            traced_s.append(result[0])
        result = ledger.iterate(seed + i)
        if result is not None:
            untraced_s.append(result[0])
        i += 1
        if perf_counter() - start >= seconds:
            break
    if not snapshots or not untraced_s:
        raise SystemExit("perfbench: no traced or untraced iteration succeeded")
    metrics = layers.per_layer_metrics(snapshots, traced_s, untraced_s)

    tracer.begin_iteration()
    portions = failures = checked = 0
    worst = float("inf")
    ledger.attempted += 1
    try:
        portions, failures = layers.audit(workload, seed, tracer, abprobe.experiment)
    except Exception:  # the run still reports; the audit counts as failed
        ledger.fail("strain-envelope audit", traceback.format_exc())
    else:
        if failures or not portions:
            ledger.fail("strain-envelope audit", f"{failures} of {portions} portions outside")
    ledger.attempted += 1
    try:
        checked, worst = layers.kalman_oracle(hooks.samples, tracer, abprobe.kalman)
    except Exception:
        ledger.fail("Kalman oracle", traceback.format_exc())
    else:
        if not worst < layers.ORACLE_RTOL:
            ledger.fail("Kalman oracle", f"sequential vs vector differ by {worst:.3g}")
    metrics.update({
        "path.audit_portions": float(portions),
        "path.audit_failures": float(failures),
        "kalman.oracle_samples": float(checked),
        "kalman.oracle_max_rel_diff": worst,
    })

    spans_path = bootstrap.OUT / f"{workload.name}-seed{seed}.spans.csv"
    spans = tracer.write_spans(spans_path)
    details = {
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "spans_file": str(spans_path.relative_to(bootstrap.ROOT)),
        "spans_written": spans,
        "hook_error": tracer.hook_error,
        "stress": stress_checks(workload.name, metrics),
    }
    return metrics, {"notes": {}, "details": details}


def stress_checks(name: str, m: dict) -> dict[str, bool]:
    """Whether the workload still stresses what it was chosen for."""
    csv_only_here = (m["experiment.csv_s"] > 0) == (name == "run_cli")
    checks = {"csv_s nonzero only on run_cli": csv_only_here}
    if name == "fine_trace":
        checks["fbm + volume build >= 50% of self time"] = m["share.fbm_volume"] >= 0.5
    return checks


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.prepare()
    abprobe, import_s = bootstrap.import_abprobe()
    import meta
    import workloads

    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sequences = args.sequences or workloads.SEQUENCES
    work_dir = bootstrap.OUT / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](sequences, work_dir)

    reference, rtol = {}, 0.0
    if sequences == workloads.SEQUENCES:
        ref = json.loads((HERE / "reference_xi.json").read_text())
        reference, rtol = ref["xi"][workload.name], ref["rtol"]
    ledger = Ledger(workload, reference, rtol)

    if args.trace:
        metrics, info = traced(workload, ledger, args.seed, args.seconds, abprobe)
    else:
        metrics, info = end_to_end(workload, ledger, args.seed, args.seconds, import_s)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    run_meta = meta.metadata(cls(sequences, work_dir) for cls in workloads.WORKLOADS.values())
    run_meta["main_process_import_s"] = import_s
    for m in wanted:
        note = info["notes"].get(m["name"])
        suffix = f"  ({note})" if note else ""
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}{suffix}")
    print(f"failed_ops = {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for check, ok in info["details"].get("stress", {}).items():
        print(f"stress {workload.name}: {check}: {'yes' if ok else 'NO'}")

    out_file = bootstrap.OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sequences": sequences, "result": result,
        "all_metrics": metrics, "errors": ledger.errors, "meta": run_meta, **info,
    }, indent=1))
    print("meta " + json.dumps(run_meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
