"""The benchmark's two workloads.

Each is a closed loop with one client: iteration i starts when iteration i-1
has finished and uses seed base_seed + i.  ``iterate`` is the timed part and
drives abprobe only through ``abprobe.cli.main`` or
``abprobe.experiment.run``; ``check`` reads the outputs afterwards and returns the
iteration's xi values (plus the output bytes where determinism is checked).
``call(name, fn, args, kwargs)`` runs the root call, directly or as a span.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import abprobe.cli
import abprobe.experiment
from abprobe.experiment import RunConfig

SEQUENCES = 1000


class CheckFailed(Exception):
    pass


def direct(name, fn, args=(), kwargs=None):
    return fn(*args, **(kwargs or {}))


class Workload:
    name = ""
    # set-up probes: fresh processes that each time import + one cold iteration
    setup_probes = 7

    def __init__(self, sequences: int, work_dir: Path):
        self.sequences = sequences
        self.work_dir = work_dir

    def run_config(self, seed: int) -> RunConfig:
        """The configuration of the run one iteration performs."""
        raise NotImplementedError

    def iterate(self, seed: int, call=direct):
        raise NotImplementedError

    def check(self, seed: int, raw) -> tuple[list[float], bytes | None]:
        raise NotImplementedError

    def verify(self, seed: int, raw, reference: list[float] | None, rtol: float) -> bytes | None:
        """Check the outputs; xi must be finite and, where the seed has a stored
        reference, within rtol of it.  Returns the output bytes, if any."""
        xis, output = self.check(seed, raw)
        if not all(math.isfinite(x) for x in xis):
            raise CheckFailed(f"non-finite xi {xis}")
        if reference is not None and (
            len(reference) != len(xis)
            or not all(math.isclose(x, r, rel_tol=rtol) for x, r in zip(xis, reference))
        ):
            raise CheckFailed(f"xi {xis} differs from reference {reference} (rtol {rtol})")
        return output


class RunCli(Workload):
    name = "run_cli"
    packets = 34

    def run_config(self, seed):
        return RunConfig(capacity=10e6, packets=self.packets, portions=2,
                         sequences=self.sequences, seed=seed)

    @property
    def estimates(self) -> Path:
        return self.work_dir / "run_cli-estimates.csv"

    @property
    def events(self) -> Path:
        return self.work_dir / "run_cli-events.csv"

    def argv(self, seed: int) -> list[str]:
        return [
            "run", "--capacity", "1e7", "--packets", str(self.packets), "--portions", "2",
            "--sequences", str(self.sequences), "--seed", str(seed),
            "--out", str(self.estimates), "--event-log", str(self.events),
        ]

    def iterate(self, seed, call=direct):
        with contextlib.redirect_stdout(io.StringIO()):
            return call("cli.main", abprobe.cli.main, (self.argv(seed),))

    def check(self, seed, exit_code):
        if exit_code != 0:
            raise CheckFailed(f"abprobe run exited {exit_code}")
        data = self.estimates.read_bytes()
        rows = list(csv.reader(io.StringIO(data.decode())))
        if len(rows) != self.sequences + 1:
            raise CheckFailed(f"estimate CSV has {len(rows)} rows, want {self.sequences + 1}")
        i_true, i_hat = rows[0].index("true_ab"), rows[0].index("ab_hat")
        sq = sum((float(r[i_true]) - float(r[i_hat])) ** 2 for r in rows[1:])
        xi = sq / self.sequences / 10e6**2
        want = self.sequences * self.packets + 1
        got = self.events.read_bytes().count(b"\n")
        if got != want:
            raise CheckFailed(f"event log has {got} rows, want {want}")
        return [xi], data


class FineTrace(Workload):
    name = "fine_trace"
    setup_probes = 5

    def run_config(self, seed):
        return RunConfig(capacity=10e6, packets=13, portions=3, packet_size=500.0,
                         sequences=self.sequences, seed=seed)

    def iterate(self, seed, call=direct):
        return call("experiment.run", abprobe.experiment.run, (self.run_config(seed),))

    def check(self, seed, report):
        if report.n != self.sequences:
            raise CheckFailed(f"run returned {report.n} sequences, want {self.sequences}")
        if not all(math.isfinite(x) for x in report.ab_hat):
            raise CheckFailed("non-finite ab_hat")
        return [report.xi], None


WORKLOADS = {cls.name: cls for cls in (RunCli, FineTrace)}
