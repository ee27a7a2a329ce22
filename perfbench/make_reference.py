"""Regenerate perfbench/reference_xi.json, the per-seed reference xi of
every workload at the default N.

    python3 perfbench/make_reference.py    # seeds 0..SEEDS-1

Run it only when a change is meant to alter the estimates, and say why in
the change.  RTOL is loose enough for reordered floating-point sums (a
rewrite of the simulation core moved ab_hat by about 2e-10 * C, xi by far
less than 1e-6 relative) and tight enough to catch a changed estimator.
"""

import json
import sys

import bootstrap

RTOL = 1e-6
SEEDS = 40


def main() -> int:
    bootstrap.prepare()
    bootstrap.import_abprobe()
    import meta
    import workloads

    work_dir = bootstrap.OUT / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    table = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.SEQUENCES, work_dir)
        table[name] = {str(s): wl.check(s, wl.iterate(s))[0] for s in range(SEEDS)}
        print(f"{name}: {SEEDS} seeds", file=sys.stderr)
    header = {"rtol": RTOL, "sequences": workloads.SEQUENCES, "git_commit": meta.git_commit()}
    (bootstrap.ROOT / "perfbench" / "reference_xi.json").write_text(dump(header, table))
    return 0


def dump(header: dict, table: dict) -> str:
    """JSON with one line per seed."""
    blocks = [
        f'  "{name}": {{\n'
        + ",\n".join(f'   "{seed}": {json.dumps(xis)}' for seed, xis in seeds.items())
        + "\n  }"
        for name, seeds in table.items()
    ]
    head = "".join(f' "{key}": {json.dumps(value)},\n' for key, value in header.items())
    return "{\n" + head + ' "xi": {\n' + ",\n".join(blocks) + "\n }\n}\n"


if __name__ == "__main__":
    sys.exit(main())
