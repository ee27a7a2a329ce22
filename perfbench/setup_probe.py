"""One set-up sample in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SEED SEQUENCES WORK_DIR

Times ``import abprobe`` (with its CLI), then one iteration of the workload,
cold, and prints {"import_s", "cold_s"} as one JSON line.  run.py starts
several of these one after another and subtracts from each the mean time of
the warm iterations it times itself just before and just after it.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import bootstrap


def main(argv: list[str]) -> int:
    name, seed, sequences, work_dir = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    bootstrap.prepare()
    _, import_s = bootstrap.import_abprobe()
    import workloads

    wl = workloads.WORKLOADS[name](sequences, work_dir)
    t0 = perf_counter()
    wl.iterate(seed)
    print(json.dumps({"import_s": import_s, "cold_s": perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
