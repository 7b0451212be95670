"""Set-up probe: in a fresh interpreter, import hhverify and build one
workload's inputs, then print the seconds that took.

    python3 bench/setup_probe.py --workload NAME --seed N --out DIR

run.py starts it several times and reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import workloads

    workloads.build(args.workload, args.seed, Path(args.out))
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
