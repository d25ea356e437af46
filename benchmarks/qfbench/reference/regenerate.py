"""Regenerate the seed-0 reference spectra the benchmark checks against.

    python3 benchmarks/qfbench/reference/regenerate.py

Runs each workload once at seed 0 and writes ``<workload>.npz``
(normalized intensity on ``workloads.OMEGA_CM1``) next to this file.
Regenerate only in a change that means to move the spectra.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[2] / "src")]

from run import OUT, pin_environment  # noqa: E402


def main() -> int:
    pin_environment()
    import numpy as np

    from workloads import OMEGA_CM1, WORKLOADS, common_checks

    for name, cls in WORKLOADS.items():
        workload = cls(0, OUT / "work")
        try:
            result = workload.run(**workload.prepare(0))
            problems = common_checks(result)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            np.savez(HERE / f"{name}.npz", omega_cm1=OMEGA_CM1,
                     intensity=workload.reference_spectrum(result))
            print(f"{name}: wrote {name}.npz")
        finally:
            workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
