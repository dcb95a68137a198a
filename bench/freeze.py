"""Write reference.json: the outputs of one seed-0 pass of every workload.

    python3 bench/freeze.py

The reference is frozen once, at the commit that defines the benchmark; the
seed-0 checks of later commits compare against it.  Rerunning this script
would move the reference to whatever the current code computes.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        ps = workloads.Pass(HERE.parent / ".bench_out" / "freeze" / name, None, None, {}, "freeze")
        wl.run_pass(wl.base, ps)
        reference[name] = {op.name.split("/")[0]: op.observed for op in ps.ops if op.observed}
        print(name, [(op.name, op.failed, op.problems) for op in ps.ops], flush=True)
    with open(HERE / "reference.json", "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
