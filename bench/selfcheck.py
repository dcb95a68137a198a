"""Fast self-check of the benchmark, on tiny (grid-64) versions of every workload:

    python3 bench/selfcheck.py

For each workload it runs bench/run.py with --trace 0 and checks that every
end-to-end metric named in BENCHMARK.json is emitted with its unit.  It then
freezes that run's outputs as a reference, puts one wrong value into it, and
runs with --trace 1 against it: every per-layer metric must be emitted with
its unit, the operation checked against the wrong value must be reported
failed with a new problem in every pass, every other operation must end
exactly as before, and the run must be marked incorrect.  (At 64 nodes some
solves miss the drift gate or fail verification; those failures are the same
in both runs.)
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out" / "selfcheck"


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(HERE.parent / ".bench_out" / f"{workload}-seed-0-trace-{trace}.json") as f:
        return line, json.load(f)


def check_metrics(line, specs, what):
    got = line["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        raise SystemExit(f"{what}: metrics {sorted(got)} but BENCHMARK.json names {sorted(want)}")
    for name, unit in want.items():
        if got[name]["unit"] != unit or not isinstance(got[name]["value"], (int, float)):
            raise SystemExit(f"{what}: {name} emitted as {got[name]}, expected unit {unit}")


def corrupt(entry):
    """Change one frozen value so that the operation checked against it must fail."""
    if "lams" in entry:
        entry["lams"][-1] += 0.01
    elif entry["converged"]:
        entry["k0"] *= 1.001
    else:
        entry["failure_reason"] = "not the reason it failed with"


def main():
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    OUT.mkdir(parents=True, exist_ok=True)
    for w in spec["workloads"]:
        name = w["name"]
        line, result = run(name, 0)
        check_metrics(line, spec["end_to_end"], f"{name} --trace 0")
        plain = {op["name"]: op for op in result["ops"]}

        frozen = {op["name"].split("/")[0]: copy.deepcopy(op["observed"]) for op in result["ops"] if op["observed"]}
        checked = {op["name"].split("/")[0]: op for op in plain.values() if op["observed"]}
        wrong = min(frozen, key=lambda k: (checked[k]["failed"], k))  # a passing one if any
        corrupt(frozen[wrong])
        ref = OUT / f"{name}-reference.json"
        ref.write_text(json.dumps({name: frozen}))
        line, result = run(name, 1, "--reference", str(ref))
        check_metrics(line, spec["per_layer"], f"{name} --trace 1")
        for op in result["ops"]:
            before = plain[op["name"]]
            if before is checked[wrong]:
                new = [p for p in op["problems"] if p not in before["problems"]]
                if not op["failed"] or not new:
                    raise SystemExit(f"{name}: wrong reference for {wrong} not reported: {op}")
            elif op["failed"] != before["failed"] or op["problems"] != before["problems"]:
                raise SystemExit(f"{name}: {op['name']} changed outcome: {op}")
        if line["correct"]:
            raise SystemExit(f"{name}: run with a wrong reference value reported correct")
        print(f"ok {name}: {len(result['ops'])} operations, wrong reference for {wrong} caught")


if __name__ == "__main__":
    main()
