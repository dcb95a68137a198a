"""Benchmark of ccebvp's solve, CLI and sweep paths, run from the repository root:

    python3 bench/run.py --workload acc768 --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): acc768, cli-default, sweep-su3.  Each run sets
up three times (two fresh processes, then this one) and reports the median
as setup_s, then times warm passes over the workload's inputs, one and then
as many more as fit in --seconds.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it also makes one traced pass and prints the
per-layer metrics, with the ROADMAP baseline set beside them.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Spans and full results go to
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("acc768", "cli-default", "sweep-su3")
SETUP_PROBES = 2
NPROC = len(os.sched_getaffinity(0))


def fix_environment():
    """Cap the BLAS thread pool at nproc (before numpy is first imported, here
    or in a probe), keep the default single-threaded verification, and pin
    the allocator's mmap threshold."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    os.environ.pop("CCE_THREADS", None)
    pin_mmap_threshold()


def pin_mmap_threshold():
    """Fix glibc's mmap threshold at 32 MiB, the ceiling its dynamic rule climbs to.

    Left dynamic, the threshold rises the first time a large block is freed,
    so whether later arrays come from the heap or from mmap, and with it the
    peak RSS, depends on the order in which the cases ran.
    """
    import ctypes

    M_MMAP_THRESHOLD = -3
    ctypes.CDLL("libc.so.6").mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="grid-64 versions of the workloads (self-check)")
    ap.add_argument("--reference", type=Path, default=None,
                    help="frozen outputs to check against (default: reference.json at seed 0, full size)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args):
    """Import ccebvp, build its tables and warm up; returns (seconds, workload)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    wl.tables()
    wl.warm_up(OUT / args.workload / "warm-up")
    return time.perf_counter() - t0, wl


def setup_probe(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--setup-probe"]
    cmd += ["--tiny"] if args.tiny else []
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def openblas_threads():
    """Thread counts reported by each loaded OpenBLAS, read through ctypes."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line and ".so" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def provenance():
    import numpy
    import scipy

    cpu = platform.processor()
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": NPROC,
        "blas_threads_reported": openblas_threads(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "ccebvp" / "__init__.py").is_file():
        print(f"bench: no ccebvp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    fix_environment()
    if args.setup_probe:
        print(setup(args)[0])
        return 0

    setups = [setup_probe(args) for _ in range(1 if args.tiny else SETUP_PROBES)]
    seconds, wl = setup(args)
    setups.append(seconds)

    import workloads

    cases = workloads.make_cases(wl.base, args.seed)
    if args.reference is None and args.seed == 0 and not args.tiny:
        args.reference = HERE / "reference.json"
    reference = None
    if args.reference is not None:
        with open(args.reference) as f:
            reference = json.load(f)[args.workload]
    run_dir = OUT / args.workload / f"seed-{args.seed}"
    memo, passes = {}, []
    start = time.perf_counter()
    while True:
        ps = workloads.Pass(run_dir / f"pass-{len(passes)}", reference, None, memo, f"pass-{len(passes)}")
        wl.run_pass(cases, ps)
        passes.append(ps)
        wall = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + wall > args.seconds:
            break

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "cases": [[c.key, c.phi0] for c in cases], "provenance": provenance(),
              "setup_samples_s": setups, "pass_walls_s": [p.wall for p in passes]}
    if args.trace:
        import ccebvp
        import baseline
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.sites(ccebvp))
        try:
            ps = workloads.Pass(run_dir / "traced", reference, tracer, memo, "traced")
            wl.run_pass(cases, ps)
        finally:
            tracer.uninstall()
        passes.append(ps)
        metrics = tracing.layer_metrics(tracer.spans, ps.wall, wall)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["baseline"] = baseline.reconcile(tracer.spans, rss_mb)
        tracer.dump(str(OUT / f"{args.workload}-seed-{args.seed}-spans.json"))
    ops = [op for p in passes for op in p.ops]
    failed = sum(op.failed for op in ops)
    if not args.trace:
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_frac": metric(1.0 - failed / len(ops), "ratio"),
        }
    line = {"correct": not any(op.problems for op in ops), "attempted": len(ops), "failed": failed,
            "metrics": metrics}
    result.update(line)
    result["ops"] = [{"name": op.name, "seconds": op.seconds, "failed": op.failed,
                      "problems": op.problems, "observed": op.observed} for op in ops]
    with open(OUT / f"{args.workload}-seed-{args.seed}-trace-{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1)

    print(json.dumps({"provenance": result["provenance"]}))
    for op in ops:
        if op.failed:
            print(f"failed {op.name}: {'; '.join(op.problems) or op.observed.get('failure_reason')}")
    for row in result.get("baseline", []):
        print(f"baseline [{'agree' if row['agree'] else 'DISAGREE'}] {row['baseline']} | traced: "
              f"{row['traced']}" + (f" | reason: {row['reason']}" if row["reason"] else ""))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
