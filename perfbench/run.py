"""solitonlab benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload spectra|manifold|evolution \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
setup_s, solve_s and peak_rss_mb; with --trace 1 they are the per-layer
figures of perfbench/tracing.py.  A human-readable summary goes to
standard error and a full record to perfbench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS/LAPACK thread: with the inherited pool the dense eigensolves'
# times depend on what else runs on the machine.  No bytecode is written,
# so every import compiles solitonlab from source, whatever an earlier run
# or the caller's environment left behind.
RUN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
SETUP_REPEATS = 3

IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import numpy, scipy.linalg, solitonlab.cli; "
                "print(time.perf_counter() - t)")


def import_seconds(env):
    """Time to import numpy, scipy and solitonlab in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def ref_loop_ms():
    """Times in ms of a fixed pure-Python loop: the machine's speed now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += i * 0.5
        times.append(1e3 * (time.perf_counter() - t0))
    return times


def run_passes(run_pass, seconds, tracer=None):
    """Repeat whole passes for about `seconds`; a pass starts only if it fits.

    With a tracer every second pass runs traced, and at least one does.
    Returns the untraced and traced pass times and the span ranges of the
    traced passes.
    """
    plain, traced, ranges = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(plain) > len(traced):
            first = tracer.mark()
            with tracer.installed():
                run_pass()
            traced.append(time.perf_counter() - t0)
            ranges.append((first, tracer.mark()))
        else:
            run_pass()
            plain.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + max(plain + traced) > seconds and (tracer is None or traced):
            return plain, traced, ranges


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("spectra", "manifold", "evolution"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "solitonlab" / "__init__.py").is_file():
        print(f"no solitonlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(RUN_ENV)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    ops = workloads.Operations()
    ref_samples = ref_loop_ms()
    record = {"workload": args.workload, "seed": args.seed, "inputs": inputs,
              "trace": args.trace}
    OUT.mkdir(exist_ok=True)

    def machine_speed():
        """Reference-loop median over the start and the end of the run."""
        ref_samples.extend(ref_loop_ms())
        record["ref_loop_ms"] = ref_samples
        return statistics.median(ref_samples)

    if args.trace == 0:
        setups, imports, builds = [], [], []
        for _ in range(SETUP_REPEATS):
            workloads.clear_dynamics_caches()
            imp = import_seconds(env)
            t0 = time.perf_counter()
            ctx = workload.setup(inputs)
            build = time.perf_counter() - t0
            imports.append(imp)
            builds.append(build)
            setups.append(imp + build)
        plain, _, _ = run_passes(lambda: workload.run_pass(ctx, ops), args.seconds)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        record.update(import_s=imports, build_s=builds, pass_s=plain)
        print(f"{args.workload} seed {args.seed}: setup {setups} s "
              f"(imports {imports}), passes {plain} s, "
              f"ref loop {machine_speed():.2f} ms", file=sys.stderr)
    else:
        tracer = tracing.Tracer()
        workloads.clear_dynamics_caches()
        first = tracer.mark()
        with tracer.installed():
            ctx = workload.setup(inputs)
        setup_range = (first, tracer.mark())
        plain, traced, ranges = run_passes(lambda: workload.run_pass(ctx, ops),
                                           args.seconds, tracer)
        per_pass = [tracer.per_layer([setup_range, rng]) for rng in ranges]
        metrics = {name: {"value": statistics.median(p[name][0] for p in per_pass),
                          "unit": unit}
                   for name, (_, unit) in per_pass[0].items()}
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * overhead / statistics.median(plain), "unit": "%"}
        metrics["machine.ref_loop_ms"] = {"value": machine_speed(), "unit": "ms"}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        record.update(pass_s=plain, traced_pass_s=traced, spans=spans_path.name)
        print(f"{args.workload} seed {args.seed}: untraced passes {plain} s, "
              f"traced passes {traced} s, {len(tracer.spans)} spans",
              file=sys.stderr)

    result = {"correct": ops.correct, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    record["result"] = result
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
