"""Seeded benchmark of the flowerpetals CLI pipelines.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload node-setup --seed 1 --seconds 20 --trace 0

The workloads are defined in workloads.py; BENCHMARK.json says why each
was chosen and lists every metric with its unit. Inputs are generated from
--seed by gen.py, which uses numpy only.

--trace 0 runs each pipeline untraced through ``flowerpetals.cli.run`` and
reports the end-to-end metrics: wall_s, the median wall time of one full
pipeline run; setup_s, the median time from the input files to the
propagated features through the public ingest and precompute functions; and
peak_rss_mb, the peak resident memory of this process over a first, untimed
memory run. Timing starts after one more untimed warm-up run and stops
before an iteration that would end after --seconds.

--trace 1 alternates untraced and traced pipeline runs and reports the
per-layer metrics of spans.py (medians over the traced runs), the traced
wall time and the tracing overhead. A traced run whose outputs differ from
the untraced run's counts as failed.

Every run's outputs are checked: exit codes, strict JSON without NaN or
infinities, and the exact fields of workloads.py. Lines before the last
report the environment, the input sizes, the checks, byte-identity against
reference.json (outputs taken at the commit that added the benchmark; a
mismatch is drift, not a failure), score and fail_frac. The last line is
the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc's adaptive malloc starts with a 128 KiB mmap threshold and raises it
# (up to 32 MiB on 64-bit) as large blocks are freed, with the trim threshold
# at twice it; timed runs pin it at the top from the start, and the memory run
# at the bottom, so that every large block is unmapped when freed
MMAP_THRESHOLD_MIN = 128 * 1024
MMAP_THRESHOLD_MAX = 32 * 1024 * 1024
SETUP_SHARE = 0.3  # set-up time measured after each pipeline run, as a share of its wall time

# The split each workload was chosen for, confirmed on its traced run: the
# summed metrics as a share of the traced wall time, a comparison and a bound.
SETUP_LAYERS = ("complexes.self_s", "operators.self_s", "linalg.self_s")
SPLITS = {
    "node-setup": [(SETUP_LAYERS, ">=", 0.60)],
    "node-train": [(("model.self_s",), ">=", 0.70), (SETUP_LAYERS, "<=", 0.10)],
    "graphclass": [(("model.readout_loss_and_grad_s",), ">=", 0.50)],
    "analysis": [(
        ("linalg.dense_sym_eig_s", "nullmodel.rewire_to_target_s", "isomorphism.distinguish_s"),
        ">=", 0.70,
    )],
}
SCORE_MEANING = {
    "node-setup": "mean test accuracy",
    "node-train": "mean test accuracy",
    "graphclass": "max_mean_val_accuracy",
}


def prepare(root: Path) -> dict:
    """Cap BLAS threads at nproc, fix the memory policy and import
    flowerpetals from root/src.

    Must run before numpy is imported. Returns the settings it made.
    """
    src = root / "src"
    if not (src / "flowerpetals" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no {src}/flowerpetals; run from the root of a checkout")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    # resident memory should not depend on whether the kernel had huge pages free
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    pinned = pin_malloc_thresholds(MMAP_THRESHOLD_MAX)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import flowerpetals

    if not Path(flowerpetals.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: flowerpetals was imported from {flowerpetals.__file__}")
    return {
        "nproc": nproc,
        "blas_threads": nproc,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "malloc_thresholds_pinned": pinned,
    }


def pin_malloc_thresholds(mmap_threshold: int) -> bool:
    """Pin glibc's mmap threshold, and its trim threshold at twice it.

    False where libc is not glibc.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return (mallopt(m_mmap_threshold, mmap_threshold) == 1
            and mallopt(m_trim_threshold, 2 * mmap_threshold) == 1)


def environment(settings: dict) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **settings,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


@dataclass
class Outcome:
    wall: float
    errors: list[str]
    digest: str
    score: float | None


def run_pipeline(case, run_cli) -> Outcome:
    """One full pipeline run: every CLI command of the case, then the checks."""
    for path in case.outputs:
        path.unlink(missing_ok=True)
    errors = []
    start = perf_counter()
    try:
        for argv in case.runs:
            code = run_cli(argv)
            if code != 0:
                errors.append(f"{argv[0]} exited {code}")
    except Exception:  # a crash inside the package is a failed run, not a benchmark error
        errors.append(traceback.format_exc(limit=3))
    wall = perf_counter() - start
    score = None
    if not errors:
        try:
            found, score = case.check()
            errors += found
        except Exception as exc:  # a malformed output is a failed run too
            errors.append(f"unreadable output: {exc!r}")
    digest = hashlib.sha256()
    for path in case.outputs:
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return Outcome(wall, errors, digest.hexdigest(), score)


@dataclass
class Tally:
    """Attempted and failed runs, with byte-identity against the reference."""

    reference: str | None
    attempted: int = 0
    failed: int = 0
    identical: int = 0
    compared: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, outcome: Outcome, extra_error: str | None = None) -> None:
        errors = outcome.errors + ([extra_error] if extra_error else [])
        self.attempted += 1
        self.failed += bool(errors)
        self.errors.extend(errors[: max(0, 3 - len(self.errors))])
        if self.reference is not None:
            self.compared += 1
            self.identical += outcome.digest == self.reference


def measure_untraced(case, cli, seconds: float, tally: Tally):
    # memory run, untimed: with every large block unmapped when freed, the
    # resident peak follows live memory rather than heap fragmentation
    pin_malloc_thresholds(MMAP_THRESHOLD_MIN)
    tally.add(run_pipeline(case, cli.run))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pin_malloc_thresholds(MMAP_THRESHOLD_MAX)
    tally.add(run_pipeline(case, cli.run))  # warm-up: checked, not timed
    walls, setups = [], []
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        outcome = run_pipeline(case, cli.run)
        walls.append(outcome.wall)
        # a short set-up runs several times, so setup_s is a median of more samples
        spent, setup_error = 0.0, None
        while spent < SETUP_SHARE * outcome.wall and setup_error is None:
            start = perf_counter()
            try:
                case.setup()
            except Exception:  # fails this pipeline run; the time until it raised still counts
                setup_error = "set-up raised: " + traceback.format_exc(limit=3)
            setups.append(perf_counter() - start)
            spent += setups[-1]
        tally.add(outcome, setup_error)
        if 2 * perf_counter() - started > deadline:  # the next iteration would overrun
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
    }
    return metrics, {"wall_s": len(walls), "setup_s": len(setups)}, outcome.score


def measure_traced(case, cli, seconds: float, tally: Tally):
    import spans

    tally.add(run_pipeline(case, cli.run))  # warm-up: checked, not timed
    untraced, traced, samples = [], [], []
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        # alternate which of the pair runs first, so neither always runs warmer
        if len(traced) % 2:
            plain = run_pipeline(case, cli.run)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            outcome = run_pipeline(case, tracer.wrap("cli.run", cli.run))
        if not len(traced) % 2:
            plain = run_pipeline(case, cli.run)
        tally.add(plain)
        differs = outcome.digest != plain.digest
        tally.add(outcome, "traced output differs from untraced output" if differs else None)
        untraced.append(plain.wall)
        traced.append(outcome.wall)
        samples.append(spans.layer_metrics(tracer))
        if 2 * perf_counter() - started > deadline:  # the next pair would overrun
            break
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["tasks.score"] = outcome.score if outcome.score is not None else 0.0
    return metrics, {"trace.overhead_s": len(traced)}, outcome.score


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor for quick checks; byte-identity is "
                             "compared only at 1")
    args = parser.parse_args(argv)

    root = Path.cwd()
    settings = prepare(root)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    import workloads
    from flowerpetals import cli

    reference = None
    if args.scale == 1.0:
        digests = json.loads((HERE / "reference.json").read_text())["digests"]
        reference = digests.get(args.workload, {}).get(str(args.seed))

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        case = workloads.WORKLOADS[args.workload](work, args.seed, args.scale)
        print("env", json.dumps(environment(settings), sort_keys=True))
        print("inputs", json.dumps(case.sizes, sort_keys=True))
        tally = Tally(reference)
        measure = measure_traced if args.trace else measure_untraced
        values, sample_counts, score = measure(case, cli, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    fail_frac = tally.failed / tally.attempted
    print("checks", json.dumps({
        "attempted": tally.attempted, "failed": tally.failed, "fail_frac": fail_frac,
        "byte_identical": tally.identical, "byte_compared": tally.compared,
        "errors": tally.errors,
    }))
    if not args.trace:
        for name, m in metrics.items():
            note = f" (median of {sample_counts[name]})" if name in sample_counts else ""
            print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}{note}")
    else:
        print(f"{args.workload} trace.overhead_s {values['trace.overhead_s']:.6g} s (traced minus "
              f"untraced median wall_s over {sample_counts['trace.overhead_s']} pairs)")
        for names, op, bound in SPLITS[args.workload]:
            share = sum(values[n] for n in names) / values["trace.wall_s"]
            met = share >= bound if op == ">=" else share <= bound
            print(f"{args.workload} split {'+'.join(names)} {share:.1%} of trace.wall_s "
                  f"(want {op} {bound:.0%}): {'met' if met else 'NOT met'}")
    meaning = SCORE_MEANING.get(args.workload)
    if meaning is None:
        print(f"{args.workload} score none (no quality figure)")
    elif score is None:
        print(f"{args.workload} score none (the last run's outputs failed their checks)")
    else:
        print(f"{args.workload} score {score:.6g} ({meaning})")
    print(f"{args.workload} fail_frac {fail_frac:.6g} ({tally.failed} of {tally.attempted} runs)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
