"""odsr benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
workload untraced, then traced (spans around every layer, see spans.py),
then once more under tracemalloc, and reports the per-layer metrics.  Text
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A JSON record of
the run (environment, samples, checks, and for traced runs the spans and
per-descriptor tables) is written to ``.perfbench_out/``.
"""
from __future__ import annotations

import ctypes
import os

# The baseline is single-threaded BLAS; pin it before numpy loads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"


def keep_freed_memory() -> str:
    """Have glibc malloc serve every block from its heap and keep freed
    memory mapped.  By default each large temporary (im2col buffers reach
    64 MB) is a fresh mmap whose pages fault in, zeroed, on every call; on
    a shared VM the cost of those faults swings from run to run with the
    host, and it was most of the sr-x4-2k spread.  Returns the allocator
    mode, for the run's record."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return "default (no glibc mallopt)"
    m_trim_threshold, m_top_pad, m_mmap_max = -1, -2, -4
    ok = (mallopt(m_mmap_max, 0) and mallopt(m_trim_threshold, 2 ** 31 - 1)
          and mallopt(m_top_pad, 64 << 20))
    return "glibc heap only, no trim" if ok else "default (mallopt refused)"


MALLOC_MODE = keep_freed_memory()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import Reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3
MIN_ROUNDS = 5          # timed rounds, trace 0
MIN_ROUNDS_TRACED = 2   # timed rounds in each phase of trace 1


def import_odsr():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "odsr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no odsr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import odsr  # noqa: F401
    from odsr import harness, media, metrics, trainer
    from odsr.engine import ops, tensor
    from odsr.models import blocks, builders, networks, resample
    if Path(odsr.__file__).resolve().parent != SRC / "odsr":
        raise SystemExit(f"perfbench: imported odsr from {odsr.__file__}, "
                         f"not from {SRC}")
    return argparse.Namespace(
        ops=ops, tensor=tensor, blocks=blocks, builders=builders,
        networks=networks, resample=resample, media=media, metrics=metrics,
        harness=harness, trainer=trainer)


# -- measurement -----------------------------------------------------------------

def measure(parts, seconds: float, min_rounds: int, tracer=None,
            warmup: int = 1, reference=None):
    """Closed loop, one client: rounds of one unit of each part in turn.

    The first ``warmup`` rounds are untimed; timed rounds go on while the
    next one is expected to end within ``seconds``, and at least
    ``min_rounds`` run.  Interleaving the parts spreads a slow spell of the
    machine over all of them instead of one.  With a ``reference`` (see
    reference.py) it runs before every unit and after a round's last one,
    and each unit's seconds are also divided by the mean of the two
    reference times around it.  Returns ``({part: [unit seconds]},
    {part: [unit / reference]}, attempted, [problems])``.  With a tracer,
    each unit is a ``unit`` span and spans carry ``(part, round)``.
    """
    samples: dict[str, list[float]] = {p.name: [] for p in parts}
    ratios: dict[str, list[float]] = {p.name: [] for p in parts}
    problems: list[str] = []
    attempted = 0
    rounds: list[float] = []
    k = 0
    begin = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        ref = reference() if reference is not None else None
        for part in parts:
            if tracer is not None:
                tracer.unit = (part.name, k)
                span = tracer.open("unit")
            t0 = time.perf_counter()
            out = part.unit()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
            attempted += 1
            problems.extend(part.check(out))
            if reference is not None:
                ref_before, ref = ref, reference()
            if k >= warmup:
                samples[part.name].append(t1 - t0)
                if reference is not None:
                    ratios[part.name].append(
                        (t1 - t0) / (0.5 * (ref_before + ref)))
        k += 1
        if k <= warmup:
            begin = time.perf_counter()
            continue
        rounds.append(time.perf_counter() - r0)
        if len(rounds) >= min_rounds and time.perf_counter() - begin \
                + statistics.median(rounds) > seconds:
            return samples, ratios, attempted, problems


def verify(parts):
    """Run each part's one-off output check, outside the timed rounds."""
    problems = []
    checked = [p for p in parts if p.verify is not None]
    for part in checked:
        problems.extend(part.verify())
    return len(checked), problems


def part_medians(parts, samples) -> dict[str, float]:
    return {p.name: statistics.median(samples[p.name]) * p.per_unit
            for p in parts}


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- environment -------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "malloc": MALLOC_MODE,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def git_commit() -> str | None:
    """HEAD's commit from ``.git`` files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- runs ----------------------------------------------------------------------------

def run_untraced(workload, seed: int, seconds: float, import_s: float,
                 size=None):
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        parts = workload.setup(seed, size or workload.size)
        setups.append(time.perf_counter() - t0)
    # The untimed warm-up round runs under tracemalloc: its peak, above what
    # set-up left allocated, is the memory one round needs.  Unlike peak
    # RSS it does not move with how the C allocator happens to fragment.
    tracemalloc.start()
    try:
        _, _, att0, prob0 = measure(parts, 0.0, 1, warmup=0)
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples, ratios, attempted, problems = measure(
        parts, seconds, MIN_ROUNDS, warmup=0, reference=Reference())
    att1, prob1 = verify(parts)
    med = part_medians(parts, samples)
    rel = part_medians(parts, ratios)
    metrics = {
        "unit_rel": (sum(rel.values()), "ref"),
        "part_geomean_rel": (geomean(rel.values()), "ref"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_alloc_mb": (alloc_peak / 2 ** 20, "MB"),
    }
    record = {"setup_samples_s": setups, "import_s": import_s,
              "unit_samples_s": samples, "unit_ratios": ratios,
              "part_s": med, "part_rel": rel, "unit_s": sum(med.values()),
              "part_geomean_s": geomean(med.values()),
              "peak_rss_mb": peak_rss_mb()}
    return (metrics, att0 + attempted + att1, prob0 + problems + prob1,
            record)


def run_traced(workload, seed: int, seconds: float, odsr, size=None):
    import layers
    from spans import Tracer, install_all

    parts = workload.setup(seed, size or workload.size)
    phase = 0.4 * seconds
    plain, _, att0, prob0 = measure(parts, phase, MIN_ROUNDS_TRACED)

    tracer = Tracer()
    install_all(tracer, odsr)
    try:
        traced, _, att1, prob1 = measure(parts, phase, MIN_ROUNDS_TRACED,
                                      tracer=tracer)
    finally:
        tracer.restore()

    mem = Tracer(memory=True)
    install_all(mem, odsr)
    tracemalloc.start()
    try:
        _, _, att2, prob2 = measure(parts, 0.0, 1, tracer=mem, warmup=0)
    finally:
        tracemalloc.stop()
        mem.restore()
    att3, prob3 = verify(parts)

    report = layers.per_layer(workload.name, parts, tracer, mem,
                              part_medians(parts, plain),
                              part_medians(parts, traced), odsr)
    attempted = att0 + att1 + att2 + att3 + len(report.checks)
    problems = prob0 + prob1 + prob2 + prob3 + [
        f"self-check {c['name']}: {c['detail']}"
        for c in report.checks if not c["ok"]]
    record = {"untraced_samples_s": plain, "traced_samples_s": traced,
              "self_checks": report.checks, "descriptors": report.tables,
              "spans": report.spans}
    return report.metrics, attempted, problems, record, report


def main(argv=None) -> int:
    t_start = time.perf_counter()
    odsr = import_odsr()
    import_s = time.perf_counter() - t_start
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}: unit = {workload.unit}, seed "
          f"{args.seed}, {args.seconds:g} s, trace {args.trace}")
    if args.trace:
        metrics, attempted, problems, record, report = run_traced(
            workload, args.seed, args.seconds, odsr)
        for line in report.text:
            print(line)
    else:
        metrics, attempted, problems, record = run_untraced(
            workload, args.seed, args.seconds, import_s)
        for name, value in record["part_s"].items():
            print(f"part {name} = {value:.6g} s, "
                  f"{record['part_rel'][name]:.6g} ref per {workload.unit}")
        for name in ("unit_s", "part_geomean_s"):
            print(f"info {name} = {record[name]:.6g} s")
        print(f"info peak_rss_mb = {record['peak_rss_mb']:.6g} MB")
    failed = len(problems)
    for p in problems:
        print("FAILED " + p, file=sys.stderr)
    print(f"failed_ops_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} units and checks)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "failed": failed, "attempted": attempted, "problems": problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        **record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
