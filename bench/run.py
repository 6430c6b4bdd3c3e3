"""spapt benchmark: one workload per run, closed loop, single thread.

    python3 bench/run.py --workload state_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; spapt is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it print every metric with its unit and a ``detail`` record (provenance,
tail percentile, failure kinds).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_RUNS = 7
#: seconds the calibration kernel of :class:`Clock` takes on an idle core of
#: the 2-core Intel Xeon the benchmark was written on; scaled times are
#: times at that speed
REF_SECONDS = 2.0e-4
#: how strongly unit times follow the calibration kernel under contention:
#: over this benchmark's units a 1.9x slower kernel came with 1.5x to 1.8x
#: slower units, i.e. unit slowdown ~ kernel slowdown ** 0.7 to 0.9
SENSITIVITY = 0.8
TAIL_PERCENTILES = (99, 95, 90)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
MODULES = ("linalg", "states", "channels", "tomography", "detection", "io", "cli")
#: every span name the workloads record, by module
LAYER_FUNCTIONS = (
    "linalg.herm_eig",
    "linalg.partial_transpose",
    "states.DensityMatrix",
    "states.fidelity",
    "states.bell",
    "states.werner",
    "states.mems",
    "states.rho_family",
    "channels.build",
    "channels.apply",
    "channels.superoperator",
    "channels.choi",
    "channels.is_cp",
    "channels.is_tp",
    "tomography.ideal_probabilities",
    "tomography.sample_table",
    "tomography.trajectory_spa_pt",
    "tomography.sample_pauli_expectations",
    "tomography.qst_linear_inversion",
    "tomography.project_to_physical",
    "detection.detect_ppt",
    "detection.detect_spa_spectrum",
    "detection.detect_f_hat",
    "detection.f_hat",
    "detection.lambda_min_d",
    "detection.lambda_min_det_scan",
    "io.save_state",
    "io.load_state",
    "cli.main_prepare",
    "cli.main_detect",
    "cli.main_apply",
    "cli.main_table1",
    "cli.main_fig3",
)


def _import_spapt():
    """Import spapt from this checkout's src/ and the workload modules."""
    if not (SRC / "spapt" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no spapt sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import spapt

    if Path(spapt.__file__).resolve().parent != (SRC / "spapt").resolve():
        raise SystemExit(f"run.py: imported spapt from {spapt.__file__}, not from {SRC}")
    import workloads

    return workloads


def _workdir(workload: str) -> Path:
    path = RUN_DIR / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


class Clock:
    """Unit times rescaled to a fixed reference speed of the machine.

    The cores of the host are shared: for milliseconds to many seconds at a
    time everything in this process runs up to about twice as slow, and
    CPU-time counters slow down with it.  So a fixed calibration kernel (a
    Python loop of small numpy operations, like spapt's own code) is timed
    before the first unit and after every unit, and a unit's wall time is
    scaled by ``REF_SECONDS`` over the mean of the calibration times just
    before and after it, raised to ``SENSITIVITY``.  A raw time is kept
    alongside every scaled one.
    """

    def __init__(self) -> None:
        import numpy

        self._mat = numpy.eye(4, dtype=complex)
        self._kernel()  # first call pays for lazy initialisation
        self.last = self._kernel()

    def _kernel(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(200):
            acc += abs((self._mat * 1.0001)[0, 0])
        return time.perf_counter() - start

    def factor(self) -> float:
        """Scale for the interval since the previous call."""
        now = self._kernel()
        scale = (REF_SECONDS / ((self.last + now) / 2.0)) ** SENSITIVITY
        self.last = now
        return scale


def _run_unit(wl, clock: Clock, index: int, failures: dict) -> tuple[float, float]:
    """Run unit ``index`` (timed), then check it (untimed).  Returns the
    scaled and the raw seconds."""
    unit = wl.unit(index)
    problem = None
    with wl.tr.unit(index, unit.kind):
        start = time.perf_counter()
        try:
            out = wl.run(unit)
        except Exception as exc:  # an escaped exception is a failed unit
            problem = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    scale = clock.factor()
    if problem is None:
        try:
            problem = wl.check(unit, out)
        except Exception as exc:  # output too malformed to check
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
    if problem is not None:
        failures.setdefault(unit.kind, [0, problem])[0] += 1
    return elapsed * scale, elapsed


def setup_probe(workload: str, seed: int) -> float:
    """Fresh-interpreter set-up, scaled like unit times: import spapt, build
    the workload's inputs, run one warm-up unit.  numpy is imported before
    the clock starts (the calibration kernel needs it)."""
    clock = Clock()
    start = time.perf_counter()
    workloads = _import_spapt()
    from tracing import NullTracer

    workdir = _workdir(workload)
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir, NullTracer())
        wl.run(wl.unit(0))
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return elapsed * clock.factor()


def _setup_seconds(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"run.py: setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def timed_phase(wl, clock: Clock, seconds: float, failures: dict, tracers) -> tuple[list[list[float]], list[float], dict]:
    """Closed loop from unit 0: the next unit starts when the previous one
    is checked.  Each cycle of units runs under the next tracer in turn.
    Stops after ``seconds`` of wall time, once every tracer has run the
    same number of whole cycles.  Returns scaled unit times per tracer, all
    raw unit times, and the scale of every unit by index."""
    times: list[list[float]] = [[] for _ in tracers]
    raw, scales = [], {}
    start = time.perf_counter()
    index = 0
    while True:
        turn = (index // wl.cycle) % len(tracers)
        wl.tr = tracers[turn]
        scaled, elapsed = _run_unit(wl, clock, index, failures)
        times[turn].append(scaled)
        raw.append(elapsed)
        scales[index] = scaled / elapsed
        index += 1
        if index % (wl.cycle * len(tracers)) == 0 and time.perf_counter() - start >= seconds:
            return times, raw, scales


def tail_latency(times: list[float]) -> tuple[int, float]:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    n = len(times)
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            break
    return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def _provenance(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "spapt").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
        "src_spapt_lines": lines,
    }


def _layer_metrics(tracer, wl, scales: dict, overhead: float) -> dict:
    per_name, busy = tracer.layer_stats(scales)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        calls, total, failed = per_name.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.us_per_call"] = (total / calls * 1e6 if calls else 0.0, "us")
        metrics[f"{name}.failed"] = (failed, "count")
    for module in MODULES:
        metrics[f"{module}.busy_frac"] = (busy.get(module, 0.0), "ratio")
    for shots, (agree, total) in wl.agreement.items():
        tag = f"shots_1e{len(str(shots)) - 1}"
        metrics[f"detection.verdict_agree_ratio.{tag}"] = (agree / total if total else 0.0, "ratio")
        metrics[f"detection.verdict_agree_n.{tag}"] = (total, "count")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = _import_spapt()
    from tracing import NullTracer, Tracer

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    setup_times = [] if trace else _setup_seconds(workload, seed)
    tracer = Tracer() if trace else NullTracer()
    workdir = _workdir(workload)
    failures: dict = {}
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir, tracer)
        wl.tr = NullTracer()
        clock = Clock()
        _run_unit(wl, clock, 0, {})  # warm-up, as in set-up; the timed loop starts at unit 0 again
        if trace:
            # untraced and traced cycles alternate, so drift hits both alike
            (plain, times), raw, scales = timed_phase(wl, clock, seconds, failures, (NullTracer(), tracer))
            plain_rate, traced_rate = len(plain) / sum(plain), len(times) / sum(times)
        else:
            (times,), raw, scales = timed_phase(wl, clock, seconds, failures, (NullTracer(),))
            plain = []
        attempted = len(plain) + len(times)
        for kind, problem in wl.extra_checks():
            attempted += 1
            if problem is not None:
                failures.setdefault(kind, [0, problem])[0] += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(count for count, _ in failures.values())
    unexpected = sorted(kind for kind in failures if kind not in workloads.KNOWN_DEFECTS)
    tail_q, tail = tail_latency(times)
    detail = {
        "workload": workload,
        "trace": int(trace),
        "units_timed": len(times),
        "seconds_in_units": sum(times),
        "raw_seconds_in_units": sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "scale_median": statistics.median(scales.values()),
        "tail_percentile": tail_q,
        "tail_samples": len(times),
        "error_rate": failed / attempted,
        "failures": {kind: {"count": count, "first": problem} for kind, (count, problem) in sorted(failures.items())},
        "unexpected_failures": unexpected,
        "setup_s_samples": setup_times,
        "provenance": _provenance(seed),
    }
    if trace:
        metrics = _layer_metrics(tracer, wl, scales, plain_rate / traced_rate - 1.0)
        RUN_DIR.mkdir(exist_ok=True)
        trace_path = RUN_DIR / f"trace-{workload}-seed{seed}.json"
        tracer.dump(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        detail["throughput_per_s"] = {"untraced": plain_rate, "traced": traced_rate}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_per_s": len(times) / sum(times),
            "latency_p50_ms": statistics.median(times) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "success_rate": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
