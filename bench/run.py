#!/usr/bin/env python3
"""coaxfilt benchmark: one closed-loop client per run, in one process.

    python3 bench/run.py --workload extract-cli --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for inputs and checks):

  extract-cli          `coaxfilt.cli.main(["extract", ...])` on noisy 42 mm
                       Touchstone files; loads touchstone parsing, the
                       per-point inversion and the moving median.
  roundtrip-noiseless  extract_material without smoothing, then
                       s_params_model at 36 mm; loads the per-point loops
                       and MaterialModel construction, with no median,
                       file I/O or CLI.
  design-sweep         synthesis, forward model, compliance check, then
                       export_csv and write_s2p to fresh files; loads the
                       serializers and does no extraction.

There is no workload that starts a process per op: interpreter start and
the numpy import would swamp the op, and setup_s already measures that
cost. Folding scripts/noise_robustness.py into this harness is left for
a later change.

With --trace 0 the run reports the end-to-end metrics. The timed ops
(`attempted` is their count) are cut into consecutive segments of at
least 100, so that at least ten lie beyond each segment's p90, and
ops_per_s (ops over their summed wall time), op_p50_ms and op_p90_ms are
the medians of the per-segment values. setup_s is the median of 15 fresh
interpreters, each importing coaxfilt.cli, making one input and
completing one op, timed from outside; peak_rss_mb is the run's peak
resident set.
With --trace 1 it runs untraced for half the time and traced for the
other half, and reports the per-layer metrics of tracing.py: busy time
per op (`.ms`), busy minus traced children (`.self_ms`), calls per op
(`.calls`), ratios, the tracing overhead and the share of op time the
traced calls cover.

Ops cycle through a pool of 16 seed-drawn inputs. Each op writes to
fresh paths in a temporary directory under bench/out/; after its timed
interval its outputs are read back, checked and deleted. The first pass
over the pool (the untimed warm-up) is checked against the reference;
every later output must be byte-identical to the warm-up output of the
same input. failed counts ops that raised, exited nonzero, wrote unreadable
output or changed their output bytes. Known disk behaviour: on ext4,
overwriting an existing file measured ~75 ms per write against ~0.1 ms
for a new one, which is why no op writes over an old path.

Each run writes bench/out/<workload>-seed<seed>-trace<t>.json at the end:
the environment (Python, numpy, CPU count and model, git commit, thread
variables), the metrics, result_err, failed_frac, the sha256 of every
output byte for the seed, and with --trace 1 the spans. The last line of
stdout is one JSON object with correct, attempted, failed and metrics.
Exit status is 1 if any check fails, 2 if the program cannot be imported.
"""

import os
import sys

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import tracing
    import workloads
except ImportError as _err:
    print(f"error: cannot import the program under test from {ROOT / 'src'}: {_err}",
          file=sys.stderr)
    sys.exit(2)

SETUP_PROBES = 15
MIN_OPS = 100
_OP_IDS = itertools.count(1)
TRACED_MODULES = ("cli", "touchstone", "extraction", "txline", "synthesis")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_TIMES = (
    "cli.main.ms",
    "cli.main.self_ms",
    "touchstone.parse_s2p.ms",
    "touchstone.symmetrize.ms",
    "touchstone.material_to_csv.ms",
    "touchstone.export_csv.ms",
    "touchstone.write_s2p.ms",
    "extraction.extract_material.ms",
    "extraction.extract_material.self_ms",
    "extraction.invert_point.calls",
    "extraction.invert_point.ms",
    "extraction.impedance_from_reflection.calls",
    "extraction.impedance_from_reflection.ms",
    "extraction.material_from_point.calls",
    "extraction.material_from_point.ms",
    "extraction.unwrap_gamma.calls",
    "extraction.unwrap_gamma.ms",
    "extraction.moving_median.ms",
    "txline.MaterialModel.from_arrays.ms",
    "txline.s_params_model.ms",
    "txline.magnitude_db.calls",
    "txline.magnitude_db.ms",
    "synthesis.solve_diameter_ratio.ms",
    "synthesis.solve_length_for_slope.ms",
    "synthesis.check_compliance.ms",
)
LAYER_OTHER = {
    "touchstone.bytes_written": "B",
    "extraction.flagged_frac": "ratio",
    "extraction.samples_per_point": "ratio",
    "txline.s_params_model.points": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "check.result_err": "ratio",
}


def _count_extraction(tracer, report, args, kwargs):
    measured = args[0] if args else kwargs["measured"]
    tracer.count("extraction.points", len(measured.grid))
    tracer.count("extraction.flagged", len(report.flags))
    tracer.count("extraction.samples", len(report.material.samples))


def _count_model(tracer, resp, args, kwargs):
    tracer.count("txline.s_params_model.points", len(resp.grid))


class Checker:
    """Reads back, checks and deletes op outputs, outside the timed phase."""

    def __init__(self, wl):
        self.wl = wl
        self.digests: dict[int, bytes] = {}
        self.errs: dict[int, float] = {}
        self.errors: list[str] = []
        self.passed = 0
        self.bytes_written = 0

    def check(self, k: int, stem: Path, ret) -> bool:
        try:
            if isinstance(ret, BaseException):
                raise ret
            blob, result, nbytes = self.wl.collect(k, stem, ret)
            digest = hashlib.sha256(blob).digest()
            if k not in self.digests:
                self.errs[k] = self.wl.verify(k, result)
                self.digests[k] = digest
            elif digest != self.digests[k]:
                raise workloads.OutputError(f"input {k}: output bytes changed between ops")
        except Exception as exc:  # an op's failure is counted, never fatal
            if len(self.errors) < 20:
                self.errors.append(f"input {k}: {type(exc).__name__}: {exc}")
            return False
        finally:
            self.wl.cleanup(stem)
        self.passed += 1
        self.bytes_written += nbytes
        return True

    def sha256(self) -> str:
        h = hashlib.sha256()
        for k in sorted(self.digests):
            h.update(self.digests[k])
        return h.hexdigest()


def run_ops(wl, workdir: Path, checker: Checker, seconds: float, min_ops: int, tracer=None):
    """Closed loop over the input pool until both `seconds` of op time and `min_ops` ops.

    Returns the op times and the number of failed ops. Each op writes to
    fresh paths; its outputs are checked and deleted after its timed
    interval, so the results of one op are never alive during the next.
    """
    times, total, failed = [], 0.0, 0
    while total < seconds or len(times) < min_ops:
        k = len(times) % wl.pool_size
        stem = workdir / f"out-{next(_OP_IDS):07d}"
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            ret = wl.run_op(k, stem)
        except Exception as exc:  # counted as a failed op by the checker
            ret = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        times.append(dt)
        total += dt
        failed += not checker.check(k, stem, ret)
        del ret
        gc.collect()  # every op starts from the same collector state
    return times, failed


def setup_seconds(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return out


def probe(workload: str, seed: int) -> int:
    """Make one input and complete one op in this fresh interpreter."""
    with tempfile.TemporaryDirectory(prefix="probe-", dir=OUT_DIR) as tmp:
        wl = workloads.WORKLOADS[workload](seed, Path(tmp), pool_size=1)
        stem = Path(tmp) / "out"
        ret = wl.run_op(0, stem)
        try:
            wl.collect(0, stem, ret)
        finally:
            wl.cleanup(stem)
    return 0


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer, traced_times, plain_times, checker, result_err) -> dict:
    ops = tracer.stats[tracing.OP][0]
    metrics = {}
    for name in LAYER_TIMES:
        layer, _, kind = name.rpartition(".")
        calls, busy, child = tracer.stats.get(layer, (0, 0, 0))
        value = {"calls": calls, "ms": busy / 1e6, "self_ms": (busy - child) / 1e6}[kind]
        metrics[name] = {"value": value / ops, "unit": "count" if kind == "calls" else "ms"}
    c = tracer.counters
    points = c.get("extraction.points", 0.0)
    op_stats = tracer.stats[tracing.OP]
    other = {
        "touchstone.bytes_written": checker.bytes_written / checker.passed,
        "extraction.flagged_frac": c.get("extraction.flagged", 0.0) / points if points else 0.0,
        "extraction.samples_per_point": c.get("extraction.samples", 0.0) / points if points else 0.0,
        "txline.s_params_model.points": c.get("txline.s_params_model.points", 0.0) / ops,
        "trace.overhead_frac": statistics.median(traced_times) / statistics.median(plain_times) - 1.0,
        "trace.coverage_frac": op_stats[2] / op_stats[1],
        "check.result_err": result_err,
    }
    for name, unit in LAYER_OTHER.items():
        metrics[name] = {"value": other[name], "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="coaxfilt benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    if args.probe:
        return probe(args.workload, args.seed)

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        checker = Checker(wl)
        run_ops(wl, workdir, checker, 0.0, wl.pool_size)  # warm-up: one checked pass
        # Full collections during timed ops then traverse only objects made
        # after set-up, so the benchmark's own heap adds nothing to op times.
        gc.collect()
        gc.freeze()
        if args.trace:
            plain, f_plain = run_ops(wl, workdir, checker, args.seconds / 2, MIN_OPS)
            tracer = tracing.Tracer("coaxfilt", TRACED_MODULES)
            tracer.observe("extraction.extract_material", _count_extraction)
            tracer.observe("txline.s_params_model", _count_model)
            tracer.install()
            try:
                times, f_traced = run_ops(
                    wl, workdir, checker, args.seconds / 2, MIN_OPS, tracer
                )
            finally:
                tracer.uninstall()
            failed = f_plain + f_traced
            attempted = len(plain) + len(times)
        else:
            times, failed = run_ops(wl, workdir, checker, args.seconds, MIN_OPS)
            attempted = len(times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errs = list(checker.errs.values())
    result_err = wl.aggregate(errs) if errs else float("inf")
    correct = (
        failed == 0
        and not checker.errors
        and len(checker.errs) == wl.pool_size
        and result_err <= wl.tolerance
    )
    if args.trace:
        metrics = layer_metrics(tracer, times, plain, checker, result_err)
    else:
        # Medians over segments of MIN_OPS ops: a burst of host contention
        # then moves one segment, not the reported value.
        segments = np.array_split(np.array(times), len(times) // MIN_OPS)
        values = {
            "ops_per_s": statistics.median(len(seg) / seg.sum() for seg in segments),
            "op_p50_ms": 1e3 * statistics.median(np.median(seg) for seg in segments),
            "op_p90_ms": 1e3 * statistics.median(np.percentile(seg, 90) for seg in segments),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "result_err": result_err,
        "result_tolerance": wl.tolerance,
        "output_sha256": checker.sha256(),
        "setup_s_samples": setup,
        "errors": checker.errors,
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = [
            {"op": op, "name": name, "parent": parent, "start_ns": start, "dur_ns": dur}
            for op, name, parent, start, dur in tracer.spans
        ]
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for error in checker.errors:
        print(f"check failed: {error}")
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.6g}")
    print(f"result_err {result_err:.6g} (tolerance {wl.tolerance:g})  "
          f"output sha256 {checker.sha256()}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
