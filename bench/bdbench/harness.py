"""Closed-loop runner: one client, one thread, each operation starts after
the previous one returns. Runs whole cycles of a workload until the
measuring time is spent and turns the records into metrics.

A shared host's speed drifts by tens of percent within seconds, and it
slows all code alike. So during untraced cycles a timer interrupts the
run every REF_INTERVAL_S seconds of wall time and times one small piece
of a reference loop that does not call belldyn; that time is taken out
of the operation it interrupted. The piece is shaped like belldyn's own
work: per-point calls on single 4x4 matrices, as the trajectory commands
make, and batched array arithmetic, as the oracles' grid searches do. Times are reported in "ref" units: the
seconds over the mean seconds of one reference piece in the same cycle.
The pieces are spread evenly in time, inside the operations, so they
see the speed the operations saw, and a faster program leaves them as
they were. The raw seconds are printed beside them."""

from __future__ import annotations

import io
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import belldyn
import belldyn.cli
import belldyn.correlations
import belldyn.dynamics
import belldyn.linalg
import belldyn.nonmarkov
import belldyn.oracle

from .tracer import LAYERS, Tracer
from .workloads import Op, build_cycle, defect_probes

MODULES = (belldyn, belldyn.cli, belldyn.correlations, belldyn.dynamics,
           belldyn.linalg, belldyn.nonmarkov, belldyn.oracle)
TRAJECTORY_KINDS = ("figure2", "figure3", "evolve")
ORACLES = {"classical": "oracle_closest_classical", "separable": "oracle_closest_separable_bd",
           "product": "oracle_closest_product"}
SETUP_SAMPLES = 11
#: wall seconds between reference pieces; a piece takes 2-4% of that
REF_INTERVAL_S = 0.01
_REF_MATRIX = np.array([[0.40, 0.10, 0.00, 0.05],
                        [0.10, 0.30, 0.00, 0.00],
                        [0.00, 0.00, 0.20, 0.02],
                        [0.05, 0.00, 0.02, 0.10]]) + 0.01j * np.array([[0, 1, 0, 0],
                                                                       [-1, 0, 1, 0],
                                                                       [0, -1, 0, 1],
                                                                       [0, 0, -1, 0]])
_REF_STACK = _REF_MATRIX + np.linspace(0.0, 0.01, 8)[:, None, None] * np.eye(4)
_REF_GRID = np.linspace(0.001, 1.0, 2048)

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import belldyn.cli\n"
    "belldyn.cli.build_parser()\n"
    "print(time.perf_counter() - t0, belldyn.__file__)\n"
)


@dataclass
class Record:
    kind: str
    command: bool
    seconds: float
    error: str | None
    known_defect: str | None
    work: int
    out_bytes: int


# ---------------------------------------------------------------------------
# the reference loop

def reference_piece() -> float:
    """A fixed piece of work shaped like belldyn's: validation, eigensolves
    and entropies of single complex 4x4 Hermitian matrices with scalar
    Python and number formatting, then the same on a stack of matrices and
    a 2048-point grid; 0.2-0.4 ms on a shared 2-vCPU Xeon VM."""
    s = 0.0
    for k in range(3):
        a = _REF_MATRIX + (k * 1e-3) * np.eye(4)
        s += float(np.max(np.abs(a - a.conj().T))) + float(np.trace(a).real)
        w = np.linalg.eigvalsh(a)
        pos = w > 0.0
        s -= float(np.sum(w[pos] * np.log2(w[pos])))
        s += sum(math.sin(0.01 * j) for j in range(10))
        s += len(",".join(f"{x:.12g}" for x in w))
    w = np.linalg.eigvalsh(_REF_STACK)
    s += float(np.sum(w * np.log2(np.abs(w) + 1e-12)))
    x = np.sin(2.0 * _REF_GRID) ** 2 / 2.0
    return s + float(np.sum(x * np.log2(x + 1e-300)))


class SpeedProbe:
    """While entered, times one reference piece every REF_INTERVAL_S seconds
    of wall time from a SIGALRM handler, so that the samples fall inside
    the operations. `seconds` and `pieces` accumulate over all entries."""

    def __init__(self):
        self.seconds = 0.0
        self.pieces = 0
        self._previous = None
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a tick that arrives during a piece is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_piece()
        self.seconds += time.perf_counter() - t0
        self.pieces += 1
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


# ---------------------------------------------------------------------------
# one operation

def execute(op: Op, ctx: dict):
    """Run one operation; returns (exit code, stdout, stderr, value, exception)."""
    out, err = io.StringIO(), io.StringIO()
    code = value = exc = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if op.argv is not None:
                code = belldyn.cli.main(list(op.argv))
            else:
                value = op.call(ctx, belldyn)
                code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except Exception as e:  # a traceback is a failed operation, never an abort
            exc = f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue(), value, exc


def judge(op: Op, code, stdout: str, stderr: str, value, exc, ctx) -> tuple[str | None, int]:
    """Error message (None when correct) and the bytes the operation wrote."""
    text = stdout
    if op.output is not None and op.output.exists():
        text = op.output.read_text(encoding="utf-8")
    size = len(text.encode("utf-8"))
    if exc is not None:
        return f"raised {exc}", size
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}", size
    if op.expect_exit != 0:
        return (None if stderr.strip() else "no error message"), size
    try:
        return op.check(op, text, value, ctx), size
    except Exception as e:  # unreadable output is a wrong output
        return f"unreadable output: {type(e).__name__}: {e}", size


def run_cycle(cycle: list[Op], tracer: Tracer | None = None, run_base: int = 0,
              probe: SpeedProbe | None = None):
    """Run every operation once; returns (records, wall seconds). An
    operation's seconds leave out the reference pieces `probe` timed in it."""
    ctx: dict = {}
    records = []
    t_start = time.perf_counter()
    for i, op in enumerate(cycle):
        if op.output is not None:
            op.output.unlink(missing_ok=True)
        if tracer is not None:
            tracer.run_id = run_base + i
            span = tracer.span("bench.op").__enter__()
        probed = probe.seconds if probe is not None else 0.0
        t0 = time.perf_counter()
        code, stdout, stderr, value, exc = execute(op, ctx)
        seconds = time.perf_counter() - t0
        if probe is not None:
            seconds -= probe.seconds - probed
        error, size = judge(op, code, stdout, stderr, value, exc, ctx)
        if tracer is not None:
            span.__exit__(None, None, None)
        records.append(Record(op.kind, op.argv is not None, seconds, error, op.known_defect,
                              op.rows or op.states, size))
    return records, time.perf_counter() - t_start


def traced_cycle(cycle, tracer: Tracer, run_base: int):
    tracer.install(MODULES)
    try:
        return run_cycle(cycle, tracer, run_base)
    finally:
        tracer.restore()


# ---------------------------------------------------------------------------
# set-up time

def setup_sample(root: Path) -> float:
    """Seconds of a cold `import belldyn.cli` plus the first parser build, in
    a fresh interpreter that imports belldyn from `root/src`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    src = (root / "src").resolve()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = proc.stdout.split()
    if src not in Path(path).resolve().parents:
        raise RuntimeError(f"set-up imported belldyn from {path}, not {src}")
    return float(seconds)


# ---------------------------------------------------------------------------
# metrics

def _quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between data points and never
    extrapolated past the largest, as the default method does for few values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cycle_medians(cycles, units) -> list[float]:
    """Medians over cycles of (cycle time, work items per unit time, command
    time p50, command time p90), each cycle's times in its `units` seconds."""
    rows = []
    for recs, unit in zip(cycles, units):
        cmd = [r.seconds / unit for r in recs if r.command]
        work = [r for r in recs if r.work and r.error is None]
        work_t = sum(r.seconds for r in work) / unit
        rows.append((sum(r.seconds for r in recs) / unit,
                     sum(r.work for r in work) / work_t if work_t else 0.0,
                     _quantile(cmd, 50), _quantile(cmd, 90)))
    return [statistics.median(v) for v in zip(*rows)]


def end_to_end(cycles, refs: list, setup: list) -> dict:
    """End-to-end metrics of the untraced cycles, times in ref units; `refs`
    holds each cycle's seconds per reference piece."""
    wall, rate, p50, p90 = cycle_medians(cycles, refs)
    records = [r for recs in cycles for r in recs]
    failed = sum(r.error is not None for r in records)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (wall, "ref"),
        "work_per_kref": (1e3 * rate, "1/kref"),
        "cmd_p50_ref": (p50, "ref"),
        "cmd_p90_ref": (p90, "ref"),
        "ok_frac": (1.0 - failed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_seconds(cycles, refs: list) -> dict:
    """The same timings in seconds, for the table; they carry the host's drift."""
    wall, rate, p50, p90 = cycle_medians(cycles, [1.0] * len(cycles))
    return {
        "wall_s": (wall, "s"),
        "work_per_s": (rate, "1/s"),
        "cmd_p50_ms": (1e3 * p50, "ms"),
        "cmd_p90_ms": (1e3 * p90, "ms"),
        "ref_ms": (1e3 * statistics.median(refs), "ms"),
    }


def per_layer(tracer: Tracer, cycle: list[Op], traced: list, untraced_seconds: list,
              probes: list) -> dict:
    """Layer metrics from the spans of the traced cycles. Counts are those of
    the first traced cycle; times are means per traced cycle."""
    from belldyn.cli import VERIFY_TOL_BITS

    t = tracer.arrays()
    n_ops, n_cyc = len(cycle), len(traced)
    ids = {name: k for k, name in enumerate(tracer.names)}

    def named(name):
        return t["name"] == ids.get(name, -1)

    op_index = t["run"] % n_ops
    first = t["run"] < traced[0][0] + n_ops
    # trajectory commands that wrote their rows in the first traced cycle
    traj_ops = np.array([op.kind in TRAJECTORY_KINDS and op.expect_exit == 0 and rec.error is None
                         for op, rec in zip(cycle, traced[0][1])])
    in_traj = traj_ops[op_index]
    rows = sum(op.rows for op, ok in zip(cycle, traj_ops) if ok)

    def count(mask) -> int:
        return int(np.count_nonzero(mask & first))

    def seconds(mask) -> float:
        return float(t["self"][mask].sum()) / n_cyc

    def inclusive(name) -> float:
        return float(t["dur"][named(name)].sum()) / n_cyc

    def per_point(name) -> float:
        return count(named(name) & in_traj) / rows if rows else 0.0

    m = {}
    for k, layer in enumerate(LAYERS):
        is_layer = t["layer"] == k
        if layer != "bench":
            m[f"{layer}.calls"] = (count(is_layer), "count")
        m[f"{layer}.self_s"] = (seconds(is_layer), "s")

    m["cli.out_bytes"] = (sum(r.out_bytes for r in traced[0][1]), "bytes")
    for name in ("dynamics.validate_spectrum", "linalg.check_density",
                 "linalg.von_neumann_entropy", "correlations.quantifier_report"):
        m[f"{name}.calls"] = (count(named(name)), "count")
    for name in ("dynamics.validate_spectrum", "linalg.check_density",
                 "linalg.von_neumann_entropy"):
        m[f"{name}.per_point"] = (per_point(name), "count")
    corr_traj = seconds((t["layer"] == LAYERS.index("correlations")) & in_traj)
    m["correlations.us_per_point"] = (corr_traj / rows * 1e6 if rows else 0.0, "us")

    for family, fn in ORACLES.items():
        m[f"oracle.{family}_s"] = (inclusive(f"oracle.{fn}"), "s")
    results = [r for r in tracer.oracle_results if first[r[0]]]
    m["oracle.evaluations"] = (sum(r[2] for r in results), "count")
    for family, fn in ORACLES.items():
        fam = sum(r[2] for r in results if r[1] == fn)
        m[f"oracle.{family}.evaluations"] = (fam, "count")
    iters = sum(len(r[3]) - 1 for r in results)
    improved = sum(int(np.count_nonzero(np.diff(r[3]) < 0)) for r in results)
    m["oracle.refine_iters"] = (iters, "count")
    m["oracle.improve_ratio"] = (improved / iters if iters else 0.0, "ratio")
    margins = [op.info["margin_bits"] for op in cycle if "margin_bits" in op.info]
    m["oracle.margin_bits"] = (min(margins) if margins else VERIFY_TOL_BITS, "bits")

    for short, fn in (("measure", "nonmarkovianity_measure"), ("frozen", "detect_frozen_intervals"),
                      ("switching", "detect_switching_times"),
                      ("death_revival", "detect_death_revival")):
        m[f"nonmarkov.{short}_s"] = (inclusive(f"nonmarkov.{fn}"), "s")

    traced_seconds = [sum(r.seconds for r in recs) for _, recs, _ in traced]
    walls = [w for _, _, w in traced]
    ratios = [a / b for a, b in zip(traced_seconds, untraced_seconds)]
    m["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    m["trace.accounted_frac"] = (float(t["self"].sum()) / sum(walls), "ratio")
    m["trace.wall_s"] = (statistics.median(walls), "s")
    m["trace.spans"] = (count(first), "count")
    m["trace.rows"] = (rows, "count")
    m["bench.known_defects"] = (sum(r.error is not None for r in probes), "count")
    return m


# ---------------------------------------------------------------------------
# a whole run

def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        quick: bool = False, out: Path | None = None) -> dict:
    """One benchmark run on the checkout at `root`; scratch files and spans go
    under `out` (default `root/.bench_out`)."""
    out = out if out is not None else root / ".bench_out"
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    cycle = build_cycle(workload, seed, work, quick)

    # warm-up: first calls, lazy imports and the bytecode cache are not timed
    run_cycle(build_cycle(workload, seed, work, quick=True))
    probes, _ = run_cycle(defect_probes(work))
    setup: list[float] = []
    if not trace:
        setup_sample(root)

    cycles: list = []
    refs: list[float] = []
    traced: list = []
    tracer = Tracer() if trace else None
    probe = SpeedProbe()
    durations: list[float] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace:
            recs, _ = run_cycle(cycle)
        else:
            drawn = build_cycle(workload, seed, work, quick, index=len(cycles))
            seconds0, pieces0 = probe.seconds, probe.pieces
            with probe:
                recs, _ = run_cycle(drawn, probe=probe)
            if probe.pieces == pieces0:  # a cycle shorter than REF_INTERVAL_S
                probe.sample()
            refs.append((probe.seconds - seconds0) / (probe.pieces - pieces0))
        cycles.append(recs)
        if tracer is not None:
            base = len(traced) * len(cycle)
            recs, wall = traced_cycle(cycle, tracer, base)
            traced.append((base, recs, wall))
        else:
            # set-up samples are spread over the run, in step with its clock
            elapsed = (time.perf_counter() - t_start) / seconds if seconds > 0 else 1.0
            while len(setup) < min(SETUP_SAMPLES, int(SETUP_SAMPLES * elapsed)):
                setup.append(setup_sample(root))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) > t_start + seconds:
            break
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(root))

    shutil.rmtree(work)
    records = [r for recs in cycles for r in recs] + [r for _, recs, _ in traced for r in recs]
    if trace:
        metrics = per_layer(tracer, cycle, traced,
                            [sum(r.seconds for r in recs) for recs in cycles], probes)
        tracer.save(out / f"spans_{workload}.npz")
        raw = {}
    else:
        metrics = end_to_end(cycles, refs, setup)
        raw = raw_seconds(cycles, refs)
    return {
        "correct": all(r.error is None for r in records),
        "attempted": len(records),
        "failed": sum(r.error is not None for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "cycles": len(cycles),
        "ops_per_cycle": len(cycle),
        "errors": sorted({f"{r.kind}: {r.error}" for r in records if r.error is not None}),
        "known_defects": [f"{r.known_defect}: {r.error}" if r.error else f"{r.known_defect}: fixed"
                          for r in probes],
    }
