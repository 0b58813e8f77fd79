"""Tests of the benchmark itself, on shortened cycles of each workload.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from bdbench import harness, workloads  # noqa: E402
from bdbench.tracer import Tracer, public_functions  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "bytes")


def traced_metrics(workload, seed, tmp_path):
    result = harness.run(workload, seed, 0.0, True, ROOT, quick=True, out=tmp_path)
    return result, {k: m["value"] for k, m in result["metrics"].items()}


def reached_public_functions(cycle):
    """'layer.name' of every public module-level belldyn function the cycle
    calls, found with a profiler rather than the tracer."""
    modules = {mod.__name__: mod for mod in harness.MODULES}
    seen = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        mod = modules.get(frame.f_globals.get("__name__"))
        name = frame.f_code.co_name
        fn = getattr(mod, name, None) if mod is not None else None
        if not name.startswith("_") and getattr(fn, "__code__", None) is frame.f_code:
            seen.add(f"{mod.__name__.split('.')[1]}.{name}")

    sys.setprofile(profile)
    try:
        harness.run_cycle(cycle)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_reached_public_function_is_wrapped(workload, tmp_path):
    cycle = workloads.build_cycle(workload, 3, tmp_path, quick=True)
    reached = reached_public_functions(cycle)
    assert reached
    tracer = Tracer()
    harness.traced_cycle(cycle, tracer, 0)
    spanned = {tracer.names[k] for k in set(tracer.arrays()["name"].tolist())}
    assert reached <= spanned, sorted(reached - spanned)


def test_wrappers_cover_every_binding_and_are_restored(tmp_path):
    bindings = public_functions(harness.MODULES)
    # the `from .x import y` copies are wrapped where they are bound
    bound = {(mod.__name__, name) for mod, name, _ in bindings}
    assert {("belldyn.cli", "quantifier_report"), ("belldyn.correlations", "check_density"),
            ("belldyn.oracle", "dephase_in_basis"), ("belldyn.nonmarkov", "trace_distance"),
            ("belldyn", "detect_death_revival")} <= bound
    tracer = Tracer()
    assert tracer.install(harness.MODULES) == len(bindings)
    assert all(getattr(getattr(mod, name), "bench_traced", False) for mod, name, _ in bindings)
    tracer.restore()
    assert all(getattr(mod, name) is fn for mod, name, fn in bindings)


def test_restore_detects_a_leaked_wrapper():
    import belldyn.dynamics

    tracer = Tracer()
    tracer.install(harness.MODULES)
    leaked = belldyn.dynamics.mixing_fraction
    try:
        belldyn.dynamics.leaked_copy = leaked
        with pytest.raises(RuntimeError, match="not restored"):
            tracer.restore()
    finally:
        del belldyn.dynamics.leaked_copy


def test_layer_counts_separate_the_workloads(tmp_path):
    _, figures = traced_metrics("figures", 0, tmp_path)
    assert figures["oracle.calls"] == 0
    assert figures["correlations.quantifier_report.calls"] > 0
    assert figures["linalg.check_density.per_point"] == 11
    assert figures["linalg.von_neumann_entropy.per_point"] == 5
    _, certify = traced_metrics("certify", 0, tmp_path)
    assert certify["correlations.quantifier_report.calls"] == 0
    assert certify["oracle.calls"] == 3
    assert certify["oracle.evaluations"] == (certify["oracle.classical.evaluations"]
                                             + certify["oracle.separable.evaluations"]
                                             + certify["oracle.product.evaluations"])


def test_same_seed_same_commands_and_counts(tmp_path):
    a = workloads.build_cycle("sweep", 11, tmp_path, quick=False)
    b = workloads.build_cycle("sweep", 11, tmp_path, quick=False)
    c = workloads.build_cycle("sweep", 12, tmp_path, quick=False)
    d = workloads.build_cycle("sweep", 11, tmp_path, quick=False, index=1)
    assert [op.argv for op in a] == [op.argv for op in b]
    assert [op.argv for op in a] != [op.argv for op in c]
    assert [op.argv for op in a] != [op.argv for op in d]
    assert len(a) >= 100
    counts = []
    for _ in range(2):
        result, metrics = traced_metrics("sweep", 11, tmp_path)
        counts.append({k: v for k, v in metrics.items()
                       if result["metrics"][k]["unit"] in COUNT_UNITS})
    assert counts[0] == counts[1]


def test_planted_wrong_t_fails_the_check(tmp_path):
    op = workloads.build_cycle("figures", 0, tmp_path, quick=True)[0]
    code, *_ = harness.execute(op, {})
    assert code == 0
    text = op.output.read_text(encoding="utf-8")
    assert workloads.check_trajectory(op, text, None, {}) is None
    lines = text.split("\n")
    header = lines[0].split(",")
    row = lines[7].split(",")
    row[header.index("T")] = repr(float(row[header.index("T")]) + 1e-6)
    lines[7] = ",".join(row)
    error = workloads.check_trajectory(op, "\n".join(lines), None, {})
    assert error is not None and error.startswith("T:")


def test_no_workload_operation_fails(tmp_path):
    for workload in workloads.WORKLOADS:
        records, _ = harness.run_cycle(workloads.build_cycle(workload, 0, tmp_path, quick=True))
        assert [r.error for r in records if r.error] == [], workload
    # full sweeps, so that pure Bell states with many grids are included
    for seed in (4, 5):
        cycle = workloads.build_cycle("sweep", seed, tmp_path)
        assert any(op.spec.get("state") == "pure" for op in cycle)
        records, _ = harness.run_cycle(cycle)
        assert [r.error for r in records if r.error] == [], seed


def test_defect_probes_reproduce_the_known_defects(tmp_path):
    records, _ = harness.run_cycle(workloads.defect_probes(tmp_path))
    assert len(records) == 5
    errors = {r.known_defect: r.error for r in records}
    assert all(errors.values()), errors
    assert "Bell spectrum sums to" in errors["pure Bell state near tau = k*pi/2 raises ValueError"]


def test_speed_probe_samples_inside_operations_and_restores_the_handler(tmp_path):
    import signal

    before = signal.getsignal(signal.SIGALRM)
    cycle = workloads.build_cycle("figures", 0, tmp_path, quick=True)
    probe = harness.SpeedProbe()
    with probe:
        records, wall = harness.run_cycle(cycle, probe=probe)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.pieces > 0
    # operation times leave the pieces out
    assert sum(r.seconds for r in records) + probe.seconds <= wall


def test_reported_metrics_match_the_spec(tmp_path):
    untraced = harness.run("sweep", 1, 0.0, False, ROOT, quick=True, out=tmp_path)
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert untraced["correct"] and untraced["attempted"] >= 1
    for name, m in untraced["metrics"].items():
        assert m["value"] > 0, name
    traced, _ = traced_metrics("figures", 1, tmp_path)
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in (untraced, traced):
        assert all(units[k] == m["unit"] for k, m in result["metrics"].items())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "figures", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
