"""The three workloads as cycles of operations, and their output checks.

An operation is either a CLI command run in-process through
`belldyn.cli.main(argv)` or a public library call. Each carries what its
correct result looks like; the checks compare against `reference`, never
against belldyn itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import reference as ref

WORKLOADS = ("figures", "certify", "sweep")

FIG_LAM0 = np.array([0.9, 0.1, 0.0, 0.0])
TOL_BITS = 1e-9
#: refined death boundaries sit where E first exceeds 1e-12, about 1e-6 from
#: the exact root because E grows quadratically there
DEATH_TOL = 1e-5
CERTIFY_STATES_PER_COMMAND = 4
CERTIFY_COMMANDS = 8
#: a pure Bell state crashes quantifier_report when a grid point lies within
#: about 2.5e-3 of a multiple of pi/2 (but not on it); see defect_probes
PURE_CLEARANCE = 0.01


@dataclass
class Op:
    """One operation of a cycle.

    `argv` ops run through the CLI; `call` ops receive the run context and
    the belldyn package. `check(op, text, value, ctx)` returns an error
    message or None, and may store facts in `ctx` or `op.info`. Only the
    defect probes set `known_defect`, the defect they exercise.
    """

    kind: str
    argv: list | None = None
    call: Callable | None = None
    expect_exit: int = 0
    check: Callable | None = None
    output: Path | None = None
    rows: int = 0
    states: int = 0
    known_defect: str | None = None
    spec: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# parsing and shared checks

def parse_table(text: str, fmt: str) -> dict:
    if fmt == "json":
        data = json.loads(text)
        return {k: np.asarray(v, dtype=float) for k, v in data.items()}
    lines = text.rstrip("\n").split("\n")
    names = lines[0].split(",")
    body = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if body.ndim != 2 or body.shape[1] != len(names):
        raise ValueError("ragged CSV table")
    return {name: body[:, k] for k, name in enumerate(names)}


def _compare(got: dict, want: dict, tol: float = TOL_BITS):
    if list(got) != list(want):
        return f"columns {list(got)} != {list(want)}"
    for name, w in want.items():
        g = got[name]
        if g.shape != w.shape:
            return f"{name}: {g.size} rows, expected {w.size}"
        if not np.all(np.isfinite(g)):
            return f"{name}: non-finite values"
        err = float(np.max(np.abs(g - w))) if g.size else 0.0
        if err > tol:
            return f"{name}: max deviation {err:.3e} from the closed form"
    return None


def check_trajectory(op: Op, text: str, value, ctx) -> str | None:
    s = op.spec
    cols = parse_table(text, s["format"])
    grid = np.linspace(0.0, s["tau_max"], s["steps"] + 1)
    want = ref.trajectory(s["lam0"], grid, s["g"])
    if s.get("ancilla"):
        want["E_anc"], want["I_E"] = ref.ancilla(grid, "rhp")
    if s.get("store"):
        # the detectors take the exact grid: the 12-digit tau column is not
        # uniform to their 1e-9 relative tolerance
        ctx["grid"], ctx["trajectory"] = grid, cols
    err = _compare(cols, want)
    if err:
        return err
    if np.max(np.abs(cols["T"] - cols["D"] - cols["C"])) > TOL_BITS:
        return "T != D + C"
    if np.any(cols["E"] > cols["D"] + TOL_BITS):
        return "E > D"
    if s.get("anchors"):
        return _figure_anchors(cols, s["steps"])
    return None


def _figure_anchors(cols, steps) -> str | None:
    first = {k: float(cols[k][0]) for k in ("T", "D", "C", "E")}
    for k, v in {"T": 1.5310, "D": 0.5310, "C": 1.0, "E": 0.5310}.items():
        if abs(first[k] - v) > 1e-3:
            return f"tau=0 anchor {k}={first[k]!r}, expected {v}"
    for k in (steps // 4, 3 * steps // 4):
        if abs(cols["D"][k]) > TOL_BITS:
            return f"D={cols['D'][k]!r} at tau={cols['tau'][k]!r}, expected 0"
    if "I_E" in cols and np.any(np.diff(cols["I_E"]) < 0):
        return "I_E decreases"
    return None


def check_nonmarkov(op: Op, text: str, value, ctx) -> str | None:
    s = op.spec
    cols = parse_table(text, s["format"])
    grid = np.linspace(0.0, s["tau_max"], s["steps"] + 1)
    e, i_e = ref.ancilla(grid, s["convention"])
    err = _compare(cols, {"tau": grid, "E_anc": e, "I_E": i_e})
    if err:
        return err
    if cols["I_E"][0] != 0.0 or np.any(np.diff(cols["I_E"]) < 0):
        return "I_E is not non-decreasing from 0"
    return None


def check_composition(op: Op, text: str, value, ctx) -> str | None:
    s = op.spec
    got = json.loads(text)
    lam0 = s["lam0"]
    direct = ref.spectra(lam0, np.array([s["tau2"]]))[0]
    mid = ref.spectra(lam0, np.array([s["tau1"]]))[0]
    restarted = ref.spectra(mid, np.array([s["tau2"] - s["tau1"]]))[0]
    want = {"tau1": s["tau1"], "tau2": s["tau2"], "initial": lam0, "direct": direct,
            "restarted": restarted,
            "trace_distance": 0.5 * float(np.sum(np.abs(direct - restarted)))}
    if list(got) != list(want):
        return f"keys {list(got)} != {list(want)}"
    for key, w in want.items():
        if np.max(np.abs(np.asarray(got[key], dtype=float) - w)) > TOL_BITS:
            return f"{key} deviates from the closed form"
    return None


# ---------------------------------------------------------------------------
# figures: the paper-reproduction path

def _detector_check(kind):
    def check(op: Op, text, value, ctx) -> str | None:
        grid = ctx["grid"]
        step = float(grid[1] - grid[0])
        switching, deaths = ref.figure_events()
        ts, h = ref.TAU_SWITCH, math.pi / 2.0
        if kind == "frozen_D":
            want, tol = [(0.0, ts), (h - ts, h + ts), (math.pi - ts, math.pi)], 2 * step
            found = [iv for iv in value if any(_close(iv, w, tol) for w in want)]
            return None if len(found) == 3 else f"D frozen intervals {value} miss {want}"
        if kind == "frozen_C":
            want = [(ts, h - ts), (h + ts, math.pi - ts)]
            ok = len(value) == 2 and all(_close(v, w, 2 * step) for v, w in zip(value, want))
            return None if ok else f"C frozen intervals {value}, expected {want}"
        if kind == "switching":
            ok = len(value) == 4 and all(abs(v - w) < 1e-8 for v, w in zip(value, switching))
            return None if ok else f"switching times {value}, expected {switching}"
        ok = len(value) == 2 and all(_close(v, w, DEATH_TOL) for v, w in zip(value, deaths))
        return None if ok else f"death windows {value}, expected {deaths}"

    return check


def _close(iv, want, tol) -> bool:
    return abs(iv[0] - want[0]) <= tol and abs(iv[1] - want[1]) <= tol


def figures_cycle(seed: int, work: Path, quick: bool = False) -> list[Op]:
    """figure2 and figure3 at their defaults, then the three detectors on the
    figure3 trajectory. The paper's presets are fixed, so the seed is unused."""
    steps = 200 if quick else 2000
    extra = ["--steps", str(steps)] if quick else []
    ops = []
    for name in ("figure2", "figure3"):
        out = work / f"{name}.csv"
        ops.append(Op(
            kind=name, argv=[name, "--output", str(out)] + extra, output=out,
            check=check_trajectory, rows=steps + 1,
            spec={"lam0": FIG_LAM0, "tau_max": math.pi, "steps": steps, "g": 1.0,
                  "format": "csv", "anchors": True, "ancilla": name == "figure3",
                  "store": name == "figure3"},
        ))

    def frozen(column):
        return lambda ctx, bd: bd.nonmarkov.detect_frozen_intervals(
            ctx["grid"], ctx["trajectory"][column])

    def switching(ctx, bd):
        return bd.nonmarkov.detect_switching_times(FIG_LAM0, math.pi)

    def death_revival(ctx, bd):
        def e_of_tau(tau):
            lam = bd.dynamics.evolve_bell_spectrum(FIG_LAM0, tau)
            return bd.correlations.quantifier_report(bd.dynamics.bell_spectrum_to_density(lam)).E

        return bd.nonmarkov.detect_death_revival(ctx["grid"], ctx["trajectory"]["E"],
                                                 refine=e_of_tau)

    for kind, call in (("frozen_D", frozen("D")), ("frozen_C", frozen("C")),
                       ("switching", switching), ("death_revival", death_revival)):
        ops.append(Op(kind=kind, call=call, check=_detector_check(kind)))
    return ops


# ---------------------------------------------------------------------------
# certify: oracle certification

def check_verify(op: Op, text: str, value, ctx) -> str | None:
    from belldyn.cli import VERIFY_TOL_BITS

    got = json.loads(text)
    if got.get("passed") is not True:
        return "verify did not pass"
    if got["n"] != op.states or got["seed"] != op.spec["seed"]:
        return f"report is for n={got['n']} seed={got['seed']}"
    worst = 0.0
    closed = {"classical": "D", "separable": "E", "product": "T"}
    for family, q in closed.items():
        fam = got["families"][family]
        gap = fam["max_discrepancy_bits"]
        if not gap < VERIFY_TOL_BITS:
            return f"{family} discrepancy {gap!r} bits is not below {VERIFY_TOL_BITS}"
        if abs(abs(fam["oracle_bits"] - fam["analytic_bits"]) - gap) > 1e-12:
            return f"{family}: discrepancy does not match its values"
        want = float(ref.quantifiers(np.asarray(fam["worst_state"]))[q])
        if abs(fam["analytic_bits"] - want) > TOL_BITS:
            return f"{family}: analytic {fam['analytic_bits']!r} bits, closed form {want!r}"
        worst = max(worst, gap)
    op.info["margin_bits"] = VERIFY_TOL_BITS - worst
    return None


def certify_cycle(seed: int, work: Path, quick: bool = False) -> list[Op]:
    """`verify --n 4 --seed S` for 8 seeded values of S: 32 random states."""
    rng = np.random.default_rng(seed)
    n_cmd, n_states = (1, 1) if quick else (CERTIFY_COMMANDS, CERTIFY_STATES_PER_COMMAND)
    ops = []
    for s in rng.integers(0, 2**31 - 1, size=n_cmd):
        s = int(s)
        ops.append(Op(kind="verify", argv=["verify", "--n", str(n_states), "--seed", str(s)],
                      check=check_verify, states=n_states, spec={"seed": s}))
    return ops


# ---------------------------------------------------------------------------
# sweep: many short, varied commands

STATE_KINDS = ("dirichlet", "pure", "separable", "ties", "matrix", "bell_json")


def _spectrum(rng, kind) -> np.ndarray:
    if kind == "pure":
        return np.eye(4)[rng.integers(4)]
    if kind == "separable":
        while True:
            lam = rng.dirichlet(np.ones(4))
            if lam.max() <= 0.5:
                return lam
    if kind == "ties":
        pattern = rng.integers(3)
        if pattern == 0:
            a = rng.uniform(0.0, 0.5)
            return rng.permutation([a, a, 0.5 - a, 0.5 - a])
        if pattern == 1:
            return np.full(4, 0.25)
        a = rng.uniform(0.0, 1.0 / 3.0)
        return rng.permutation([a, a, a, 1.0 - 3.0 * a])
    return rng.dirichlet(np.ones(4))


def _initial_arg(kind, lam) -> str:
    if kind == "matrix":
        return json.dumps({"matrix": ref.bell_matrix(lam)})
    if kind == "bell_json":
        return json.dumps({"bell": [float(x) for x in lam]})
    return ",".join(repr(float(x)) for x in lam)


def _output_args(rng, work: Path, tag: str, fmt: str):
    if rng.random() < 0.5:
        return [], None
    out = work / f"{tag}.{fmt}"
    return ["--output", str(out)], out


def _clear_of_pure_defect(tau_max: float, steps: int) -> bool:
    """No grid point but tau = 0 lies within PURE_CLEARANCE of a multiple of pi/2."""
    tau = np.arange(1, steps + 1) * (tau_max / steps)
    off = np.abs(tau - np.round(tau / (math.pi / 2.0)) * (math.pi / 2.0))
    return bool(np.all(off >= PURE_CLEARANCE))


def sweep_cycle(seed: int, work: Path, quick: bool = False) -> list[Op]:
    """Evolve commands with every step count 2..40 three times, nonmarkov in
    both conventions, composition and inputs that must exit 2 or 3; shuffled
    by the seed. No operation fails at the benchmark's base commit: the known
    defects are exercised by `defect_probes` instead."""
    rng = np.random.default_rng(seed)
    steps_all = list(range(2, 6)) if quick else list(range(2, 41)) * 3
    n_side = 2 if quick else 12
    ops: list[Op] = []

    for i, steps in enumerate(rng.permutation(steps_all)):
        steps = int(steps)
        kind = STATE_KINDS[rng.integers(len(STATE_KINDS))]
        lam = _spectrum(rng, kind)
        fmt = "json" if rng.random() < 0.5 else "csv"
        g = float(rng.choice([0.5, 2.0, 3.7])) if rng.random() < 0.3 else 1.0
        tau_max = float(rng.uniform(0.1, 2.0 * math.pi))
        while kind == "pure" and not _clear_of_pure_defect(tau_max, steps):
            tau_max = float(rng.uniform(0.1, 2.0 * math.pi))
        out_args, out = _output_args(rng, work, f"evolve{i}", fmt)
        argv = ["evolve", "--initial", _initial_arg(kind, lam), "--steps", str(steps),
                "--tau-max", repr(tau_max), "--format", fmt] + out_args
        if g != 1.0:
            argv += ["--g", repr(g)]
        ops.append(Op(kind="evolve", argv=argv, output=out, check=check_trajectory,
                      rows=steps + 1,
                      spec={"lam0": lam / lam.sum(), "tau_max": tau_max, "steps": steps,
                            "g": g, "format": fmt, "state": kind}))

    for i in range(n_side):
        convention = ("rhp", "literal")[i % 2]
        steps = int(rng.integers(2, 41))
        tau_max = float(rng.uniform(0.1, 2.0 * math.pi))
        fmt = "json" if rng.random() < 0.5 else "csv"
        out_args, out = _output_args(rng, work, f"nonmarkov{i}", fmt)
        ops.append(Op(
            kind="nonmarkov", output=out, check=check_nonmarkov,
            argv=["nonmarkov", "--convention", convention, "--steps", str(steps),
                  "--tau-max", repr(tau_max), "--format", fmt] + out_args,
            spec={"convention": convention, "steps": steps, "tau_max": tau_max,
                  "format": fmt},
        ))

    for i in range(n_side):
        lam = _spectrum(rng, STATE_KINDS[rng.integers(4)])
        tau1 = float(rng.uniform(0.0, 1.5))
        tau2 = tau1 + float(rng.uniform(0.05, 1.5))
        ops.append(Op(
            kind="composition", check=check_composition,
            argv=["composition", repr(tau1), repr(tau2), "--initial",
                  ",".join(repr(float(x)) for x in lam)],
            spec={"lam0": lam / lam.sum(), "tau1": tau1, "tau2": tau2},
        ))

    not_bell_diagonal = [[[1.0 if (r, c) == (0, 0) else 0.0, 0.0] for c in range(4)]
                         for r in range(4)]
    invalid = [
        (["evolve", "--initial", "0.9,0.2,0,0"], 2),
        (["evolve", "--steps", "1"], 2),
        (["evolve", "--g", "-1", "--steps", "10"], 2),
        (["evolve", "--format", "xml"], 2),
        (["evolve", "--initial", str(work / "no_such_state.json")], 2),
        (["evolve", "--initial", '{"bell": [0.5, 0.5]}'], 2),
        (["evolve", "--initial", json.dumps({"matrix": not_bell_diagonal})], 3),
        (["composition", "1.0", "0.5"], 2),
        (["nonmarkov", "--tau-max", "-1"], 2),
    ]
    for argv, code in invalid:
        ops.append(Op(kind="invalid", argv=argv, expect_exit=code))

    return [ops[k] for k in rng.permutation(len(ops))]


def defect_probes(work: Path) -> list[Op]:
    """One command for each known defect of the program (ROADMAP item 5).
    Each run executes them once, untimed; `failed` and `correct` leave them
    out, and the number that still fail is reported on its own."""
    # a grid point 1e-4 past pi/2: closest_separable_spectrum's rescaling of
    # a near-pure state breaks the 1e-12 sum check of validate_spectrum
    tau_max = math.pi + 2e-4
    pure = Op(kind="probe", check=check_trajectory, rows=3,
              argv=["evolve", "--initial", "1,0,0,0", "--steps", "2", "--tau-max", repr(tau_max)],
              known_defect="pure Bell state near tau = k*pi/2 raises ValueError",
              spec={"lam0": np.array([1.0, 0.0, 0.0, 0.0]), "tau_max": tau_max, "steps": 2,
                    "g": 1.0, "format": "csv"})
    probes = [
        (["evolve", "--g", "nan", "--steps", "20"], "--g nan exits 0 with a NaN t column"),
        (["evolve", "--tau-max", "inf", "--steps", "20"], "--tau-max inf raises LinAlgError"),
        (["evolve", "--initial", '{"bell": ["a", 0, 0, 0]}'], "non-numeric bell raises ValueError"),
        (["evolve", "--steps", "20", "--output", str(work / "no_such_dir" / "out.csv")],
         "unwritable --output raises FileNotFoundError"),
    ]
    return [pure] + [Op(kind="probe", argv=argv, expect_exit=2, known_defect=why)
                     for argv, why in probes]


CYCLES = {"figures": figures_cycle, "certify": certify_cycle, "sweep": sweep_cycle}


def build_cycle(workload: str, seed: int, work: Path, quick: bool = False,
                index: int = 0) -> list[Op]:
    """Cycle `index` of a run with `seed`: cycle 0 draws from the seed alone,
    cycle k > 0 from (seed, k), so a run averages over many drawn inputs."""
    return CYCLES[workload]([seed, index] if index else seed, work, quick)
