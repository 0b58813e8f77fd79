"""Command-line front end: trajectories, figure pipelines, oracle
certification and non-Markovianity diagnostics, emitting CSV or JSON.

Exit codes: 0 ok, 2 bad input, 3 unsupported analytic path (initial state
not Bell-diagonal), 4 certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .correlations import bell_quantifiers, c_vector_of_spectrum
from .dynamics import (
    BELL_RESIDUAL_TOL,
    bell_spectrum_of,
    bell_spectrum_to_density,
    evolve_bell_spectrum,
    mixing_fraction,
    validate_spectrum,
)
from .linalg import check_density
from .nonmarkov import _composition, nonmarkovianity_measure
from .oracle import (
    oracle_closest_classical_batch,
    oracle_closest_product_batch,
    oracle_closest_separable_bd_batch,
)

DEFAULT_INITIAL = "0.9,0.1,0,0"
VERIFY_TOL_BITS = 1e-3
# states certified per lockstep batch, so memory does not grow with --n
_VERIFY_CHUNK = 32

#: CLI names for the accumulation conventions of the non-Markovianity
#: quantifier; "rhp" selects increase counting.
CONVENTION_BY_FLAG = {"rhp": "increase_counting", "literal": "literal"}


class InputError(Exception):
    """Invalid configuration or unreadable input (exit code 2)."""


class AnalyticPathError(Exception):
    """Initial state outside the Bell-diagonal fast path (exit code 3)."""


@dataclass(frozen=True)
class RunConfig:
    g: float = 1.0
    tau_max: float = math.pi
    steps: int = 2000
    convention: str = "increase_counting"
    output: str = "-"
    format: str = "csv"
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 < self.g < math.inf:
            raise InputError("--g must be positive and finite")
        if not 0.0 < self.tau_max < math.inf:
            raise InputError("--tau-max must be positive and finite")
        if self.steps < 2:
            raise InputError("--steps must be at least 2")
        if self.format not in ("csv", "json"):
            raise InputError("--format must be csv or json")
        if self.seed < 0:
            raise InputError("--seed must be non-negative")

    def grid(self) -> np.ndarray:
        # steps counts intervals, so the grid has steps+1 points and the
        # defaults land exactly on tau = pi/4, pi/2, ...
        return np.linspace(0.0, self.tau_max, self.steps + 1)


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        g=args.g,
        tau_max=args.tau_max,
        steps=args.steps,
        convention=CONVENTION_BY_FLAG[args.convention],
        output=args.output,
        format=args.format,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# initial-state parsing

def _initial_from_dict(obj):
    if not isinstance(obj, dict):
        raise InputError("initial-state JSON must be an object")
    if "bell" in obj:
        vals = obj["bell"]
        if not isinstance(vals, (list, tuple)) or len(vals) != 4:
            raise InputError('"bell" must be a list of 4 coefficients')
        try:
            vals = [float(v) for v in vals]
        except (TypeError, ValueError) as exc:
            raise InputError(f'bad "bell" entry: {exc}') from exc
        return _normalized_spectrum(vals)
    if "matrix" in obj:
        rows = obj["matrix"]
        try:
            m = np.array(
                [[complex(re, im) for re, im in row] for row in rows], dtype=complex
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f'bad "matrix" entry: {exc}') from exc
        if m.shape != (4, 4):
            raise InputError('"matrix" must be 4x4 with [re, im] entries')
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= 1e-9:  # NaN fails too
            raise InputError(f"initial matrix trace is {tr!r}, expected 1")
        m = m / np.trace(m)
        try:
            return check_density(m, name="initial state")
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    raise InputError('initial-state JSON needs a "bell" or "matrix" key')


def _normalized_spectrum(vals):
    a = np.asarray(vals, dtype=float)
    # checked before summing, so huge entries cannot overflow the sum
    if not np.all((a >= -1e-9) & (a <= 1.0 + 1e-9)):
        raise InputError(f"initial spectrum entries must lie in [0, 1], got {vals!r}")
    total = float(a.sum())
    if abs(total - 1.0) > 1e-9:
        raise InputError(f"initial spectrum sums to {total!r}, expected 1")
    try:
        return validate_spectrum(a / total)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def load_initial(arg: str | None):
    """Parse --initial: a JSON file path, an inline JSON object, or four
    comma-separated Bell coefficients. Returns a spectrum (4,) or a 4x4
    density matrix."""
    text = (arg if arg is not None else DEFAULT_INITIAL).strip()
    if text.startswith("{"):
        try:
            return _initial_from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise InputError(f"bad initial-state JSON: {exc}") from exc
    if os.path.exists(text):
        try:
            with open(text, encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read initial-state file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"bad initial-state file {text}: {exc}") from exc
        return _initial_from_dict(obj)
    if "," in text:
        try:
            vals = [float(x) for x in text.split(",")]
        except ValueError as exc:
            raise InputError(f"bad inline spectrum {text!r}: {exc}") from exc
        if len(vals) != 4:
            raise InputError("inline spectrum needs 4 comma-separated values")
        return _normalized_spectrum(vals)
    raise InputError(f"initial-state file not found: {text}")


def _spectrum_of_initial(initial) -> np.ndarray:
    if initial.ndim == 1:
        return initial
    lam, residual = bell_spectrum_of(initial)
    if residual >= BELL_RESIDUAL_TOL:
        raise AnalyticPathError(
            f"initial state is not Bell-diagonal (residual {residual:.3e}); "
            "this pipeline is analytic-only"
        )
    lam = np.clip(lam, 0.0, None)
    return validate_spectrum(lam / lam.sum())


# ---------------------------------------------------------------------------
# output

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from exc


def _write_table(columns: dict, cfg: RunConfig) -> None:
    """Write equal-length columns (arrays or lists) as CSV or JSON."""
    names = list(columns)
    values = [np.asarray(v, dtype=float).tolist() for v in columns.values()]
    if cfg.format == "csv":
        lines = [",".join(names)]
        lines.extend(",".join(map(_fmt, row)) for row in zip(*values))
        _write_text(cfg.output, "\n".join(lines) + "\n")
    else:
        data = {name: [float(_fmt(v)) for v in vals] for name, vals in zip(names, values)}
        _write_text(cfg.output, json.dumps(data) + "\n")


# ---------------------------------------------------------------------------
# commands

def _trajectory_columns(lam0: np.ndarray, cfg: RunConfig) -> dict:
    grid = cfg.grid()
    lam = evolve_bell_spectrum(lam0, grid)
    cols: dict = {"tau": grid}
    if cfg.g != 1.0:
        cols["t"] = grid / cfg.g
    cols["f"] = mixing_fraction(grid)
    cols.update(zip(("lambda_1p", "lambda_1m", "lambda_2p", "lambda_2m"), lam.T))
    cols.update(zip(("c1", "c2", "c3"), c_vector_of_spectrum(lam).T))
    cols.update(zip(("T", "D", "C", "E"), bell_quantifiers(lam)))
    return cols


def cmd_trajectory(args) -> int:
    """evolve, figure2 and figure3: the spectrum and T, D, C, E on the tau
    grid, plus the ancilla columns E_anc and I_E when args.ancilla is set."""
    cfg = _config_from_args(args)
    lam0 = _spectrum_of_initial(load_initial(args.initial))
    cols = _trajectory_columns(lam0, cfg)
    if args.ancilla:
        trace = nonmarkovianity_measure(cfg.grid(), cfg.convention)
        cols["E_anc"] = trace.e_anc
        cols["I_E"] = trace.i_e
    _write_table(cols, cfg)
    return 0


def cmd_nonmarkov(args) -> int:
    cfg = _config_from_args(args)
    trace = nonmarkovianity_measure(cfg.grid(), cfg.convention)
    cols = {"tau": trace.tau_grid, "E_anc": trace.e_anc, "I_E": trace.i_e}
    _write_table(cols, cfg)
    return 0


def cmd_composition(args) -> int:
    cfg = _config_from_args(args)
    if not 0.0 <= args.tau1 < args.tau2 < math.inf:
        raise InputError("need 0 <= tau1 < tau2, both finite")
    lam0 = _spectrum_of_initial(load_initial(args.initial))
    direct, restarted, dist = _composition(lam0, args.tau1, args.tau2)
    report = {
        "tau1": args.tau1,
        "tau2": args.tau2,
        "initial": [float(_fmt(v)) for v in lam0],
        "direct": [float(_fmt(v)) for v in direct],
        "restarted": [float(_fmt(v)) for v in restarted],
        "trace_distance": float(_fmt(dist)),
    }
    _write_text(cfg.output, json.dumps(report) + "\n")
    return 0


def _verify_chunks(args, cfg):
    # the states to certify, drawn one chunk at a time
    if args.initial is not None:
        yield [_spectrum_of_initial(load_initial(args.initial))]
        return
    if args.n < 1:
        raise InputError("--n must be at least 1")
    rng = np.random.default_rng(cfg.seed)
    for first in range(0, args.n, _VERIFY_CHUNK):
        size = min(_VERIFY_CHUNK, args.n - first)
        yield [validate_spectrum(rng.dirichlet(np.ones(4))) for _ in range(size)]


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    families = {
        name: {"max_discrepancy_bits": 0.0, "analytic_bits": 0.0,
               "oracle_bits": 0.0, "worst_state": None}
        for name in ("classical", "separable", "product")
    }
    n = 0
    for states in _verify_chunks(args, cfg):
        rhos = [bell_spectrum_to_density(lam) for lam in states]
        # the analytic side is the kernel the trajectory commands print: each
        # family's closest-state distance is D, E or T
        t, d, _, e = bell_quantifiers(np.array(states))
        checks = {
            "classical": (d, oracle_closest_classical_batch(rhos, seed=cfg.seed)),
            "separable": (e, oracle_closest_separable_bd_batch(states)),
            "product": (t, oracle_closest_product_batch(rhos)),
        }
        for name, (analytic, found) in checks.items():
            for lam, value, res in zip(states, analytic, found):
                gap = abs(res.value - float(value))
                if gap >= families[name]["max_discrepancy_bits"]:
                    families[name].update(max_discrepancy_bits=gap, analytic_bits=float(value),
                                          oracle_bits=res.value,
                                          worst_state=[float(v) for v in lam])
        n += len(states)

    passed = all(f["max_discrepancy_bits"] < VERIFY_TOL_BITS for f in families.values())
    report = {
        "n": n,
        "seed": cfg.seed,
        "tolerance_bits": VERIFY_TOL_BITS,
        "families": families,
        "passed": passed,
    }
    _write_text(cfg.output, json.dumps(report) + "\n")
    if not passed:
        for name, fam in families.items():
            if fam["max_discrepancy_bits"] >= VERIFY_TOL_BITS:
                print(
                    f"certification failed for the {name} family: "
                    f"discrepancy {fam['max_discrepancy_bits']:.3e} bits "
                    f"on state {fam['worst_state']}",
                    file=sys.stderr,
                )
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--g", type=float, default=1.0,
                        help="field-qubit coupling rate (default 1; time is reported "
                             "as the dimensionless tau = g*t, and an absolute-time "
                             "column t is added only when g != 1)")
    common.add_argument("--tau-max", type=float, default=math.pi,
                        help="end of the tau grid (default pi)")
    common.add_argument("--steps", type=int, default=2000,
                        help="number of grid intervals; the grid has steps+1 points "
                             "(default 2000)")
    common.add_argument("--convention", choices=sorted(CONVENTION_BY_FLAG),
                        default="rhp",
                        help="accumulation convention for the non-Markovianity "
                             "quantifier: rhp counts entanglement increases only, "
                             "literal applies the integral-minus-variation formula "
                             "verbatim (default rhp)")
    common.add_argument("--output", default="-",
                        help="output path, '-' for stdout (default)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table format (default csv)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for random sampling and oracle restarts")

    initial_opt = argparse.ArgumentParser(add_help=False)
    initial_opt.add_argument("--initial", default=None,
                             help="initial state: JSON file or inline JSON with a "
                                  '"bell" spectrum or a 4x4 "matrix" of [re, im] '
                                  "pairs, or four comma-separated Bell coefficients "
                                  f"(default {DEFAULT_INITIAL})")

    parser = argparse.ArgumentParser(
        prog="belldyn",
        description="Correlation dynamics of two qubits under local classical "
                    "random external fields.",
        epilog="exit codes: 0 ok, 2 bad input, 3 initial state not Bell-diagonal, "
               "4 certification failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", parents=[common, initial_opt],
                       help="trajectory of the Bell spectrum and all quantifiers")
    p.set_defaults(func=cmd_trajectory, ancilla=False)
    p = sub.add_parser("figure2", parents=[common],
                       help="frozen/oscillating correlation trajectory for the "
                            "(0.9, 0.1, 0, 0) state")
    p.set_defaults(func=cmd_trajectory, initial=DEFAULT_INITIAL, ancilla=False)
    p = sub.add_parser("figure3", parents=[common],
                       help="same trajectory plus ancilla entanglement and the "
                            "non-Markovianity quantifier")
    p.set_defaults(func=cmd_trajectory, initial=DEFAULT_INITIAL, ancilla=True)
    p = sub.add_parser("verify", parents=[common, initial_opt],
                       help="certify the analytic closest states against the "
                            "brute-force oracles")
    p.add_argument("--n", type=int, default=100,
                   help="number of seeded random Bell-diagonal states (default 100; "
                        "ignored when --initial is given)")
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("nonmarkov", parents=[common],
                       help="ancilla entanglement and accumulated non-Markovianity")
    p.set_defaults(func=cmd_nonmarkov)
    p = sub.add_parser("composition", parents=[common, initial_opt],
                       help="two-step composition-law violation witness")
    p.add_argument("tau1", type=float)
    p.add_argument("tau2", type=float)
    p.set_defaults(func=cmd_composition)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalyticPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
