"""Command-line front end: trajectories, figure pipelines, oracle
certification and non-Markovianity diagnostics, emitting CSV or JSON.

Exit codes: 0 ok, 2 bad input, 3 unsupported analytic path (initial state
not Bell-diagonal), 4 certification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .correlations import _c_vectors, _quantifiers, bell_quantifiers
from .dynamics import (
    _TAU_LIMIT,
    BELL_RESIDUAL_TOL,
    _bell_density,
    _bell_diagonal,
    _evolve,
    mixing_fraction,
    validate_spectrum,
)
from .linalg import check_density
from .nonmarkov import CONVENTIONS, _composition, nonmarkovianity_measure
from .oracle import oracle_closest_classical, oracle_closest_product, oracle_closest_separable_bd

DEFAULT_INITIAL = "0.9,0.1,0,0"
VERIFY_TOL_BITS = 1e-3
# states certified per lockstep batch, so memory does not grow with --n
_VERIFY_CHUNK = 32
# largest --steps, so that a typo cannot allocate a grid of gigabytes
_MAX_STEPS = 10**6
# the one number rule of every output: 12 significant digits
_NUMBER = "%.12g"


class InputError(Exception):
    """Invalid configuration or unreadable input (exit code 2)."""


class AnalyticPathError(Exception):
    """Initial state outside the Bell-diagonal fast path (exit code 3)."""


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
        try:
            lam, residual = _bell_diagonal(check_density(m / np.trace(m), name="initial state"))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if residual >= BELL_RESIDUAL_TOL:
            raise AnalyticPathError(
                f"initial state is not Bell-diagonal (residual {residual:.3e}); "
                "this pipeline is analytic-only"
            )
        return lam
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
    comma-separated Bell coefficients. Returns the Bell spectrum (4,); a
    matrix that is not Bell-diagonal raises AnalyticPathError."""
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


# ---------------------------------------------------------------------------
# output

def _rounded(values) -> list:
    return list(map(float, (",".join([_NUMBER] * len(values)) % tuple(values)).split(",")))


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from exc


def _write_table(columns: dict, args) -> None:
    """Write equal-length columns (arrays or lists) as CSV or JSON."""
    values = [np.asarray(v, dtype=float).tolist() for v in columns.values()]
    if args.format == "csv":
        row = ",".join([_NUMBER] * len(values))
        text = "\n".join([",".join(columns), *map(row.__mod__, zip(*values)), ""])
    else:
        column = ",".join([_NUMBER] * len(values[0]))
        text = "{%s}\n" % ", ".join(f"{json.dumps(name)}: [{_json_numbers(column % tuple(vals))}]"
                                    for name, vals in zip(columns, values))
    _write_text(args.output, text)


def _json_numbers(tokens) -> str:
    # json.dumps of the %.12g values joined in tokens, without the float
    # round trip: a fixed-point token is already repr(float(token)), an
    # integer one lacks ".0", an exponent form takes repr(float(token)), which
    # json.dumps calls for a finite float, and only nan and inf take json.dumps
    return ", ".join([t if "." in t and "e" not in t else t + ".0" if t.lstrip("-").isdigit()
                      else json.dumps(float(t)) if "n" in t else repr(float(t))
                      for t in tokens.split(",")])


# ---------------------------------------------------------------------------
# commands

def _grid(args) -> np.ndarray:
    # NaN fails too; the library's tau bound keeps np.linspace from overflowing
    if not 0.0 < args.tau_max <= _TAU_LIMIT:
        raise InputError(f"--tau-max must be positive and finite, at most {_TAU_LIMIT:.3e}")
    if not 2 <= args.steps <= _MAX_STEPS:
        raise InputError(f"--steps must be between 2 and {_MAX_STEPS}")
    # steps counts intervals, so the grid has steps+1 points and the
    # defaults land exactly on tau = pi/4, pi/2, ...
    grid = np.linspace(0.0, args.tau_max, args.steps + 1)
    if not np.all(np.diff(grid) > 0):  # --tau-max / --steps underflowed
        raise InputError("tau grid must be strictly ascending")
    return grid


def _trajectory_columns(lam0: np.ndarray, grid: np.ndarray, g: float) -> dict:
    if not 0.0 < g < math.inf:
        raise InputError("--g must be positive and finite")
    if not math.isfinite(float(grid[-1]) / g):
        raise InputError("--g is so small that --tau-max / --g overflows")
    # checked lam0 >= +0 and f >= +0 evolve to a stack that validate_spectrum keeps as is
    f = mixing_fraction(grid)
    lam = _evolve(lam0, f)
    cvec = _c_vectors(lam)
    cols: dict = {"tau": grid}
    if g != 1.0:
        cols["t"] = grid / g
    cols["f"] = f
    cols.update(zip(("lambda_1p", "lambda_1m", "lambda_2p", "lambda_2m"), lam.T))
    cols.update(zip(("c1", "c2", "c3"), cvec.T))
    cols.update(zip(("T", "D", "C", "E"), _quantifiers(lam, cvec)))
    return cols


def cmd_trajectory(args) -> int:
    """evolve, figure2 and figure3: the spectrum and T, D, C, E on the tau
    grid, plus the ancilla columns E_anc and I_E when args.ancilla is set."""
    grid = _grid(args)
    cols = _trajectory_columns(load_initial(args.initial), grid, args.g)
    if args.ancilla:
        trace = nonmarkovianity_measure(grid, args.convention)
        cols.update(E_anc=trace.e_anc, I_E=trace.i_e)
    _write_table(cols, args)
    return 0


def cmd_nonmarkov(args) -> int:
    try:
        trace = nonmarkovianity_measure(_grid(args), args.convention)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _write_table({"tau": trace.tau_grid, "E_anc": trace.e_anc, "I_E": trace.i_e}, args)
    return 0


def cmd_composition(args) -> int:
    lam0 = load_initial(args.initial)
    try:
        direct, restarted, dist = _composition(lam0, args.tau1, args.tau2)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = {
        "tau1": args.tau1,
        "tau2": args.tau2,
        "initial": _rounded(lam0),
        "direct": _rounded(direct),
        "restarted": _rounded(restarted),
        "trace_distance": _rounded([dist])[0],
    }
    _write_text(args.output, json.dumps(report) + "\n")
    return 0


def _verify_chunks(args):
    # the states to certify, drawn one chunk at a time
    if args.initial is not None:
        yield [load_initial(args.initial)]
        return
    if args.n < 1:
        raise InputError("--n must be at least 1")
    if args.seed < 0:
        raise InputError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    for first in range(0, args.n, _VERIFY_CHUNK):
        size = min(_VERIFY_CHUNK, args.n - first)
        yield [validate_spectrum(rng.dirichlet(np.ones(4))) for _ in range(size)]


def cmd_verify(args) -> int:
    families = {
        name: {"max_discrepancy_bits": 0.0, "analytic_bits": 0.0,
               "oracle_bits": 0.0, "worst_state": None}
        for name in ("classical", "separable", "product")
    }
    n = 0
    for states in _verify_chunks(args):
        rhos = [_bell_density(lam) for lam in states]  # checked where drawn or read
        # the analytic side is the kernel the trajectory commands print: each
        # family's closest-state distance is D, E or T
        t, d, _, e = bell_quantifiers(np.array(states))
        checks = {
            "classical": (d, oracle_closest_classical(rhos)),
            "separable": (e, oracle_closest_separable_bd(states)),
            "product": (t, oracle_closest_product(rhos)),
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
        "seed": None if args.initial is not None else args.seed,  # no state drawn
        "tolerance_bits": VERIFY_TOL_BITS,
        "families": families,
        "passed": passed,
    }
    _write_text(args.output, json.dumps(report) + "\n")
    if not passed:
        for name, fam in families.items():
            if fam["max_discrepancy_bits"] >= VERIFY_TOL_BITS:
                print(f"certification failed for the {name} family: discrepancy "
                      f"{fam['max_discrepancy_bits']:.3e} bits on state {fam['worst_state']}",
                      file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# parser

#: every option of the CLI, keyed by flag; each command lists the ones it reads
_OPTIONS = {
    "--initial": dict(default=None,
                      help="initial state: JSON file or inline JSON with a "
                           '"bell" spectrum or a 4x4 "matrix" of [re, im] '
                           "pairs, or four comma-separated Bell coefficients "
                           f"(default {DEFAULT_INITIAL})"),
    "--g": dict(type=float, default=1.0,
                help="field-qubit coupling rate (default 1; time is reported "
                     "as the dimensionless tau = g*t, and an absolute-time "
                     "column t is added only when g != 1)"),
    "--tau-max": dict(type=float, default=math.pi, help="end of the tau grid (default pi)"),
    "--steps": dict(type=int, default=2000,
                    help="number of grid intervals; the grid has steps+1 points "
                         "(default 2000)"),
    "--convention": dict(choices=sorted(CONVENTIONS), default="rhp",
                         help="accumulation convention for the non-Markovianity "
                              "quantifier: rhp counts entanglement increases only, "
                              "literal applies the integral-minus-variation formula "
                              "verbatim (default rhp)"),
    "--output": dict(default="-", help="output path, '-' for stdout (default)"),
    "--format": dict(choices=("csv", "json"), default="csv", help="table format (default csv)"),
    "--seed": dict(type=int, default=0,
                   help="seed for the random states (default 0; ignored when --initial is given)"),
    "--n": dict(type=int, default=100,
                help="number of seeded random Bell-diagonal states (default 100; "
                     "ignored when --initial is given)"),
    "tau1": dict(type=float),
    "tau2": dict(type=float),
}


class _Parser(argparse.ArgumentParser):
    # a usage error is bad input: one line and exit 2, not a usage block
    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="belldyn",
        description="Correlation dynamics of two qubits under local classical "
                    "random external fields.",
        epilog="exit codes: 0 ok, 2 bad input, 3 initial state not Bell-diagonal, "
               "4 certification failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    trajectory = ("--g", "--tau-max", "--steps", "--output", "--format")
    # (command, help, the options it reads, fixed arguments); func names the
    # command function, which `main` looks up when it runs, so the parser is
    # built once and each command still runs the module's current binding
    for name, help_text, options, fixed in (
        ("evolve", "trajectory of the Bell spectrum and all quantifiers",
         ("--initial",) + trajectory, dict(func="cmd_trajectory", ancilla=False)),
        ("figure2", "frozen/oscillating correlation trajectory for the (0.9, 0.1, 0, 0) state",
         trajectory, dict(func="cmd_trajectory", initial=DEFAULT_INITIAL, ancilla=False)),
        ("figure3", "same trajectory plus ancilla entanglement and the non-Markovianity "
         "quantifier", trajectory + ("--convention",),
         dict(func="cmd_trajectory", initial=DEFAULT_INITIAL, ancilla=True)),
        ("verify", "certify the analytic closest states against the brute-force oracles",
         ("--initial", "--n", "--seed", "--output"), dict(func="cmd_verify")),
        ("nonmarkov", "ancilla entanglement and accumulated non-Markovianity",
         ("--tau-max", "--steps", "--convention", "--output", "--format"),
         dict(func="cmd_nonmarkov")),
        ("composition", "two-step composition-law violation witness",
         ("tau1", "tau2", "--initial", "--output"), dict(func="cmd_composition")),
    ):
        p = sub.add_parser(name, help=help_text)
        # an option in a group skips argparse's trial help line (1/4 of the build)
        group = p.add_argument_group(f"{name} options")
        for option in options:
            group.add_argument(option, **_OPTIONS[option])
        p.set_defaults(**fixed)
    return parser


@functools.cache
def _commands() -> dict:
    # each command's own parser by name, read off build_parser()'s subparsers
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # one parse: a command's parser alone, else the top level (--help, [], a typo)
        command = _commands().get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else build_parser().parse_args(argv)
        return globals()[args.func](args)
    except (InputError, AnalyticPathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, AnalyticPathError) else 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
