import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belldyn
from belldyn import cli, dynamics, linalg
from belldyn.cli import _write_table, build_parser, main
from belldyn.correlations import bell_quantifiers, c_vector_of_spectrum, quantifier_report
from belldyn.dynamics import (
    bell_spectrum_to_density,
    evolve_bell_spectrum,
    mixing_fraction,
    validate_spectrum,
)

from matrix_reference import H09


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    names = lines[0].split(",")
    rows = [dict(zip(names, (float(v) for v in line.split(",")))) for line in lines[1:]]
    return names, rows


def test_module_help_runs():
    cp = subprocess.run(
        [sys.executable, "-m", "belldyn", "--help"], capture_output=True, text=True
    )
    assert cp.returncode == 0, cp.stderr
    assert "evolve" in cp.stdout and "verify" in cp.stdout


def test_module_entry_point_behaves_as_main(capsys):
    argv = ["nonmarkov", "--steps", "4"]
    cp = subprocess.run([sys.executable, "-m", "belldyn", *argv], capture_output=True)
    assert cp.returncode == 0, cp.stderr
    assert main(argv) == 0
    assert cp.stdout == capsys.readouterr().out.encode("utf-8")

    cp = subprocess.run([sys.executable, "-m", "belldyn", "evolve", "--steps", "1"],
                        capture_output=True, text=True)
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1


def test_evolve_default_columns_and_values(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--output", str(out)]) == 0
    names, rows = read_csv(out)
    assert names == ["tau", "f", "lambda_1p", "lambda_1m", "lambda_2p", "lambda_2m",
                     "c1", "c2", "c3", "T", "D", "C", "E"]
    assert len(rows) == 2001
    first = rows[0]
    assert abs(first["T"] - 1.5310) < 1e-3
    assert abs(first["D"] - 0.5310) < 1e-3
    assert abs(first["C"] - 1.0) < 1e-3
    assert abs(first["E"] - 0.5310) < 1e-3
    # grid point exactly at pi/4 (index 500 of 2000 intervals over [0, pi])
    quarter = rows[500]
    assert abs(quarter["tau"] - math.pi / 4) < 1e-9
    assert abs(quarter["D"]) < 1e-9
    assert quarter["E"] == 0.0


def test_evolve_maximally_mixed_is_all_zero(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--initial", "0.25,0.25,0.25,0.25", "--steps", "50",
                 "--output", str(out)]) == 0
    _, rows = read_csv(out)
    for row in rows:
        for col in ("c1", "c2", "c3", "T", "D", "C", "E"):
            assert abs(row[col]) < 1e-9


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["figure3", "--steps", "200", "--tau-max", "1.5707963267948966"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip_reproduces_quantifiers(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--steps", "40", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    for row in rows[::5]:
        lam = np.array([row["lambda_1p"], row["lambda_1m"], row["lambda_2p"], row["lambda_2m"]])
        lam = np.clip(lam, 0, None)
        rep = quantifier_report(bell_spectrum_to_density(lam / lam.sum()))
        assert abs(rep.T - row["T"]) < 1e-9
        assert abs(rep.D - row["D"]) < 1e-9
        assert abs(rep.C - row["C"]) < 1e-9
        assert abs(rep.E - row["E"]) < 1e-9


def test_json_format_mirrors_columns(tmp_path):
    out = tmp_path / "traj.json"
    assert main(["evolve", "--steps", "10", "--format", "json", "--output", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == {"tau", "f", "lambda_1p", "lambda_1m", "lambda_2p", "lambda_2m",
                         "c1", "c2", "c3", "T", "D", "C", "E"}
    assert all(len(v) == 11 for v in data.values())


def test_absolute_time_column_only_when_g_differs(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--g", "2", "--steps", "10", "--output", str(out)]) == 0
    names, rows = read_csv(out)
    assert names[1] == "t"
    assert abs(rows[5]["t"] - rows[5]["tau"] / 2.0) < 1e-9


def test_figure2_frozen_boundary(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["figure2", "--steps", "1000", "--tau-max", "1.5707963267948966",
                 "--output", str(out)]) == 0
    _, rows = read_csv(out)
    d = np.array([r["D"] for r in rows])
    tau = np.array([r["tau"] for r in rows])
    window = (tau >= 0.01) & (tau <= 0.22)
    assert np.max(np.abs(d[window] - (1 - H09))) < 1e-6
    boundary = tau[np.argmax(np.abs(d - (1 - H09)) > 1e-6)]
    assert abs(boundary - 0.2318) < 2 * (tau[1] - tau[0])


def test_figure3_extra_columns(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["figure3", "--steps", "1000", "--tau-max", "1.5707963267948966",
                 "--output", str(out)]) == 0
    names, rows = read_csv(out)
    assert names[-2:] == ["E_anc", "I_E"]
    tau = np.array([r["tau"] for r in rows])
    i_e = np.array([r["I_E"] for r in rows])
    e = np.array([r["E"] for r in rows])
    assert np.all(i_e[tau <= math.pi / 4 + 1e-12] == 0.0)
    assert abs(i_e[-1] - 2.0) < 1e-3
    dead = (tau >= 0.6156) & (tau <= 0.9553)
    assert np.all(e[dead] <= 1e-12)


def test_initial_state_file_bell(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"bell": [0.7, 0.1, 0.1, 0.1]}), encoding="utf-8")
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--initial", str(state), "--steps", "10", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert abs(rows[0]["lambda_1p"] - 0.7) < 1e-12


def test_initial_state_file_matrix(tmp_path):
    rho = bell_spectrum_to_density([0.6, 0.2, 0.1, 0.1])
    payload = {"matrix": [[[float(v.real), float(v.imag)] for v in row] for row in rho]}
    state = tmp_path / "state.json"
    state.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--initial", str(state), "--steps", "10", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert abs(rows[0]["lambda_1p"] - 0.6) < 1e-9


def test_initial_inline_json(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["evolve", "--initial", '{"bell": [0.5, 0.3, 0.1, 0.1]}',
                 "--steps", "10", "--output", str(out)])
    assert code == 0


def test_missing_initial_file_exits_2(capsys):
    assert main(["evolve", "--initial", "/nonexistent/state.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_unnormalized_initial_exits_2(capsys):
    assert main(["evolve", "--initial", "0.9,0.2,0,0"]) == 2


def test_non_bell_diagonal_matrix_exits_3(tmp_path, capsys):
    rho00 = np.zeros((4, 4))
    rho00[0, 0] = 1.0
    payload = {"matrix": [[[float(v), 0.0] for v in row] for row in rho00]}
    state = tmp_path / "state.json"
    state.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evolve", "--initial", str(state)]) == 3
    assert "not Bell-diagonal" in capsys.readouterr().err


def test_bad_steps_exits_2():
    assert main(["evolve", "--steps", "1"]) == 2


def test_composition_report(tmp_path):
    out = tmp_path / "comp.json"
    assert main(["composition", "0.7853981633974483", "1.5707963267948966",
                 "--output", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert abs(data["trace_distance"] - 0.5) < 1e-9
    assert np.allclose(data["direct"], [0.9, 0.1, 0, 0], atol=1e-9)
    assert np.allclose(data["restarted"], [0.45, 0.05, 0.05, 0.45], atol=1e-9)


def test_composition_bad_order_exits_2():
    assert main(["composition", "1.0", "0.5"]) == 2


BAD_INPUTS = [
    ["evolve", "--g", "nan"],
    ["evolve", "--g", "inf"],
    ["evolve", "--tau-max", "inf"],
    ["evolve", "--tau-max", "nan"],
    ["nonmarkov", "--tau-max", "nan"],
    ["evolve", "--initial", '{"bell": ["a", 0, 0, 0]}'],
    ["evolve", "--initial", '{"bell": [[1], 0, 0, 0]}'],
    ["evolve", "--initial", '{"bell": [NaN, 0, 0, 0]}'],
    ["evolve", "--initial", "nan,0,0,0"],
    ["evolve", "--initial", "inf,0,0,0"],
    ["evolve", "--initial", '{"matrix": [[[NaN, 0], [0, 0], [0, 0], [0, 0]],'
                            ' [[0, 0], [0, 0], [0, 0], [0, 0]],'
                            ' [[0, 0], [0, 0], [0, 0], [0, 0]],'
                            ' [[0, 0], [0, 0], [0, 0], [1, 0]]]}'],
    ["evolve", "--output", "{tmp}/no_such_dir/out.csv"],
    ["verify", "--n", "1", "--output", "{tmp}"],
    ["composition", "nan", "1"],
    ["composition", "0", "nan"],
    ["composition", "0", "inf"],
    ["verify", "--n", "1", "--seed", "-1"],
    ["evolve", "--initial", "1e308,1e308,-1e308,-1e308"],
    ["evolve", "--format", "xml"],
    ["evolve", "--steps", "abc"],
    ["verify", "--n", "1", "--format", "csv"],
    ["composition", "0", "1", "--seed", "3"],
    ["composition", "0", "1e308"],
    ["evolve", "--tau-max", "1e308", "--steps", "2"],
    ["figure3", "--tau-max", "1e308", "--steps", "2"],
    ["nonmarkov", "--tau-max", "1e308", "--steps", "2"],
    # the largest float: np.linspace would overflow at 3 and 7 steps
    *([cmd, "--tau-max", "1.7976931348623157e308", "--steps", steps]
      for cmd in ("evolve", "nonmarkov", "figure3") for steps in ("3", "7")),
    ["evolve", "--g", "1e-320", "--steps", "2", "--tau-max", "1"],
    # --tau-max / --steps underflows, so the grid repeats points
    ["evolve", "--steps", "4", "--tau-max", "1e-323"],
    ["figure2", "--steps", "4", "--tau-max", "1e-323"],
    ["figure3", "--steps", "4", "--tau-max", "1e-323"],
    # rejected before any grid is allocated
    ["evolve", "--steps", "2000000000"],
    ["nonmarkov", "--steps", "1000001"],
    # each initial-state rule of the parser
    ["evolve", "--initial", '{"bell": [0.5, 0.5]}'],
    ["evolve", "--initial", '{"matrix": [[1, 2]]}'],
    ["evolve", "--initial", '{"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}'],
    ["evolve", "--initial", '{"matrix": [[[1.1, 0], [0, 0], [0, 0], [0, 0]],'
                            ' [[0, 0], [-0.1, 0], [0, 0], [0, 0]],'
                            ' [[0, 0], [0, 0], [0, 0], [0, 0]],'
                            ' [[0, 0], [0, 0], [0, 0], [0, 0]]]}'],
    # trace 1 but not Hermitian
    ["evolve", "--initial", '{"matrix": [[[0.25, 0], [0.1, 0], [0, 0], [0, 0]],'
                            ' [[0, 0], [0.25, 0], [0, 0], [0, 0]],'
                            ' [[0, 0], [0, 0], [0.25, 0], [0, 0]],'
                            ' [[0, 0], [0, 0], [0, 0], [0.25, 0]]]}'],
    ["evolve", "--initial", '{"foo": 1}'],
    ["evolve", "--initial", "0.5,0.5,-1e-10,0"],
    ["evolve", "--initial", "{"],
    # JSON entries must be JSON numbers: float() alone reads true and "0.5"
    ["evolve", "--initial", '{"bell": [true, false, false, false]}'],
    ["evolve", "--initial", '{"bell": ["0.5", "0.5", 0, 0]}'],
    ["evolve", "--initial", '{"matrix": [[[0.5, false], [0, 0], [0, 0], [0.5, 0]],'
                            ' [[0, 0], [0, 0], [0, 0], [0, 0]],'
                            ' [[0, 0], [0, 0], [0, 0], [0, 0]],'
                            ' [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]}'],
    # an integer too large for a float, and one too long for int()
    ["evolve", "--initial", '{"bell": [1%s, 0, 0, 0]}' % ("0" * 400)],
    ["evolve", "--initial", '{"bell": [0, 0, 0, 1%s]}' % ("0" * 5000)],
    ["evolve", "--initial", "a,b,c,d"],
    ["evolve", "--initial", "0.5,0.5"],
    ["verify", "--n", "0"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda a: " ".join(a)[:60])
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content, message", [
    ("[0.9, 0.1, 0, 0]", "error: initial-state JSON must be an object\n"),
    ('{"bell": ', "error: bad initial-state file "),
    (None, "error: cannot read initial-state file: "),
    (b'{"bell": [0.9, 0.1, 0, 0]}\xff', "error: bad initial-state file "),
], ids=["list", "broken-json", "directory", "not-utf-8"])
def test_bad_initial_state_file_exits_2_with_one_line(content, message, tmp_path, capsys):
    path = tmp_path / "initial"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    assert main(["evolve", "--initial", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


def _matrix_initial(entries) -> str:
    # an inline {"matrix": ...} state, zero but for entries {(i, j): (re, im)}
    rows = [[list(entries.get((i, j), (0.0, 0.0))) for j in range(4)] for i in range(4)]
    return json.dumps({"matrix": rows})


_QUARTERS = {(k, k): (0.25, 0.0) for k in range(4)}


@pytest.mark.parametrize("initial, code, message", [
    (_matrix_initial({**_QUARTERS, (0, 1): (math.nan, 0.0)}), 2,
     "error: initial state has non-finite entries\n"),
    (json.dumps({"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}), 2,
     'error: "matrix" must be 4x4 with [re, im] entries\n'),
    (_matrix_initial({(0, 0): (0.5, 0.0), (3, 3): (0.25, 0.0)}), 2,
     "error: initial matrix trace is 0.75, expected 1\n"),
    (_matrix_initial({**_QUARTERS, (0, 1): (0.1, 0.0)}), 2,
     "error: initial state is not Hermitian (max deviation 1.000e-01)\n"),
    (_matrix_initial({(0, 0): (1.1, 0.0), (1, 1): (-0.1, 0.0)}), 2,
     "error: initial state has negative eigenvalue -1.000e-01\n"),
    (_matrix_initial({(0, 0): (1.0, 0.0)}), 3,
     "error: initial state is not Bell-diagonal (residual 5.000e-01); "
     "this pipeline is analytic-only\n"),
    (_matrix_initial({**_QUARTERS, (0, 1): (False, 0.0)}), 2,
     'error: bad "matrix" entry: false is not a JSON number\n'),
], ids=["nan", "shape", "trace", "hermitian", "negative", "not-bell-diagonal", "json-bool"])
def test_each_matrix_rule_keeps_its_message(initial, code, message, capsys):
    # the matrix is checked once at the boundary; each rule still names itself
    assert main(["evolve", "--initial", initial, "--steps", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_trajectory_commands_check_their_input_once(monkeypatch, capsys):
    # the input is checked where it is read, and the stacks built from it are
    # not re-checked: the per-function route checked the spectrum 4 times
    # (load_initial, the evolution, the c-vectors, the quantifiers) and a
    # matrix twice (the density check, then bell_spectrum_of)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "belldyn"]
    for name, fn in (("validate_spectrum", validate_spectrum),
                     ("_check_density", linalg._check_density)):
        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted(name, fn))
    bell = _matrix_initial({(i, j): (v.real, v.imag) for (i, j), v in
                            np.ndenumerate(bell_spectrum_to_density([0.6, 0.2, 0.1, 0.1]))})
    for initial, checks in (("0.1,0.2,0.3,0.4", 0), (bell, 1)):
        calls.clear()
        assert main(["evolve", "--initial", initial, "--steps", "40"]) == 0
        assert capsys.readouterr().out.count("\n") == 42
        assert calls.count("validate_spectrum") == 1, calls
        assert calls.count("_check_density") == checks, calls


def test_verify_checks_each_spectrum_once_before_its_oracles(monkeypatch, capsys):
    # verify --n 4: each drawn spectrum is checked where it is drawn (4), the
    # chunk once by bell_quantifiers (1) and each spectrum once by the
    # separable oracle, at its input (4); the classical and product states and
    # the separable minimizers are built from checked spectra with no check
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return validate_spectrum(*args, **kwargs)

    for mod in [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "belldyn"]:
        if getattr(mod, "validate_spectrum", None) is validate_spectrum:
            monkeypatch.setattr(mod, "validate_spectrum", counted)
    assert main(["verify", "--n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert len(calls) == 9


#: the edge values of the exit-code property: floats at and past the ends of
#: the float range, signed zero and the smallest subnormal, and seeds that are
#: negative or past 64 bits; --steps stays <= 50 and --n <= 3, so that every
#: run is short
EDGE_FLOATS = ("0", "-0.0", "5e-324", "1e308", "1.7976931348623157e308", "inf", "-inf", "nan",
               "0.5", "1", "3.14")
EDGE_INTS = {"--steps": ("-1", "0", "1", "2", "3", "50"), "--n": ("-1", "0", "1", "3"),
             "--seed": ("0", "-1", "7", "18446744073709551616", "10" * 20)}


@st.composite
def cli_argvs(draw):
    # a subcommand and a subset of its options, each read off build_parser()
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    name = draw(st.sampled_from(sorted(sub.choices)))
    argv = [name]
    for action in sub.choices[name]._actions:
        flag = (action.option_strings or [None])[0]
        if flag in ("-h", "--output") or (flag and not draw(st.booleans())):
            continue
        if action.choices:
            value = draw(st.sampled_from(sorted(action.choices) + ["xml"]))
        elif flag in EDGE_INTS:
            value = draw(st.sampled_from(EDGE_INTS[flag]))
        elif flag == "--initial":
            coeffs = st.sampled_from(EDGE_FLOATS + ("0.25", "0.1", "0.9"))
            value = draw(st.sampled_from(["0.9,0.1,0,0", "1,0,0,0", "0.25,0.25,0.25,0.25"])
                         | st.lists(coeffs, min_size=4, max_size=4).map(",".join))
        else:
            value = draw(st.sampled_from(EDGE_FLOATS))
        argv += [flag, value] if flag else [value]
    return argv


@settings(max_examples=120, deadline=None)
@given(argv=cli_argvs())
def test_every_cli_run_keeps_the_exit_contract(argv):
    # exit 0 prints only finite numbers; exit 2 (bad input) and 3 (not
    # Bell-diagonal) print one stderr line and no output, and no run warns.
    # Exit 4 (certification failure) writes its report before its lines
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out.getvalue(), re.IGNORECASE), argv
        assert err.getvalue() == "", argv
    elif code in (2, 3):
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv


#: the options each subcommand reads, and no others
OPTIONS_BY_COMMAND = {
    "evolve": {"--initial", "--g", "--tau-max", "--steps", "--output", "--format"},
    "figure2": {"--g", "--tau-max", "--steps", "--output", "--format"},
    "figure3": {"--g", "--tau-max", "--steps", "--output", "--format", "--convention"},
    "nonmarkov": {"--tau-max", "--steps", "--convention", "--output", "--format"},
    "composition": {"--initial", "--output"},
    "verify": {"--initial", "--n", "--seed", "--output"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    assert flags == OPTIONS_BY_COMMAND
    assert sum(map(len, flags.values())) == 28
    positionals = {name: [a.dest for a in p._actions if not a.option_strings]
                   for name, p in sub.choices.items()}
    assert positionals == {name: (["tau1", "tau2"] if name == "composition" else [])
                           for name in OPTIONS_BY_COMMAND}


def test_missing_subcommand_returns_2_with_one_line(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"


def test_each_command_is_parsed_by_its_own_parser_alone(monkeypatch, capsys):
    # the top-level parser would scan the whole argv before handing it on;
    # main gives a command's argv to that command's parser only
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a command line")

    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    argvs = [["evolve", "--steps", "2"], ["figure2", "--steps", "2"], ["figure3", "--steps", "2"],
             ["verify", "--n", "1"], ["nonmarkov", "--steps", "2"], ["composition", "0.1", "0.2"]]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(argv[0] for argv in argvs) == sorted(sub.choices)
    for argv in argvs:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""


# help, an unknown command and an unknown option keep their exit code and
# message (an empty argv: test_missing_subcommand_returns_2_with_one_line)
@pytest.mark.parametrize("argv, code, err", [
    (["--help"], None, ""),
    (["nosuch"], 2, "error: argument command: invalid choice: 'nosuch' (choose from 'evolve', "
                    "'figure2', 'figure3', 'verify', 'nonmarkov', 'composition')\n"),
    (["evolve", "--foo", "1"], 2, "error: unrecognized arguments: --foo 1\n"),
], ids=["help", "unknown-command", "unknown-option"])
def test_help_and_typos_keep_their_exit_code_and_message(argv, code, err, capsys):
    if code is None:  # argparse's help action exits 0 after printing
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    else:
        assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out.startswith("usage: belldyn [-h]") == (code is None)


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["belldyn", "composition", "0.5", "0.5"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["trace_distance"] == 0.0
    monkeypatch.setattr(sys, "argv", ["belldyn"])
    assert main() == 2
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"


def test_inline_spectrum_within_the_sum_slack_is_divided_by_its_sum(capsys):
    # the sum is 1 + 5e-10, inside the 1e-9 slack: each entry is divided by
    # it (0.1 / (1 + 5e-10) = 0.09999999995), and the result sums to 1
    assert main(["evolve", "--initial", "0.1,0.2,0.3,0.4000000005", "--steps", "2"]) == 0
    first = capsys.readouterr().out.split("\n")[1].split(",")
    assert first[:6] == ["0", "0", "0.09999999995", "0.1999999999", "0.29999999985", "0.4000000003"]


@pytest.mark.parametrize("command", ["evolve", "nonmarkov"])
def test_tau_max_is_accepted_up_to_the_library_limit(command, capsys):
    limit = float(dynamics._TAU_LIMIT)
    assert main([command, "--tau-max", repr(limit), "--steps", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 4
    past = float(np.nextafter(limit, math.inf))
    assert main([command, "--tau-max", repr(past), "--steps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --tau-max must be positive and finite, at most 8.988e+307\n"


def test_overflowing_initial_gives_one_stderr_line():
    # a subprocess, because pytest's warning capture would hide a numpy
    # overflow warning printed ahead of the error line
    cp = subprocess.run(
        [sys.executable, "-m", "belldyn", "evolve", "--initial", "1e308,1e308,-1e308,-1e308"],
        capture_output=True, text=True,
    )
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1


def test_overflowing_tau_gives_one_stderr_line():
    # a subprocess, because capsys does not see a RuntimeWarning of sin(2 tau)
    cp = subprocess.run(
        [sys.executable, "-m", "belldyn", "composition", "0", "1e308"],
        capture_output=True, text=True,
    )
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1


def test_composition_equal_times_is_zero(capsys):
    assert main(["composition", "0.5", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["trace_distance"] == 0.0


def test_composition_mixed_state_is_zero(tmp_path):
    out = tmp_path / "comp.json"
    assert main(["composition", "0.3", "0.9", "--initial", "0.25,0.25,0.25,0.25",
                 "--output", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["trace_distance"] == 0.0


def test_nonmarkov_command(tmp_path):
    out = tmp_path / "nm.csv"
    assert main(["nonmarkov", "--output", str(out)]) == 0
    names, rows = read_csv(out)
    assert names == ["tau", "E_anc", "I_E"]
    half = rows[1000]  # tau = pi/2 on the default grid
    assert abs(half["tau"] - math.pi / 2) < 1e-9
    assert abs(half["I_E"] - 2.0) < 1e-3


def test_verify_small_sample(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--n", "4", "--seed", "7", "--output", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["passed"] is True
    assert data["n"] == 4
    for family in ("classical", "separable", "product"):
        assert data["families"][family]["max_discrepancy_bits"] < 1e-3


def test_verify_single_given_state(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--initial", "0.9,0.1,0,0", "--output", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["n"] == 1
    fam = data["families"]["classical"]
    assert abs(fam["analytic_bits"] - 0.5310) < 1e-3
    assert fam["max_discrepancy_bits"] < 1e-3


def test_verify_ignores_a_negative_seed_when_initial_is_given(capsys):
    # --seed only seeds the random states, so --initial makes it unread, and
    # the report of a run that drew no random state names no seed
    for seed in ([], ["--seed", "0"], ["--seed", "-1"], ["--seed", "7"]):
        assert main(["verify", "--initial", "0.9,0.1,0,0", *seed]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["passed"] is True and report["seed"] is None and captured.err == ""


def test_verify_maximally_mixed_state(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--initial", "0.25,0.25,0.25,0.25", "--output", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    for family in ("classical", "separable", "product"):
        assert data["families"][family]["max_discrepancy_bits"] < 1e-9


def test_verify_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--n", "2", "--seed", "3", "--output", str(a)]) == 0
    assert main(["verify", "--n", "2", "--seed", "3", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_failure_exits_4(tmp_path, monkeypatch, capsys):
    # force a broken oracle to exercise the failure reporting path: the
    # classical one 0.01 bits high, and the separable one at 1e-3 bits on a
    # separable spectrum, where E is exactly 0, so that its discrepancy is
    # exactly the tolerance, which fails, as passing needs one below it
    from belldyn.oracle import OracleResult

    cases = [
        ("classical", "oracle_closest_classical", "0.9,0.1,0,0", lambda v: v + 0.01),
        ("separable", "oracle_closest_separable_bd", "0.4,0.3,0.2,0.1",
         lambda v: cli.VERIFY_TOL_BITS),
    ]
    for family, oracle, initial, value_of in cases:
        real = getattr(cli, oracle)

        def broken(states, real=real, value_of=value_of):
            return [OracleResult(res.minimizer, value_of(res.value), res.evaluations, res.history)
                    for res in real(states)]

        out = tmp_path / f"{family}.json"
        with monkeypatch.context() as patch:
            patch.setattr(cli, oracle, broken)
            assert main(["verify", "--initial", initial, "--output", str(out)]) == 4
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["passed"] is False
        assert data["families"][family]["worst_state"] is not None
        # exit 4 keeps the full report in --output and says on stderr, in one
        # line per failing family, which family failed
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"certification failed for the {family} family")


def test_verify_catches_a_wrong_closed_form(tmp_path, monkeypatch, capsys):
    # negative control on the analytic side: a kernel whose C is built on the
    # second-largest |c_k| instead of the largest, with D = T - C, must fail
    import belldyn.cli as cli
    from belldyn.correlations import c_vector_of_spectrum

    real = cli.bell_quantifiers

    def second_largest(lam):
        t, _, _, e = real(lam)
        p = (1.0 + np.sort(np.abs(c_vector_of_spectrum(lam)), axis=-1)[..., 1]) / 2.0
        c = 1.0 + p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p)
        return t, t - c, c, e

    monkeypatch.setattr(cli, "bell_quantifiers", second_largest)
    out = tmp_path / "verify.json"
    assert main(["verify", "--initial", "0.9,0.1,0,0", "--output", str(out)]) == 4
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["families"]["classical"]["max_discrepancy_bits"] > 0.4
    assert "classical family" in capsys.readouterr().err


def test_verify_stdout_is_pinned(capsys):
    # verify --n 10 --seed 0: the classical oracle values keep the bits
    # captured before the oracles shared one refinement loop, the product
    # values those of its Bloch-form objective, the separable values those of
    # its search from the slice's centre, and the analytic values are those
    # of bell_quantifiers
    pinned = pathlib.Path(__file__).parent / "data" / "verify_n10_seed0.json"
    assert main(["verify", "--n", "10"]) == 0
    assert capsys.readouterr().out == pinned.read_text(encoding="utf-8")


def test_verify_stdout_does_not_depend_on_the_chunk_size(capsys, monkeypatch):
    # chunks of 3 put boundaries inside the pinned run: 3 + 3 + 3 + 1 states
    import belldyn.cli as cli

    monkeypatch.setattr(cli, "_VERIFY_CHUNK", 3)
    pinned = pathlib.Path(__file__).parent / "data" / "verify_n10_seed0.json"
    assert main(["verify", "--n", "10"]) == 0
    assert capsys.readouterr().out == pinned.read_text(encoding="utf-8")


@pytest.mark.parametrize("chunk", [1, 32])
def test_verify_certifies_the_printed_kernel(chunk, capsys, monkeypatch):
    # the analytic side of each family is, bit for bit, the kernel the
    # trajectory commands print from (D, E or T of bell_quantifiers) on its
    # worst state, whatever the chunk size
    import belldyn.cli as cli

    monkeypatch.setattr(cli, "_VERIFY_CHUNK", chunk)
    assert main(["verify", "--n", "10"]) == 0
    families = json.loads(capsys.readouterr().out)["families"]
    for name, index in (("classical", 1), ("separable", 3), ("product", 0)):
        fam = families[name]
        assert fam["analytic_bits"] == float(bell_quantifiers(fam["worst_state"])[index]), name


def test_verify_refines_each_chunk_in_one_lockstep_loop(capsys, monkeypatch):
    # one classical objective call per lockstep pass of a chunk, besides one
    # grid start selection per state; a pass advances every running search by
    # at least one step, so a chunk makes at most REFINEMENT_ITERATIONS of them
    # (28 here). Refining the 8 states one after another takes 147 calls
    import belldyn.cli as cli
    from belldyn import oracle

    calls = []
    real, real_starts = oracle._classical_values, oracle._grid_starts

    def counted(a_vec, *args):
        calls.append(a_vec.ndim)  # 2: a chunk's searches
        return real(a_vec, *args)

    def started(*args):
        calls.append("grid")  # one state's grid starts
        return real_starts(*args)

    monkeypatch.setattr(oracle, "_classical_values", counted)
    monkeypatch.setattr(oracle, "_grid_starts", started)
    assert main(["verify", "--n", "8"]) == 0
    chunks = -(-8 // cli._VERIFY_CHUNK)
    assert calls.count("grid") == 8
    assert 0 < calls.count(2) <= chunks * oracle.REFINEMENT_ITERATIONS
    capsys.readouterr()


#: per family, the objective calls of `_refine` (one per lockstep pass) and
#: the (search, level) rows they stack on `verify --n 8`
VERIFY_N8_SCHEDULE = {"classical": (28, 552), "separable": (41, 665), "product": (5, 352)}


def test_verify_lockstep_schedule_is_pinned(capsys, monkeypatch):
    # the bit pins cannot show that the passes score the same searches,
    # levels and rows, which their speed rests on; the counts were taken
    # while `_refine` did its per-search bookkeeping in numpy
    from belldyn import oracle

    real, seen = oracle._refine, {}
    family = {80: "classical", 26: "separable", 12: "product"}

    def counted(starts, evaluate, offsets, project=None, *, owner, steps_of=None):
        def scored(cand, rows_owner):
            calls, rows = seen.get(family[len(offsets)], (0, 0))
            seen[family[len(offsets)]] = (calls + 1, rows + len(cand))
            return evaluate(cand, rows_owner)

        return real(starts, scored, offsets, project, owner=owner, steps_of=steps_of)

    monkeypatch.setattr(oracle, "_refine", counted)
    assert main(["verify", "--n", "8"]) == 0
    assert seen == VERIFY_N8_SCHEDULE
    capsys.readouterr()


def test_verify_classical_searches_stop_near_the_poles(capsys, monkeypatch):
    # searches that walk to theta = 0 or pi, where a phi step turns the
    # direction by almost nothing, used to keep the lockstep loop running to
    # the step cap: 201 calls for this chunk
    from belldyn import oracle

    calls = []
    real = oracle._classical_values

    def counted(a_vec, *args):
        calls.append(a_vec.ndim)  # 2: the chunk's searches, one call per pass
        return real(a_vec, *args)

    monkeypatch.setattr(oracle, "_classical_values", counted)
    assert main(["verify", "--n", "32", "--seed", "0"]) == 0
    assert calls.count(2) <= 150
    capsys.readouterr()


def test_verify_decomposes_each_state_once_per_oracle_check(capsys, monkeypatch):
    # verify --n 4: the classical and product oracles' checks each decompose
    # a state once, and S(rho) comes from those eigenvalues. The oracles used
    # to decompose each state again for S(rho) (20 calls), and the classical
    # minimizer's dephasing used to check its state once more (12 calls)
    calls = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert main(["verify", "--n", "4"]) == 0
    assert calls == [(4, 4)] * 8
    capsys.readouterr()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    import belldyn.cli as cli

    build_parser()
    built = build_parser.cache_info().misses
    # figure3 sets --g and the ancilla columns; evolve after it must see
    # neither, and each run matches a parse by a freshly built parser
    runs = [["figure3", "--steps", "4", "--g", "2", "--convention", "literal"],
            ["evolve", "--steps", "4"],
            ["verify", "--n", "1", "--seed", "5"],
            ["nonmarkov", "--steps", "4"]]
    for argv in runs:
        assert vars(build_parser().parse_args(argv)) == vars(
            build_parser.__wrapped__().parse_args(argv))
        assert main(argv + ["--output", str(tmp_path / argv[0])]) == 0
    assert build_parser.cache_info().misses == built
    names, _ = read_csv(tmp_path / "evolve")
    assert "t" not in names and "E_anc" not in names
    # the command runs the module's binding at call time
    monkeypatch.setattr(cli, "cmd_nonmarkov", lambda args: 7)
    assert main(["nonmarkov"]) == 7


#: sha256 of stdout at the default settings, captured before the ancilla
#: entanglement (figure3's E_anc and I_E) went through bell_quantifiers;
#: evolve and figure2 print the same trajectory
TRAJECTORY_SHA256 = {
    "evolve": "7d9dfdfa566b77af2cb67c5c02bc72b1750ec0e26f025014a12ecc2044d91b5f",
    "figure2": "7d9dfdfa566b77af2cb67c5c02bc72b1750ec0e26f025014a12ecc2044d91b5f",
    "figure3": "c9963267bce5f519cd013be225cea6365f4af18a087015d2d74ca4b5a34cb0df",
}


@pytest.mark.parametrize("command", sorted(TRAJECTORY_SHA256))
def test_trajectory_stdout_is_pinned(command, capsys):
    assert main([command]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == TRAJECTORY_SHA256[command]


def _public_trajectory(lam0, grid, g):
    # the trajectory table as the public functions give it, each checking its input
    lam = evolve_bell_spectrum(lam0, grid)
    cols = {"tau": grid, **({"t": grid / g} if g != 1.0 else {}), "f": mixing_fraction(grid)}
    cols.update(zip(("lambda_1p", "lambda_1m", "lambda_2p", "lambda_2m"), lam.T))
    cols.update(zip(("c1", "c2", "c3"), c_vector_of_spectrum(lam).T))
    cols.update(zip(("T", "D", "C", "E"), bell_quantifiers(lam)))
    return cols


def _dirichlet(seed, zeros):
    # a Dirichlet(0.05) spectrum with the entries in zeros, bar the largest, set to exact 0
    lam = np.random.default_rng(seed).dirichlet(np.full(4, 0.05))
    lam[[k for k in zeros if k != lam.argmax()]] = 0.0
    return lam / lam.sum() if zeros else lam


#: Dirichlet(0.05) spectra, the same with exact zeros, pure Bell states, I/4
#: and the ties (a, a, 1/2 - a, 1/2 - a) in every order
TRAJECTORY_SPECTRA = st.one_of(
    st.tuples(st.integers(0, 2**32 - 1), st.sets(st.integers(0, 3))).map(
        lambda t: _dirichlet(*t)),
    st.integers(0, 3).map(lambda k: np.eye(4)[k]),
    st.just(np.full(4, 0.25)),
    st.tuples(st.floats(0.0, 0.5), st.permutations(range(4))).map(
        lambda t: np.array([t[0], t[0], 0.5 - t[0], 0.5 - t[0]])[list(t[1])]),
)


@st.composite
def trajectory_grids(draw):
    # --tau-max at m pi / 4 with --steps a multiple of m, so that the grid
    # passes through each k pi / 4, or any --tau-max; --steps 2-60
    m = draw(st.integers(1, 8))
    if draw(st.booleans()):
        tau_max, steps = m * math.pi / 4, m * draw(st.integers(1, 60 // m))
    else:
        tau_max, steps = draw(st.floats(1e-3, 4.0 * math.pi)), draw(st.integers(2, 60))
    return cli._grid(argparse.Namespace(tau_max=tau_max, steps=max(steps, 2)))


@settings(max_examples=120, deadline=None)
@given(TRAJECTORY_SPECTRA, trajectory_grids(), st.sampled_from([1.0, 0.5, 3.7]))
def test_trajectory_one_pass_keeps_every_bit_of_the_public_route(lam, grid, g):
    lam0 = validate_spectrum(lam)  # as load_initial returns it
    got, want = cli._trajectory_columns(lam0, grid, g), _public_trajectory(lam0, grid, g)
    assert list(got) == list(want)
    for name in want:
        assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes(), name


#: sha256 of stdout of the writer's other outputs at the default settings,
#: captured while each value was formatted by its own call
WRITER_SHA256 = {
    "evolve --format json": "98f1513e4be62552b3271b90fa1287904e5ead7a17f5b0ff979c33fdb67fd7b8",
    "nonmarkov": "af9bd2b034da735602fae7613635ce89fe08ba52cd1da0cc72e68b576daf5d47",
    "nonmarkov --format json": "0373b885374db32594767b85e0df7d378f6b9fedcb5ae6915ccefb16b79cfa31",
    "composition 0.3 1.1": "d4145845b1961ae613d560f7b4e68fa81f22a39e2d5fbbe9f376f0ad3955bad4",
}


@pytest.mark.parametrize("command", sorted(WRITER_SHA256))
def test_writer_stdout_is_pinned(command, capsys):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == WRITER_SHA256[command]


#: finite floats, weighted towards the values where the 12-digit rule is
#: easy to get wrong: signed zeros, subnormals, the range [1e12, 1e16) where
#: %g and repr switch to exponent notation at different points, and 1e308
WRITER_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e12, 1e16 - 2, 1e308, -1e308]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e12, max_value=1e16, exclude_max=True),
    st.floats(min_value=-1e16, max_value=-1e12, exclude_min=True),
)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_writer_formats_each_value_by_the_12_digit_rule(data):
    k = data.draw(st.integers(1, 15), label="columns")
    n = data.draw(st.integers(1, 60), label="rows")
    columns = {f"c{j}": data.draw(st.lists(WRITER_FLOATS, min_size=n, max_size=n))
               for j in range(k)}
    expected = {
        "csv": "\n".join([",".join(columns)] + [",".join(f"{x:.12g}" for x in row)
                                               for row in zip(*columns.values())]) + "\n",
        "json": json.dumps({name: [float(f"{x:.12g}") for x in vals]
                            for name, vals in columns.items()}) + "\n",
    }
    for fmt, text in expected.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _write_table(columns, argparse.Namespace(format=fmt, output="-"))
        assert out.getvalue() == text


def test_json_writer_keeps_the_float_route_for_tokens_that_are_no_repr():
    # -0 and 1e+12-style tokens need ".0", exponent forms keep repr's
    # exponent, and nan and inf contain neither "." nor "e" but must stay
    # JSON's NaN and Infinity, not "nan.0"
    vals = [-0.0, 5e-324, 1.5e12, 123456789012.5, math.nan, math.inf, -math.inf, 1.0, 0.25]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table({"x": vals}, argparse.Namespace(format="json", output="-"))
    assert out.getvalue() == json.dumps({"x": [float(f"{x:.12g}") for x in vals]}) + "\n"
    assert out.getvalue() == ('{"x": [-0.0, 5e-324, 1500000000000.0, 123456789012.0, NaN, '
                              'Infinity, -Infinity, 1.0, 0.25]}\n')


@pytest.mark.parametrize("bell", [[-1e-9, 0.5, 0.5, 1e-9], [1.000000001, 0.0, 0.0, -1e-9]],
                         ids=["lower", "upper"])
def test_spectrum_entries_are_accepted_up_to_the_input_slack(bell, capsys):
    # an entry on a bound of the CLI's [-1e-9, 1 + 1e-9] slack passes its range
    # check and reaches validate_spectrum, which rejects the -1e-9 entry; the
    # next float past the bound fails the range check (JSON, because argparse
    # takes an inline "-1e-9,..." for an option)
    assert main(["evolve", "--initial", json.dumps({"bell": bell}), "--steps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Bell spectrum has negative entry -1.000e-09\n"
    past = [float(np.nextafter(bell[0], math.copysign(math.inf, bell[0]))), *bell[1:]]
    assert main(["evolve", "--initial", json.dumps({"bell": past}), "--steps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: initial spectrum entries must lie in [0, 1], got {past!r}\n"
