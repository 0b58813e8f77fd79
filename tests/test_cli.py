import argparse
import hashlib
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from belldyn.cli import build_parser, main
from belldyn.correlations import bell_quantifiers, quantifier_report
from belldyn.dynamics import bell_spectrum_to_density

H09 = 0.4689955935892812


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
    ["evolve", "--g", "1e-320", "--steps", "2", "--tau-max", "1"],
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
    ["evolve", "--initial", '{"foo": 1}'],
    ["evolve", "--initial", "0.5,0.5,-1e-10,0"],
    ["evolve", "--initial", "{"],
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
], ids=["list", "broken-json", "directory"])
def test_bad_initial_state_file_exits_2_with_one_line(content, message, tmp_path, capsys):
    path = tmp_path / "initial"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content, encoding="utf-8")
    assert main(["evolve", "--initial", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


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
    # force a broken oracle to exercise the failure reporting path
    import belldyn.cli as cli
    from belldyn.oracle import OracleResult

    real = cli.oracle_closest_classical

    def broken(rhos, seed):
        return [OracleResult(res.minimizer, res.value + 0.01, res.evaluations, res.history)
                for res in real(rhos, seed)]

    monkeypatch.setattr(cli, "oracle_closest_classical", broken)
    out = tmp_path / "verify.json"
    assert main(["verify", "--initial", "0.9,0.1,0,0", "--output", str(out)]) == 4
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["passed"] is False
    assert data["families"]["classical"]["worst_state"] is not None
    assert "classical" in capsys.readouterr().err


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
    # verify --n 10 --seed 0: the oracle values keep the bits captured before
    # the oracles shared one refinement loop, the analytic values are those
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
    # one classical objective call for the restarts and one per lockstep
    # step of a chunk; refining state after state takes about 100 calls
    # per state (825 for these 8)
    import belldyn.cli as cli
    from belldyn import oracle

    calls = []
    real = oracle._classical_values_quads

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "_classical_values_quads", counted)
    assert main(["verify", "--n", "8"]) == 0
    chunks = -(-8 // cli._VERIFY_CHUNK)
    assert 0 < len(calls) <= chunks * (oracle.REFINEMENT_ITERATIONS + 1)
    capsys.readouterr()


def test_verify_classical_searches_stop_near_the_poles(capsys, monkeypatch):
    # restarts that walk to theta = 0 or pi used to keep the lockstep loop
    # running to the step cap: 201 calls for this chunk
    from belldyn import oracle

    calls = []
    real = oracle._classical_values_quads

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "_classical_values_quads", counted)
    assert main(["verify", "--n", "32", "--seed", "0"]) == 0
    assert len(calls) <= 150
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
