"""The public surface of the package: any change to it is deliberate."""

import ast
import pathlib
import re
import types

import belldyn

PUBLIC_NAMES = {
    # correlations
    "bell_quantifiers", "c_vector_of_spectrum", "closest_classical_bd", "closest_product",
    "closest_separable_spectrum",
    # dynamics
    "BELL_RESIDUAL_TOL", "ancilla_evolve", "bell_spectrum_of", "bell_spectrum_to_density",
    "branch_unitary", "evolve_bell_spectrum", "mixing_fraction", "single_qubit_map",
    "two_qubit_map",
    # nonmarkov
    "ancilla_entanglement", "composition_violation", "detect_death_revival",
    "detect_frozen_intervals", "detect_switching_times", "nonmarkovianity_measure",
    # oracle
    "OracleResult", "oracle_closest_classical", "oracle_closest_product",
    "oracle_closest_separable_bd",
}

#: the public top-level functions and classes each module defines, 37 in all
PUBLIC_DEFINITIONS = {
    "cli": {"AnalyticPathError", "InputError", "build_parser", "cmd_composition",
            "cmd_nonmarkov", "cmd_trajectory", "cmd_verify", "load_initial", "main", "run"},
    "correlations": {"CorrelationReport", "bell_quantifiers", "c_vector_of_spectrum",
                     "closest_classical_bd", "closest_product", "closest_separable_spectrum",
                     "quantifier_report"},
    "dynamics": {"ancilla_evolve", "bell_spectrum_of", "bell_spectrum_to_density",
                 "branch_unitary", "evolve_bell_spectrum", "mixing_fraction",
                 "single_qubit_map", "two_qubit_map", "validate_spectrum"},
    "linalg": {"check_density"},
    "nonmarkov": {"ancilla_entanglement", "composition_violation", "detect_death_revival",
                  "detect_frozen_intervals", "detect_switching_times",
                  "nonmarkovianity_measure"},
    "oracle": {"OracleResult", "oracle_closest_classical", "oracle_closest_product",
               "oracle_closest_separable_bd"},
}


def test_public_names_are_pinned():
    # submodules become attributes once imported; they are not exports
    exported = {name for name, value in vars(belldyn).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_public_definitions_are_pinned():
    # the `def` and `class` statements at the top of each module's source, so
    # a decorated function counts and an imported name does not
    package = pathlib.Path(belldyn.__file__).parent
    assert {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"} == set(PUBLIC_DEFINITIONS)
    for module, names in PUBLIC_DEFINITIONS.items():
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")}
        assert defined == names, module
    assert sum(map(len, PUBLIC_DEFINITIONS.values())) == 37


def test_readme_python_blocks_run():
    # every python example of the README runs as written, each on its own, so
    # the documented calls cannot drift from the code
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(readme), "exec"), {})

