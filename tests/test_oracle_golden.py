"""Every bit of every oracle result, pinned.

`tests/data/oracle_golden.json` holds, per case, the sha256 of the
`value`, `evaluations`, `minimizer` and `history` bytes of one
`OracleResult`, captured before the oracles ran their restarts in
lockstep and built their state-independent grid work once. The 38
`*/classical/*` entries were re-captured when the classical direction grid
was cut to one hemisphere per qubit (u and -u define the same basis):
`evaluations` fell by 261,551 grid pairs, and the grid start may land on
the antipode of the old one; the separable and product entries kept their
bytes. They were re-captured a second time when the classical refinement
began to step each phi by arc length, width / max(|sin theta|, width):
searches near a pole now stop early, 36 of the 38 entries moved (the
maximally mixed state's two did not), no value rose by more than 4.4e-16
bits, and the summed `evaluations` fell from 3,490,066 to 3,261,026; the
separable and product entries again kept their bytes. They were
re-captured a third time when the refinement began to score its 80
offsets on 9 + 9 directions per step, with kappa from one 9 x 9 matrix
product instead of an einsum per offset: 15 of the 38 entries moved, 4
values moved, none by more than 4.4e-16 bits, and the summed
`evaluations` went from 3,261,026 to 3,260,706; the separable and product
entries kept their bytes. The 19 `*/product` entries were re-captured when
the product oracle began to score its grid and refinement candidates in
Bloch form, from sigma's closed-form eigenpairs, instead of through a 4 x 4
eigendecomposition per candidate: 18 of them moved (the maximally mixed
state's did not), no value moved by more than 2.7e-15 bits (each
Bell-diagonal value moved up to within 4.4e-16 of T), and the summed
`evaluations` fell from 33,759 to 32,979; no classical or separable entry
moved. The 16 `*/separable` entries were re-captured when the separable
oracle dropped its simplex grid, to search the convex slice from its centre
q = 1/4 with width 1/4, and its slice check became exact (0 <= q <= 1/2, no
1e-12 slack and no clip): all 16 moved, no value moved by more than 1.4e-16
bits, and the summed `evaluations` fell from 2,143,840 to 24,638; no
classical or product entry moved.

The 19 `*/product` entries were re-captured a second time when the product
oracle dropped its 1,089-point lattice, to search both Bloch balls from
their centre rA = rB = 0 with width 1: all 19 moved, through `evaluations`
and the length of `history` only; no value or minimizer moved by a single
bit (the largest value move is 0 bits), and the summed `evaluations` fell
from 32,979 to 12,607; no classical or separable entry moved.

The 38 `*/classical/seed{0,3}` entries became 19 `*/classical` entries
when the classical oracle dropped its `seed` and its two random restarts,
to refine the grid's best cell and, when it scores within 3e-2 bits of
that, the grid's best cell over 60 degrees from it on a qubit: all 19
moved against both seeds. Against seed 0, 6 values moved, the largest by
3.1e-15 bits (`fig`, up); against seed 3, 7 moved, the largest by 6.7e-16
bits. The summed `evaluations` fell from 1,628,713 (seed 0) and 1,631,993
(seed 3) to 1,433,875; no separable or product entry moved.

Any change to the search order, the grids or the relative-entropy kernel
that moves a single bit fails here. `python tests/test_oracle_golden.py`
prints the digests of the current code as JSON.
"""

import hashlib
import json
import pathlib
from functools import partial

import numpy as np

from belldyn.dynamics import bell_spectrum_to_density
from belldyn.oracle import (
    oracle_closest_classical,
    oracle_closest_product,
    oracle_closest_separable_bd,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "oracle_golden.json"

EDGE_SPECTRA = {
    "fig": [0.9, 0.1, 0.0, 0.0],
    "pure": [1.0, 0.0, 0.0, 0.0],
    "mixed": [0.25, 0.25, 0.25, 0.25],
    "half": [0.5, 0.5, 0.0, 0.0],
}


def _spectra():
    rng = np.random.default_rng(2024)
    out = {f"bd{k:02d}": rng.dirichlet(np.ones(4)) for k in range(12)}
    out.update({name: np.array(lam) for name, lam in EDGE_SPECTRA.items()})
    return out


def _general_states():
    rng = np.random.default_rng(77)
    out = {}
    for rank in (4, 3, 2):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        out[f"rank{rank}"] = rho / np.trace(rho).real
    return out


def _cases():
    states = {name: (bell_spectrum_to_density(lam), lam) for name, lam in _spectra().items()}
    states.update({name: (rho, None) for name, rho in _general_states().items()})
    for name, (rho, lam) in states.items():
        yield f"{name}/classical", partial(oracle_closest_classical, [rho])
        if lam is not None:
            yield f"{name}/separable", partial(oracle_closest_separable_bd, [lam])
        yield f"{name}/product", partial(oracle_closest_product, [rho])


def _digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.float64(res.value).tobytes())
    h.update(np.int64(res.evaluations).tobytes())
    for arr in (res.minimizer, res.history):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _digests() -> dict:
    return {name: _digest(run()[0]) for name, run in _cases()}


def test_oracle_results_are_bit_identical_to_the_golden_capture():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _digests()
    assert sorted(got) == sorted(golden)
    moved = [name for name in golden if got[name] != golden[name]]
    assert moved == []



def _batched_digests(names, states, spectra) -> dict:
    # one call of each oracle on all the named states, in order
    rhos = [states[name] for name in names]
    bd = [name for name in names if name in spectra]
    got = {}
    results = oracle_closest_classical(rhos)
    got.update({f"{name}/classical": _digest(r) for name, r in zip(names, results)})
    results = oracle_closest_separable_bd([spectra[name] for name in bd])
    got.update({f"{name}/separable": _digest(r) for name, r in zip(bd, results)})
    results = oracle_closest_product(rhos)
    got.update({f"{name}/product": _digest(r) for name, r in zip(names, results)})
    return got


def test_batched_entry_points_match_the_golden_capture():
    # every golden state in one batch, forwards and backwards: a state's
    # bits depend neither on its batch-mates nor on its place in the batch
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    spectra = _spectra()
    states = {name: bell_spectrum_to_density(lam) for name, lam in spectra.items()}
    states.update(_general_states())
    for names in (list(states), list(states)[::-1]):
        got = _batched_digests(names, states, spectra)
        assert sorted(got) == sorted(golden)
        assert [name for name in golden if got[name] != golden[name]] == []


if __name__ == "__main__":
    print(json.dumps(_digests(), indent=1, sort_keys=True))
