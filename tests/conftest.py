"""Shared strategies and helpers for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from teleportsim.qstate import _basis_index, make_state

TOL = 1e-12

# The factors Z^z X^x as dense 2x2 matrices, by name: a reference built apart
# from the package's index forms. Z flips |0>, not |1>: the package's sign
# convention, which printed output signs depend on. ZX is "apply X, then Z".
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[-1, 0], [0, 1]], dtype=complex)
GATES = {"I": np.eye(2, dtype=complex), "X": _X, "Z": _Z, "ZX": _Z @ _X}


def dense(p, order) -> np.ndarray:
    """A PauliString's full operator on `order` (first qubit = MSB), the
    Kronecker product of GATES; a factor outside `order` raises, not vanishes."""
    by_qubit = {q: f.value for q, f in p.factors}
    if not set(by_qubit) <= set(order):
        raise ValueError(f"{p.tokens()} has a factor outside {order}")
    out = np.array([[p.phase]], dtype=complex)
    for q in order:
        out = np.kron(out, GATES[by_qubit.get(q, "I")])
    return out


def amplitude(state, bits: str) -> complex:
    """The state's amplitude on the basis state written as a bit string."""
    return complex(state.amps[_basis_index(bits, state.n_qubits)])


def format_literal(state) -> str:
    """The state literal parse_state_literal reads: labels, then one "re,im" row per amplitude."""
    lines = [" ".join(state.qubits)]
    for c in state.amps:
        # Plain float repr round-trips exactly; numpy scalar repr does not parse.
        lines.append(f"{float(c.real)!r},{float(c.imag)!r}")
    return "\n".join(lines) + "\n"


def labels(n: int, prefix: str = "q") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


def rand_state(rng: np.random.Generator, n: int, prefix: str = "q"):
    dim = 2 ** n
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return make_state(labels(n, prefix), a)


@st.composite
def state_vectors(draw, min_qubits: int = 1, max_qubits: int = 3, prefix: str = "q"):
    n = draw(st.integers(min_qubits, max_qubits))
    dim = 2 ** n
    finite = st.floats(-1, 1, allow_nan=False, allow_infinity=False, width=32)
    re = draw(st.lists(finite, min_size=dim, max_size=dim))
    im = draw(st.lists(finite, min_size=dim, max_size=dim))
    a = np.array(re) + 1j * np.array(im)
    if np.linalg.norm(a) < 1e-3:
        a = a + 1.0  # keep away from the zero vector
    return make_state(labels(n, prefix), a)


@st.composite
def unitaries_2x2(draw):
    # Rotation parameterization: always exactly unitary.
    theta = draw(st.floats(0, math.pi, allow_nan=False))
    phi = draw(st.floats(0, 2 * math.pi, allow_nan=False))
    lam = draw(st.floats(0, 2 * math.pi, allow_nan=False))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
