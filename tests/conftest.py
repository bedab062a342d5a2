"""Shared strategies and helpers for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from teleportsim.qstate import make_state

TOL = 1e-12


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
