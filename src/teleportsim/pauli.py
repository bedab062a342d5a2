"""Pauli correction algebra: per-qubit factors, labeled products, tokens.

A correction is a product of single-qubit factors from {I, X, Z, ZX},
each attached to one qubit, together with a unit scalar phase. ZX means
"apply X, then Z". Factors on distinct qubits commute, so a PauliString
stores at most one factor per qubit.

Every factor product is a signed permutation of the computational basis,
as in a stabilizer tableau, so a string is applied by one index gather.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .qstate import (
    IDENTITY_GATE,
    PHASE_TOL,
    X_GATE,
    Z_GATE,
    ZX_GATE,
    StateVector,
    _state,
)


class PauliFactor(Enum):
    I = "I"
    X = "X"
    Z = "Z"
    ZX = "ZX"

    @property
    def matrix(self) -> np.ndarray:
        return _GATES[self].matrix

    @property
    def op_count(self) -> int:
        # ZX costs two elementary single-qubit operations, I costs none.
        return _OP_COUNTS[self]


_GATES = {
    PauliFactor.I: IDENTITY_GATE,
    PauliFactor.X: X_GATE,
    PauliFactor.Z: Z_GATE,
    PauliFactor.ZX: ZX_GATE,
}
_OP_COUNTS = {PauliFactor.I: 0, PauliFactor.X: 1, PauliFactor.Z: 1, PauliFactor.ZX: 2}
_PHASE_TOKENS = {"+1": 1, "-1": -1, "+i": 1j, "-i": -1j, "1": 1, "i": 1j}


# 1024 entries hold every factor string on a five-qubit register.
@functools.lru_cache(maxsize=1024)
def signed_permutation(factors: tuple[PauliFactor, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Index form of the product of `factors`, the first on the most
    significant qubit: (P a)[i] == sign[i] * a[perm[i]].

    Read off each factor's matrix (one +-1 entry per row), so the Z sign
    convention has its single home in qstate. Both arrays are read-only
    and shared between callers.
    """
    perm = np.zeros(1, dtype=np.intp)
    sign = np.ones(1)
    for f in factors:
        cols = np.argmax(np.abs(f.matrix), axis=1)
        vals = f.matrix[(0, 1), cols].real
        perm = (2 * perm[:, None] + cols).reshape(-1)
        sign = (sign[:, None] * vals).reshape(-1)
    perm.setflags(write=False)
    sign.setflags(write=False)
    return perm, sign


def canonical_factor(matrix: np.ndarray) -> tuple[PauliFactor, complex]:
    """Write a 2x2 matrix as phase * factor with factor in {I, X, Z, ZX}."""
    m = np.asarray(matrix, dtype=complex)
    for f in PauliFactor:
        ref = f.matrix
        k = int(np.argmax(np.abs(ref)))
        c = m.flat[k] / ref.flat[k]
        if abs(abs(c) - 1) < PHASE_TOL and np.allclose(m, c * ref, atol=PHASE_TOL):
            return f, complex(c)
    raise ValueError("matrix is not a unit multiple of a correction factor")


@dataclass(frozen=True)
class PauliString:
    """Phase times a product of factors on distinct qubits.

    `factors` keeps only non-identity entries, in a stable order; the
    identity correction is the empty product.
    """

    factors: tuple[tuple[str, PauliFactor], ...] = ()
    phase: complex = field(default=1.0 + 0j)

    def __post_init__(self):
        qubits = [q for q, _ in self.factors]
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit in factors {self.factors}")
        if any(f is PauliFactor.I for _, f in self.factors):
            raise ValueError("identity factors must be omitted, not stored")

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, PauliFactor]], phase: complex = 1.0
    ) -> "PauliString":
        kept = tuple((q, f) for q, f in pairs if f is not PauliFactor.I)
        return cls(kept, complex(phase))

    @functools.cached_property
    def op_count(self) -> int:
        # Cached: a message's correction is built once and shared by sessions.
        return sum(f.op_count for _, f in self.factors)

    @property
    def qubits(self) -> tuple[str, ...]:
        return tuple(q for q, _ in self.factors)

    def factor_for(self, qubit: str) -> PauliFactor:
        for q, f in self.factors:
            if q == qubit:
                return f
        return PauliFactor.I

    def gather(self, order: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The string's one array form on the qubit order (first = MSB), the
        phase folded into the signs: (P a)[i] == signs[i] * a[perm[i]]."""
        by_qubit = dict(self.factors)
        # A factor outside the register must raise, not vanish from the gather.
        for q in by_qubit:
            if q not in order:
                raise ValueError(f"unknown qubit {q!r}; register is {tuple(order)}")
        perm, sign = signed_permutation(tuple(by_qubit.get(q, PauliFactor.I) for q in order))
        return perm, sign * self.phase

    def apply(self, state: StateVector) -> StateVector:
        perm, signs = self.gather(state.qubits)
        return _state(state.qubits, state.amps[perm] * signs)

    def matrix(self, qubit_order: Sequence[str]) -> np.ndarray:
        """Full operator on the given qubit ordering (first qubit = MSB)."""
        out = np.array([[self.phase]], dtype=complex)
        for q in qubit_order:
            out = np.kron(out, self.factor_for(q).matrix)
        return out

    def tokens(self) -> str:
        parts = []
        if self.phase != 1:
            for tok, val in (("-1", -1), ("+i", 1j), ("-i", -1j)):
                if abs(self.phase - val) < PHASE_TOL:
                    parts.append(tok)
                    break
            else:
                raise ValueError(f"phase {self.phase} has no token form")
        parts.extend(f"{f.value}@{q}" for q, f in self.factors)
        if not self.factors:
            parts.append("I")
        return " ".join(parts)


def parse_pauli_tokens(text: str) -> PauliString:
    """Parse tokens like 'Z@b1 X@b2'. Tokens apply right-to-left; repeated
    factors on one qubit are composed and canonicalized, with the resulting
    sign folded into the phase. A leading +1/-1/+i/-i token sets the phase."""
    phase = complex(1.0)
    mats: dict[str, np.ndarray] = {}
    order: list[str] = []
    for tok in text.split():
        if tok in _PHASE_TOKENS:
            phase *= _PHASE_TOKENS[tok]
            continue
        if tok == "I":
            continue
        name, _, qubit = tok.partition("@")
        if not qubit or name not in PauliFactor.__members__:
            raise ValueError(f"bad correction token {tok!r}")
        if qubit not in mats:
            mats[qubit] = np.eye(2, dtype=complex)
            order.append(qubit)
        # Written left-to-right, applied right-to-left: accumulate on the right.
        mats[qubit] = mats[qubit] @ PauliFactor[name].matrix
    pairs = []
    for q in order:
        f, c = canonical_factor(mats[q])
        phase *= c
        if f is not PauliFactor.I:
            pairs.append((q, f))
    return PauliString(tuple(pairs), phase)
