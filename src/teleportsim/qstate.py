"""Dense complex state-vector core over labeled qubits.

States are immutable values: every operation returns a new StateVector.
The first registered qubit is the most significant bit of the amplitude
index, so amps[0b10] of a register (q1, q2) is the amplitude of
|1>_q1 |0>_q2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12
# Below this probability a projection branch is reported as impossible
# instead of being renormalized into a garbage remainder.
IMPOSSIBLE_PROB = 1e-14
FIDELITY_TOL = 1e-12  # the paper's contract: every corrected branch reaches 1 - this
PHASE_TOL = 1e-9  # phases and Pauli entries are exactly 0, +-1 or +-i up to rounding
PROB_SUM_TOL = 1e-9  # branch probabilities summing further from 1 mean a bug
SOLVE_TOL = 1e-9  # a correct candidate reaches 1 - this; a wrong one scores 0 on some fiducial
EXIT_FIDELITY_TOL = 1e-9  # the CLI's failure line: broken corrections fall far below it
MAX_QUBITS = 16


class StateFormatError(ValueError):
    """Malformed state literal text."""


@dataclass(frozen=True)
class SingleQubitGate:
    """A named 2x2 unitary."""

    name: str
    matrix: np.ndarray

    @classmethod
    def custom(cls, name: str, matrix) -> "SingleQubitGate":
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"gate {name!r} must be 2x2, got shape {m.shape}")
        if not np.allclose(m.conj().T @ m, np.eye(2), atol=NORM_TOL):
            raise ValueError(f"gate {name!r} is not unitary")
        m = m.copy()
        m.setflags(write=False)
        return cls(name, m)


IDENTITY_GATE = SingleQubitGate.custom("I", [[1, 0], [0, 1]])
X_GATE = SingleQubitGate.custom("X", [[0, 1], [1, 0]])
# Sign convention: Z flips |0>, not |1>. This equals the textbook sigma_z
# up to a global phase, which no fidelity can see, but printed output
# signs depend on it.
Z_GATE = SingleQubitGate.custom("Z", [[-1, 0], [0, 1]])
# "Apply X, then Z" composed into a single factor.
ZX_GATE = SingleQubitGate.custom("ZX", Z_GATE.matrix @ X_GATE.matrix)


@dataclass(frozen=True, eq=False, slots=True)
class StateVector:
    """Normalized pure state over an ordered tuple of qubit labels."""

    qubits: tuple[str, ...]
    amps: np.ndarray

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def axis(self, qubit: str) -> int:
        try:
            return self.qubits.index(qubit)
        except ValueError:
            raise ValueError(f"unknown qubit {qubit!r}; register is {self.qubits}") from None

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the computational basis state written as a bit string."""
        if len(bits) != self.n_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"need {self.n_qubits} bits, got {bits!r}")
        return complex(self.amps[int(bits, 2)]) if bits else complex(self.amps[0])


def _state(qubits: Iterable[str], amps: np.ndarray) -> StateVector:
    # Trusted constructor: amps is already a validated, normalized, 1-D
    # C-contiguous complex array that no caller writes to again.
    amps.setflags(write=False)
    return StateVector(tuple(qubits), amps)


def make_state(qubits: Sequence[str], amps) -> StateVector:
    """Build a normalized StateVector, validating shape and finiteness."""
    qubits = tuple(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit labels in {qubits}")
    if len(qubits) > MAX_QUBITS:
        raise ValueError(f"register of {len(qubits)} qubits exceeds the {MAX_QUBITS}-qubit cap")
    # Copy: strided views (e.g. amps[0::2]) must not leak into the state,
    # and the float reinterpretation below needs a contiguous buffer.
    a = np.array(amps, dtype=complex).reshape(-1)
    if a.shape[0] != 2 ** len(qubits):
        raise ValueError(
            f"expected {2 ** len(qubits)} amplitudes for {len(qubits)} qubits, got {a.shape[0]}"
        )
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("amplitudes must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    if not np.isfinite(norm):
        raise ValueError("amplitudes too large to normalize: the norm overflows")
    if norm == 0:
        raise ValueError("cannot normalize a zero state vector")
    if norm < NORM_TOL:
        raise ValueError(
            f"amplitudes too small to normalize: the norm {norm:.3g} is below NORM_TOL"
        )
    return _state(qubits, a / norm)


def computational_basis_state(qubits: Sequence[str], index: int | str) -> StateVector:
    """Basis state |index>; index may be an int or a bit string."""
    n = len(qubits)
    if isinstance(index, str):
        if len(index) != n or set(index) - {"0", "1"}:
            raise ValueError(f"basis bit string {index!r} needs exactly {n} bits, each 0 or 1")
        i = int(index, 2) if index else 0
    else:
        i = int(index)
    if not 0 <= i < 2 ** n:
        raise ValueError(f"basis index {index!r} out of range for {n} qubits")
    a = np.zeros(2 ** n, dtype=complex)
    a[i] = 1.0
    return make_state(qubits, a)


def with_labels(state: StateVector, labels: Sequence[str]) -> StateVector:
    """Same amplitudes under new qubit labels (positional relabeling)."""
    labels = tuple(labels)
    if len(labels) != state.n_qubits:
        raise ValueError(f"need {state.n_qubits} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate qubit labels in {labels}")
    return _state(labels, state.amps)


def random_state(qubits: Sequence[str], rng: np.random.Generator) -> StateVector:
    """Haar-distributed pure state over the given qubits."""
    if rng is None:
        raise ValueError("a seeded random generator is required")
    dim = 2 ** len(qubits)
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return make_state(qubits, a)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; a's qubits stay most significant."""
    overlap = set(a.qubits) & set(b.qubits)
    if overlap:
        raise ValueError(f"registers overlap on {sorted(overlap)}")
    if a.n_qubits + b.n_qubits > MAX_QUBITS:
        raise ValueError(
            f"combined register of {a.n_qubits + b.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit cap"
        )
    # The outer product is np.kron's own broadcast multiply for 1-D
    # inputs, without its wrapper: the same bits.
    return _state(a.qubits + b.qubits, np.multiply.outer(a.amps, b.amps).reshape(-1))


def apply_gate(state: StateVector, gate: SingleQubitGate, target: str) -> StateVector:
    """Apply a single-qubit unitary to the target qubit."""
    axis = state.axis(target)
    t = state.amps.reshape([2] * state.n_qubits)
    t = np.tensordot(gate.matrix, t, axes=([1], [axis]))
    t = np.moveaxis(t, 0, axis)
    return _state(state.qubits, t.reshape(-1))


def reorder(state: StateVector, new_order: Sequence[str]) -> StateVector:
    """Permute the register so its qubits appear in new_order."""
    new_order = tuple(new_order)
    if len(new_order) != state.n_qubits or set(new_order) != set(state.qubits):
        raise ValueError(f"{new_order} is not a permutation of {state.qubits}")
    if new_order == state.qubits:
        return state
    axes = list(map(state.qubits.index, new_order))
    t = state.amps.reshape([2] * state.n_qubits).transpose(axes)
    return _state(new_order, t.reshape(-1))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 between states over the same qubit set, in any order."""
    if sorted(a.qubits) != sorted(b.qubits):
        raise ValueError(f"qubit sets differ: {a.qubits} vs {b.qubits}")
    if a.qubits != b.qubits:
        b = reorder(b, a.qubits)
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def project_qubits(
    state: StateVector, targets: Sequence[str], onto: np.ndarray
) -> tuple[float, StateVector | None]:
    """Project the target qubits onto `onto`, normalized amplitudes over
    `targets` in that order (targets[0] most significant).

    Returns (probability, normalized remainder over the remaining qubits).
    The remainder is None when the probability is below IMPOSSIBLE_PROB,
    marking the branch as impossible. Projecting every qubit leaves an
    empty (zero-qubit) remainder carrying only a phase.

    This is np.tensordot's own contraction, one row product against the
    register with the targets moved to the front, without its wrapper.
    When the targets already lead or trail the register the move is a
    view, so callers projecting one register several times reorder it once.
    Leading targets are read as that same view directly, with no axis scan.
    """
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate projection targets in {targets}")
    k = len(targets)
    if np.shape(onto) != (2 ** k,):
        raise ValueError(f"projector has shape {np.shape(onto)}, not ({2 ** k},)")
    if state.qubits[:k] == targets:
        t = state.amps.reshape(2 ** k, -1)
        keep = state.qubits[k:]
    else:
        axes = [state.axis(q) for q in targets]
        rest = [i for i in range(state.n_qubits) if i not in axes]
        t = state.amps.reshape([2] * state.n_qubits).transpose(axes + rest).reshape(2 ** k, -1)
        keep = tuple(state.qubits[i] for i in rest)
    rem = np.dot(np.conj(onto), t)
    prob = float(np.vdot(rem, rem).real)
    if prob < IMPOSSIBLE_PROB:
        return prob, None
    # np.dot's product is fresh, so it is normalized in place. Division's
    # bits at a fraction of its cost: the two differ only on a -0.0 part,
    # and np.dot's sums are never -0.0.
    rem *= 1.0 / math.sqrt(prob)
    return prob, _state(keep, rem)


# --- state literal format -------------------------------------------------
#
# Line 1: qubit labels in register order, whitespace separated.
# Then one "re,im" amplitude per line, basis index ascending.
# Blank lines and lines starting with '#' are ignored.


def format_state_literal(state: StateVector) -> str:
    lines = [" ".join(state.qubits)]
    for c in state.amps:
        # Plain float repr round-trips exactly; numpy scalar repr does not parse.
        lines.append(f"{float(c.real)!r},{float(c.imag)!r}")
    return "\n".join(lines) + "\n"


def parse_state_literal(text: str) -> StateVector:
    rows = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if not rows:
        raise StateFormatError("empty state literal")
    labels = tuple(rows[0][1].split())
    expected = 2 ** len(labels)
    amps = []
    for lineno, row in rows[1:]:
        if len(amps) == expected:
            raise StateFormatError(f"line {lineno}: unexpected extra amplitude row {row!r}")
        parts = row.split(",")
        if len(parts) != 2:
            raise StateFormatError(f"line {lineno}: expected 're,im', got {row!r}")
        try:
            amps.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise StateFormatError(f"line {lineno}: non-numeric amplitude {row!r}") from None
    if len(amps) < expected:
        raise StateFormatError(
            f"truncated literal: missing amplitude for index {len(amps)} "
            f"(expected {expected} rows for {len(labels)} qubits)"
        )
    try:
        return make_state(labels, amps)
    except ValueError as e:
        raise StateFormatError(str(e)) from None
