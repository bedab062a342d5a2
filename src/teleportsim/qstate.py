"""Dense complex state-vector core over labeled qubits.

States are immutable values: every operation returns a new StateVector.
The first registered qubit is the most significant bit of the amplitude
index, so amps[0b10] of a register (q1, q2) is the amplitude of
|1>_q1 |0>_q2.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12  # norms, and probability sums: a measured state's squared norm
# Below this probability a projection branch is reported as impossible
# instead of being renormalized into a garbage remainder.
IMPOSSIBLE_PROB = 1e-14
FIDELITY_TOL = 1e-12  # every fidelity: the paper's contract, table validation, solver fits
MAX_QUBITS = 16
# np.vdot's C routine without the array-function dispatcher (NEP 18): the
# same routine on the same arguments, so the same bits.
_vdot = np.vdot._implementation


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


@dataclass(frozen=True, eq=False, slots=True)
class StateVector:
    """Normalized pure state over an ordered tuple of qubit labels."""

    qubits: tuple[str, ...]
    amps: np.ndarray

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)


def _as_index(value, what: str) -> int:
    """An integer argument as an int: a NumPy integer or a bool passes, never a truncated float."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _basis_index(bits: str, n: int) -> int:
    """The amplitude index an n-bit string names, first bit most significant."""
    if len(bits) != n or set(bits) - {"0", "1"}:
        raise ValueError(f"basis bit string {bits!r} needs exactly {n} bits, each 0 or 1")
    return int(bits, 2) if bits else 0


_set_qubits, _set_amps = StateVector.qubits.__set__, StateVector.amps.__set__


def _state(qubits: Iterable[str], amps: np.ndarray) -> StateVector:
    # Trusted constructor: amps is already a validated, normalized, 1-D
    # C-contiguous complex array that no caller writes to again. The slots
    # are filled directly, without the frozen __init__'s per-field setattr.
    amps.setflags(write=False)
    state = object.__new__(StateVector)
    _set_qubits(state, tuple(qubits))
    _set_amps(state, amps)
    return state


def _check_register(qubits: Sequence[str], error: type[ValueError] = ValueError) -> tuple:
    """The register as a tuple, its labels distinct and within the cap; called before any amplitude."""
    qubits = tuple(qubits)
    if len(set(qubits)) != len(qubits):
        raise error(f"duplicate qubit labels in {qubits}")
    if len(qubits) > MAX_QUBITS:
        raise error(f"register of {len(qubits)} qubits exceeds the {MAX_QUBITS}-qubit cap")
    return qubits


def make_state(qubits: Sequence[str], amps) -> StateVector:
    """Build a normalized StateVector, validating shape and finiteness."""
    qubits = _check_register(qubits)
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
    _check_register(qubits)
    n = len(qubits)
    i = _basis_index(index, n) if isinstance(index, str) else _as_index(index, "basis index")
    if not 0 <= i < 2 ** n:
        raise ValueError(f"basis index {index!r} out of range for {n} qubits")
    a = np.zeros(2 ** n, dtype=complex)
    a[i] = 1.0
    return make_state(qubits, a)


def with_labels(state: StateVector, labels: Sequence[str]) -> StateVector:
    """Same amplitudes under new qubit labels (positional relabeling)."""
    if len(labels) != state.n_qubits:
        raise ValueError(f"need {state.n_qubits} labels, got {len(labels)}")
    return _state(_check_register(labels), state.amps)


def random_state(qubits: Sequence[str], rng: np.random.Generator) -> StateVector:
    """Haar-distributed pure state over the given qubits."""
    if rng is None:
        raise ValueError("a seeded random generator is required")
    _check_register(qubits)
    dim = 2 ** len(qubits)
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return make_state(qubits, a)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; a's qubits stay most significant."""
    qubits = _check_register(a.qubits + b.qubits)
    # The outer product is np.kron's own broadcast multiply for 1-D
    # inputs, without its wrapper: the same bits.
    return _state(qubits, np.multiply.outer(a.amps, b.amps).reshape(-1))


def apply_gate(state: StateVector, gate: SingleQubitGate, target: str) -> StateVector:
    """Apply a single-qubit unitary to the target qubit."""
    _targets_first(state.qubits, (target,))  # the one unknown-qubit check
    axis = state.qubits.index(target)
    t = state.amps.reshape([2] * state.n_qubits)
    t = np.tensordot(gate.matrix, t, axes=([1], [axis]))
    t = np.moveaxis(t, 0, axis)
    return _state(state.qubits, t.reshape(-1))


@functools.lru_cache(maxsize=256)
def _transpose(qubits: tuple[str, ...], new_order: tuple[str, ...]) -> tuple[tuple, tuple]:
    """reorder's (shape, axes), keyed by labels only; a raise is not cached."""
    if len(new_order) != len(qubits) or set(new_order) != set(qubits):
        raise ValueError(f"{new_order} is not a permutation of {qubits}")
    return (2,) * len(qubits), tuple(map(qubits.index, new_order))


@functools.lru_cache(maxsize=256)
def _targets_first(qubits: tuple[str, ...], targets: tuple[str, ...]) -> tuple[str, ...]:
    """The register order with the distinct targets, in their order, in front; a raise is not cached."""
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate projection targets in {targets}")
    for q in targets:
        if q not in qubits:
            raise ValueError(f"unknown qubit {q!r}; register is {qubits}")
    return targets + tuple(q for q in qubits if q not in targets)


def reorder(state: StateVector, new_order: Sequence[str]) -> StateVector:
    """Permute the register so its qubits appear in new_order."""
    new_order = tuple(new_order)
    if new_order == state.qubits:
        return state
    shape, axes = _transpose(state.qubits, new_order)
    return _state(new_order, state.amps.reshape(shape).transpose(axes).reshape(-1))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 between states over the same qubit set, in any order."""
    b = reorder(b, a.qubits)
    return float(abs(_vdot(a.amps, b.amps)) ** 2)


def project_qubits(
    state: StateVector, targets: Sequence[str], bra: np.ndarray
) -> tuple[float, StateVector | None]:
    """Contract the target qubits with `bra`, the already conjugated row
    <phi| of a normalized state over `targets` in that order (targets[0]
    most significant). To project onto a ket |phi>, pass phi.conj().

    Returns (probability, normalized remainder over the remaining qubits).
    The remainder is None when the probability is below IMPOSSIBLE_PROB,
    marking the branch as impossible. Projecting every qubit leaves an
    empty (zero-qubit) remainder carrying only a phase.

    This is np.tensordot's own contraction, one row product against the
    register with the targets moved to the front, without its wrapper.
    When the targets already lead or trail the register the move is a
    view, so callers projecting one register several times reorder it once.
    Leading targets are read as that same view; others move in _targets_first order.
    """
    targets = tuple(targets)
    qubits = state.qubits
    k = len(targets)
    if bra.shape != (2 ** k,):
        raise ValueError(f"bra has shape {bra.shape}, not ({2 ** k},)")
    # Leading targets are distinct, as every register's labels are; any
    # other targets are checked for repeats in _targets_first.
    if qubits[:k] == targets:
        t = state.amps.reshape(2 ** k, -1)
        keep = qubits[k:]
    else:
        order = _targets_first(qubits, targets)
        shape, axes = _transpose(qubits, order)
        t = state.amps.reshape(shape).transpose(axes).reshape(2 ** k, -1)
        keep = order[k:]
    # ndarray.dot is np.dot's C routine without the dispatcher: the same bits.
    rem = bra.dot(t)
    prob = float(_vdot(rem, rem).real)
    if prob < IMPOSSIBLE_PROB:
        return prob, None
    # The product is fresh, so it is normalized in place. Division's bits
    # at a fraction of its cost: the two differ only on a -0.0 part, and
    # the product's sums are never -0.0.
    rem *= 1.0 / math.sqrt(prob)
    return prob, _state(keep, rem)


# --- state literal format -------------------------------------------------
#
# Line 1: qubit labels in register order, whitespace separated.
# Then one "re,im" amplitude per line, basis index ascending.
# Blank lines and lines starting with '#' are ignored.


def parse_state_literal(text: str) -> StateVector:
    rows = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if not rows:
        raise StateFormatError("empty state literal")
    labels = _check_register(rows[0][1].split(), StateFormatError)  # before any row is read
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
