"""Bell basis, Bell-pair resources, and projective Bell measurement."""
from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .qstate import (NORM_TOL, StateVector, _check_register, _state, _targets_first,
                     make_state, project_qubits, reorder)

_S = 1 / math.sqrt(2)


class BellState(Enum):
    """The four Bell states. Declaration order fixes the canonical outcome
    order and the 2-bit classical codes: psi- -> 00, psi+ -> 01,
    phi- -> 10, phi+ -> 11."""

    PSI_MINUS = "psi-"
    PSI_PLUS = "psi+"
    PHI_MINUS = "phi-"
    PHI_PLUS = "phi+"

    # Members are singletons compared by identity, so the identity hash is
    # enough, and C-level: Enum's own __hash__ is Python code on every lookup.
    __hash__ = object.__hash__

    @property
    def bits(self) -> str:
        return _BITS[self]

    @property
    def amplitudes(self) -> np.ndarray:
        return _AMPLITUDES[self]


_ORDER = list(BellState)
_BITS = {kind: format(i, "02b") for i, kind in enumerate(_ORDER)}
# Validated and normalized once, here: make_state's rows differ from the
# raw _S rows by an ulp, and every pair and projection uses these bits.
_AMPLITUDES = {
    kind: make_state(("a", "b"), row).amps
    for kind, row in {
        BellState.PSI_MINUS: [0, _S, -_S, 0],
        BellState.PSI_PLUS: [0, _S, _S, 0],
        BellState.PHI_MINUS: [_S, 0, 0, -_S],
        BellState.PHI_PLUS: [_S, 0, 0, _S],
    }.items()
}


@functools.lru_cache(maxsize=1)
def _bras() -> tuple[tuple[BellState, np.ndarray], ...]:
    """(outcome, bra) in canonical order: each _AMPLITUDES row conjugated
    once, read-only, as project_qubits takes it."""
    bras = tuple((kind, _AMPLITUDES[kind].conj()) for kind in _ORDER)
    for _, bra in bras:
        bra.setflags(write=False)
    return bras


def encode(kinds: Iterable[BellState]) -> str:
    """The classical message for a sequence of outcomes: two bits each, in order."""
    return "".join(map(_BITS.__getitem__, kinds))


def decode(code: str) -> tuple[BellState, ...]:
    """The outcome sequence a message names; the inverse of encode."""
    if len(code) % 2 or set(code) - {"0", "1"}:
        raise ValueError(f"bad outcome code {code!r}: need an even-length bit string")
    return tuple(_ORDER[int(code[i : i + 2], 2)] for i in range(0, len(code), 2))


def messages(n: int) -> list[str]:
    """All 4^n messages of width n in canonical order, the codes ascending."""
    return [encode(s) for s in itertools.product(BellState, repeat=n)]


def bell_pair(kind: BellState, a: str, b: str) -> StateVector:
    """A fresh Bell pair of the given kind on qubits (a, b)."""
    return _state(_check_register((a, b)), kind.amplitudes)


def measure_bell_branches(
    state: StateVector, pair: Sequence[str]
) -> list[tuple[BellState, float, StateVector | None]]:
    """All four Bell branches of measuring the pair, in canonical order, as
    (outcome, probability, remainder); the remainder is None when the
    branch is impossible.

    The measured pair is consumed: remainders live on the remaining qubits.
    Branch probabilities always sum to 1. The pair is moved to the front
    once, so the four projections share one transposed copy.
    """
    pair = tuple(pair)
    if len(pair) != 2:
        raise ValueError(f"a Bell measurement needs a pair of qubits, got {pair}")
    # A leading or trailing pair needs no copy: project_qubits contracts it
    # in place, and a copy of a trailing one would change the last bits.
    if pair != state.qubits[:2] and pair != state.qubits[-2:]:
        state = reorder(state, _targets_first(state.qubits, pair))
    branches = []
    total = 0.0
    for kind, bra in _bras():
        prob, rem = project_qubits(state, pair, bra)
        total += prob
        branches.append((kind, prob, rem))
    # Written so that a NaN sum fails too.
    if not abs(total - 1.0) <= NORM_TOL:
        raise RuntimeError(f"Bell branch probabilities sum to {total}, not 1")
    return branches


def draw_branch(branches: Sequence[tuple], rng: np.random.Generator) -> tuple:
    """Sample one branch according to its probability, by the inverse-CDF
    draw Generator.choice makes from one uniform variate.

    The CDF is the same sequential float sum np.cumsum makes, and the
    count of normalized steps at or below the variate is the index
    np.searchsorted(..., side="right") finds, so the draw is bit for bit
    Generator.choice's without building an array. A negative or NaN
    probability, or an infinite total, raises ValueError, as choice does.
    """
    if rng is None:
        raise ValueError("a seeded random generator is required")
    if not branches:
        raise ValueError("no branches to draw from")
    # -0.0 + p is p exactly, so the first sum is the first probability.
    cdf, total = [], -0.0
    for _, p, _ in branches:
        if not p >= 0:
            raise ValueError(f"branch probability {p} is negative or NaN")
        total += p
        cdf.append(total)
    if not 0 < total < math.inf:
        raise ValueError(
            f"branch probabilities total {total}; a draw needs a positive total below inf"
        )
    u = rng.random()
    steps = 0
    for c in cdf:
        steps += c / total <= u
    return branches[steps]

