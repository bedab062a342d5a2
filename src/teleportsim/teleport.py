"""The protocol walk and its entry points, table derivation, certification.

The sender holds the input register (x1..xn) and one half (a_i) of each
Bell pair; the receiver holds the other halves (b_i). Pairs are measured
in descending index order, (x_n, a_n) first. Each outcome's 2-bit code is
appended to the classical message in measurement order, and the receiver
applies one correction factor per b-qubit.

Two independent routes produce correction tables:

* the engine composes the single-pair rule per outcome: on resource R,
  the psi- rule's (x, z) bits XOR those of R's own entry, since R is the
  psi- pair with that factor on b (base_factor_map). It never calls the
  oracle, and
* derive_corrections brute-forces every branch remainder against an
  informationally complete fiducial set and solves for the unique factor
  string, never assuming the composition.

certify_table diffs any two tables row by row.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .bell import (
    BellState,
    bell_pair,
    decode,
    draw_branch,
    encode,
    measure_bell_branches,
)
from .pauli import PauliFactor, PauliString, parse_pauli_tokens, signed_permutation
from . import reference
from .qstate import (
    FIDELITY_TOL,
    MAX_QUBITS,
    SOLVE_TOL,
    StateVector,
    computational_basis_state,
    make_state,
    random_state,
    reorder,
    tensor,
    with_labels,
)

MAX_PROTOCOL_WIDTH = MAX_QUBITS // 3  # sampled runs hold all 3n qubits at once
MAX_TABLE_WIDTH = 4      # exhaustive enumeration and table derivation
VALIDATION_STATES = 100  # random inputs every derived table is checked on
VALIDATION_SEED = 0x5EED
# The shipped fixture's tables, by width.
_REFERENCE_ROWS = {1: reference.SINGLE_QUBIT_ROWS, 2: reference.TWO_QUBIT_ROWS}
MAX_REFERENCE_WIDTH = max(_REFERENCE_ROWS)


def check_width(n: int, limit: int, what: str) -> None:
    """The one width check: `what` supports widths 1..limit."""
    if not 1 <= n <= limit:
        raise ValueError(f"{what}: n must be 1..{limit}, got {n}")


# Single-pair rule for a psi- resource: a Bell outcome on (x, a) leaves
# V|u> on b, with V below; every V is its own inverse up to phase, so the
# correction reuses the same factor.
PSI_MINUS_FACTORS: Mapping[BellState, PauliFactor] = {
    BellState.PSI_MINUS: PauliFactor.I,
    BellState.PSI_PLUS: PauliFactor.Z,
    BellState.PHI_MINUS: PauliFactor.X,
    BellState.PHI_PLUS: PauliFactor.ZX,
}

VERDICT_MATCH = "match"
VERDICT_PHASE = "phase_only_mismatch"
VERDICT_OPERATOR = "operator_mismatch"


class NoCorrectionError(RuntimeError):
    """No factor string maps a branch remainder back to the input."""


class AmbiguousCorrectionError(RuntimeError):
    """Multiple factor strings fit; the fiducial set is not informationally
    complete."""


@functools.lru_cache(maxsize=MAX_QUBITS)
def protocol_labels(n: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Canonical register labels (x1..xn, a1..an, b1..bn), built once per width."""
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    ans = tuple(f"a{i}" for i in range(1, n + 1))
    bs = tuple(f"b{i}" for i in range(1, n + 1))
    return xs, ans, bs


def outcome_sequences(n: int) -> Iterator[tuple[BellState, ...]]:
    """All 4^n outcome sequences in canonical (code-ascending) order."""
    return itertools.product(BellState, repeat=n)


@dataclass(frozen=True)
class CorrectionTable:
    """Correction per outcome sequence, keyed in measurement order."""

    n: int
    resource: BellState
    entries: Mapping[tuple[BellState, ...], PauliString]

    @property
    def targets(self) -> tuple[str, ...]:
        """The receiver's qubits (b1..bn), the only ones an entry may touch."""
        return protocol_labels(self.n)[2]

    def __post_init__(self):
        expected = set(outcome_sequences(self.n))
        if set(self.entries) != expected:
            raise ValueError(
                f"table needs all {4 ** self.n} outcome sequences, got {len(self.entries)}"
            )
        for seq, corr in self.entries.items():
            if corr.op_count > 2 * self.n:
                raise ValueError(
                    f"entry {seq} uses {corr.op_count} single-qubit operations, "
                    f"bound is {2 * self.n}"
                )
            if not set(corr.qubits) <= set(self.targets):
                raise ValueError(f"entry {seq} touches qubits outside {self.targets}")

    def entry(self, kinds: Sequence[BellState]) -> PauliString:
        return self.entries[tuple(kinds)]

    def to_text(self) -> str:
        """One row per outcome sequence: 2n-bit code, then tokens."""
        lines = []
        for seq in outcome_sequences(self.n):
            lines.append(f"{encode(seq)} {self.entries[seq].tokens()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, n: int, resource: BellState) -> "CorrectionTable":
        entries = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            code, _, toks = line.partition(" ")
            if len(code) != 2 * n:
                raise ValueError(f"bad outcome code {code!r} for width {n}")
            seq = decode(code)
            if seq in entries:
                raise ValueError(f"repeated outcome code {code!r}")
            entries[seq] = parse_pauli_tokens(toks)
        return cls(n, resource, entries)


@dataclass(frozen=True)
class ProtocolTranscript:
    """Record of one protocol execution (sampled or enumerated)."""

    n: int
    resource: BellState
    outcomes: tuple[BellState, ...]
    message: str
    corrections: PauliString
    bell_pairs_consumed: int
    single_qubit_ops: int
    final_fidelity: float
    residual_phase: complex
    branch_probability: float

    def to_dict(self) -> dict:
        # The j-th outcome is on (x_{n+1-j}, a_{n+1-j}): the protocol fixes each pair.
        xs, ans, _ = protocol_labels(self.n)
        return {
            "n": self.n,
            "resource": self.resource.value,
            "outcomes": [
                {"state": k.value, "pair": [x, a], "bits": k.bits}
                for k, x, a in zip(self.outcomes, reversed(xs), reversed(ans))
            ],
            "message": self.message,
            "corrections": self.corrections.tokens(),
            "bell_pairs_consumed": self.bell_pairs_consumed,
            "single_qubit_ops": self.single_qubit_ops,
            "final_fidelity": self.final_fidelity,
            "residual_phase": {
                "re": self.residual_phase.real,
                "im": self.residual_phase.imag,
            },
            "branch_probability": self.branch_probability,
        }


@functools.lru_cache(maxsize=None)
def base_factor_map(resource: BellState) -> Mapping[BellState, PauliFactor]:
    """Outcome -> correction factor for a single pair of the given kind:
    the (x, z) bits of the outcome's psi- rule entry F_k XOR those of the
    resource's own entry F. The resource is (I (x) F)|psi-> up to phase,
    and F on b commutes with the sender's measurement, so outcome k leaves
    F F_k|u> on b where psi- leaves F_k|u>; Paulis compose by XOR of bits.
    """
    r = PSI_MINUS_FACTORS[resource]
    return {k: PauliFactor.from_bits(f.x ^ r.x, f.z ^ r.z) for k, f in PSI_MINUS_FACTORS.items()}


def composed_correction(kinds: Sequence[BellState], resource: BellState) -> PauliString:
    """Engine-route correction: one base factor per pair, composed.

    `kinds` is in measurement order (pair n first), so its last outcome
    corrects b1.
    """
    m = base_factor_map(resource)
    _, _, bs = protocol_labels(len(kinds))
    return PauliString.from_pairs((b, m[k]) for b, k in zip(bs, reversed(kinds)))


def composed_table(n: int, resource: BellState = BellState.PSI_MINUS) -> CorrectionTable:
    """The engine's full table for width n."""
    entries = {seq: composed_correction(seq, resource) for seq in outcome_sequences(n)}
    return CorrectionTable(n, resource, entries)


def reference_table(n: int) -> CorrectionTable:
    """The shipped fixture table (widths 1 and 2, psi- resource only)."""
    rows = _REFERENCE_ROWS.get(n)
    if rows is None:
        raise ValueError(f"no reference table for width {n}")
    entries = {seq: parse_pauli_tokens(toks) for seq, toks in rows.items()}
    return CorrectionTable(n, BellState.PSI_MINUS, entries)


@functools.lru_cache(maxsize=1)
def _joint(xi: StateVector, resource: BellState) -> StateVector:
    """The 3n-qubit register every walk on `xi` starts from: the input on
    x1..xn, then the pairs (a_n, b_n) down to (a1, b1), with (x_n, a_n)
    moved to the front.

    The pairs never depend on the input, so a campaign's sessions share
    one register, built on the first walk. The key is the input object
    itself (StateVector compares by identity), and the cached amplitudes
    are read-only. The order is the one measure_bell_branches builds for
    the first pair, so that measurement reads a view, with the same bits.
    """
    n = xi.n_qubits
    xs, ans, bs = protocol_labels(n)
    joint = with_labels(xi, xs)
    for i in range(n, 0, -1):
        joint = tensor(joint, bell_pair(resource, ans[i - 1], bs[i - 1]))
    first = (xs[-1], ans[-1])
    return reorder(joint, first + tuple(q for q in joint.qubits if q not in first))


def _walk(
    xi: StateVector,
    resource: BellState,
    rng: np.random.Generator | None = None,
) -> list[tuple[tuple[BellState, ...], float, StateVector]]:
    """The protocol, once: from the input beside its n pairs (_joint),
    (x_i, a_i) Bell-measured from pair n down, one level at a time.

    Without `rng` every branch is followed, all 4^n of them; with it each
    level goes on with the one branch draw_branch takes, as a session does.
    Returns (outcomes, probability, receiver state) per finished branch.
    Each level extends the last one's branches in order, so the first
    outcome is the most significant: the order of outcome_sequences.
    """
    n = xi.n_qubits
    xs, ans, _ = protocol_labels(n)
    level = [((), 1.0, _joint(xi, resource))]
    for i in range(n - 1, -1, -1):
        pair = (xs[i], ans[i])
        deeper = []
        for outcomes, prob, state in level:
            branches = measure_bell_branches(state, pair)
            if rng is not None:
                branches = [draw_branch(branches, rng)]
            for kind, p, rem in branches:
                if rem is None:
                    # Bell-resource branches are exactly uniform; hitting this
                    # would falsify the protocol, not the input.
                    raise RuntimeError(f"impossible branch {kind.value} on {pair} in the walk")
                deeper.append((outcomes + (kind,), prob * p, rem))
        level = deeper
    return level


def enumerate_protocol_branches(
    xi: StateVector, resource: BellState = BellState.PSI_MINUS
) -> list[tuple[tuple[BellState, ...], float, StateVector]]:
    """All 4^n branches as (outcomes, probability, receiver state)."""
    check_width(xi.n_qubits, MAX_TABLE_WIDTH, "branch enumeration")
    return _walk(xi, resource)


def _receiver_rows(xi: StateVector, resource: BellState) -> np.ndarray:
    """One walk's 4^n receivers as a (4^n, 2^n) array: rows in canonical
    outcome order, amplitudes in (b1..bn) bit order."""
    n = xi.n_qubits
    _, _, bs = protocol_labels(n)
    branches = enumerate_protocol_branches(xi, resource)
    # Every branch ends on the same labels, so one transpose orders them all.
    axes = [1 + branches[0][2].axis(b) for b in bs]
    rows = np.stack([receiver.amps for _, _, receiver in branches])
    return rows.reshape([len(rows)] + [2] * n).transpose([0] + axes).reshape(len(rows), -1)


def _finish(
    xi: StateVector,
    outcomes: tuple[BellState, ...],
    prob: float,
    receiver: StateVector,
    resource: BellState,
    corr: PauliString,
    message: str,
) -> ProtocolTranscript:
    """The transcript of one branch, from the receiver before `corr`. One
    gather corrects it and puts it in (b1..bn) order."""
    n = xi.n_qubits
    _, _, bs = protocol_labels(n)
    final = corr.apply(receiver, bs)
    overlap = complex(np.vdot(xi.amps, final.amps))
    residual = overlap / abs(overlap) if abs(overlap) > 0 else complex(0)
    return ProtocolTranscript(
        n=n,
        resource=resource,
        outcomes=outcomes,
        message=message,
        corrections=corr,
        bell_pairs_consumed=n,
        single_qubit_ops=corr.op_count,
        final_fidelity=abs(overlap) ** 2,
        residual_phase=residual,
        branch_probability=prob,
    )


def teleport_branches(
    xi: StateVector,
    resource: BellState = BellState.PSI_MINUS,
    table: CorrectionTable | None = None,
) -> list[ProtocolTranscript]:
    """Run every outcome branch exhaustively; one transcript per branch.

    Corrections come from `table`, the engine's composed table by default;
    a derived table is exercised by the same machinery. The table must be
    for the input's width and the walk's resource.
    """
    if table is None:
        table = composed_table(xi.n_qubits, resource)
    if table.n != xi.n_qubits:
        raise ValueError(f"table is for width {table.n}, the input has width {xi.n_qubits}")
    if table.resource is not resource:
        raise ValueError(f"table is for {table.resource.value}, the walk uses {resource.value}")
    out = []
    for outcomes, prob, receiver in enumerate_protocol_branches(xi, resource):
        corr = table.entry(outcomes)
        out.append(_finish(xi, outcomes, prob, receiver, resource, corr, encode(outcomes)))
    return out


# --- derivation oracle ------------------------------------------------------


def _fiducial_states(xs: tuple[str, ...]) -> list[StateVector]:
    """Informationally complete inputs: every basis state plus the n-fold
    |+> and |+i> products. Sufficient to pin the correction uniquely."""
    n = len(xs)
    states = [computational_basis_state(xs, i) for i in range(2 ** n)]
    plus = np.array([1, 1], dtype=complex)
    plus_i = np.array([1, 1j], dtype=complex)
    for single in (plus, plus_i):
        a = np.array([1], dtype=complex)
        for _ in range(n):
            a = np.kron(a, single)
        states.append(make_state(xs, a))
    return states


@functools.lru_cache(maxsize=MAX_TABLE_WIDTH)
def _candidate_gathers(
    n: int,
) -> tuple[tuple[tuple[PauliFactor, ...], ...], np.ndarray, np.ndarray]:
    """Every width-n factor string in product order, with the signed
    permutations of all of them stacked as perms and signs, (4^n, 2^n)."""
    candidates = tuple(itertools.product(PauliFactor, repeat=n))
    forms = [signed_permutation(c) for c in candidates]
    perms = np.stack([perm for perm, _ in forms])
    signs = np.stack([sign for _, sign in forms])
    return candidates, perms, signs


def _solve_correction(
    targets: tuple[str, ...],
    inputs: np.ndarray,
    remainders: np.ndarray,
) -> tuple[PauliFactor, ...]:
    """Find the unique factor string mapping every remainder to its input.

    `inputs` and `remainders` are stacked amplitude rows, one per fiducial
    state, both in (b1..bn) bit order. Candidates are applied by gathers
    through the width's cached signed permutations and scored by their
    overlap with the input: all 4^n on the first row, then the survivors
    on every row. A candidate fits only if it reaches fidelity
    1 - SOLVE_TOL on every row, so the hits are exactly those of scoring
    all 4^n on all rows, in candidate order. With a basis state first the
    screen fixes the X part and 2^n survive. Exactly one must fit.
    """
    n = len(targets)
    candidates, perms, signs = _candidate_gathers(n)
    screen = np.abs((remainders[0, perms] * signs) @ inputs[0].conj()) ** 2  # (4^n,)
    live = np.flatnonzero(screen >= 1 - SOLVE_TOL)
    applied = remainders[:, perms[live]] * signs[live]        # (F, survivors, dim)
    overlap = np.einsum("fi,fci->cf", inputs.conj(), applied)
    fid = np.abs(overlap) ** 2
    hits = live[np.all(fid >= 1 - SOLVE_TOL, axis=1)]
    if len(hits) == 0:
        raise NoCorrectionError(
            f"no factor string of width {n} restores the input within "
            f"SOLVE_TOL={SOLVE_TOL}; the protocol invariant is violated"
        )
    if len(hits) > 1:
        named = [candidates[h] for h in hits]
        raise AmbiguousCorrectionError(
            f"{len(hits)} factor strings fit at width {n} within SOLVE_TOL={SOLVE_TOL} "
            f"({named}); fiducial set is incomplete"
        )
    return candidates[hits[0]]


def derive_corrections(
    n: int, resource: BellState = BellState.PSI_MINUS
) -> CorrectionTable:
    """Derive the width-n correction table by exhaustive enumeration.

    For every outcome sequence the branch remainders of an informationally
    complete fiducial set are computed, and the unique correction is solved
    for; ambiguity or absence raises, naming the branch. The finished table
    is then validated on VALIDATION_STATES random inputs across every branch.
    """
    check_width(n, MAX_TABLE_WIDTH, "table derivation")
    xs, _, bs = protocol_labels(n)
    fiducials = _fiducial_states(xs)
    inputs = np.stack([f.amps for f in fiducials])
    # (fiducial, outcome sequence, amplitude), filled one walk at a time
    remainders = np.empty((len(fiducials), 4 ** n, 2 ** n), dtype=complex)
    for j, f in enumerate(fiducials):
        remainders[j] = _receiver_rows(f, resource)
    entries = {}
    for i, seq in enumerate(outcome_sequences(n)):
        try:
            combo = _solve_correction(bs, inputs, remainders[:, i])
        except (NoCorrectionError, AmbiguousCorrectionError) as e:
            raise type(e)(f"branch {encode(seq)}: {e}") from None
        entries[seq] = PauliString.from_pairs(zip(bs, combo))
    table = CorrectionTable(n, resource, entries)
    _validate_table(table)
    return table


def _validate_table(table: CorrectionTable) -> None:
    """Check the table on VALIDATION_STATES random inputs, every branch of
    walks over the table's own resource.

    Each entry is its PauliString.gather form on (b1..bn), phase folded
    into the signs, so a walk's receivers are corrected by one gather and
    scored by one contraction with the input. Walks are scored one at a
    time; the first failing branch in canonical order is named.
    """
    rng = np.random.default_rng(VALIDATION_SEED)
    xs, _, bs = protocol_labels(table.n)
    seqs = list(outcome_sequences(table.n))
    perms, signs = map(np.stack, zip(*[table.entry(seq).gather(bs) for seq in seqs]))
    for _ in range(VALIDATION_STATES):
        xi = random_state(xs, rng)
        corrected = np.take_along_axis(_receiver_rows(xi, table.resource), perms, axis=1) * signs
        fid = np.abs(corrected @ xi.amps.conj()) ** 2
        bad = np.flatnonzero(fid < 1 - FIDELITY_TOL)
        if bad.size:
            raise NoCorrectionError(
                f"derived table fails validation on branch {encode(seqs[bad[0]])}: "
                f"fidelity {float(fid[bad[0]])}"
            )


# --- certification ----------------------------------------------------------


@dataclass(frozen=True)
class CertificationRow:
    code: str
    outcomes: tuple[str, ...]
    derived: str
    reference: str
    verdict: str


@dataclass(frozen=True)
class CertificationReport:
    """Row-by-row comparison of a derived table against a reference."""

    n: int
    rows: tuple[CertificationRow, ...]
    counts: Mapping[str, int]

    @property
    def all_match(self) -> bool:
        return self.counts[VERDICT_PHASE] == 0 and self.counts[VERDICT_OPERATOR] == 0

    def disagreements(self) -> tuple[CertificationRow, ...]:
        return tuple(r for r in self.rows if r.verdict == VERDICT_OPERATOR)

    def to_dict(self) -> dict:
        return {**asdict(self), "all_match": self.all_match}


def certify_table(derived: CorrectionTable, ref: CorrectionTable) -> CertificationReport:
    """Compare two tables entry by entry.

    match: identical factors and phase. phase_only_mismatch: identical
    factors, different unit phase (physically the same correction).
    operator_mismatch: different factors; the tables disagree about what
    the receiver must do.
    """
    if derived.n != ref.n:
        raise ValueError(f"width mismatch: {derived.n} vs {ref.n}")
    if derived.resource is not ref.resource:
        raise ValueError(f"resource mismatch: {derived.resource.value} vs {ref.resource.value}")
    rows = []
    counts = {VERDICT_MATCH: 0, VERDICT_PHASE: 0, VERDICT_OPERATOR: 0}
    for seq in outcome_sequences(derived.n):
        d, r = derived.entries[seq], ref.entries[seq]
        if dict(d.factors) != dict(r.factors):
            verdict = VERDICT_OPERATOR
        elif d.phase == r.phase:
            verdict = VERDICT_MATCH
        else:
            verdict = VERDICT_PHASE
        counts[verdict] += 1
        rows.append(
            CertificationRow(
                code=encode(seq),
                outcomes=tuple(k.value for k in seq),
                derived=d.tokens(),
                reference=r.tokens(),
                verdict=verdict,
            )
        )
    return CertificationReport(derived.n, tuple(rows), counts)
