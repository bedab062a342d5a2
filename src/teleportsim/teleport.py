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

certify_table diffs any two tables row by row; certification_reference
picks what the oracle is held to: the shipped fixture where one exists
(n <= 2), the composed rule beyond it.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

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
    _as_index,
    _targets_first,
    _transpose,
    _vdot,
    make_state,
    random_state,
    reorder,
    tensor,
    with_labels,
)

MAX_PROTOCOL_WIDTH = MAX_QUBITS // 3  # the one engine width: every walk holds all 3n qubits
VALIDATION_STATES = 100  # random inputs every derived table is checked on
VALIDATION_SEED = 0x5EED
# The shipped fixture's tables, by width.
_REFERENCE_ROWS = {1: reference.SINGLE_QUBIT_ROWS, 2: reference.TWO_QUBIT_ROWS}


def check_width(n: int, limit: int, what: str) -> int:
    """The one width check: `what` supports widths 1..limit. Returns n as a plain int."""
    if not 1 <= (n := _as_index(n, f"{what}: n")) <= limit:
        raise ValueError(f"{what}: n must be 1..{limit}, got {n}")
    return n


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
        object.__setattr__(self, "n", check_width(self.n, MAX_PROTOCOL_WIDTH, "correction table"))
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
        n = check_width(n, MAX_PROTOCOL_WIDTH, "correction table")  # before any row is read
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
            if not toks.split():  # to_text writes I for the identity: a bare code is cut short
                raise ValueError(f"outcome code {code!r} has no correction tokens")
            entries[seq] = parse_pauli_tokens(toks)
        return cls(n, resource, entries)


class ProtocolTranscript(NamedTuple):
    """Record of one protocol execution (sampled or enumerated). A NamedTuple:
    immutable, compared by value, and cheaper for every session to build."""

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


# A pure function of immutable arguments; 1024 entries hold every width-5 message.
# Both arguments are positional-only, so each (message, resource) has one key.
@functools.lru_cache(maxsize=4 ** MAX_PROTOCOL_WIDTH)
def corrections_from_message(message: str, resource: BellState, /) -> PauliString:
    """The receiver's correction from the message bits alone: one base factor
    per pair, composed. The message is in measurement order (pair n first),
    so its last outcome corrects b1."""
    kinds = decode(message)
    check_width(len(kinds), MAX_PROTOCOL_WIDTH, "message")
    m = base_factor_map(resource)
    _, _, bs = protocol_labels(len(kinds))
    return PauliString.from_pairs((b, m[k]) for b, k in zip(bs, reversed(kinds)))


def composed_table(n: int, resource: BellState = BellState.PSI_MINUS) -> CorrectionTable:
    """The composed rule as a width-n table, sharing every transcript's cached corrections."""
    check_width(n, MAX_PROTOCOL_WIDTH, "composed table")
    entries = {seq: corrections_from_message(encode(seq), resource)
               for seq in outcome_sequences(n)}
    return CorrectionTable(n, resource, entries)


def reference_table(n: int) -> CorrectionTable:
    """The shipped fixture table (widths 1 and 2, psi- resource only)."""
    rows = _REFERENCE_ROWS.get(n)
    if rows is None:
        raise ValueError(f"no reference table for width {n}")
    entries = {seq: parse_pauli_tokens(toks) for seq, toks in rows.items()}
    return CorrectionTable(n, BellState.PSI_MINUS, entries)


def certification_reference(n: int) -> CorrectionTable:
    """The table the oracle's width-n table is certified against: the
    shipped fixture where one exists, the composed rule at every other width."""
    return reference_table(n) if n in _REFERENCE_ROWS else composed_table(n)


@functools.lru_cache(maxsize=1)
def _joint(xi: StateVector, resource: BellState) -> StateVector:
    """The 3n-qubit register every walk on `xi` starts from: the input on
    x1..xn, then the pairs (a_n, b_n) down to (a1, b1), with (x_n, a_n)
    moved to the front.

    The pairs never depend on the input, so a campaign's sessions share
    one register, built on the first walk. The key is the input object
    itself (StateVector compares by identity), and the cached amplitudes
    are read-only. The order is _targets_first's, as measure_bell_branches
    builds it for the first pair, so that measurement reads a view.
    """
    n = xi.n_qubits
    xs, ans, bs = protocol_labels(n)
    joint = with_labels(xi, xs)
    for i in range(n, 0, -1):
        joint = tensor(joint, bell_pair(resource, ans[i - 1], bs[i - 1]))
    return reorder(joint, _targets_first(joint.qubits, (xs[-1], ans[-1])))


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
    check_width(xi.n_qubits, MAX_PROTOCOL_WIDTH, "branch enumeration")
    return _walk(xi, resource)


def _receiver_rows(xi: StateVector, resource: BellState) -> np.ndarray:
    """One walk's 4^n receivers as a (4^n, 2^n) array: rows in canonical
    outcome order, amplitudes in (b1..bn) bit order."""
    _, _, bs = protocol_labels(xi.n_qubits)
    branches = enumerate_protocol_branches(xi, resource)
    # Every branch ends on the same labels, so one transpose orders them all;
    # one concatenate copies the receivers without np.stack's per-row views.
    shape, axes = _transpose(branches[0][2].qubits, bs)
    rows = np.concatenate([receiver.amps for _, _, receiver in branches]).reshape(-1, *shape)
    return rows.transpose(0, *(1 + a for a in axes)).reshape(len(branches), -1)


def _finish(
    xi: StateVector,
    outcomes: tuple[BellState, ...],
    prob: float,
    receiver: StateVector,
    resource: BellState,
) -> ProtocolTranscript:
    """The transcript of one branch, from the receiver before its correction.
    Only the message crosses to the receiver, and the correction is decoded
    from it; one gather corrects the receiver and puts it in (b1..bn) order."""
    n = xi.n_qubits
    _, _, bs = protocol_labels(n)
    message = encode(outcomes)
    corr = corrections_from_message(message, resource)
    final = corr.apply(receiver, bs)
    overlap = complex(_vdot(xi.amps, final.amps))
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
    xi: StateVector, resource: BellState = BellState.PSI_MINUS
) -> list[ProtocolTranscript]:
    """Run every outcome branch exhaustively; one transcript per branch,
    each corrected from its message as a session is."""
    return [_finish(xi, *b, resource) for b in enumerate_protocol_branches(xi, resource)]


# --- derivation oracle ------------------------------------------------------


def _fiducial_states(xs: tuple[str, ...]) -> list[StateVector]:
    """Informationally complete inputs, in this order: every basis state
    |k>, then |+>^n (all ones) and |+i>^n (i^popcount(k) at index k). The
    basis states fix a correction's X mask and |+>^n its Z mask, so exactly
    one Pauli string returns every remainder to its input."""
    d = 2 ** len(xs)
    plus_i = np.array([1, 1j, -1, -1j])[[k.bit_count() % 4 for k in range(d)]]
    rows = [*np.eye(d, dtype=complex), np.ones(d, dtype=complex), plus_i]
    return [make_state(xs, row) for row in rows]


def _mask_factors(x: int, z: int, n: int) -> tuple[PauliFactor, ...]:
    """The width-n string Z^z X^x as factors, the first on the most significant bit."""
    return tuple(PauliFactor.from_bits(x >> k & 1, z >> k & 1) for k in range(n - 1, -1, -1))


@functools.lru_cache(maxsize=MAX_PROTOCOL_WIDTH)
def _mask_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every width-n Pauli string by its masks, (Z^z X^x a)[i] ==
    signs[z, i] * a[xor[x, i]]: xor[x, i] = i ^ x, and row z of signs is
    signed_permutation's sign for the Z-only string with mask z, so the Z
    sign convention keeps its one home. Both (2^n, 2^n) and read-only."""
    d = 2 ** n
    xor = np.arange(d)[:, None] ^ np.arange(d)
    signs = np.stack([signed_permutation(_mask_factors(0, z, n))[1] for z in range(d)])
    for table in (xor, signs):
        table.setflags(write=False)
    return xor, signs


def _solve_correction(
    targets: tuple[str, ...],
    inputs: np.ndarray,
    remainders: np.ndarray,
) -> tuple[PauliFactor, ...]:
    """Find the unique factor string mapping every remainder to its input.

    `inputs` and `remainders` are stacked amplitude rows, one per fiducial
    state, both in (b1..bn) bit order. All 4^n strings Z^z X^x are scored
    on every row by one product: the X masks gather each remainder, and the
    Z masks' signs contract it with the input, giving overlap[f, x, z] =
    <input_f| Z^z X^x |remainder_f>. A string fits if it reaches fidelity
    1 - SOLVE_TOL on every row. Exactly one must fit.
    """
    n = len(targets)
    xor, signs = _mask_tables(n)
    d = len(signs)
    overlap = (inputs.conj()[:, None, :] * remainders[:, xor]).reshape(-1, d) @ signs.T
    fits = np.all(np.abs(overlap.reshape(-1, d, d)) ** 2 >= 1 - SOLVE_TOL, axis=0)
    hits = [_mask_factors(x, z, n) for x, z in np.argwhere(fits).tolist()]
    if not hits:
        raise NoCorrectionError(
            f"no factor string of width {n} restores the input within "
            f"SOLVE_TOL={SOLVE_TOL}; the protocol invariant is violated"
        )
    if len(hits) > 1:
        raise AmbiguousCorrectionError(
            f"{len(hits)} factor strings fit at width {n} within SOLVE_TOL={SOLVE_TOL} "
            f"({hits}); fiducial set is incomplete"
        )
    return hits[0]


def derive_corrections(
    n: int, resource: BellState = BellState.PSI_MINUS
) -> CorrectionTable:
    """Derive the width-n correction table by exhaustive enumeration.

    For every outcome sequence the branch remainders of an informationally
    complete fiducial set are computed, and the unique correction is solved
    for; ambiguity or absence raises, naming the branch. The finished table
    is then validated on VALIDATION_STATES random inputs across every branch.
    """
    check_width(n, MAX_PROTOCOL_WIDTH, "table derivation")
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
    perms, signs = (np.concatenate(forms).reshape(len(seqs), -1)
                    for forms in zip(*[table.entry(seq).gather(bs) for seq in seqs]))
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
