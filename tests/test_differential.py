"""Old engine against new engine, bit for bit, the batched table
validation against the per-branch loop it replaced, and the correction
solver's (x, z) mask scan against a stack of every candidate's signed
permutation.

The references below are the earlier engine kept as test-local copies:
`np.kron` tensor products, the `np.cumsum`/`np.searchsorted` branch draw,
`np.tensordot` projection dividing by the norm, `np.vdot` through its
dispatcher, four projections per Bell
measurement on the unreordered register, validation by
`PauliString.apply` and `fidelity` one branch at a time, the solver
gathering all 4^n candidates' signed permutations, each built by
`signed_permutation` from its factor tuple, and scoring them on every
fiducial row, the walk building
its 3n-qubit register on every call, the session composing its
correction on every call, and reorder finding its transpose axes afresh
on every call.
"""
from __future__ import annotations

import functools
import itertools
import math
import re

import numpy as np
import pytest

from teleportsim import clear_caches, harness, qstate, teleport
from teleportsim.bell import (
    BellState,
    bell_pair,
    draw_branch,
    encode,
    measure_bell_branches,
)
from teleportsim.cli import FIXTURE_NAMES, CampaignConfig, fixture_state, run_campaign
from teleportsim.pauli import PauliFactor, PauliString, signed_permutation
from teleportsim.qstate import (
    FIDELITY_TOL,
    IMPOSSIBLE_PROB,
    SOLVE_TOL,
    _state,
    _vdot,
    computational_basis_state,
    fidelity,
    make_state,
    project_qubits,
    random_state,
    reorder,
    tensor,
    with_labels,
)
from teleportsim.teleport import (
    MAX_PROTOCOL_WIDTH,
    VALIDATION_SEED,
    VALIDATION_STATES,
    AmbiguousCorrectionError,
    CorrectionTable,
    NoCorrectionError,
    _validate_table,
    composed_table,
    enumerate_protocol_branches,
    outcome_sequences,
    protocol_labels,
    teleport_branches,
)

from conftest import rand_state


def same_bits(x, y) -> bool:
    """Equal complex arrays bit for bit, signed zeros included."""
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


# --- tensor products and the branch draw -----------------------------------


def tensor_cases():
    """Random states beside every Bell row in both orders, beside each
    other, and one 13-qubit register beside a pair."""
    rng = np.random.default_rng(2024)
    for n in range(1, 7):
        s = rand_state(rng, n)
        for kind in BellState:
            pair = bell_pair(kind, "a", "b")
            yield s, pair
            yield pair, s
        yield s, rand_state(rng, 7 - n, prefix="r")
    yield rand_state(rng, 13), bell_pair(BellState.PHI_PLUS, "a", "b")


def test_tensor_matches_kron_bit_for_bit():
    cases = list(tensor_cases())
    assert len(cases) == 6 * 9 + 1
    for a, b in cases:
        got = tensor(a, b)
        assert got.qubits == a.qubits + b.qubits
        assert same_bits(got.amps, np.kron(a.amps, b.amps)), (a.qubits, b.qubits)


def reference_draw(branches, rng):
    cdf = np.cumsum([p for _, p, _ in branches])
    return branches[int(np.searchsorted(cdf / cdf[-1], rng.random(), side="right"))]


class Variates:
    """A stub generator whose random() returns chosen variates in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


@pytest.mark.parametrize(
    "amps",
    [[1, 1, 0, 0], [1, 0, 0, 0], np.arange(1, 9), [3, 1j, -2, 0.5, 0, 1e-3, 2, 1 + 1j]],
    ids=["uniform", "two-zero", "skewed", "complex"],
)
def test_draw_matches_cumsum_searchsorted(amps):
    qubits = ("a", "b", "c")[: int(math.log2(len(amps)))]
    branches = measure_bell_branches(make_state(qubits, amps), ("a", "b"))
    cdf = np.cumsum([p for _, p, _ in branches])
    norm = cdf / cdf[-1]
    steps = [float(x) for x in norm if x < 1.0]
    variates = [0.0, *steps, *(math.nextafter(x, 1.0) for x in steps),
                *(math.nextafter(x, 0.0) for x in steps), math.nextafter(1.0, 0.0)]
    ours, theirs = Variates(variates), Variates(variates)
    for u in variates:
        assert draw_branch(branches, ours) is reference_draw(branches, theirs), u
    for step in steps:
        # A variate exactly on a step goes to the first branch past it.
        drawn = draw_branch(branches, Variates([step]))
        assert branches.index(drawn) == np.flatnonzero(norm > step)[0]
        _, p, _ = drawn
        assert p > 0


def reference_project(state, targets, onto):
    axes = [state.qubits.index(q) for q in targets]
    o = np.conj(onto).reshape([2] * len(targets))
    t = state.amps.reshape([2] * state.n_qubits)
    rem = np.tensordot(o, t, axes=(list(range(len(targets))), axes))
    prob = float(np.vdot(rem, rem).real)
    if prob < IMPOSSIBLE_PROB:
        return prob, None
    keep = tuple(q for q in state.qubits if q not in targets)
    return prob, _state(keep, rem.reshape(-1) / math.sqrt(prob))


def reference_measure(state, pair):
    pa, pb = pair
    return [
        (kind, *reference_project(state, (pa, pb), kind.amplitudes))
        for kind in BellState
    ]


def reference_walk(xi, resource, rng=None):
    """The walk building its register on every call: the input relabeled,
    the n pairs tensored beside it, and the first pair left in place. It
    measures with reference_measure and, given `rng`, draws with draw_branch."""
    n = xi.n_qubits
    xs, ans, bs = protocol_labels(n)
    joint = with_labels(xi, xs)
    for i in range(n, 0, -1):
        joint = tensor(joint, bell_pair(resource, ans[i - 1], bs[i - 1]))
    level = [((), 1.0, joint)]
    for i in range(n - 1, -1, -1):
        pair = (xs[i], ans[i])
        deeper = []
        for outcomes, prob, state in level:
            branches = reference_measure(state, pair)
            if rng is not None:
                branches = [draw_branch(branches, rng)]
            for kind, p, rem in branches:
                if rem is None:
                    raise RuntimeError(f"impossible branch {kind.value} on {pair} in the walk")
                deeper.append((outcomes + (kind,), prob * p, rem))
        level = deeper
    return level


def assert_same(got, want):
    """Equal probabilities and labels, amplitudes equal bit for bit."""
    (p1, r1), (p2, r2) = got, want
    assert p1 == p2
    assert (r1 is None) == (r2 is None)
    if r1 is not None:
        assert r1.qubits == r2.qubits
        assert np.array_equal(r1.amps, r2.amps)


def target_tuples(n: int, k: int):
    """Every ordered choice of k distinct positions up to 8 qubits; above
    that, every window of k neighbours in both orders plus spread-out and
    reversed choices that include the first and last qubits."""
    if n <= 8:
        return list(itertools.permutations(range(n), k))
    out = []
    for start in range(n - k + 1):
        window = tuple(range(start, start + k))
        out += [window, window[::-1]]
    spread = (0, n // 2, n - 1)[:k] if k > 1 else (n - 1,)
    out += [spread, spread[::-1], (n - 1, 0, 1)[:k]]
    return out


@pytest.mark.parametrize("n", range(2, 16))
def test_projection_matches_tensordot(n):
    rng = np.random.default_rng(1000 + n)
    s = rand_state(rng, n)
    for k in (1, 2, 3):
        if k > n:
            continue
        ontos = [rand_state(rng, k).amps]
        if k == 2:
            ontos += [kind.amplitudes for kind in BellState]
        for positions in target_tuples(n, k):
            targets = tuple(s.qubits[i] for i in positions)
            for onto in ontos:
                got = project_qubits(s, targets, onto.conj())
                assert_same(got, reference_project(s, targets, onto))


@pytest.mark.parametrize("n", range(2, 7))
def test_projection_contracts_the_bra_as_given(n):
    # A complex bra is used as it is, not conjugated again: the unnormalized
    # remainder is np.dot(bra, t) with the targets moved to the front.
    rng = np.random.default_rng(2000 + n)
    s = rand_state(rng, n)
    for k in (1, 2):
        bra = rand_state(rng, k).amps.conj()
        for positions in target_tuples(n, k):
            targets = tuple(s.qubits[i] for i in positions)
            rest = [i for i in range(n) if i not in positions]
            t = s.amps.reshape([2] * n).transpose(list(positions) + rest).reshape(2 ** k, -1)
            rem = np.dot(bra, t)
            prob = float(np.vdot(rem, rem).real)
            got_prob, got = project_qubits(s, targets, bra)
            assert got_prob == prob
            assert got.qubits == tuple(s.qubits[i] for i in rest)
            assert same_bits(got.amps, rem * (1.0 / math.sqrt(prob)))


def test_projection_matches_tensordot_on_impossible_branches():
    # |0>_p (x) psi-_(a,b) (x) |u>_q: three of the four Bell branches on
    # (a, b), in either order, have probability 0.
    amps = np.kron(np.kron([1, 0], BellState.PSI_MINUS.amplitudes), [0.6, 0.8])
    joint = _state(("p", "a", "b", "q"), amps)
    for pair in (("a", "b"), ("b", "a")):
        for kind in BellState:
            got = project_qubits(joint, pair, kind.amplitudes.conj())
            assert_same(got, reference_project(joint, pair, kind.amplitudes))
            assert (got[1] is None) == (kind is not BellState.PSI_MINUS)


def vdot_cases():
    """Pairs of equal-length arrays: random states of 0 to 13 qubits, and
    every possible remainder of the first Bell measurement on each joint
    register the walk builds, widths 1 to 5 and every resource."""
    rng = np.random.default_rng(27000)
    for n in range(14):
        yield rand_state(rng, n).amps, rand_state(rng, n).amps
    for n in range(1, MAX_PROTOCOL_WIDTH + 1):
        xs, ans, _ = protocol_labels(n)
        xi = random_state(xs, rng)
        for resource in BellState:
            branches = measure_bell_branches(teleport._joint(xi, resource), (xs[-1], ans[-1]))
            rems = [rem.amps for _, _, rem in branches if rem is not None]
            yield from zip(rems, rems[1:] + rems[:1])


def test_vdot_matches_np_vdot_bit_for_bit():
    # _vdot is the routine np.vdot dispatches to, called without the dispatcher.
    for x, y in vdot_cases():
        for a, b in ((x, x), (x, y), (y, x)):
            got, want = _vdot(a, b), np.vdot(a, b)
            assert type(got) is type(want)
            assert same_bits(np.array([got]), np.array([want]))


@pytest.mark.parametrize("resource", list(BellState), ids=lambda r: r.value)
@pytest.mark.parametrize("n", range(1, 5))
def test_finish_overlap_matches_np_vdot(n, resource):
    # Each transcript's fidelity and phase are np.vdot's overlap of the
    # input with the corrected receiver, bit for bit.
    xs, _, bs = protocol_labels(n)
    inputs = [fixture_state(name, n) for name in FIXTURE_NAMES]
    inputs.append(random_state(xs, np.random.default_rng(27100 + n)))
    table = composed_table(n, resource)
    for xi in inputs:
        transcripts = teleport_branches(xi, resource)
        branches = enumerate_protocol_branches(xi, resource)
        for t, (outcomes, _, receiver) in zip(transcripts, branches):
            final = table.entry(outcomes).apply(receiver, bs)
            overlap = complex(np.vdot(xi.amps, final.amps))
            residual = overlap / abs(overlap) if abs(overlap) > 0 else complex(0)
            assert t.final_fidelity == abs(overlap) ** 2
            assert same_bits(np.array([t.residual_phase]), np.array([residual]))


def same_remainder(got, want) -> bool:
    """Equal probabilities and labels, amplitudes equal bit for bit with
    signed zeros."""
    (p1, r1), (p2, r2) = got, want
    return p1 == p2 and r1.qubits == r2.qubits and same_bits(r1.amps, r2.amps)


@pytest.mark.parametrize("resource", list(BellState), ids=lambda r: r.value)
@pytest.mark.parametrize("n", range(1, 5))
def test_reciprocal_scaling_matches_the_dividing_projection(n, resource, monkeypatch):
    # project_qubits scales by 1 / sqrt(p); the reference divides by sqrt(p).
    # The two differ only on a -0.0 part before scaling, which np.dot's sums
    # never produce. Every projection of every fixture walk keeps the bits.
    def checked(state, pair):
        branches = measure_bell_branches(state, pair)
        for kind, p, rem in branches:
            want = reference_project(state, pair, kind.amplitudes)
            assert same_remainder(project_qubits(state, pair, kind.amplitudes.conj()), want)
            assert same_remainder((p, rem), want)
        return branches

    monkeypatch.setattr(teleport, "measure_bell_branches", checked)
    inputs = [fixture_state(name, n) for name in FIXTURE_NAMES]
    inputs.append(random_state(protocol_labels(n)[0], np.random.default_rng(10000 + n)))
    for xi in inputs:
        assert len(teleport._walk(xi, resource)) == 4 ** n


@pytest.mark.parametrize("n", range(2, 16))
def test_bell_measurement_matches_four_projections(n):
    rng = np.random.default_rng(2000 + n)
    s = rand_state(rng, n)
    pairs = target_tuples(n, 2)
    for pair in pairs:
        labels = tuple(s.qubits[i] for i in pair)
        got, want = measure_bell_branches(s, labels), reference_measure(s, labels)
        assert [kind for kind, _, _ in got] == [kind for kind, _, _ in want]
        for (_, *g), (_, *w) in zip(got, want):
            assert_same(g, w)


# --- label-keyed caches ----------------------------------------------------


def reference_reorder(state, new_order):
    """reorder's transpose with its axes found afresh on every call."""
    axes = [state.qubits.index(q) for q in new_order]
    t = state.amps.reshape([2] * state.n_qubits).transpose(axes)
    return _state(tuple(new_order), t.reshape(-1))


def test_reorder_matches_an_uncached_transpose():
    # Registers of 1..6 qubits share their labels, each held in several
    # orders, and take turns, so most calls find the caches warm from
    # other registers, other orders of one register, and other targets.
    rng = np.random.default_rng(11000)
    states = [rand_state(rng, n) for n in range(1, 7)]

    def shuffled(s):
        return tuple(s.qubits[i] for i in rng.permutation(s.n_qubits))

    states = [reference_reorder(s, shuffled(s)) for s in states for _ in range(3)]
    for _ in range(600):
        s = states[rng.integers(len(states))]
        order = shuffled(s)
        got, want = reorder(s, order), reference_reorder(s, order)
        assert got.qubits == want.qubits == order
        assert same_bits(got.amps, want.amps)


def test_bell_measurement_matches_reference_after_other_widths():
    # Each width is measured on every ordered pair twice, the caches warmed
    # in between by the other widths' registers.
    rng = np.random.default_rng(12000)
    states = [rand_state(rng, n) for n in (5, 2, 6, 3, 4)]
    for s in states + states:
        for pair in itertools.permutations(s.qubits, 2):
            got, want = measure_bell_branches(s, pair), reference_measure(s, pair)
            assert [kind for kind, _, _ in got] == [kind for kind, _, _ in want]
            for (_, *g), (_, *w) in zip(got, want):
                assert_same(g, w)


def test_one_string_keeps_a_gather_form_per_order():
    # One form per (source order, target order): the same target from two
    # source orders needs two forms, each the string after the transpose.
    p = PauliString.from_pairs([("b1", PauliFactor.X), ("b2", PauliFactor.Z)], -1j)
    orders = [("b1", "b2"), ("b2", "b1")]
    kept = {}
    for order, to in list(itertools.product(orders, repeat=2)) * 2:
        perm, signs = p.gather(order, to)
        assert not perm.flags.writeable and not signs.flags.writeable
        # out[i] == signs[i] * a[perm[i]]: row i of the dense form holds signs[i] at perm[i].
        dense = np.zeros((4, 4), dtype=complex)
        dense[np.arange(4), perm] = signs
        transpose = np.stack(
            [reorder(computational_basis_state(order, k), to).amps for k in range(4)], axis=1
        )
        assert np.array_equal(dense, p.matrix(to) @ transpose)
        first = kept.setdefault((order, to), (perm, signs))
        assert first[0] is perm and first[1] is signs
    # Without a target, the form is the one onto the source order itself.
    assert all(a is b for a, b in zip(p.gather(orders[0]), kept[orders[0], orders[0]]))
    assert len({perm.tobytes() for perm, _ in kept.values()}) == 4


def receiver_messages(n: int):
    """Every message at n <= 3, 200 seeded ones above."""
    if n <= 3:
        return [encode(seq) for seq in outcome_sequences(n)]
    rng = np.random.default_rng(14000 + n)
    return [format(int(i), f"0{2 * n}b") for i in rng.integers(4 ** n, size=200)]


@pytest.mark.parametrize("resource", list(BellState), ids=lambda r: r.value)
@pytest.mark.parametrize("n", range(1, 6))
def test_one_gather_corrects_and_orders_the_receiver(n, resource):
    # The walk leaves the receiver on (b_n..b_1). One gather from that order
    # onto (b1..bn) must give the bits of correcting in place and then
    # transposing. Some parts are exactly +0.0 or -0.0, and every message's
    # string is also tried with each phase, so the signs' bits are seen.
    _, _, bs = protocol_labels(n)
    rng = np.random.default_rng(15000 + n)
    amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    parts = amps.view(float)
    parts[rng.integers(parts.size, size=parts.size // 3)] = 0.0
    parts[rng.integers(parts.size, size=parts.size // 3)] = -0.0
    receiver = _state(bs[::-1], amps)
    for message in receiver_messages(n):
        corr = teleport.corrections_from_message(message, resource)
        for phase in (1, -1, 1j, -1j):
            p = PauliString.from_pairs(corr.factors, phase)
            got = p.apply(receiver, bs)
            want = reorder(p.apply(receiver), bs)
            assert got.qubits == want.qubits == bs
            assert same_bits(got.amps, want.amps), (message, phase)


def test_invalid_orders_raise_on_every_call():
    # A call that raises stores nothing, so a second call raises again.
    s = rand_state(np.random.default_rng(13000), 3)
    p = PauliString.from_pairs([("q1", PauliFactor.X), ("a1", PauliFactor.Z)])
    for _ in range(2):
        for bad in (("q1", "q2"), ("q1", "q2", "q4"), ("q1", "q1", "q2")):
            with pytest.raises(ValueError, match="is not a permutation of"):
                reorder(s, bad)
        with pytest.raises(ValueError, match="unknown qubit 'a1'"):
            measure_bell_branches(s, ("q2", "a1"))
        with pytest.raises(ValueError, match="unknown qubit 'a1'"):
            project_qubits(s, ("q2", "a1"), np.full(4, 0.5))
        for build in (p.gather, p.matrix, lambda order: p.apply(s)):
            with pytest.raises(ValueError, match="unknown qubit 'a1'"):
                build(s.qubits)
    assert reorder(s, ("q3", "q1", "q2")).qubits == ("q3", "q1", "q2")


def test_duplicate_targets_raise_on_every_call():
    # Targets that the register does not lead with go through _targets_first,
    # whose check runs on every call: a raise stores nothing.
    s = computational_basis_state(("a", "b", "c"), 0)
    stored = qstate._targets_first.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape("duplicate projection targets in ('b', 'b')")):
            project_qubits(s, ("b", "b"), np.full(4, 0.5))
        with pytest.raises(ValueError, match=re.escape("duplicate projection targets in ('a', 'a')")):
            measure_bell_branches(s, ("a", "a"))
    assert qstate._targets_first.cache_info().currsize == stored


# Every resource up to width 4; the widest width, 1024 branches, for psi- alone.
ENUMERATION_CASES = [(n, r) for n in range(1, 5) for r in BellState] + [(5, BellState.PSI_MINUS)]


@pytest.mark.parametrize(
    "n, resource", ENUMERATION_CASES, ids=[f"{n}-{r.value}" for n, r in ENUMERATION_CASES]
)
def test_enumeration_matches_reference_engine(n, resource):
    xs, _, _ = protocol_labels(n)
    xi = random_state(xs, np.random.default_rng(3000 + n))
    got = enumerate_protocol_branches(xi, resource)
    want = reference_walk(xi, resource)
    assert len(got) == len(want) == 4 ** n
    for (o1, p1, r1), (o2, p2, r2) in zip(got, want):
        assert o1 == o2
        assert_same((p1, r1), (p2, r2))


@pytest.mark.parametrize("resource", list(BellState), ids=lambda r: r.value)
@pytest.mark.parametrize("n", range(1, 6))
def test_receiver_rows_are_the_walk_in_canonical_order(n, resource):
    xs, _, bs = protocol_labels(n)
    xi = random_state(xs, np.random.default_rng(4))
    rows = teleport._receiver_rows(xi, resource)
    branches = enumerate_protocol_branches(xi, resource)
    assert rows.shape == (4 ** n, 2 ** n)
    assert [outs for outs, _, _ in branches] == list(outcome_sequences(n))
    for row, (_, _, receiver) in zip(rows, branches):
        assert same_bits(row, reorder(receiver, bs).amps)


# --- table validation ----------------------------------------------------


def scalar_validation(table: CorrectionTable, resource: BellState):
    """The per-branch loop: (code, fidelity) of the first failing branch, or None."""
    rng = np.random.default_rng(VALIDATION_SEED)
    xs, _, bs = protocol_labels(table.n)
    for _ in range(VALIDATION_STATES):
        xi = random_state(xs, rng)
        target = with_labels(xi, bs)
        for outcomes, _, receiver in enumerate_protocol_branches(xi, resource):
            f = fidelity(target, table.entry(outcomes).apply(receiver))
            if f < 1 - FIDELITY_TOL:
                return encode(outcomes), f
    return None


def batched_validation(table: CorrectionTable):
    try:
        _validate_table(table)
    except NoCorrectionError as e:
        m = re.fullmatch(r"derived table fails validation on branch (\d+): fidelity (\S+)", str(e))
        assert m, str(e)
        return m[1], float(m[2])
    return None


@pytest.mark.parametrize("resource", list(BellState), ids=lambda r: r.value)
@pytest.mark.parametrize("n", range(1, 5))
def test_batched_validation_accepts_composed_tables(n, resource):
    table = composed_table(n, resource)
    assert batched_validation(table) is None
    if n <= 3:
        assert scalar_validation(table, resource) is None


def broken(table: CorrectionTable, rows, phase_only: bool) -> CorrectionTable:
    """The table with the given rows changed: each row's phase negated, or
    its factor on the last b-qubit replaced (X becomes I, anything else X)."""
    seqs = list(outcome_sequences(table.n))
    entries = dict(table.entries)
    last = table.targets[-1]
    for row in rows:
        entry = table.entry(seqs[row])
        if phase_only:
            entries[seqs[row]] = PauliString(entry.factors, -entry.phase)
            continue
        factors = dict(entry.factors)
        swapped = PauliFactor.I if factors.pop(last, None) is PauliFactor.X else PauliFactor.X
        pairs = [*factors.items(), (last, swapped)]
        entries[seqs[row]] = PauliString.from_pairs(pairs, entry.phase)
    return CorrectionTable(table.n, table.resource, entries)


@pytest.mark.parametrize("phase_only", [False, True], ids=["operator", "phase"])
@pytest.mark.parametrize("resource", [BellState.PSI_MINUS, BellState.PHI_PLUS], ids=lambda r: r.value)
@pytest.mark.parametrize("n", range(1, 4))
def test_batched_validation_names_the_same_branch(n, resource, phase_only):
    # Two broken rows: the earlier one in canonical order must be named.
    rows = (4 ** n // 3, 4 ** n * 2 // 3)
    table = broken(composed_table(n, resource), rows, phase_only)
    got, want = batched_validation(table), scalar_validation(table, resource)
    if phase_only:
        # A global phase is invisible to fidelity: both accept the table.
        assert got is None and want is None
        return
    assert got is not None and want is not None
    assert got[0] == want[0] == encode(list(outcome_sequences(n))[rows[0]])
    assert abs(got[1] - want[1]) < 1e-12


# --- the correction solver ------------------------------------------------


@functools.lru_cache(maxsize=None)
def candidate_stack(n: int):
    """Every width-n factor tuple in product order, and their signed
    permutations stacked as perms and signs, (4^n, 2^n)."""
    candidates = tuple(itertools.product(PauliFactor, repeat=n))
    perms, signs = map(np.stack, zip(*map(signed_permutation, candidates)))
    return candidates, perms, signs


def reference_solve(targets, inputs, remainders):
    """Every candidate's signed permutation scored on every fiducial row."""
    candidates, perms, signs = candidate_stack(len(targets))
    applied = remainders[:, perms] * signs                    # (F, 4^n, dim)
    fid = np.abs(np.einsum("fi,fci->cf", inputs.conj(), applied)) ** 2
    hits = np.flatnonzero(np.all(fid >= 1 - SOLVE_TOL, axis=1))
    if len(hits) == 0:
        raise NoCorrectionError("no factor string")
    if len(hits) > 1:
        raise AmbiguousCorrectionError(f"{len(hits)} factor strings fit")
    return candidates[hits[0]]


def solve_result(solve, targets, inputs, remainders):
    """The factor tuple, or the class of the solver error raised."""
    try:
        return solve(targets, inputs, remainders)
    except (NoCorrectionError, AmbiguousCorrectionError) as e:
        return type(e)


@functools.lru_cache(maxsize=None)
def fiducial_remainders(n: int, resource: BellState):
    """(b1..bn), the fiducial inputs (F, 2^n) and their remainders (F, 4^n, 2^n)."""
    xs, _, bs = protocol_labels(n)
    fiducials = teleport._fiducial_states(xs)
    inputs = np.stack([f.amps for f in fiducials])
    remainders = np.stack([teleport._receiver_rows(f, resource) for f in fiducials])
    return bs, inputs, remainders


def hadamard(n: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return functools.reduce(np.kron, [h] * n)


def vary(variant: str, n: int, inputs, remainders):
    """The fiducial data of a variant, and what every branch must then give:
    a factor tuple or the class of the solver error."""
    if variant == "hadamard":
        return NoCorrectionError, inputs, remainders @ hadamard(n).T
    if variant == "basis-only":
        # The basis rows fix the X part only; the Z part stays free.
        return AmbiguousCorrectionError, inputs[: 2 ** n], remainders[: 2 ** n]
    if variant == "reversed":
        # |+i>^n comes first instead of |0...0>.
        return tuple, inputs[::-1], remainders[::-1]
    return tuple, inputs, remainders


@pytest.mark.parametrize("variant", ["real", "hadamard", "basis-only", "reversed"])
@pytest.mark.parametrize("resource", list(BellState), ids=lambda r: r.value)
@pytest.mark.parametrize("n", range(1, 4))
def test_screened_solver_matches_the_full_scan(n, resource, variant):
    # The solver's (x, z) mask scan against every candidate's signed permutation.
    bs, inputs, remainders = fiducial_remainders(n, resource)
    expected, inputs, remainders = vary(variant, n, inputs, remainders)
    for i in range(4 ** n):
        got = solve_result(teleport._solve_correction, bs, inputs, remainders[:, i])
        want = solve_result(reference_solve, bs, inputs, remainders[:, i])
        assert got == want
        assert (got if isinstance(got, type) else type(got)) is expected


# --- the cached joint register ----------------------------------------------


def transcript_bits(t):
    """A transcript's outcomes, message and correction, and its
    probability, fidelity and residual phase as exact hex floats."""
    return (
        t.outcomes,
        t.message,
        t.corrections.tokens(),
        t.single_qubit_ops,
        t.branch_probability.hex(),
        t.final_fidelity.hex(),
        t.residual_phase.real.hex(),
        t.residual_phase.imag.hex(),
    )


def reference_session(monkeypatch, xi, seed, resource):
    with monkeypatch.context() as m:
        m.setattr(harness, "_walk", reference_walk)
        # The builders behind the caches, called afresh every session.
        m.setattr(teleport, "corrections_from_message",
                  teleport.corrections_from_message.__wrapped__)
        return harness.run_session(xi, seed, resource)


def reference_branches(monkeypatch, xi, resource):
    with monkeypatch.context() as m:
        m.setattr(teleport, "_walk", reference_walk)
        return teleport_branches(xi, resource)


@pytest.mark.parametrize("resource", list(BellState), ids=lambda r: r.value)
@pytest.mark.parametrize("n", range(1, 6))
def test_sessions_match_the_uncached_walk(n, resource, monkeypatch):
    xs, _, _ = protocol_labels(n)
    xi = random_state(xs, np.random.default_rng(5000 + n))
    for seed in range(12):
        got = harness.run_session(xi, seed, resource)
        want = reference_session(monkeypatch, xi, seed, resource)
        assert transcript_bits(got) == transcript_bits(want)


@pytest.mark.parametrize("resource", list(BellState), ids=lambda r: r.value)
@pytest.mark.parametrize("n", range(1, 5))
def test_branches_match_the_uncached_walk(n, resource, monkeypatch):
    xs, _, _ = protocol_labels(n)
    xi = random_state(xs, np.random.default_rng(6000 + n))
    got = teleport_branches(xi, resource)
    want = reference_branches(monkeypatch, xi, resource)
    assert list(map(transcript_bits, got)) == list(map(transcript_bits, want))


@pytest.mark.parametrize("n", [1, 3])
def test_interleaved_inputs_and_resources_never_share_a_register(n, monkeypatch):
    # a and twin have equal amplitudes but are distinct objects; other differs.
    xs, _, _ = protocol_labels(n)
    a = random_state(xs, np.random.default_rng(7000 + n))
    twin = _state(xs, a.amps.copy())
    other = random_state(xs, np.random.default_rng(8000 + n))
    assert twin is not a and np.array_equal(twin.amps, a.amps)
    order = [
        (xi, resource)
        for resource in (BellState.PSI_MINUS, BellState.PHI_PLUS, BellState.PSI_MINUS)
        for xi in (a, other, twin, twin, a)
    ] + [(a, resource) for resource in BellState]
    for i, (xi, resource) in enumerate(order):
        seed = 9000 + i
        got = harness.run_session(xi, seed, resource)
        want = reference_session(monkeypatch, xi, seed, resource)
        assert transcript_bits(got) == transcript_bits(want)
        got = teleport_branches(xi, resource)
        want = reference_branches(monkeypatch, xi, resource)
        assert list(map(transcript_bits, got)) == list(map(transcript_bits, want))
    # The key is the input object: a twin gets its own register.
    first = teleport._joint(a, BellState.PSI_MINUS)
    assert teleport._joint(a, BellState.PSI_MINUS) is first
    assert teleport._joint(twin, BellState.PSI_MINUS) is not first


def test_session_caches_never_cross_resources_widths_or_campaigns(monkeypatch):
    clear_caches()
    messages = [encode(seq) for n in (1, 2, 3) for seq in teleport.outcome_sequences(n)]
    # Filled one resource at a time, then read back alternating resources.
    calls = [(m, r) for r in BellState for m in messages]
    calls += [(m, r) for m in messages for r in BellState]
    for message, resource in calls:
        got = teleport.corrections_from_message(message, resource)
        want = teleport.corrections_from_message.__wrapped__(message, resource)
        assert got == want and got.op_count == want.op_count
    assert teleport.corrections_from_message.cache_info().misses == len(calls) // 2

    inputs = {n: random_state(protocol_labels(n)[0], np.random.default_rng(9500 + n))
              for n in (1, 2, 3, 5)}
    for i in range(24):
        xi, resource = inputs[(1, 3, 2, 5)[i % 4]], list(BellState)[i % 3]
        got = harness.run_session(xi, 9600 + i, resource)
        want = reference_session(monkeypatch, xi, 9600 + i, resource)
        assert transcript_bits(got) == transcript_bits(want)

    # A failed call caches nothing: the second call raises again.
    for bad in ("011", "", "00" * 6):
        for _ in range(2):
            with pytest.raises(ValueError):
                teleport.corrections_from_message(bad, BellState.PSI_MINUS)

    def sample(n):
        return run_campaign(CampaignConfig(n=n, trials=60, seed=11, mode="sample")).to_json()

    clear_caches()
    first = sample(2)
    for n in (3, 1, 5):
        sample(n)
    assert sample(2) == first

