"""Bell basis fixtures, measurement branches, and seeded sampling."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim import bell, clear_caches
from teleportsim.bell import (
    BellState,
    bell_pair,
    decode,
    draw_branch,
    encode,
    measure_bell_branches,
    messages,
)
from teleportsim.qstate import computational_basis_state, fidelity, make_state, tensor

from conftest import TOL, rand_state, state_vectors

S = 1 / math.sqrt(2)

EXPECTED_AMPLITUDES = {
    BellState.PSI_MINUS: [0, S, -S, 0],
    BellState.PSI_PLUS: [0, S, S, 0],
    BellState.PHI_MINUS: [S, 0, 0, -S],
    BellState.PHI_PLUS: [S, 0, 0, S],
}


@pytest.mark.parametrize("kind", list(BellState))
def test_bell_pair_amplitudes(kind):
    s = bell_pair(kind, "a", "b")
    assert np.allclose(s.amps, EXPECTED_AMPLITUDES[kind], atol=TOL)


def test_bit_codes_are_fixed():
    assert [k.bits for k in BellState] == ["00", "01", "10", "11"]
    assert BellState.PSI_MINUS.bits == "00"
    assert BellState.PHI_PLUS.bits == "11"


def test_from_bits_round_trip():
    for kind in BellState:
        assert decode(kind.bits) == (kind,)
    seqs = [(), tuple(BellState), (BellState.PHI_MINUS, BellState.PSI_PLUS)]
    for seq in seqs:
        assert decode(encode(seq)) == seq
    # messages(n) is every width-n code in canonical order, ascending.
    for n in range(1, 6):
        codes = messages(n)
        assert codes == sorted(codes)
        assert codes == [encode(s) for s in itertools.product(BellState, repeat=n)]
        assert [encode(decode(m)) for m in codes] == codes
    with pytest.raises(ValueError, match="even-length bit string"):
        decode("2x")


def test_bell_bras_are_the_conjugated_rows(monkeypatch):
    # project_qubits contracts with the bra as given, so each cached bra must
    # be its current row conjugated, bit for bit, in canonical order, and
    # read-only; a patched row is seen after clear_caches().
    def check():
        bras = bell._bras()
        assert [kind for kind, _ in bras] == list(BellState)
        for kind, bra in bras:
            want = bell._AMPLITUDES[kind].conj()
            assert np.array_equal(bra.view(np.uint64), want.view(np.uint64))
            assert not bra.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                bra[0] = 0

    clear_caches()
    check()
    # A complex row, so the conjugate differs from the row itself.
    phased = bell._AMPLITUDES[BellState.PHI_PLUS] * np.exp(0.3j)
    try:
        with monkeypatch.context() as m:
            m.setitem(bell._AMPLITUDES, BellState.PHI_PLUS, phased)
            clear_caches()
            check()
            assert bell._bras()[3][1][0].imag < 0
    finally:
        clear_caches()
    check()


def test_bell_states_are_orthonormal():
    for a in BellState:
        for b in BellState:
            f = fidelity(bell_pair(a, "p", "q"), bell_pair(b, "p", "q"))
            assert f == pytest.approx(1.0 if a is b else 0.0, abs=TOL)


def test_bell_pair_rejects_equal_labels():
    with pytest.raises(ValueError, match="duplicate qubit labels"):
        bell_pair(BellState.PHI_PLUS, "a", "a")


def test_branches_of_zero_zero():
    # |00> = (phi+ + phi-)/sqrt(2): psi branches impossible, phi branches 1/2.
    s = computational_basis_state(("a", "b"), "00")
    branches = measure_bell_branches(s, ("a", "b"))
    probs = [p for _, p, _ in branches]
    assert probs == pytest.approx([0.0, 0.0, 0.5, 0.5], abs=TOL)
    assert [rem is None for _, _, rem in branches] == [True, True, False, False]
    assert branches[0][2] is None


def test_branches_come_in_canonical_order():
    s = computational_basis_state(("a", "b"), "00")
    branches = measure_bell_branches(s, ("a", "b"))
    assert all(type(b) is tuple and len(b) == 3 for b in branches)
    assert [kind for kind, _, _ in branches] == list(BellState)


def test_branch_remainder_excludes_measured_pair():
    u = make_state(("x",), [0.6, 0.8])
    joint = tensor(u, bell_pair(BellState.PSI_MINUS, "a", "b"))
    branches = measure_bell_branches(joint, ("x", "a"))
    for _, p, rem in branches:
        assert rem.qubits == ("b",)
        assert p == pytest.approx(0.25, abs=TOL)


@pytest.mark.parametrize("pair", [pytest.param(("q1",), id="one-qubit"),
                                  pytest.param(("q1", "q2", "q3"), id="three-qubits")])
def test_measurement_rejects_a_pair_of_the_wrong_size(pair):
    s = rand_state(np.random.default_rng(3), 3)
    with pytest.raises(ValueError, match="needs a pair of qubits"):
        measure_bell_branches(s, pair)


def test_a_pair_at_either_end_is_measured_in_place(monkeypatch):
    # The walk's first pair leads its register; no reorder is needed there.
    s = rand_state(np.random.default_rng(11), 4)
    want = {pair: measure_bell_branches(s, pair) for pair in (s.qubits[:2], s.qubits[2:])}

    def forbidden(*args):
        raise AssertionError("reordered a register whose pair is already at one end")

    monkeypatch.setattr(bell, "reorder", forbidden)
    for pair, branches in want.items():
        got = measure_bell_branches(s, pair)
        assert [p for _, p, _ in got] == [p for _, p, _ in branches]
        for (_, _, g), (_, _, w) in zip(got, branches):
            assert g.qubits == w.qubits
            assert np.array_equal(g.amps, w.amps)


@settings(max_examples=50, deadline=None)
@given(state_vectors(min_qubits=2, max_qubits=3))
def test_branch_probabilities_sum_to_one(s):
    branches = measure_bell_branches(s, s.qubits[-2:])
    assert abs(sum(p for _, p, _ in branches) - 1.0) < TOL


def test_sampling_is_deterministic():
    s = make_state(("a", "b"), [1, 1, 1, 1])
    draws1 = [draw_branch(measure_bell_branches(s, ("a", "b")), np.random.default_rng(k))[0]
              for k in range(20)]
    draws2 = [draw_branch(measure_bell_branches(s, ("a", "b")), np.random.default_rng(k))[0]
              for k in range(20)]
    assert draws1 == draws2
    assert len(set(draws1)) > 1


def test_sampling_requires_rng():
    s = make_state(("a", "b"), [1, 1, 1, 1])
    with pytest.raises(ValueError, match="random generator"):
        draw_branch(measure_bell_branches(s, ("a", "b")), None)


def test_sample_matches_enumerated_branch():
    s = make_state(("a", "b", "c"), np.arange(1, 9))
    kind, _, drawn = draw_branch(measure_bell_branches(s, ("a", "b")), np.random.default_rng(7))
    assert drawn is not None  # zero-probability branches are never drawn
    remainders = {k: rem for k, _, rem in measure_bell_branches(s, ("a", "b"))}
    assert np.allclose(drawn.amps, remainders[kind].amps, atol=TOL)


def test_sampled_frequencies_follow_born_rule():
    # |0>|+> overlaps every Bell state equally, so each outcome has
    # probability exactly 1/4. (A |+>|+> pair does not: it is orthogonal
    # to the singlet.)
    s = make_state(("a", "b"), [1, 1, 0, 0])
    for kind, p, _ in measure_bell_branches(s, ("a", "b")):
        assert p == pytest.approx(0.25, abs=TOL), kind
    rng = np.random.default_rng(2)
    counts = {k: 0 for k in BellState}
    n = 2000
    for _ in range(n):
        kind, _, _ = draw_branch(measure_bell_branches(s, ("a", "b")), rng)
        counts[kind] += 1
    for kind, c in counts.items():
        assert abs(c / n - 0.25) < 0.05, (kind, c)


def test_draw_matches_generator_choice():
    # draw_branch must map each uniform variate to the branch that
    # Generator.choice picks from the same generator state, or every
    # sampled golden digest moves.
    uniform = make_state(("a", "b"), [1, 1, 0, 0])
    skewed = make_state(("a", "b", "c"), np.arange(1, 9))
    for s in (uniform, skewed):
        branches = measure_bell_branches(s, ("a", "b"))
        p = np.array([prob for _, prob, _ in branches])
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(2500):
            expected = int(theirs.choice(4, p=p / p.sum()))
            assert draw_branch(branches, ours) is branches[expected]
    # Generator.choice accepts these probabilities as they stand, so both
    # draws normalize the same sums. One list totals two ulps over 1; the
    # other has an impossible branch in the middle, which is never drawn.
    off_by_ulps = [0.125, 0.375 + 2 ** -52, 0.25, 0.25 + 2 ** -52]
    assert sum(off_by_ulps) == 1 + 2 * 2 ** -52
    impossible_middle = [0.5, 0.0, 0.25, 0.25]
    for probs in (off_by_ulps, impossible_middle):
        branches = [(k, p, None if p == 0 else uniform) for k, p in zip(BellState, probs)]
        ours, theirs = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(2500):
            expected = int(theirs.choice(4, p=probs))
            assert draw_branch(branches, ours) is branches[expected]


def test_draw_rejects_an_empty_branch_list():
    with pytest.raises(ValueError, match="no branches to draw from"):
        draw_branch([], np.random.default_rng(0))


def test_draw_rejects_a_zero_probability_total():
    branches = [(k, 0.0, None) for k in BellState]
    with pytest.raises(ValueError, match="total 0.0; a draw needs a positive total"):
        draw_branch(branches, np.random.default_rng(0))


def test_draw_rejects_a_negative_or_nan_probability():
    # Generator.choice raises on each of these; a non-monotone CDF would
    # otherwise draw the negative branch (psi+ for seed 2).
    for probs in ([0.5, -0.25, 0.5, 0.25], [0.5, math.nan, 0.25, 0.25]):
        branches = [(k, p, None) for k, p in zip(BellState, probs)]
        for seed in range(8):
            with pytest.raises(ValueError):
                np.random.default_rng(seed).choice(4, p=probs)
            with pytest.raises(ValueError, match="is negative or NaN"):
                draw_branch(branches, np.random.default_rng(seed))


weights = st.lists(st.one_of(st.just(0.0), st.floats(0, 1)), min_size=1, max_size=8).filter(
    lambda ws: sum(ws) > 0
)


@settings(max_examples=200, deadline=None)
@given(weights, st.integers(0, 2 ** 32 - 1))
def test_draw_picks_what_generator_choice_picks(ws, seed):
    probs = [w / math.fsum(ws) for w in ws]
    branches = [(i, p, None) for i, p in enumerate(probs)]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert draw_branch(branches, ours) is branches[int(theirs.choice(len(probs), p=probs))]
    assert ours.bit_generator.state == theirs.bit_generator.state


# Entries no draw accepts: one negative or NaN, one or two +inf, or a
# finite pair whose sum overflows to +inf.
refused = st.one_of(
    st.one_of(st.floats(max_value=-5e-324), st.just(math.nan)).map(lambda p: [p]),
    st.lists(st.just(math.inf), min_size=1, max_size=2),
    st.lists(st.floats(min_value=1e308, allow_infinity=False), min_size=2, max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(weights, refused, st.integers(0, 8), st.integers(0, 2 ** 32 - 1))
def test_draw_raises_where_generator_choice_raises(ws, bad, at, seed):
    probs = ws[:at] + bad + ws[at:]
    with pytest.raises(
        ValueError, match="(?i)probabilities (are not non-negative|contain NaN|do not sum to 1)"
    ):
        np.random.default_rng(seed).choice(len(probs), p=probs)
    with pytest.raises(ValueError, match="is negative or NaN|total inf; .* total below inf"):
        draw_branch([(i, p, None) for i, p in enumerate(probs)], np.random.default_rng(seed))
