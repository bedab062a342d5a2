"""Correction factor algebra and token serialization."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from teleportsim.bell import encode, messages
from teleportsim.pauli import (
    PauliFactor,
    PauliString,
    parse_pauli_tokens,
    signed_permutation,
)
from teleportsim.qstate import computational_basis_state, reorder
from teleportsim.teleport import (
    _receiver_rows,
    enumerate_protocol_branches,
    protocol_labels,
    reference_table,
)

from conftest import GATES, TOL, amplitude, dense, labels, rand_state, state_vectors


def test_op_counts():
    assert PauliFactor.I.op_count == 0
    assert PauliFactor.X.op_count == 1
    assert PauliFactor.Z.op_count == 1
    assert PauliFactor.ZX.op_count == 2


def test_factor_bits_name_its_matrix():
    # Each factor is Z^z X^x for its own (x, z) bits.
    assert [(f.x, f.z) for f in PauliFactor] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    x, z = GATES["X"], GATES["Z"]
    power = np.linalg.matrix_power
    for f in PauliFactor:
        assert np.array_equal(power(z, f.z) @ power(x, f.x), GATES[f.value]), f
        assert PauliFactor.from_bits(f.x, f.z) is f


def test_from_pairs_drops_identities():
    p = PauliString.from_pairs([("b1", PauliFactor.I), ("b2", PauliFactor.X)])
    assert p.factors == (("b2", PauliFactor.X),)
    assert "b1" not in dict(p.factors)
    assert p.op_count == 1


def test_repeated_qubit_rejected():
    with pytest.raises(ValueError, match="repeated"):
        PauliString((("b1", PauliFactor.X), ("b1", PauliFactor.Z)))


def test_stored_identity_rejected():
    with pytest.raises(ValueError, match="identity"):
        PauliString((("b1", PauliFactor.I),))


def test_apply_zx():
    zero = computational_basis_state(("q",), 0)
    p = PauliString.from_pairs([("q", PauliFactor.ZX)])
    assert amplitude(p.apply(zero), "1") == 1.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: PauliString.from_pairs([("q", PauliFactor.X)], 0.5),
        lambda: PauliString(phase=1 + 1e-10),
    ],
    ids=["half", "near-one"],
)
def test_a_phase_other_than_a_unit_is_rejected(build):
    # A phase of 0.5 would shrink the norm through apply; one of 1 + 1e-10
    # would have no token form. Both fail where the string is built.
    with pytest.raises(ValueError, match="not exactly 1, -1, 1j or -1j"):
        build()


def test_apply_phase_scales_amplitudes():
    zero = computational_basis_state(("q",), 0)
    p = PauliString(phase=-1)
    assert amplitude(p.apply(zero), "0") == -1.0


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_signed_permutation_is_the_dense_matrix(n):
    # Every (x, z) pair, bit n-1-j of each mask on the j-th qubit of the order.
    order = labels(n)
    for x, z in itertools.product(range(2 ** n), repeat=2):
        perm, sign = signed_permutation(x, z, n)
        bits = [(x >> (n - 1 - j) & 1, z >> (n - 1 - j) & 1) for j in range(n)]
        p = PauliString.from_pairs((q, PauliFactor.from_bits(*xz)) for q, xz in zip(order, bits))
        assert np.array_equal(np.eye(2 ** n)[perm] * sign[:, None], dense(p, order)), (x, z)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_masks_round_trip_through_from_masks(n):
    # Every string on the canonical order and on its reverse, with every phase.
    for order in (labels(n), labels(n)[::-1]):
        for combo, phase in itertools.product(itertools.product(PauliFactor, repeat=n),
                                              (1, -1, 1j, -1j)):
            p = PauliString.from_pairs(zip(order, combo), phase)
            assert PauliString.from_masks(order, *p.masks(order), p.phase) == p, p.tokens()


@given(
    state=state_vectors(max_qubits=4),
    data=st.data(),
    phase=st.sampled_from([1, -1, 1j]),
)
def test_apply_equals_dense_product(state, data, phase):
    # The string names the register's qubits in its own, drawn order.
    order = data.draw(st.permutations(state.qubits))
    factors = data.draw(st.lists(st.sampled_from(PauliFactor), min_size=len(order),
                                 max_size=len(order)))
    p = PauliString.from_pairs(zip(order, factors), phase)
    out = p.apply(state)
    assert out.qubits == state.qubits
    np.testing.assert_allclose(out.amps, dense(p, state.qubits) @ state.amps, rtol=0, atol=TOL)


def test_apply_rejects_a_factor_outside_the_register():
    state = computational_basis_state(("b1", "b2"), 0)
    for p in (
        PauliString.from_pairs([("b3", PauliFactor.X)]),
        PauliString.from_pairs([("b1", PauliFactor.Z), ("b3", PauliFactor.X)], phase=-1),
    ):
        with pytest.raises(ValueError, match="unknown qubit 'b3'"):
            p.apply(state)


@pytest.mark.parametrize("phase", [-1, 1j, -1j], ids=["-1", "+i", "-i"])
def test_a_unit_phase_is_applied_exactly(phase):
    # The phase rides in the gather's signs, so it is exact: no renormalization
    # moves the last bits of a phased correction.
    rng = np.random.default_rng(17)
    for _ in range(100):
        state = rand_state(rng, 3, prefix="b")
        pairs = list(zip(state.qubits, rng.choice(list(PauliFactor), size=3)))
        phased = PauliString.from_pairs(pairs, phase).apply(state)
        plain = PauliString.from_pairs(pairs).apply(state)
        assert np.array_equal(phased.amps.view(np.uint64), (phase * plain.amps).view(np.uint64))


def test_stacked_gathers_equal_each_entry_applied():
    # Every entry's gather on (b1..bn), stacked and taken along one walk's
    # receiver rows, bit for bit what apply gives. _validate_table's rows
    # equal these gathers (test_table_gathers_are_each_entrys_gather).
    table = reference_table(2)
    xs, _, bs = protocol_labels(2)
    xi = rand_state(np.random.default_rng(3), 2, prefix="x")
    forms = [table.entries[m].gather(bs) for m in messages(2)]
    perms = np.stack([perm for perm, _ in forms])
    signs = np.stack([sign for _, sign in forms])
    stacked = np.take_along_axis(_receiver_rows(xi, table.resource), perms, axis=1) * signs
    assert any(corr.phase != 1 for corr in table.entries.values())
    for row, (outcomes, _, receiver) in zip(stacked, enumerate_protocol_branches(xi)):
        applied = reorder(table.entries[encode(outcomes)].apply(receiver), bs).amps
        assert np.array_equal(row.view(np.uint64), applied.view(np.uint64)), outcomes


def test_gather_rejects_a_factor_outside_the_order():
    # A factor on a qubit the order leaves out raises instead of vanishing
    # from the string's masks, and so from its gather form.
    p = PauliString.from_pairs([("b1", PauliFactor.X), ("a1", PauliFactor.Z)])
    for build in (p.masks, p.gather):
        with pytest.raises(ValueError, match="unknown qubit 'a1'"):
            build(("b1",))


def test_tokens_identity_and_phase():
    assert PauliString().tokens() == "I"
    assert PauliString(phase=-1).tokens() == "-1 I"
    p = PauliString.from_pairs([("b1", PauliFactor.Z), ("b2", PauliFactor.X)])
    assert p.tokens() == "Z@b1 X@b2"


@pytest.mark.parametrize(
    "text", ["I", "Z@b1", "X@b1 Z@b2", "-1 ZX@b1", "Z@b1 X@b1 Z@b2 X@b2"]
)
def test_token_round_trip(text):
    p = parse_pauli_tokens(text)
    assert parse_pauli_tokens(p.tokens()) == p


def test_parse_composes_same_qubit_right_to_left():
    # "X@b1 Z@b1" means apply Z first, then X: the matrix X Z = -ZX.
    p = parse_pauli_tokens("X@b1 Z@b1")
    assert p.factors == (("b1", PauliFactor.ZX),)
    assert p.phase == -1
    q = parse_pauli_tokens("Z@b1 X@b1")
    assert q.factors == (("b1", PauliFactor.ZX),)
    assert q.phase == 1


@pytest.mark.parametrize("f, g", itertools.product(PauliFactor, repeat=2))
def test_parse_composes_every_factor_pair_exactly(f, g):
    # Z^z X^x times Z^z' X^x' is (-1)^(x z') Z^(z ^ z') X^(x ^ x'), exactly.
    p = parse_pauli_tokens(f"{f.value}@q {g.value}@q")
    h = dict(p.factors).get("q", PauliFactor.I)
    assert np.array_equal(p.phase * GATES[h.value], GATES[f.value] @ GATES[g.value])


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="bad correction token"):
        parse_pauli_tokens("Y@b1")
    with pytest.raises(ValueError, match="bad correction token"):
        parse_pauli_tokens("Xb1")
