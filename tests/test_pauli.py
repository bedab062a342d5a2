"""Correction factor algebra and token serialization."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    outcome_sequences,
    protocol_labels,
    reference_table,
)

from conftest import TOL, labels, rand_state, state_vectors


def test_op_counts():
    assert PauliFactor.I.op_count == 0
    assert PauliFactor.X.op_count == 1
    assert PauliFactor.Z.op_count == 1
    assert PauliFactor.ZX.op_count == 2


def test_factor_bits_name_its_matrix():
    # Each factor is Z^z X^x for its own (x, z) bits.
    assert [(f.x, f.z) for f in PauliFactor] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    x, z = PauliFactor.X.matrix, PauliFactor.Z.matrix
    power = np.linalg.matrix_power
    for f in PauliFactor:
        assert np.array_equal(power(z, f.z) @ power(x, f.x), f.matrix), f
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
    assert p.apply(zero).amplitude("1") == 1.0


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
    assert p.apply(zero).amplitude("0") == -1.0


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_signed_permutation_is_the_dense_matrix(n):
    order = labels(n)
    for combo in itertools.product(PauliFactor, repeat=n):
        perm, sign = signed_permutation(combo)
        dense = PauliString.from_pairs(zip(order, combo)).matrix(order)
        assert np.array_equal(np.eye(2 ** n)[perm] * sign[:, None], dense), combo


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
    np.testing.assert_allclose(out.amps, p.matrix(state.qubits) @ state.amps, rtol=0, atol=TOL)


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
    # _validate_table's form: every entry's gather on (b1..bn), stacked and
    # taken along one walk's receiver rows, bit for bit what apply gives.
    table = reference_table(2)
    xs, _, bs = protocol_labels(2)
    xi = rand_state(np.random.default_rng(3), 2, prefix="x")
    forms = [table.entry(seq).gather(bs) for seq in outcome_sequences(2)]
    perms = np.stack([perm for perm, _ in forms])
    signs = np.stack([sign for _, sign in forms])
    stacked = np.take_along_axis(_receiver_rows(xi, table.resource), perms, axis=1) * signs
    assert any(table.entry(seq).phase != 1 for seq in table.entries)
    for row, (outcomes, _, receiver) in zip(stacked, enumerate_protocol_branches(xi)):
        applied = reorder(table.entry(outcomes).apply(receiver), bs).amps
        assert np.array_equal(row.view(np.uint64), applied.view(np.uint64)), outcomes


def test_matrix_respects_qubit_order():
    p = PauliString.from_pairs([("b2", PauliFactor.X)])
    m = p.matrix(("b1", "b2"))
    expected = np.kron(np.eye(2), PauliFactor.X.matrix)
    assert np.array_equal(m, expected)


def test_matrix_rejects_a_factor_outside_the_order():
    # The dense reference is as strict as gather: a factor on a qubit the
    # order leaves out raises instead of vanishing from the operator.
    p = PauliString.from_pairs([("b1", PauliFactor.X), ("a1", PauliFactor.Z)])
    for build in (p.matrix, p.gather):
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
    assert np.array_equal(p.phase * h.matrix, f.matrix @ g.matrix)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="bad correction token"):
        parse_pauli_tokens("Y@b1")
    with pytest.raises(ValueError, match="bad correction token"):
        parse_pauli_tokens("Xb1")
