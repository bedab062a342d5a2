"""State-vector core: construction, gates, reordering, projection, literals."""
from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim.qstate import (
    SingleQubitGate,
    StateFormatError,
    apply_gate,
    computational_basis_state,
    fidelity,
    format_state_literal,
    make_state,
    parse_state_literal,
    project_qubits,
    random_state,
    reorder,
    tensor,
    with_labels,
)
from teleportsim.bell import BellState, bell_pair, measure_bell_branches
from teleportsim.pauli import PauliFactor, PauliString
from teleportsim.qstate import X_GATE, Z_GATE, ZX_GATE

from conftest import TOL, labels, rand_state, state_vectors, unitaries_2x2

S = 1 / math.sqrt(2)


# --- construction -----------------------------------------------------------


def test_make_state_normalizes():
    s = make_state(("q1",), [2, 0])
    assert s.amps[0] == 1.0 and s.amps[1] == 0.0


def test_make_state_rejects_wrong_length():
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        make_state(("q1", "q2"), [1, 0])


def test_make_state_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero state"):
        make_state(("q1",), [0, 0])


def test_make_state_rejects_tiny_norm():
    # Nonzero, but below NORM_TOL: a distinct cause from the zero vector.
    with pytest.raises(ValueError, match="too small to normalize"):
        make_state(("q1",), [1e-13, 0])


def test_make_state_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        make_state(("q1",), [np.inf, 0])


def test_make_state_rejects_overflowing_norm():
    # Finite amplitudes whose norm overflows would "normalize" to all zeros.
    with pytest.raises(ValueError, match="too large"):
        make_state(("q1", "q2"), [1e308, 1e308, 0, 0])


def test_make_state_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        make_state(("q1", "q1"), [1, 0, 0, 0])


def test_register_cap_is_sixteen():
    with pytest.raises(ValueError, match="16"):
        make_state(labels(17), np.zeros(2 ** 17))


def _basis(qubits, _):
    return computational_basis_state(qubits, 0)


_CAP = "17 qubits exceeds the 16-qubit cap"
_REPEATED = re.escape(f"duplicate qubit labels in {('q',) * 16}")


@pytest.mark.parametrize("build, qubits, match", [
    (random_state, labels(17), _CAP),
    (_basis, labels(17), _CAP),
    (random_state, ("q",) * 16, _REPEATED),
    (_basis, ("q",) * 16, _REPEATED),
], ids=["random", "basis", "random-repeated", "basis-repeated"])
def test_over_wide_register_is_rejected_before_any_amplitude(build, qubits, match):
    # 2^17 amplitudes take 2 MB, and 16 copies of one label would ask for
    # 1 MB; the register's rule must be named before any is allocated, and
    # before a random state draws from the caller's generator.
    rng = np.random.default_rng(3)
    drawn = rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            build(qubits, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    assert rng.bit_generator.state == drawn


def _four():
    return rand_state(np.random.default_rng(4), 4)


def _bell_remainder(first):
    # The measured pair leads, sits in the middle of, or trails the register.
    return _four, lambda s: measure_bell_branches(s, s.qubits[first : first + 2])[0][2]


_PHASED_PAULI = PauliString.from_pairs([("q1", PauliFactor.ZX), ("q3", PauliFactor.Z)], 1j)

# name -> (source of the input state or None, producer of the state checked).
# A producer given an input must copy it, never view it or write to it.
PRODUCERS = {
    "make_state": (None, lambda _: make_state(("q1",), [1, 0])),
    "tensor": (None, lambda _: tensor(_four(), bell_pair(BellState.PHI_PLUS, "a", "b"))),
    "apply_gate": (None, lambda _: apply_gate(_four(), X_GATE, "q2")),
    "with_labels": (None, lambda _: with_labels(_four(), labels(4, "p"))),
    "reorder": (_four, lambda s: reorder(s, ("q3", "q1", "q4", "q2"))),
    "project_qubits": (
        _four,
        lambda s: project_qubits(s, ("q3", "q1"), BellState.PSI_PLUS.amplitudes.conj())[1],
    ),
    "project_qubits-empty": (_four, lambda s: project_qubits(s, s.qubits, s.amps.conj())[1]),
    "bell-leading": _bell_remainder(0),
    "bell-middle": _bell_remainder(1),
    "bell-trailing": _bell_remainder(2),
    "PauliString.apply": (None, lambda _: _PHASED_PAULI.apply(_four())),
    "bell_pair": (None, lambda _: bell_pair(BellState.PSI_MINUS, "a", "b")),
}


@pytest.mark.parametrize("source, produce", PRODUCERS.values(), ids=PRODUCERS.keys())
def test_amps_are_read_only(source, produce):
    s = source() if source else None
    before = s.amps.tobytes() if s else None
    a = produce(s).amps
    assert a.dtype == np.complex128 and a.ndim == 1 and a.flags.c_contiguous
    with pytest.raises(ValueError):
        a[0] = 0
    if s is not None:
        assert not np.shares_memory(a, s.amps)
        assert s.amps.tobytes() == before


def test_state_vector_is_frozen_and_compared_by_identity():
    s = make_state(("q1", "q2"), [1, 0, 0, 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.qubits = ("p1", "p2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.amps = np.zeros(4, dtype=complex)
    # Slotted: no instance dict to carry stray attributes. Python 3.11's
    # frozen __setattr__ raises TypeError for a slotted class, later ones
    # FrozenInstanceError.
    with pytest.raises((AttributeError, TypeError)):
        s.label = "bell"
    assert not hasattr(s, "__dict__")
    twin = with_labels(s, s.qubits)
    assert np.array_equal(twin.amps, s.amps)
    # Equal amplitudes, distinct objects: caches keyed by a state tell them apart.
    assert twin != s and s == s
    assert hash(s) == object.__hash__(s) and hash(twin) == object.__hash__(twin)
    assert len({s, twin, s}) == 2


def test_basis_state_by_bits():
    s = computational_basis_state(("q1", "q2"), "10")
    assert s.amplitude("10") == 1.0


@pytest.mark.parametrize("bits", ["1", "0001", " 1", "1 ", "12", "", "0b1"])
def test_basis_state_rejects_a_bit_string_of_the_wrong_form(bits):
    with pytest.raises(ValueError, match=re.escape(f"{bits!r} needs exactly 2 bits")):
        computational_basis_state(("q1", "q2"), bits)


@pytest.mark.parametrize("index", [1.7, 1.0, np.float64(1.0), b"1", None],
                         ids=["fraction", "float", "numpy-float", "bytes", "none"])
def test_basis_state_rejects_an_index_that_is_not_an_integer(index):
    # int() would truncate 1.7 to |1>; the index is read as an integer or not at all.
    with pytest.raises(ValueError, match=re.escape(f"basis index {index!r} is not an integer")):
        computational_basis_state(("a",), index)


@pytest.mark.parametrize("index", [1, np.int64(1), np.uint8(1), True])
def test_basis_state_takes_any_integer_index(index):
    assert computational_basis_state(("a",), index).amplitude("1") == 1.0


def test_amplitude_reads_its_bits_as_the_basis_state_does():
    s = computational_basis_state(("q1", "q2"), "10")
    with pytest.raises(ValueError, match=re.escape("'1' needs exactly 2 bits, each 0 or 1")):
        s.amplitude("1")


def test_with_labels_keeps_amplitudes():
    s = make_state(("p", "q"), [1, 2, 3, 4])
    t = with_labels(s, ("x1", "x2"))
    assert t.qubits == ("x1", "x2")
    assert np.array_equal(s.amps, t.amps)


def test_random_state_is_normalized(rng):
    s = random_state(labels(3), rng)
    assert abs(np.linalg.norm(s.amps) - 1) < TOL


# --- tensor -----------------------------------------------------------------


def test_tensor_two_singlets_signs():
    # (|01> - |10>)(|01> - |10>) / 2: hand-expanded over (a1, b1, a2, b2).
    s = tensor(
        bell_pair(BellState.PSI_MINUS, "a1", "b1"),
        bell_pair(BellState.PSI_MINUS, "a2", "b2"),
    )
    expected = {0b0101: 0.5, 0b0110: -0.5, 0b1001: -0.5, 0b1010: 0.5}
    for idx in range(16):
        assert s.amps[idx] == pytest.approx(expected.get(idx, 0.0), abs=TOL)


def test_tensor_first_factor_is_most_significant():
    s = tensor(
        computational_basis_state(("p",), 1), computational_basis_state(("q",), 0)
    )
    assert s.amplitude("10") == 1.0


def test_tensor_rejects_overlap():
    a = computational_basis_state(("q1",), 0)
    with pytest.raises(ValueError, match="duplicate qubit labels"):
        tensor(a, a)


def test_joint_preparation_amplitudes():
    # Uniform 2-qubit input against two singlet resources; spot-check the
    # 6-qubit joint amplitudes over (x1, x2, a2, b2, a1, b1).
    phi = make_state(("x1", "x2"), [0.5, 0.5, 0.5, 0.5])
    joint = tensor(
        tensor(phi, bell_pair(BellState.PSI_MINUS, "a2", "b2")),
        bell_pair(BellState.PSI_MINUS, "a1", "b1"),
    )
    assert joint.amplitude("000101") == pytest.approx(0.25, abs=TOL)
    assert joint.amplitude("000110") == pytest.approx(-0.25, abs=TOL)
    assert joint.amplitude("001010") == pytest.approx(0.25, abs=TOL)
    assert joint.amplitude("000000") == pytest.approx(0.0, abs=TOL)


# --- gates --------------------------------------------------------------


def test_x_flips_basis():
    """X|0> = |1>, X|1> = |0>"""
    zero = computational_basis_state(("q",), 0)
    assert apply_gate(zero, X_GATE, "q").amplitude("1") == 1.0


def test_z_sign_convention():
    """Z|0> = -|0>, Z|1> = |1>"""
    zero = computational_basis_state(("q",), 0)
    one = computational_basis_state(("q",), 1)
    assert apply_gate(zero, Z_GATE, "q").amplitude("0") == -1.0
    assert apply_gate(one, Z_GATE, "q").amplitude("1") == 1.0


def test_zx_is_x_then_z():
    zero = computational_basis_state(("q",), 0)
    one = computational_basis_state(("q",), 1)
    assert apply_gate(zero, ZX_GATE, "q").amplitude("1") == 1.0
    assert apply_gate(one, ZX_GATE, "q").amplitude("0") == -1.0


def test_apply_gate_targets_correct_axis():
    s = computational_basis_state(("p", "q"), "00")
    assert apply_gate(s, X_GATE, "q").amplitude("01") == 1.0
    assert apply_gate(s, X_GATE, "p").amplitude("10") == 1.0


def test_apply_gate_unknown_target():
    s = computational_basis_state(("p",), 0)
    with pytest.raises(ValueError, match="unknown qubit"):
        apply_gate(s, X_GATE, "zz")


def test_custom_gate_must_be_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        SingleQubitGate.custom("bad", [[1, 0], [0, 2]])


@settings(max_examples=60, deadline=None)
@given(state_vectors(max_qubits=3), state_vectors(max_qubits=3), unitaries_2x2(), st.integers(0, 2))
def test_unitarity_preserves_fidelity(s, t, u, which):
    if s.n_qubits != t.n_qubits:
        return
    target = s.qubits[which % s.n_qubits]
    g = SingleQubitGate.custom("u", u)
    before = fidelity(s, t)
    after = fidelity(apply_gate(s, g, target), apply_gate(t, g, target))
    assert abs(before - after) < TOL


# --- reorder ------------------------------------------------------------


def test_reorder_swaps_singlet_sign():
    # Swapping the two halves of |01>-|10> lands -1/sqrt(2) on |01>.
    s = bell_pair(BellState.PSI_MINUS, "a", "b")
    swapped = reorder(s, ("b", "a"))
    assert swapped.amplitude("01") == pytest.approx(-S, abs=TOL)
    assert swapped.amplitude("10") == pytest.approx(S, abs=TOL)


def test_reorder_identity_is_noop():
    s = rand_state(np.random.default_rng(1), 3)
    assert np.array_equal(reorder(s, s.qubits).amps, s.amps)


def test_reorder_rejects_non_permutation():
    s = computational_basis_state(("p", "q"), 0)
    with pytest.raises(ValueError, match="permutation"):
        reorder(s, ("p", "p"))
    with pytest.raises(ValueError, match="permutation"):
        reorder(s, ("p", "r"))


@settings(max_examples=50, deadline=None)
@given(state_vectors(min_qubits=2, max_qubits=4), st.randoms(use_true_random=False))
def test_reorder_is_a_group_action(s, pyrandom):
    p1 = list(s.qubits)
    p2 = list(s.qubits)
    pyrandom.shuffle(p1)
    pyrandom.shuffle(p2)
    one_step = reorder(s, p2)
    two_step = reorder(reorder(s, p1), p2)
    assert one_step.qubits == two_step.qubits
    assert np.array_equal(one_step.amps, two_step.amps)


# --- fidelity -----------------------------------------------------------


def test_fidelity_orthogonal_and_equal():
    zero = computational_basis_state(("q",), 0)
    one = computational_basis_state(("q",), 1)
    assert fidelity(zero, one) == 0.0
    assert fidelity(zero, zero) == 1.0


def test_fidelity_reorders_internally():
    a = computational_basis_state(("p", "q"), "01")
    b = computational_basis_state(("q", "p"), "10")
    assert fidelity(a, b) == pytest.approx(1.0, abs=TOL)


def test_fidelity_rejects_mismatched_sets():
    a = computational_basis_state(("p",), 0)
    b = computational_basis_state(("q",), 0)
    with pytest.raises(ValueError, match="is not a permutation of"):
        fidelity(a, b)


@settings(max_examples=60, deadline=None)
@given(state_vectors(prefix="w"), state_vectors(prefix="w"), st.floats(0, 2 * math.pi))
def test_fidelity_symmetric_and_phase_invariant(a, b, theta):
    if a.n_qubits != b.n_qubits:
        return
    f = fidelity(a, b)
    assert abs(f - fidelity(b, a)) < TOL
    rotated = make_state(a.qubits, a.amps * np.exp(1j * theta))
    assert abs(fidelity(rotated, b) - f) < TOL


# --- projection ---------------------------------------------------------


def test_projection_branch_of_single_pair_protocol():
    # |u>_x (x) (|01>-|10>)/sqrt(2) on (a, b), projected onto (|01>+|10>)/sqrt(2)
    # at (x, a): probability 1/4, remainder -alpha|0> + beta|1>.
    alpha, beta = 0.6, 0.8
    u = make_state(("x",), [alpha, beta])
    joint = tensor(u, bell_pair(BellState.PSI_MINUS, "a", "b"))
    prob, rem = project_qubits(joint, ("x", "a"), BellState.PSI_PLUS.amplitudes.conj())
    assert prob == pytest.approx(0.25, abs=TOL)
    assert rem.qubits == ("b",)
    assert rem.amps[0] == pytest.approx(-alpha, abs=TOL)
    assert rem.amps[1] == pytest.approx(beta, abs=TOL)


def test_projecting_everything_leaves_empty_remainder():
    s = bell_pair(BellState.PSI_MINUS, "a", "b")
    prob, rem = project_qubits(s, ("a", "b"), s.amps.conj())
    assert prob == pytest.approx(1.0, abs=TOL)
    assert rem.qubits == ()
    assert rem.amps[0] == pytest.approx(1.0, abs=TOL)


def test_impossible_branch_is_marked():
    s = computational_basis_state(("a", "b"), "00")
    prob, rem = project_qubits(s, ("a", "b"), BellState.PSI_MINUS.amplitudes.conj())
    assert prob == pytest.approx(0.0, abs=TOL)
    assert rem is None


def test_projection_validates_targets():
    s = computational_basis_state(("a", "b", "c"), 0)
    bra = computational_basis_state(("a", "b", "c"), 0).amps.conj()
    for wrong in (bra, bra[:4].reshape(2, 2), bra[:2]):
        with pytest.raises(ValueError, match=re.escape(f"bra has shape {wrong.shape}, not (4,)")):
            project_qubits(s, ("a", "b"), wrong)
    with pytest.raises(ValueError, match="duplicate"):
        project_qubits(s, ("a", "a"), bra[:4])
    with pytest.raises(ValueError, match="unknown qubit"):
        project_qubits(s, ("a", "d"), bra[:4])


@settings(max_examples=50, deadline=None)
@given(state_vectors(min_qubits=2, max_qubits=3))
def test_bell_projector_completeness(s):
    pair = s.qubits[:2]
    total = 0.0
    for kind in BellState:
        prob, _ = project_qubits(s, pair, kind.amplitudes.conj())
        total += prob
    assert abs(total - 1.0) < TOL


# --- state literal --------------------------------------------------


def test_literal_round_trip():
    s = rand_state(np.random.default_rng(9), 2)
    again = parse_state_literal(format_state_literal(s))
    assert again.qubits == s.qubits
    assert fidelity(s, again) == pytest.approx(1.0, abs=TOL)


def test_literal_parses_uniform_fixture():
    text = "x1 x2\n0.5,0\n0.5,0\n0.5,0\n0.5,0\n"
    s = parse_state_literal(text)
    assert np.allclose(s.amps, 0.5)


def test_literal_truncation_names_missing_index():
    with pytest.raises(StateFormatError, match="missing amplitude for index 2"):
        parse_state_literal("x1 x2\n1,0\n0,0\n")


def test_literal_bad_row_names_line():
    with pytest.raises(StateFormatError, match="line 3"):
        parse_state_literal("x1\n1,0\nnot-a-number\n")


def test_literal_with_a_repeated_label_is_rejected_before_any_row():
    # The labels are named, not the malformed row after them.
    with pytest.raises(StateFormatError, match=re.escape("duplicate qubit labels in ('x1', 'x1')")):
        parse_state_literal("x1 x1\nnot-a-row\n")


def test_literal_extra_rows_rejected():
    with pytest.raises(StateFormatError, match="extra amplitude"):
        parse_state_literal("x1\n1,0\n0,0\n0,0\n")


def test_literal_ignores_comments_and_blanks():
    s = parse_state_literal("# header\nq\n\n1,0\n0,0\n")
    assert s.amplitude("0") == 1.0
