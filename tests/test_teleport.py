"""Protocol engines, the derivation oracle, and table certification."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim import clear_caches, teleport
from teleportsim.bell import BellState, measure_bell_branches
from teleportsim.harness import corrections_from_message, run_session
from teleportsim.pauli import PauliFactor, PauliString
from teleportsim.qstate import fidelity, make_state, reorder
from teleportsim.teleport import (
    MAX_PROTOCOL_WIDTH,
    VERDICT_MATCH,
    VERDICT_OPERATOR,
    VERDICT_PHASE,
    AmbiguousCorrectionError,
    CorrectionTable,
    NoCorrectionError,
    _solve_correction,
    certify_table,
    composed_correction,
    composed_table,
    derive_corrections,
    enumerate_protocol_branches,
    protocol_labels,
    reference_table,
    teleport_branches,
)

from conftest import TOL, rand_state, state_vectors

PSIM, PSIP, PHIM, PHIP = BellState


def u(alpha=0.6, beta=0.8):
    return make_state(("x1",), [alpha, beta])


# --- single-pair engine ---------------------------------------------------


def test_single_qubit_branches_are_the_published_rows():
    # Corrections I, Z, X, ZX in outcome order, output signs -, +, +, -.
    branches = teleport_branches(u())
    tokens = [t.corrections.tokens() for t in branches]
    assert tokens == ["I", "Z@b1", "X@b1", "ZX@b1"]
    phases = [t.residual_phase for t in branches]
    assert np.allclose(phases, [-1, 1, 1, -1], atol=TOL)
    for t in branches:
        assert t.final_fidelity >= 1 - TOL
        assert t.branch_probability == pytest.approx(0.25, abs=TOL)
        assert t.bell_pairs_consumed == 1
        assert len(t.message) == 2
    assert [t.single_qubit_ops for t in branches] == [0, 1, 1, 2]


def test_teleport_one_sampled_is_deterministic():
    a = run_session(u(), 123)
    b = run_session(u(), 123)
    assert a.to_dict() == b.to_dict()
    assert a.final_fidelity >= 1 - TOL


def test_teleport_one_rejects_wrong_width_and_missing_rng():
    with pytest.raises(ValueError, match="session: n must be 1..5, got 6"):
        run_session(rand_state(np.random.default_rng(0), 6), 1)
    with pytest.raises(ValueError, match="seed is required"):
        run_session(u(), None)
    with pytest.raises(TypeError):
        run_session(u())  # the seed is a required argument


# --- two-pair engine --------------------------------------------------------


def test_two_qubit_branches_uniform_and_faithful():
    rng = np.random.default_rng(4)
    phi = rand_state(rng, 2, prefix="x")
    branches = teleport_branches(phi)
    assert len(branches) == 16
    for t in branches:
        assert t.final_fidelity >= 1 - TOL
        assert t.branch_probability == pytest.approx(1 / 16, abs=TOL)
        assert t.bell_pairs_consumed == 2
        assert len(t.message) == 4
        assert t.single_qubit_ops <= 4


def test_two_qubit_key_corrections():
    by_message = {t.message: t for t in teleport_branches(rand_state(np.random.default_rng(8), 2))}
    # Both pairs on the singlet outcome need no correction at all.
    assert by_message["0000"].corrections == PauliString()
    # Both pairs on phi- need an X on each receiving qubit.
    assert by_message["1010"].corrections == PauliString.from_pairs(
        [("b1", PauliFactor.X), ("b2", PauliFactor.X)]
    )
    # (psi+ then phi-) needs X on b1 as well as Z on b2.
    assert by_message["0110"].corrections == PauliString.from_pairs(
        [("b1", PauliFactor.X), ("b2", PauliFactor.Z)]
    )


def test_entangled_input_teleports_exactly():
    phi = make_state(("x1", "x2"), [1, 0, 0, 1])
    for t in teleport_branches(phi):
        assert t.final_fidelity >= 1 - TOL


# --- n-qubit engine ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_psi_minus_needs_no_correction(n):
    xi = rand_state(np.random.default_rng(n), n, prefix="x")
    branches = {t.message: t for t in teleport_branches(xi)}
    assert branches["00" * n].corrections == PauliString()


def test_five_qubit_sampled_run():
    xi = rand_state(np.random.default_rng(55), 5, prefix="x")
    t = run_session(xi, 9)
    assert t.final_fidelity >= 1 - TOL
    assert t.bell_pairs_consumed == 5
    assert len(t.message) == 10
    assert t.single_qubit_ops <= 10


def test_width_limits():
    with pytest.raises(ValueError, match="1..5"):
        run_session(rand_state(np.random.default_rng(0), 6), 1)
    with pytest.raises(ValueError, match="1..4"):
        teleport_branches(rand_state(np.random.default_rng(0), 5))


@pytest.mark.parametrize("n", [1, 2])
def test_teleport_branches_rejects_a_table_for_another_resource(n):
    # A psi- table on a phi+ walk would score wrong fidelities, not fail.
    xi = rand_state(np.random.default_rng(n), n)
    with pytest.raises(ValueError, match=r"psi-.*phi\+"):
        teleport_branches(xi, BellState.PHI_PLUS, table=composed_table(n))


@pytest.mark.parametrize("table_n, input_n", [(1, 2), (2, 1)])
def test_teleport_branches_rejects_a_table_of_another_width(table_n, input_n):
    xi = rand_state(np.random.default_rng(input_n), input_n)
    with pytest.raises(ValueError, match=f"width {table_n}, the input has width {input_n}"):
        teleport_branches(xi, table=composed_table(table_n))


def test_walk_rejects_an_impossible_branch(monkeypatch):
    def measure_then_lose_one(state, pair):
        branches = measure_bell_branches(state, pair)
        branches[2] = (branches[2][0], 0.0, None)
        return branches

    monkeypatch.setattr(teleport, "measure_bell_branches", measure_then_lose_one)
    xi = rand_state(np.random.default_rng(5), 2)
    with pytest.raises(RuntimeError, match=r"impossible branch phi- on \('x2', 'a2'\)"):
        teleport._walk(xi, PSIM)


@settings(max_examples=40, deadline=None)
@given(
    state_vectors(max_qubits=MAX_PROTOCOL_WIDTH, prefix="x"),
    st.sampled_from(BellState),
    st.integers(0, 2 ** 32 - 1),
)
def test_branches_are_uniform_and_faithful(xi, resource, seed):
    # The paper's contract for every resource kind: a sampled session at
    # every accepted width, and every enumerated branch up to width 3.
    n = xi.n_qubits
    ts = [run_session(xi, seed, resource)]
    if n <= 3:
        ts += teleport_branches(xi, resource)
    for t in ts:
        assert abs(t.branch_probability - 0.25 ** n) < TOL
        assert t.final_fidelity >= 1 - TOL
        assert t.bell_pairs_consumed == n
        assert len(t.message) == 2 * n
        assert t.single_qubit_ops <= 2 * n
        assert t.corrections == corrections_from_message(t.message, resource)


@settings(max_examples=10, deadline=None)
@given(state_vectors(max_qubits=2, prefix="x"), st.sampled_from(list(BellState)))
def test_any_resource_kind_teleports(xi, resource):
    for t in teleport_branches(xi, resource=resource):
        assert t.final_fidelity >= 1 - TOL
        assert t.resource is resource


def test_linearity_of_branch_remainders():
    # Peeling the last input qubit: teleporting the two half-width blocks
    # separately and recombining them matches every full-width branch.
    rng = np.random.default_rng(21)
    xi = rand_state(rng, 3, prefix="x")
    _, _, bs = protocol_labels(3)
    table2 = composed_table(2)

    zeta = xi.amps[0::2]
    zeta_prime = xi.amps[1::2]
    w0, w1 = np.linalg.norm(zeta), np.linalg.norm(zeta_prime)
    sub0 = make_state(("x1", "x2"), zeta)
    sub1 = make_state(("x1", "x2"), zeta_prime)

    recombined = {}
    outs = {}
    for sub, key in ((sub0, 0), (sub1, 1)):
        for outcomes, _, receiver in enumerate_protocol_branches(sub):
            corrected = reorder(table2.entry(outcomes).apply(receiver), ("b1", "b2"))
            outs.setdefault(outcomes, {})[key] = corrected.amps
    for kinds, blocks in outs.items():
        merged = np.zeros(8, dtype=complex)
        merged[0::2] = w0 * blocks[0]
        merged[1::2] = w1 * blocks[1]
        recombined[kinds] = make_state(bs, merged)

    for t in teleport_branches(xi):
        tail = t.outcomes[1:]  # the (x2,a2),(x1,a1) part
        target = make_state(bs, xi.amps)
        assert fidelity(recombined[tail], target) >= 1 - TOL
        assert t.final_fidelity >= 1 - TOL


# --- derivation oracle --------------------------------------------------


def test_derived_width_one_matches_reference_exactly():
    report = certify_table(derive_corrections(1), reference_table(1))
    assert report.counts == {VERDICT_MATCH: 4, VERDICT_PHASE: 0, VERDICT_OPERATOR: 0}


def test_derived_tables_match_composed_rule():
    for resource in BellState:
        for n in (1, 2, 3):
            report = certify_table(derive_corrections(n, resource), composed_table(n, resource))
            assert report.all_match, (resource, n, report.counts)


def test_oracle_never_consults_the_composed_rule_or_the_fixture(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the derivation oracle must stay independent")

    for name in ("composed_correction", "base_factor_map", "reference_table"):
        monkeypatch.setattr(teleport, name, forbidden)
    for n in (1, 2, 3):
        assert len(derive_corrections(n).entries) == 4 ** n


def test_engine_never_consults_the_oracle(monkeypatch):
    # Every resource's rule is the psi- rule's bits XOR the resource's own
    # entry, so certifying the oracle against the engine checks two routes.
    def forbidden(*args, **kwargs):
        raise AssertionError("the engine's rule must not come from the oracle")

    for name in (
        "derive_corrections", "_solve_correction", "_receiver_rows", "_fiducial_states",
        "_validate_table",
    ):
        monkeypatch.setattr(teleport, name, forbidden)
    clear_caches()
    for resource in BellState:
        for n in (1, 2, 3):
            assert len(composed_table(n, resource).entries) == 4 ** n


def test_derive_width_four_is_unique_and_valid():
    # The solver checks all 256 candidates per branch, so completing at all
    # certifies uniqueness; validation replays 100 random states.
    table = derive_corrections(4)
    assert len(table.entries) == 256
    assert certify_table(table, composed_table(4)).all_match


def test_derived_table_for_alternate_resource():
    table = derive_corrections(2, BellState.PHI_PLUS)
    # phi+ resource flips the rule: the all-phi+ outcome needs no correction.
    assert table.entry((PHIP, PHIP)) == PauliString()
    assert table.entry((PSIM, PSIM)) == PauliString.from_pairs(
        [("b1", PauliFactor.ZX), ("b2", PauliFactor.ZX)]
    )


def test_derive_rejects_bad_width():
    with pytest.raises(ValueError, match="1..4"):
        derive_corrections(0)
    with pytest.raises(ValueError, match="1..4"):
        derive_corrections(5)


def test_solver_flags_ambiguity_on_poor_fiducials():
    # A single basis state cannot distinguish X from ZX on the flipped qubit.
    inputs = np.array([[1, 0]], dtype=complex)
    remainders = np.array([[0, 1]], dtype=complex)
    with pytest.raises(AmbiguousCorrectionError, match="factor strings fit"):
        _solve_correction(("b1",), inputs, remainders)


def test_solver_flags_unrecoverable_remainders():
    # A Hadamard-rotated remainder is not Pauli-correctable.
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    inputs = np.array([[1, 0], [0, 1], [1, 1] / np.sqrt(2), [1, 1j] / np.sqrt(2)])
    remainders = inputs @ h.T
    with pytest.raises(NoCorrectionError, match="no factor string"):
        _solve_correction(("b1",), inputs, remainders)


def test_derivation_failure_names_branch_width_and_tolerance(monkeypatch):
    # Hadamard-rotate the |+> fiducial's remainder on branch 10 (phi-):
    # X|+> becomes |0>, which no X-part-fixed candidate returns to |+>.
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    real = teleport._receiver_rows

    def patched(xi, resource):
        rows = real(xi, resource)
        if np.allclose(xi.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)]):
            rows = rows.copy()
            rows[2] = h @ rows[2]
        return rows

    monkeypatch.setattr(teleport, "_receiver_rows", patched)
    named = r"^branch 10: no factor string of width 1 .*SOLVE_TOL=1e-09"
    with pytest.raises(NoCorrectionError, match=named):
        derive_corrections(1)


def test_derivation_ambiguity_names_the_branch(monkeypatch):
    # Basis fiducials alone leave the Z part free on every branch.
    real = teleport._fiducial_states
    monkeypatch.setattr(teleport, "_fiducial_states", lambda xs: real(xs)[: 2 ** len(xs)])
    named = r"^branch 00: 2 factor strings fit at width 1 within SOLVE_TOL=1e-09"
    with pytest.raises(AmbiguousCorrectionError, match=named):
        derive_corrections(1)


# --- correction tables ----------------------------------------------------


def test_table_requires_full_coverage():
    with pytest.raises(ValueError, match="all 4 outcome sequences"):
        CorrectionTable(1, PSIM, {(PSIM,): PauliString()})


def test_table_enforces_operation_bound():
    entries = {(k,): PauliString.from_pairs([("b1", PauliFactor.ZX), ("b2", PauliFactor.X)])
               for k in BellState}
    with pytest.raises(ValueError, match="bound"):
        CorrectionTable(1, PSIM, entries)


def test_table_text_round_trip():
    table = composed_table(2)
    text = table.to_text()
    again = CorrectionTable.from_text(text, 2, PSIM)
    assert certify_table(table, again).all_match
    first = text.splitlines()[0]
    assert first == "0000 I"


def test_table_from_text_rejects_bad_code():
    with pytest.raises(ValueError, match="bad outcome code"):
        CorrectionTable.from_text("012 I\n", 1, PSIM)
    with pytest.raises(ValueError, match="bad outcome code"):
        CorrectionTable.from_text("0a I\n", 1, PSIM)
    # A repeated row must not silently replace the first.
    with pytest.raises(ValueError, match="repeated outcome code '00'"):
        CorrectionTable.from_text(composed_table(1).to_text() + "00 X@b1\n", 1, PSIM)


def test_validation_names_the_wrong_row():
    table = composed_table(2)
    entries = dict(table.entries)
    entries[(PSIP, PHIM)] = PauliString.from_pairs([("b1", PauliFactor.Z)])
    wrong = CorrectionTable(2, PSIM, entries)
    with pytest.raises(NoCorrectionError, match=r"branch 0110: fidelity 0\.6403"):
        teleport._validate_table(wrong)


def test_composed_correction_orders_by_measurement():
    # Outcome list is (pair 2, pair 1); factors land on (b2, b1) respectively.
    corr = composed_correction((PHIM, PSIP), PSIM)
    assert dict(corr.factors) == {"b2": PauliFactor.X, "b1": PauliFactor.Z}


# --- certification ---------------------------------------------------------


def test_certification_counts_against_reference():
    report = certify_table(derive_corrections(2), reference_table(2))
    assert report.counts == {VERDICT_MATCH: 5, VERDICT_PHASE: 2, VERDICT_OPERATOR: 9}
    assert not report.all_match


def test_certification_verdicts_for_key_rows():
    report = certify_table(derive_corrections(2), reference_table(2))
    rows = {r.code: r for r in report.rows}
    assert rows["0000"].verdict == VERDICT_MATCH and rows["0000"].derived == "I"
    # Same factors, opposite sign: physically identical corrections.
    assert rows["0011"].verdict == VERDICT_PHASE
    # The reference drops the X on b1 that the oracle requires.
    assert rows["0110"].verdict == VERDICT_OPERATOR
    assert rows["0110"].derived == "X@b1 Z@b2"
    assert rows["0110"].reference == "Z@b2"
    # Both pairs on phi-: the oracle requires X on both receiving qubits.
    assert rows["1010"].verdict == VERDICT_OPERATOR
    assert rows["1010"].derived == "X@b1 X@b2"
    assert rows["1010"].reference == "X@b2"


def test_certification_rejects_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        certify_table(derive_corrections(1), reference_table(2))


def test_certification_rejects_resource_mismatch():
    # Tables for different resources differ by design, not by error.
    with pytest.raises(ValueError, match="resource mismatch: phi\\+ vs psi-"):
        certify_table(derive_corrections(1, BellState.PHI_PLUS), reference_table(1))


def test_reference_table_width_three_missing():
    with pytest.raises(ValueError, match="no reference table"):
        reference_table(3)


def test_transcript_dict_has_stable_fields():
    t = teleport_branches(u())[0]
    d = t.to_dict()
    assert set(d) == {
        "n", "resource", "outcomes", "message", "corrections",
        "bell_pairs_consumed", "single_qubit_ops", "final_fidelity",
        "residual_phase", "branch_probability",
    }
    assert d["outcomes"][0]["pair"] == ["x1", "a1"]
