"""Faults the suite must catch.

Each case injects one fault with monkeypatch and asserts the check that
must fail: exit 1 from the command line, a changed pinned digest, or a
named exception. Every fault is injected twice: on cold caches, and
after a sound warm-up campaign has filled them. An injection is followed
by clear_caches(), the one reset of every package cache, so no result
computed before the fault can hide it.
"""
from __future__ import annotations

import importlib
import os
import pkgutil
import re

import numpy as np
import pytest

import teleportsim
from teleportsim import PACKAGE_CACHES, bell, clear_caches, harness, pauli, teleport
from teleportsim.bell import BellState, draw_branch
from teleportsim.cli import CampaignConfig, fixture_state, main, resolve_input, run_campaign
from teleportsim.pauli import PauliFactor, PauliString
from teleportsim.qstate import FIDELITY_TOL, _state, make_state, random_state

from test_golden import GOLDEN as REPORTS, report_digest
from test_golden_transcripts import GOLDEN as TRANSCRIPTS, transcript_digest

SAMPLE = ["--mode", "sample", "--n", "2", "--trials", "60", "--seed", "11", "--out", os.devnull]
BRANCHES = ["--mode", "branches", "--n", "2", "--seed", "11", "--out", os.devnull]
DERIVE = ("derive-table", 2, "random", 1, 0)
SAMPLED = ("sample", 2, "random", 64, 13)
SESSION_INPUT = random_state(("x1", "x2"), np.random.default_rng(17))


@pytest.fixture(params=[False, True], ids=["cold", "after-warm-up"])
def warm(request):
    """Cold caches, or caches filled by a sound campaign; emptied again afterwards,
    so no faulty result outlives its test."""
    clear_caches()
    if request.param:
        assert not run_campaign(CampaignConfig(n=2, trials=60, seed=11)).failed
    yield
    clear_caches()


def test_clear_caches_reaches_every_package_cache():
    found = set()
    for info in pkgutil.iter_modules(teleportsim.__path__):
        module = importlib.import_module(f"teleportsim.{info.name}")
        found |= {
            obj for obj in vars(module).values()
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__
        }
    assert found == set(PACKAGE_CACHES)


def test_swapped_psi_minus_rule_fails_the_campaign(warm, monkeypatch):
    rule = teleport.PSI_MINUS_FACTORS
    z, x = rule[BellState.PSI_PLUS], rule[BellState.PHI_MINUS]
    monkeypatch.setitem(rule, BellState.PSI_PLUS, x)
    monkeypatch.setitem(rule, BellState.PHI_MINUS, z)
    clear_caches()
    assert main(SAMPLE) == 1


def test_flipped_bell_row_sign_fails_both_routes(warm, monkeypatch):
    # phi+ becomes phi-: the engine corrects the wrong operator, and the
    # oracle derives a table for the measurement it now makes.
    row = bell._AMPLITUDES[BellState.PHI_PLUS].copy()
    row[3] = -row[3]
    monkeypatch.setitem(bell._AMPLITUDES, BellState.PHI_PLUS, row)
    clear_caches()
    assert main(SAMPLE) == 1
    assert report_digest(*DERIVE) != REPORTS[DERIVE]


@pytest.mark.parametrize("kind", [BellState.PSI_PLUS, BellState.PHI_PLUS], ids=lambda k: k.value)
def test_flipped_bell_row_sign_fails_every_resource(warm, monkeypatch, kind):
    # psi+ becomes psi-, or phi+ becomes phi-. Every resource's rule comes
    # from the psi- rule's bits, not from the rows, so a walk over any
    # resource corrects some branch with the wrong operator.
    row = bell._AMPLITUDES[kind].copy()
    last = np.flatnonzero(row)[-1]
    row[last] = -row[last]
    monkeypatch.setitem(bell._AMPLITUDES, kind, row)
    clear_caches()
    for resource in BellState:
        worst = min(t.final_fidelity for t in teleport.teleport_branches(SESSION_INPUT, resource))
        assert worst < 1 - FIDELITY_TOL, resource


def test_flipped_mask_sign_fails_the_derivation(warm, monkeypatch):
    # One entry of one Z row: no string on that row is a Pauli string any
    # more, so a branch that needs it has no correction. A whole row flipped
    # would only be a global sign, which no fidelity can see.
    build = teleport._mask_tables

    def flipped(n):
        xor, signs = build(n)
        signs = signs.copy()
        signs[1, 2] = -signs[1, 2]
        return xor, signs

    monkeypatch.setattr(teleport, "_mask_tables", flipped)
    clear_caches()
    with pytest.raises(teleport.NoCorrectionError, match=r"^branch [01]{4}: no factor string"):
        teleport.derive_corrections(2)


def test_drawing_the_next_branch_changes_the_pinned_reports(warm, monkeypatch):
    # Every branch is faithful, so the fidelity exit cannot see a wrong
    # draw; the pinned report and transcript digests do.
    def next_branch(branches, rng):
        drawn = draw_branch(branches, rng)
        i = next(i for i, b in enumerate(branches) if b is drawn)
        return branches[(i + 1) % len(branches)]

    monkeypatch.setattr(teleport, "draw_branch", next_branch)
    clear_caches()
    assert report_digest(*SAMPLED) != REPORTS[SAMPLED]
    key = ("run_session", "psi-", 2)
    assert transcript_digest(*key) != TRANSCRIPTS[key]


def test_correction_cache_keyed_without_the_resource_changes_the_transcripts(
    warm, monkeypatch
):
    # The first resource to send a message fixes its correction for all.
    build, by_message = teleport.corrections_from_message.__wrapped__, {}

    def lookup(message, resource, /):
        if message not in by_message:
            by_message[message] = build(message, resource)
        return by_message[message]

    monkeypatch.setattr(teleport, "corrections_from_message", lookup)
    clear_caches()
    # Every branch is drawn with probability 1/4, so a seed draws the same
    # messages under every resource, and each resource's rule differs from
    # psi-'s in every entry.
    keys = [("run_session", r.value, 2) for r in BellState]
    assert [transcript_digest(*k) == TRANSCRIPTS[k] for k in keys] == [True, False, False, False]


def test_wrong_rule_in_the_message_decoder_fails_sample_and_branches(warm, monkeypatch):
    # Every transcript, sampled or enumerated, is corrected from its message
    # by this one function. Read with its pairs in the wrong order, a
    # message puts each factor on the mirror qubit.
    build = teleport.corrections_from_message.__wrapped__

    def mirrored(message, resource, /):
        pairs = [message[i:i + 2] for i in range(0, len(message), 2)]
        return build("".join(reversed(pairs)), resource)

    monkeypatch.setattr(teleport, "corrections_from_message", mirrored)
    clear_caches()
    assert main(SAMPLE) == 1
    assert main(BRANCHES) == 1
    # Beyond the fixture, certify holds the oracle to the composed rule, which
    # is built from the same decoder.
    assert main(["--mode", "certify", "--n", "3", "--strict", "--out", os.devnull]) == 1


@pytest.mark.parametrize("mode", ["sample", "branches"])
def test_a_tilted_resource_fails_on_the_contract(warm, monkeypatch, mode):
    # Each pair's first amplitude moved by 1e-5, then normalized: every branch
    # misses fidelity 1 by about 2e-10, far inside 1e-9 but 200 times past
    # the paper's 1e-12, so the report must fail on FIDELITY_TOL itself.
    build = teleport.bell_pair

    def tilted(kind, a, b):
        pair = build(kind, a, b)
        amps = pair.amps.copy()
        amps[0] += 1e-5
        return make_state(pair.qubits, amps)

    monkeypatch.setattr(teleport, "bell_pair", tilted)
    clear_caches()
    report = run_campaign(CampaignConfig(n=2, trials=60, seed=3, mode=mode))
    assert 1 - 1e-9 < report.fidelity_min < 1 - FIDELITY_TOL
    assert not report.resource_violations
    argv = ["--mode", mode, "--n", "2", "--trials", "60", "--seed", "3", "--out", os.devnull]
    assert main(argv) == 1


def test_a_nan_resource_fails_the_branches_campaign(warm, monkeypatch):
    # A NaN amplitude makes the Bell branch probabilities sum to NaN, which
    # the sum check rejects before any branch is drawn or corrected.
    build = teleport.bell_pair

    def poisoned(kind, a, b):
        pair = build(kind, a, b)
        amps = pair.amps.copy()
        amps[0] = np.nan
        return _state(pair.qubits, amps)

    monkeypatch.setattr(teleport, "bell_pair", poisoned)
    clear_caches()
    for mode in ("branches", "sample"):
        with pytest.raises(RuntimeError, match="sum to nan"):
            run_campaign(CampaignConfig(n=2, mode=mode))


def test_a_bell_row_off_its_norm_fails_the_measurement(warm, monkeypatch):
    # phi+ scaled by 1 + 1e-10: its branch gains 2e-10 of a quarter, far
    # inside any fidelity check's reach, but the four branches no longer
    # sum to the measured state's norm within NORM_TOL.
    row = bell._AMPLITUDES[BellState.PHI_PLUS] * (1 + 1e-10)
    monkeypatch.setitem(bell._AMPLITUDES, BellState.PHI_PLUS, row)
    clear_caches()
    with pytest.raises(RuntimeError, match=r"Bell branch probabilities sum to 1\.00000000005"):
        teleport.teleport_branches(fixture_state("uniform", 2))


def test_correction_on_a_sender_qubit_is_rejected(warm, monkeypatch):
    # The walk leaves a state on b1..bn alone, so a factor on the sender's
    # a1 has no qubit to act on and apply must refuse it.
    build = teleport.corrections_from_message.__wrapped__

    def reaching(message, resource, /):
        correction = build(message, resource)
        return PauliString(correction.factors + (("a1", PauliFactor.X),), correction.phase)

    monkeypatch.setattr(teleport, "corrections_from_message", reaching)
    clear_caches()
    with pytest.raises(ValueError, match="'a1'"):
        harness.run_session(SESSION_INPUT, 5)


def test_measuring_the_receivers_half_is_rejected(warm, monkeypatch):
    # (x_i, b_i) in place of (x_i, a_i): the receiver's qubits are consumed
    # and the sender's a_i left behind, which no correction or reorder accepts.
    measure = teleport.measure_bell_branches
    _, ans, bs = teleport.protocol_labels(2)

    def crossed(state, pair):
        x, a = pair
        return measure(state, (x, bs[ans.index(a)]))

    monkeypatch.setattr(teleport, "measure_bell_branches", crossed)
    clear_caches()
    with pytest.raises(ValueError):
        harness.run_session(SESSION_INPUT, 5)


def test_flipped_gather_sign_fails_the_campaign(warm, monkeypatch):
    # A message's string keeps its gather form; the strings live in
    # corrections_from_message, so the reset drops the forms with them.
    build = pauli.signed_permutation

    def flipped(*args):
        perm, sign = build(*args)
        sign = sign.copy()
        sign[-1] = -sign[-1]
        return perm, sign

    monkeypatch.setattr(pauli, "signed_permutation", flipped)
    clear_caches()
    assert main(SAMPLE) == 1


def test_measuring_the_pairs_in_ascending_order_is_caught(warm, monkeypatch):
    # (x1, a1) first: each outcome is charged to the other pair, so the
    # engine corrects the wrong qubit. After the warm-up, reorder's label
    # cache holds the sound walk's orders; the first measurement here asks
    # for one that walk never makes.
    measure = teleport.measure_bell_branches
    swap = {("x1", "a1"): ("x2", "a2"), ("x2", "a2"): ("x1", "a1")}

    def ascending(state, pair):
        return measure(state, swap[pair])

    monkeypatch.setattr(teleport, "measure_bell_branches", ascending)
    clear_caches()
    assert main(SAMPLE) == 1
    assert report_digest(*DERIVE) != REPORTS[DERIVE]


def test_gather_form_keyed_without_the_receivers_order_fails_the_campaign(warm, monkeypatch):
    # The receiver holds (b_n..b_1). A form looked up by the target order
    # alone is the one for a receiver already in (b1..bn) order, so it puts
    # each factor on the mirror qubit and leaves the amplitudes untransposed.
    build = PauliString.gather

    def by_target(self, order, to=None):
        return build(self, to or order)

    monkeypatch.setattr(PauliString, "gather", by_target)
    clear_caches()
    assert main(SAMPLE) == 1


def test_uncombined_gather_on_the_receivers_order_fails_the_campaign(warm, monkeypatch):
    # The (b1..bn)-order signed permutation applied to the (b_n..b_1)
    # receiver as it stands, without the transpose folded into it.
    def uncombined(self, state, order=None):
        order = state.qubits if order is None else tuple(order)
        perm, signs = self.gather(order)
        return _state(order, state.amps[perm] * signs)

    monkeypatch.setattr(PauliString, "apply", uncombined)
    clear_caches()
    assert main(SAMPLE) == 1


def test_an_over_long_correction_names_its_trial(warm, monkeypatch):
    # ZX costed as three operations: a message corrected by ZX on both qubits
    # spends 6 > 2n. A sampled violation names its trial, and that trial
    # replayed alone, its stream advanced by i * n, draws the branch named.
    monkeypatch.setattr(PauliFactor, "op_count", property(lambda f: f.x + f.z + f.x * f.z))
    clear_caches()
    cfg = CampaignConfig(n=2, trials=60, seed=11)
    report = run_campaign(cfg)
    assert report.failed and report.resource_violations
    input_ss, trials_ss = np.random.SeedSequence(11).spawn(2)
    xi = resolve_input(cfg, np.random.default_rng(input_ss))
    for violation in report.resource_violations:
        trial, message = re.fullmatch(
            r"trial (\d+), branch ([01]{4}): 6 single-qubit ops", violation
        ).groups()
        rng = np.random.default_rng(trials_ss)
        rng.bit_generator.advance(cfg.n * int(trial))
        assert harness.run_session(xi, rng).message == message
    # Enumerated branches have no trial: each is named by its message alone.
    [violation] = run_campaign(CampaignConfig(n=2, mode="branches")).resource_violations
    assert re.fullmatch(r"branch [01]{4}: 6 single-qubit ops", violation)
