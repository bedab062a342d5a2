"""Campaign front end: seeded Monte-Carlo runs, exhaustive enumeration,
table derivation, and certification, reported as deterministic JSON.

Every mode takes n = 1..MAX_PROTOCOL_WIDTH; certify holds the oracle's
derived table against teleport.certification_reference at every width.

Exit status is 1 iff any fidelity drops below 1 - FIDELITY_TOL (the
paper's 1e-12), any transcript violates a resource bound, or (with
--strict) certification finds an operator mismatch; usage errors exit 2.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bell import messages
from .harness import run_session
from .qstate import (
    FIDELITY_TOL,
    StateVector,
    _as_index,
    computational_basis_state,
    make_state,
    parse_state_literal,
    random_state,
)
from .teleport import (
    ProtocolTranscript,
    certification_reference,
    certify_table,
    check_width,
    derive_corrections,
    protocol_labels,
    teleport_branches,
)

MODES = ("sample", "branches", "derive-table", "certify")
FIXTURE_NAMES = ("zero", "uniform", "ghz")


@dataclass(frozen=True)
class CampaignConfig:
    n: int = 2
    trials: int = 100
    seed: int = 0
    mode: str = "sample"
    input: str = "random"
    out: str | None = None
    strict: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # Plain ints for the report: json rejects a NumPy integer and writes a bool as true.
        object.__setattr__(self, "n", check_width(self.n, f"{self.mode} mode"))
        for name in ("trials", "seed"):
            object.__setattr__(self, name, _as_index(getattr(self, name), name))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    fidelity_min: float | None
    fidelity_mean: float | None
    outcome_histogram: dict[str, int] | None
    chi_square_statistic: float | None
    chi_square_p_value: float | None
    resource_violations: list[str]
    certification: dict | None
    table_text: str | None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @property
    def failed(self) -> bool:
        if self.resource_violations:
            return True
        # Written so that a NaN fidelity, which compares false, fails too.
        if self.fidelity_min is not None and not self.fidelity_min >= 1 - FIDELITY_TOL:
            return True
        return False

    def exit_code(self, strict: bool) -> int:
        if self.failed:
            return 1
        if strict and self.certification is not None:
            if self.certification["counts"]["operator_mismatch"] > 0:
                return 1
        return 0


def chi_square_uniform(histogram: dict[str, int] | list[int]) -> tuple[float, float]:
    """Pearson statistic and p-value of counts against a uniform law.

    Every bin must be present (zero counts included).
    """
    counts = np.asarray(
        [histogram[k] for k in sorted(histogram)] if isinstance(histogram, dict) else histogram,
        dtype=float,
    )
    bins = counts.shape[0]
    if bins < 2:
        raise ValueError("need at least two bins")
    total = counts.sum()
    if total <= 0:
        raise ValueError("histogram is empty")
    expected = total / bins
    statistic = float(((counts - expected) ** 2 / expected).sum())
    return statistic, _chi_square_tail(bins - 1, statistic)


def _chi_square_tail(df: int, statistic: float) -> float:
    """P(chi-square with df degrees of freedom >= statistic), with `math` alone.

    This is Q(a, y) with a = k + s = df / 2, k = df // 2 and y = statistic / 2
    (Abramowitz & Stegun 26.4.4-26.4.5). With t_j = y^(j+s) e^-y / Gamma(j+s+1),
    Q(a, y) = [erfc(sqrt(y)) for odd df] + sum_{j<k} t_j = 1 - sum_{j>=k} t_j.
    t_k, the largest term of either sum, is computed once in log space, so
    e^-y alone never underflows; the others follow by t_(j+1) = t_j y / (j+s+1).
    Below the mean (y < a) Q is above about 1/2, and the terms j >= k are
    summed and subtracted, as Cephes' igamc does, so that Q never rises with
    the statistic; above it the terms j < k are summed.
    """
    if statistic == 0:
        return 1.0
    y = statistic / 2
    s = df % 2 / 2
    k = df // 2
    t = math.exp((k + s) * math.log(y) - y - math.lgamma(k + s + 1))
    if y < k + s:
        terms, j = [t], k
        # The terms fall from t_k; stop once one can no longer move the sum.
        while t > terms[0] * 2.0 ** -60:
            j += 1
            t *= y / (j + s)
            terms.append(t)
        return 1 - math.fsum(terms)
    terms = [math.erfc(math.sqrt(y))] if s else []
    for j in range(k, 0, -1):
        t *= (j + s) / y
        terms.append(t)
    return math.fsum(terms)


def load_state(path: str | Path) -> StateVector:
    """Read a state literal file."""
    return parse_state_literal(Path(path).read_text())


def fixture_state(name: str, n: int) -> StateVector:
    xs, _, _ = protocol_labels(n)
    if name == "zero":
        return computational_basis_state(xs, 0)
    if name == "uniform":
        return make_state(xs, np.ones(2 ** n, dtype=complex))
    if name == "ghz":
        a = np.zeros(2 ** n, dtype=complex)
        a[0] = a[-1] = 1
        return make_state(xs, a)
    raise ValueError(f"unknown fixture {name!r}; choices are {FIXTURE_NAMES}")


def resolve_input(cfg: CampaignConfig, rng: np.random.Generator) -> StateVector:
    if cfg.input == "random":
        xs, _, _ = protocol_labels(cfg.n)
        return random_state(xs, rng)
    if cfg.input in FIXTURE_NAMES:
        return fixture_state(cfg.input, cfg.n)
    state = load_state(cfg.input)
    if state.n_qubits != cfg.n:
        raise ValueError(
            f"input file has {state.n_qubits} qubits but the campaign width is {cfg.n}"
        )
    return state


def _resource_problems(t: ProtocolTranscript, n: int) -> list[str]:
    problems = []
    if t.bell_pairs_consumed != n:
        problems.append(f"consumed {t.bell_pairs_consumed} pairs")
    if len(t.message) != 2 * n:
        problems.append(f"{len(t.message)} classical bits")
    if t.single_qubit_ops > 2 * n:
        problems.append(f"{t.single_qubit_ops} single-qubit ops")
    return problems


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    root = np.random.SeedSequence(cfg.seed)
    input_ss, trials_ss = root.spawn(2)
    fidelities = None
    histogram = None
    statistic = p_value = None
    certification = None
    table_text = None
    violations: list[str] = []

    if cfg.mode in ("sample", "branches"):
        xi = resolve_input(cfg, np.random.default_rng(input_ss))
        if cfg.mode == "sample":
            # One stream for the campaign: session i reads its doubles i*n .. i*n+n-1.
            # Memory is O(4^n) plus 8 bytes a trial.
            rng = np.random.default_rng(trials_ss)
            transcripts = (run_session(xi, rng) for _ in range(cfg.trials))
            fidelities = np.empty(cfg.trials)
        else:
            transcripts = teleport_branches(xi)
            fidelities = np.empty(4 ** cfg.n)
        histogram = dict.fromkeys(messages(cfg.n), 0)
        for i, t in enumerate(transcripts):
            histogram[t.message] += 1
            fidelities[i] = t.final_fidelity
            if problems := _resource_problems(t, cfg.n):
                # A sampled trial is named by its index, which replays it alone.
                where = f"trial {i}, branch" if cfg.mode == "sample" else "branch"
                violations.extend(f"{where} {t.message}: {p}" for p in problems)
        statistic, p_value = chi_square_uniform(histogram)
    elif cfg.mode == "derive-table":
        table_text = derive_corrections(cfg.n).to_text()
    else:  # certify
        derived = derive_corrections(cfg.n)
        certification = certify_table(derived, certification_reference(cfg.n)).to_dict()

    return CampaignReport(
        config=cfg,
        fidelity_min=float(fidelities.min()) if fidelities is not None else None,
        fidelity_mean=float(fidelities.mean()) if fidelities is not None else None,
        outcome_histogram=histogram,
        chi_square_statistic=statistic,
        chi_square_p_value=p_value,
        resource_violations=violations,
        certification=certification,
        table_text=table_text,
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="teleportsim",
        description="Seeded teleportation campaigns over Bell pairs, with "
        "exhaustive branch enumeration and correction-table certification.",
        # Flags left out stay out of the namespace: CampaignConfig holds the defaults.
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--n", type=int, help="number of qubits to teleport")
    p.add_argument("--trials", type=int, help="sampled sessions in sample mode")
    p.add_argument("--seed", type=int, help="campaign seed")
    p.add_argument("--mode", choices=MODES)
    p.add_argument(
        "--input",
        help=f"input state: 'random', a fixture name {FIXTURE_NAMES}, or a literal file path",
    )
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when certification finds an operator mismatch",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = CampaignConfig(**vars(args))
        report = run_campaign(cfg)
        if cfg.out:
            Path(cfg.out).write_text(report.to_json())
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not cfg.out:
        sys.stdout.write(report.to_json())
    return report.exit_code(cfg.strict)


if __name__ == "__main__":
    sys.exit(main())
