"""One benchmark child: a fresh interpreter that sets up and runs campaigns.

The child prints ``ready`` as soon as the package is imported and the
config and input are resolved; the parent times set-up up to that line.
It then runs ``cli.run_campaign`` back to back for ``--budget`` seconds,
the first one cold, optionally traced, checks every report outside the
timed region and writes its measurements as JSON to the ``--result``
file.

Run it only through ``run.py``, which sets the environment it needs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

from tracer import CONTRACT_TOL, Tracer

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--src", required=True, help="directory the package must be imported from")
    p.add_argument("--result", required=True, help="file the JSON result is written to")
    p.add_argument("--budget", type=float, default=0.0,
                   help="seconds of campaigns to run back to back; at least one runs")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--fault", choices=("swap-correction",), default=None,
                   help="break the receiver's correction (negative self-test only)")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def swap_correction(teleport) -> None:
    """Exchange the Z and X corrections of the psi- rule."""
    rule = teleport.PSI_MINUS_FACTORS
    s = teleport.BellState
    rule[s.PSI_PLUS], rule[s.PHI_MINUS] = rule[s.PHI_MINUS], rule[s.PSI_PLUS]
    teleport.base_factor_map.cache_clear()


REF_REPS = 1000        # reference kernel run before and after each campaign
TICK_REPS = 300        # reference kernel run from a timer during a campaign
TICK_INTERVAL_S = 0.5


def reference_kernel(reps: int = REF_REPS) -> float:
    """Seconds for fixed work that does not use the program: small numpy
    kernels behind Python calls, as in a session. Timed around and during
    every campaign, it tracks how fast the shared machine is."""
    import numpy as np

    x = np.array([[0, 1], [1, 0]], dtype=complex)
    a = np.random.default_rng(0).standard_normal(64).astype(complex)
    a /= np.linalg.norm(a)
    t0 = perf_counter()
    for _ in range(reps):
        t = np.tensordot(x, a.reshape([2] * 6), axes=([1], [2]))
        t = np.moveaxis(t, 0, 2).reshape(-1)
        k = np.kron(t[:8], t[8:16])
        # Always true; it keeps the kron result in the data flow.
        a = t / np.linalg.norm(t) if np.vdot(k, k).real >= 0 else a
    return perf_counter() - t0


class SpeedProbe:
    """Times the reference kernel every TICK_INTERVAL_S while a campaign runs.

    The timer handler runs between bytecodes of the campaign, which waits
    meanwhile; `spent` is the handler time to take off the campaign's wall
    time. Samples are seconds per REF_REPS repetitions."""

    def __enter__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(reference_kernel(TICK_REPS) * REF_REPS / TICK_REPS)
        self.spent += perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def check_report(report, cfg, teleport) -> list[str]:
    """Why the report breaks the paper's contract; empty when it holds."""
    problems = []
    if report.exit_code(cfg.strict) != 0:
        problems.append(f"campaign exit code {report.exit_code(cfg.strict)}")
    if report.fidelity_min is not None and report.fidelity_min < 1 - CONTRACT_TOL:
        problems.append(f"fidelity_min {report.fidelity_min!r} below 1 - {CONTRACT_TOL}")
    if report.resource_violations:
        problems.append(f"resource violations: {report.resource_violations[:3]}")
    if cfg.mode == "sample":
        total = sum(report.outcome_histogram.values())
        if total != cfg.trials:
            problems.append(f"histogram holds {total} sessions, expected {cfg.trials}")
    if cfg.mode == "derive-table":
        derived = teleport.CorrectionTable.from_text(
            report.table_text, cfg.n, teleport.BellState.PSI_MINUS
        )
        cert = teleport.certify_table(derived, teleport.composed_table(cfg.n))
        if not cert.all_match:
            problems.append(f"derived table disagrees with the composed rule: {dict(cert.counts)}")
    return problems


def expected_counts(mode: str, n: int, trials: int) -> dict[str, int]:
    """Call counts the protocol fixes for a workload; a wrapper that misses
    a binding shows up here."""
    out = {"qstate.peak_qubits": 3 * n}
    if mode == "sample":
        out["bell.measure_bell_branches.calls"] = n * trials
        out["qstate.project_qubits.calls"] = 4 * n * trials
        out["harness.run_session.calls"] = trials
    elif mode == "derive-table":
        walks = 2 ** n + 2 + 100  # fiducials (basis, |+>^n, |+i>^n) and validation states
        out["teleport._solve_correction.calls"] = 4 ** n
        out["teleport.enumerate_protocol_branches.calls"] = walks
        out["bell.measure_bell_branches.calls"] = walks * (4 ** n - 1) // 3
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    from teleportsim import cli, teleport

    cfg = cli.CampaignConfig(
        n=args.n, trials=args.trials, seed=args.seed, mode=args.mode, input=args.input
    )
    cli.resolve_input(cfg, None)
    print("ready", flush=True)

    problems = []
    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        problems.append(f"imported {cli.__file__}, not the package under {src}")
    out = {"env": environment(), "problems": problems, "campaigns": []}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(out))
        return 0

    if args.fault == "swap-correction":
        swap_correction(teleport)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    start = perf_counter()
    while True:
        refs = [reference_kernel()]
        if tracer:
            # No timer ticks inside traced calls: they would count as self time.
            t0 = perf_counter()
            report = cli.run_campaign(cfg)
            run_s = perf_counter() - t0
        else:
            with SpeedProbe() as probe:
                t0 = perf_counter()
                report = cli.run_campaign(cfg)
                run_s = perf_counter() - t0 - probe.spent
            refs += probe.samples
        refs.append(reference_kernel())
        campaign = {
            "run_s": run_s,
            "ref_s": sum(refs) / len(refs),
            "report_sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
            "problems": check_report(report, cfg, teleport),
        }
        if tracer:
            campaign["trace"] = trace = tracer.take()
            for name, want in expected_counts(cfg.mode, cfg.n, cfg.trials).items():
                if trace["counts"][name] != want:
                    campaign["problems"].append(f"{name} is {trace['counts'][name]}, expected {want}")
            if trace["counts"]["harness.failed_sessions"]:
                campaign["problems"].append("transcripts break the contract")
        out["campaigns"].append(campaign)
        # Start no campaign that would end past the budget.
        if perf_counter() - start + run_s > args.budget:
            break
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
