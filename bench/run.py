"""teleportsim benchmark: CLI campaigns end to end, and per layer when traced.

    python3 bench/run.py --workload sample-n2 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Each run of the program is a
fresh child interpreter (one client, one process, one thread, campaigns
back to back) that imports the package from ``src/``, resolves its
config and a generated input, and runs ``cli.run_campaign`` repeatedly.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. The last line of standard output is one JSON object
with the metrics BENCHMARK.json names; the lines before it name every
metric measured, with its unit. README.md explains the metrics.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from child import THREAD_VARS, expected_counts

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
THREADS = "1"
RUN_LIMIT_S = 170  # a child still running this long after the run began is killed
MIN_CHILDREN = 2  # reports of different processes are compared byte for byte
CHILD_SHARE = 4   # a child runs campaigns for at most this share of --seconds
MIN_SETUPS = 5    # set-up samples per benchmark run

# Why each workload exists is in README.md. Sample campaigns last about
# a second, so a run times many of them; a derive-n4 campaign about ten.
WORKLOADS = {
    "sample-n2": {"mode": "sample", "n": 2, "trials": 2000},
    "sample-n5": {"mode": "sample", "n": 5, "trials": 300},
    "derive-n4": {"mode": "derive-table", "n": 4, "trials": 1},
}
SMOKE = {
    "sample-n2": {"trials": 40},
    "sample-n5": {"trials": 12},
    "derive-n4": {"n": 2},
}


def sessions(w: dict) -> int:
    """Protocol branches one campaign carries through to the receiver."""
    if w["mode"] == "sample":
        return w["trials"]
    walks = expected_counts(w["mode"], w["n"], w["trials"])[
        "teleport.enumerate_protocol_branches.calls"]
    return walks * 4 ** w["n"]


def write_input(path: Path, n: int, seed: int) -> None:
    """A Haar-random n-qubit state from the seed, as a state literal file."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    a /= np.linalg.norm(a)
    lines = [" ".join(f"x{i}" for i in range(1, n + 1))]
    lines += [f"{float(c.real)!r},{float(c.imag)!r}" for c in a]
    path.write_text("\n".join(lines) + "\n")


class Child:
    """One child interpreter: its set-up time, its campaigns and its failure."""

    def __init__(self, argv: list[str], env: dict, cwd: Path, result_path: Path, kind: str,
                 timeout: float):
        self.kind = kind  # "warm-up", "probe", "plain" or "traced"
        self.setup_s = None
        self.result: dict = {"campaigns": []}
        self.error = None
        t0 = perf_counter()
        proc = subprocess.Popen(argv + ["--result", str(result_path)], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env, cwd=cwd)
        try:
            ready = proc.stdout.readline().strip() == "ready"
            self.setup_s = perf_counter() - t0 if ready else None
            _, err = proc.communicate(timeout=max(0.0, timeout - (perf_counter() - t0)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.error = f"killed after {timeout:.0f} s"
            return
        if proc.returncode != 0 or not ready or not result_path.is_file():
            tail = "\n".join(err.strip().splitlines()[-5:])
            self.error = f"exit code {proc.returncode}: {tail}"
            return
        self.result = json.loads(result_path.read_text())
        if self.result["problems"]:
            self.error = "; ".join(self.result["problems"])

    @property
    def campaigns(self) -> list[dict]:
        return self.result["campaigns"]

    def tally(self) -> tuple[int, int]:
        """(attempted, failed) campaigns; a child that failed as a whole
        counts at least once."""
        if self.error:
            k = max(1, len(self.campaigns))
            return k, k
        return len(self.campaigns), sum(bool(c["problems"]) for c in self.campaigns)


class Runner:
    """Starts the children of one benchmark run and keeps every one."""

    def __init__(self, root: Path, workload: dict, seed: int, work: Path, fault=None):
        self.root = root
        self.work = work
        self.started = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        **{v: THREADS for v in THREAD_VARS})
        input_path = work / "input.state"
        write_input(input_path, workload["n"], seed)
        self.base = [
            sys.executable, str(CHILD),
            "--mode", workload["mode"], "--n", str(workload["n"]),
            "--trials", str(workload["trials"]), "--seed", str(seed),
            "--input", str(input_path), "--src", str(root / "src"),
        ]
        if fault:
            self.base += ["--fault", fault]
        self.children: list[Child] = []

    def start(self, extra: list[str], kind: str) -> Child:
        result_path = self.work / f"child-{len(self.children)}.json"
        timeout = RUN_LIMIT_S - (perf_counter() - self.started)
        c = Child(self.base + extra, self.env, self.root, result_path, kind, timeout)
        self.children.append(c)
        return c

    def probe(self, kind: str = "probe") -> Child:
        return self.start(["--setup-only"], kind)

    def run(self, budget: float, traced: bool = False) -> Child:
        extra = ["--budget", str(budget)] + (["--trace"] if traced else [])
        return self.start(extra, "traced" if traced else "plain")

    def campaigns(self, kind: str) -> list[dict]:
        return [cp for c in self.children if c.kind == kind for cp in c.campaigns]

    def setup_samples(self) -> list[float]:
        return [c.setup_s for c in self.children if c.kind != "warm-up" and c.setup_s is not None]

    def check_repeats(self) -> None:
        """Every report must match the first byte for byte, and every traced
        campaign's counts must match the first traced campaign's exactly."""
        every = [cp for c in self.children for cp in c.campaigns]
        traced = self.campaigns("traced")
        for cp in every:
            if cp["report_sha256"] != every[0]["report_sha256"]:
                cp["problems"].append("report bytes differ from a repeat with the same seed")
        for cp in traced:
            if cp["trace"]["counts"] != traced[0]["trace"]["counts"]:
                cp["problems"].append("trace counts differ from the first traced campaign")

    def tally(self) -> tuple[int, int]:
        tallies = [c.tally() for c in self.children]
        return sum(a for a, _ in tallies), sum(f for _, f in tallies)


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def run_children(runner: Runner, seconds: float, kinds) -> None:
    """Start children of the given kinds in turn until `seconds` have passed
    and each kind ran at least its minimum. Several short-lived processes
    average out the speed differences between processes."""
    deadline = perf_counter() + seconds
    started = {kind: 0 for kind, _ in kinds}
    for kind, _ in itertools.cycle(kinds):
        if perf_counter() >= deadline and all(started[k] >= m for k, m in kinds):
            break
        budget = max(0.0, min(seconds / CHILD_SHARE, deadline - perf_counter()))
        runner.run(budget, traced=kind == "traced")
        started[kind] += 1


def end_to_end(runner: Runner, workload: dict, seconds: float) -> dict:
    runner.probe("warm-up")  # fills bytecode and file caches; not timed
    run_children(runner, seconds, [("plain", MIN_CHILDREN)])
    while len(runner.setup_samples()) < MIN_SETUPS:
        if runner.probe().setup_s is None:
            break
    campaigns = runner.campaigns("plain")
    run_s = median(cp["run_s"] for cp in campaigns)
    return {
        "setup_s": (median(runner.setup_samples()), "s"),
        "run_ref": (median(cp["run_s"] / cp["ref_s"] for cp in campaigns), "ref"),
        "run_s": (run_s, "s"),
        "sessions_per_s": (sessions(workload) / run_s if run_s else None, "1/s"),
        "peak_rss_mb": (median(c.result["rss_mb"] for c in runner.children if c.campaigns), "MB"),
    }


def per_layer(runner: Runner, workload: dict, seconds: float) -> dict:
    runner.probe("warm-up")
    run_children(runner, seconds, [("traced", MIN_CHILDREN), ("plain", 1)])
    traced = runner.campaigns("traced")
    plain = runner.campaigns("plain")
    if not traced or not plain:
        return {}
    counts = traced[0]["trace"]["counts"]
    metrics = {}
    for name in traced[0]["trace"]["self_s"]:
        calls = name.replace(".self_s", ".calls")
        metrics[calls] = (counts[calls], "count")
        metrics[name] = (median(cp["trace"]["self_s"][name] for cp in traced), "s")
    computed, kept = counts["bell.branches_computed"], counts["bell.branches_kept"]
    session_ms = [x for cp in traced for x in cp["trace"]["session_ms"]]
    unattributed = median(
        (cp["run_s"] - sum(cp["trace"]["self_s"].values())) / cp["run_s"] for cp in traced
    )
    metrics.update({
        "qstate.peak_qubits": (counts["qstate.peak_qubits"], "qubits"),
        "qstate.amp_bytes": (counts["qstate.amp_bytes"], "bytes_computed"),
        "bell.branch_use_ratio": (kept / computed if computed else 0.0, "ratio"),
        "teleport.candidates_built": (counts["teleport.candidates_built"], "count"),
        "harness.session_ms_p50": (percentile(session_ms, 50), "ms"),
        "harness.session_ms_p99": (percentile(session_ms, 99), "ms"),
        "harness.session_samples": (len(session_ms), "count"),
        "harness.failed_sessions": (counts["harness.failed_sessions"], "count"),
        "trace_overhead_ratio": (
            median(cp["run_s"] for cp in traced) / median(cp["run_s"] for cp in plain), "ratio"),
        "unattributed_share": (unattributed, "ratio"),
    })
    return metrics


def bench(root: Path, name: str, seed: int, seconds: float, trace: bool,
          smoke: bool = False, fault=None) -> dict:
    workload = dict(WORKLOADS[name], **(SMOKE[name] if smoke else {}))
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / ".bench_work"))
    try:
        runner = Runner(root, workload, seed, work, fault)
        measure = per_layer if trace else end_to_end
        metrics = measure(runner, workload, seconds)
        runner.check_repeats()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's files are still there
            pass
    attempted, failed = runner.tally()
    for i, c in enumerate(runner.children):
        problems = [c.error] if c.error else [p for cp in c.campaigns for p in cp["problems"]]
        if problems:
            print(f"{name}: child {i} failed: {problems[0]}", file=sys.stderr)
    env = next((c.result["env"] for c in runner.children if "env" in c.result), None)
    print(json.dumps({"workload": name, "workload_config": workload, "env": env}))
    for metric, (value, unit) in metrics.items():
        print(f"{name}  {metric} = {value} {unit}")
    print(f"{name}  error_rate = {failed / attempted} ratio ({failed} of {attempted} runs failed)")
    # The JSON line carries the metrics BENCHMARK.json names for this mode.
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    reported = {m: metrics.get(m, (None, None)) for m in names}
    return {
        "correct": failed == 0 and all(v is not None for v, _ in reported.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in reported.items() if v is not None},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's self-test")
    p.add_argument("--fault", choices=("swap-correction",), default=None,
                   help="break the receiver's correction, for the negative self-test")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "teleportsim" / "cli.py").is_file():
        print("error: run from the root of a teleportsim checkout (src/teleportsim missing)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: bench(root, n, args.seed, args.seconds, bool(args.trace), args.smoke, args.fault)
               for n in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
