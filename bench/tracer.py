"""Per-layer tracing of teleportsim, installed from outside the program.

Every binding of a traced function in the loaded ``teleportsim`` modules
is replaced by a wrapper, so calls made through ``from .x import y``
re-exports are counted as well as calls through the defining module.

Self time is a wrapper's wall time minus the wall time of the wrapped
calls made inside it. The tracer's own bookkeeping after each call is
charged to no layer, so it shows up as the unattributed share.
"""
from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "teleportsim"

# Layer -> traced functions. Functions left out (chi-square, resource
# scan, with_labels, ...) are charged to their nearest traced caller.
TRACED = {
    "qstate": ("make_state", "tensor", "apply_gate", "reorder", "project_qubits", "fidelity"),
    "bell": ("bell_pair", "measure_bell_branches", "draw_branch"),
    "teleport": ("_finish", "_validate_table", "enumerate_protocol_branches", "_solve_correction"),
    "harness": ("run_session",),
    "cli": ("run_campaign",),
}
PAULI_APPLY = "pauli.PauliString.apply"
ENUMERATE = "teleport.enumerate_protocol_branches"

# The paper's contract per branch: probability 4^-n and fidelity 1, both
# within the simulator's own 1e-12 tolerance.
CONTRACT_TOL = 1e-12


def traced_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    names.insert(names.index("teleport._finish"), PAULI_APPLY)
    return names


class Tracer:
    """Call counts, self times and contract checks, taken per campaign."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.session_ms: list[float] = []
        self._inner: list[float] = []
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.peak_qubits = 0
        self.amp_bytes = 0
        self.candidates_built = 0
        self.branches_computed = 0
        self.branches_kept = 0
        self.failed_sessions = 0

    def install(self) -> None:
        """Wrap every traced function in every loaded teleportsim module."""
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, fns in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", orig, self._observer(layer, fn_name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
        cls = sys.modules[f"{PACKAGE}.pauli"].PauliString
        cls.apply = self._wrap(PAULI_APPLY, cls.apply, self._observe_state)

    def _wrap(self, name, fn, observe):
        inner = self._inner
        calls, self_s, active = self.calls, self.self_s, self.active

        def traced(*args, **kwargs):
            t0 = perf_counter()
            inner.append(0.0)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[name] -= 1
                calls[name] += 1
                self_s[name] += (t1 - t0) - inner.pop()
            if observe is not None:
                observe(t1 - t0, args, result)
            if inner:
                # The caller's self time excludes this call and its bookkeeping.
                inner[-1] += perf_counter() - t0
            return result

        return traced

    def _observer(self, layer: str, fn_name: str):
        if layer == "qstate":
            return None if fn_name == "fidelity" else self._observe_state
        return {
            "measure_bell_branches": self._observe_measure,
            "draw_branch": self._observe_draw,
            "_solve_correction": self._observe_solve,
            "_finish": self._observe_transcript,
            "run_session": self._observe_session,
        }.get(fn_name)

    def _observe_state(self, dt, args, result) -> None:
        state = result[1] if isinstance(result, tuple) else result
        if state is not None:
            self.peak_qubits = max(self.peak_qubits, len(state.qubits))
            self.amp_bytes += state.amps.nbytes

    def _observe_measure(self, dt, args, branches) -> None:
        self.branches_computed += len(branches)
        if self.active[ENUMERATE]:
            self.branches_kept += len(branches)

    def _observe_draw(self, dt, args, branch) -> None:
        self.branches_kept += 1

    def _observe_solve(self, dt, args, result) -> None:
        self.candidates_built += 4 ** len(args[0])

    def _observe_transcript(self, dt, args, t) -> None:
        n = t.n
        ok = (
            math.isclose(t.branch_probability, 4.0 ** -n, rel_tol=CONTRACT_TOL, abs_tol=0.0)
            and t.final_fidelity >= 1 - CONTRACT_TOL
            and t.bell_pairs_consumed == n
            and len(t.message) == 2 * n
            and t.single_qubit_ops <= 2 * n
        )
        if not ok:
            self.failed_sessions += 1

    def _observe_session(self, dt, args, transcript) -> None:
        self.session_ms.append(dt * 1e3)

    def counts(self) -> dict[str, int]:
        """Every count of the run; two runs of one workload must agree exactly."""
        out = {f"{name}.calls": self.calls[name] for name in traced_names()}
        out.update({
            "qstate.peak_qubits": self.peak_qubits,
            "qstate.amp_bytes": self.amp_bytes,
            "bell.branches_computed": self.branches_computed,
            "bell.branches_kept": self.branches_kept,
            "teleport.candidates_built": self.candidates_built,
            "harness.session_samples": len(self.session_ms),
            "harness.failed_sessions": self.failed_sessions,
        })
        return out

    def take(self) -> dict:
        """Counts, self times and session times since the last take; resets them.

        Call only between campaigns, when no traced call is running."""
        out = {
            "counts": self.counts(),
            "self_s": {f"{name}.self_s": self.self_s[name] for name in traced_names()},
            "session_ms": list(self.session_ms),
        }
        self.calls.clear()
        self.self_s.clear()
        self.session_ms.clear()
        self._reset_counters()
        return out
