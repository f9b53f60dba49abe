"""In-memory spans and counters for the traced benchmark run.

Layers are timed from outside: `Tracer.install` swaps module attributes that
the program looks up at call time for timing wrappers, and `restore` puts the
originals back.  Calls made at most a few times per slot get one span each
(name, start, end, parent, experiment, slot).  The per-pair and per-iteration
hot calls only add to a counter, because one span per call would cost more
than the call itself; their time is charged to the enclosing span so that
self times stay exact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.experiment: int | None = None
        self.slot: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, info=None):
        """Wrap `fn` so each call records a span.

        `info(args, outcome)` may return a dict of counts to keep on the span;
        `outcome` is the return value or the raised exception.
        """
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "experiment": self.experiment,
                "slot": self.slot,
                "hot": 0.0,
            }
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = perf()
            try:
                outcome = fn(*args, **kwargs)
            except Exception as exc:
                rec["end"] = perf()
                rec["error"] = type(exc).__name__
                outcome = exc
                raise
            else:
                rec["end"] = perf()
                return outcome
            finally:
                self._stack.pop()
                if info is not None:
                    rec["info"] = info(args, outcome)

        return wrapper

    def counted(self, name: str, fn):
        """Wrap a hot call: sum its calls and time, record no span."""
        counter = self.counters.setdefault(name, [0, 0.0])
        perf = time.perf_counter
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                counter[0] += 1
                counter[1] += dt
                if stack:
                    spans[stack[-1]]["hot"] += dt

        return wrapper

    def slot_entry(self, fn):
        """Span around `run_slot(cfg, topo, slot)` that tags nested spans."""
        inner = self.span("sim.run_slot", fn)

        def wrapper(cfg, topo, slot):
            self.slot = slot
            try:
                return inner(cfg, topo, slot)
            finally:
                self.slot = None

        return wrapper

    def patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def install(self, cli, sim, dual_solver, exact) -> None:
        """Wrap every layer boundary that `mmwassoc experiment` crosses."""
        patch, span, counted = self.patch, self.span, self.counted
        patch(cli, "cmd_experiment", span("cli.cmd_experiment", cli.cmd_experiment))
        patch(cli, "run_experiment", span("sim.run_experiment", cli.run_experiment))
        patch(sim, "generate_topology", span("sim.generate_topology", sim.generate_topology))
        patch(sim, "run_slot", self.slot_entry(sim.run_slot))
        patch(sim, "compute_gain", counted("channel.compute_gain", sim.compute_gain))
        patch(sim, "compute_rate", counted("channel.compute_rate", sim.compute_rate))
        patch(sim, "build_instance", span("instance.build_instance", sim.build_instance, _build_info))
        # the pair arrays are built lazily on the solver's first access; force
        # them in a span of their own so the solver span holds solver work only
        pair_arrays = span("instance.pair_arrays", lambda inst: inst.pairs)
        run_daa = span("dual_solver.run_daa", sim.run_daa, _count("iterations", "iterations_run"))

        def forced_run_daa(inst, *args, **kwargs):
            pair_arrays(inst)
            return run_daa(inst, *args, **kwargs)

        patch(sim, "run_daa", forced_run_daa)
        patch(dual_solver, "project_simplex", counted("dual_solver.project_simplex", dual_solver.project_simplex))
        patch(sim, "duality_gap_bound", span("dual_solver.duality_gap_bound", sim.duality_gap_bound))
        patch(sim, "random_policy", span("policies.random_policy", sim.random_policy))
        patch(sim, "rssi_policy", span("policies.rssi_policy", sim.rssi_policy))
        patch(sim, "jain_index", span("policies.jain_index", sim.jain_index))
        patch(sim, "solve_lp_relaxation", span("exact.solve_lp_relaxation", sim.solve_lp_relaxation, _count("pivots", "nodes_explored")))
        patch(sim, "solve_milp_exact", span("exact.solve_milp_exact", sim.solve_milp_exact))
        patch(exact, "branch_and_bound", span("exact.branch_and_bound", exact.branch_and_bound, _count("nodes", "nodes_explored")))
        patch(exact, "enumerate_assignments", span("exact.enumerate_assignments", exact.enumerate_assignments, _count("assignments", "nodes_explored")))

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed info counts;
        per counter: calls and seconds."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        spans: dict[str, dict] = {}
        for rec, children in zip(self.spans, child_time):
            total = rec["end"] - rec["start"]
            agg = spans.setdefault(rec["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}, "info": {}})
            agg["calls"] += 1
            agg["total_s"] += total
            agg["self_s"] += total - children - rec["hot"]
            if "error" in rec:
                agg["errors"][rec["error"]] = agg["errors"].get(rec["error"], 0) + 1
            for key, value in rec.get("info", {}).items():
                agg["info"][key] = agg["info"].get(key, 0) + value
        counters = {name: {"calls": c, "total_s": s} for name, (c, s) in self.counters.items()}
        return {"spans": spans, "counters": counters}

    def write(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {**rec, "start": rec["start"] - t0, "end": rec["end"] - t0}
            for rec in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, **self.summary()}) + "\n")


def _count(key: str, attr: str):
    """Info hook keeping one integer attribute of the result (or of the
    incumbent a budget exception carries)."""

    def info(args, outcome):
        source = getattr(outcome, "incumbent", outcome)
        value = getattr(source, attr, None)
        return {key: value} if isinstance(value, int) else {}

    return info


def _build_info(args, outcome):
    info = {"offered": len(args[2])}
    beta = getattr(outcome, "beta", None)
    if beta is not None:
        info["kept"] = len(beta)
    return info
