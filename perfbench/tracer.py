"""Spans and counters around qplab's public functions, from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
qplab namespace that holds it (the defining module, the modules that
imported it, the package root), so a call is caught wherever its caller
looks the name up.  Spans are kept in memory as
``(id, name, start, end, parent, op)`` tuples and written out by the caller
when the run ends; ``metrics()`` derives the per-layer numbers from them.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

import qplab
import qplab.cli
import qplab.dynamics
import qplab.greens
import qplab.lattice
import qplab.model
import qplab.msa

MODULES = (qplab, qplab.cli, qplab.model, qplab.greens, qplab.msa,
           qplab.dynamics, qplab.lattice)

# span name -> (defining module, function names)
SPANS = {
    "cli.run": (qplab.cli, ("run",)),
    "cli.emit": (qplab.cli, ("emit",)),
    "model.assemble": (qplab.model, ("assemble_restriction",
                                     "assemble_t_matrix", "toeplitz_block")),
    "greens.green_solve": (qplab.greens, ("green_solve",)),
    "greens.decay_scan": (qplab.greens, ("decay_scan",)),
    "msa.track_theta": (qplab.msa, ("track_theta",)),
    "msa.construct_blocks": (qplab.msa, ("construct_blocks",)),
    "msa.verify_blocks": (qplab.msa, ("verify_block_family",)),
    "msa.detect_resonances": (qplab.msa, ("detect_resonances",)),
    "dynamics.evolve": (qplab.dynamics, ("evolve_amplitudes",)),
    "dynamics.moment": (qplab.dynamics, ("moment_p",)),
    "dynamics.green_moment": (qplab.dynamics, ("green_moment_bound",)),
    "dynamics.time_avg": (qplab.dynamics, ("time_avg_moment",)),
    "dynamics.offaxis": (qplab.dynamics, ("offaxis_green_decay",)),
    "lattice.set_ops": (qplab.lattice, ("set_contains", "sets_intersect",
                                        "site_tuples", "set_diameter")),
    "lattice.regular_deformation": (qplab.lattice, ("regular_deformation",)),
    "lattice.pairwise_sup_dist": (qplab.lattice, ("pairwise_sup_dist",)),
}

# modules whose ``lu_factor`` calls are counted, one counter each
LU_MODULES = {"greens": qplab.greens, "msa": qplab.msa,
              "dynamics": qplab.dynamics}

# per-layer metric -> unit, in report order
UNITS = {
    "cli.run_s": "s", "cli.self_s": "s", "cli.emit_s": "s",
    "cli.bundle_bytes": "bytes",
    "model.assemble_s": "s", "model.assemble_calls": "count",
    "greens.green_solve_s": "s", "greens.green_solve_calls": "count",
    "greens.lu_calls": "count", "greens.decay_scan_s": "s",
    "msa.track_theta_s": "s", "msa.track_theta_calls": "count",
    "msa.lu_calls": "count", "msa.lu_per_root": "ratio",
    "msa.newton_iters": "count",
    "msa.construct_blocks_s": "s", "msa.verify_blocks_s": "s",
    "msa.detect_resonances_s": "s",
    "dynamics.evolve_s": "s", "dynamics.eigh_calls": "count",
    "dynamics.moment_s": "s", "dynamics.green_moment_s": "s",
    "dynamics.quad_solves": "count", "dynamics.lu_calls": "count",
    "dynamics.budget_hit_frac": "ratio", "dynamics.time_avg_s": "s",
    "dynamics.time_avg_nodes": "count", "dynamics.offaxis_s": "s",
    "lattice.set_ops_s": "s", "lattice.regular_deformation_s": "s",
    "lattice.pairwise_sup_dist_s": "s",
    "trace.overhead_frac": "ratio",
}

COUNT_METRICS = tuple(k for k, u in UNITS.items() if u in ("count", "bytes"))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.op = 0
        self._stack: list = []
        self._next = 0

    def _bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def _span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op))
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._bump(name)
            return fn(*args, **kwargs)
        return wrapper

    def _on_track(self, step) -> None:
        self._bump("msa.roots", len(step.roots))
        self._bump("msa.newton_iters", step.newton_iters)

    def _on_green_moment(self, rep) -> None:
        self._bump("dynamics.quad_solves", rep.solves)
        self._bump("dynamics.budget_hits", int(rep.budget_hit))

    def _on_time_avg(self, rep) -> None:
        self._bump("dynamics.time_avg_nodes", rep.nodes_used)

    def install(self) -> None:
        hooks = {"track_theta": self._on_track,
                 "green_moment_bound": self._on_green_moment,
                 "time_avg_moment": self._on_time_avg}
        for name, (home, attrs) in SPANS.items():
            for attr in attrs:
                orig = getattr(home, attr)
                wrapped = self._span(name, orig, hooks.get(attr))
                for mod in MODULES:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
        for layer, mod in LU_MODULES.items():
            mod.lu_factor = self._counter(f"{layer}.lu_calls", mod.lu_factor)
        eigh = np.linalg.eigh

        @functools.wraps(eigh)
        def counted_eigh(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == \
                    "qplab.dynamics":
                self._bump("dynamics.eigh_calls")
            return eigh(*args, **kwargs)
        np.linalg.eigh = counted_eigh

    def metrics(self, bundle_bytes: int = 0) -> dict:
        """Per-layer numbers of one repetition.

        A group's time is the sum of its outermost spans, so a traced
        function calling another of the same group counts once; self time
        is a span's duration minus its direct children.
        """
        by_id = {s[0]: s for s in self.spans}
        incl: dict = {}
        calls: dict = {}
        child_time: dict = {}
        for sid, name, start, end, parent, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
            up = parent
            while up is not None and by_id[up][1] != name:
                up = by_id[up][4]
            if up is None:
                incl[name] = incl.get(name, 0.0) + end - start
        cli_self = sum(end - start - child_time.get(sid, 0.0)
                       for sid, name, start, end, _, _ in self.spans
                       if name == "cli.run")
        c = self.counts
        roots = c.get("msa.roots", 0)
        gm_calls = calls.get("dynamics.green_moment", 0)
        out = {
            "cli.run_s": incl.get("cli.run", 0.0),
            "cli.self_s": cli_self,
            "cli.emit_s": incl.get("cli.emit", 0.0),
            "cli.bundle_bytes": bundle_bytes,
            "model.assemble_calls": calls.get("model.assemble", 0),
            "greens.green_solve_calls": calls.get("greens.green_solve", 0),
            "msa.track_theta_calls": calls.get("msa.track_theta", 0),
            "msa.lu_per_root": c.get("msa.lu_calls", 0) / roots if roots
            else 0.0,
            "dynamics.budget_hit_frac":
                c.get("dynamics.budget_hits", 0) / gm_calls if gm_calls
                else 0.0,
        }
        for key in ("greens.lu_calls", "msa.lu_calls", "msa.newton_iters",
                    "dynamics.eigh_calls", "dynamics.quad_solves",
                    "dynamics.lu_calls", "dynamics.time_avg_nodes"):
            out[key] = c.get(key, 0)
        for name in SPANS:
            if name not in ("cli.run", "cli.emit"):
                out[name + "_s"] = incl.get(name, 0.0)
        return out
