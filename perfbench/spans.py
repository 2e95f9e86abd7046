"""Span tracing for the traced run.

A Tracer replaces the public entry points of each oddcycle module with
wrappers that record one span per call: name, start, end and parent.  Spans
stay in memory until the run ends.  Nothing is wrapped unless install() is
called, and uninstall() puts every original back, so untraced runs measure
the unmodified program.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import oddcycle
from oddcycle import cli, engine, optimizer, solver, strategies
from oddcycle.board import GameState, Role

STRATEGY_NAMES = {
    strategies.MakerOddCycle: "maker-oc",
    strategies.BreakerConnected: "breaker-connected",
    strategies.ClientConnected: "client-connected",
    strategies.RandomMaker: "random-maker",
    strategies.RandomBreaker: "random-breaker",
    strategies.RandomWaiter: "random-waiter",
    strategies.RandomClient: "random-client",
    strategies.GreedyMaker: "greedy-maker",
    strategies.GreedyBreaker: "greedy-breaker",
    strategies.GreedyWaiter: "greedy-waiter",
    strategies.SolverOracle: "solver-oracle",
}
# strategies whose decisions are also split by the branch tag they return
BRANCHED = {"maker-oc", "breaker-connected", "greedy-breaker", "client-connected",
            "greedy-waiter"}
HOOK_NAMES = {
    strategies.DegreeRegularityHook: "degree-regularity",
    strategies.BreakerLossHook: "breaker-loss",
    strategies.MakerLossHook: "maker-loss",
    strategies.ClientCriticalHook: "client-critical",
}
# run_game time spent in these layers is not the engine's own time
NOT_ENGINE = ("strategies", "board", "hooks")


def _is_merge(state, role, eid) -> list[str]:
    """A builder claim joining two components whose part labels agree (relabel path)."""
    if role is not Role.BUILDER or not 0 <= eid < state.E or state.own[eid]:
        return []
    u, v = state.pairs[eid]
    pu, pv = state.part[u], state.part[v]
    if pu and pu == pv and state.pf.find(u)[0] != state.pf.find(v)[0]:
        return ["board.apply_claim.merge"]
    return []


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.solvers: list = []
        self.minimize_args: list[tuple[int, int]] = []
        self._stack: list[list] = []  # [id, child time, child time outside the engine]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, layer, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            extra_names = before(*args) if before else ()
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            dur = t1 - t0
            tracer.spans.append((sid, name, t0, t1, parent[0] if parent else -1))
            if parent is not None:
                parent[1] += dur
                if layer in NOT_ENGINE:
                    parent[2] += dur
            names = [name, *extra_names]
            if after is not None:
                names.extend(after(out, args))
            for nm in names:
                tracer.calls[nm] += 1
                tracer.total_s[nm] += dur
            tracer.self_s[name] += dur - frame[1]
            if name == "engine.run_game":
                tracer.extra["engine.self_s"] += dur - frame[2]
            return out

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _patch_everywhere(self, modules, attr, make):
        """Patch a function in its own module and in every module that imported it."""
        wrapped = None
        for mod in modules:
            original = getattr(mod, attr)
            if wrapped is None:
                wrapped = make(original)
            self._patches.append((mod, attr, original))
            setattr(mod, attr, wrapped)

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(GameState, "apply_claim",
                    lambda f: self._wrap("board.apply_claim", "board", f, before=_is_merge))
        self._patch(GameState, "clone", lambda f: self._wrap("board.clone", "board", f))
        self._patch(GameState, "closes_odd_cycle",
                    lambda f: self._counter("board.closes_odd_cycle", f))
        for cls, sname in STRATEGY_NAMES.items():
            branch = self._branch_names(sname) if sname in BRANCHED else None
            for meth in ("claim_edge", "make_offer", "choose_from"):
                if meth in cls.__dict__:
                    self._patch(cls, meth, lambda f, nm=f"strategies.{sname}", a=branch:
                                self._wrap(nm, "strategies", f, after=a))
        for cls, hname in HOOK_NAMES.items():
            for meth in ("after_claim", "after_round", "on_result"):
                if meth in cls.__dict__:
                    self._patch(cls, meth, lambda f, nm=f"hooks.{hname}":
                                self._wrap(nm, "hooks", f))
        self._patch_everywhere((engine, oddcycle, cli), "run_game",
                               lambda f: self._wrap("engine.run_game", "engine", f))
        self._patch_everywhere((engine, solver), "offerable_edges",
                               lambda f: self._wrap("engine.offerable_edges", "engine", f))
        self._patch_everywhere((engine, solver), "validate_offer",
                               lambda f: self._wrap("engine.validate_offer", "engine", f))
        self._patch_everywhere((solver, oddcycle, cli), "solve_game",
                               lambda f: self._wrap("solver.solve_game", "solver", f))
        self._patch_everywhere((solver, oddcycle, cli), "verify_strategy",
                               lambda f: self._wrap("verify", "solver", f,
                                                    before=self._verify_start,
                                                    after=self._verify_end))
        for attr in ("best_claim", "best_offer", "best_choice"):
            self._patch_everywhere((solver,), attr,
                                   lambda f: self._wrap("solver.oracle", "solver", f))
        for cls in (solver.MBSolver, solver.CWSolver):
            self._patch(cls, "__init__", self._register_solver)
        self._patch_everywhere((optimizer, oddcycle, cli), "minimize_f",
                               lambda f: self._wrap("optimizer.minimize_f", "optimizer", f,
                                                    before=self._minimize_args))
        self._patch_everywhere((optimizer, oddcycle), "gnb_membership",
                               lambda f: self._wrap("optimizer.gnb_membership",
                                                    "optimizer", f))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-call extras ---------------------------------------------------------

    @staticmethod
    def _branch_names(sname):
        def after(out, args):
            tag = out[1] if isinstance(out, tuple) and out[1] else None
            return [f"strategies.{sname}.{tag.split(':')[-1]}"] if tag else []
        return after

    def _verify_start(self, *args):
        self._clones_at_verify = self.calls["board.clone"]
        return ()

    def _verify_end(self, result, args):
        self.extra["verify.nodes"] += result.nodes
        self.extra["verify.clones"] += self.calls["board.clone"] - self._clones_at_verify
        return []

    def _minimize_args(self, n, b, *rest):
        self.minimize_args.append((n, b))
        return ()

    def _register_solver(self, init):
        tracer = self

        def wrapper(inst, *args, **kwargs):
            init(inst, *args, **kwargs)
            tracer.solvers.append(inst)

        return wrapper

    # -- results -------------------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Totals by metric name for everything this tracer saw."""
        out: dict[str, float] = {}
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
        for name, secs in self.total_s.items():
            out[f"{name}.s"] = secs
        out.update(self.extra)
        out["solver.nodes"] = sum(s.nodes for s in self.solvers)
        out["solver.memo_entries"] = sum(len(s.memo) for s in self.solvers)
        out["solver.s"] = self.total_s.get("solver.solve_game", 0.0)
        solver_s = out["solver.s"]
        out["solver.nodes_per_s"] = out["solver.nodes"] / solver_s if solver_s else 0.0
        verify_s, verify_nodes = self.total_s.get("verify", 0.0), self.extra.get("verify.nodes", 0)
        out["verify.nodes_per_s"] = verify_nodes / verify_s if verify_s else 0.0
        out["verify.clones_per_node"] = (self.extra.get("verify.clones", 0) / verify_nodes
                                         if verify_nodes else 0.0)
        out["optimizer.shapes"] = sum(sum(1 for _ in optimizer.iter_shapes(n, b))
                                      for n, b in self.minimize_args)
        return out

    def write(self, path, meta: dict):
        """Write the spans and per-name totals (with self time) as one JSON file."""
        names = sorted({s[1] for s in self.spans})
        index = {nm: i for i, nm in enumerate(names)}
        doc = {
            **meta,
            "names": names,
            "spans": [[sid, index[nm], round(t0, 7), round(t1, 7), parent]
                      for sid, nm, t0, t1, parent in self.spans],
            "totals": {nm: {"calls": self.calls[nm], "s": self.total_s[nm],
                            "self_s": self.self_s.get(nm, 0.0)}
                       for nm in sorted(self.calls)},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
