"""Spans around the public functions of each wbell module, installed from outside.

Each wrapped call is a span named ``layer.function``. A stack of open spans
gives every span its parent, so a span's self time is its duration minus the
durations of its direct children. Spans are aggregated in memory as they
close, per name and per (parent, name) edge, because a round opens several
hundred thousand of them. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (span, module, attribute, where). An attribute with a dot is a class member
# of that module. ``where`` None replaces the function in every wbell module
# that holds it; otherwise only in the named module, so that the POVM
# constructors count the devices ``search`` builds and not the constructors
# they call in turn.
SPANS = (
    ("cli.dispatch", "wbell.cli", "dispatch", None),
    ("cli.bell", "wbell.cli", "_cmd_bell", None),
    ("cli.threshold", "wbell.cli", "_cmd_threshold", None),
    ("cli.region", "wbell.cli", "_cmd_region", None),
    ("cli.content", "wbell.cli", "_cmd_content", None),
    ("search.optimize_free_parameters", "wbell.search", "optimize_free_parameters", None),
    ("search.critical_efficiency", "wbell.search", "critical_efficiency", None),
    ("search.has_violation", "wbell.search", "has_violation", None),
    ("search.minimize", "wbell.search", "_minimize_from", None),
    ("search.violation_margin", "wbell.search", "violation_margin", None),
    ("search.region_boundary", "wbell.search", "region_boundary", None),
    ("measure.povm", "wbell.measure", "efficiency_povm", "wbell.search"),
    ("measure.povm", "wbell.measure", "homodyne_povm", "wbell.search"),
    ("measure.povm", "wbell.measure", "displaced_spd_povm", "wbell.search"),
    ("measure.povm", "wbell.measure", "lossy_threeoutcome_povm", "wbell.search"),
    ("measure.checks", "wbell.measure", "_check_two_elements", "wbell.measure"),
    ("measure.checks", "wbell.measure", "ThreeOutcomePOVM.__post_init__", None),
    ("states.scenario_state", "wbell.search", "scenario_state", None),
    ("dist.joint_distribution", "wbell.dist", "joint_distribution", None),
    ("dist.validate", "wbell.dist", "JointDistribution.validate", None),
    ("dist.full_correlators", "wbell.dist", "full_correlators", None),
    ("dist.from_text", "wbell.dist", "JointDistribution.from_text", None),
    ("bell.criterion", "wbell.search", "criterion_result", None),
    ("polytope.nonlocal_content", "wbell.polytope", "nonlocal_content", None),
    ("polytope.solve_lp", "wbell.polytope", "solve_lp", None),
    ("polytope.linprog", "wbell.polytope", "linprog", "wbell.polytope"),
)

LAYERS = ("cli", "search", "measure", "states", "dist", "bell", "polytope")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = Counter()          # (parent span, span) -> calls
        self.open = Counter()           # span -> how many are open now
        self.margins_in_threshold = 0   # violation_margin under critical_efficiency
        self.region_rows = 0
        self.lp_iterations = 0
        self.lp_rows = 0
        self.lp_cols = 0
        self._stack = []                # [name, child seconds] of open spans
        self._undo = []
        self.missing = []

    def _wrap(self, name: str, fn):
        stack, tracer = self._stack, self

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            tracer.edges[parent, name] += 1
            tracer.open[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.open[name] -= 1
                if stack:
                    stack[-1][1] += dt
                tracer.calls[name] += 1
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[1]
            tracer._record(name, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def _record(self, name, args, kwargs, result):
        if name == "search.violation_margin" and self.open["search.critical_efficiency"]:
            self.margins_in_threshold += 1
        elif name == "search.region_boundary":
            self.region_rows += len(result.points)
        elif name == "polytope.linprog":
            self.lp_iterations += int(getattr(result, "nit", 0) or 0)
            rows, cols = kwargs["A_ub"].shape
            self.lp_rows = max(self.lp_rows, rows)
            self.lp_cols = max(self.lp_cols, cols)

    def install(self) -> None:
        for name, module_name, attr, where in SPANS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            if module is None or (owner_name and not hasattr(module, owner_name)):
                self.missing.append(name)
                continue
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__.get(member)
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._replace(owner, member, wrapped)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            holders = ([sys.modules[where]] if where else
                       [m for n, m in sorted(sys.modules.items())
                        if (n == "wbell" or n.startswith("wbell.")) and m is not None])
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, wrapped)

    def _replace(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def summary(self) -> dict:
        """Every span's calls, total and self seconds, and every edge."""
        return {
            "spans": {name: {"calls": self.calls[name], "s": self.total[name],
                             "self_s": self.self_time[name]}
                      for name in sorted(self.calls)},
            "edges": [{"parent": p, "span": s, "calls": c}
                      for (p, s), c in sorted(self.edges.items(), key=lambda e: str(e[0]))],
            "missing": self.missing,
        }
