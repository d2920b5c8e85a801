"""The benchmark's workloads: fixed lists of wbell invocations and their checks.

Each check receives the parsed output of one invocation and returns a list of
problems (empty when the output is right); cross checks compare outputs of
several invocations. Every expected number comes from ``reference``, never
from wbell. Thresholds of optimizer-bound invocations are not pinned to any
digits: they move with ``--starts``, and a search that finds better
measurements must still pass.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import reference as ref

VALUE_ATOL = 1e-9          # printed value vs Kronecker-product recomputation
CLOSED_FORM_ATOL = 1e-10   # ideal and vacuum single-excitation values
DAMPING_ATOL = 1e-3        # shared-loss threshold vs its closed form
PUBLISHED_ATOL = 0.01      # thresholds and CHSH values quoted in the literature
LINE_ATOL = 0.01           # three-outcome boundary eta_x = 2 (1 - eta_z)
FIG5_ATOL = 0.02           # fig5 N=5 threshold vs 1/3
WEIGHT_ATOL = 1e-7         # EPR2 local weight vs the reference LP
TABLE_ATOL = 1e-9          # dumped distribution vs the reference table

NAMES = ("search-small", "dense-large-n", "lp-content")


@dataclass(frozen=True)
class Invocation:
    """One wbell command line; ``check`` maps its parsed output to problems."""

    argv: tuple
    check: Callable[[object], list]
    expect_rc: int = 0
    out_file: Optional[str] = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    cross_checks: tuple = ()   # (labels, fn(outputs in label order) -> problems)
    files: dict = field(default_factory=dict)  # written once before the first round
    draws: dict = field(default_factory=dict)  # what the seed chose


def _near(what: str, got: float, want: float, atol: float) -> list:
    if not (isinstance(got, (int, float)) and math.isfinite(got)) or abs(got - want) > atol:
        return [f"{what} is {got!r}, expected {want!r} within {atol:g}"]
    return []


def _argv(text: str) -> tuple:
    return tuple(text.split())


def _scenario_fields(out: dict, command: str, scenario: str, n: int) -> list:
    want = {"command": command, "scenario": scenario, "n_parties": n}
    return [f"{k} is {out.get(k)!r}, expected {v!r}" for k, v in want.items()
            if out.get(k) != v]


# ---------------------------------------------------------------------------
# Checks of single outputs


def check_bell(preset: str, n: int, published: Optional[float] = None,
               above: Optional[float] = None) -> Callable:
    """Value and margin recomputed from the printed params."""
    def check(out: dict) -> list:
        problems = _scenario_fields(out, "bell", preset, n)
        value, bound = ref.bell_value(preset, n, out["params"])
        problems += _near("value", out["value"], value, VALUE_ATOL)
        problems += _near("margin", out["margin"], value - bound, VALUE_ATOL)
        if published is not None:
            problems += _near("value vs published", out["value"], published, PUBLISHED_ATOL)
            if out["value"] > 2.0 * math.sqrt(2.0) + VALUE_ATOL:
                problems.append(f"value {out['value']!r} exceeds 2 sqrt 2")
        if above is not None and not out["value"] > above:
            problems.append(f"value {out['value']!r} does not exceed {above}")
        return problems
    return check


def check_explicit_cabello(n: int, state: str) -> Callable:
    closed = ref.cabello_ideal(n) if state == "w" else ref.cabello_vacuum(n)

    def check(out: dict) -> list:
        problems = _scenario_fields(out, "bell", "custom", n)
        problems += _near("value vs closed form", out["value"], closed, CLOSED_FORM_ATOL)
        problems += _near("value vs Kronecker recomputation", out["value"],
                          ref.ideal_cabello(n, state), VALUE_ATOL)
        return problems
    return check


def check_threshold(preset: str, n: int, param: str, bracket: tuple,
                    want: Optional[float] = None, atol: float = 0.0,
                    also: tuple = (), lp: bool = False) -> Callable:
    """Threshold inside the bracket, near ``want`` (and each of ``also``,
    pairs of value and tolerance) when given, and for closed-form criteria a
    margin at the threshold recomputed from the printed params."""
    def check(out: dict) -> list:
        problems = _scenario_fields(out, "threshold", preset, n)
        t = out["threshold"]
        if out.get("param") != param:
            problems.append(f"param is {out.get('param')!r}, expected {param!r}")
        if not bracket[0] <= t <= bracket[1]:
            problems.append(f"threshold {t!r} outside the bracket {bracket}")
        if want is not None:
            problems += _near("threshold", t, want, atol)
        for value, tol in also:
            problems += _near("threshold", t, value, tol)
        params = out["params_at_threshold"]
        if params.get(param) != t:
            problems.append(f"params_at_threshold pins {param} at {params.get(param)!r}, "
                            f"not at the threshold {t!r}")
        if not lp:
            value, bound = ref.bell_value(preset, n, params)
            problems += _near("margin_at_threshold", out["margin_at_threshold"],
                              value - bound, VALUE_ATOL)
        return problems
    return check


def check_region(bracket: tuple, rows_expected: int) -> Callable:
    """garbarino3 region rows: 'ok' rows on the line, other rows only where
    the line meets the end of the bracket."""
    def check(rows: list) -> list:
        problems = []
        if len(rows) != rows_expected:
            problems.append(f"{len(rows)} region rows, expected {rows_expected}")
        for x, y, status in rows:
            line = ref.garbarino3_line(x)
            if status == "ok":
                problems += _near(f"row eta_z={x:g}", y, line, LINE_ATOL)
            elif status == "never" and line >= bracket[1] - LINE_ATOL:
                continue
            elif status == "always" and line <= bracket[0] + LINE_ATOL:
                continue
            else:
                problems.append(f"row eta_z={x:g} is {status!r} away from the bracket ends")
        return problems
    return check


def check_content(preset: str, n: int, params: dict) -> Callable:
    """Local weight vs the reference LP on the reference distribution."""
    def check(out: dict) -> list:
        problems = _scenario_fields(out, "content", preset, n)
        rho, parties, _ = ref.scenario(preset, n, params)
        weight = ref.local_weight(n, len(parties[0][0]), ref.distribution(rho, parties))
        problems += _near("local_weight", out["local_weight"], weight, WEIGHT_ATOL)
        problems += _near("nonlocal_content", out["nonlocal_content"],
                          1.0 - out["local_weight"], 1e-15)
        return problems
    return check


def check_dumped_table(preset: str, n: int, params: dict) -> Callable:
    def check(text: str) -> list:
        rho, parties, _ = ref.scenario(preset, n, params)
        want = ref.distribution(rho, parties)
        _, _, got = ref.parse_distribution(text)
        if set(got) != set(want):
            return ["dumped table does not list every (settings, outcomes) pair"]
        worst = max(abs(got[key] - want[key]) for key in want)
        return [] if worst <= TABLE_ATOL else [f"dumped table is off by {worst:g}"]
    return check


def check_dist_file(path: str) -> Callable:
    """Local weight vs the reference LP on the table as written in the file."""
    def check(out: dict) -> list:
        with open(path, "r", encoding="utf-8") as handle:
            n, k, table = ref.parse_distribution(handle.read())
        problems = []
        if (out.get("n_parties"), out.get("n_outcomes")) != (n, k):
            problems.append(f"reports {out.get('n_parties')} parties and "
                            f"{out.get('n_outcomes')} outcomes, the file has {n} and {k}")
        problems += _near("local_weight", out["local_weight"],
                          ref.local_weight(n, k, table), WEIGHT_ATOL)
        return problems
    return check


def no_output(out) -> list:
    return []


# ---------------------------------------------------------------------------
# Cross checks


def strictly_rising(outs: list) -> list:
    values = [o["threshold"] for o in outs]
    if all(a < b for a, b in zip(values, values[1:])):
        return []
    return [f"thresholds {values} do not rise strictly with N"]


def fig4_crossover(outs: list) -> list:
    """Outputs in the order homodyne 0.65, displacement 0.65, homodyne 0.8,
    displacement 0.8: displacement is ahead at 65% coupling, homodyne at 80%."""
    h65, d65, h80, d80 = (o["threshold"] for o in outs)
    problems = []
    if not d65 < h65:
        problems.append(f"at eta_c=0.65 displacement {d65!r} is not below homodyne {h65!r}")
    if not h80 < d80:
        problems.append(f"at eta_c=0.8 homodyne {h80!r} is not below displacement {d80!r}")
    return problems


# ---------------------------------------------------------------------------
# Workloads


def search_small() -> Workload:
    """Optimizer-bound, N=2-3, closed-form criteria."""
    invs = [
        Invocation(_argv("threshold --preset cabello-homodyne --n 3"),
                   check_threshold("cabello-homodyne", 3, "eta_spd", (0.0, 1.0),
                                   ref.PUBLISHED_THRESHOLDS_N3["cabello-homodyne"],
                                   PUBLISHED_ATOL,
                                   also=((ref.HOMODYNE_THRESHOLD_N3, DAMPING_ATOL),))),
        Invocation(_argv("threshold --preset cabello-displacement --n 3 --starts 4"),
                   check_threshold("cabello-displacement", 3, "eta_spd", (0.0, 1.0),
                                   ref.PUBLISHED_THRESHOLDS_N3["cabello-displacement"],
                                   PUBLISHED_ATOL)),
    ]
    fig4 = []
    for eta_c in ("0.65", "0.8"):
        for preset in ("fig4-homodyne", "fig4-displacement"):
            inv = Invocation(
                _argv(f"threshold --preset {preset} --set eta_c={eta_c} --starts 2 "
                      f"--bracket 0.5 1.0 --atol 0.02"),
                check_threshold(preset, 2, "eta_spd", (0.5, 1.0)))
            invs.append(inv)
            fig4.append(inv.label)
    for preset in ("chsh-homodyne", "chsh-displacement"):
        invs.append(Invocation(_argv(f"bell --preset {preset} --starts 4"),
                               check_bell(preset, 2, published=ref.PUBLISHED_CHSH[preset])))
    return Workload("search-small", tuple(invs), ((tuple(fig4), fig4_crossover),))


def dense_large_n() -> Workload:
    """Distribution-bound, N=6-8."""
    invs = []
    for n in (6, 7, 8):
        invs.append(Invocation(
            _argv(f"threshold --preset cabello-ad --n {n} --bracket 0.5 0.99"),
            check_threshold("cabello-ad", n, "eta", (0.5, 0.99),
                            ref.damping_threshold(n), DAMPING_ATOL)))
    fig1 = []
    for n in (6, 7, 8):
        inv = Invocation(
            _argv(f"threshold --preset fig1 --n {n} --set eta_z=1 --param eta_x "
                  f"--bracket 0.5 1.0"),
            check_threshold("fig1", n, "eta_x", (0.5, 1.0)))
        invs.append(inv)
        fig1.append(inv.label)
    invs += [
        Invocation(_argv("bell --inequality cabello --n 8 --ideal"),
                   check_explicit_cabello(8, "w")),
        Invocation(_argv("bell --inequality cabello --n 8 --state vacuum"),
                   check_explicit_cabello(8, "vacuum")),
        Invocation(_argv("bell --preset fig3 --n 8 --set eta_spd=0.9 --starts 2"),
                   check_bell("fig3", 8, above=1.0)),
        Invocation(_argv("bell --preset fig3 --n 8 --set eta_spd=0.7 --starts 2"),
                   check_bell("fig3", 8)),
        Invocation(_argv("bell --preset fig3 --n 7 --set eta_spd=0.8 --starts 4"),
                   check_bell("fig3", 7)),
        Invocation(_argv("threshold --preset fig3 --n 7 --starts 1 --atol 0.01"),
                   check_threshold("fig3", 7, "eta_spd", (0.05, 1.0))),
        Invocation(_argv("threshold --preset fig3 --n 8 --starts 1 --atol 0.01"),
                   check_threshold("fig3", 8, "eta_spd", (0.05, 1.0))),
    ]
    return Workload("dense-large-n", tuple(invs), ((tuple(fig1), strictly_rising),))


MALFORMED_DIST = "0 0 0.5\n0 1 0.5\n2 0 0.5\n2 1 0.5\n"


def lp_content(seed: int, workdir: str) -> Workload:
    """LP-bound: EPR2 content at two and three outcomes."""
    rng = random.Random(seed)

    def point(preset: str) -> dict:
        lo_x = 0.5 if preset == "fig5" else 0.05
        return {"eta_z": round(rng.uniform(0.5, 1.0), 4),
                "eta_x": round(rng.uniform(lo_x, 1.0), 4)}

    def pins(p: dict) -> str:
        return f"--set eta_z={p['eta_z']} --set eta_x={p['eta_x']}"

    invs = [
        Invocation(_argv("threshold --preset garbarino3 --n 4 --set eta_z=0.8 --param eta_x "
                         "--bracket 0.01 1.0 --atol 0.01"),
                   check_threshold("garbarino3", 4, "eta_x", (0.01, 1.0),
                                   ref.garbarino3_line(0.8), LINE_ATOL, lp=True)),
        Invocation(_argv("threshold --preset garbarino3 --n 3 --set eta_z=0.75 --param eta_x "
                         "--bracket 0.01 1.0"),
                   check_threshold("garbarino3", 3, "eta_x", (0.01, 1.0),
                                   ref.garbarino3_line(0.75), LINE_ATOL, lp=True)),
        Invocation(_argv("region --preset garbarino3 --n 3 --grid 9 --jobs 1"),
                   check_region((0.0, 1.0), 9)),
        Invocation(_argv("threshold --preset fig5 --n 5 --set eta_x=1 --param eta_z "
                         "--bracket 0.2 0.6"),
                   check_threshold("fig5", 5, "eta_z", (0.2, 0.6),
                                   ref.FIG5_N5_THRESHOLD, FIG5_ATOL, lp=True)),
        Invocation(_argv("content --preset garbarino3 --n 4 --set eta_z=0.9 --set eta_x=0.5"),
                   check_content("garbarino3", 4, {"eta_z": 0.9, "eta_x": 0.5})),
    ]
    draws = {}
    for preset in ("fig5", "fig5", "garbarino3", "garbarino3"):
        p = point(preset)
        draws.setdefault(f"content {preset}", []).append(p)
        invs.append(Invocation(_argv(f"content --preset {preset} --n 3 {pins(p)}"),
                               check_content(preset, 3, p)))
    for preset in ("garbarino3", "fig5"):
        p = point(preset)
        draws[f"dist-file {preset}"] = p
        path = os.path.join(workdir, f"{preset}.dist")
        invs.append(Invocation(
            _argv(f"content --preset {preset} --n 3 {pins(p)} --dump-dist --out {path}"),
            check_dumped_table(preset, 3, p), out_file=path))
        invs.append(Invocation(_argv(f"content --dist-file {path}"), check_dist_file(path)))
    bad = os.path.join(workdir, "settings-digit-2.dist")
    invs.append(Invocation(_argv(f"content --dist-file {bad}"), no_output, expect_rc=1))
    return Workload("lp-content", tuple(invs), (), {bad: MALFORMED_DIST}, draws)


def build(name: str, seed: int, workdir: str) -> Workload:
    """The named workload. Only lp-content draws inputs from the seed; the
    other two run fixed presets."""
    if name == "search-small":
        return search_small()
    if name == "dense-large-n":
        return dense_large_n()
    if name == "lp-content":
        return lp_content(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
