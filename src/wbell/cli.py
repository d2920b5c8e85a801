"""Command-line front end: presets, config files, JSON and CSV output.

Subcommands: ``bell`` (evaluate one criterion, optimizing free parameters),
``threshold`` (bisect a critical efficiency), ``region`` (threshold curve over
a parameter grid, CSV), ``content`` (EPR2 nonlocal content), ``negativity``
(entanglement across the atom/photons cut). Identical invocations produce
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .dist import JointDistribution
from .polytope import LPError, nonlocal_content
from .qmat import negativity
from .search import (
    BISECTION_ATOL,
    CRITERIA,
    BracketError,
    DEFAULT_STARTS,
    MeasSpec,
    ParamSpec,
    ScenarioSpec,
    critical_efficiency,
    fix_parameter,
    free_parameters,
    optimize_free_parameters,
    region_boundary,
    resolve_values,
    scenario_distribution,
    scenario_result,
)
from .states import atom_photon_state

DEFAULT_GRID = 21

TWO_PI = 2.0 * math.pi
THETA_LO = -math.pi / 2.0
THETA_HI = -1e-3
_HELP_FORMATTER = partial(argparse.HelpFormatter, width=78)  # 80-column help whatever COLUMNS says


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag, in any subcommand, as one ValueError line; -1e-3 is a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_HELP_FORMATTER, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ValueError(message)


# ---------------------------------------------------------------------------
# Presets


@dataclass(frozen=True)
class Preset:
    """A named scenario at its default size, with run defaults: the
    (parameter, range) pairs of threshold and of region's x and y."""

    spec: ScenarioSpec
    threshold: tuple
    region_x: Optional[tuple] = None
    region_y: Optional[tuple] = None

    def build(self, n: int) -> ScenarioSpec:
        return replace(self.spec, n_parties=n)


def _photonic_zx(name: str, n: int, criterion: str) -> ScenarioSpec:
    return ScenarioSpec(
        name, n, criterion,
        MeasSpec("spd", "eta_z"), MeasSpec("sym", "eta_x"),
        params={"eta_z": ParamSpec.free(0.0, 1.0),
                "eta_x": ParamSpec.free(0.5, 1.0)})


# The paper's two schemes count photons at setting 0 and, at setting 1,
# measure a quadrature or count photons after a displacement. A device is
# its MeasSpec with the parameters it adds.
def _homodyne(eta_hom: float) -> tuple:
    return MeasSpec("homodyne", "eta_hom", "phi_x"), {"eta_hom": ParamSpec.fixed(eta_hom),
                                                       "phi_x": ParamSpec.free(0.0, TWO_PI)}


_DISPLACED = (MeasSpec("displaced_response", "eta_spd", "alpha"),
              {"alpha": ParamSpec.free(0.01, 2.0)})
_IDEAL_HOMODYNE = MeasSpec("homodyne", 1.0, 0.0), {}


def _counted(name: str, n: int, criterion: str, device: tuple, atom: bool = False,
             **params) -> ScenarioSpec:
    """A photon counter of efficiency ``eta_spd`` at setting 0 and ``device``
    at setting 1; ``params`` come between the counter's and the device's, the
    order resolve_values and the error texts list them in."""
    photon_x, device_params = device
    return ScenarioSpec(
        name, n, criterion, MeasSpec("spd", "eta_spd"), photon_x, atom=atom,
        params={"eta_spd": ParamSpec.free(0.0, 1.0), **params, **device_params})


def _atom(name: str, criterion: str, device: tuple, eta_atom: float) -> ScenarioSpec:
    """A counted-photon scheme with one photon and a perfectly coupled atom."""
    return _counted(name, 2, criterion, device, atom=True,
                    theta=ParamSpec.free(THETA_LO, THETA_HI), eta_c=ParamSpec.fixed(1.0),
                    eta_atom=ParamSpec.fixed(eta_atom), a_polar_0=ParamSpec.free(0.0, TWO_PI),
                    a_polar_1=ParamSpec.free(0.0, TWO_PI))


# The run defaults of every atom preset: threshold and region bisect the
# counter efficiency, over a grid of the coupling for region.
_ATOM_RUNS = (("eta_spd", (0.05, 1.0)), ("eta_c", (0.0, 1.0)), ("eta_spd", (0.05, 1.0)))

# A verdict needs a margin above VIOLATION_GUARD (an LP point: content above
# lp_tol plus the guard), so rounding noise decides none. At eta = 0 the
# counter never clicks and the full-correlator and CHSH criteria sit exactly
# on their classical bound; the brackets of those presets start above that
# degenerate point all the same, as the bisected digits depend on the bracket.
PRESETS = {
    "fig1": Preset(_photonic_zx("fig1", 3, "cabello"), ("eta_z", (0.0, 1.0)),
                   ("eta_z", (0.5, 1.0)), ("eta_x", (0.5, 1.0))),
    "fig2": Preset(_photonic_zx("fig2", 3, "wwwzb"), ("eta_z", (0.1, 1.0)),
                   ("eta_z", (0.5, 1.0)), ("eta_x", (0.5, 1.0))),
    "fig3": Preset(_atom("fig3", "wwwzb", _homodyne(1.0), eta_atom=1.0), *_ATOM_RUNS),
    "fig4-homodyne": Preset(
        _atom("fig4-homodyne", "chsh", _homodyne(0.98), eta_atom=0.95), *_ATOM_RUNS),
    "fig4-displacement": Preset(
        _atom("fig4-displacement", "chsh", _DISPLACED, eta_atom=0.95), *_ATOM_RUNS),
    "fig5": Preset(_photonic_zx("fig5", 3, "lp2"), ("eta_z", (0.0, 1.0)),
                   ("eta_x", (0.5, 1.0)), ("eta_z", (0.0, 1.0))),
    "garbarino3": Preset(
        ScenarioSpec(
            "garbarino3", 3, "lp3",
            MeasSpec("lossy3_z", "eta_z"), MeasSpec("lossy3_x", "eta_x", 0.0),
            params={"eta_z": ParamSpec.free(0.0, 1.0),
                    "eta_x": ParamSpec.free(0.0, 1.0)}),
        ("eta_x", (0.0, 1.0)), ("eta_z", (0.5, 1.0)), ("eta_x", (0.0, 1.0))),
    "cabello-homodyne": Preset(
        _counted("cabello-homodyne", 3, "cabello", _IDEAL_HOMODYNE), ("eta_spd", (0.0, 1.0))),
    "cabello-displacement": Preset(
        _counted("cabello-displacement", 3, "cabello", _DISPLACED), ("eta_spd", (0.0, 1.0))),
    "cabello-ad": Preset(
        ScenarioSpec(
            "cabello-ad", 3, "cabello",
            MeasSpec("spd", "eta"), MeasSpec("ad_x", "eta", 0.0),
            params={"eta": ParamSpec.free(0.0, 1.0)}),
        ("eta", (0.0, 1.0))),
    "wwwzb-homodyne": Preset(
        _counted("wwwzb-homodyne", 4, "wwwzb", _IDEAL_HOMODYNE), ("eta_spd", (0.1, 1.0))),
    "chsh-homodyne": Preset(
        fix_parameter(_atom("chsh-homodyne", "chsh", _homodyne(1.0), eta_atom=1.0),
                      "eta_spd", 1.0), *_ATOM_RUNS),
    "chsh-displacement": Preset(
        fix_parameter(_atom("chsh-displacement", "chsh", _DISPLACED, eta_atom=1.0),
                      "eta_spd", 1.0), *_ATOM_RUNS),
}


# ---------------------------------------------------------------------------
# Config files: flat "key = value" lines, '#' comments, unknown keys rejected.

# Every run key but ``command`` is kept as text and parsed as the flag of the
# same name, ahead of the command line's flags; bracket_lo and bracket_hi
# together stand for --bracket. A ``set.name`` pin is parsed as --set.
_RUN_KEYS = {"command", "preset", "n", "grid", "jobs", "starts", "out", "param",
             "atol", "bracket_lo", "bracket_hi"}

_SCENARIO_KEYS = {
    "scenario.name", "scenario.n_parties", "scenario.criterion",
    "scenario.atom", "scenario.lp_tol",
    "photon_z.family", "photon_z.eff", "photon_z.aux", "photon_z.flip",
    "photon_x.family", "photon_x.eff", "photon_x.aux", "photon_x.flip",
}


def _parse_bool(raw, key: str) -> bool:
    if raw in ("true", True):   # config text, or a field default as it is
        return True
    if raw in ("false", False):
        return False
    raise ValueError(f"{key} expects true or false, got {raw!r}")


def _parse_float(raw, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key} expects a number, got {raw!r}") from None


def parse_config(text: str) -> tuple:
    """A config's run keys and scenario keys, each as {key: text}, and its
    pins as ``--set`` flags, each value read as a number here."""
    options, pins, scenario_keys = {}, [], {}
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in seen:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key in _RUN_KEYS:
            options[key] = raw
        elif key in _SCENARIO_KEYS or key.startswith("param."):
            scenario_keys[key] = raw
        elif key.startswith("set.") and key != "set.":
            pins.append(f"--set={key[len('set.'):]}={_parse_float(raw, key)!r}")
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return options, pins, scenario_keys


def _parse_meas_ref(raw: str):
    if raw.startswith("@"):
        return raw[1:]
    return _parse_float(raw, "measurement field")


def _scenario_from_keys(keys: dict) -> ScenarioSpec:
    required = {"scenario.name", "scenario.n_parties", "scenario.criterion",
                "photon_z.family", "photon_z.eff",
                "photon_x.family", "photon_x.eff"}
    missing = required - set(keys)
    if missing:
        raise ValueError(f"config scenario is missing keys: {sorted(missing)}")

    def meas(prefix: str) -> MeasSpec:
        aux_raw = keys.get(f"{prefix}.aux")
        return MeasSpec(
            keys[f"{prefix}.family"],
            _parse_meas_ref(keys[f"{prefix}.eff"]),
            None if aux_raw is None else _parse_meas_ref(aux_raw),
            _parse_bool(keys.get(f"{prefix}.flip", MeasSpec.flip), f"{prefix}.flip"))

    params = {}
    for key, raw in keys.items():
        if not key.startswith("param."):
            continue
        name = key[len("param."):]
        tokens = raw.split()
        if len(tokens) != 3:
            raise ValueError(f"{key} expects 'lo hi value' or 'lo hi free'")
        lo = _parse_float(tokens[0], key)
        hi = _parse_float(tokens[1], key)
        value = None if tokens[2] == "free" else _parse_float(tokens[2], key)
        try:
            params[name] = ParamSpec(lo, hi, value)
        except ValueError as err:
            raise ValueError(f"{key}: {err}") from None

    try:
        n = int(keys["scenario.n_parties"])
    except ValueError:
        raise ValueError("scenario.n_parties expects an integer") from None
    return ScenarioSpec(
        keys["scenario.name"], n, keys["scenario.criterion"],
        meas("photon_z"), meas("photon_x"),
        atom=_parse_bool(keys.get("scenario.atom", ScenarioSpec.atom), "scenario.atom"),
        params=params,
        lp_tol=_parse_float(keys.get("scenario.lp_tol", ScenarioSpec.lp_tol), "scenario.lp_tol"))


def _dump_meas_ref(ref) -> str:
    if isinstance(ref, str):
        return "@" + ref
    return repr(float(ref))


def dump_scenario(spec: ScenarioSpec) -> str:
    """Config-file text that parses back to an equal ScenarioSpec."""
    lines = [
        f"scenario.name = {spec.name}",
        f"scenario.n_parties = {spec.n_parties}",
        f"scenario.criterion = {spec.criterion}",
        f"scenario.atom = {'true' if spec.atom else 'false'}",
        f"scenario.lp_tol = {spec.lp_tol!r}",
    ]
    for prefix, ms in (("photon_z", spec.photon_z), ("photon_x", spec.photon_x)):
        lines.append(f"{prefix}.family = {ms.family}")
        lines.append(f"{prefix}.eff = {_dump_meas_ref(ms.eff)}")
        if ms.aux is not None:
            lines.append(f"{prefix}.aux = {_dump_meas_ref(ms.aux)}")
        lines.append(f"{prefix}.flip = {'true' if ms.flip else 'false'}")
    for name in sorted(spec.params):
        p = spec.params[name]
        tail = "free" if p.value is None else repr(float(p.value))
        lines.append(f"param.{name} = {p.lo!r} {p.hi!r} {tail}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="named scenario")
    sub.add_argument("--n", type=int, default=None,
                     help="party count, atom included when present")
    sub.add_argument("--config", default=None, metavar="FILE",
                     help="flat key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                     help="pin one scenario parameter to a value")
    sub.add_argument("--dump-spec", action="store_true",
                     help="print the resolved scenario as config text and exit")
    sub.add_argument("--starts", type=int, default=DEFAULT_STARTS,
                     help="multi-start count for inner optimizations")
    sub.add_argument("--out", default=None, metavar="FILE",
                     help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wbell",
        description="Bell violations and detection thresholds for "
                    "single-photon path-entangled states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bell = sub.add_parser("bell", help="evaluate one Bell criterion")
    p_bell.set_defaults(run=_cmd_bell)
    _add_scenario_flags(p_bell)
    p_bell.add_argument("--inequality",
                        choices=[name for name, rule in CRITERIA.items() if not rule.lp],
                        help="build an explicit scenario instead of a preset")
    p_bell.add_argument("--state", choices=["w", "vacuum"], default="w",
                        help="source state for --inequality scenarios")
    p_bell.add_argument("--ideal", action="store_true",
                        help="perfect detectors in --inequality scenarios, the default "
                             "(not with --eta-z or --eta-x)")
    p_bell.add_argument("--eta-z", type=float, default=None,
                        help="z-detector efficiency for --inequality scenarios (default 1)")
    p_bell.add_argument("--eta-x", type=float, default=None,
                        help="x-detector efficiency for --inequality scenarios (default 1)")

    p_thr = sub.add_parser("threshold", help="bisect a critical efficiency")
    p_thr.set_defaults(run=_cmd_threshold)
    _add_scenario_flags(p_thr)
    p_thr.add_argument("--param", default=None,
                       help="parameter to bisect (preset default otherwise)")
    p_thr.add_argument("--bracket", type=float, nargs=2, default=None,
                       metavar=("LO", "HI"))
    p_thr.add_argument("--atol", type=float, default=BISECTION_ATOL,
                       help="bisection width tolerance")

    p_reg = sub.add_parser("region", help="threshold curve over a grid (CSV)")
    p_reg.set_defaults(run=_cmd_region)
    _add_scenario_flags(p_reg)
    p_reg.add_argument("--x", dest="x_name", default=None,
                       help="grid parameter (preset default otherwise)")
    p_reg.add_argument("--y", dest="y_name", default=None,
                       help="bisected parameter (preset default otherwise)")
    p_reg.add_argument("--x-range", type=float, nargs=2, default=None,
                       metavar=("LO", "HI"))
    p_reg.add_argument("--bracket", type=float, nargs=2, default=None,
                       metavar=("LO", "HI"))
    p_reg.add_argument("--grid", type=int, default=DEFAULT_GRID,
                       help="number of grid points")
    p_reg.add_argument("--atol", type=float, default=BISECTION_ATOL)
    p_reg.add_argument("--jobs", type=int, default=1,
                       help="worker processes")

    p_con = sub.add_parser("content", help="EPR2 nonlocal content")
    p_con.set_defaults(run=_cmd_content)
    _add_scenario_flags(p_con)
    p_con.add_argument("--dist-file", default=None, metavar="FILE",
                       help="read a serialized distribution instead")
    p_con.add_argument("--dump-dist", action="store_true",
                       help="print the distribution table instead of JSON")

    p_neg = sub.add_parser("negativity",
                           help="entanglement across the atom/photons cut")
    p_neg.set_defaults(run=_cmd_negativity)
    p_neg.add_argument("--theta", type=float, required=True,
                       help="superposition angle of the source state")
    p_neg.add_argument("--eta-c", type=float, default=1.0,
                       help="photon coupling efficiency")
    p_neg.add_argument("--n", type=int, default=2,
                       help="party count, atom included")
    p_neg.add_argument("--cut", type=int, default=0,
                       help="last party index on the left side of the cut")
    p_neg.add_argument("--out", default=None, metavar="FILE")

    return parser


# ---------------------------------------------------------------------------
# Scenario resolution


def _parse_args(argv: list) -> argparse.Namespace:
    """The flags, with the scenario keys of the config file they name.
    Argparse reads every run option and pin: a config's run keys and pins
    are parsed as their flags, ahead of the command line's, so a flag the
    command lacks is refused and a flag given on the command line beats its
    config key."""
    parser = build_parser()
    args = parser.parse_args(argv)
    scenario_keys = {}
    if getattr(args, "config", None) is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                options, pins, scenario_keys = parse_config(handle.read())
        except OSError as err:
            raise ValueError(f"cannot read config file: {err}") from None
        declared = options.pop("command", None)
        if declared is not None and declared != args.command:
            raise ValueError(
                f"config is for command {declared!r}, invoked as {args.command!r}")
        if ("bracket_lo" in options) != ("bracket_hi" in options):
            raise ValueError("config needs both bracket_lo and bracket_hi")
        flags = [f"--{key}={raw}" for key, raw in options.items()
                 if key not in ("bracket_lo", "bracket_hi")]
        if "bracket_lo" in options:
            flags += ["--bracket", options["bracket_lo"], options["bracket_hi"]]
        try:
            args = parser.parse_args([argv[0], *flags, *pins, *argv[1:]])
        except ValueError as err:
            raise ValueError(f"config run keys: {err}") from None
    args.scenario_keys = scenario_keys
    _check_run_options(args)
    return args


def _check_run_options(args) -> None:
    """Reject run options out of range and flags that do not go together,
    whether given by flag or config, before any scenario is built."""
    if hasattr(args, "starts") and args.starts < 1:
        raise ValueError("--starts must be at least 1")
    if hasattr(args, "grid") and args.grid < 2:
        raise ValueError("--grid must be at least 2")
    if hasattr(args, "atol") and not (math.isfinite(args.atol) and args.atol > 0.0):
        raise ValueError(f"--atol must be finite and greater than 0, got {args.atol!r}")
    if getattr(args, "dist_file", None) is not None:
        if args.preset or args.config or args.set or args.dump_spec or args.n is not None:
            raise ValueError("--dist-file replaces the scenario flags")
    elif hasattr(args, "preset"):  # a scenario command
        explicit = getattr(args, "inequality", None) is not None
        if hasattr(args, "inequality") and not explicit:
            if args.state == "vacuum":
                raise ValueError("--state vacuum needs an explicit --inequality scenario")
            if args.ideal or args.eta_z is not None or args.eta_x is not None:
                raise ValueError(
                    "--ideal, --eta-z and --eta-x need an explicit --inequality scenario")
        if getattr(args, "ideal", False) and (args.eta_z is not None or args.eta_x is not None):
            raise ValueError("--ideal does not combine with --eta-z or --eta-x")
        if getattr(args, "dump_dist", False) and args.dump_spec:
            raise ValueError("--dump-spec does not combine with --dump-dist")
        if getattr(args, "state", None) == "vacuum" and args.dump_spec:  # a spec holds no state
            raise ValueError("--dump-spec does not combine with --state vacuum")
        sources = (args.preset is not None) + bool(args.scenario_keys) + explicit
        if sources > 1:
            raise ValueError("give one scenario: a preset, config scenario keys, or --inequality")
        if not sources:
            raise ValueError("no scenario given: pass --preset, --config, or "
                             "(for bell) --inequality")


def _parse_set_flags(pairs) -> dict:
    sets = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"--set expects NAME=VALUE, got {pair!r}")
        sets[name.strip()] = _parse_float(raw.strip(), f"--set {name}")
    return sets


def _explicit_bell_scenario(args) -> ScenarioSpec:
    """Three parties, or as many as the criterion allows; --n resizes later."""
    n = min(3, CRITERIA[args.inequality].max_parties or 3)
    eta_z = 1.0 if args.eta_z is None else args.eta_z
    eta_x = 1.0 if args.eta_x is None else args.eta_x
    return ScenarioSpec("custom", n, args.inequality,
                        MeasSpec("spd", eta_z), MeasSpec("sym", eta_x), params={})


def _resolve_scenario(args) -> tuple:
    """The scenario to run, from the one source _check_run_options let
    through, and the preset it came from (or None)."""
    preset = PRESETS.get(args.preset)
    if preset is not None:
        spec = preset.spec
    elif args.scenario_keys:
        spec = _scenario_from_keys(args.scenario_keys)
    else:
        spec = _explicit_bell_scenario(args)
    if args.n is not None:
        spec = replace(spec, n_parties=args.n)
    for name, value in _parse_set_flags(args.set).items():
        spec = fix_parameter(spec, name, value)
    return spec, preset


def _run_target(args, spec, name, span, default, fallback=(0.0, 1.0)) -> tuple:
    """A bisected or gridded parameter and its range: each from its flag,
    else from the preset's ``default`` pair (its range for its own parameter
    only), else a free parameter's declared range, else ``fallback``. A pin
    on it would be overwritten by every point the command visits."""
    own, own_span = default or (None, None)
    name = name or own
    if name in _parse_set_flags(args.set):
        raise ValueError(f"cannot pin {name}: {args.command} varies it")
    declared = spec.params.get(name)
    if declared is not None and declared.is_free:
        fallback = (declared.lo, declared.hi)
    if span is None:
        span = own_span if name == own else fallback
    return name, None if span is None else tuple(span)


def _json_text(args, spec=None, **fields) -> str:
    """A command's JSON: its name, its scenario's when it has one, and ``fields``."""
    if spec is not None:
        fields.update(scenario=spec.name, criterion=spec.criterion, n_parties=spec.n_parties)
    return json.dumps({"command": args.command, **fields}, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _cmd_bell(args) -> str:
    spec, _ = _resolve_scenario(args)
    if CRITERIA[spec.criterion].lp:
        raise ValueError("LP criteria are served by the content command")
    # With no free parameter, as with --inequality, the one evaluation is
    # scenario_result's, on the vacuum when --state asks for it.
    params = (optimize_free_parameters(spec, n_starts=args.starts).params
              if free_parameters(spec) else resolve_values(spec))
    result = scenario_result(spec, params, vacuum=args.state == "vacuum")
    return _json_text(args, spec, state="atom-photon" if spec.atom else args.state,
                      margin=result.value - result.local_bound, params=params, **asdict(result))


def _cmd_threshold(args) -> str:
    spec, preset = _resolve_scenario(args)
    param, bracket = _run_target(args, spec, args.param, args.bracket,
                                 preset and preset.threshold)
    if param is None:
        raise ValueError("no parameter to bisect: pass --param")
    threshold = critical_efficiency(spec, param, bracket, atol=args.atol,
                                    n_starts=args.starts)
    at_threshold = optimize_free_parameters(fix_parameter(spec, param, threshold),
                                            n_starts=args.starts)
    return _json_text(
        args, spec,
        param=param,
        bracket=[bracket[0], bracket[1]],
        atol=args.atol,
        threshold=threshold,
        margin_at_threshold=at_threshold.margin,
        params_at_threshold=at_threshold.params)


def _cmd_region(args) -> str:
    spec, preset = _resolve_scenario(args)
    x_name, x_range = _run_target(args, spec, args.x_name, args.x_range,
                                  preset and preset.region_x, None)
    y_name, bracket = _run_target(args, spec, args.y_name, args.bracket,
                                  preset and preset.region_y)
    if x_name is None or y_name is None:
        raise ValueError("region needs --x and --y (preset has no defaults)")
    if x_range is None:
        raise ValueError("region needs --x-range for this parameter")
    for x in x_range:  # before np.linspace, which turns an infinite end into NaNs
        fix_parameter(spec, x_name, x)
    curve = region_boundary(
        spec, x_name, y_name,
        np.linspace(x_range[0], x_range[1], args.grid), bracket,
        atol=args.atol, n_starts=args.starts, jobs=args.jobs)
    return curve.to_csv()


def _cmd_content(args) -> str:
    if args.dist_file is not None:
        try:
            with open(args.dist_file, "r", encoding="utf-8") as handle:
                p = JointDistribution.from_text(handle.read())
        except OSError as err:
            raise ValueError(f"cannot read distribution file: {err}") from None
        if args.dump_dist:
            return p.to_text()
        r = nonlocal_content(p)
        return _json_text(args, source=args.dist_file, n_parties=p.n_parties,
                          n_outcomes=p.n_outcomes, local_weight=r.local_weight,
                          nonlocal_content=r.nonlocal_content)
    spec, _ = _resolve_scenario(args)
    if not CRITERIA[spec.criterion].lp:
        raise ValueError(f"content needs an LP criterion, not {spec.criterion!r}")
    # As in _cmd_bell: with no free parameter no search runs, and --dump-dist solves no LP.
    params = (optimize_free_parameters(spec, n_starts=args.starts).params
              if free_parameters(spec) else resolve_values(spec))
    if args.dump_dist:  # checked, as --dist-file and the LP check theirs
        p = scenario_distribution(spec, params)
        p.validate()
        return p.to_text()
    r = scenario_result(spec, params)
    return _json_text(args, spec, local_weight=r.local_weight,
                      nonlocal_content=r.nonlocal_content, params=params)


def _cmd_negativity(args) -> str:
    if not math.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta!r}")
    state = atom_photon_state(args.theta, args.eta_c, args.n - 1)
    return _json_text(args, n_parties=args.n, theta=args.theta, eta_c=args.eta_c,
                      cut=args.cut, negativity=negativity(state.rho, args.cut))


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def dispatch(argv) -> int:
    try:
        args = _parse_args(list(argv))
        # --dump-spec answers every scenario command before it runs.
        dump = getattr(args, "dump_spec", False)
        _emit(dump_scenario(_resolve_scenario(args)[0]) if dump else args.run(args), args.out)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except (BracketError, LPError) as err:
        print(f"wbell: numerical failure: {err}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, TypeError, OSError, MemoryError) as err:
        # str() of a KeyError quotes its message
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"wbell: error: {message}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
