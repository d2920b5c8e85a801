"""Command-line interface: presets, config files, output formats, exit codes."""

import ast
import difflib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib.metadata import EntryPoint
from itertools import product
from pathlib import Path

import pytest

import wbell
import wbell.cli as cli
import wbell.polytope as polytope
from wbell.cli import (PRESETS, _scenario_from_keys, build_parser, dispatch, dump_scenario,
                       parse_config)
from wbell.polytope import nonlocal_content
from wbell.search import CRITERIA, MeasSpec, ScenarioSpec, scenario_distribution

VALUE_ATOL = 1e-9
THRESHOLD_ATOL = 5e-4
GOLDEN_SPECS = Path(__file__).with_name("preset_specs.txt")
GOLDEN_OUTPUTS = Path(__file__).with_name("golden_outputs.txt")
README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    """Dispatch in process, capturing stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


def golden_blocks(path):
    """{header: text} of a golden file: each block starts with a line
    `== header`; lines starting with '#' before the first block are comments."""
    blocks, key = {}, None
    for line in path.read_text().splitlines(keepends=True):
        if key is None and line.startswith("#"):
            continue
        if line.startswith("== "):
            key = line[3:].rstrip("\n")
            blocks[key] = ""
        else:
            blocks[key] += line
    return blocks


def golden_preset_specs():
    """{(preset, n): expected --dump-spec text}, read from GOLDEN_SPECS."""
    specs = {}
    for header, text in golden_blocks(GOLDEN_SPECS).items():
        name, n = header.split()
        specs[name, int(n)] = text
    return specs


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, err
    return json.loads(out)


class TestBell:
    def test_ideal_cabello(self):
        d = run_json(["bell", "--inequality", "cabello", "--n", "3",
                      "--state", "w", "--ideal"])
        assert d["value"] == pytest.approx(0.25, abs=VALUE_ATOL)
        assert d["violated"] is True
        assert d["local_bound"] == 0.0
        assert d["n_parties"] == 3

    def test_vacuum_closed_form(self):
        d = run_json(["bell", "--inequality", "cabello", "--n", "3",
                      "--state", "vacuum"])
        assert d["value"] == pytest.approx(-0.75, abs=VALUE_ATOL)
        assert d["violated"] is False

    def test_preset_with_pinned_parameters(self):
        d = run_json(["bell", "--preset", "fig1", "--n", "3",
                      "--set", "eta_z=1", "--set", "eta_x=1"])
        assert d["value"] == pytest.approx(0.25, abs=VALUE_ATOL)
        assert d["state"] == "w"
        assert d["params"] == {"eta_x": 1.0, "eta_z": 1.0}

    def test_identical_invocations_identical_bytes(self):
        argv = ["bell", "--inequality", "cabello", "--n", "4", "--eta-z", "0.9"]
        assert run(argv) == run(argv)

    def test_lp_presets_are_rejected_here(self):
        code, _, err = run(["bell", "--preset", "fig5", "--n", "3"])
        assert code == 1 and "content command" in err

    def test_vacuum_needs_explicit_inequality(self):
        code, _, _ = run(["bell", "--preset", "fig1", "--state", "vacuum"])
        assert code == 1

    def test_device_flags_need_explicit_inequality(self, tmp_path):
        """--ideal, --eta-z and --eta-x describe the --inequality scenario's
        devices; with any other scenario source they are refused, not ignored."""
        path = tmp_path / "s.cfg"
        path.write_text(dump_scenario(PRESETS["fig2"].spec))
        for source in (["--preset", "fig1"], ["--config", str(path)]):
            for flags in (["--ideal"], ["--eta-z", "0.3"], ["--eta-x", "1"],
                          ["--ideal", "--eta-z", "0.3"]):
                argv = ["bell", *source, *flags, "--starts", "1"]
                code, out, err = run(argv)
                assert code == 1 and out == "", argv
                assert err.startswith("wbell: error:") and "--inequality" in err, argv
                assert len(err.splitlines()) == 1, argv
        # With --inequality an unset efficiency means a perfect device, as
        # --ideal does; --ideal with an efficiency is refused, not ignored.
        assert run(["bell", "--inequality", "cabello", "--eta-z", "1", "--eta-x", "1"]) == \
            run(["bell", "--inequality", "cabello"]) == \
            run(["bell", "--inequality", "cabello", "--ideal"])
        assert run(["bell", "--inequality", "cabello", "--ideal", "--eta-z", "0.3"]) == \
            (1, "", "wbell: error: --ideal does not combine with --eta-z or --eta-x\n")

    def test_inequality_is_its_own_scenario_source(self, tmp_path):
        """--inequality builds the spd/sym scenario on W or vacuum; it never
        relabels a preset's or a config's scenario."""
        path = tmp_path / "s.cfg"
        path.write_text(dump_scenario(PRESETS["fig2"].spec))
        for argv in (["bell", "--preset", "chsh-homodyne", "--inequality", "chsh",
                      "--set", "theta=-0.3", "--set", "a_polar_0=0",
                      "--set", "a_polar_1=1.5708", "--set", "phi_x=0"],
                     ["bell", "--preset", "fig1", "--inequality", "wwwzb", "--starts", "2"],
                     ["bell", "--config", str(path), "--inequality", "wwwzb"],
                     ["bell", "--config", str(path), "--inequality", "cabello",
                      "--state", "vacuum"]):
            code, out, err = run(argv)
            assert code == 1 and out == "", argv
            assert err.startswith("wbell: error:") and "--inequality" in err, argv
            assert len(err.splitlines()) == 1, argv
        # A config of run keys alone is no scenario source.
        path.write_text("starts = 2\n")
        d = run_json(["bell", "--config", str(path), "--inequality", "wwwzb", "--state", "vacuum"])
        assert (d["criterion"], d["state"], d["scenario"]) == ("wwwzb", "vacuum", "custom")
        assert d["value"] == pytest.approx(1.0, abs=VALUE_ATOL)

    def test_an_inequality_prints_what_its_dumped_config_prints(self, tmp_path):
        """--inequality is one scenario source among three: each golden
        --inequality block on the W state, run from its --dump-spec text as
        a config, prints the same bytes."""
        path = tmp_path / "s.cfg"
        headers = [h for h in golden_blocks(GOLDEN_OUTPUTS)
                   if h.startswith("bell --inequality") and "vacuum" not in h]
        assert len(headers) == 4
        for header in headers:
            code, text, err = run(header.split() + ["--dump-spec"])
            assert code == 0, err
            path.write_text(text)
            assert run(["bell", "--config", str(path)]) == run(header.split()), header
        # The vacuum swaps the state of the same evaluation, at the party cap too.
        d = run_json(["bell", "--inequality", "wwwzb", "--n", "1030", "--state", "vacuum"])
        assert d["state"] == "vacuum" and math.isfinite(d["value"])

    def test_no_free_parameter_is_one_evaluation(self, monkeypatch):
        """A scenario with no free parameter is evaluated once, on the state
        it prints: no search runs first, on the W state or any other."""
        import wbell.search as search

        calls, evaluate = [], search.scenario_result

        def counting(*args):
            calls.append(args)
            return evaluate(*args)

        for module in (cli, search):
            monkeypatch.setattr(module, "scenario_result", counting)
        for argv in (["bell", "--inequality", "wwwzb", "--n", "1030", "--state", "vacuum"],
                     ["bell", "--inequality", "cabello", "--n", "8", "--ideal"]):
            calls.clear()
            run_json(argv)
            assert len(calls) == 1, argv


class TestThreshold:
    def test_cabello_homodyne_matches_closed_form(self):
        d = run_json(["threshold", "--preset", "cabello-homodyne", "--n", "3"])
        assert d["threshold"] == pytest.approx(1.5 - 2.0 / math.pi,
                                               abs=THRESHOLD_ATOL)
        assert d["param"] == "eta_spd"
        assert abs(d["margin_at_threshold"]) < 0.01

    def test_rounding_noise_at_a_bracket_end_is_no_violation(self):
        # At eta_z = 0 the counter never clicks and the full-correlator
        # margin is zero up to rounding (2.2e-16); that end is not violated.
        d = run_json(["bell", "--preset", "fig2", "--set", "eta_z=0", "--starts", "4"])
        assert abs(d["margin"]) < 1e-9 and d["violated"] is False
        d = run_json(["threshold", "--preset", "fig2", "--bracket", "0", "1",
                      "--starts", "4", "--atol", "0.01"])
        assert 0.0 < d["threshold"] < 1.0

    def test_bracket_failure_exits_two(self):
        code, _, err = run(["threshold", "--preset", "cabello-ad",
                            "--bracket", "0.3", "0.5"])
        assert code == 2 and "numerical failure" in err

    def test_a_preset_bracket_goes_only_with_its_own_parameter(self):
        """fig2 bisects eta_z on (0.1, 1). Another free parameter gets its
        declared range, as eta_x (0.5, 1); a fixed one gets (0, 1)."""
        for preset, param, bracket in (("fig2", "eta_z", "[0.1, 1]"),
                                       ("fig3", "eta_c", "[0, 1]")):
            code, out, err = run(["threshold", "--preset", preset, "--param", param,
                                  "--starts", "1", "--atol", "0.1"])
            assert code == 2 and out == "", (param, err)
            assert f"whole bracket {bracket} of '{param}'" in err, (param, err)
        code, out, err = run(["threshold", "--preset", "fig2", "--param", "eta_x",
                              "--starts", "2", "--atol", "0.1"])
        assert code == 0, err
        assert json.loads(out)["bracket"] == [0.5, 1.0]

    def test_a_flag_range_stays_within_a_free_parameter_declared_range(self):
        """An explicit range that leaves a free parameter's declared range is
        refused before any evaluation, with the message of a bad --set."""
        cases = [(["threshold", "--preset", "fig2", "--param", "eta_x",
                   "--bracket", "0", "1"], "eta_x = 0"),
                 (["region", "--preset", "fig4-homodyne", "--x", "theta", "--y", "eta_spd",
                   "--x-range", "-2", "-1", "--grid", "2"], "theta = -2"),
                 (["region", "--preset", "fig1", "--x-range", "0.5", "1",
                   "--bracket", "0.4", "1", "--grid", "2"], "eta_x = 0.4")]
        for argv, pin in cases:
            code, out, err = run(argv)
            assert code == 1 and out == "" and len(err.splitlines()) == 1, argv
            assert err.startswith(f"wbell: error: {pin} lies outside its declared range ["), err

    def test_a_negative_bound_reads_in_exponent_notation(self, tmp_path):
        """-1e-3 is a number, as -0.001 is, and not a flag, in a config too."""
        config = tmp_path / "bracket.cfg"
        for argv in (["threshold", "--preset", "cabello-ad", "--bracket", "{}", "1"],
                     ["region", "--preset", "fig1", "--x-range", "{}", "1", "--grid", "2"],
                     ["threshold", "--config", str(config)]):
            outcomes = []
            for bound in ("-0.001", "-1e-3"):
                config.write_text(f"preset = cabello-ad\nbracket_lo = {bound}\nbracket_hi = 1\n")
                outcomes.append(run([a.format(bound) for a in argv]))
            plain, exponent = outcomes
            assert exponent == plain, argv
            assert plain[0] == 1 and len(plain[2].splitlines()) == 1, plain
            assert plain[2].startswith("wbell: error: efficiency"), plain

    def test_a_pin_on_the_run_target_is_refused_before_evaluating(self, monkeypatch):
        """Every point a bisection visits pins its parameter anew, so a --set
        or config pin on it would be dropped: it is refused with one line
        before any margin is evaluated. A parameter the preset itself fixes
        stays bisectable."""
        import wbell.search as search

        calls, margin = [], search.violation_margin

        def counting_margin(*args):
            calls.append(args)
            return margin(*args)

        monkeypatch.setattr(search, "violation_margin", counting_margin)
        for argv, pin, threshold in (
                (["threshold", "--preset", "fig2", "--param", "eta_x", "--atol", "0.05"],
                 "eta_x=0.7", 0.859375),
                (["threshold", "--preset", "fig1", "--atol", "0.01"], "eta_z=0.3", 0.50390625)):
            argv += ["--starts", "2"]
            calls.clear()
            name = pin.split("=")[0]
            assert run(argv + ["--set", pin]) == (
                1, "", f"wbell: error: cannot pin {name}: threshold varies it\n"), argv
            assert calls == [], argv
            assert run_json(argv)["threshold"] == threshold, argv
        assert run_json(["threshold", "--preset", "chsh-homodyne", "--starts", "2",
                         "--atol", "0.1"])["param"] == "eta_spd"

    def test_unknown_bisection_parameter(self):
        code, _, _ = run(["threshold", "--preset", "cabello-ad",
                          "--param", "bogus"])
        assert code == 1


class TestRegion:
    BASE = ["region", "--preset", "fig1", "--n", "3",
            "--x-range", "0.95", "1.0", "--grid", "2"]

    def test_small_fig1_scan(self):
        code, out, err = run(self.BASE)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "eta_z,eta_x,status"
        assert len(lines) == 3
        x, y, status = lines[2].split(",")
        assert status == "ok"
        assert float(x) == 1.0
        assert float(y) == pytest.approx(0.8535, abs=1e-3)

    def test_jobs_do_not_change_bytes(self):
        _, base, _ = run(self.BASE)
        _, parallel, _ = run(self.BASE + ["--jobs", "2"])
        assert parallel == base

    def test_jobs_do_not_change_lp_rows(self):
        """Each LP row's bisection reuses only its own optimal faces, so a
        row is the same in a worker as after other rows in one process."""
        argv = ["region", "--preset", "garbarino3", "--n", "3", "--grid", "3"]
        code, base, err = run(argv + ["--jobs", "1"])
        assert code == 0, err
        assert run(argv + ["--jobs", "2"]) == (0, base, "")

    def test_jobs_env_is_not_read(self, monkeypatch):
        """--jobs and the config run key jobs set the worker count, 1 by
        default; the environment has no say, not even a bad value."""
        base = run(self.BASE)
        for raw in ("2", "abc"):
            monkeypatch.setenv("WBELL_JOBS", raw)
            assert run(self.BASE) == base and base[0] == 0, raw

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(self.BASE + ["--out", str(target)])
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "eta_z,eta_x,status"


class TestContent:
    IDEAL = ["content", "--preset", "fig5", "--n", "3",
             "--set", "eta_z=1", "--set", "eta_x=1"]

    def test_ideal_w3_content_is_one_half(self):
        d = run_json(self.IDEAL)
        assert d["nonlocal_content"] == pytest.approx(0.5, abs=1e-6)
        assert d["local_weight"] + d["nonlocal_content"] == pytest.approx(1.0)

    def test_a_scenario_with_no_free_parameter_solves_one_lp(self, monkeypatch):
        """No search runs first: the content is one LP, and the table of
        --dump-dist needs none."""
        calls, solve = [], polytope.solve_lp

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(polytope, "solve_lp", counting)
        garbarino3 = ["content", "--preset", "garbarino3", "--n", "3",
                      "--set", "eta_z=0.9", "--set", "eta_x=0.5"]
        for argv, solves in ((self.IDEAL, 1), (garbarino3, 1),
                             (self.IDEAL + ["--dump-dist"], 0),
                             (garbarino3 + ["--dump-dist"], 0)):
            calls.clear()
            code, _, err = run(argv)
            assert code == 0, err
            assert len(calls) == solves, argv

    def test_dist_file_round_trip(self, tmp_path):
        code, text, _ = run(self.IDEAL + ["--dump-dist"])
        assert code == 0
        path = tmp_path / "w3.dist"
        path.write_text(text)
        d = run_json(["content", "--dist-file", str(path)])
        ref = run_json(self.IDEAL)
        assert d["nonlocal_content"] == pytest.approx(
            ref["nonlocal_content"], abs=1e-12)
        assert d["n_parties"] == 3 and d["n_outcomes"] == 2

    def test_dist_file_excludes_scenario_flags(self, tmp_path):
        path = tmp_path / "w3.dist"
        path.write_text(run(self.IDEAL + ["--dump-dist"])[1])
        code, _, _ = run(["content", "--dist-file", str(path),
                          "--preset", "fig5"])
        assert code == 1

    def test_dist_file_refuses_size_tolerance_and_spec_flags(self, tmp_path):
        """A table fixes its own size, and it is no scenario to dump: --n
        and --dump-spec are refused, not ignored."""
        path = tmp_path / "w3.dist"
        path.write_text(run(self.IDEAL + ["--dump-dist"])[1])
        for flags in (["--n", "7"], ["--dump-spec"]):
            code, out, err = run(["content", "--dist-file", str(path), *flags])
            assert code == 1 and out == "", flags
            assert err == "wbell: error: --dist-file replaces the scenario flags\n", flags

    def test_a_one_outcome_dist_file_is_refused_before_the_lp(self, tmp_path, monkeypatch):
        """A table whose outcome digits are all 0 has one outcome, for which
        no LP exists and no party cap applies: refused before any orbit
        matrix or LP is built, whatever its size."""
        def refuse(*args, **kwargs):
            raise AssertionError("an LP was built")

        for name in ("_orbit_matrix", "solve_lp"):
            monkeypatch.setattr(polytope, name, refuse)
        path = tmp_path / "one-outcome.dist"
        path.write_text("".join(f"{''.join(s)} {'0' * 9} 1\n" for s in product("01", repeat=9)))
        code, out, err = run(["content", "--dist-file", str(path)])
        assert code == 1 and out == ""
        assert err == "wbell: error: content is implemented for 2 or 3 outcomes\n"

    def test_a_dist_file_with_a_repeated_pair_is_refused(self, tmp_path):
        path = tmp_path / "repeated.dist"
        path.write_text("0 0 0.9\n0 1 0.5\n1 0 0.5\n1 1 0.5\n0 0 0.5\n")
        code, out, err = run(["content", "--dist-file", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("wbell: error:") and len(err.splitlines()) == 1, err
        assert "0 0" in err

    @pytest.mark.parametrize("line, message", [
        ("0 a 0.5", "outcome digits must be 0 to 9"),
        ("0 -1 0", "outcome digits must be 0 to 9"),
        ("0 0 x", "probability must be a number"),
    ])
    def test_a_dist_file_parse_error_quotes_its_line(self, tmp_path, line, message):
        path = tmp_path / "bad.dist"
        path.write_text(f"1 1 0.5\n{line}\n")
        assert run(["content", "--dist-file", str(path)]) == \
            (1, "", f"wbell: error: {message}: {line!r}\n")

    def test_matches_library_call(self):
        d = run_json(self.IDEAL)
        spec = PRESETS["fig5"].build(3)
        values = {"eta_z": 1.0, "eta_x": 1.0}
        r = nonlocal_content(scenario_distribution(spec, values))
        assert d["nonlocal_content"] == r.nonlocal_content


class TestNegativity:
    def test_atom_photon_negativity(self):
        d = run_json(["negativity", "--theta", "-0.7252", "--eta-c", "1",
                      "--n", "3"])
        assert d["negativity"] == pytest.approx(
            abs(math.sin(2.0 * 0.7252)), abs=VALUE_ATOL)

    def test_range_checks(self):
        assert run(["negativity", "--theta", "-0.5", "--eta-c", "1.5"])[0] == 1
        assert run(["negativity", "--theta", "-0.5", "--n", "3",
                    "--cut", "5"])[0] == 1
        # atom_photon_state is the one check of the coupling and the size.
        for argv in (["--eta-c", "nan"], ["--eta-c", "-0.1"], ["--n", "1"], ["--n", "0"]):
            code, out, err = run(["negativity", "--theta", "-0.5", *argv])
            assert code == 1 and out == "", argv
            assert err.startswith("wbell: error:") and len(err.splitlines()) == 1

    def test_non_finite_theta_is_named(self):
        for theta in ("nan", "inf", "-inf"):
            code, out, err = run(["negativity", f"--theta={theta}"])
            assert code == 1 and out == "", theta
            assert err.startswith("wbell: error: --theta must be finite"), (theta, err)
            assert len(err.splitlines()) == 1, theta


class TestConfigFiles:
    def test_dump_spec_round_trip(self, tmp_path):
        """Every preset at both sizes of the golden specs reads back from its
        dumped config as the same scenario."""
        path = tmp_path / "spec.cfg"
        for (name, n), text in golden_preset_specs().items():
            path.write_text(text)
            code, again, err = run(["threshold", "--config", str(path), "--dump-spec"])
            assert code == 0 and again == text, (name, n, err)

    def test_parsed_config_equals_preset(self):
        for (name, n), text in golden_preset_specs().items():
            spec = PRESETS[name].build(n)
            assert dump_scenario(spec) == text, (name, n)
            assert _scenario_from_keys(parse_config(text)[2]) == spec, (name, n)

    def test_config_pins_are_set_flags(self, tmp_path):
        """A config's set. pins give the bytes of the same --set flags, each
        value read exactly, and a pin on the command line beats its config key."""
        path = tmp_path / "pins.cfg"
        for argv, pins in (
                (["bell", "--preset", "fig4-homodyne", "--dump-spec"],
                 {"eta_c": "0.65", "theta": "-0.7000000000000001", "phi_x": "1e-300"}),
                (["threshold", "--preset", "fig2", "--starts", "2", "--atol", "0.05"],
                 {"eta_x": "0.95"})):
            flags = [f"--set={name}={value}" for name, value in pins.items()]
            expected = run(argv + flags)
            assert expected[0] == 0, expected
            path.write_text("".join(f"set.{name} = {value}\n" for name, value in pins.items()))
            assert run(argv + ["--config", str(path)]) == expected, argv
        # On the threshold run, a pin on the command line beats the config's.
        beaten = run(argv + ["--config", str(path), "--set", "eta_x=1"])
        assert beaten == run(argv + ["--set", "eta_x=1"]) and beaten[0] == 0
        assert beaten[1] != expected[1]

    def test_comments_and_blank_lines(self):
        options, _, _ = parse_config("# a comment\n\nn = 4  # trailing\n")
        assert options == {"n": "4"}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus_key = 1\n")
        code, _, err = run(["threshold", "--config", str(path)])
        assert code == 1 and "unknown key" in err

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 3\nn = 4\n")
        code, _, err = run(["threshold", "--config", str(path)])
        assert code == 1 and "duplicate" in err

    def test_command_mismatch(self, tmp_path):
        path = tmp_path / "bell.cfg"
        path.write_text("command = bell\npreset = fig1\n")
        code, _, err = run(["threshold", "--config", str(path)])
        assert code == 1 and "invoked as" in err

    def test_missing_file(self):
        code, _, err = run(["threshold", "--config", "/nonexistent.cfg"])
        assert code == 1 and "cannot read" in err

    def test_run_keys_are_flag_defaults(self, tmp_path):
        expected = run(["bell", "--preset", "fig1", "--dump-spec"])[1]
        target, other = tmp_path / "spec.cfg", tmp_path / "other.cfg"
        path = tmp_path / "run.cfg"
        path.write_text(f"preset = fig1\nout = {target}\n")
        code, out, _ = run(["bell", "--config", str(path), "--dump-spec"])
        assert code == 0 and out == ""
        assert target.read_text() == expected
        code, _, _ = run(["bell", "--config", str(path), "--dump-spec",
                          "--out", str(other)])
        assert code == 0 and other.read_text() == expected
        path.write_text("preset = cabello-ad\nbracket_lo = 0.5\n")
        code, _, err = run(["threshold", "--config", str(path)])
        assert code == 1 and "bracket_hi" in err
        # A flag on the command line beats its config key, a bad one included.
        path.write_text("preset = fig1\nn = 4\nstarts = 0\n")
        assert run(["threshold", "--config", str(path), "--dump-spec"])[0] == 1
        code, out, err = run(["threshold", "--config", str(path), "--n", "5",
                              "--starts", "2", "--dump-spec"])
        assert code == 0 and "scenario.n_parties = 5\n" in out, err

    def test_omitted_optional_keys_take_the_field_defaults(self):
        """scenario.atom, scenario.lp_tol and <device>.flip default to what
        ScenarioSpec and MeasSpec default to."""
        text = ("scenario.name = t\nscenario.n_parties = 3\nscenario.criterion = cabello\n"
                "photon_z.family = spd\nphoton_z.eff = 0.9\n"
                "photon_x.family = sym\nphoton_x.eff = 0.8\n")
        assert _scenario_from_keys(parse_config(text)[2]) == ScenarioSpec(
            "t", 3, "cabello", MeasSpec("spd", 0.9), MeasSpec("sym", 0.8))

    def test_lp_tol_must_be_finite_and_non_negative(self, tmp_path):
        text = run(["content", "--preset", "fig5", "--n", "3", "--dump-spec"])[1]
        assert "scenario.lp_tol = 1e-08\n" in text
        path = tmp_path / "lp_tol.cfg"
        for lp_tol in ("nan", "-1", "inf", "-inf", "-1e-300"):
            path.write_text(text.replace("scenario.lp_tol = 1e-08",
                                         f"scenario.lp_tol = {lp_tol}"))
            for command in ("content", "threshold"):
                code, out, err = run([command, "--config", str(path)])
                assert code == 1 and out == "" and "lp_tol" in err, (command, lp_tol)
                assert len(err.splitlines()) == 1
        path.write_text(text.replace("scenario.lp_tol = 1e-08", "scenario.lp_tol = 0"))
        assert run(["content", "--config", str(path), "--dump-spec"])[0] == 0

    def test_the_config_key_is_the_way_to_set_lp_tol(self, tmp_path):
        """scenario.lp_tol sets the content a verdict needs: at 0.05 the fig5
        N=3 threshold in eta_z, with eta_x pinned to 1, moves from just above
        1/2 to just above 0.55."""
        text = run(["threshold", "--preset", "fig5", "--n", "3", "--dump-spec"])[1]
        path = tmp_path / "fig5.cfg"
        thresholds = []
        for lp_tol in ("1e-08", "0.05"):
            path.write_text(text.replace("scenario.lp_tol = 1e-08", f"scenario.lp_tol = {lp_tol}")
                            + "set.eta_x = 1\n")
            thresholds.append(run_json(["threshold", "--config", str(path),
                                        "--param", "eta_z", "--atol", "0.001"])["threshold"])
        assert thresholds == [0.50048828125, 0.55029296875]


@pytest.mark.parametrize("argv, config", [
    (["threshold", "--preset", "fig1", "--n", "x"], None),
    (["threshold", "--preset", "nope"], None),
    (["threshold", "--preset", "fig1", "--starts"], None),
    (["threshold", "--preset", "fig1", "--bogus", "1"], None),
    ([], None),
    (["threshold"], "preset = fig1\nn = x\n"),
    (["threshold"], "preset = fig1\ngrid = 3\n"),
    (["content", "--preset", "fig5", "--n", "3", "--lp-tol", "0.1"], None),
], ids=["bad-int", "bad-choice", "missing-value", "unknown-flag", "no-command",
        "bad-run-key-value", "run-key-without-flag", "lp-tol-flag"])
def test_bad_run_options_give_one_line(tmp_path, argv, config):
    """Argparse reads every run option, flag or config run key, and a bad one
    exits 1 with one error line and no usage text."""
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.startswith("wbell: error:") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("argv, config", [
    (["threshold", "--preset", "cabello-ad", "--param", "bogus"], None),
    (["region", "--preset", "fig1", "--x", "bogus", "--x-range", "0", "1", "--grid", "2"], None),
    (["region", "--preset", "fig1", "--y", "bogus"], None),
    (["bell", "--preset", "fig1", "--set", "bogus=1"], None),
    (["bell"], "preset = fig1\nset.bogus = 1\n"),
], ids=["threshold-param", "region-x", "region-y", "set-flag", "config-pin"])
def test_an_unknown_parameter_reads_the_same_everywhere(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "pin.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert run(argv) == (1, "", "wbell: error: scenario has no parameter 'bogus'\n")


@pytest.mark.parametrize("argv, config, pin", [
    (["bell", "--preset", "fig1", "--set", "eta_z=nan"], None, "eta_z = nan"),
    (["bell", "--preset", "fig1", "--set", "eta_z=inf"], None, "eta_z = inf"),
    (["bell", "--preset", "fig4-homodyne", "--set", "eta_c=nan"], None, "eta_c = nan"),
    (["bell"], "preset = fig1\nset.eta_z = nan\n", "eta_z = nan"),
    (["threshold", "--preset", "fig1", "--bracket", "nan", "1"], None, "eta_z = nan"),
    (["region", "--preset", "fig1", "--x-range", "nan", "1", "--grid", "2"], None, "eta_z = nan"),
    (["region", "--preset", "fig1", "--x-range", "inf", "1", "--grid", "2"], None, "eta_z = inf"),
], ids=["set-nan", "set-inf", "set-fixed-nan", "config-pin", "bracket-end", "x-range-nan",
        "x-range-inf"])
def test_a_non_finite_pin_names_its_parameter(tmp_path, argv, config, pin):
    """Every pin path refuses NaN and inf with one line naming the parameter;
    an infinite grid end is refused before numpy's linspace warns."""
    if config is not None:
        path = tmp_path / "pin.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert run(argv) == (1, "", f"wbell: error: {pin} is not a finite number\n")


_FIG1 = dump_scenario(PRESETS["fig1"].spec)
_FIG3 = dump_scenario(PRESETS["fig3"].spec)


@pytest.mark.parametrize("argv, text, message", [
    (["bell", "--preset", "fig1", "--set", "eta_z=abc"], None, "--set eta_z expects a number"),
    (["bell", "--config", "{file}"], "preset = fig1\nset.eta_z = abc\n",
     "set.eta_z expects a number"),
    (["bell", "--config", "{file}"], _FIG1.replace("atom = false", "atom = yes"),
     "scenario.atom expects true or false"),
    (["bell", "--config", "{file}"], "preset = fig1\nstarts 2\n",
     "config line 2: expected key = value"),
    (["bell", "--config", "{file}"], "scenario.name = t\n", "config scenario is missing keys"),
    (["bell", "--config", "{file}"], _FIG1.replace("0.5 1.0 free", "0.5 1.0"),
     "param.eta_x expects 'lo hi value'"),
    (["bell", "--config", "{file}"], _FIG1.replace("0.5 1.0 free", "1.0 0.5 free"),
     "param.eta_x: parameter bounds are reversed"),
    (["bell", "--config", "{file}"], _FIG1.replace("n_parties = 3", "n_parties = three"),
     "scenario.n_parties expects an integer"),
    (["region", "--preset", "fig1", "--grid", "1"], None, "--grid must be at least 2"),
    (["region", "--preset", "fig1", "--jobs", "0"], None, "worker count must be at least 1"),
    (["region", "--preset", "fig1", "--x", "eta_z", "--y", "eta_z", "--grid", "2",
      "--starts", "1"], None, "the grid and the bisection both vary 'eta_z'"),
    (["bell", "--inequality", "cabello", "--n", "3", "--ideal", "--eta-z", "0.5"], None,
     "--ideal does not combine with --eta-z or --eta-x"),
    (["bell", "--inequality", "chsh", "--ideal", "--eta-x", "0.9"], None,
     "--ideal does not combine with --eta-z or --eta-x"),
    (["content", "--preset", "fig5", "--dump-spec", "--dump-dist"], None,
     "--dump-spec does not combine with --dump-dist"),
    (["threshold"], None, "no scenario given"),
    (["threshold", "--config", "{file}"], _FIG1, "no parameter to bisect"),
    (["region", "--config", "{file}"], _FIG1, "region needs --x and --y"),
    (["region", "--preset", "fig4-homodyne", "--x", "eta_atom", "--y", "eta_spd"], None,
     "region needs --x-range"),
    (["content", "--preset", "fig1"], None, "content needs an LP criterion"),
    (["threshold", "--preset", "fig2", "--set", "eta_x=0.7", "--param", "eta_x"], None,
     "cannot pin eta_x: threshold varies it"),
    (["region", "--preset", "fig1", "--set", "eta_z=0.9"], None,
     "cannot pin eta_z: region varies it"),
    (["region", "--preset", "fig1", "--set", "eta_x=0.9"], None,
     "cannot pin eta_x: region varies it"),
    (["threshold", "--config", "{file}"], "preset = fig1\nset.eta_z = 0.3\n",
     "cannot pin eta_z: threshold varies it"),
    (["bell", "--config", "{file}"], _FIG3.replace("n_parties = 2", "n_parties = 1"),
     "an atom scenario needs at least one photon party"),
    (["content", "--config", "{file}"],
     _FIG3.replace("wwwzb", "lp3").replace("spd", "lossy3_z", 1).replace("homodyne", "lossy3_x"),
     "atom scenarios use two-outcome photon devices"),
    (["content", "--dist-file", "/nonexistent.dist"], None, "cannot read distribution file"),
    (["content", "--dist-file", "{file}"], "0 0 0.5\n0 1 0.5\n1 0 1\n",
     "does not list every (settings, outcomes) pair"),
    (["content", "--dist-file", "{file}"], "0 0 0.5\n0 1 0.4\n1 0 0.5\n1 1 0.5\n",
     "a settings block is not normalized"),
    (["content", "--dist-file", "{file}"], "0 0 0.5\n0 1 0.5\n1 0 0.5\n1 11 0.5\n",
     "inconsistent string lengths"),
], ids=["set-flag-number", "config-pin-number", "config-bool", "config-no-equals",
        "config-missing-keys", "config-param-tokens", "config-param-bounds",
        "config-party-count", "region-grid", "region-jobs", "region-one-axis",
        "ideal-eta-z", "ideal-eta-x", "dump-spec-and-dist", "no-scenario",
        "threshold-no-param", "region-no-axes", "region-no-x-range", "content-closed-form",
        "threshold-param-pinned", "region-x-pinned", "region-y-pinned", "config-pin-run-target",
        "atom-one-party", "atom-three-outcomes", "dist-file-missing", "dist-missing-pair",
        "dist-unnormalized", "dist-outcome-length"])
def test_an_input_error_is_one_line(tmp_path, argv, text, message):
    """Each input error exits 1 with no stdout and one line naming it.
    ``text``, a config or a table, is the file that {file} names."""
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    code, out, err = run(argv)
    assert (code, out) == (1, ""), err
    assert err.startswith("wbell: error: ") and len(err.splitlines()) == 1, err
    assert message in err, err


def test_dump_and_help_print_and_exit_zero(tmp_path):
    """--dump-spec on region, --help, and --dump-dist on a dist file, which
    prints the file's table back byte for byte."""
    assert run(["region", "--preset", "fig1", "--dump-spec"]) == (0, _FIG1, "")
    code, out, err = run(["--help"])
    assert (code, err) == (0, "") and out.startswith("usage: wbell")
    code, table, err = run(["content", "--preset", "garbarino3", "--n", "3",
                            "--set", "eta_z=0.9", "--set", "eta_x=0.8", "--dump-dist"])
    assert code == 0, err
    path = tmp_path / "garbarino3.dist"
    path.write_text(table)
    assert run(["content", "--dist-file", str(path), "--dump-dist"]) == (0, table, "")


def test_readme_command_line_section_names_every_flag():
    """The README's "Command line" section names every flag of every
    subcommand, --help aside, and no flag the parser lacks. The parser reads
    no environment variable, so the section names no WBELL_ one."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {o for parser in sub.choices.values() for a in parser._actions
             for o in a.option_strings if o.startswith("--")} - {"--help"}
    named = set(re.findall(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?", section)) - {"--help"}
    assert sorted(flags - named) == [], "flags the section never names"
    assert sorted(named - flags) == [], "flags the parser does not read"
    assert re.findall(r"WBELL_\w*", section) == []


def test_readme_config_paragraph_names_every_run_key():
    """The README's sentence on a config's run keys names every key of
    cli._RUN_KEYS and no other, as the flag test does for flags."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    sentence = section.split("may hold run keys:", 1)[1].split(".", 1)[0]
    assert sorted(set(re.findall(r"`([a-z_]+)`", sentence))) == sorted(cli._RUN_KEYS)


def test_no_module_of_the_package_reads_the_environment():
    """Flags and config files are wbell's only inputs: no module names
    os.environ or getenv, by attribute, by name or by import."""
    banned = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(wbell.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert sorted(names & banned) == [], path.name


class TestFlagValidation:
    def test_set_needs_name_value(self):
        assert run(["bell", "--preset", "fig1", "--set", "eta_z"])[0] == 1

    def test_set_unknown_parameter(self):
        assert run(["bell", "--preset", "fig1", "--set", "bogus=1"])[0] == 1

    def test_set_efficiency_out_of_range(self, tmp_path):
        assert run(["bell", "--preset", "fig1", "--set", "eta_z=1.4"])[0] == 1
        # A pin on a free parameter must lie within its declared range.
        for pin in ("theta=1.3", "a_polar_0=99", "phi_x=-0.1"):
            code, _, err = run(["bell", "--preset", "fig4-homodyne", "--set", pin,
                                "--dump-spec"])
            assert code == 1 and "declared range" in err, pin
        assert run(["bell", "--preset", "fig1", "--set", "eta_x=0.4",
                    "--dump-spec"])[0] == 1
        path = tmp_path / "pins.cfg"
        path.write_text("preset = fig4-homodyne\nset.theta = 1.3\n")
        assert run(["bell", "--config", str(path), "--dump-spec"])[0] == 1
        # A pin on a fixed parameter is checked as an efficiency only.
        assert run(["bell", "--preset", "fig4-homodyne", "--set", "eta_c=0.65",
                    "--dump-spec"])[0] == 0
        assert run(["bell", "--preset", "fig4-homodyne", "--set", "eta_c=1.2",
                    "--dump-spec"])[0] == 1

    def test_starts_must_be_positive(self):
        assert run(["threshold", "--preset", "cabello-homodyne",
                    "--starts", "0"])[0] == 1

    def test_atol_must_be_finite_and_positive(self, tmp_path):
        # Once the bracket ends are adjacent floats, atol <= 0 never stops
        # the bisection; a NaN atol stops it at once at the midpoint.
        path = tmp_path / "atol.cfg"
        for atol in ("0", "-1", "nan", "inf"):
            for argv in (["threshold", "--preset", "cabello-ad", "--n", "3"],
                         ["region", "--preset", "fig1", "--grid", "2"]):
                code, out, err = run(argv + ["--atol", atol])
                assert code == 1 and out == "" and "--atol" in err, (argv, atol)
                assert len(err.splitlines()) == 1
            path.write_text(f"preset = cabello-ad\natol = {atol}\n")
            code, _, err = run(["threshold", "--config", str(path)])
            assert code == 1 and "--atol" in err, atol

    def test_efficiency_ranges_by_device_role(self, tmp_path):
        for flag in ("--eta-z", "--eta-x"):
            for value in ("1.5", "-0.1", "nan"):
                code, out, err = run(["bell", "--inequality", "cabello", flag, value])
                assert code == 1 and out == "" and "efficiency" in err, (flag, value)
                assert err.startswith("wbell: error:") and len(err.splitlines()) == 1
        # A parameter read as an efficiency is rejected at load, whatever its
        # name; an eta-named one that no device reads so is not range-checked.
        code, text, _ = run(["bell", "--preset", "cabello-homodyne", "--dump-spec"])
        path = tmp_path / "gain.cfg"
        path.write_text(text.replace("eta_spd", "gain").replace(
            "param.gain = 0.0 1.0 free", "param.gain = 0.0 2.0 free"))
        code, out, err = run(["threshold", "--config", str(path), "--dump-spec"])
        assert code == 1 and "efficiency 'gain'" in err
        assert len(err.splitlines()) == 1
        path.write_text(text.replace("photon_x.aux = 0.0", "photon_x.aux = @eta_phase")
                        + "param.eta_phase = 0.0 6.0 free\n")
        assert run(["threshold", "--config", str(path), "--dump-spec"])[0] == 0

    def test_non_finite_literal_aux_is_rejected_at_load(self, tmp_path):
        path = tmp_path / "aux.cfg"
        for value in ("nan", "inf", "-inf"):
            path.write_text("scenario.name = t\nscenario.n_parties = 3\n"
                            "scenario.criterion = cabello\n"
                            "photon_z.family = spd\nphoton_z.eff = 0.9\n"
                            "photon_x.family = sym\nphoton_x.eff = 0.9\n"
                            f"photon_x.aux = {value}\n")
            code, out, err = run(["bell", "--config", str(path)])
            assert code == 1 and out == "" and "photon_x.aux" in err, value
            assert err.startswith("wbell: error:") and len(err.splitlines()) == 1

    def test_overflowing_device_is_rejected(self, tmp_path):
        """A huge displacement makes the device's elements NaN; the finite
        check on the criterion value rejects it, with or without a search,
        on the dense table and on the correlator contraction alike, in one
        line and with no numpy warning."""
        path = tmp_path / "alpha.cfg"
        for family in ("displaced", "displaced_response"):
            for criterion in ("cabello", "wwwzb"):
                base = (f"scenario.name = t\nscenario.n_parties = 3\n"
                        f"scenario.criterion = {criterion}\n"
                        "photon_z.family = spd\nphoton_z.eff = 0.9\n"
                        f"photon_x.family = {family}\nphoton_x.eff = 0.9\n")
                # With no free parameter, bell --config makes one evaluation.
                for aux in ("@alpha\nparam.alpha = 0 1e200 free", "1e200", "-1e160"):
                    path.write_text(base + f"photon_x.aux = {aux}\n")
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        code, out, err = run(["bell", "--config", str(path), "--starts", "2"])
                    case = (family, criterion, aux)
                    assert code == 1 and out == "" and caught == [], case
                    assert err.startswith("wbell: error:") and "not finite" in err, case
                    assert len(err.splitlines()) == 1, case

    def test_out_of_range_grid_or_bracket_end_evaluates_nothing(self, monkeypatch):
        import wbell.search as search

        calls, margin = [], search.violation_margin

        def counting_margin(*args):
            calls.append(args)
            return margin(*args)

        monkeypatch.setattr(search, "violation_margin", counting_margin)
        for argv in (["region", "--preset", "fig1", "--x-range", "0.9", "1.1",
                      "--grid", "3", "--starts", "4", "--jobs", "1"],
                     ["region", "--preset", "fig1", "--x-range", "0.9", "1.0",
                      "--grid", "2", "--bracket", "0.5", "1.5", "--jobs", "1"],
                     ["threshold", "--preset", "fig1", "--bracket", "0.5", "1.5"],
                     ["threshold", "--preset", "fig1", "--bracket", "-0.5", "1.0"]):
            code, out, err = run(argv)
            assert code == 1 and out == "" and "efficiency" in err, argv
            assert len(err.splitlines()) == 1 and calls == [], argv

    def test_memory_error_is_one_line(self):
        """numpy refuses the 16 TiB density matrix of N = 40 at once. No
        content or --dump-dist run gets that far: the LP criteria cap N at 5
        before any table is built."""
        proc = capped_run(["negativity", "--theta", "0.3", "--n", "40"])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("wbell: error:"), proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_closed_forms_run_at_forty_parties(self):
        """The closed forms read the transfers of identical photons, so no
        2^N array is built and N = 40 runs in the address-space cap."""
        for state, expected in (("w", 1.0 - 40 / 2.0 ** 39),
                                ("vacuum", 1.0 - 390.0 - 2.0 ** -39)):
            proc = capped_run(["bell", "--inequality", "cabello", "--n", "40", "--ideal",
                               "--state", state])
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["value"] == pytest.approx(expected, abs=1e-12), state
        proc = capped_run(["bell", "--preset", "fig2", "--n", "40", "--starts", "1"])
        assert proc.returncode == 0, proc.stderr

    def test_wwwzb_beyond_float_multiplicities_fails_before_evaluating(self, monkeypatch):
        """wwwzb weighs its terms by C(N - 1, w), a float only up to
        N - 1 = 1029, so a larger N is refused with one line before any
        margin is evaluated."""
        assert math.isfinite(float(math.comb(1029, 514)))
        with pytest.raises(OverflowError):
            float(math.comb(1030, 515))
        import wbell.search as search

        calls, margin = [], search.violation_margin

        def counting_margin(*args):
            calls.append(args)
            return margin(*args)

        monkeypatch.setattr(search, "violation_margin", counting_margin)
        for argv in (["bell", "--preset", "fig2", "--n", "1031", "--starts", "1"],
                     ["threshold", "--preset", "fig3", "--n", "5000"],
                     ["bell", "--inequality", "wwwzb", "--n", "1031", "--ideal"]):
            code, out, err = run(argv)
            assert code == 1 and out == "" and calls == [], argv
            assert err.startswith("wbell: error: wwwzb takes 1 to 1030 parties"), err
            assert len(err.splitlines()) == 1, argv
        code, out, err = run(["bell", "--inequality", "wwwzb", "--n", "1030", "--ideal"])
        assert code == 0 and math.isfinite(json.loads(out)["value"]), err

    def test_inequality_choices_are_the_table_rows_without_lp(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        action = next(a for a in sub.choices["bell"]._actions if a.dest == "inequality")
        expected = [name for name, rule in CRITERIA.items() if not rule.lp]
        assert list(action.choices) == expected == ["cabello", "wwwzb", "mermin3", "chsh"]

    def test_bad_argparse_choice(self):
        assert run(["bell", "--inequality", "nope"])[0] == 1

    def test_every_preset_builds_at_its_default_size(self):
        golden = golden_preset_specs()
        for name, preset in PRESETS.items():
            spec = preset.build(preset.spec.n_parties)
            assert spec.name == name
            assert (name, preset.spec.n_parties) in golden
        for (name, n), text in golden.items():
            code, out, err = run(["threshold", "--preset", name, "--n", str(n),
                                  "--dump-spec"])
            assert code == 0, err
            assert out == text, (name, n)


def capped_run(argv):
    """Run the CLI in a child process under a 4 GiB address-space cap, so
    that no platform that grants a large allocation lazily starts filling
    memory."""
    resource = pytest.importorskip("resource")
    cap = 4 << 30
    env = dict(os.environ, PYTHONPATH=str(Path(wbell.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "wbell.cli", *argv], env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


def test_every_exported_name_resolves():
    assert len(set(wbell.__all__)) == len(wbell.__all__)
    for name in wbell.__all__:
        assert getattr(wbell, name, None) is not None, name


def test_golden_outputs_are_byte_identical():
    """Fast invocations of every command print exactly the stdout recorded
    in GOLDEN_OUTPUTS, so a refactor that moves a byte shows here."""
    blocks = golden_blocks(GOLDEN_OUTPUTS)
    assert len(blocks) >= 15
    for argv, expected in blocks.items():
        code, out, err = run(argv.split())
        assert code == 0, (argv, err)
        assert out == expected, f"{argv}\n" + "".join(difflib.unified_diff(
            expected.splitlines(keepends=True), out.splitlines(keepends=True),
            "golden", "now"))


def console_script_target(name):
    """`(module, function)` of the `[project.scripts]` entry `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"][name]
    entry = EntryPoint(name, value, "console_scripts")
    return entry.module, entry.attr


def test_console_script_matches_in_process_output():
    """The `wbell` console script, run as a separate process, prints the
    same stdout and exits with the same code as `dispatch` in process.

    The script's target is read from `pyproject.toml` and run the way the
    generated wrapper runs it, against the `wbell` package this process
    imported, so no install is needed. An installed `wbell` executable,
    where one is on `PATH`, gets the same comparison.
    """
    module, func = console_script_target("wbell")
    commands = [[sys.executable, "-c",
                 f"import sys; from {module} import {func}; sys.exit({func}())"]]
    installed = shutil.which("wbell")
    if installed:
        commands.append([installed])
    src = str(Path(wbell.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))

    cases = [(["bell", "--inequality", "cabello", "--n", "3", "--ideal"], 0),
             (["bell", "--inequality", "nope"], 1)]
    for argv, expected_code in cases:
        code, out, _ = run(argv)
        assert code == expected_code
        for command in commands:
            proc = subprocess.run([*command, *argv], capture_output=True,
                                  text=True, env=env)
            assert proc.returncode == code, (command, argv, proc.stderr)
            assert proc.stdout == out, (command, argv)
            assert "Traceback" not in proc.stderr, (command, argv, proc.stderr)


def fresh_dispatch(argv):
    """Exit code, stdout, the rest of stderr, and the loaded scipy and
    process-pool modules of a fresh process that imports wbell.cli and, when
    ``argv`` is not empty, dispatches it."""
    env = dict(os.environ, PYTHONPATH=str(Path(wbell.__file__).resolve().parents[1]))
    code = ("import sys; from wbell.cli import dispatch; "
            "code = dispatch(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'multiprocessing') or m == 'concurrent.futures.process'), "
            "file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    *stderr, loaded = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, "\n".join(stderr), loaded


def test_cli_import_leaves_scipy_unloaded():
    """scipy loads on the first LP, and the process pool only for region
    --jobs above 1, not with the CLI, so commands that do neither, closed-form
    searches and thresholds included, start and run in numpy time; those
    that do still run."""
    for argv in ([], ["negativity", "--theta", "-0.7", "--n", "3"],
                 ["bell", "--inequality", "cabello", "--n", "3", "--ideal"],
                 ["bell", "--preset", "fig2", "--dump-spec"],
                 ["bell", "--preset", "chsh-homodyne", "--starts", "4"],
                 ["threshold", "--preset", "fig4-homodyne", "--set", "eta_c=0.8",
                  "--starts", "2", "--bracket", "0.5", "1.0", "--atol", "0.02"]):
        assert fresh_dispatch(argv) == (0, run(argv)[1] if argv else "", "", "[]"), argv
    argv = ["content", "--preset", "fig5", "--n", "3", "--set", "eta_z=1", "--set", "eta_x=1"]
    code, out, _, loaded = fresh_dispatch(argv)
    assert (code, out) == run(argv)[:2] and code == 0
    assert "'scipy.optimize'" in loaded and "'scipy.sparse'" in loaded


def test_more_starts_than_sobol_points_is_one_line():
    """A 30-bit Sobol sequence has 2**30 distinct points; more starts exit 1
    with one line before any point is built."""
    code, out, err = run(["bell", "--preset", "chsh-homodyne", "--starts", str(2 ** 30 + 1)])
    assert (code, out) == (1, "")
    assert err == "wbell: error: at most 2**30 distinct start points, got 1073741825\n"


def test_starts_off_a_power_of_two_print_no_warning():
    """Three Sobol starts used to print scipy's two-line UserWarning on
    stderr; the output is the one they always gave."""
    argv = ["bell", "--preset", "chsh-homodyne", "--starts", "3"]
    code, out, stderr, _ = fresh_dispatch(argv)
    assert (code, out, stderr) == (0, run(argv)[1], "")
    result = json.loads(out)
    assert result["margin"] == 0.558608819157294 and result["value"] == 2.558608819157294
    assert result["params"] == {
        "a_polar_0": 3.815042315480679, "a_polar_1": 2.468142656676302,
        "eta_atom": 1.0, "eta_c": 1.0, "eta_hom": 1.0, "eta_spd": 1.0,
        "phi_x": 3.1415923703483504, "theta": -0.7853983512775559}
