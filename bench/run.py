#!/usr/bin/env python3
"""wbell benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload search-small --seed 1 --seconds 24 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src``.
A run imports ``wbell.cli`` once, warms up, and then repeats rounds of the
workload's fixed invocation list through ``wbell.cli.dispatch`` until the
next round would end more than half a round past ``--seconds`` (always at
least one round). Module-level ``lru_cache``s of wbell are cleared at the
start of every round, so every round does the same work. Outputs are checked
against ``reference`` after the timed rounds.

``--trace 0`` reports the end-to-end metrics: wall_s (mean round time),
setup_s (median of three cold CLI starts) and peak_rss_mb. Both times are
given at a fixed reference speed of the machine, measured by a speed probe
around every invocation and cold start (see PROBE_REF_S); the times as taken
are printed beside them and kept in the record. ``--trace 1`` runs one
untimed round, then pairs of an untraced and a traced round under the same
time rule, and reports the per-layer metrics as timed; the tracing overhead
is the difference of the two kinds' mean round times at the reference
speed. The last line of stdout is the JSON result; a longer record with
provenance goes to ``bench/results/``.
"""

from __future__ import annotations

import os
import sys

# Set before numpy is imported, so that BLAS starts with one thread: the LPs
# and matrices are small, and a second thread on a 2-core machine only adds
# noise. Children (the cold starts) inherit the same settings.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["WBELL_JOBS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 3
IMPORT_STARTS = 3
SETUP_ARGV = ["negativity", "--theta", "-0.7254", "--n", "3"]
MAX_MEASURE_S = 120.0
WARM_UP = (
    "bell --inequality cabello --n 3 --ideal",
    "bell --preset chsh-homodyne --starts 1",
    "threshold --preset cabello-ad --n 3 --bracket 0.5 0.99",
    "content --preset fig5 --n 3 --set eta_z=1 --set eta_x=1",
)


# Speed probe. This machine's speed drifts by up to a factor of 1.8 over tens
# of seconds (a fixed pure-Python loop timed in 4 s windows read 0.020-0.029 s
# per call; a round of lp-content took 10.1-14.6 s), in phases that last
# longer than a run. The probe is a fixed slice of reference work run before
# every invocation and after the last; each invocation's time is rescaled by
# the mean of the probes around it to the speed at which the probe takes
# PROBE_REF_S. The probe shares the kinds of work the workloads do (Python
# loops, small numpy products, a HiGHS LP) and none of wbell's code, so it
# follows the machine and not the program.
PROBE_REF_S = 0.05
PROBE_FIG3 = {"theta": -0.6, "eta_c": 1.0, "eta_atom": 1.0, "a_polar_0": 0.4,
              "a_polar_1": 2.1, "eta_spd": 0.8, "eta_hom": 1.0, "phi_x": 0.3}


def speed_probe() -> float:
    t0 = time.perf_counter()
    rho, parties, _ = ref.scenario("garbarino3", 3, {"eta_z": 0.9, "eta_x": 0.5})
    ref.local_weight(3, 3, ref.distribution(rho, parties))
    ref.bell_value("fig3", 6, PROBE_FIG3)
    return time.perf_counter() - t0


def at_reference_speed(times, probes) -> list:
    """Each time rescaled by the mean of the probe just before and just after it."""
    return [t * 2.0 * PROBE_REF_S / (before + after)
            for t, before, after in zip(times, probes, probes[1:])]


@dataclass
class Round:
    elapsed: float      # wall time of the round, probes included
    outcomes: list
    probes: list        # probe seconds before each invocation and after the last
    tracer: object = None

    @property
    def raw_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def norm_s(self) -> float:
        return sum(at_reference_speed([o.seconds for o in self.outcomes], self.probes))


@dataclass
class Pair:
    plain: Round
    traced: Round

    @property
    def elapsed(self) -> float:
        return self.plain.elapsed + self.traced.elapsed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_starts(count: int) -> tuple:
    """Fresh interpreters running ``wbell negativity``, timed from outside:
    (seconds as timed, seconds at the reference speed, the last stdout)."""
    code = ("import sys; from wbell.cli import main; "
            f"sys.argv = ['wbell'] + {SETUP_ARGV!r}; main()")
    times, probes, out = [], [speed_probe()], ""
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start exited {proc.returncode}: {proc.stderr.strip()}")
        out = proc.stdout
        probes.append(speed_probe())
    return times, at_reference_speed(times, probes), out


def import_times(count: int) -> list:
    code = ("import time; t0 = time.perf_counter(); import wbell.cli; "
            "print(repr(time.perf_counter() - t0))")
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip()))
    return times


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("wbell") and module is not None:
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref_name = text[5:]
        ref_file = ROOT / ".git" / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "wbell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = "unknown"
    uname = platform.uname()
    return {
        "machine": f"{uname.node} {uname.system} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def measure_rounds(run_one, seconds: float) -> list:
    """Rounds until the next one would end more than half a round late."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_one())
        elapsed = time.perf_counter() - t0
        last = rounds[-1].elapsed
        if elapsed + 0.5 * last >= seconds or elapsed + last > MAX_MEASURE_S:
            return rounds


def layer_metrics(tracers: list, walls: list, overhead: float, import_s: float) -> dict:
    """Per-layer metrics: counts from the first traced round, times as the
    mean over the traced rounds."""
    first = tracers[0]

    def mean_over(fn):
        return statistics.fmean(fn(t) for t in tracers)

    def calls(name):
        return first.calls[name]

    def total(name):
        return mean_over(lambda t: t.total[name])

    def self_s(name):
        return mean_over(lambda t: t.self_time[name])

    def mean(name, scale):
        return mean_over(lambda t: scale * t.total[name] / t.calls[name] if t.calls[name] else 0.0)

    traced_wall = statistics.fmean(walls)
    layer_self = {layer: mean_over(lambda t, layer=layer: t.layer_self()[layer])
                  for layer in first.layer_self()}
    thresholds = calls("search.critical_efficiency")
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.dispatch.calls": (calls("cli.dispatch"), "count"),
        "cli.dispatch.self_s": (self_s("cli.dispatch"), "s"),
        "cli.threshold_s": (total("cli.threshold"), "s"),
        "cli.bell_s": (total("cli.bell"), "s"),
        "cli.content_s": (total("cli.content"), "s"),
        "cli.region_s": (total("cli.region"), "s"),
        "search.violation_margin.calls": (calls("search.violation_margin"), "count"),
        "search.violation_margin.mean_us": (mean("search.violation_margin", 1e6), "us"),
        "search.evals_per_threshold": (
            first.margins_in_threshold / thresholds if thresholds else 0.0, "count"),
        "search.has_violation.calls": (calls("search.has_violation"), "count"),
        "search.minimize.calls": (calls("search.minimize"), "count"),
        "search.minimize.self_s": (self_s("search.minimize"), "s"),
        "search.optimize_free_parameters.calls": (
            calls("search.optimize_free_parameters"), "count"),
        "search.critical_efficiency.calls": (thresholds, "count"),
        "search.critical_efficiency.s": (total("search.critical_efficiency"), "s"),
        "search.region_boundary.rows": (first.region_rows, "count"),
        "search.region_boundary.s": (total("search.region_boundary"), "s"),
        "measure.povm.calls": (calls("measure.povm"), "count"),
        "measure.povm.mean_us": (mean("measure.povm", 1e6), "us"),
        "measure.checks.s": (total("measure.checks"), "s"),
        "states.scenario_state.calls": (calls("states.scenario_state"), "count"),
        "states.scenario_state.mean_us": (mean("states.scenario_state", 1e6), "us"),
        "dist.joint_distribution.calls": (calls("dist.joint_distribution"), "count"),
        "dist.joint_distribution.mean_us": (mean("dist.joint_distribution", 1e6), "us"),
        "dist.joint_distribution.self_s": (self_s("dist.joint_distribution"), "s"),
        "dist.validate.calls": (calls("dist.validate"), "count"),
        "dist.validate.s": (total("dist.validate"), "s"),
        "dist.full_correlators.s": (total("dist.full_correlators"), "s"),
        "dist.from_text.calls": (calls("dist.from_text"), "count"),
        "dist.from_text.s": (total("dist.from_text"), "s"),
        "bell.criterion.calls": (calls("bell.criterion"), "count"),
        "bell.criterion.s": (total("bell.criterion"), "s"),
        "polytope.nonlocal_content.calls": (calls("polytope.nonlocal_content"), "count"),
        "polytope.nonlocal_content.self_s": (self_s("polytope.nonlocal_content"), "s"),
        "polytope.solve_lp.calls": (calls("polytope.solve_lp"), "count"),
        "polytope.solve_lp.mean_ms": (mean("polytope.solve_lp", 1e3), "ms"),
        "polytope.solve_lp.self_s": (self_s("polytope.solve_lp"), "s"),
        "polytope.linprog.s": (total("polytope.linprog"), "s"),
        "polytope.lp_iterations": (first.lp_iterations, "count"),
        "polytope.lp_rows": (first.lp_rows, "count"),
        "polytope.lp_cols": (first.lp_cols, "count"),
        "trace.round_s": (traced_wall, "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    for layer, seconds in layer_self.items():
        m[f"layer.{layer}.self_s"] = (seconds, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wbell" / "cli.py").is_file():
        print(f"bench: no wbell sources under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import wbell.cli as cli

    workdir = BENCH / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed,
                                   str(workdir.relative_to(ROOT)))
        for path, text in workload.files.items():
            Path(path).write_text(text, encoding="utf-8")
        return report(args, workload, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, workload, cli) -> int:
    def dispatch(argv):
        return cli.dispatch(argv)  # looked up per call, so spans see it

    for line in WARM_UP:
        harness.invoke(dispatch, line.split())
    speed_probe()

    def plain_round():
        clear_caches()
        t0 = time.perf_counter()
        outcomes, probes = harness.run_round(dispatch, workload.invocations, speed_probe)
        return Round(time.perf_counter() - t0, outcomes, probes)

    def traced_round():
        clear_caches()
        tr = tracing.Tracer()
        tr.install()
        try:
            t0 = time.perf_counter()
            outcomes, probes = harness.run_round(dispatch, workload.invocations, speed_probe)
            elapsed = time.perf_counter() - t0
        finally:
            tr.uninstall()
        return Round(elapsed, outcomes, probes, tr)

    problems = []
    if args.trace:
        # The first round of a process runs slower on dense-large-n (5-20% in
        # every plain run), which would land on the untraced half of the first
        # pair; an untimed, unchecked round first keeps the overhead honest.
        plain_round()
        pairs = measure_rounds(lambda: Pair(plain_round(), traced_round()), args.seconds)
        untraced = [p.plain for p in pairs]
        rounds = [p.traced for p in pairs]
        all_rounds = [r for p in pairs for r in (p.plain, p.traced)]
    else:
        rounds = all_rounds = measure_rounds(plain_round, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = all_rounds[0].outcomes
    failures, found = harness.check_round(workload, first)
    problems += found
    if not all(harness.same_outputs(first, r.outcomes) for r in all_rounds[1:]):
        problems.append("outputs differ between rounds")
    attempted = len(workload.invocations) * len(all_rounds)
    failed = sum(harness.failure(inv, outcome) is not None
                 for r in all_rounds
                 for inv, outcome in zip(workload.invocations, r.outcomes))

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "rounds": len(all_rounds),
              "probe_ref_s": PROBE_REF_S,
              "round_raw_s": [r.raw_s for r in all_rounds],
              "round_norm_s": [r.norm_s for r in all_rounds],
              "round_probe_s": [statistics.fmean(r.probes) for r in all_rounds],
              "draws": workload.draws, "provenance": provenance(),
              "invocations": [{"argv": inv.label,
                               "s": [r.outcomes[i].seconds for r in all_rounds]}
                              for i, inv in enumerate(workload.invocations)]}
    if args.trace:
        tracers = [r.tracer for r in rounds]
        summaries = [t.summary() for t in tracers]
        if any(s["spans"].keys() != summaries[0]["spans"].keys()
               or any(s["spans"][k]["calls"] != summaries[0]["spans"][k]["calls"]
                      for k in s["spans"]) for s in summaries[1:]):
            problems.append("span counts differ between traced rounds")
        overhead = (statistics.fmean(r.norm_s for r in rounds)
                    - statistics.fmean(r.norm_s for r in untraced))
        metrics = layer_metrics(tracers, [r.raw_s for r in rounds], overhead,
                                statistics.median(import_times(IMPORT_STARTS)))
        record["trace_summary"] = summaries[0]
        record["layer_share_percent"] = {
            layer: 100.0 * metrics[f"layer.{layer}.self_s"][0] / metrics["trace.round_s"][0]
            for layer in tracing.LAYERS}
    else:
        raw_setup, setup, neg_out = cold_starts(SETUP_STARTS)
        want = ref.negativity(ref.atom_photon_rho(-0.7254, 1.0, 2), 1, 2)
        got = json.loads(neg_out)["negativity"]
        if abs(got - want) > 1e-9:
            problems.append(f"cold-start negativity {got!r}, reference {want!r}")
        record["setup_raw_s"] = raw_setup
        record["setup_norm_s"] = setup
        metrics = {"wall_s": (statistics.fmean(r.norm_s for r in rounds), "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result, failures=failures, problems=problems)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(all_rounds)} round(s) of {len(workload.invocations)} invocations")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  as timed: round {statistics.fmean(record['round_raw_s']):.4g} s, "
          f"probe {statistics.fmean(record['round_probe_s']):.4g} s "
          f"(reference {PROBE_REF_S} s)"
          + ("" if args.trace else
             f", cold start {statistics.median(record['setup_raw_s']):.4g} s"))
    if args.trace:
        print("  self-time share of a traced round: " + ", ".join(
            f"{layer} {share:.1f}%" for layer, share in record["layer_share_percent"].items()))
    print(f"  attempted {attempted}, failed {failed}")
    for line in failures:
        print(f"  failed: {line}")
    for line in problems:
        print(f"  WRONG: {line}")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
