"""cechmod benchmark: sequential `cechmod.cli.run(argv)` jobs over one workload.

    python3 bench/run.py --workload classify|bundle|gauge --seed N \
        --seconds S --trace 0|1 [--record]

Run from the root of a source checkout; the package is imported from `src/`.
A closed loop with one client: each job starts when the previous one ends.

--trace 0 runs whole passes over the workload's jobs until S seconds have
passed (at least one) and reports the end-to-end metrics, medians over the
passes. --trace 1 runs one untraced pass, then one traced pass of the timed
jobs and, on `classify`, a `--workers 2` probe; it reports the per-layer
metrics. --record writes the exit codes and report hashes of the default seed
to expected.json instead of checking them.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A wrong job outcome makes `correct` false; the exit code is non-zero
only when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COMMAND_SUMS = {"classify_s": "classify", "bundle_check_s": "bundle_check",
                "quotient_s": "quotient", "stabilizer_s": "stabilizer", "gauge_s": "gauge"}
# Self time (s) or call count of one span name, reported as a per-layer metric.
SPAN_SELF = {
    "cech.classify_brute_s": "cech.classify_brute",
    "cech.classify_abelian_s": "cech.classify_abelian",
    "cech.stabilizer_s": "cech.stabilizer",
    "cech.are_cohomologous_s": "cech.are_cohomologous",
    "cech.compose_coboundaries_s": "cech.compose_coboundaries",
    "complexes.valid_tuples_s": "complexes.valid_tuples",
    "complexes.oracle_s": "complexes.abelian_cohomology_oracle",
    "bundle.construct_s": "bundle.construct",
    "bundle.check_axioms_s": "bundle.check_axioms",
    "bundle.trivializations_s": "bundle.trivializations",
    "bundle.check_trivialization_s": "bundle.check_trivialization",
    "bundle.check_action_s": "bundle.check_action",
    "bundle.extract_cocycle_s": "bundle.extract_cocycle",
    "bundle.quotient_s": "bundle.quotient_by_structure_group",
    "gauge.gauge_crossed_module_self_s": "gauge.gauge_crossed_module",
    "gauge.endofunctors_s": "gauge.equivariant_endofunctors_of_2group",
    "algebra.group_from_operation_s": "algebra.group_from_operation",
    "algebra.validate_group_s": "algebra.validate_group",
    "algebra.power_group_s": "algebra.power_group",
    "algebra.validate_crossed_module_s": "algebra.validate_crossed_module",
    "snf.kernel_size_mod_s": "snf.kernel_size_mod",
    "snf.image_size_mod_s": "snf.image_size_mod",
    "snf.smith_normal_form_s": "snf.smith_normal_form",
    "io.parse_cocycle_s": "io.parse_cocycle_file",
}
SPAN_CALLS = {
    "cech.compose_coboundaries_calls": "cech.compose_coboundaries",
    "cech.apply_coboundary_calls": "cech.apply_coboundary",
    "cech.validate_cocycle_calls": "cech.validate_cocycle",
    "complexes.valid_tuples_calls": "complexes.valid_tuples",
    "bundle.check_axioms_calls": "bundle.check_axioms",
    "bundle.build_total_groupoid_calls": "bundle.build_total_groupoid",
    "bundle.check_action_calls": "bundle.check_action",
    "algebra.validate_group_calls": "algebra.validate_group",
    "snf.solve_mod_calls": "snf.solve_mod",
    "io.parse_cocycle_calls": "io.parse_cocycle_file",
}
COUNTERS = ("cech.leaves", "cech.stabilizer_size", "bundle.morphisms",
            "bundle.compose_entries", "gauge.gstar_order")


def setup(complexes: list[str], cms: list[str]) -> tuple[float, Callable]:
    """Import cechmod afresh and build every named catalog object, uncached.

    Returns the seconds that took and the fresh `cechmod.cli.run`. The
    catalog's caches are filled afterwards, untimed, so jobs do not pay for
    them.
    """
    for name in [m for m in sys.modules if m == "cechmod" or m.startswith("cechmod.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("cechmod.cli")
    catalog = importlib.import_module("cechmod.catalog")
    for name in complexes:
        catalog.COMPLEX_BUILDERS[name]()
    for name in cms:
        catalog.CM_BUILDERS[name]()
    seconds = time.perf_counter() - start
    for name in complexes:
        catalog.named_complex(name)
    for name in cms:
        catalog.named_crossed_module(name)
    return seconds, cli.run


def run_pass(jobs, cli_run, tracer=None, resetup=None) -> list[Outcome]:
    """Run the jobs in order. With `resetup`, cechmod is set up afresh
    before each job, which spreads the set-up samples over the whole run."""
    outcomes = []
    for job in jobs:
        if resetup is not None:
            cli_run = resetup()
        span = tracer.begin(f"job.{job.argv[0]}") if tracer else None
        start = time.perf_counter()
        try:
            code, report = cli_run(list(job.argv))
            error = None
        except (Exception, SystemExit):  # a crash is a wrong outcome, not the end of the run
            code, report, error = None, "", traceback.format_exc(limit=3)
        seconds = tracer.end(span) if tracer else time.perf_counter() - start
        outcomes.append(Outcome(job, seconds, code, report, error))
    return outcomes


def wall(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes if o.job.kind != "frontier")


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def command_sums(outcomes: list[Outcome]) -> dict[str, float]:
    sums = {metric: sum(o.seconds for o in outcomes if o.job.kind == kind)
            for metric, kind in COMMAND_SUMS.items()}
    # classify_s: the classify jobs that finish, frontier jobs once solved
    sums["classify_s"] += sum(o.seconds for o in outcomes if o.solved)
    return sums


def workers_probe(outcomes: list[Outcome], cli_run) -> tuple[float, int, list[str]]:
    """Rerun the finishing brute classify jobs with --workers 2.

    Returns the speedup (sequential seconds over 2-worker seconds), the number
    of jobs rerun and the jobs whose 2-worker report differs. Frontier jobs
    are left out: a worker that exhausts its budget hangs the pool.
    """
    base = [o for o in outcomes if o.job.kind == "classify"
            and o.job.info.get("strategy") == "brute" and o.code == 0]
    if not base:
        return 0.0, 0, []
    rerun = run_pass([dataclasses.replace(o.job, argv=o.job.argv + ["--workers", "2"])
                      for o in base], cli_run)
    mismatched = [o.job.name for o, r in zip(base, rerun)
                  if (r.code, r.report) != (o.code, o.report)]
    return (sum(o.seconds for o in base) / sum(r.seconds for r in rerun),
            len(base), mismatched)


def layer_metrics(untraced: list[Outcome], traced: list[Outcome], tracer,
                  cpu_s: float, probe: tuple[float, int, list[str]]) -> tuple[dict, list[str]]:
    self_s, calls = tracer.summary()
    counters = tracer.counters
    m: dict[str, tuple[float, str]] = {}
    for metric, value in command_sums(untraced).items():
        m[metric] = (value, "s")
    frontier = [o for o in untraced if o.job.kind == "frontier"]
    m["frontier_solved"] = (sum(o.solved for o in frontier), "count")
    m["cech.frontier_budget_s"] = (sum(o.seconds for o in frontier), "s")
    bad = sum(o.error is not None for o in untraced)
    m["error_frac"] = (bad / len(untraced), "ratio")
    for metric, name in SPAN_SELF.items():
        m[metric] = (self_s.get(name, 0.0), "s")
    for metric, name in SPAN_CALLS.items():
        m[metric] = (calls.get(name, 0), "count")
    for name in COUNTERS:
        m[name] = (counters.get(name, 0), "count")
    leaves = counters.get("cech.leaves", 0)
    m["cech.classes_per_leaf"] = (counters.get("cech.classes", 0) / leaves if leaves else 0.0,
                                  "ratio")
    m["cech.workers2_speedup"] = (probe[0], "ratio")
    traced_wall, untraced_wall = wall(traced), wall(untraced)
    roots = sum(v for k, v in self_s.items() if k.startswith("job."))
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.job_self_s"] = (roots, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["process.cpu_s"] = (cpu_s, "s")
    for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1])[:15]:
        print(f"bench: self {seconds:9.3f} s {calls[name]:9d} calls  {name}", file=sys.stderr)
    problems = []
    accounted = sum(self_s.values())
    if abs(accounted - traced_wall) > 1e-6 * max(1.0, traced_wall):
        problems.append(f"span self times sum to {accounted}, traced wall_s is {traced_wall}")
    problems += [f"{name}: --workers 2 report differs" for name in probe[2]]
    return m, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cechmod", "cli.py")):
        print(f"bench: no cechmod sources under {SRC}", file=sys.stderr)
        return 2
    if args.record and (args.seed != workloads.DEFAULT_SEED or args.trace):
        print("bench: --record needs the default seed and --trace 0", file=sys.stderr)
        return 2
    expected_all = {}
    if os.path.isfile(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            expected_all = json.load(fh)
    expected = None if args.record else expected_all.get(args.workload, {})
    sys.path.insert(0, SRC)

    complexes, cms = workloads.names_used(args.workload)
    _, cli_run = setup(complexes, cms)  # warm-up: compiles bytecode on a fresh checkout
    setup_samples: list[float] = []

    def resetup() -> Callable:
        seconds, fresh_run = setup(complexes, cms)
        setup_samples.append(seconds)
        return fresh_run

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        jobs = workloads.build_jobs(args.workload, args.seed, workdir)
        problems: list[str] = []
        probed = 0
        if not args.trace:
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                outcomes = run_pass(jobs, cli_run, resetup=resetup)
                workloads.check_pass(outcomes, expected, args.seed)
                passes.append(outcomes)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {"wall_s": statistics.median(wall(p) for p in passes),
                      "setup_s": statistics.median(setup_samples), "peak_rss_mb": peak_mb}
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            checked = [o for p in passes for o in p]
        else:
            cpu0 = cpu_seconds()
            untraced = run_pass(jobs, cli_run)
            cpu_s = cpu_seconds() - cpu0
            workloads.check_pass(untraced, expected, args.seed)
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                traced = run_pass([j for j in jobs if j.kind != "frontier"], cli_run, tracer)
            finally:
                restore()
            workloads.check_pass(traced, expected, args.seed)
            probe = workers_probe(untraced, cli_run)
            values, problems = layer_metrics(untraced, traced, tracer, cpu_s, probe)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            checked = untraced + traced
            probed = probe[1]
            trace_dir = os.path.join(ROOT, ".bench_trace")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.tsv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [f"{o.job.name}: {o.error}" for o in checked if o.error is not None]
    attempted = len(checked) + probed
    failed = len(errors) + len(problems)
    for line in errors + problems:
        print(f"bench: {line}", file=sys.stderr)
    if args.record:
        if failed:
            print("bench: not recording a pass with wrong outcomes", file=sys.stderr)
            return 1
        expected_all[args.workload] = workloads.record(checked[:len(jobs)])
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(expected_all, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
