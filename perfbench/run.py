"""dsmsched benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload day_cost_only --seed 1 --seconds 40 --trace 0

Run from the repository root (or anywhere: paths are taken relative to this
file).  The program is imported from `src/` of the same checkout, in this
process, with no threads.  Every output file goes to a temporary directory
under `.perfbench_work/`, which is removed at exit.

Workloads (closed loop, one caller, each job one complete scheduling task):

    day_cost_only    configs/scenario_a.json: one penalty price, no PV
    day_pv_sweep     configs/scenario_c.json: PV, penalty prices 0/5/10/20 c
    small_vs_oracle  seeded 16-slot instances, exhaustive oracle plus CSA

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untraced
job, then the same job again with every public layer function wrapped in a
span recorder, and prints per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md next to this file for what each metric is for.
"""

from __future__ import annotations

import os

# one process, one thread: keep OpenBLAS from starting worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from gauge import REFERENCE_PASS_S, Gauge
from instances import write_family_configs
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("day_cost_only", "day_pv_sweep", "small_vs_oracle")
DAY_CONFIGS = {"day_cost_only": "scenario_a.json", "day_pv_sweep": "scenario_c.json"}

# fixed CSA generation budget per price of the day jobs, stall rule off (the
# program's default is up to 400 generations); sized so that several jobs
# fit in one run.  See README.md for why.
DAY_GENERATIONS = {"day_cost_only": 30, "day_pv_sweep": 12}
# the small instances converge in a few dozen generations: a fixed budget,
# stall rule off, keeps a small job short and its work the same for every seed
SMALL_CSA = {"generations": 12, "stall_generations": 12}
# set-up is a few milliseconds, so each job is preceded by this many timed
# set-ups, and the median over all of them is reported
SETUP_REPEATS = 20
# `--scale tiny`: a few generations of a small population, three families
TINY_CSA = {"population_size": 8, "generations": 4, "stall_generations": 4}
TINY_FAMILIES = ("md", "feeder", "widened")
# a CSA total counts as exact within this relative distance of the oracle's
EXACT_REL = 1e-9
# reported totals are rounded to 6 decimals
TOTAL_ABS_TOL = 1e-6


class ProgramMissing(Exception):
    pass


def load_program() -> SimpleNamespace:
    """Import dsmsched from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "dsmsched"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no dsmsched package under {package}")
    sys.path.insert(0, str(package.parent))
    try:
        import dsmsched
        from dsmsched import cli, constraints, costing, csa, domain, errors, feeder, oracle
    except ImportError as exc:
        raise ProgramMissing(f"cannot import dsmsched: {exc}") from None
    if Path(dsmsched.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"dsmsched was imported from {dsmsched.__file__}")
    return SimpleNamespace(cli=cli, constraints=constraints, costing=costing, csa=csa,
                           domain=domain, errors=errors, feeder=feeder, oracle=oracle,
                           version=dsmsched.__version__)


def machine_info(seed: int) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


@contextlib.contextmanager
def quiet():
    """Drop the loader's widened-window warnings from stderr."""
    with contextlib.redirect_stderr(io.StringIO()):
        yield


# one job ---------------------------------------------------------------------


@dataclass
class Job:
    """Outcome of one complete job, after its outputs were checked.

    `wall_s` is the job's wall time corrected for host speed (gauge.py),
    `raw_wall_s` the wall time as the clock read it.
    """

    wall_s: float
    raw_wall_s: float
    attempted: int = 0
    failed: int = 0
    evaluations: int = 0
    generations: int = 0
    stall_stops: int = 0
    candidates: int = 0
    csa_scored: int = 0
    csa_exact: int = 0
    savings: list[float] = field(default_factory=list)
    bytes_written: int = 0
    reports: bytes = b""
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    @property
    def schedules(self) -> int:
        return self.evaluations + self.candidates

    def counts(self) -> dict[str, int]:
        """The counts that must repeat exactly for a given seed."""
        return {"csa.evaluations": self.evaluations, "csa.generations": self.generations,
                "csa.stall_stops": self.stall_stops, "oracle.candidates": self.candidates}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _check_written_run(P, job: Job, cfg, row: dict, out_dir: Path, pi: float,
                       where: str) -> float | None:
    """Re-check one run_scenario row against its written schedule file.

    Returns the written schedule's total, or None when the run failed.
    """
    if not row.get("feasible"):
        job.fail(f"{where}: run reported infeasible: {row.get('message', '')}")
        return None
    ctx = cfg.context(pi)
    try:
        schedule = P.domain.load_schedule_csv(
            out_dir / row["files"]["schedule"], cfg.appliances, cfg.grid)
        feasible = P.constraints.is_feasible(schedule, ctx).feasible
        total = P.costing.total_cost(schedule, ctx).total_usd
        reported = row["total_usd"]
    except (P.errors.DsmError, KeyError) as exc:
        job.fail(f"{where}: cannot re-check the written schedule: {exc!r}")
        return None
    if not feasible:
        job.fail(f"{where}: written schedule fails is_feasible")
        return None
    if abs(total - reported) > TOTAL_ABS_TOL:
        job.fail(f"{where}: reported total {reported} != total_cost {total}")
        return None
    return total


class DayWorkload:
    """One scenario config through cli.run_scenario, all its penalty prices."""

    def __init__(self, P, name: str, seed: int, work: Path, csa: dict):
        self.P = P
        source = ROOT / "configs" / DAY_CONFIGS[name]
        data = json.loads(source.read_text())
        for key in ("appliances_csv", "price_csv", "pv_csv", "neighbors_csv", "feeder_json"):
            if key in data:
                data[key] = str((source.parent / data[key]).resolve())
        data["seed"] = seed
        data["csa"] = dict(csa)
        data["out_dir"] = str(work / "unused")
        self.config_path = work / "scenario.json"
        self.config_path.write_text(json.dumps(data, indent=2, sort_keys=True))

    def setup(self):
        P = self.P
        with quiet():
            cfg = P.cli.load_scenario_config(self.config_path)
        ctx = cfg.context()
        P.costing.total_cost(ctx.original_schedule(), ctx)
        return cfg

    def run(self, cfg, out_dir: Path, gauge: Gauge):
        """One job, timed as one segment."""
        cfg.out_dir = out_dir
        with gauge.segment() as seg:
            try:
                outcome = self.P.cli.run_scenario(cfg)
            except Exception:
                outcome = traceback.format_exc()
        return seg.corrected_s, seg.raw_s, outcome

    def verify(self, cfg, raw, out_dir: Path) -> Job:
        P = self.P
        wall, raw_wall, outcome = raw
        job = Job(wall_s=wall, raw_wall_s=raw_wall, attempted=len(cfg.penalties_usd_per_kwh))
        if isinstance(outcome, str):
            job.failed = job.attempted
            job.problems.append(outcome)
            return job
        for pi, row in zip(cfg.penalties_usd_per_kwh, outcome.report["runs"]):
            job.evaluations += row["evaluations"]
            job.generations += row["generations"]
            job.stall_stops += row["generations"] < cfg.csa.generations
            if _check_written_run(P, job, cfg, row, out_dir, pi, f"pi={pi}") is not None:
                job.savings.append(row["saving_vs_original_pct"])
        job.reports = (out_dir / "report.json").read_bytes()
        job.bytes_written = _dir_bytes(out_dir)
        return job


class SmallWorkload:
    """Seeded small instances: one oracle sweep per family, CSA scored against it.

    Per family: `oracle.sweep_penalties` over the family's prices, then
    `cli.run_scenario` at CSA seed `seed` and `csa.optimize` at CSA seed
    `seed + 1`, each at every price.
    """

    def __init__(self, P, seed: int, work: Path, csa: dict, families):
        self.P = P
        self.second_seed = seed + 1
        self.paths = write_family_configs(seed, seed, work / "instances", csa, families)

    def setup(self):
        P = self.P
        configs = []
        for path in self.paths:
            with quiet():
                cfg = P.cli.load_scenario_config(path)
            ctx = cfg.context()
            P.costing.total_cost(ctx.original_schedule(), ctx)
            configs.append(cfg)
        return configs

    def run(self, configs, out_dir: Path, gauge: Gauge):
        """One job, timed as one segment per family."""
        P = self.P
        results = []
        wall = raw_wall = 0.0
        for cfg in configs:
            cfg.out_dir = out_dir / cfg.label
            with gauge.segment() as seg:
                try:
                    instance = P.oracle.SmallInstance(context=cfg.context())
                    instance.check_guard()
                    exact = P.oracle.sweep_penalties(instance, cfg.penalties_usd_per_kwh)
                    report = P.cli.run_scenario(cfg)
                    base = cfg.context()
                    second = replace(cfg.csa, rng_seed=self.second_seed)
                    extra = {pi: P.csa.optimize(base.with_penalty(pi), second)
                             for pi in cfg.penalties_usd_per_kwh}
                    results.append((exact, report, extra))
                except Exception:
                    results.append(traceback.format_exc())
            wall += seg.corrected_s
            raw_wall += seg.raw_s
        return wall, raw_wall, results

    def verify(self, configs, raw, out_dir: Path) -> Job:
        P = self.P
        wall, raw_wall, results = raw
        job = Job(wall_s=wall, raw_wall_s=raw_wall)
        reports = []
        for cfg, result in zip(configs, results):
            prices = cfg.penalties_usd_per_kwh
            job.attempted += 1 + 2 * len(prices)  # one sweep, two CSA seeds per price
            if isinstance(result, str):
                job.failed += 1 + 2 * len(prices)
                job.problems.append(f"{cfg.label}: {result}")
                continue
            exact, report, extra = result
            instance = P.oracle.SmallInstance(context=cfg.context())
            job.candidates += instance.candidate_count()
            if not all(P.constraints.is_feasible(exact[pi].schedule, cfg.context(pi)).feasible
                       for pi in prices):
                job.fail(f"{cfg.label}: an oracle optimum fails is_feasible")
            ctx = cfg.context()
            original = P.costing.total_cost(ctx.original_schedule(), ctx).total_usd
            for pi, row in zip(prices, report.report["runs"]):
                where = f"{cfg.label} pi={pi}"
                best = exact[pi]
                runs = [("seed A", row["evaluations"], row["generations"],
                         _check_written_run(P, job, cfg, row, cfg.out_dir, pi, where))]
                res = extra[pi]
                total = None
                if not res.success:
                    job.fail(f"{where} seed B: infeasible: {res.message}")
                elif not P.constraints.is_feasible(res.schedule, cfg.context(pi)).feasible:
                    job.fail(f"{where} seed B: schedule fails is_feasible")
                else:
                    total = res.breakdown.total_usd
                runs.append(("seed B", res.evaluations, res.history[-1][0], total))
                for label, evaluations, generations, total in runs:
                    job.evaluations += evaluations
                    job.generations += generations
                    job.stall_stops += generations < cfg.csa.generations
                    if total is None:
                        continue
                    gap = (total - best.total_usd) / max(abs(best.total_usd), 1e-12)
                    if gap < -EXACT_REL:
                        job.fail(f"{where} {label}: CSA total {total} beats the oracle "
                                 f"optimum {best.total_usd}")
                        continue
                    job.csa_scored += 1
                    job.csa_exact += gap <= EXACT_REL
                    job.savings.append((original - total) / original * 100.0)
            reports.append((cfg.out_dir / "report.json").read_bytes())
        job.reports = b"".join(reports)
        job.bytes_written = _dir_bytes(out_dir)
        return job


def make_workload(P, name: str, seed: int, work: Path, tiny: bool):
    if name == "small_vs_oracle":
        return SmallWorkload(P, seed, work, TINY_CSA if tiny else SMALL_CSA,
                             TINY_FAMILIES if tiny else None)
    budget = DAY_GENERATIONS[name]
    return DayWorkload(P, name, seed, work, TINY_CSA if tiny else
                       {"generations": budget, "stall_generations": budget})


def timed_setup(workload):
    start = time.perf_counter()
    configs = workload.setup()
    return time.perf_counter() - start, configs


def run_job(workload, configs, out_dir: Path, gauge: Gauge) -> Job:
    gc.collect()
    raw = workload.run(configs, out_dir, gauge)
    job = workload.verify(configs, raw, out_dir)
    print(f"job {out_dir.name}: wall {job.wall_s:.4f} s corrected, {job.raw_wall_s:.4f} s raw, "
          f"{job.evaluations} evaluations, {job.candidates} oracle candidates")
    return job


# tracing ---------------------------------------------------------------------


def install_tracer(P):
    """Tracer with every public layer function of the program wrapped."""
    tracer = Tracer()
    counts = tracer.counts
    # genotype hashes seen per flow cache (one cache per scenario job),
    # mapped to the penalty price they were last evaluated at
    seen: dict[int, tuple[object, dict[int, float]]] = {}

    def on_solve(args, state):
        counts["feeder.solve_power_flow.iterations"] += state.iterations

    def on_gross(args, _result):
        space, antibody = args[0], args[1]
        ctx = space.context
        cache = ctx._cache
        table = seen.setdefault(id(cache), (cache, {}))[1]
        key = hash(antibody.genes)
        prev = table.get(key)
        if prev is not None and prev != ctx.penalty_price:
            counts["csa.cross_price_repeats"] += 1
        table[key] = ctx.penalty_price

    def on_offspring(args, offspring):
        counts["csa.offspring"] += len(offspring)

    def on_sweep(args, results):
        counts["oracle.candidates"] += args[0].candidate_count()
        counts["oracle.feasible"] += next(iter(results.values())).feasible_count

    ctx_cls = P.costing.ProblemContext
    space_cls = P.csa.SearchSpace
    tracer.install(P.feeder, "solve_power_flow", "feeder.solve_power_flow", on_solve)
    tracer.install(ctx_cls, "slot_flow", "costing.slot_flow")
    tracer.install(ctx_cls, "baseline_loss", "costing.baseline_loss")
    tracer.install(P.costing, "total_cost", "costing.total_cost")
    tracer.install(P.constraints, "is_feasible", "constraints.is_feasible")
    tracer.install(space_cls, "gross", "csa.SearchSpace.gross", on_gross)
    tracer.install(space_cls, "random_antibody", "csa.SearchSpace.random_antibody")
    tracer.install(P.csa, "clone_and_hypermutate", "csa.clone_and_hypermutate", on_offspring)
    tracer.install(P.csa, "optimize", "csa.optimize")
    tracer.install(P.oracle, "sweep_penalties", "oracle.sweep_penalties", on_sweep)
    tracer.install(P.cli, "load_scenario_config", "cli.load_scenario_config")
    tracer.install(P.cli, "run_scenario", "cli.run_scenario")
    tracer.install(P.domain, "aggregate_power", "domain.aggregate_power")
    return tracer


MODULES = ("cli", "csa", "costing", "constraints", "feeder", "oracle", "domain")
PERCENTILE_SPANS = ("feeder.solve_power_flow", "costing.slot_flow",
                    "csa.SearchSpace.gross", "csa.clone_and_hypermutate")


def layer_metrics(tracer, job: Job, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced job, as name -> (value, unit)."""
    spans = tracer.summary()
    counts = tracer.counts

    def span(name: str) -> dict:
        return spans.get(name, {"calls": 0, "self_s": 0.0, "dur_us": np.zeros(0)})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("feeder.solve_power_flow", "costing.slot_flow", "costing.total_cost",
                 "constraints.is_feasible", "csa.SearchSpace.gross",
                 "csa.clone_and_hypermutate", "csa.optimize", "oracle.sweep_penalties",
                 "domain.aggregate_power"):
        out[f"{name}.calls"] = (span(name)["calls"], "count")
        out[f"{name}.self_s"] = (span(name)["self_s"], "s")
    for name in ("cli.load_scenario_config", "cli.run_scenario"):
        out[f"{name}.self_s"] = (span(name)["self_s"], "s")
    for name in PERCENTILE_SPANS:
        dur = span(name)["dur_us"]
        p50, p99 = np.percentile(dur, [50, 99]) if len(dur) else (0.0, 0.0)
        out[f"{name}.p50_us"] = (float(p50), "us")
        out[f"{name}.p99_us"] = (float(p99), "us")
    for module in MODULES:
        total = sum(e["self_s"] for n, e in spans.items() if n.split(".")[0] == module)
        out[f"{module}.self_s"] = (total, "s")

    solves = span("feeder.solve_power_flow")["calls"]
    out["feeder.solve_power_flow.iterations_mean"] = (
        ratio(counts["feeder.solve_power_flow.iterations"], solves), "count")
    out["feeder.solve_power_flow.failures"] = (
        counts["feeder.solve_power_flow.errors"], "count")
    home_solves = tracer.parent_names("feeder.solve_power_flow")["costing.slot_flow"]
    lookups = span("costing.slot_flow")["calls"]
    out["costing.slot_flow.hit_ratio"] = (1.0 - ratio(home_solves, lookups), "ratio")
    out["csa.clone_and_hypermutate.offspring"] = (counts["csa.offspring"], "count")

    generated = (counts["csa.offspring"] + span("csa.optimize")["calls"]
                 + span("csa.SearchSpace.random_antibody")["calls"])
    out["csa.evaluations"] = (job.evaluations, "count")
    out["csa.generations"] = (job.generations, "count")
    out["csa.stall_stops"] = (job.stall_stops, "count")
    out["csa.dup_offspring_frac"] = (1.0 - ratio(job.evaluations, generated), "ratio")
    out["csa.cross_price_repeat_frac"] = (
        ratio(counts["csa.cross_price_repeats"], span("csa.SearchSpace.gross")["calls"]),
        "ratio")
    out["oracle.candidates"] = (counts["oracle.candidates"], "count")
    out["oracle.feasible_frac"] = (
        ratio(counts["oracle.feasible"], counts["oracle.candidates"]), "ratio")
    out["cli.bytes_written"] = (job.bytes_written, "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# command ---------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _range(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def measure(workload, work: Path, seconds: float) -> tuple[dict, list[Job]]:
    """Untraced run: set-ups and a job, repeated until `seconds` are used.

    Every time is corrected for host speed by the gauge (gauge.py): each
    block of set-ups is one segment, each job one or more.
    """
    gauge = Gauge()
    setups: list[tuple[float, float]] = []  # (raw, corrected)
    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        job_start = time.perf_counter()
        with gauge.segment() as block:
            timed = [timed_setup(workload) for _ in range(SETUP_REPEATS)]
        setups += [(elapsed, elapsed * block.scale) for elapsed, _ in timed]
        configs = timed[-1][1]
        jobs.append(run_job(workload, configs, work / f"job{len(jobs)}", gauge))
        now = time.perf_counter()
        # start another job only if it fits in the time left
        if now - start + (now - job_start) > seconds:
            break
    for job in jobs[1:]:
        if job.reports != jobs[0].reports:
            job.fail("report.json differs from the first job of the same seed")
        if job.counts() != jobs[0].counts():
            job.fail(f"counts {job.counts()} differ from the first job's {jobs[0].counts()}")

    walls = [j.wall_s for j in jobs]
    wall = statistics.median(walls)
    raw_wall = statistics.median(j.raw_wall_s for j in jobs)
    rate = statistics.median(j.schedules / j.wall_s for j in jobs)
    savings = [s for j in jobs for s in j.savings]
    setup = statistics.median(corrected for _, corrected in setups)
    raw_setup = statistics.median(raw for raw, _ in setups)
    metrics = {
        "setup_s": _metric(setup, "s"),
        "wall_s": _metric(wall, "s"),
        "schedules_per_s": _metric(rate, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB"),
        "saving_pct": _metric(statistics.fmean(savings) if savings else 0.0, "%"),
    }
    print(f"host speed       reference pass {_range(gauge.passes)} s, against "
          f"{REFERENCE_PASS_S} s; times below are corrected to the latter")
    print(f"setup_s          {setup:.6f} s    median (n={len(setups)}; raw {raw_setup:.6f} s)")
    print(f"wall_s           {wall:.4f} s    median ({_range(walls)}; raw {raw_wall:.4f} s)")
    print(f"schedules_per_s  {rate:.1f} 1/s  median (raw {jobs[0].schedules / raw_wall:.1f} 1/s; "
          f"{jobs[0].evaluations} CSA evaluations + {jobs[0].candidates} oracle "
          f"candidates per job)")
    print(f"peak_rss_mb      {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"saving_pct       {metrics['saving_pct']['value']:.4f} %   "
          f"(mean over {len(savings)} runs)")
    scored = sum(j.csa_scored for j in jobs)
    if scored:
        print(f"exact_frac       {sum(j.csa_exact for j in jobs) / scored:.4f}     "
              f"({sum(j.csa_exact for j in jobs)}/{scored} CSA runs at the oracle optimum)")
    return metrics, jobs


def traced(P, workload, work: Path, seed: int, name: str) -> tuple[dict, list[Job]]:
    """One untraced job, then one traced set-up and job; per-layer metrics."""
    gauge = Gauge(sample=False)
    _, configs = timed_setup(workload)
    plain = run_job(workload, configs, work / "plain", gauge)
    tracer = install_tracer(P)
    try:
        gc.collect()
        _, configs = timed_setup(workload)
        out_dir = work / "traced"
        raw = workload.run(configs, out_dir, gauge)
    finally:
        tracer.restore()
    job = workload.verify(configs, raw, out_dir)
    if job.reports != plain.reports:
        job.fail("traced report.json differs from the untraced one")
    if job.counts() != plain.counts():
        job.fail(f"traced counts {job.counts()} differ from untraced {plain.counts()}")

    overhead = job.wall_s - plain.wall_s
    layers = layer_metrics(tracer, job, overhead)
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{name}.npz"
    tracer.write(trace_file, {**machine_info(seed), "workload": name,
                              "traced_wall_s": job.wall_s, "untraced_wall_s": plain.wall_s})
    print(f"traced wall_s {job.wall_s:.4f} s, untraced {plain.wall_s:.4f} s, "
          f"overhead {overhead:.4f} s ({overhead / plain.wall_s * 100:.1f} %); "
          f"spans in {trace_file.relative_to(ROOT)}")
    width = max(len(n) for n in layers)
    for metric, (value, unit) in layers.items():
        print(f"{metric:<{width}}  {value:.6g} {unit}")
    return {k: _metric(v, u) for k, (v, u) in layers.items()}, [plain, job]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few CSA generations, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        P = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    info = machine_info(args.seed)
    print(f"dsmsched {P.version} workload {args.workload} seed {args.seed} "
          f"scale {args.scale} trace {args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = make_workload(P, args.workload, args.seed, work, args.scale == "tiny")
        if args.trace:
            metrics, jobs = traced(P, workload, work, args.seed, args.workload)
        else:
            metrics, jobs = measure(workload, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    for job in jobs:
        for problem in job.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    print(f"failed_frac      {failed / max(attempted, 1):.4f}     ({failed}/{attempted} operations)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
