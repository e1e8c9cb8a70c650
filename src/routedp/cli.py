"""Command-line front end: solve, generate, verify and bench subcommands.

Exit codes: 0 success, 1 an error row (solve, bench) or a verification
mismatch, 2 usage error.  Reports are CSV (one header line, then rows
ordered by instance id; fields holding commas are quoted) or a JSON array
with --json.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import exact
from .heatmaps import Heatmap, read_heatmap
from .instances import (Instance, ProblemKind, generate_tsp, generate_tsptw,
                        generate_vrp, read_instance, write_instance)
from .policy import Policy
from .solver import SolverConfig, solve

GENERATORS = {
    ProblemKind.TSP: lambda n, seed, mw: generate_tsp(n, seed),
    ProblemKind.VRP: lambda n, seed, mw: generate_vrp(n, seed),
    ProblemKind.TSPTW: lambda n, seed, mw: generate_tsptw(n, seed, mw),
}


@dataclass
class ReportRow:
    instance: str
    cost: float | None
    feasible: bool
    beam_size: int
    policy: str
    sparsification: str
    solve_time: float | None   # None if no solve returned
    heatmap_time: float
    error: str | None = None

    def fields(self) -> list[str]:
        cost = "" if self.cost is None else repr(self.cost)
        solve_time = "" if self.solve_time is None else f"{self.solve_time:.6f}"
        return [self.instance, cost, str(int(self.feasible)), str(self.beam_size),
                self.policy, self.sparsification, solve_time,
                f"{self.heatmap_time:.6f}", self.error or ""]


REPORT_COLUMNS = [f.name for f in fields(ReportRow)]


def _write_csv(path: Path, rows) -> None:
    """Rows as CSV; a field holding a comma or quote is quoted."""
    with path.open("w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


@dataclass
class RunReport:
    rows: list[ReportRow]
    ref_costs: dict[str, float] | None = None

    @property
    def mean_cost(self) -> float | None:
        costs = [r.cost for r in self.rows if r.cost is not None]
        return sum(costs) / len(costs) if costs else None

    @property
    def mean_gap(self) -> float | None:
        if not self.ref_costs:
            return None
        gaps = [(r.cost - self.ref_costs[r.instance]) / self.ref_costs[r.instance]
                for r in self.rows
                if r.cost is not None and r.instance in self.ref_costs]
        return sum(gaps) / len(gaps) if gaps else None

    @property
    def total_time(self) -> float:
        return sum((r.solve_time or 0.0) + r.heatmap_time for r in self.rows)

    def write(self, path: Path, as_json: bool) -> None:
        if as_json:
            path.write_text(json.dumps([asdict(r) for r in self.rows], indent=1),
                            encoding="utf-8")
        else:
            _write_csv(path, [REPORT_COLUMNS] + [r.fields() for r in self.rows])

    def summary(self) -> str:
        parts = [f"instances={len(self.rows)}"]
        if self.mean_cost is not None:
            parts.append(f"mean_cost={self.mean_cost:.6f}")
        if self.mean_gap is not None:
            parts.append(f"mean_gap={self.mean_gap:.6%}")
        parts.append(f"total_time={self.total_time:.2f}s")
        return " ".join(parts)


def _instance_paths(spec: str) -> list[Path]:
    p = Path(spec)
    if p.is_dir():
        paths = sorted(q for q in p.iterdir() if q.suffix == ".json")
        if not paths:
            raise FileNotFoundError(f"no .json instance files in {spec}")
        return paths
    if p.is_file():
        return [p]
    raise FileNotFoundError(f"no instance file or directory at {spec}")


def _sparsification_label(config: SolverConfig) -> str:
    if config.knn is not None:
        return f"knn={config.knn}"
    return f"threshold={config.threshold:g}"


def _load_ref_costs(path: str | None) -> dict[str, float] | None:
    if path is None:
        return None
    refs = {}
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        fields = line.split()
        if fields:
            try:
                cost = float(fields[1]) if len(fields) == 2 else math.nan
            except ValueError:
                cost = math.nan
            if not (math.isfinite(cost) and cost > 0):
                raise ValueError(f"{path} line {i}: want '<instance> <cost>', cost finite and > 0")
            if fields[0] in refs:
                raise ValueError(f"{path} line {i}: instance {fields[0]!r} is listed twice")
            refs[fields[0]] = cost
    return refs


def _solve_one(args: tuple) -> ReportRow:
    path, problem, heatmap_dir, config, out_dir = args
    instance_id = path.stem
    label = _sparsification_label(config)
    hm_time, solve_time = 0.0, None
    try:
        instance = read_instance(path)
        if problem is not None and instance.kind.value != problem:
            raise ValueError(f"{path}: problem {instance.kind.value} but --problem {problem}")
        heatmap: Heatmap | None = None
        if heatmap_dir is not None:
            hp = Path(heatmap_dir) / f"{instance_id}.heat"
            t0 = time.perf_counter()
            heatmap = read_heatmap(hp, instance.n)
            hm_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = solve(instance, config, heatmap=heatmap)
        solve_time = time.perf_counter() - t0
        if result.found and out_dir is not None:
            sol = result.solution
            out = {"actions": list(sol.actions), "routes": [list(r) for r in sol.routes],
                   "cost": sol.cost}
            (Path(out_dir) / f"{instance_id}.sol.json").write_text(
                json.dumps(out), encoding="utf-8")
    except (OSError, ValueError, RuntimeError) as exc:   # one failed file, not the batch
        return ReportRow(instance_id, None, False, config.beam_size,
                         config.policy.value, label, solve_time, hm_time, error=str(exc))
    if not result.found:
        return ReportRow(instance_id, None, False, config.beam_size,
                         config.policy.value, label, solve_time, hm_time,
                         error=f"beam died at step {result.failed_at_step}")
    return ReportRow(instance_id, result.solution.cost, True, config.beam_size,
                     config.policy.value, label, solve_time, hm_time)


def _run_solves(paths, problem, heatmap_dir, config, out_dir, jobs: int) -> list[ReportRow]:
    work = [(p, problem, heatmap_dir, config, out_dir) for p in paths]
    workers = min(jobs, len(work))   # a worker per instance at most
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_solve_one, work))
    else:
        rows = [_solve_one(w) for w in work]
    return sorted(rows, key=lambda r: r.instance)


def _config_from_args(args, beam_size=None, policy=None, threshold=None,
                      knn=None, dominance=None) -> SolverConfig:
    return SolverConfig(
        beam_size=beam_size if beam_size is not None else args.beam_size,
        policy=Policy(policy if policy is not None else args.policy),
        threshold=threshold,
        knn=knn,
        dominance_enabled=(dominance if dominance is not None
                           else args.dominance == "on"),
        invert_cost_heat=getattr(args, "invert_cost_heat", False),
    )


def cmd_solve(args) -> int:
    paths = _instance_paths(args.instances)
    config = _config_from_args(args, threshold=args.threshold, knn=args.knn)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    refs = _load_ref_costs(args.ref_costs)   # a bad file fails before any solve
    rows = _run_solves(paths, args.problem, args.heatmap_dir, config, args.out, args.jobs)
    report = RunReport(rows, refs)
    dest = Path(args.out or ".") / ("report.json" if args.json else "report.csv")
    report.write(dest, args.json)
    print(report.summary())
    return 0 if all(r.error is None for r in report.rows) else 1


def cmd_generate(args) -> int:
    kind = ProblemKind(args.problem)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        instance = GENERATORS[kind](args.n, args.seed + i, args.max_window)
        write_instance(instance, out / f"{kind.value}{args.n}_{args.seed + i:04d}.json")
    print(f"wrote {args.count} {kind.value} instances to {out}")
    return 0


def cmd_verify(args) -> int:
    kind = ProblemKind(args.problem)
    config = SolverConfig(beam_size=args.beam_size, policy=Policy(args.policy),
                          threshold=0.0)
    oracle = exact.exact_dp if args.oracle == "dp" else exact.brute_force
    failures = []
    for i in range(args.count):
        instance = GENERATORS[kind](args.n, args.seed + i, args.max_window)
        ref = oracle(instance)
        result = solve(instance, config)
        if not ref.feasible:
            ok = not result.found
            shown = "infeasible" if ok else f"solver found {result.solution.cost:.6f}"
        elif not result.found:
            ok, shown = False, "solver found nothing"
        else:
            ok = abs(result.solution.cost - ref.optimal_cost) <= 1e-9
            shown = f"{result.solution.cost:.9f} vs optimum {ref.optimal_cost:.9f}"
        print(f"seed {args.seed + i}: {'PASS' if ok else 'FAIL'} ({shown})")
        if not ok:
            failures.append(args.seed + i)
    print(f"{args.count - len(failures)}/{args.count} passed")
    if failures:
        print(f"failing seeds: {failures}")
        return 1
    return 0


def cmd_bench(args) -> int:
    paths = _instance_paths(args.instances)
    sparsifications: list[tuple[float | None, int | None]] = \
        [(t, None) for t in args.beam_thresholds] + [(None, k) for k in args.knns]
    if not sparsifications:
        sparsifications = [(1e-5, None)]
    settings = args.dominance.split(",")
    if any(d not in ("on", "off") for d in settings):
        raise ValueError(f"--dominance must list 'on'/'off', got {args.dominance!r}")
    dominances = [d == "on" for d in settings]
    configs = [
        _config_from_args(args, beam_size=b, policy=p, threshold=t, knn=k, dominance=d)
        for b in args.beam_sizes for p in args.policies
        for (t, k) in sparsifications for d in dominances
    ]
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    all_rows: list[tuple[str, ReportRow]] = []
    summary = [["config", "mean_cost", "mean_time"]]
    for config in configs:
        label = (f"B={config.beam_size}|{config.policy.value}|"
                 f"{_sparsification_label(config)}|dom="
                 f"{'on' if config.dominance_enabled else 'off'}")
        rows = _run_solves(paths, args.problem, args.heatmap_dir, config, None, args.jobs)
        all_rows.extend((label, r) for r in rows)
        mean_cost = RunReport(rows).mean_cost
        times = [r.solve_time for r in rows if r.solve_time is not None]
        mean_time = sum(times) / len(times) if times else math.nan
        summary.append([label, repr(math.nan if mean_cost is None else mean_cost),
                        f"{mean_time:.6f}"])
    _write_csv(out / "bench_rows.csv", [["config"] + REPORT_COLUMNS]
               + [[label] + row.fields() for label, row in all_rows])
    _write_csv(out / "bench_summary.csv", summary)
    print("\n".join(",".join(r) for r in summary))
    return 0 if all(r.error is None for _, r in all_rows) else 1


def _number_list(kind):
    """Parser of a comma-separated list flag that must name a number."""
    def parse(text: str) -> list:
        values = [kind(x) for x in text.split(",") if x]
        if not values:
            raise argparse.ArgumentTypeError(f"no numbers in {text!r}")
        return values
    parse.__name__ = f"{kind.__name__} list"   # argparse names it in errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routedp",
                                     description="Heatmap-guided beam DP routing solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_solver_flags(p, dominance_list=False):
        p.add_argument("--problem", choices=[k.value for k in ProblemKind])
        p.add_argument("--instances", required=True)
        p.add_argument("--heatmap-dir")
        p.add_argument("--policy", default=Policy.HEAT_POTENTIAL.value,
                       choices=[v.value for v in Policy])
        p.add_argument("--invert-cost-heat", action="store_true")
        if dominance_list:
            # bench sweeps dominance settings, e.g. --dominance on,off
            p.add_argument("--dominance", default="on")
        else:
            p.add_argument("--dominance", choices=["on", "off"], default="on")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out")

    ps = sub.add_parser("solve", help="solve instances and write a report")
    common_solver_flags(ps)
    ps.add_argument("--beam-size", type=int, required=True)
    ps.add_argument("--threshold", type=float, default=None)
    ps.add_argument("--knn", type=int, default=None)
    ps.add_argument("--ref-costs")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("generate", help="generate random instance files")
    pg.add_argument("--problem", required=True, choices=[k.value for k in ProblemKind])
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--count", type=int, default=1)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--max-window", type=float, default=1000.0)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_generate)

    pv = sub.add_parser("verify", help="check solve output against exact oracles")
    pv.add_argument("--problem", required=True, choices=[k.value for k in ProblemKind])
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--count", type=int, default=10)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--max-window", type=float, default=1000.0)
    pv.add_argument("--beam-size", type=int, required=True)
    pv.add_argument("--policy", default=Policy.COST_HEAT_POTENTIAL.value,
                    choices=[v.value for v in Policy])
    pv.add_argument("--oracle", choices=["brute", "dp"], default="brute")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bench", help="sweep configurations and emit a table")
    common_solver_flags(pb, dominance_list=True)
    pb.add_argument("--beam-sizes", type=_number_list(int), required=True)
    pb.add_argument("--beam-thresholds", "--thresholds", type=_number_list(float),
                    default=[], dest="beam_thresholds")
    pb.add_argument("--knns", type=_number_list(int), default=[])
    pb.add_argument("--policies", type=lambda s: s.split(","),
                    default=[Policy.COST_HEAT_POTENTIAL.value])
    pb.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threshold", None) is not None and getattr(args, "knn", None) is not None:
        parser.error("--threshold and --knn are mutually exclusive")
    for flag in ("jobs", "count"):
        if getattr(args, flag, 1) < 1:
            parser.error(f"--{flag} must be >= 1")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
