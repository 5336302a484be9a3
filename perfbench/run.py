"""Benchmark of ``rulemine mine`` on deterministic synth cohorts.

    python3 perfbench/run.py --workload paper_death --seed 7 --seconds 50 --trace 0

With ``--trace 0`` the bench writes the workload's cohort with
``rulemine synth`` children, shuffles it by ``--seed``, then runs
``rulemine mine`` children one at a time (a closed loop with one client)
for about ``--seconds`` seconds. It reports end-to-end metrics read from
outside each child: wall clock, and CPU time and peak RSS from
``os.wait4``. Those times are scaled by a fixed reference computation
timed between the children (see ``reference``). With ``--trace 1`` it
runs the same pipeline in process, one span per layer call, and reports
per-layer metrics. Every report is checked by ``check.py`` outside the
timed child.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Per-run details (git HEAD,
Python version, nproc, exact argv, every sample) go to
``.perfbench/results/`` and spans to ``.perfbench/spans/``, both at the
root of the checkout. README.md in this directory describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

from check import Thresholds, check_report, expected_rules, frequent_itemsets, load_cohort
from workloads import MIN_LIFT, WORKLOADS, Workload, shuffle_cohort

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 5  # synth children per run; setup_s is their median
STARTUP_REPS = 5  # `mine --help` children per traced run
MAX_PROBLEMS = 20  # check problems kept in the result file
# End-to-end times are multiplied by REF_S / (mean reference time of the
# run), so they read as seconds on a machine where the reference takes
# REF_S. Each workload's ``ref_reps`` makes the reference about 1 s on the
# 2-CPU Xeon VM the bench was built on.
REF_S = 1.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# spans whose self time (summed over one pass) is a metric "<span>_s"
TIMED_SPANS = (
    "ingest.parse", "ingest.filter_cohort", "ingest.derive", "ingest.sparse",
    "features.select", "features.project", "apriori.mine", "rules.generate", "cli.report",
)
# spans whose tracemalloc peak is a metric "<span>_peak_mb"
PEAK_SPANS = ("ingest.parse", "ingest.derive", "apriori.mine", "rules.generate")
PER_LAYER = {
    **{f"{s}_s": "s" for s in TIMED_SPANS},
    **{f"{s}_peak_mb": "MB" for s in PEAK_SPANS},
    "synth.generate_s": "s",
    "synth.serialize_s": "s",
    "cli.startup_s": "s",
    "cli.report_bytes": "bytes",
    "ingest.rows_parsed": "count",
    "ingest.rows_dropped_sparse": "count",
    "features.selected": "count",
    "apriori.candidates": "count",
    "apriori.frequent": "count",
    "apriori.hit_ratio": "ratio",
    "apriori.levels": "count",
    "rules.enumerated": "count",
    "rules.emitted": "count",
    "rules.yield": "ratio",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}


def rulemine_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "rulemine", *argv]


@dataclass
class Child:
    argv: list[str]
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list[str], stdout: Path) -> Child:
    """Run ``python -m rulemine argv`` from this checkout's src; time it from outside."""
    cmd = rulemine_cmd(argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Child(cmd, p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)


def closed_loop(step, seconds: float) -> None:
    """Call ``step`` back to back while the next call should end within ``seconds``."""
    t0 = time.perf_counter()
    durations: list[float] = []
    while True:
        t = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100 * (k + 1) / n, sorted(values)[k]


def thresholds(wl: Workload) -> Thresholds:
    return Thresholds(
        min_support=wl.min_support, min_lift=MIN_LIFT,
        target=wl.target, min_symptoms=wl.min_symptoms,
    )


@dataclass
class Setup:
    """The cohort a run mines, and what writing it cost."""

    synth_argv: list[str]
    synth_text: str  # what synth wrote
    path: Path  # the shuffled cohort the mine children read
    text: str
    setup_walls: list[float]
    problems: list[str]


def setup_cohort(wl: Workload, seed: int, run_dir: Path, reps: int) -> Setup:
    """Write the cohort with ``reps`` synth children, then shuffle it by ``seed``."""
    synth_csv = run_dir / "synth.csv"
    argv = wl.synth_argv(str(synth_csv))
    walls, digests, problems = [], set(), []
    for _ in range(reps):
        c = run_child(argv, run_dir / "synth.out")
        walls.append(c.wall_s)
        if c.rc != 0:
            problems.append(f"synth exited with {c.rc}")
        else:
            digests.add(digest(synth_csv))
    if len(digests) > 1:
        problems.append("synth wrote different cohorts from one spec")
    synth_text = synth_csv.read_text(encoding="utf-8") if digests else ""
    text = shuffle_cohort(synth_text, seed) if digests else ""
    path = run_dir / "cohort.csv"
    path.write_text(text, encoding="utf-8")
    return Setup(rulemine_cmd(argv), synth_text, path, text, walls, problems)


def reference(cohort: Setup, wl: Workload) -> float:
    """Seconds the checker takes to enumerate the cohort's rules ``wl.ref_reps`` times.

    The work depends only on the cohort and the bench's own code, never on
    ``src/``, so its time follows the speed of the machine alone.
    """
    th = thresholds(wl)
    t0 = time.perf_counter()
    for _ in range(wl.ref_reps):
        kept = load_cohort(cohort.text, th)
        expected_rules(frequent_itemsets(kept, th.min_support), kept.n, th.min_lift, None)
    return time.perf_counter() - t0


def check_child(c: Child, report: Path, cohort: Setup, wl: Workload) -> list[str]:
    if c.rc != 0:
        err = report.with_suffix(".err").read_text(errors="replace").strip()
        return [f"mine exited with {c.rc}: {err[-300:]}"]
    return check_report(cohort.text, report.read_text(encoding="utf-8"), thresholds(wl), wl.rows)


def measure_end_to_end(wl: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    cohort = setup_cohort(wl, seed, run_dir, SETUP_REPS)
    argv = wl.mine_argv(str(cohort.path))
    report, first = run_dir / "report.csv", run_dir / "first.csv"
    samples: list[Child] = []
    digests: list[str | None] = []
    refs = [reference(cohort, wl)]

    def step():
        c = run_child(argv, report)
        samples.append(c)
        digests.append(digest(report) if c.rc == 0 else None)
        if len(samples) == 1:
            shutil.copyfile(report, first)
            shutil.copyfile(report.with_suffix(".err"), first.with_suffix(".err"))
        refs.append(reference(cohort, wl))

    t0 = time.perf_counter()
    closed_loop(step, seconds)
    measured_s = time.perf_counter() - t0

    # the first report is checked in full; every later one must equal it byte for byte
    problems = cohort.problems + check_child(samples[0], first, cohort, wl)
    ok = [not problems and d == digests[0] for d in digests]
    if not problems:
        problems += [f"mine run {i} output differs from run 0: rc {c.rc}"
                     for i, (c, good) in enumerate(zip(samples, ok)) if not good]
    good = [c for c, g in zip(samples, ok) if g] or samples
    unscaled = {
        "wall_s": statistics.median(c.wall_s for c in good),
        "cpu_s": statistics.median(c.cpu_s for c in good),
        "setup_s": statistics.median(cohort.setup_walls),
        "reference_s": statistics.fmean(refs),
    }
    scale = REF_S / unscaled["reference_s"]
    failed = ok.count(False)
    return {
        "metrics": {
            "wall_s": unscaled["wall_s"] * scale,
            "cpu_s": unscaled["cpu_s"] * scale,
            "rows_per_s": wl.n / (unscaled["wall_s"] * scale),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in good),
            "setup_s": unscaled["setup_s"] * scale,
        },
        "attempted": len(samples),
        "failed": failed,
        "problems": problems,
        "notes": {
            "wall_s": f"median of {len(good)} runs in {measured_s:.1f} s, scaled",
            "cpu_s": "median child user+sys, scaled",
            "rows_per_s": f"{wl.n} input rows / wall_s",
            "peak_rss_mb": "median child ru_maxrss",
            "setup_s": f"median of {len(cohort.setup_walls)} synth runs, scaled",
        },
        "extra": {
            "unscaled": unscaled,
            "wall_s_tail": tail([c.wall_s * scale for c in good]),
            "fail_frac": (failed, len(samples)),
        },
        "argv": {"synth": cohort.synth_argv, "mine": samples[0].argv},
        "samples": [asdict(c) | {"sha256": d} for c, d in zip(samples, digests)],
        "setup_walls": cohort.setup_walls,
        "reference_walls": refs,
    }


def measure_layers(wl: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    import tracing  # imports rulemine, so only after main() has put src/ on sys.path

    cohort = setup_cohort(wl, seed, run_dir, 1)
    problems = cohort.problems
    synth_tr = tracing.Tracer(f"{wl.name}-{seed}-synth")
    if tracing.synth(wl, synth_tr) != cohort.synth_text:
        problems.append("in-process synth differs from the synth child's cohort")

    startup = statistics.median(
        run_child(["mine", "--help"], run_dir / "help.out").wall_s for _ in range(STARTUP_REPS)
    )
    argv = wl.mine_argv(str(cohort.path))
    report = run_dir / "report.csv"
    child = run_child(argv, report)
    problems += check_child(child, report, cohort, wl)
    child_report = report.read_text(encoding="utf-8") if child.rc == 0 else None
    failed = int(bool(problems))

    passes: list[tracing.Tracer] = []
    results: list[tracing.MineResult] = []

    def step():
        tr = tracing.Tracer(f"{wl.name}-{seed}-pass{len(passes)}")
        results.append(tracing.mine(argv, tr))
        passes.append(tr)

    closed_loop(step, seconds)
    mem = tracing.Tracer(f"{wl.name}-{seed}-tracemalloc", memory=True)
    tracemalloc.start()
    try:
        results.append(tracing.mine(argv, mem))
    finally:
        tracemalloc.stop()
    for i, r in enumerate(results):
        if r.report != child_report:
            failed += 1
            problems.append(f"traced pass {i} report differs from the CLI child's")

    selfs = [tr.self_times() for tr in passes]
    total = statistics.median(tr.duration("cli.mine") for tr in passes)
    cnt = results[0].counters
    metrics = {
        **{f"{s}_s": statistics.median(st[s] for st in selfs) for s in TIMED_SPANS},
        **{f"{s}_peak_mb": mem.peak_mb()[s] for s in PEAK_SPANS},
        "synth.generate_s": synth_tr.duration("synth.generate"),
        "synth.serialize_s": synth_tr.duration("synth.serialize"),
        "cli.startup_s": startup,
        **{k: v for k, v in cnt.items() if k in PER_LAYER},
        "apriori.hit_ratio": cnt["apriori.frequent_k2"] / cnt["apriori.candidates"],
        "rules.yield": cnt["rules.emitted"] / cnt["rules.enumerated"],
        "trace.total_s": total,
        "trace.overhead_s": total - (child.wall_s - startup),
    }
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    with open(spans_dir / f"{wl.name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for tr in (synth_tr, *passes, mem):
            for s in tr.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
    return {
        "metrics": metrics,
        "attempted": len(results) + 1,
        "failed": failed,
        "problems": problems,
        "notes": {
            **{f"{s}_s": "self time" for s in TIMED_SPANS},
            **{f"{s}_peak_mb": "tracemalloc peak above entry" for s in PEAK_SPANS},
            "cli.startup_s": f"median of {STARTUP_REPS} `mine --help` children",
            "apriori.hit_ratio": f"{cnt['apriori.frequent_k2']} frequent (size >= 2) of "
            f"{cnt['apriori.candidates']} candidates",
            "rules.yield": f"{cnt['rules.emitted']} emitted of {cnt['rules.enumerated']} "
            "enumerated partitions",
            "trace.total_s": f"median of {len(passes)} traced passes",
            "trace.overhead_s": f"trace.total_s - (CLI wall {child.wall_s:.4f} s "
            f"- startup {startup:.4f} s)",
        },
        "extra": {"layer_self_s": layer_self_times(selfs)},
        "argv": {"synth": cohort.synth_argv, "mine": child.argv},
        "samples": [asdict(child)],
    }


def layer_self_times(selfs: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each layer's self time (spans named ``layer.*``)."""
    per_pass = []
    for st in selfs:
        layers: dict[str, float] = {}
        for name, v in st.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + v
        per_pass.append(layers)
    return {layer: statistics.median(p[layer] for p in per_pass) for layer in per_pass[0]}


def git_head() -> str | None:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_result(name: str, seed: int, res: dict) -> None:
    status = "passed" if not res["problems"] else f"FAILED ({len(res['problems'])} problems)"
    print(f"{name} seed {seed}: {res['attempted']} mine runs, output check {status}")
    for p in res["problems"][:5]:
        print(f"  problem: {p}")
    for metric, unit in res["units"].items():
        v = res["metrics"][metric]
        value = f"{v:>16}" if isinstance(v, int) else f"{v:>16.6f}"
        print(f"  {metric:<28} {value} {unit:<7} {res['notes'].get(metric, '')}")
    extra = res["extra"]
    if "unscaled" in extra:
        raw = ", ".join(f"{k} {v:.4f}" for k, v in extra["unscaled"].items())
        print(f"  unscaled (s): {raw}")
    if "wall_s_tail" in extra:
        n = len(res["samples"])
        if extra["wall_s_tail"] is None:
            print(f"  {'wall_s_tail':<28} {'undefined':>16} {'s':<7} "
                  f"{n} samples; a tail needs at least 11")
        else:
            pct, v = extra["wall_s_tail"]
            print(f"  {'wall_s_tail':<28} {v:>16.6f} {'s':<7} p{pct:g} of {n} samples")
        failed, attempted = extra["fail_frac"]
        print(f"  {'fail_frac':<28} {failed / attempted:>16.6f} {'ratio':<7} "
              f"{failed} of {attempted} runs")
    if "layer_self_s" in extra:
        layers = ", ".join(f"{k} {v:.4f}" for k, v in extra["layer_self_s"].items())
        print(f"  self time per layer (s): {layers}")


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[name]
    run_dir = WORK / "runs" / f"{name}-seed{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        measure = measure_layers if traced else measure_end_to_end
        res = measure(wl, seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    res["problems"] = res["problems"][:MAX_PROBLEMS]
    res["units"] = PER_LAYER if traced else END_TO_END
    res["meta"] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "git_head": git_head(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(res, indent=2) + "\n", encoding="utf-8"
    )
    print_result(name, seed, res)
    return res


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=7, help="shuffles each cohort's rows and columns")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="time to spend on mine children (traced passes with --trace 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rulemine" / "__init__.py").is_file():
        print(f"perfbench: no rulemine package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    metrics = {}
    for n, res in results.items():
        prefix = "" if len(names) == 1 else f"{n}."
        for metric, unit in res["units"].items():
            metrics[prefix + metric] = {"value": res["metrics"][metric], "unit": unit}
    print(json.dumps({
        "correct": all(not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
