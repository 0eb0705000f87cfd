"""Benchmark of the `lflp` command line.

    python3 perfbench/run.py --workload solve-opt --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each operation calls `lflp.cli.main`
in-process with stdout captured and checks the output against a
reference built without `lflp`.  One client, one operation in flight,
closed loop: the next operation starts when the last one ends.

--trace 0 measures whole cycles of the workload (see workloads.py) for
about --seconds, and prints the end-to-end metrics.  Their times are
normalized to the host's speed of the moment (see calibrate.py).  --trace 1
runs a fixed plan instead, untraced and traced cycles alternating, so
its counts cover the same operations whatever the speed of the code,
then probes deep inputs past the parser's recursion limit, and prints
the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Per-operation
records and the spans go to perfbench/out/.

Exit codes: 0 after a run, 2 when the checkout lacks the sources or
data the benchmark needs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import calibrate
from tracing import ROOT_SPAN, Tracer
from workloads import Compile, Data, Deep, Op, SolveNaive, SolveOpt

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = {w.name: w for w in (SolveOpt, SolveNaive, Compile, Deep)}
CAP_S = 10.0          # per-operation wall-clock cap; past it the op fails
PROBE_CAP_S = 60.0    # cap for the 9-binder probe of the traced compile run
HARD_STOP_S = 150.0   # no operation starts after this, whatever --seconds says
SETUP_RUNS = 9        # at least this many fresh-process imports; setup_s is their median
TRACED_CYCLES = 2     # traced cycles in a --trace 1 run, each after an untraced one

SETUP_CODE = ("import time; t = time.perf_counter(); import lflp.cli; "
              "print(time.perf_counter() - t)")


class OpTimeout(BaseException):
    """Raised inside an operation that passes its cap."""


@dataclass
class Result:
    op: Op
    seconds: float
    status: str          # "ok", "wrong", "Timeout" or the exception's type
    why: str = ""
    cycle: int = 0
    traced: bool = False
    norm: float = 0.0    # seconds normalized to calibrate.REF_S

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Runner:
    def __init__(self, cli, tmp: Path, tracer: Optional[Tracer] = None):
        self.cli = cli
        self.tmp = tmp
        self.tracer = tracer
        self.n = 0
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            raise OpTimeout()

    def execute(self, op: Op, cap: float, op_id: Optional[int] = None) -> Result:
        """Run one operation; `op_id` set means traced under that id."""
        self.n += 1
        path = self.tmp / f"op{self.n}.elf"
        path.write_text(op.sig, encoding="utf-8")
        argv = op.argv(str(path))
        out = io.StringIO()
        tr = self.tracer if op_id is not None else None
        status, why, rc = "", "", None
        gc.collect()
        if tr:
            tr.op_id = op_id
            root = tr.name_id(ROOT_SPAN)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, cap)
        t0 = perf_counter()
        try:
            span = tr.begin(root) if tr else None
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = self.cli.main(argv)
            finally:
                if tr:
                    tr.finish(span)
        except OpTimeout:
            status = "Timeout"
        except Exception as exc:  # a crash of the program under test
            status = type(exc).__name__
            why = next(iter(str(exc).splitlines()), "")[:200]
        finally:
            seconds = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.armed = False
        path.unlink()
        if tr:
            tr.settle()
        if not status:
            why = op.check(rc, out.getvalue(), op) or ""
            status = "wrong" if why else "ok"
        return Result(op, seconds, status, why)


def setup_sample() -> tuple[float, float]:
    """Import time of lflp.cli in a fresh interpreter: (raw, normalized)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    before = calibrate.sample()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    raw = float(proc.stdout)
    return raw, raw * calibrate.REF_S / ((before + calibrate.sample()) / 2)


# ---------------------------------------------------------------------------
# Metrics

def charged(r: Result) -> float:
    """An operation's time, with a failure costing the cap on top, so it
    ranks behind every success and counts as missing any latency limit."""
    return r.norm if r.ok else CAP_S + r.norm


def end_to_end(results: list[Result], setup: list[tuple[float, float]],
               premise_ops: list[Result]) -> tuple[dict, list[str]]:
    """The gated metrics, from normalized times; the notes give the raw
    wall-clock figures beside them."""
    n = len(results)
    ok = [r for r in results if r.ok]
    times = sorted(charged(r) for r in results)
    raw = sorted(r.seconds if r.ok else CAP_S + r.seconds for r in results)
    slowest: dict[int, Result] = {}
    for r in results:
        if r.cycle not in slowest or charged(r) > charged(slowest[r.cycle]):
            slowest[r.cycle] = r
    tail = statistics.median_low(charged(r) for r in slowest.values())
    raw_tail = statistics.median_low(r.seconds if r.ok else CAP_S + r.seconds
                                     for r in slowest.values())
    total, raw_total = sum(times), sum(raw)
    elems = sum(r.op.size for r in ok)
    by_mode = {"optimized": 0, "naive": 0}
    for r in premise_ops:
        if r.ok and r.op.premises is not None:
            by_mode[r.op.props["mode"]] += r.op.premises
    metrics = {
        "setup_s": (statistics.median(norm for _, norm in setup), "s"),
        "op_p50_s": (times[(n - 1) // 2], "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(ok) / total, "1/s"),
        "ok_frac": (len(ok) / n, "ratio"),
        "elems_per_s": (elems / total, "1/s"),
        "premise_ratio": (by_mode["optimized"] / by_mode["naive"]
                          if by_mode["naive"] else float("nan"), "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh-process imports; "
                   f"raw {statistics.median(r for r, _ in setup):.6g} s",
        "op_p50_s": f"median of {n} operations; raw {raw[(n - 1) // 2]:.6g} s",
        "op_tail_s": f"slowest operation of a cycle, median of {len(slowest)} "
                     f"cycles; raw {raw_tail:.6g} s",
        "ops_per_s": f"{len(ok)} successes / {total:.3f} s charged op time; "
                     f"raw {len(ok) / raw_total:.6g}",
        "ok_frac": f"{len(ok)} of {n}",
        "elems_per_s": f"{elems} elements / {total:.3f} s; raw {elems / raw_total:.6g}",
        "premise_ratio": f"{by_mode['optimized']} optimized / {by_mode['naive']} naive premises",
    }
    return metrics, [f"{k:<16} {v:<14.6g} {u:<6} {notes[k]}" for k, (v, u) in metrics.items()]


def failures(results: list[Result]) -> list[str]:
    kinds: dict[str, list[Result]] = {}
    for r in results:
        if not r.ok:
            kinds.setdefault(r.status, []).append(r)
    lines = []
    for kind, rs in sorted(kinds.items()):
        sizes = sorted(r.op.size for r in rs)
        lines.append(f"failed: {len(rs)} x {kind}, sizes {sizes[0]}..{sizes[-1]}"
                     + (f"; first: {rs[0].why}" if rs[0].why else ""))
    return lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Runs

def untraced_run(runner: Runner, wl, seconds: float, t_start: float
                 ) -> tuple[list[Result], list[tuple[float, float]]]:
    """Whole cycles while the next one, as long as the last, ends within
    `seconds`.  A calibration sample brackets every operation, and a
    set-up sample precedes every cycle, so setup_s sees the same stretch
    of time as the rest."""
    results: list[Result] = []
    cals: list[float] = []
    setup: list[tuple[float, float]] = []
    cycle, last, stopped = 0, 0.0, False
    while not stopped and (cycle == 0 or perf_counter() - t_start + last <= seconds):
        t_cycle = perf_counter()
        setup.append(setup_sample())
        for op in wl.cycle():
            if perf_counter() - t_start > HARD_STOP_S:
                print(f"warning: hard stop at {HARD_STOP_S} s, cycle {cycle} cut short")
                stopped = True
                break
            cals.append(calibrate.sample())
            r = runner.execute(op, CAP_S)
            r.cycle = cycle
            results.append(r)
        cycle += 1
        last = perf_counter() - t_cycle
    cals.append(calibrate.sample())
    print(f"calibration: median {statistics.median(cals) * 1e3:.3f} ms of {len(cals)} "
          f"samples, reference {calibrate.REF_S * 1e3:.3f} ms")
    for i, r in enumerate(results):
        r.norm = r.seconds * calibrate.REF_S / ((cals[i] + cals[i + 1]) / 2)
    while len(setup) < SETUP_RUNS:
        setup.append(setup_sample())
    return results, setup


def traced_run(runner: Runner, tracer: Tracer, wl, t_start: float):
    """Alternate untraced and traced whole cycles.  On solve-naive every
    traced query is run again in optimized mode, for the paper row."""
    results: list[Result] = []
    paper: list[tuple[Result, Result, int, int]] = []
    for cycle in range(2 * TRACED_CYCLES):
        traced = cycle % 2 == 1
        ops = wl.cycle()
        if traced:
            tracer.install()
        try:
            for op in ops:
                if perf_counter() - t_start > HARD_STOP_S:
                    print(f"warning: hard stop at {HARD_STOP_S} s")
                    return results, paper
                op_id = len(results) if traced else None
                r = runner.execute(op, 2 * CAP_S if traced else CAP_S, op_id)
                r.cycle, r.traced = cycle, traced
                results.append(r)
                if traced and isinstance(wl, SolveNaive):
                    twin_id = 1_000_000 + op_id
                    twin = runner.execute(SolveNaive.optimized(op), 2 * CAP_S, twin_id)
                    paper.append((r, twin, op_id, twin_id))
        finally:
            tracer.remove()
    return results, paper


PROBE_ID = 2_000_000


def run_probe(runner: Runner, tracer: Tracer, wl: Compile, t_start: float) -> Optional[Result]:
    """One traced 9-binder chain translation, if the hard stop allows it."""
    if perf_counter() - t_start + PROBE_CAP_S > HARD_STOP_S:
        print("warning: no time left for the 9-binder probe")
        return None
    tracer.install()
    try:
        return runner.execute(wl.probe(), PROBE_CAP_S, PROBE_ID)
    finally:
        tracer.remove()


def print_paper_rows(tracer: Tracer, paper, probe: Optional[Result]) -> None:
    """The paper's comparisons: naive against optimized search on the same
    query (solve-naive), premises per declaration (compile)."""
    if paper:
        print("paper: the same query, naive against optimized "
              "(backchains, unify calls)")
        higher = 0
        for naive, opt, nid, oid in paper:
            cn, co = tracer.counts.get(nid, {}), tracer.counts.get(oid, {})
            higher += cn.get("unify.calls", 0) > co.get("unify.calls", 0)
            print(f"  {naive.op.props}: backchains {cn.get('engine.backchains', 0)}"
                  f" vs {co.get('engine.backchains', 0)}, unify {cn.get('unify.calls', 0)}"
                  f" vs {co.get('unify.calls', 0)}, {naive.status}/{opt.status}")
        print(f"paper: naive makes more unify calls on {higher} of {len(paper)} queries")
    per_mode: dict[str, dict[str, int]] = {}
    for _, (mode, rows) in sorted(tracer.decl_premises.items()):
        if mode not in per_mode:
            per_mode[mode] = {}
            for decl, k in rows:
                per_mode[mode].setdefault(decl.split("_")[0], k)
    if len(per_mode) == 2:
        naive, opt = per_mode["naive"], per_mode["optimized"]
        print("paper: premises per declaration, naive -> optimized: " + ", ".join(
            f"{d} {naive[d]}->{k}" for d, k in opt.items() if d in naive))
    if probe is not None:
        self_s, _ = tracer.totals({PROBE_ID})
        strict = self_s.get("strictness", 0.0)
        print(f"paper: 9-binder chain translate {probe.seconds:.3f} s ({probe.status}), "
              f"strictness {strict:.3f} s = {strict / probe.seconds:.1%}")


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lflp" / "cli.py").is_file():
        print(f"error: no lflp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        data = Data(ROOT)
    except OSError as exc:
        print(f"error: benchmark data missing: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from lflp import cli

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = OUT / f"tmp-{tag}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    paper, probe, deep_probe = [], None, []
    try:
        setup: list[tuple[float, float]] = []
        wl = WORKLOADS[args.workload](args.seed, data)
        runner = Runner(cli, tmp, tracer)
        premise_results = [runner.execute(op, CAP_S) for op in wl.premise_ops()]
        t_start = perf_counter()
        if tracer:
            results, paper = traced_run(runner, tracer, wl, t_start)
            if isinstance(wl, Compile):
                probe = run_probe(runner, tracer, wl, t_start)
            deep_probe = [runner.execute(op, CAP_S)
                          for op in Deep(args.seed, data).probe_ops()]
        else:
            results, setup = untraced_run(runner, wl, args.seconds, t_start)
        elapsed = perf_counter() - t_start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    extra = (premise_results + [opt for _, opt, _, _ in paper]
             + ([probe] if probe else []) + deep_probe)
    wrong = [r for r in results + extra if r.status == "wrong"]
    failed = [r for r in results if not r.ok]
    print(f"workload {args.workload}, seed {args.seed}, {len(results)} operations "
          f"in {elapsed:.2f} s, peak_rss_mb {peak_rss_mb():.1f}, "
          f"fail_frac {len(failed) / len(results):.4f}")
    for line in failures(results + extra):
        print(line)

    if tracer:
        traced = {i for i, r in enumerate(results) if r.traced}
        on = [results[i].seconds for i in traced]
        off = [r.seconds for r in results if not r.traced]
        metrics = tracer.layer_metrics(traced)
        metrics["trace.overhead_frac"] = (
            (sum(on) / len(on)) / (sum(off) / len(off)) - 1, "ratio")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        failed_sizes = {r.op.size for r in deep_probe if not r.ok}
        metrics["deep_probe.failed"] = (len(deep_probe) - sum(r.ok for r in deep_probe),
                                        "count")
        metrics["deep_probe.max_ok_elems"] = (max(
            (r.op.size for r in deep_probe if r.op.size not in failed_sizes), default=0),
            "count")
        for t in tracer.missing:
            print(f"trace: target {t} not found")
        for m in tracer.dropped():
            print(f"trace: {m} not recorded, its target is missing")
        print(f"trace: {len(on)} traced operations against {len(off)} untraced, "
              f"{len(tracer.start)} spans")
        print_paper_rows(tracer, paper, probe)
        for name, (value, unit) in metrics.items():
            print(f"{name:<26} {value:<14.6g} {unit}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{tag}-spans.json.gz")
    else:
        metrics, lines = end_to_end(results, setup, premise_results or results)
        for line in lines:
            print(line)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setup, "elapsed_s": elapsed, "metrics": metrics,
              "ops": [{"cycle": r.cycle, "traced": r.traced, "props": r.op.props,
                       "size": r.op.size, "seconds": r.seconds, "norm": r.norm,
                       "status": r.status,
                       "why": r.why} for r in results + extra]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": not wrong, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
