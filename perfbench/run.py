#!/usr/bin/env python3
"""milnorcalc benchmark: one workload per run, result as the last stdout line.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and run as ``python -m milnorcalc.cli`` child processes.  With
``--trace 0`` the run times set-up, child processes and in-process
passes with nothing installed around the program.  With ``--trace 1`` it
imports ``tracer``, alternates untraced and traced passes, and reports
per-layer counts and self times.  Spans, results and generated documents
go to ``.perfbench-out/`` in the checkout.  See README.md in this
directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

from workloads import WORKLOADS, IdentitySweep  # noqa: E402

SETUP_REPEATS = 9
REF_PRODUCTS = 25
REF_SAMPLE_S = 0.5
MIN_CLI_SAMPLES = 5
MIN_PASSES = 2
STARTUP_SAMPLES = 10
CHILD_TIMEOUT_S = 120
MODULES = ("chow", "bundles", "varieties", "engine", "identities", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cli_rel_p50", "python_starts"),
    ("cli_rel_p90", "python_starts"),
    ("api_pass_rel_p50", "references"),
)

PER_LAYER = (
    ("chow.mul.calls", "count"),
    ("chow.mul.self_s", "s"),
    ("chow.invert.calls", "count"),
    ("chow.invert.self_s", "s"),
    ("chow.pow.calls", "count"),
    ("chow.pow.self_s", "s"),
    ("chow.tensor_line.calls", "count"),
    ("chow.tensor_line.self_s", "s"),
    ("chow.integral_operand_share", "ratio"),
    ("bundles.chern_tangent.calls", "count"),
    ("bundles.chern_tangent.self_s", "s"),
    ("bundles.chern_tangent.repeat_share", "ratio"),
    ("bundles.self_s", "s"),
    ("varieties.validate.calls", "count"),
    ("varieties.validate.self_s", "s"),
    ("engine.csm_smooth_ci_degrees.calls", "count"),
    ("engine.csm_smooth_ci_degrees.repeat_share", "ratio"),
    ("engine.inclusion_exclusion.self_s", "s"),
    ("engine.mu_class.calls", "count"),
    ("engine.mu_class.self_s", "s"),
    ("engine.gamma_weights.self_s", "s"),
    ("engine.route.definition.self_s", "s"),
    ("engine.route.thm1.self_s", "s"),
    ("engine.route.expansion.self_s", "s"),
    ("engine.route.cor11.self_s", "s"),
    ("engine.route.aluffi.self_s", "s"),
    ("engine.route.pp.self_s", "s"),
    ("engine.compute_report.calls", "count"),
    ("engine.compute_report.self_s", "s"),
    ("identities.trials", "count"),
    ("identities.random_instance.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.load_document.self_s", "s"),
    ("cli.parse_document.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.startup_ms_p50", "ms"),
    ("python.startup_ms_p50", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(args: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run ``python <args>`` to completion; its wall and CPU time in ms.

    CPU time is user plus system time of the child, read from the
    resource usage of reaped children.  A child that outlives the
    timeout is killed and reaped by ``subprocess.run``.
    """
    cpu = _children_cpu_s()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    return wall * 1000.0, (_children_cpu_s() - cpu) * 1000.0, proc


def milnorcalc_args(argv: list[str]) -> list[str]:
    return ["-m", "milnorcalc.cli", *argv]


def import_program() -> SimpleNamespace:
    """Import milnorcalc afresh, dropping any copy imported earlier."""
    for name in [m for m in sys.modules if m == "milnorcalc" or m.startswith("milnorcalc.")]:
        del sys.modules[name]
    importlib.import_module("milnorcalc")
    return SimpleNamespace(
        **{m: importlib.import_module(f"milnorcalc.{m}") for m in MODULES}
    )


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _untimed_op(label):
    return contextlib.nullcontext()


def reference() -> float:
    """Seconds taken by a fixed computation that every timing is divided by.

    It is REF_PRODUCTS truncated products of two degree-8 polynomials
    with ``Fraction`` coefficients: the ring product of the program as
    first benchmarked, written with the standard library only, so no
    change to ``src/`` can change it.  On a shared host the CPU's speed
    can swing by a quarter within a minute; a timing divided by this
    reference, measured next to it, varies far less.
    """
    a = [Fraction(i - 4) for i in range(9)]
    b = [Fraction(3 - i) for i in range(9)]
    start = time.perf_counter()
    for _ in range(REF_PRODUCTS):
        out = [Fraction(0)] * 9
        for i, x in enumerate(a):
            for j in range(9 - i):
                out[i + j] += x * b[j]
    return time.perf_counter() - start


class RefClock:
    """Times in-process passes in units of the reference.

    The reference runs before a pass, after each of its operations, and
    every REF_SAMPLE_S seconds inside an operation, from a SIGALRM
    handler, so its samples cover the whole pass, long operations
    included.  A pass's time is divided by the mean of those samples.
    Time spent in the handler is taken out of the operation's time.
    """

    def __init__(self):
        self.refs: list[float] = []
        self._handler_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.refs.append(reference())
        self._handler_s += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def begin_pass(self) -> None:
        self._first = len(self.refs)
        self.refs.append(reference())
        self.pass_seconds = 0.0

    def pass_units(self) -> float:
        return self.pass_seconds / statistics.mean(self.refs[self._first:])

    @contextlib.contextmanager
    def op(self, label):
        self._handler_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, REF_SAMPLE_S, REF_SAMPLE_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.pass_seconds += time.perf_counter() - start - self._handler_s
            self.refs.append(reference())


class Run:
    def __init__(self, workload, seconds: float):
        self.wl = workload
        self.seconds = seconds
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.samples: dict[str, int] = {}
        self.extra: dict[str, float] = {}

    def record(self, failures, attempted: int) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    def timed_pass(self, mc, op=_untimed_op) -> float:
        """One in-process pass; its wall time in seconds."""
        items = self.wl.next_pass()
        start = time.perf_counter()
        failures = self.wl.run_pass(mc, items, op)
        elapsed = time.perf_counter() - start
        self.record(failures, len(items))
        return elapsed

    def cli_phase(self, budget_s: float) -> dict[str, list[float]]:
        """Child processes, each preceded by a bare interpreter start whose
        CPU time is the child's unit."""
        out = {"wall_ms": [], "cpu_ms": [], "python_ms": [], "rel": []}
        deadline = time.perf_counter() + budget_s
        for label, argv, expected in self.wl.cli_ops():
            python_ms = run_child(["-c", "pass"])[1]
            try:
                wall_ms, cpu_ms, proc = run_child(milnorcalc_args(argv))
                problem = self.wl.check_cli(expected, proc.returncode, proc.stdout)
            except subprocess.TimeoutExpired:
                wall_ms = cpu_ms = CHILD_TIMEOUT_S * 1000.0
                problem = "timed out"
            self.record([(f"cli {label}", problem)] if problem else [], 1)
            for key, value in (("wall_ms", wall_ms), ("cpu_ms", cpu_ms),
                               ("python_ms", python_ms), ("rel", cpu_ms / python_ms)):
                out[key].append(value)
            if time.perf_counter() >= deadline and len(out["rel"]) >= MIN_CLI_SAMPLES:
                return out

    def untraced(self, mc, setup_s: list[float]) -> dict:
        start = time.perf_counter()
        cli = self.cli_phase(self.seconds * self.wl.cli_share)
        clock = RefClock()
        passes, pass_rel = [], []
        with clock.sampling():
            while len(passes) < MIN_PASSES or time.perf_counter() - start < self.seconds:
                clock.begin_pass()
                self.timed_pass(mc, clock.op)
                passes.append(clock.pass_seconds * 1000.0)
                pass_rel.append(clock.pass_units())
        n_cli, n_pass = len(cli["rel"]), len(passes)
        self.samples = {"setup_s": len(setup_s), "cli_rel_p50": n_cli, "cli_rel_p90": n_cli,
                        "api_pass_rel_p50": n_pass, "reference": len(clock.refs)}
        self.extra = {
            "cli_ms_p50": statistics.median(cli["wall_ms"]),
            "cli_ms_p90": p90(cli["wall_ms"]),
            "cli_cpu_ms_p50": statistics.median(cli["cpu_ms"]),
            "python_start_cpu_ms_p50": statistics.median(cli["python_ms"]),
            "api_pass_ms_p50": statistics.median(passes),
            "reference_ms_p50": statistics.median(clock.refs) * 1000.0,
        }
        return {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cli_rel_p50": statistics.median(cli["rel"]),
            "cli_rel_p90": p90(cli["rel"]),
            "api_pass_rel_p50": statistics.median(pass_rel),
        }

    def traced(self, mc) -> tuple[dict, dict]:
        import tracer

        plain, traced, aggregates = [], [], []
        first = None
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < self.seconds:
            plain.append(self.timed_pass(mc))
            tr = tracer.Tracer()
            tr.install(mc)
            try:
                elapsed = self.timed_pass(mc, tr.op)
            finally:
                tr.uninstall()
            traced.append(elapsed)
            aggregates.append(tracer.aggregate(tr.spans))
            if first is None:
                first = tr
        startup = {
            "python": [run_child(["-c", "pass"])[1] for _ in range(STARTUP_SAMPLES)],
            "cli": [run_child(["-c", "import milnorcalc.cli"])[1] for _ in range(STARTUP_SAMPLES)],
        }
        self.samples = {"traced_passes": len(traced), "trace.overhead_ratio": len(traced),
                        "cli.startup_ms_p50": STARTUP_SAMPLES, "python.startup_ms_p50": STARTUP_SAMPLES}
        metrics = layer_metrics(aggregates, startup)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        trace_doc = {
            "labels": first.labels,
            "span_fields": ["name", "start", "end", "parent", "report", "key"],
            "spans": [s[:5] + [s[5] if isinstance(s[5], (bool, int, str)) else repr(s[5])]
                      for s in first.spans],
            "per_name": tracer.aggregate(first.spans),
            "per_report": tracer.per_report(first.spans, first.labels),
        }
        return metrics, trace_doc


def layer_metrics(aggregates: list[dict], startup: dict) -> dict:
    """Per-layer metrics: counts and shares from the first traced pass,
    self times as the median over traced passes."""
    first = aggregates[0]

    def calls(name):
        return first.get(name, {}).get("calls", 0)

    def self_s(*names):
        return statistics.median(
            sum(a.get(n, {}).get("self_s", 0.0) for n in names) for a in aggregates
        )

    def share(name, field, names=None):
        names = names or (name,)
        total = sum(calls(n) for n in names)
        part = sum(first.get(n, {}).get(field, 0) for n in names)
        return part / total if total else 0.0

    bundle_names = sorted({n for a in aggregates for n in a if n.startswith("bundles.")})
    out = {}
    for name, _ in PER_LAYER:
        if name.endswith(".calls") and name != "cli.calls":
            out[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_s") and name != "bundles.self_s":
            out[name] = self_s(name[: -len(".self_s")])
        elif name.endswith(".repeat_share"):
            out[name] = share(name[: -len(".repeat_share")], "repeats")
    out["chow.integral_operand_share"] = share(None, "integral", ("chow.mul", "chow.invert"))
    out["bundles.self_s"] = self_s(*bundle_names)
    out["identities.trials"] = calls("identities.random_instance")
    out["cli.calls"] = sum(calls(n) for n in ("cli.load_document", "cli.parse_document", "cli.render"))
    out["cli.startup_ms_p50"] = statistics.median(startup["cli"])
    out["python.startup_ms_p50"] = statistics.median(startup["python"])
    return {name: out[name] for name, _ in PER_LAYER if name != "trace.overhead_ratio"}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "milnorcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest configuration of the workload, for the self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "milnorcalc" / "__init__.py").is_file():
        print(f"error: no milnorcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload](ROOT, random.Random(args.seed), args.smoke)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mc = import_program()
        workload.build(mc, OUT / "docs")
        setup_s.append(time.perf_counter() - start)

    run = Run(workload, args.seconds)
    trace_doc = None
    if args.trace:
        metrics, trace_doc = run.traced(mc)
        units = dict(PER_LAYER)
    else:
        metrics = run.untraced(mc, setup_s)
        units = dict(END_TO_END)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "tracer_loaded": "tracer" in sys.modules,
        "samples": run.samples,
        "extra": run.extra,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "error_rate": len(run.failures) / run.attempted,
    }
    if isinstance(workload, IdentitySweep):
        meta["trials_per_cell"] = workload.trials
        meta["trials_per_pass"] = workload.trials_per_pass()
    if not args.trace:
        meta["derived"] = workload.derived(run.extra["api_pass_ms_p50"])

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={meta['python']} nproc={meta['nproc']} git={meta['git_sha']}")
    for name, value in metrics.items():
        count = run.samples.get(name)
        print(f"  {name:<44} {value:>14.6g} {units[name]:<13}" + (f" (n={count})" if count else ""))
    for name, value in run.extra.items():
        print(f"  {name:<44} {value:>14.6g} (not gated)")
    for name, value in meta.get("derived", {}).items():
        print(f"  {name:<44} {value:>14.6g}        (derived from api_pass_ms_p50)")
    print(f"  {'error_rate':<44} {meta['error_rate']:>14.6g} "
          f"({meta['failed']} of {meta['attempted']} operations)")
    for label, problem in run.failures[:10]:
        print(f"  FAILED {label}: {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"meta": meta, "metrics": metrics, "failures": run.failures}
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace_doc is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace_doc) + "\n")

    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
