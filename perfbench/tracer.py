"""Span recording around the public functions of milnorcalc.

Imported only by traced runs.  ``Tracer.install`` replaces each public
name at the place its caller looks it up (a module global such as
``engine.chern_tangent``, or a method on ``ChowClass``) with a wrapper
that records a span; ``Tracer.uninstall`` puts the originals back.
Spans stay in memory until the benchmark writes them out at the end.

A span is ``[name, start, end, parent, report, key]``: ``parent`` is the
index of the enclosing span (-1 for none), ``report`` the id of the
benchmark operation (one document, rung or identity cell) that caused
it, and ``key`` an argument summary used for repeat counts, or for
ring operations whether every operand was integral.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

NAME, START, END, PARENT, REPORT, KEY = range(6)


def _integral(value) -> bool:
    if isinstance(value, int):
        return True
    if isinstance(value, Fraction):
        return value.denominator == 1
    coeffs = getattr(value, "coeffs", None)
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def _ring_key(self, other=None):
    return _integral(self) and (other is None or _integral(other))


def _tangent_key(n):
    return n


def _degrees_key(n, degrees):
    return (n, tuple(sorted(degrees)))


def wrap_table(mc):
    """(owner, attribute, span name, key function) for every wrapped name.

    Each owner is where the calling code resolves the name at call time,
    so a function imported into several modules is listed once per module.
    """
    engine, identities, cli, varieties = mc.engine, mc.identities, mc.cli, mc.varieties
    cc = mc.chow.ChowClass
    return [
        (cc, "__mul__", "chow.mul", _ring_key),
        (cc, "invert", "chow.invert", _ring_key),
        (cc, "__pow__", "chow.pow", None),
        (cc, "tensor_line", "chow.tensor_line", None),
        (engine, "chern_tangent", "bundles.chern_tangent", _tangent_key),
        (engine, "chern_cotangent", "bundles.chern_cotangent", None),
        (engine, "chern_line", "bundles.chern_line", None),
        (engine, "chern_twist", "bundles.chern_twist", None),
        (engine, "segre_smooth", "bundles.segre_smooth", None),
        (engine, "fundamental_class_ci", "bundles.fundamental_class_ci", None),
        (cli, "fundamental_class_ci", "bundles.fundamental_class_ci", None),
        (engine, "validate", "varieties.validate", None),
        (cli, "validate", "varieties.validate", None),
        (varieties, "validate", "varieties.validate", None),
        (cli, "csm_linear_subspace", "varieties.csm_linear_subspace", None),
        (engine, "csm_smooth_ci_degrees", "engine.csm_smooth_ci_degrees", _degrees_key),
        (cli, "csm_smooth_ci_degrees", "engine.csm_smooth_ci_degrees", _degrees_key),
        (engine, "csm_inclusion_exclusion", "engine.inclusion_exclusion", None),
        (engine, "csm_intersection_inclusion_exclusion", "engine.inclusion_exclusion", None),
        (engine, "mu_class", "engine.mu_class", None),
        (engine, "gamma_weights", "engine.gamma_weights", None),
        (engine, "milnor_definition", "engine.route.definition", None),
        (engine, "milnor_product", "engine.route.thm1", None),
        (identities, "milnor_product", "engine.route.thm1", None),
        (engine, "milnor_expansion", "engine.route.expansion", None),
        (identities, "milnor_expansion", "engine.route.expansion", None),
        (engine, "milnor_telescope", "engine.route.cor11", None),
        (identities, "milnor_telescope", "engine.route.cor11", None),
        (engine, "milnor_from_mu", "engine.route.aluffi", None),
        (engine, "milnor_from_strata", "engine.route.pp", None),
        (engine, "milnor_from_strata_ci", "engine.route.pp", None),
        (engine, "compute_report", "engine.compute_report", None),
        (cli, "compute_report", "engine.compute_report", None),
        (identities, "random_instance", "identities.random_instance", None),
        (identities, "check_expansion_identity", "identities.check", None),
        (identities, "check_telescope_identity", "identities.check", None),
        (cli, "load_document", "cli.load_document", None),
        (cli, "parse_document", "cli.parse_document", None),
        (cli, "render_crosscheck", "cli.render", None),
        (cli, "render_text", "cli.render", None),
        (cli, "report_to_json", "cli.render", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.labels: list[str] = []  # report id -> operation label
        self._stack: list[int] = []
        self._report = -1
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, key_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_fn(*args, **kwargs) if key_fn is not None else None
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._report, key]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = perf_counter()

        return wrapper

    def install(self, mc) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, key_fn in wrap_table(mc):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, key_fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def op(self, label: str):
        """Root span of one benchmark operation; its spans share a report id."""
        self._report = len(self.labels)
        self.labels.append(label)
        record = ["bench.op", perf_counter(), 0.0, -1, self._report, label]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[END] = perf_counter()
            self._report = -1


def aggregate(spans, by_report: bool = False) -> dict:
    """Per span name (or per (report, name)): calls, self seconds, calls
    whose key repeats an earlier call's, and calls with integral operands.

    Self time is a span's duration minus the durations of its direct
    children; spans nest exactly because everything runs on one thread.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict = {}
    seen: set = set()
    for i, s in enumerate(spans):
        group = (s[REPORT], s[NAME]) if by_report else s[NAME]
        a = out.setdefault(group, {"calls": 0, "self_s": 0.0, "repeats": 0, "integral": 0})
        a["calls"] += 1
        a["self_s"] += s[END] - s[START] - child_time[i]
        key = s[KEY]
        if key is True:
            a["integral"] += 1
        elif key is not None and key is not False and s[NAME] != "bench.op":
            if (group, key) in seen:
                a["repeats"] += 1
            else:
                seen.add((group, key))
    return out


def per_report(spans, labels) -> list[dict]:
    """Call counts and repeat shares of each benchmark operation."""
    agg = aggregate(spans, by_report=True)
    rows = []
    for report, label in enumerate(labels):
        mine = {name: a for (r, name), a in sorted(agg.items()) if r == report}
        rows.append(
            {
                "report": report,
                "label": label,
                "calls": {name: a["calls"] for name, a in mine.items()},
                "repeat_share": {
                    name: a["repeats"] / a["calls"]
                    for name, a in mine.items()
                    if a["repeats"]
                },
            }
        )
    return rows
