"""Command-line front end: parse variety documents, run routes, render.

Input is a single JSON document::

    {
      "ambient": {"kind": "projective", "dim": 4},
      "transversal": true,
      "hypersurfaces": [
        {"name": "Z1", "degree": 2,
         "singularity": {"kind": "arrangement", "components": [1, 1]},
         "sing_locus": {"kind": "linear", "dim": 2},
         "strata": [
           {"name": "reg", "dim": 3, "chiF": 1},
           {"name": "sing", "dim": 2, "chiF": 0,
            "closure": {"kind": "linear", "dim": 2}}
         ]},
        {"name": "Z2", "degree": 1, "singularity": {"kind": "smooth"}}
      ]
    }

Optional keys: a stratum may carry ``"contains": [names]`` (strata
inside its closure) and a ``"closure"`` of kind ``linear``, ``ci`` or
``explicit``; the document may carry ``"intersection": {"csm": ...}``
with the honest SM class of the intersection (``coeffs`` or a weighted
``combination`` of linear/ci smooth models), ``"routes"`` to restrict
the computed routes, and a free-form ``"description"``.

Exit codes: 0 success, 2 validation error, 3 route disagreement
(or identity-check failure), 4 integrality failure, 5 a ``crosscheck``
row with fewer than two routes (UNCHECKED).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .chow import ChowClass, format_class, make_class
from .engine import (
    ROUTE_ORDER,
    ClassReport,
    IntegralityError,
    RouteValue,
    SkippedRoute,
    VarietyReport,
    compute_report,
    csm_smooth_ci_degrees,
)
from .identities import check_expansion_identity, check_telescope_identity
from .varieties import (
    Arrangement,
    CompleteIntersectionSpec,
    HypersurfaceSpec,
    LinearLocus,
    Smooth,
    SmoothLocus,
    Stratified,
    Stratification,
    Stratum,
    ValidationError,
    csm_linear_subspace,
    validate,
)
from .bundles import BundleChern, fundamental_class_ci

#: Input size caps.  Ring products cost O(dim^2) operations on integers
#: that grow with the degrees; the expansion route forms about
#: 2^(hypersurfaces) of them, and each distinct component degree and each
#: ci closure degree costs a few more.  At these caps the slowest
#: documents found (P^64, 8 hypersurfaces) run in under 1 s as a process.
MAX_AMBIENT_DIM = 64
MAX_HYPERSURFACES = 8
MAX_COMPONENTS = 256  # arrangement components summed over the document
MAX_DEGREE = 1000  # each degree, component degree and ci degree
MAX_STRATA = 64  # per hypersurface
MAX_CLOSURE_DEGREES = 256  # ci closure degrees summed over the document

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISAGREEMENT = 3
EXIT_INTEGRALITY = 4
EXIT_UNCHECKED = 5

TRANSVERSALITY_WARNING = (
    "warning: product-rule routes assume the asserted transversality of the "
    "inputs; the assertion is recorded, not verified"
)


# ---------------------------------------------------------------------------
# JSON -> model


class _DocumentError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise _DocumentError(path, message)


def _is_a(value, kind) -> bool:
    """isinstance, except that JSON true/false are not integers."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _get(obj: dict, key: str, path: str, kind=None, default=_DocumentError):
    if key not in obj:
        if default is not _DocumentError:
            return default
        raise _DocumentError(f"{path}.{key}", "missing")
    value = obj[key]
    if kind is not None and not _is_a(value, kind):
        names = kind.__name__ if isinstance(kind, type) else "/".join(k.__name__ for k in kind)
        raise _DocumentError(f"{path}.{key}", f"expected {names}")
    return value


def _parse_coeffs(raw, n: int, path: str) -> ChowClass:
    _expect(isinstance(raw, list), path, "expected a list of coefficient strings")
    for i, c in enumerate(raw):
        _expect(_is_a(c, (int, str)), f"{path}[{i}]", "expected an integer or a rational string")
    try:
        return make_class(n, [Fraction(c) for c in raw])
    except (ValueError, ZeroDivisionError) as exc:
        raise _DocumentError(path, str(exc))


def _smooth_model(entry: dict, n: int, path: str):
    """A closed smooth subvariety given as a linear space or a smooth
    complete intersection; returns (fundamental class, SM class)."""
    kind = _get(entry, "kind", path, str)
    if kind == "linear":
        k = _get(entry, "dim", path, int)
        _expect(0 <= k <= n, f"{path}.dim", f"needs 0 <= dim <= {n}")
        return make_class(n, [0] * (n - k) + [1]), csm_linear_subspace(n, k)
    if kind == "ci":
        degrees = _get(entry, "degrees", path, list)
        _expect(
            all(_is_a(d, int) and 1 <= d <= MAX_DEGREE for d in degrees) and len(degrees) <= n,
            f"{path}.degrees",
            f"need at most {n} positive integer degrees, each at most {MAX_DEGREE}",
        )
        return fundamental_class_ci(n, degrees), csm_smooth_ci_degrees(n, degrees)
    if kind == "explicit":
        cls = _parse_coeffs(_get(entry, "class", path, list), n, f"{path}.class")
        csm = _parse_coeffs(_get(entry, "csm", path, list), n, f"{path}.csm")
        return cls, csm
    raise _DocumentError(f"{path}.kind", f"unknown closure kind {kind!r}")


def _parse_sing_locus(entry, n: int, path: str):
    if entry is None:
        return None
    kind = _get(entry, "kind", path, str)
    if kind == "linear":
        return LinearLocus(_get(entry, "dim", path, int))
    if kind == "smooth":
        cls = _parse_coeffs(_get(entry, "class", path, list), n, f"{path}.class")
        normal = _get(entry, "normal", path, dict)
        rank = _get(normal, "rank", f"{path}.normal", int)
        total = _parse_coeffs(
            _get(normal, "chern", f"{path}.normal", list), n, f"{path}.normal.chern"
        )
        try:
            return SmoothLocus(cls, BundleChern(n, rank, total))
        except ValueError as exc:
            raise _DocumentError(f"{path}.normal", str(exc))
    raise _DocumentError(f"{path}.kind", f"unknown singular-locus kind {kind!r}")


def _parse_strata(entries, n: int, path: str) -> Stratification:
    _expect(len(entries) <= MAX_STRATA, path, f"at most {MAX_STRATA}")
    strata = []
    order = []
    for i, entry in enumerate(entries):
        spath = f"{path}[{i}]"
        _expect(isinstance(entry, dict), spath, "expected an object")
        name = _get(entry, "name", spath, str)
        dim = _get(entry, "dim", spath, int)
        chi = _get(entry, "chiF", spath, int)
        closure_class = csm_closure = None
        closure = _get(entry, "closure", spath, dict, default=None)
        if closure is not None:
            closure_class, csm_closure = _smooth_model(closure, n, f"{spath}.closure")
        for below in _get(entry, "contains", spath, list, default=[]):
            _expect(isinstance(below, str), f"{spath}.contains", "expected stratum names")
            order.append((name, below))
        strata.append(Stratum(name, dim, chi, closure_class, csm_closure))
    return Stratification(tuple(strata), tuple(order))


def _parse_hypersurface(entry: dict, n: int, path: str) -> HypersurfaceSpec:
    _expect(isinstance(entry, dict), path, "expected an object")
    name = _get(entry, "name", path, str)
    degree = _get(entry, "degree", path, int)
    _expect(degree <= MAX_DEGREE, f"{path}.degree", f"must be at most {MAX_DEGREE}")
    sing = _get(entry, "singularity", path, dict)
    kind = _get(sing, "kind", f"{path}.singularity", str)
    if kind == "smooth":
        singularity = Smooth()
    elif kind == "arrangement":
        components = _get(sing, "components", f"{path}.singularity", list)
        _expect(
            all(_is_a(d, int) and d <= MAX_DEGREE for d in components),
            f"{path}.singularity.components",
            f"expected integer degrees, each at most {MAX_DEGREE}",
        )
        _expect(
            _get(sing, "pairwise_transversal", f"{path}.singularity", bool, default=True),
            f"{path}.singularity.pairwise_transversal",
            "only pairwise-transversal arrangements are supported",
        )
        singularity = Arrangement(tuple(components))
    elif kind == "stratified":
        singularity = Stratified()
    else:
        raise _DocumentError(f"{path}.singularity.kind", f"unknown kind {kind!r}")
    strata_entries = _get(entry, "strata", path, list, default=None)
    strata = (
        _parse_strata(strata_entries, n, f"{path}.strata")
        if strata_entries is not None
        else None
    )
    locus = _parse_sing_locus(_get(entry, "sing_locus", path, dict, default=None), n, f"{path}.sing_locus")
    return HypersurfaceSpec(name, n, degree, singularity, locus, strata)


def _parse_intersection_csm(entry, n: int, path: str) -> ChowClass | None:
    if entry is None:
        return None
    csm = _get(entry, "csm", path, dict)
    if "coeffs" in csm:
        return _parse_coeffs(csm["coeffs"], n, f"{path}.csm.coeffs")
    combination = _get(csm, "combination", f"{path}.csm", list)
    total = make_class(n, [])
    for i, part in enumerate(combination):
        ppath = f"{path}.csm.combination[{i}]"
        _expect(isinstance(part, dict), ppath, "expected an object")
        weight = _get(part, "weight", ppath, int, default=1)
        _, csm_part = _smooth_model(part, n, ppath)
        total += weight * csm_part
    return total


def parse_document(doc: dict):
    """Turn a JSON document into a validated spec.

    Returns (spec, intersection_csm, requested_routes).  Raises
    ValidationError with one message per problem.
    """
    try:
        _expect(isinstance(doc, dict), "document", "expected a JSON object")
        ambient = _get(doc, "ambient", "document", dict)
        _expect(
            _get(ambient, "kind", "ambient", str) == "projective",
            "ambient.kind",
            "only projective ambient spaces are supported",
        )
        n = _get(ambient, "dim", "ambient", int)
        _expect(n >= 1, "ambient.dim", "must be at least 1")
        _expect(n <= MAX_AMBIENT_DIM, "ambient.dim", f"must be at most {MAX_AMBIENT_DIM}")
        transversal = _get(doc, "transversal", "document", bool, default=False)
        entries = _get(doc, "hypersurfaces", "document", list)
        _expect(
            len(entries) <= MAX_HYPERSURFACES, "hypersurfaces", f"at most {MAX_HYPERSURFACES}"
        )
        hypersurfaces, components, closure_degrees = [], 0, 0
        for i, entry in enumerate(entries):
            h = _parse_hypersurface(entry, n, f"hypersurfaces[{i}]")
            hypersurfaces.append(h)
            components += len(getattr(h.singularity, "component_degrees", ()))
            _expect(
                components <= MAX_COMPONENTS,
                f"hypersurfaces[{i}].singularity.components",
                f"at most {MAX_COMPONENTS} arrangement components in all",
            )
            # the entry parsed, so every closure present is a checked object
            closures = [s["closure"] for s in entry.get("strata", ()) if "closure" in s]
            closure_degrees += sum(len(c["degrees"]) for c in closures if c["kind"] == "ci")
            _expect(
                closure_degrees <= MAX_CLOSURE_DEGREES,
                f"hypersurfaces[{i}].strata",
                f"at most {MAX_CLOSURE_DEGREES} ci closure degrees in all",
            )
        intersection_csm = _parse_intersection_csm(
            _get(doc, "intersection", "document", dict, default=None), n, "intersection"
        )
        routes = _get(doc, "routes", "document", list, default=None)
        if routes is not None:
            unknown = set(routes) - set(ROUTE_ORDER)
            _expect(not unknown, "routes", f"unknown routes {sorted(unknown)}")
    except _DocumentError as exc:
        raise ValidationError([str(exc)])
    spec = CompleteIntersectionSpec(n, tuple(hypersurfaces), transversal)
    validate(spec)
    return spec, intersection_csm, routes


def load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValidationError([f"{path}: {exc.strerror or exc}"])
    except ValueError as exc:  # also integers past Python's digit limit
        raise ValidationError([f"{path}: not valid JSON ({exc})"])
    return parse_document(doc)


# ---------------------------------------------------------------------------
# rendering


def _coeff_strings(c: ChowClass) -> list[str]:
    return [str(a) for a in c.coeffs]


def report_to_dict(report: ClassReport) -> dict:
    return {
        "ambient_dim": report.ambient_dim,
        "transversality_asserted": report.transversality_asserted,
        "transversality_warning": report.used_product_routes,
        "conventions": dict(report.conventions),
        "agree": report.all_agree,
        "varieties": [
            {
                "name": v.name,
                "kind": v.kind,
                "dim": v.dim,
                "cfj": _coeff_strings(v.cfj),
                "csm": None if v.csm is None else _coeff_strings(v.csm),
                "csm_route": v.csm_route,
                "milnor_routes": [
                    {"route": rv.route, "coeffs": _coeff_strings(rv.value)}
                    for rv in v.milnor
                ],
                "skipped": [
                    {"route": sk.route, "reason": sk.reason} for sk in v.skipped
                ],
                "agree": v.agree,
                "milnor": None
                if v.consensus is None
                else _coeff_strings(v.consensus),
            }
            for v in report.varieties
        ],
    }


def report_from_dict(data: dict) -> ClassReport:
    n = data["ambient_dim"]

    def cls(coeffs):
        return None if coeffs is None else make_class(n, [Fraction(c) for c in coeffs])

    varieties = tuple(
        VarietyReport(
            v["name"],
            v["kind"],
            v["dim"],
            cls(v["cfj"]),
            cls(v["csm"]),
            v["csm_route"],
            tuple(
                RouteValue(rv["route"], cls(rv["coeffs"]))
                for rv in v["milnor_routes"]
            ),
            tuple(SkippedRoute(sk["route"], sk["reason"]) for sk in v["skipped"]),
        )
        for v in data["varieties"]
    )
    return ClassReport(
        n,
        data["transversality_asserted"],
        varieties,
        dict(data["conventions"]),
    )


def report_to_json(report: ClassReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def report_from_json(text: str) -> ClassReport:
    return report_from_dict(json.loads(text))


def render_text(report: ClassReport) -> str:
    lines = [f"ambient: P^{report.ambient_dim}"]
    lines.append(
        "transversality asserted: "
        + ("yes" if report.transversality_asserted else "no")
    )
    if report.used_product_routes:
        lines.append(TRANSVERSALITY_WARNING)
    for v in report.varieties:
        lines.append("")
        lines.append(f"== {v.name} ({v.kind}, dim {v.dim})")
        lines.append(f"  c^FJ : {format_class(v.cfj)}")
        if v.csm is not None:
            lines.append(f"  c^SM : {format_class(v.csm)}  [{v.csm_route}]")
        else:
            lines.append("  c^SM : unavailable")
        if v.milnor:
            lines.append("  Milnor class:")
            width = max(len(rv.route) for rv in v.milnor)
            for rv in v.milnor:
                lines.append(f"    {rv.route:<{width}} : {format_class(rv.value)}")
            lines.append("  routes " + ("AGREE" if v.agree else "DISAGREE"))
        else:
            lines.append("  Milnor class: no applicable route")
        for sk in v.skipped:
            lines.append(f"  (skipped {sk.route}: {sk.reason})")
    return "\n".join(lines) + "\n"


def row_verdict(v: VarietyReport) -> str:
    """AGREE needs at least two routes; with fewer the row is UNCHECKED."""
    if not v.agree:
        return "DISAGREE"
    return "AGREE" if len(v.milnor) >= 2 else "UNCHECKED"


def crosscheck_verdict(report: ClassReport) -> str:
    """DISAGREE if any row disagrees, else UNCHECKED if any row is, else AGREE."""
    verdicts = [row_verdict(v) for v in report.varieties]
    for verdict in ("DISAGREE", "UNCHECKED"):
        if verdict in verdicts:
            return verdict
    return "AGREE"


def render_crosscheck(report: ClassReport) -> str:
    rows = []
    for v in report.varieties:
        for rv in v.milnor:
            rows.append((v.name, rv.route, format_class(rv.value)))
    name_w = max([len("variety")] + [len(r[0]) for r in rows])
    route_w = max([len("route")] + [len(r[1]) for r in rows])
    lines = []
    if report.used_product_routes:
        lines.append(TRANSVERSALITY_WARNING)
    lines.append(f"{'variety':<{name_w}}  {'route':<{route_w}}  Milnor class")
    for name, route, value in rows:
        lines.append(f"{name:<{name_w}}  {route:<{route_w}}  {value}")
    lines.append("")
    for v in report.varieties:
        lines.append(f"{v.name}: {len(v.milnor)} routes, {row_verdict(v)}")
        for sk in v.skipped:
            lines.append(f"  (skipped {sk.route}: {sk.reason})")
    lines.append("")
    lines.append("crosscheck: " + crosscheck_verdict(report))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _select_methods(args, requested):
    if getattr(args, "method", "all") != "all":
        return {args.method}
    if requested is not None:
        return set(requested)
    return None


def cmd_compute(args) -> int:
    try:
        spec, intersection_csm, requested = load_document(args.input)
        methods = _select_methods(args, requested)
        report = compute_report(spec, methods, intersection_csm)
    except ValidationError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except IntegralityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRALITY
    if not any(v.milnor for v in report.varieties):
        print("error: the requested method applies to nothing in this input", file=sys.stderr)
        return EXIT_VALIDATION
    if args.output == "json":
        print(report_to_json(report))
    else:
        print(render_text(report), end="")
    if args.method == "all" and not report.all_agree:
        print("error: routes disagree (see report)", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    try:
        spec, intersection_csm, requested = load_document(args.input)
        if requested is not None and len(set(requested)) < 2:
            raise ValidationError(["routes: crosscheck needs at least two distinct routes"])
        report = compute_report(spec, requested and set(requested), intersection_csm)
    except ValidationError as exc:
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except IntegralityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRALITY
    if args.output == "json":
        print(report_to_json(report))
    else:
        print(render_crosscheck(report), end="")
    exits = {"AGREE": EXIT_OK, "DISAGREE": EXIT_DISAGREEMENT, "UNCHECKED": EXIT_UNCHECKED}
    return exits[crosscheck_verdict(report)]


def cmd_identity(args) -> int:
    if args.n < 1 or args.r < 1 or args.r > args.n or args.trials < 1:
        print("error: need 1 <= r <= n and trials >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    reports = [
        check_expansion_identity(args.n, args.r, args.trials, args.seed),
        check_telescope_identity(args.n, args.r, args.trials, args.seed),
    ]
    for report in reports:
        print(report.render())
    total = sum(len(r.failures) for r in reports)
    print(f"total failures: {total}")
    return EXIT_OK if total == 0 else EXIT_DISAGREEMENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milnorcalc",
        description=(
            "Exact Schwartz-MacPherson, Fulton-Johnson and Milnor classes of "
            "hypersurfaces and their intersections in projective space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute classes for one input document")
    compute.add_argument("input", help="path to a JSON variety document")
    compute.add_argument(
        "--method",
        choices=("all",) + ROUTE_ORDER,
        default="all",
        help="Milnor-class route to run (default: all applicable)",
    )
    compute.add_argument("--output", choices=("text", "json"), default="text")
    compute.set_defaults(func=cmd_compute)

    crosscheck = sub.add_parser(
        "crosscheck", help="run every applicable route and compare"
    )
    crosscheck.add_argument("input", help="path to a JSON variety document")
    crosscheck.add_argument("--output", choices=("text", "json"), default="text")
    crosscheck.set_defaults(func=cmd_crosscheck)

    identity = sub.add_parser(
        "identity", help="randomized exact check of the derived formulas"
    )
    identity.add_argument("--n", type=int, required=True, help="ambient dimension")
    identity.add_argument("--r", type=int, required=True, help="number of factors")
    identity.add_argument("--trials", type=int, default=100)
    identity.add_argument("--seed", type=int, default=0)
    identity.set_defaults(func=cmd_identity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
