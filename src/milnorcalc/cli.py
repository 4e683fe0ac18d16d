"""Command-line front end: parse variety documents, run routes, render.

Input is a single JSON document, declared field by field in the table
under "JSON -> model" below; ``fixtures/`` and the README hold examples.

Exit codes: 0 success or help, 2 validation or usage error, 3 route disagreement
(or identity-check failure), 5 a ``crosscheck`` row with fewer than two routes
(UNCHECKED), 141 standard output closed before the start or by its reader
(128 + SIGPIPE, as a shell reports a broken pipe).

Every class is integral, and so is every coefficient a document gives: a
JSON integer or a string of ASCII digits with an optional leading minus.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii

from .chow import ChowClass, format_class, h_power, make_class
from .engine import (
    CONVENTIONS,
    ClassReport,
    VarietyReport,
    compute_report,
    csm_smooth_ci_degrees,
)
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
    validate,  # not called here: the benchmark's tracer (perfbench/tracer.py) wraps it where cli looks it up
)
from .bundles import fundamental_class_ci

#: Input size caps, one bound for every field of a document (see the
#: table under "JSON -> model").  Ring products cost O(dim^2) operations
#: on integers that grow with the degrees; the product rule, run once for
#: thm1/expansion/cor11 and pp (again for pp only when a factor's pp differs
#: from its definition), forms about two per hypersurface per run, and
#: each distinct component degree and ci closure degree a few more.
#: At these caps the slowest documents found (P^64, 8 hypersurfaces) run
#: in under 1 s as a process.
MAX_AMBIENT_DIM = 64  # ambient.dim; every dim, rank, ci degree count and class length
MAX_HYPERSURFACES = 8
MAX_COMPONENTS = 256  # arrangement components, each list and summed over the document
MAX_DEGREE = 1000  # each degree, component degree and ci degree
MAX_STRATA = 64  # strata per hypersurface, names per contains list
MAX_CLOSURE_DEGREES = 256  # ci degrees of closures and of combination parts, summed
MAX_PARTS = 64  # parts of intersection.csm.combination
MAX_NAME = 64  # characters of a name
MAX_DESCRIPTION = 1000  # characters of the document's description
MAX_DIGITS = 700  # digits of chiF, of a weight and of a coefficient
MAX_LOCUS_DIGITS = 100  # the same in sing_locus, whose Segre class divides by its normal class

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISAGREEMENT = 3
EXIT_UNCHECKED = 5
EXIT_BROKEN_PIPE = 141

TRANSVERSALITY_WARNING = (
    "warning: product-rule routes assume the asserted transversality of the "
    "inputs; the assertion is recorded, not verified"
)


# ---------------------------------------------------------------------------
# JSON -> model
#
# The document format, declared once in a table of fields, from which one
# reader per field is compiled at import.  A field is (type, bound, default,
# sub, total).  Types: int, in the range ``bound``; NUMBER, an int of at most
# ``bound`` digits; COEFF, a NUMBER or a string [-]digits of at most ``bound``
# digits; bool; str and list, at most ``bound`` long, ``sub``
# the item; dict, ``sub`` its fields; KIND, ``sub`` the fields under each
# "kind".  A ``total`` (cap, noun, weigh) caps the sum of weigh(item), or the
# item count, over the document.  ``default`` is REQUIRED or an absent
# field's value; an undeclared key is an error.  ``_parse_*`` check n.

REQUIRED, NUMBER, COEFF, KIND = "required", "number", "coeff", "kind"
_POWERS = {MAX_DIGITS: 10**MAX_DIGITS, MAX_LOCUS_DIGITS: 10**MAX_LOCUS_DIGITS}
_DIGITS = {d: rf"-?[0-9]{{1,{d}}}" for d in _POWERS}  # compiled on first use
_EXPECTED = {int: "an integer", NUMBER: "an integer", COEFF: "an integer or a string of digits",
             str: "a string", bool: "true or false", list: "a list", dict: "an object", KIND: "an object"}
_TWICE = object()  # the value of a key that a JSON object gives more than once


def _object(pairs: list) -> dict:
    """A JSON object; each key given twice maps to ``_TWICE``, which the readers reject."""
    out = dict(pairs)
    if len(out) < len(pairs):
        out.update((key, _TWICE) for key, count in Counter(key for key, _ in pairs).items() if count > 1)
    return out


class _DocumentError(Exception):
    """A problem at a field path, built key by key as the error leaves the readers."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = list(keys)


def _reader(field):
    """``read(value, totals)``: ``value`` checked against ``field``, defaults filled in, sums in ``totals``."""
    kind, bound, _, sub, total = field

    def wrong(value):  # the error of a value of another type; a key given twice has none
        return _DocumentError("given twice" if value is _TWICE else f"expected {_EXPECTED[kind]}")
    if kind is int:
        lo, hi = bound
        def read(value, totals):
            if type(value) is int and lo <= value <= hi:
                return value
            raise wrong(value) if type(value) is not int else _DocumentError(
                f"must be at least {lo}" if value < lo else f"must be at most {hi}")
    elif kind is NUMBER or kind is COEFF:
        power = _POWERS[bound]
        def read(value, totals):
            if type(value) is int and -power < value < power:
                return value
            if kind is not COEFF or type(value) is not str:
                raise wrong(value) if type(value) is not int else _DocumentError(f"at most {bound} digits")
            if re.fullmatch(_DIGITS[bound], value) is None:
                raise _DocumentError(f"expected [-]digits of at most {bound} digits")
            return int(value)
    elif kind is str or kind is bool:
        def read(value, totals):
            if type(value) is kind and (kind is bool or len(value) <= bound and value.isprintable()):
                return value
            raise wrong(value) if type(value) is not kind else _DocumentError(
                f"expected at most {bound} printable characters")  # else printing fails
    elif kind is list:
        item, index = _reader(sub), "[{}]" if sub[0] is not int and sub[0] is not str else ""  # else the list's path
        def read(value, totals):
            if type(value) is not list or len(value) > bound:
                raise wrong(value) if type(value) is not list else _DocumentError(f"at most {bound}")
            out = []
            try:
                for v in value:
                    out.append(item(v, totals))
            except _DocumentError as exc:
                exc.keys.append(index.format(len(out)))
                raise
            if total is not None:
                cap, noun, weigh = total
                totals[noun] = totals.get(noun, 0) + (sum(map(weigh, out)) if weigh else len(out))
                if totals[noun] > cap:
                    raise _DocumentError(f"at most {cap} {noun} in all")
            return out
    else:  # an object; under KIND a table of members per choice, whose "kind" is the choice
        tables = {choice: (frozenset([*fields, "kind"] if kind is KIND else fields),
                           [(name, _reader(f), f[2]) for name, f in fields.items()])
                  for choice, fields in (sub.items() if kind is KIND else [(None, sub)])}
        def read(value, totals):
            if type(value) is not dict:
                raise wrong(value)
            choice = value.get("kind") if kind is KIND else None
            if kind is KIND and (type(choice) is not str or choice not in tables):
                raise _DocumentError("given twice" if choice is _TWICE else f"expected one of: {', '.join(sub)}",
                                     ".kind")
            allowed, members = tables[choice]
            if not value.keys() <= allowed:
                name = min(value.keys() - allowed)
                raise _DocumentError("unknown field", f".{name}" if name.isprintable() and len(name) <= MAX_NAME
                                     else f".{ascii(name[:MAX_NAME])}")
            out = {} if choice is None else {"kind": choice}
            try:
                for name, read_member, default in members:
                    if name not in value and default is REQUIRED:
                        raise _DocumentError("missing")
                    out[name] = read_member(value[name], totals) if name in value else default
            except _DocumentError as exc:
                exc.keys.append(f".{name}")
                raise
            return out
    return read


def _f(kind, bound=None, default=REQUIRED, sub=None, total=None):
    return kind, bound, default, sub, total


_NAME, _DIM, _DEGREE = _f(str, MAX_NAME), _f(int, (0, MAX_AMBIENT_DIM)), _f(int, (1, MAX_DEGREE))
_COEFFS = _f(list, MAX_AMBIENT_DIM + 1, sub=_f(COEFF, MAX_DIGITS))
_LOCUS_COEFFS = _f(list, MAX_AMBIENT_DIM + 1, sub=_f(COEFF, MAX_LOCUS_DIGITS))
_SMOOTH_MODEL = {  # a closed smooth subvariety: closures and combination parts
    "linear": {"dim": _DIM},
    "ci": {"degrees": _f(list, MAX_AMBIENT_DIM, sub=_DEGREE)},
    "explicit": {"class": _COEFFS, "csm": _COEFFS},
}
_STRATUM = _f(dict, sub={
    "name": _NAME, "dim": _DIM, "chiF": _f(NUMBER, MAX_DIGITS),
    "closure": _f(KIND, default=None, sub=_SMOOTH_MODEL),
    "contains": _f(list, MAX_STRATA, (), _NAME),
})
_HYPERSURFACE = _f(dict, sub={
    "name": _NAME, "degree": _DEGREE,
    "singularity": _f(KIND, sub={"smooth": {}, "stratified": {}, "arrangement": {
        "components": _f(list, MAX_COMPONENTS, sub=_DEGREE,
                         total=(MAX_COMPONENTS, "arrangement components", None)),
    }}),
    "sing_locus": _f(KIND, default=None, sub={"linear": {"dim": _DIM}, "smooth": {
        "class": _LOCUS_COEFFS, "normal": _f(dict, sub={"rank": _DIM, "chern": _LOCUS_COEFFS}),
    }}),
    "strata": _f(list, MAX_STRATA, None, _STRATUM, (
        MAX_CLOSURE_DEGREES, "ci closure degrees", lambda s: len((s["closure"] or {}).get("degrees", ())))),
})
_PART = _f(KIND, sub={
    kind: {**fields, "weight": _f(NUMBER, MAX_DIGITS, 1)} for kind, fields in _SMOOTH_MODEL.items()})
_DOCUMENT = _f(dict, sub={
    "description": _f(str, MAX_DESCRIPTION, None),
    "ambient": _f(KIND, sub={"projective": {"dim": _f(int, (1, MAX_AMBIENT_DIM))}}),
    "transversal": _f(bool, default=False),
    "hypersurfaces": _f(list, MAX_HYPERSURFACES, sub=_HYPERSURFACE),
    "intersection": _f(dict, default=None, sub={"csm": _f(dict, sub={
        "coeffs": _f(list, MAX_AMBIENT_DIM + 1, None, _f(COEFF, MAX_DIGITS)),
        "combination": _f(list, MAX_PARTS, None, _PART, (
            MAX_CLOSURE_DEGREES, "ci closure degrees", lambda part: len(part.get("degrees", ())))),
    })}),
})
_read_document = _reader(_DOCUMENT)


def _class(coeffs, n: int, path: str) -> ChowClass:
    try:
        return make_class(n, coeffs)
    except ValueError as exc:  # more coefficients than P^n has codimensions
        raise _DocumentError(str(exc), path)


def _smooth_model(model: dict, n: int, path: str):
    """(fundamental class, SM class) of a checked smooth model."""
    if model["kind"] == "linear":
        if model["dim"] > n:
            raise _DocumentError(f"must be at most {n}", f"{path}.dim")
        return h_power(n, n - model["dim"]), csm_linear_subspace(n, model["dim"])
    if model["kind"] == "ci":
        degrees = model["degrees"]
        if len(degrees) > n:
            raise _DocumentError(f"at most {n} degrees in P^{n}", f"{path}.degrees")
        return fundamental_class_ci(n, degrees), csm_smooth_ci_degrees(n, degrees)
    return _class(model["class"], n, f"{path}.class"), _class(model["csm"], n, f"{path}.csm")


def _parse_strata(entries: list, n: int, path: str) -> Stratification:
    strata, order = [], []
    for i, s in enumerate(entries):
        closure = s["closure"] and _smooth_model(s["closure"], n, f"{path}[{i}].closure")
        order.extend((s["name"], below) for below in s["contains"])
        strata.append(Stratum(s["name"], s["dim"], s["chiF"], *(closure or (None, None))))
    return Stratification(tuple(strata), tuple(order))


def _parse_hypersurface(h: dict, n: int, path: str) -> HypersurfaceSpec:
    sing, kind, strata = h["singularity"], h["singularity"]["kind"], h["strata"]
    singularity = (Arrangement(tuple(sing["components"])) if kind == "arrangement"
                   else Smooth() if kind == "smooth" else Stratified())
    if strata is not None:
        strata = _parse_strata(strata, n, f"{path}.strata")
    locus = h["sing_locus"]
    if locus is not None and locus["kind"] == "linear":
        locus = LinearLocus(locus["dim"])
    elif locus is not None:
        cls = _class(locus["class"], n, f"{path}.sing_locus.class")
        chern = _class(locus["normal"]["chern"], n, f"{path}.sing_locus.normal.chern")
        try:
            locus = SmoothLocus(cls, locus["normal"]["rank"], chern)
        except ValueError as exc:
            raise _DocumentError(str(exc), f"{path}.sing_locus.normal")
    return HypersurfaceSpec(h["name"], n, h["degree"], singularity, locus, strata)


def _parse_intersection_csm(csm: dict, n: int) -> ChowClass:
    if csm["coeffs"] is not None:
        if csm["combination"] is not None:
            raise _DocumentError("expected coeffs or combination, not both", "intersection.csm")
        return _class(csm["coeffs"], n, "intersection.csm.coeffs")
    if csm["combination"] is None:
        raise _DocumentError("missing", "intersection.csm.combination")
    parts = enumerate(csm["combination"])
    return sum((p["weight"] * _smooth_model(p, n, f"intersection.csm.combination[{i}]")[1] for i, p in parts),
               make_class(n, []))


def parse_document(doc):
    """(spec, intersection_csm, None): the spec a document declares, its format checked and
    ``compute_report`` left to validate it; the None is kept for callers that unpack three."""
    try:
        checked = _read_document(doc, {})
        n, intersection = checked["ambient"]["dim"], checked["intersection"]
        hypersurfaces = tuple(
            _parse_hypersurface(h, n, f"hypersurfaces[{i}]") for i, h in enumerate(checked["hypersurfaces"])
        )
        intersection_csm = intersection and _parse_intersection_csm(intersection["csm"], n)
    except _DocumentError as exc:
        raise ValidationError([f"{''.join(reversed(exc.keys)).lstrip('.') or 'document'}: {exc}"])
    return CompleteIntersectionSpec(n, hypersurfaces, checked["transversal"]), intersection_csm, None


def load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_object)
    except OSError as exc:
        raise ValidationError([f"{path}: {exc.strerror or exc}"])
    except (ValueError, RecursionError) as exc:  # also too long integers, too deep nesting
        raise ValidationError([f"{path}: not valid JSON ({exc})"])
    return parse_document(doc)


# ---------------------------------------------------------------------------
# rendering


def _template(keys: str, indent: str) -> str:
    """The format string of a JSON object of ``keys`` closed at ``indent``, a last slot for more fields."""
    return "{{" + ",".join(f'{indent}  "{key}": {{}}' for key in keys.split()) + "{}" + indent + "}}"


_REPORT = _template("agree ambient_dim conventions transversality_asserted transversality_warning varieties", "\n")
_ROW = _template("agree cfj csm csm_route dim kind milnor milnor_routes name skipped", "\n    ")
_ROUTE, _SKIPPED = _template("coeffs route", "\n        "), _template("reason route", "\n        ")
_CONVENTIONS = json.dumps(CONVENTIONS, indent=2, sort_keys=True).replace("\n", "\n  ")  # the same in every report
_BOOL = ("false", "true")


def _list(items: list[str], indent: str) -> str:
    return f"[{indent}  " + f",{indent}  ".join(items) + f"{indent}]" if items else "[]"


def _coeff_strings(c: ChowClass) -> list[str]:
    return list(map(str, c.coeffs))


def _coeffs_json(c: ChowClass | None, indent: str) -> str:
    return "null" if c is None else f'[{indent}  "' + f'",{indent}  "'.join(_coeff_strings(c)) + f'"{indent}]'


def _row_json(v: VarietyReport, verdicts: bool) -> str:
    text, key, item_key = encode_basestring_ascii, "\n      ", "\n          "
    routes = [_ROUTE.format(_coeffs_json(rv.value, item_key), text(rv.route), "") for rv in v.milnor]
    skipped = [_SKIPPED.format(text(sk.reason), text(sk.route), "") for sk in v.skipped]
    return _ROW.format(_BOOL[v.agree], _coeffs_json(v.cfj, key), _coeffs_json(v.csm, key),
                       "null" if v.csm_route is None else text(v.csm_route), v.dim, text(v.kind),
                       _coeffs_json(v.consensus, key), _list(routes, key), text(v.name), _list(skipped, key),
                       f',{key}"verdict": {text(row_verdict(v))}' if verdicts else "")


def report_to_json(report: ClassReport, verdict: str | None = None) -> str:
    """The report as ``json.dumps(..., indent=2, sort_keys=True)`` writes it, in one walk;
    with the crosscheck ``verdict``, the report and each row carry their verdicts."""
    return _REPORT.format(
        _BOOL[report.all_agree], report.ambient_dim, _CONVENTIONS, _BOOL[report.transversality_asserted],
        _BOOL[report.used_product_routes], _list([_row_json(v, verdict is not None) for v in report.varieties], "\n  "),
        "" if verdict is None else f',\n  "verdict": {encode_basestring_ascii(verdict)}')


def report_to_dict(report: ClassReport) -> dict:
    """The parsed form of ``report_to_json``."""
    return json.loads(report_to_json(report))


def _texts(classes) -> dict[int, str]:
    """``format_class`` of each distinct class object, keyed by ``id``: routes and rows share classes."""
    distinct = {id(c): c for c in classes}
    return {key: format_class(c) for key, c in distinct.items()}


def render_text(report: ClassReport) -> str:
    texts = _texts(c for v in report.varieties for c in (v.cfj, v.csm, *(rv.value for rv in v.milnor)) if c is not None)
    lines = [f"ambient: P^{report.ambient_dim}",
             "transversality asserted: " + ("yes" if report.transversality_asserted else "no")]
    lines += [TRANSVERSALITY_WARNING] if report.used_product_routes else []
    for v in report.varieties:
        csm = "unavailable" if v.csm is None else f"{texts[id(v.csm)]}  [{v.csm_route}]"
        lines += ["", f"== {v.name} ({v.kind}, dim {v.dim})", f"  c^FJ : {texts[id(v.cfj)]}", f"  c^SM : {csm}"]
        if v.milnor:
            width = max(len(rv.route) for rv in v.milnor)
            lines += ["  Milnor class:", *(f"    {rv.route:<{width}} : {texts[id(rv.value)]}" for rv in v.milnor),
                      "  routes " + ("AGREE" if v.agree else "DISAGREE")]
        else:
            lines.append("  Milnor class: no applicable route")
        lines += [f"  (skipped {sk.route}: {sk.reason})" for sk in v.skipped]
    return "\n".join(lines) + "\n"


def row_verdict(v: VarietyReport) -> str:
    """AGREE needs at least two routes; with fewer the row is UNCHECKED."""
    return "DISAGREE" if not v.agree else "AGREE" if len(v.milnor) >= 2 else "UNCHECKED"


def crosscheck_verdict(report: ClassReport) -> str:
    """DISAGREE if any row disagrees, else UNCHECKED if any row is, else AGREE."""
    verdicts = {row_verdict(v) for v in report.varieties}
    return next((verdict for verdict in ("DISAGREE", "UNCHECKED") if verdict in verdicts), "AGREE")


def render_crosscheck(report: ClassReport) -> str:
    texts = _texts(rv.value for v in report.varieties for rv in v.milnor)
    rows = [("variety", "route", "Milnor class")]
    rows += [(v.name, rv.route, texts[id(rv.value)]) for v in report.varieties for rv in v.milnor]
    name_w, route_w = max(len(r[0]) for r in rows), max(len(r[1]) for r in rows)
    lines = [TRANSVERSALITY_WARNING] if report.used_product_routes else []
    lines += [*(f"{name:<{name_w}}  {route:<{route_w}}  {value}" for name, route, value in rows), ""]
    for v in report.varieties:
        lines.append(f"{v.name}: {len(v.milnor)} routes, {row_verdict(v)}")
        lines += [f"  (skipped {sk.route}: {sk.reason})" for sk in v.skipped]
    lines += ["", "crosscheck: " + crosscheck_verdict(report)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _report(args, crosscheck: bool) -> ClassReport:
    spec, intersection_csm, _ = load_document(args.input)
    sys.set_int_max_str_digits(0)  # print every number the caps allow; main restores the limit
    return compute_report(spec, None if crosscheck or args.method == "all" else {args.method}, intersection_csm)


def cmd_compute(args) -> tuple[str, str, int]:
    report = _report(args, crosscheck=False)
    if not any(v.milnor for v in report.varieties):
        raise ValidationError(["the requested method applies to nothing in this input"])
    out = report_to_json(report) + "\n" if args.output == "json" else render_text(report)
    if args.method == "all" and not report.all_agree:
        return out, "error: routes disagree (see report)\n", EXIT_DISAGREEMENT
    return out, "", EXIT_OK


def cmd_crosscheck(args) -> tuple[str, str, int]:
    report = _report(args, crosscheck=True)
    verdict = crosscheck_verdict(report)
    # "agree" alone is true on an UNCHECKED row, so the JSON carries the verdicts
    out = report_to_json(report, verdict) + "\n" if args.output == "json" else render_crosscheck(report)
    return out, "", {"AGREE": EXIT_OK, "DISAGREE": EXIT_DISAGREEMENT, "UNCHECKED": EXIT_UNCHECKED}[verdict]


def cmd_identity(args) -> tuple[str, str, int]:
    """The document caps bound n and r; ``identities`` checks the ranges."""
    from .identities import check_identities

    if args.n > MAX_AMBIENT_DIM or args.r > MAX_HYPERSURFACES:
        raise ValidationError([f"need n <= {MAX_AMBIENT_DIM} and r <= {MAX_HYPERSURFACES}"])
    try:
        reports = check_identities(args.n, args.r, args.trials, args.seed)
    except ValueError as exc:
        raise ValidationError([str(exc)])
    total = sum(len(r.failures) for r in reports)
    out = "".join(f"{r.render()}\n" for r in reports) + f"total failures: {total}\n"
    return out, "", EXIT_OK if total == 0 else EXIT_DISAGREEMENT


def main(argv=None) -> int:
    """Run one command, which returns its stdout text, stderr text and exit code, and
    write both texts: lost output exits 141, a lost help text or message keeps the code."""
    from .commandline import Usage, parse_args  # compiled by a process, not by importers of cli
    limit, lost = sys.get_int_max_str_digits(), EXIT_BROKEN_PIPE
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        command = {"compute": cmd_compute, "crosscheck": cmd_crosscheck, "identity": cmd_identity}[args.command]
        out, err, code = command(args)
    except Usage as exc:
        text, is_help = exc.args
        out, err, code = (text, "", EXIT_OK) if is_help else ("", text, EXIT_VALIDATION)
        lost = code  # help into a closed stdout exits 0
    except ValidationError as exc:
        out, err, code = "", "".join(f"error: {m}\n" for m in exc.errors), EXIT_VALIDATION
    finally:
        sys.set_int_max_str_digits(limit)
    if not _write(sys.stdout, out):
        code = lost
    _write(sys.stderr, err)
    return code


def _write(stream, text: str) -> bool:
    """Write ``text`` to ``stream``; False if it is lost."""
    if stream is None:  # its descriptor was closed before the start
        return not text
    try:
        print(text, end="", file=stream, flush=True)
    except OSError:  # a closed pipe or descriptor; and keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
