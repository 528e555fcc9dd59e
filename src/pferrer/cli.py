"""Command-line front end.

Subcommands: report, verify, series, dual, macaulay, pure.  All output is
JSON (report also has --text); identical inputs and flags produce identical
bytes.  Every failure, argparse's usage errors included, is a FerrerError
printed once by ``_dispatch`` as a JSON error and exits with the code that
``EXIT_CODES`` gives its class, 2 if none.  A failed verify check or an
inconsistent result exits 3, and stdout closed by its reader 141.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from json.encoder import encode_basestring_ascii

from . import diagram as dg
from . import ideal as il
from . import invariants as iv
from . import macaulay as mc
from . import oracle as oc
from . import series as sr
from .errors import (
    BadFlags,
    BadHVector,
    BadJSON,
    CertificateFailure,
    FerrerError,
    InconsistentReport,
    Infeasible,
    NotMVector,
    SizeLimitExceeded,
    TooManyGenerators,
    UnreadableFile,
)
from .limits import Limits

EXIT_MISMATCH = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it
EXIT_CODES = {
    InconsistentReport: EXIT_MISMATCH,
    CertificateFailure: EXIT_MISMATCH,
    SizeLimitExceeded: 4,  # input nested past the interpreter's recursion limit included
    TooManyGenerators: 4,
    NotMVector: 5,
    Infeasible: 6,
}


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


class _Witnesses:
    """The ara certificate's witnesses and the generator name of each box.

    It prints as the list of ``{"pair": [first, second], "witness_class": k,
    "witness_monomial": witness}`` dicts, one per witness, with every box
    given by its name.  A plain class, not a NamedTuple like the value
    types: ``_dumps`` prints every tuple as a list, so it would never reach
    ``_dumps_witnesses``."""

    __slots__ = ("rows", "name")

    def __init__(self, rows: tuple[iv.AraWitness, ...], name: dict[dg.Box, str]):
        self.rows = rows
        self.name = name


def _dumps(obj, pad: str = "") -> str:
    """Exactly ``json.dumps(obj, indent=2)``, with one ``str.join`` per container.

    ``json`` uses its C encoder only when ``indent`` is None; with an indent
    it runs a pure-Python encoder that yields every token from a generator.
    ``pad`` is the indent of the line ``obj`` starts on.  Dict keys must be
    str.  A container formats its ``_SCALARS`` items inline, without a
    call of ``_dumps`` each.  A ``_Witnesses`` prints as its list of dicts,
    written by ``_dumps_witnesses`` without a call per witness.  Any other
    scalar, a float say, goes through ``json.dumps``, so a value JSON cannot
    hold raises its TypeError.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": "
            + (fmt(v) if (fmt := _SCALARS.get(type(v))) else _dumps(v, inner))
            for k, v in obj.items()
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [fmt(v) if (fmt := _SCALARS.get(type(v))) else _dumps(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, _Witnesses):
        return _dumps_witnesses(obj, pad)
    return json.dumps(obj)


def _dumps_witnesses(witnesses: _Witnesses, pad: str) -> str:
    """The witness list at ``pad``: each name is quoted once per box, and each
    witness is one ``%`` application of a template made for this ``pad``."""
    if not witnesses.rows:
        return "[]"
    quoted = {box: encode_basestring_ascii(name) for box, name in witnesses.name.items()}
    item, key, pair = pad + "  ", pad + "    ", pad + "      "
    template = (
        f'{{\n{key}"pair": [\n{pair}%s,\n{pair}%s\n{key}],\n'
        f'{key}"witness_class": %d,\n{key}"witness_monomial": %s\n{item}}}'
    )
    rows = [template % (quoted[a], quoted[b], k, quoted[w]) for a, b, k, w in witnesses.rows]
    return "[\n" + item + (",\n" + item).join(rows) + "\n" + pad + "]"


def _print(render, document) -> None:
    """Print ``render(document)`` with no limit on the digits of an int.

    Inputs stay parsed under the interpreter's limit, but a computed value
    may pass it (``pure`` scales by any ``--alpha``), so the limit is lifted
    only while the document is encoded and printed, then restored."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(render(document))
    finally:
        sys.set_int_max_str_digits(previous)


def _emit(document: dict) -> None:
    _print(_dumps, document)


def _load_diagram(path: str, limits: Limits) -> dg.PFerrerPartition:
    if path == "-" and sys.stdin is None:  # the process was started with fd 0 closed
        raise UnreadableFile("cannot read -: stdin is closed")
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except UnicodeDecodeError as err:
        raise BadJSON(f"input is not UTF-8: {err}") from None
    except OSError as err:
        raise UnreadableFile(f"cannot read {path}: {err.strerror}") from None
    try:
        tree = json.loads(raw)
    except ValueError as err:  # JSONDecodeError, or a numeral past int's digit limit
        raise BadJSON(str(err)) from None
    except RecursionError:
        raise BadJSON("JSON nested too deeply to parse") from None
    return dg.validate(tree, limits)


def _series_block(profile: dg.DiagonalProfile, raw_numerator: sr.IntPolynomial) -> dict:
    c, n = profile.df, profile.n
    series = sr.RationalSeries(raw_numerator, n - c)  # n >= delta, so n - c >= len(sigma)
    return {
        "series": series.to_json(),
        "series_raw": {
            "numerator": list(raw_numerator.coeffs),
            "denom_exponent": n - c,
        },
        "pretty": series.pretty(),
        "h_vector": list(sr.h_vector(series)),
        "s_vector": list(profile.sigma),
    }


def _report_document(part: dg.PFerrerPartition, limits: Limits, certificate: bool) -> dict:
    ideal = il.ferrer_ideal(part)
    dual = il.ferrer_dual(part, limits)  # hitting-set limit first
    profile = dg.diagonal_profile(part)
    numerator = sr.linear_numerator(profile.df, part.depth, profile.sigma)  # series and Betti
    summary = iv.homological_summary(profile)
    table = iv.betti_table(profile, numerator)
    reg_ideal, reg_quotient = iv.regularity(part)
    # the generators come in box order, so each box is named once, and the
    # certificate's boxes look names up
    name = dict(zip(dg.boxes(part), map(str, ideal.generators)))
    doc = {
        "input": part.to_tree(),
        "depth": part.depth,
        "boxes": dg.box_count(part),
        "profile": {"s": list(profile.counts), "df": profile.df, "delta": profile.delta},
        "summary": {**summary._asdict(), "reg_ideal": reg_ideal, "reg_quotient": reg_quotient},
        "betti": {str(j): b for j, b in enumerate(table.totals(), start=1)},
        **_series_block(profile, numerator),
        "generators": list(name.values()),
        "minimal_primes": [[str(v) for v in g.support] for g in dual.generators],
    }
    if certificate:
        cert = iv.ara_certificate(part)
        doc["certificate"] = {
            "classes": [[name[b] for b in cls] for cls in cert.classes],
            "witnesses": _Witnesses(cert.witnesses, name),
        }
    return doc


def _broken_relation(doc: dict) -> str | None:
    """The first relation between the report's fields that fails, or None."""
    summary, profile = doc["summary"], doc["profile"]
    relations = (
        ("betti.1 == boxes", doc["betti"].get("1") == doc["boxes"]),
        ("summary.projdim == profile.delta", summary["projdim"] == profile["delta"]),
        ("summary.height == profile.df", summary["height"] == profile["df"]),
        ("len(generators) == boxes", len(doc["generators"]) == doc["boxes"]),
    )
    if "certificate" in doc:
        # the profile's delta against the number of the certificate's box diagonals
        ara = len(doc["certificate"]["classes"])
        relations += (("summary.ara == len(certificate.classes)", summary["ara"] == ara),)
    relations += (("summary.ara == profile.delta", summary["ara"] == profile["delta"]),)
    return next((name for name, holds in relations if not holds), None)


def _render_text(doc: dict) -> str:
    lines = [
        f"diagram: {json.dumps(doc['input'])}",
        f"depth: {doc['depth']}   boxes: {doc['boxes']}",
        f"diagonals: s = {doc['profile']['s']}  df = {doc['profile']['df']}  delta = {doc['profile']['delta']}",
        f"n = {doc['summary']['n']}  height = {doc['summary']['height']}  dim = {doc['summary']['dim']}  depth(S/I) = {doc['summary']['depth']}",
        f"projdim = {doc['summary']['projdim']}  reg(I) = {doc['summary']['reg_ideal']}  ara = {doc['summary']['ara']}",
        f"betti: {doc['betti']}",
        f"hilbert series: {doc['pretty']}",
        f"h-vector: {doc['h_vector']}   s-vector: {doc['s_vector']}",
        f"generators ({len(doc['generators'])}): {', '.join(doc['generators'])}",
        f"minimal primes ({len(doc['minimal_primes'])}):",
    ]
    lines.extend("  (" + ", ".join(p) + ")" for p in doc["minimal_primes"])
    if "certificate" in doc:
        cert = doc["certificate"]
        lines.append(f"ara certificate: {len(cert['classes'])} classes")
        lines.extend(
            f"  K_{k}: {', '.join(cls)}" for k, cls in enumerate(cert["classes"], start=1)
        )
        witnesses = cert["witnesses"]
        name = witnesses.name
        lines.append(f"witnesses ({len(witnesses.rows)}):")
        lines.extend(
            f"  {name[a]} * {name[b]} divisible by {name[w]} in K_{k}"
            for a, b, k, w in witnesses.rows
        )
    return "\n".join(lines)


def cmd_report(args, limits: Limits) -> int:
    part = _load_diagram(args.path, limits)
    doc = _report_document(part, limits, args.certificate)
    relation = _broken_relation(doc)
    if relation is not None:
        raise InconsistentReport(relation)
    if args.text:
        _print(_render_text, doc)
    else:
        _emit(doc)
    return 0


def _check_betti(profile, numerator, ideal, limits) -> dict:
    brute = oc.graded_betti_brute(ideal, limits)
    table = iv.betti_table(profile, numerator)
    ok = brute == table
    result = {"name": "betti_formula_vs_oracle", "ok": ok}
    if not ok:
        result["formula"] = list(table.totals())
        result["oracle"] = list(brute.totals())
        result["graded"] = brute.to_json()
    return result


def _check_series(ideal, profile, numerator, limits, max_degree: int) -> dict:
    formula = sr.RationalSeries(numerator, profile.n - profile.df)
    from_monomials = sr.hilbert_series_monomial(ideal, limits)
    truncated = oc.hilbert_function_truncated(ideal, max_degree, limits)
    ok = formula == from_monomials and formula.taylor(max_degree) == truncated
    result = {"name": "hilbert_series", "ok": ok}
    if not ok:
        result["formula"] = formula.to_json()
        result["from_monomials"] = from_monomials.to_json()
        result["truncated"] = list(truncated)
    return result


def _sample_masks(rng, variables, offset, width, max_degree: int) -> list[int]:
    """32 random monomials in 1 to 4 ``variables``, exponents 1 or 2, as masks
    of the polarization ``offset``, ``width``, keeping those of degree at most
    ``max_degree``.  An exponent past its variable's block sets the whole
    block, so divisibility by a polarized monomial stays exact."""
    masks = []
    for _ in range(32):
        mask = degree = 0
        for v in rng.sample(variables, rng.randint(1, min(4, len(variables)))):
            e = rng.randint(1, 2)
            degree += e
            mask |= ((1 << min(e, width.get(v, 1))) - 1) << offset[v]
        if degree <= max_degree:
            masks.append(mask)
    return masks


def _check_decomposition(part, ideal, seed: int, max_degree: int) -> dict:
    if part.depth == 1:
        return {"name": "intersection_decomposition", "ok": True, "skipped": "depth 1"}
    components = il.intersection_decomposition(part)
    intersection = oc.intersect_monomial(*components)
    ok = intersection.generators == ideal.generators
    # one polarization over every ambient makes membership a submask test
    ambient = set(ideal.ambient).union(*(c.ambient for c in components))
    groups = [ideal.generators, *(c.generators for c in components)]
    offset, width, (gens, *parts) = il._polarize(groups, ambient)
    for m in _sample_masks(random.Random(seed), list(ideal.ambient), offset, width, max_degree):
        in_ideal = any(g & m == g for g in gens)
        in_all = all(any(g & m == g for g in part_gens) for part_gens in parts)
        if in_ideal != in_all:
            ok = False
            break
    result = {"name": "intersection_decomposition", "ok": ok}
    if not ok:
        result["intersection"] = [str(g) for g in intersection.generators]
        result["ideal"] = [str(g) for g in ideal.generators]
    return result


def _check_certificate(part, profile) -> dict:
    cert = iv.ara_certificate(part)
    pairs = sum(math.comb(s, 2) for s in profile.counts)  # one witness per pair
    ok = len(cert.classes[0]) == 1 and cert.ara == profile.delta and len(cert.witnesses) == pairs
    result = {"name": "ara_certificate", "ok": ok, "ara": cert.ara}
    if not ok:
        result["witnesses"] = len(cert.witnesses)
        result["pairs"] = pairs
    return result


def _check_height_projdim(part, ideal, profile, limits) -> dict:
    # one dual generator per minimal prime, the product of its variables
    hitting = il.alexander_dual(ideal, limits)  # the hitting-set route
    closed = il.ferrer_dual(part, limits)
    brute = oc.graded_betti_brute(ideal, limits)
    min_prime = min(g.degree for g in hitting.generators)
    ok = closed == hitting and min_prime == profile.df and brute.projdim == profile.delta
    result = {"name": "height_and_projdim", "ok": ok}
    if not ok:
        result["min_prime"] = min_prime
        result["df"] = profile.df
        result["oracle_projdim"] = brute.projdim
        result["delta"] = profile.delta
        # generators on one side only, in the canonical order both duals keep
        closed_gens, hitting_gens = set(closed.generators), set(hitting.generators)
        result["closed_form_only"] = [str(g) for g in closed.generators if g not in hitting_gens]
        result["brute_force_only"] = [str(g) for g in hitting.generators if g not in closed_gens]
    return result


def cmd_verify(args, limits: Limits) -> int:
    if args.max_degree < 0:
        raise BadFlags(f"--max-degree must be non-negative, got {args.max_degree}")
    limits.check("truncation_max_degree", args.max_degree)
    part = _load_diagram(args.path, limits)
    ideal = il.ferrer_ideal(part)
    profile = dg.diagonal_profile(part)
    numerator = sr.linear_numerator(profile.df, part.depth, profile.sigma)
    checks = [
        _check_betti(profile, numerator, ideal, limits),
        _check_series(ideal, profile, numerator, limits, args.max_degree),
        _check_decomposition(part, ideal, args.seed, args.max_degree),
        _check_certificate(part, profile),
        _check_height_projdim(part, ideal, profile, limits),
    ]
    ok = all(check["ok"] for check in checks)
    _emit({"input": part.to_tree(), "seed": args.seed, "checks": checks, "ok": ok})
    return 0 if ok else EXIT_MISMATCH


def cmd_series(args, limits: Limits) -> int:
    part = _load_diagram(args.path, limits)
    profile = dg.diagonal_profile(part)
    doc = {
        "input": part.to_tree(),
        "c": profile.df,
        "p": part.depth,
        **_series_block(profile, sr.linear_numerator(profile.df, part.depth, profile.sigma)),
    }
    _emit(doc)
    return 0


def cmd_dual(args, limits: Limits) -> int:
    part = _load_diagram(args.path, limits)
    profile = dg.diagonal_profile(part)
    dual = il.ferrer_dual(part, limits)
    primal, dual_series = sr.dual_series(profile.df, part.depth, profile.sigma, profile.n)
    _emit(
        {
            "input": part.to_tree(),
            "primal": {"series": primal.to_json(), "pretty": primal.pretty()},
            "dual": {"series": dual_series.to_json(), "pretty": dual_series.pretty()},
            "dual_generators": [str(g) for g in dual.generators],
            "dual_h_vector": list(sr.h_vector(dual_series)),
        }
    )
    return 0


# an --h entry: ASCII digits, optionally signed and spaced; int() alone would
# also read "1_0" and the digits of other scripts
_H_ENTRY = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def cmd_macaulay(args, limits: Limits) -> int:
    chunks = args.h.split(",")
    try:
        if not all(map(_H_ENTRY.fullmatch, chunks)):
            raise ValueError
        h = tuple(map(int, chunks))
    except ValueError:  # int() also refuses past its limit on digits
        raise BadHVector(f"cannot parse {args.h!r}") from None
    realization = mc.realize_mvector(h, limits)
    _emit(
        {
            "h": list(h),
            "diagram": realization.diagram.to_tree(),
            "generators": [str(g) for g in realization.ideal.generators],
            "dual_generators": [str(g) for g in realization.dual.generators],
            "dual_h_vector": list(realization.dual_h_vector),
            "verified": realization.verified,
        }
    )
    return 0 if realization.verified else EXIT_MISMATCH


def cmd_pure(args, limits: Limits) -> int:
    if args.a1 is not None:
        if args.a2 is None or args.beta0 is None:
            raise BadFlags("--a1 requires --a2 and --beta0")
        if not 0 < args.a1 < args.a2 or args.beta0 < 1:
            raise BadFlags("need 0 < --a1 < --a2 and --beta0 >= 1")
        record = iv.pure_codim2_betti(args.a1, args.a2, args.beta0)
        if record is None:
            raise Infeasible(f"({args.a1}, {args.a2}) does not support integral Betti numbers")
        _emit(
            {
                "type": [0, args.a1, args.a2],
                "betti": [args.beta0, record.beta1, record.beta2],
                "c": record.c,
                "alpha": record.alpha,
            }
        )
        return 0
    if args.c is None or args.p is None or args.alpha is None:
        raise BadFlags("need --a1/--a2/--beta0 or --c/--p/--alpha")
    if min(args.c, args.p, args.alpha) < 1:
        raise BadFlags("--c, --p and --alpha must be positive")
    limits.check("pure_max_length", args.p)
    # c-linear of length p: betti_cm takes the codimension first, the degree second
    base_type = tuple([0] + [args.c + i for i in range(args.p)])
    base_betti = tuple(iv.betti_cm(args.p, args.c, j) for j in range(args.p + 1))
    scaled_type, scaled_betti = iv.scaled_resolution_type(base_type, base_betti, args.alpha)
    _emit({"type": list(scaled_type), "betti": list(scaled_betti), "alpha": args.alpha})
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises argparse's usage errors as BadFlags instead of printing and exiting.
    Option prefixes are not expanded (subparsers are built with the same
    class), so ``--h`` outside ``macaulay`` is a usage error, not ``--help``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise BadFlags(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pferrer",
        description="Staircase diagrams in p dimensions: invariants, series, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="full invariant report for a diagram")
    report.add_argument("path", help="diagram JSON file, or - for stdin")
    form = report.add_mutually_exclusive_group()
    form.add_argument("--text", action="store_true", help="render as text instead of JSON")
    form.add_argument("--json", action="store_true", help="JSON output (default)")
    report.add_argument("--certificate", action="store_true", help="include the ara certificate")
    report.set_defaults(handler=cmd_report)

    verify = sub.add_parser("verify", help="formula-vs-brute-force verification")
    verify.add_argument("path")
    verify.add_argument("--max-degree", type=int, default=12, dest="max_degree")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(handler=cmd_verify)

    series = sub.add_parser("series", help="Hilbert series of a diagram quotient")
    series.add_argument("path")
    series.set_defaults(handler=cmd_series)

    dual = sub.add_parser("dual", help="series and generators of the Alexander dual")
    dual.add_argument("path")
    dual.set_defaults(handler=cmd_dual)

    macaulay = sub.add_parser("macaulay", help="realize an M-vector as a diagram")
    macaulay.add_argument("--h", required=True, help="comma-separated entries, e.g. 1,4,3,4,1")
    macaulay.set_defaults(handler=cmd_macaulay)

    pure = sub.add_parser("pure", help="pure resolution arithmetic")
    pure.add_argument("--a1", type=int)
    pure.add_argument("--a2", type=int)
    pure.add_argument("--beta0", type=int)
    pure.add_argument("--c", type=int, help="generation degree of the linear resolution")
    pure.add_argument("--p", type=int, help="codimension, the length of the resolution")
    pure.add_argument("--alpha", type=int, help="power substituted for every variable")
    pure.set_defaults(handler=cmd_pure)

    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device so that the
        # interpreter's final flush of what is still buffered cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        message = "stdout was closed before the output was written"
        print(json.dumps({"error": "BrokenPipe", "message": message}), file=sys.stderr)
        return EXIT_BROKEN_PIPE


def _dispatch(argv) -> int:
    """Parse, load the limits, run the handler; print a failure's name, message and attributes."""
    try:
        args = PARSER.parse_args(argv)
        return args.handler(args, Limits.from_env())
    except RecursionError:
        # A max_depth raised in FERRER_LIMITS can admit input that the
        # recursive diagram code cannot walk within the interpreter's limit.
        err = SizeLimitExceeded("input nested too deeply for the interpreter's recursion limit")
    except FerrerError as caught:
        err = caught
    _emit({"error": type(err).__name__, "message": str(err), **vars(err)})
    return EXIT_CODES.get(type(err), 2)


if __name__ == "__main__":
    sys.exit(main())
