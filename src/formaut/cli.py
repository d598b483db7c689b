"""Command-line interface: one subcommand per module surface.

All numeric output is exact (rationals are printed as p/q).  Exit status is
0 on success or a verified property, 1 on a failed verification, 2 on usage
errors.  A usage error is a bad command line (a numeric flag out of range
included, refused as the command line is parsed), a verify-catalog
selection that matches no entry, `structure --tier compositional` without
`--form`, or an input file that is missing or malformed (a form that does
not parse or is not homogeneous, a bad scalar, bad generator JSON, input
nested too deeply to parse, or a dimension mismatch).  Randomized choices
(mod-p primes) are seeded and recorded in the output, so runs are
reproducible byte for byte.

The user file formats live here: a form file is form text or {"nvars",
"degree" (optional), "terms": [{"exps", "coeff"}]}, and a generator file is
{"dim", "generators"} as generators_to_json writes it.  In both, a scalar is
scalar text or a JSON integer; anything else is malformed (`forms._as_cyc`).
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal

from . import catalog
from .diaglattice import block_scalar_group, semi_permutation_group
from .cyclotomic import scalar_to_str
from .forms import ExactMatrix, Form, FormError, _as_cyc
from .forms import parse as form_parse
from .matgroups import DEFAULT_CAP, GroupError, MatGroup, invariant_dimension, reynolds_array_bytes
from .sequences import SequenceError, SubdegreeSequence, classification_search, jc, ratio, uniform_bounds_check
from .smoothness import _is_prime, is_smooth
from .structure import finest_certificate, verify_certificate, verify_compositional

# Domain over which the mixed-subdegree facts are verified exhaustively; the
# d-range collapses to d = 3 by monotonicity of R in d.  Past total 30 only the
# tests' d = 3 scan runs, up to total 200; no code covers totals past 200.
BOUNDS_SCAN_MAX_TOTAL = 30
BOUNDS_SCAN_MAX_D = 20


class UsageError(Exception):
    """A missing or malformed input file (exit status 2)."""


def form_from_payload(payload) -> Form:
    """A form file's JSON; repeated exponent vectors are summed, as the text parser sums them."""
    nvars, degree = payload["nvars"], payload.get("degree")
    if type(nvars) is not int or type(degree) not in (int, type(None)):
        raise FormError("nvars and degree must be integers, got %s and %s"
                        % (json.dumps(nvars), json.dumps(degree)))
    terms: dict = {}
    for t in payload["terms"]:
        if any(type(e) is not int for e in t["exps"]):
            raise FormError("exponents must be integers, got %s" % json.dumps(t["exps"]))
        exps, c = tuple(t["exps"]), _as_cyc(t["coeff"])
        terms[exps] = terms[exps] + c if exps in terms else c
    return Form(nvars, terms, degree)


def generators_from_payload(payload):
    dim = payload["dim"]
    if type(dim) is not int or dim < 1:
        raise GroupError("dim must be a positive integer, got %s" % json.dumps(dim))
    gens = [ExactMatrix(entries) for entries in payload["generators"]]
    if any(m.dim != dim for m in gens):
        raise GroupError("generator dimension mismatch")
    if not gens:
        raise GroupError("no generators")
    return gens


def generators_to_json(gens) -> str:
    return json.dumps({
        "dim": gens[0].dim,
        "generators": [[[scalar_to_str(c) for c in row] for row in g.entries] for g in gens],
    })


def _load(kind: str, path: str, build):
    """build(the file's JSON payload); a form file that does not start with "{" is form text."""
    try:
        with open(path) as fh:
            text = fh.read()
        if kind == "form" and not text.lstrip().startswith("{"):
            return form_parse(text)
        return build(json.loads(text))
    except (OSError, ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
        raise UsageError("bad %s file %s: %s" % (kind, path, exc)) from exc


def _load_form(path: str):
    return _load("form", path, form_from_payload)


def _load_generators(path: str):
    return _load("generator", path, generators_from_payload)


def _at_least(k: int):
    """An argparse type: an integer >= k."""
    def parse(text: str) -> int:
        if not text.lstrip("-").isdigit() or int(text) < k:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %r" % (k, text))
        return int(text)
    return parse


def _odd_prime(text: str) -> int:
    """An argparse type: a prime p >= 3 (the split condition p = 1 mod N is checked by is_smooth)."""
    if not text.isdigit() or int(text) < 3 or not _is_prime(int(text)):
        raise argparse.ArgumentTypeError("expected an odd prime, got %r" % text)
    return int(text)


def _range_at_least(k: int):
    """An argparse type: a value or a range lo..hi of integers with k <= lo <= hi."""
    def parse(text: str) -> range:
        lo, dots, hi = text.partition("..")
        lo = _at_least(k)(lo)
        hi = _at_least(lo)(hi) if dots else lo
        return range(lo, hi + 1)
    return parse


def _sequence(text: str) -> SubdegreeSequence:
    """An argparse type: a subdegree sequence in caret notation."""
    try:
        return SubdegreeSequence.from_text(text)
    except SequenceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit(payload, out=None):
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _exact(x) -> str:
    """An int, or a Fraction as p/q, in decimal at any size (int's digit limit still refuses oversized input)."""
    return str(Decimal(x)) if isinstance(x, int) else "%s/%s" % (Decimal(x.numerator), Decimal(x.denominator))


def cmd_ratio(args) -> int:
    print(_exact(ratio(args.seq, args.d)))
    return 0


def cmd_jc(args) -> int:
    print(_exact(jc(args.r)))
    return 0


def cmd_search(args) -> int:
    report = classification_search(args.n, args.d)
    rows = ["n\td\tsequence\tratio_num\tratio_den"]
    for rec in report["survivors"]:
        rows.append("%d\t%d\t%s\t%d\t%d" % (rec["n"], rec["d"], rec["sequence"],
                                            rec["ratio"].numerator, rec["ratio"].denominator))
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.expect_empty and report["survivors"]:
        return 1
    return 0


def cmd_bounds_scan(args) -> int:
    """Uniform-bound failures at d = 3 and the mixed hits, read off one survivor search.

    The search (totals 3..T, d = 3..D) records each l with a part > 1 and
    R(l, d) >= 1; every other l passes every bound: R(l, 3) < 1 lies below
    them all, R(1^v, d) = 1, and at totals <= 2 the only other l with R >= 1
    is 2^1, with R(2^1, 3) = 10 and no part 1.  The mixed hits are the
    records with a part 1, by total, then in the walk's descending-lex order
    (no two partitions of one total are prefixes of each other), then by d.
    """
    records = classification_search(range(1, args.max_total - 1), range(3, args.max_d + 1))["survivors"]
    failures = [str(rec["sequence"]) for rec in records
                if rec["d"] == 3 and not uniform_bounds_check(rec["sequence"], 3)]
    hits = sorted((rec for rec in records if rec["sequence"].parts[-1] == 1),
                  key=lambda rec: (rec["n"], [-p for p in rec["sequence"].parts], rec["d"]))
    payload = {
        "max_total": args.max_total,
        "max_d": args.max_d,
        "uniform_bound_failures": failures,
        "mixed_hits": [{"sequence": str(rec["sequence"]), "d": rec["d"], "ratio": _exact(rec["ratio"])}
                       for rec in hits],
    }
    _emit(payload, args.out)
    return 0 if not failures else 1


def cmd_smooth(args) -> int:
    form = _load_form(args.form_file)
    cert = is_smooth(form, strategy=args.strategy, primes=args.prime or None,
                     seed=args.seed, pair_budget=args.budget)
    print(json.dumps(cert.payload()))
    return 0 if cert.verdict in ("smooth", "singular") else 1


def cmd_closure(args) -> int:
    gens = _load_generators(args.gens)
    grp = MatGroup(gens)
    closed = grp.close(args.cap)
    payload = {"dim": grp.dim, "conductor": grp.conductor, "closed": closed}
    if closed:
        payload["order"] = grp.order
        payload["projective_order"] = grp.projective_order()
        payload["center_order"] = grp.center_order()
    _emit(payload, args.out)
    return 0 if closed else 1


def cmd_invdim(args) -> int:
    gens = _load_generators(args.gens)
    grp = MatGroup(gens)
    if args.method in ("reynolds", "both"):
        reynolds_array_bytes(grp.dim, args.degree, len(grp.generators))
    if not grp.close(args.cap):
        print("closure cap exceeded or the group is infinite", file=sys.stderr)
        return 1
    dim = invariant_dimension(grp, args.degree, method=args.method)
    print(dim)
    return 0


def cmd_diag_group(args) -> int:
    form = _load_form(args.form_file)
    if sum(args.blocks) != form.nvars:
        raise UsageError("dimension mismatch: block sizes sum to %d, the form has %d variables"
                         % (sum(args.blocks), form.nvars))
    grp = block_scalar_group(form, args.blocks)
    payload = {
        "blocks": list(grp.block_sizes),
        "order": grp.order,
        "infinite": grp.order is None,
        "divisors": grp.divisors,
        "generators": [[[str(c) for c in row] for row in g.entries] for g in grp.generators],
    }
    _emit(payload, args.out)
    return 0


def cmd_semiperm_group(args) -> int:
    form = _load_form(args.form_file)
    grp = semi_permutation_group(form)
    payload = {
        "order": grp.order,
        "diagonal_order": grp.diagonal_order,
        "permutation_image_order": len(grp.permutations),
        "generators": [[[str(c) for c in row] for row in g.entries] for g in grp.generators],
    }
    _emit(payload, args.out)
    return 0


def cmd_structure(args) -> int:
    gens = _load_generators(args.gens)
    form = _load_form(args.form) if args.form else None
    if form is not None and form.nvars != gens[0].dim:
        raise UsageError("dimension mismatch: generator %d, form %d" % (gens[0].dim, form.nvars))
    if args.tier == "compositional" and form is None:
        raise UsageError("compositional verification needs --form")
    if args.tier == "compositional":
        report = verify_compositional(gens, finest_certificate(gens), form, block_cap=args.cap)
    else:
        grp = MatGroup(gens)
        if not grp.close(args.cap):
            print("closure cap exceeded or the group is infinite", file=sys.stderr)
            return 1
        report = verify_certificate(grp, finest_certificate(gens), form)
    print(json.dumps(report.payload()))
    return 0


def cmd_verify_catalog(args) -> int:
    labels = [args.entry] if args.entry is not None else None
    reports, ok = catalog.verify_all(labels=labels, skip_smooth=args.skip_smooth)
    if not reports:
        raise UsageError("no catalog entry matches --entry %r" % args.entry)
    _emit({"reports": reports, "ok": ok}, args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formaut",
        description="Exact machinery for automorphism groups of smooth forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ratio", help="Fermat-test ratio of a subdegree sequence")
    p.add_argument("--seq", required=True, type=_sequence, help="caret notation, e.g. '2^13' or '8^1 6^2 1^3'")
    p.add_argument("--d", type=_at_least(3), required=True)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("jc", help="maximal primitive projective group order")
    p.add_argument("--r", type=_at_least(1), required=True)
    p.set_defaults(func=cmd_jc)

    p = sub.add_parser("search", help="survivor scan over an (n, d) grid")
    p.add_argument("--n", required=True, type=_range_at_least(1), help="value or range, e.g. 1..25")
    p.add_argument("--d", required=True, type=_range_at_least(3), help="value or range, e.g. 3..17")
    p.add_argument("--out", help="TSV output path (default stdout)")
    p.add_argument("--expect-empty", action="store_true",
                   help="exit 1 if any survivor is found")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds-scan", help="uniform-bound and mixed-sequence scan")
    p.add_argument("--max-total", type=_at_least(1), default=BOUNDS_SCAN_MAX_TOTAL)
    p.add_argument("--max-d", type=_at_least(3), default=BOUNDS_SCAN_MAX_D)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds_scan)

    p = sub.add_parser("smooth", help="smoothness certificate for a form")
    p.add_argument("form_file")
    p.add_argument("--strategy", choices=["auto", "char0", "modp"], default="auto")
    p.add_argument("--prime", type=_odd_prime, action="append")
    p.add_argument("--budget", type=_at_least(0), default=200000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("closure", help="close a matrix group from generators")
    p.add_argument("gens")
    p.add_argument("--cap", type=_at_least(1), default=DEFAULT_CAP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("invdim", help="dimension of degree-e invariants")
    p.add_argument("gens")
    p.add_argument("--degree", type=_at_least(0), required=True)
    p.add_argument("--method", choices=["reynolds", "molien", "both"], default="both")
    p.add_argument("--cap", type=_at_least(1), default=DEFAULT_CAP)
    p.set_defaults(func=cmd_invdim)

    p = sub.add_parser("diag-group", help="block-scalar stabilizer of a form")
    p.add_argument("form_file")
    p.add_argument("--blocks", required=True, type=lambda text: [_at_least(1)(b) for b in text.split(",")],
                   help="comma separated sizes, e.g. 1,1,2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_diag_group)

    p = sub.add_parser("semiperm-group", help="semi-permutation stabilizer of a form")
    p.add_argument("form_file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_semiperm_group)

    p = sub.add_parser("structure", help="verify the decomposition certificate of a generator set")
    p.add_argument("gens")
    p.add_argument("--form")
    p.add_argument("--tier", choices=["closed", "compositional"], default="closed")
    p.add_argument("--cap", type=_at_least(1), default=DEFAULT_CAP)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("verify-catalog", help="run the catalog verification pipeline")
    p.add_argument("--entry")
    p.add_argument("--skip-smooth", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
