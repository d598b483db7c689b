"""Command-line interface: one subcommand per module surface.

All numeric output is exact (rationals are printed as p/q).  Exit status is
0 on success or a verified property, 1 on a failed verification, 2 on usage
errors.  A usage error is a bad command line (a numeric flag out of range
included, refused as the command line is parsed), a verify-catalog
selection that matches no entry, `structure --tier compositional` without
`--form`, or an input file that is missing or malformed (a form that does
not parse or is not homogeneous, a bad scalar, bad generator or
certificate JSON, input nested too deeply to parse, or a dimension
mismatch).  Randomized choices (mod-p primes) are seeded and recorded in
the output, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .diaglattice import block_scalar_group, semi_permutation_group
from .forms import from_json as form_from_json
from .forms import parse as form_parse
from .matgroups import DEFAULT_CAP, MatGroup, generators_from_json, invariant_dimension, reynolds_array_bytes
from .sequences import (BOUNDS_SCAN_MAX_D, BOUNDS_SCAN_MAX_TOTAL, SequenceError, SubdegreeSequence,
                        classification_search, enumerate_sequences, jc, mixed_sequence_scan, ratio,
                        uniform_bounds_check)
from .smoothness import _is_prime, is_smooth
from .structure import DecompositionCertificate, verify_certificate, verify_compositional


class UsageError(Exception):
    """A missing or malformed input file (exit status 2)."""


def _load(kind: str, path: str, parse):
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
        raise UsageError("bad %s file %s: %s" % (kind, path, exc)) from exc


def _load_form(path: str):
    return _load("form", path, lambda text: form_from_json(text)
                 if text.lstrip().startswith("{") else form_parse(text))


def _load_generators(path: str):
    return _load("generator", path, generators_from_json)


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


def cmd_ratio(args) -> int:
    r = ratio(args.seq, args.d)
    print("%d/%d" % (r.numerator, r.denominator))
    return 0


def cmd_jc(args) -> int:
    print(jc(args.r))
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
    """Uniform-bound failures at d = 3 and the mixed hits, over the R(l, 3) >= 1 walk.

    A sequence with R(l, 3) < 1 passes every uniform bound (each exceeds 1),
    so only the pruned walk's sequences can fail one.
    """
    failures = []
    for v in range(1, args.max_total + 1):
        for seq in enumerate_sequences(v, 3):
            rep = uniform_bounds_check(seq, 3)
            if not rep["ok"]:
                failures.append(str(seq))
    hits = mixed_sequence_scan(args.max_total, args.max_d)
    payload = {
        "max_total": args.max_total,
        "max_d": args.max_d,
        "uniform_bound_failures": failures,
        "mixed_hits": [{"sequence": str(s), "d": d, "ratio": "%d/%d" % (r.numerator, r.denominator)}
                       for s, d, r in hits],
    }
    _emit(payload, args.out)
    return 0 if not failures else 1


def cmd_smooth(args) -> int:
    form = _load_form(args.form_file)
    cert = is_smooth(form, strategy=args.strategy, primes=args.prime or None,
                     seed=args.seed, pair_budget=args.budget)
    print(cert.to_json())
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
    cert = _load("certificate", args.cert, DecompositionCertificate.from_json)
    form = _load_form(args.form) if args.form else None
    dims = {"generator": gens[0].dim, "certificate": cert.dim}
    if form is not None:
        dims["form"] = form.nvars
    if len(set(dims.values())) > 1:
        raise UsageError("dimension mismatch: %s" % ", ".join("%s %d" % kv for kv in dims.items()))
    if args.tier == "compositional":
        if form is None:
            raise UsageError("compositional verification needs --form")
        report = verify_compositional(gens, cert, form, block_cap=args.cap)
    else:
        grp = MatGroup(gens)
        if not grp.close(args.cap):
            print("closure cap exceeded or the group is infinite", file=sys.stderr)
            return 1
        report = verify_certificate(grp, cert, form)
    print(report.to_json())
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

    p = sub.add_parser("structure", help="verify a decomposition certificate")
    p.add_argument("gens")
    p.add_argument("cert")
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
