"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact (zero tolerance); the only scoping knobs
are runtime budgets, noted inline where they apply.
"""

import json
import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from formaut.catalog import get_entry, load_entries, verify_entry
from formaut.cyclotomic import CycNum
from formaut.diaglattice import block_scalar_group
from formaut.forms import Form, parse
from formaut.matgroups import closure, invariant_dimension_molien, invariant_dimension_reynolds
from formaut.sequences import (SubdegreeSequence, fermat_order, jc, ratio,
                               ratio_with_groups, survivors_for, uniform_bounds_check)
from formaut.smoothness import is_smooth
from formaut.structure import finest_certificate

from lemmas import (binomial_supermultiplicativity, check_diag_bound, lambda_addr0, ratio_quotient_law,
                    ratioprod_check, scalar_group)
from oracles import fermat_form, partitions, smooth_by_resultant

GOLDEN = Path(__file__).parent / "golden"


def report(criterion, text):
    print("[AC%d] PASS  %s" % (criterion, text))


@pytest.fixture(scope="module")
def catalog_reports():
    out = {}
    for entry in load_entries():
        t0 = time.time()
        out[entry.label] = (verify_entry(entry, skip_smooth=True), time.time() - t0)
    return out


def test_criterion_01_exact_ratio_golden_suite():
    t0 = time.time()
    golden = json.loads((GOLDEN / "rvalues_d3.json").read_text())
    assert len(golden["values"]) == 14
    for seq, num, den in golden["values"]:
        assert ratio(seq, golden["d"]) == Fraction(int(num), int(den)), seq
    mixed = json.loads((GOLDEN / "mixed_sequences.json").read_text())
    for seq, d, num, den in mixed["a3"] + mixed["a6"]:
        assert ratio(seq, d) == Fraction(int(num), int(den)), (seq, d)
    elapsed = time.time() - t0
    assert elapsed < 1.0, "golden ratio suite took %.2fs" % elapsed
    report(1, "14 reference ratios and 6 mixed-sequence tuples exact in %.3fs" % elapsed)


def test_criterion_02_jc_table():
    table = {1: 1, 2: 60, 3: 360, 4: 25920, 5: 25920, 6: 6531840,
             7: 1451520, 8: 348364800, 9: 4199040, 12: 448345497600}
    for r, value in table.items():
        assert jc(r) == value
    assert jc(10) == factorial(11)
    assert jc(11) == factorial(12)
    assert jc(13) == factorial(14)
    assert jc(20) == factorial(21)
    report(2, "all tabulated JC values plus factorial spot checks at r = 10, 11, 13, 20")


def test_criterion_03_boundnd_finite_verification(tmp_path):
    t0 = time.time()
    for v in range(28, 35):
        assert survivors_for(v, 3) == [], "survivor at total %d, d = 3" % v
    for v in range(3, 31):
        assert survivors_for(v, 18) == [], "survivor at total %d, d = 18" % v
    elapsed = time.time() - t0
    assert elapsed < 60, "exhaustive scans took %.1fs" % elapsed
    # survivor list for n <= 25, d <= 17 frozen as golden TSV
    from formaut.cli import main
    out = tmp_path / "survivors.tsv"
    assert main(["search", "--n", "1..25", "--d", "3..17", "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "survivors_n25_d17.tsv").read_text()
    report(3, "no survivors for n+2 in 28..34 at d=3 nor for d=18 at n+2 in 3..30 "
              "(%.1fs); survivor table matches the golden file" % elapsed)


def test_criterion_04_lemma_property_suites():
    rng = random.Random(20240810)

    def random_sequence(max_total=14):
        v = rng.randint(1, max_total)
        parts = []
        while v:
            p = rng.randint(1, v)
            parts.append(p)
            v -= p
        return SubdegreeSequence(parts)

    # quotient law, 200 random cases
    for _ in range(200):
        assert ratio_quotient_law(random_sequence(), rng.randint(3, 20), rng.randint(3, 20))

    # binomial super-multiplicativity with the equality condition
    for _ in range(200):
        lhs, rhs, disjoint = binomial_supermultiplicativity(
            random_sequence(10), random_sequence(10), rng.randint(3, 12))
        assert lhs >= rhs and (lhs == rhs) == disjoint

    # decay-factor identity (closed form vs direct quotient, asserted inside)
    done = 0
    while done < 200:
        seq = random_sequence(10)
        big = [p for p in set(seq.parts) if p > 1]
        if not big:
            continue
        r0 = rng.choice(big)
        lambda_addr0(seq, r0, seq.count(r0), rng.randint(3, 12))
        done += 1

    # factorial inequality with equality iff a single block
    for _ in range(200):
        ks = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        prod = 1
        for k in ks:
            prod *= factorial(k)
        assert prod <= factorial(sum(ks))
        assert (prod == factorial(sum(ks))) == (len(ks) == 1)

    # uniform bounds 106 / 60 / 3 / 11 over the documented domain:
    # exhaustive at d = 3 for totals <= 30 (monotonicity in d extends the
    # conclusion), plus an exhaustive grid to totals <= 18 for d <= 20
    count = 0
    for v in range(1, 31):
        for seq in partitions(v):
            assert uniform_bounds_check(seq, 3), seq
            count += 1
    for v in range(1, 19):
        for seq in partitions(v):
            for d in (4, 7, 12, 18, 20):
                assert uniform_bounds_check(seq, d), (seq, d)
    assert count >= 200

    # the product test passes exactly at (2, 2) over all block tuples
    winners = []

    def tuples(rem, cap, pre):
        if len(pre) >= 2 and ratioprod_check(pre)[0]:
            winners.append(tuple(pre))
        for p in range(min(cap, rem), 0, -1):
            tuples(rem - p, p, pre + [p])

    tuples(12, 12, [])
    assert winners == [(2, 2)]
    assert ratioprod_check((2, 2))[1] == Fraction(25, 24)
    report(4, "quotient law, super-multiplicativity, decay identity, factorial "
              "inequality, uniform bounds (%d sequences at d=3) and the (2,2) "
              "product scan all hold" % count)


def test_criterion_05_diag_lattice_oracle():
    import numpy as np
    from itertools import combinations
    rng = random.Random(515)

    def exact_det(M):
        M = [[Fraction(x) for x in row] for row in M]
        n = len(M)
        out = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if M[r][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                M[c], M[piv] = M[piv], M[c]
                out = -out
            out *= M[c][c]
            for r in range(c + 1, n):
                f = M[r][c] / M[c][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
        return out

    def brute_order(form):
        from formaut.forms import block_degrees
        blocks = (1,) * form.nvars
        rows = sorted({block_degrees(e, blocks) for e in form.terms})
        V = [list(r) for r in rows]
        m = form.nvars
        K = None
        for rows_pick in combinations(range(len(V)), m):
            det = exact_det([V[i] for i in rows_pick])
            if det:
                K = abs(int(det))
                break
        if K is None:
            return None
        grid = np.indices((K,) * m).reshape(m, -1).T
        return int(np.all(grid @ np.array(V, dtype=np.int64).T % K == 0, axis=1).sum())

    checked = 0
    while checked < 50:
        r = rng.randint(2, 3)
        d = rng.randint(3, 5)
        terms = {}
        for i in range(r):
            e = [0] * r
            e[i] = d - 1
            e[rng.randrange(r)] += 1
            terms[tuple(e)] = CycNum.from_int(rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            e = [0] * r
            for _ in range(d):
                e[rng.randrange(r)] += 1
            terms[tuple(e)] = CycNum.from_int(1)
        form = Form(r, terms, d)
        if is_smooth(form).verdict != "smooth":
            continue
        grp = block_scalar_group(form, (1,) * r)
        assert grp.order == brute_order(form), form
        assert grp.order <= d ** r                          # the abelian bound
        assert check_diag_bound(form, (1,) * r)
        checked += 1

    for (d, r) in [(3, 3), (4, 3), (5, 4)]:
        assert block_scalar_group(fermat_form(d, r), (1,) * r).order == d ** r
    report(5, "SNF orders equal brute-force root-of-unity counts on 50 random "
              "smooth forms; bound d^m holds; Fermat attains d^r")


FULL_CLOSURE_EXPECTED = {
    "klein-quartic": (672, 168),
    "wiman-sextic": (2160, 360),
    "hessian-sextic": (1296, 216),
    "quartic-1920": (7680, 1920),
    "pair-octahedral-sextic": (41472, 6912),
    "fermat-1-3": (162, 54),
    "fermat-1-5": (750, 150),
    "fermat-2-3": (1944, 648),
    "fermat-3-3": (29160, 9720),
}


def test_criterion_06_catalog_full_closure(catalog_reports):
    for label, (aut, lin) in FULL_CLOSURE_EXPECTED.items():
        rep, seconds = catalog_reports[label]
        assert rep["ok"], (label, rep)
        assert rep["checks"]["closure"]["order"] == aut
        assert rep["checks"]["projective_order"]["order"] == lin
        assert seconds < 300, "%s took %.0fs" % (label, seconds)
    report(6, "full-closure orders: " + ", ".join(
        "%s=%d" % (label, aut) for label, (aut, _) in sorted(FULL_CLOSURE_EXPECTED.items())))


def test_certificate_reports_match_golden(catalog_reports):
    # checks.certificate.report of every row with a certificate, frozen as JSON
    reports = {label: rep["checks"]["certificate"]["report"]
               for label, (rep, _) in catalog_reports.items() if "certificate" in rep["checks"]}
    text = json.dumps(reports, indent=1, sort_keys=True) + "\n"
    assert text == (GOLDEN / "structure_reports.json").read_text()
    report(6, "%d certificate reports byte-identical to the golden file" % len(reports))


def test_catalog_reports_match_golden(catalog_reports):
    # every check of every row (parse, closure, projective_order, compositional_order, preserves,
    # semi_permutation, beats_fermat and certificate), without seconds, frozen as JSON
    reports = {label: {k: v for k, v in rep.items() if k != "seconds"} for label, (rep, _) in catalog_reports.items()}
    text = json.dumps(reports, indent=1, sort_keys=True) + "\n"
    assert text == (GOLDEN / "catalog_reports.json").read_text()
    report(6, "%d catalog reports byte-identical to the golden file" % len(reports))


def test_certificate_ratios_form_the_fermat_chain(catalog_reports):
    # |G|/(d^v v!) <= B/(d^v v!) <= R(H, d) <= R(l, d) on every certificate with a form:
    # B groups by the intrinsic multiplicities, R(H, d) by equal subdegrees, and
    # R(l, d) puts the JC maxima in place of the constituent orders |H_ij|
    rows = []
    for entry in load_entries():
        cert = catalog_reports[entry.label][0]["checks"].get("certificate", {}).get("report", {})
        if "fermat_ratio" not in cert:
            continue
        sizes = {"%d,%d" % (i + 1, j + 1): stop - start
                 for i, j, start, stop in finest_certificate(entry.generators()).block_ranges()}
        groups = [(sizes[key], h) for key, h in cert["constituents"].items()]
        fermat = fermat_order(entry.nvars, entry.d)
        chain = [Fraction(cert["fermat_ratio"]), Fraction(cert["canonical_bound"], fermat),
                 ratio_with_groups(groups, entry.d), ratio(cert["subdegree_sequence"], entry.d)]
        assert chain == sorted(chain), (entry.label, chain)
        rows.append("%s %s" % (entry.label, chain[0]))
    assert len(rows) == 15
    report(10, "Fermat chain on %d certificates: %s" % (len(rows), "; ".join(rows)))


def test_criterion_07_compositional_tier(catalog_reports):
    for label, aut in [("pair-icosahedral-12ic", 1036800),
                       ("triple-icosahedral-12ic", 2239488000)]:
        rep, _ = catalog_reports[label]
        assert rep["ok"], (label, rep)
        assert rep["checks"]["compositional_order"]["order"] == aut
        cert = rep["checks"]["certificate"]["report"]
        assert cert["identities_hold"]
        assert cert["group_order"] == cert["principal_order"] * cert["psi_image_order"]
        assert cert["principal_order"] == cert["kernel_order"] * cert["phi_image_order"]
    report(7, "compositional orders 1036800 and 2239488000 proved through the "
              "exact-sequence identities")


def test_criterion_08_smoothness():
    rng = random.Random(88)
    for entry in load_entries():
        cert = is_smooth(entry.form())
        assert cert.verdict == "smooth", (entry.label, cert.verdict)
    # singular controls carry witnesses that really kill every partial
    from formaut.forms import partials
    for text, nvars in [("x1^3*x2", 2), ("x1^4*x2^2", 2), ("x1^3 + x2^3", 3)]:
        F = parse(text, nvars=nvars)
        cert = is_smooth(F)
        assert cert.verdict == "singular"
        assert cert.witness is not None
        assert any(not w.is_zero() for w in cert.witness)
        for p in partials(F):
            value = CycNum.zero()
            for exps, coeff in p.terms.items():
                term = coeff
                for w, e in zip(cert.witness, exps):
                    term = term * w ** e
                value = value + term
            assert value.is_zero()
    # r = 2 Groebner verdicts against the resultant oracle: 100 random forms,
    # then forms of degree 40 and 64 (degree caps 160 and 256, so 9- and
    # 10-bit exponent fields), a smooth one and one singular at (1 : 1) each
    binary = []
    for _ in range(100):
        d = rng.randint(2, 7)
        terms = {}
        for i in range(d + 1):
            c = rng.randint(-3, 3)
            if c:
                terms[(d - i, i)] = CycNum.from_int(c)
        if not terms:
            terms[(d, 0)] = CycNum.one()
        binary.append(Form(2, terms, d))
    for d in (40, 64):
        binary.append(parse("x1^%d + 2*x1^7*x2^%d - x2^%d" % (d, d - 7, d)))
        binary.append(parse("(x1 - x2)^2*(x1^%d + x2^%d)" % (d - 2, d - 2)))
    agree = 0
    for F in binary:
        smooth = smooth_by_resultant(F)
        assert (is_smooth(F, "char0").verdict == "smooth") == smooth
        modp = is_smooth(F, "modp").verdict   # singular only from the exact coordinate check
        assert (modp == "smooth") if smooth else (modp in ("singular", "undecided"))
        agree += 1
    report(8, "all %d catalog forms certified smooth; singular controls "
              "witnessed; %d binary Groebner verdicts (char0 and mod p) match "
              "the resultant" % (len(load_entries()), agree))


def test_criterion_09_invariant_dimensions():
    # Reynolds and Molien agree on closed groups of order <= 10^4; the sweep
    # runs all degrees <= 12 in two variables and degrees <= 6 in three
    # (runtime scoping; the dual-route identity has no dimension dependence)
    two_var = [scalar_group(2, 3), scalar_group(2, 4),
               closure(get_entry("tetrahedral-binary-quartic").generators()),
               closure(get_entry("octahedral-binary-sextic").generators()),
               closure(get_entry("icosahedral-binary-12ic").generators())]
    pairs = 0
    for grp in two_var:
        assert grp.order <= 10 ** 4
        for e in range(1, 13):
            assert invariant_dimension_reynolds(grp, e) == invariant_dimension_molien(grp, e)
            pairs += 1
    three_var = [closure(get_entry("fermat-1-3").generators()),
                 closure(get_entry("klein-quartic").generators())]
    for grp in three_var:
        assert grp.order <= 10 ** 4
        for e in range(1, 7):
            assert invariant_dimension_reynolds(grp, e) == invariant_dimension_molien(grp, e)
            pairs += 1

    bare_icosahedral = closure(get_entry("icosahedral-binary-12ic").generators()[:2])
    assert bare_icosahedral.order == 120
    dims = {e: invariant_dimension_molien(bare_icosahedral, e) for e in range(1, 13)}
    assert dims[12] == 1 and all(dims[e] == 0 for e in range(1, 12))
    assert invariant_dimension_reynolds(bare_icosahedral, 12) == 1
    octa = closure(get_entry("octahedral-binary-sextic").generators())
    assert all(invariant_dimension_molien(octa, e) == 0 for e in range(1, 6))
    report(9, "Reynolds = Molien on %d (group, degree) pairs; icosahedral "
              "invariants live exactly in degree 12" % pairs)


def test_criterion_10_headline_comparison(catalog_reports):
    rows = []
    for entry in load_entries():
        if not (entry.exceptional and entry.in_theorem_domain):
            continue
        fermat_count = entry.d ** (entry.n + 1) * factorial(entry.n + 2)
        lin = entry.expected["lin_order"]
        # for desk-verifiable tiers the order is the pipeline-computed one
        rep, _ = catalog_reports[entry.label]
        if "projective_order" in rep["checks"]:
            assert rep["checks"]["projective_order"]["order"] == lin
        elif "compositional_order" in rep["checks"]:
            assert rep["checks"]["compositional_order"]["order"] == entry.d * lin
        assert lin > fermat_count, entry.label
        rows.append("(%d,%d): %d > %d" % (entry.n, entry.d, lin, fermat_count))
    assert len(rows) == 6
    report(10, "; ".join(rows))
