"""The classification catalog: every tabulated form with generators, plus
the end-to-end verification pipeline.

Each entry carries its defining form, a generating set for its linear
automorphism group (entries read as ExactMatrix entries: scalar text or
integers) and the expected orders.  Generators are validated, never
trusted: verify_entry re-derives everything it can at the entry's tier.
No row lists a certificate: the certificate verifier computes the finest
one from the generators (`structure.finest_certificate`) and checks that
they preserve the form, so only rows it does not accept call `preserves`; a
refusal, the finder's included, fails the `certificate` check of its row.

Tiers (each row names its own, and verify_entry picks the route once; a
row naming any other tier is refused when it is loaded):
* full-closure: materialize the group under DEFAULT_CAP (checked when the
  row is loaded), check the order, the projective order and the
  certificate, whose |G|, |P| and |N| are residue counts of the closed group.
* compositional: prove the order through the associated exact sequences
  with per-block closures (for groups beyond the enumeration cap).  |N| is
  checked against the row's block-scalar generators, so every row keeps them
  even where its other generators generate them.
* generators-only: check invariance and smoothness; the order is recorded
  catalog data (the full closure is beyond desk scale), so the row has no
  closure check.

Every check in a report is one the pipeline ran, and each can fail.  The
`parse` check holds when the form has the row's degree d.  The Fermat ratio
|G| / d^v·v! is the certificate report's `fermat_ratio`.  The `certificate`
check holds when the verifier accepts; the report's |G| is compared with the
row's order once, by `closure` (full-closure) or `compositional_order`.

A sum row {"sum_of": base label, "copies": k} is k copies of the base form in
disjoint variables (group H wr S_k); load_entries gives it direct_sum's form
(the base text and its k - 1 copies in shifted variables, joined by " + "),
order |H|^k k! and generators.  The generators: each non-scalar base
generator on block 1, .., block k; the block swap (1 2); the k-cycle if
k >= 3; each scalar one on blocks 1..k-1 (the compositional tier checks |N|
against the supplied block-scalar generators), then on all blocks.

A Fermat stub {"fermat": true} lists only key, label, n and d; load_entries
gives it fermat_row's fields.  With v = n + 2: the form x1^d + ... + xv^d;
the generators diag(z_d, 1, .., 1), the swap (1 2) and the v-cycle (it is not
a sum row: direct_sum on x1^d would give v + 2 generators); the order
fermat_order(v, d).  lin_order is aut_order / d, so only the subgroup_only
row (quintic-480) lists it.
"""

from __future__ import annotations

import json
import re
import time
from importlib import resources
from math import factorial

from ..diaglattice import semi_permutation_group
from ..forms import ExactMatrix, Form, parse
from ..matgroups import DEFAULT_CAP, MatGroup, preserves
from ..sequences import fermat_order
from ..smoothness import is_smooth
from ..structure import CertificateError, verify_certificate, verify_compositional


class CatalogError(ValueError):
    pass


class CatalogEntry:
    def __init__(self, payload: dict):
        self.key = payload["key"]
        self.n = payload["n"]
        self.d = payload["d"]
        self.label = payload["label"]
        self.tier = payload["tier"]
        self.form_text = payload["form"]
        self.generator_entries = payload["generators"]
        self.expected = dict(payload["expected"])
        self.exceptional = payload.get("exceptional", False)
        self.in_theorem_domain = payload.get("in_theorem_domain", True)
        self.fermat = payload.get("fermat", False)
        self.subgroup_only = payload.get("subgroup_only", False)
        if ("lin_order" in self.expected) != self.subgroup_only:
            raise CatalogError("%s: a row lists lin_order if and only if it is subgroup_only" % self.key)
        self.expected.setdefault("lin_order", self.expected["aut_order"] // self.d)
        if self.tier not in ("full-closure", "compositional", "generators-only"):
            raise CatalogError("%s: unknown tier %r" % (self.key, self.tier))
        if self.tier == "full-closure" and self.expected["aut_order"] > DEFAULT_CAP:
            raise CatalogError("%s: full-closure order exceeds the cap" % self.key)

    @property
    def nvars(self) -> int:
        return self.n + 2

    def form(self) -> Form:
        return parse(self.form_text, nvars=self.nvars)

    def generators(self):
        return [ExactMatrix(g) for g in self.generator_entries]

    def __repr__(self):
        return "CatalogEntry(%s: %s)" % (self.key, self.label)


def direct_sum(base: dict, copies: int) -> dict:
    """Form, order and generators of `copies` copies of the base row (see above)."""
    m, blocks = base["n"] + 2, range(copies)
    form = " + ".join(re.sub(r"x(\d+)", lambda x: "x%d" % (int(x[1]) + m * b), base["form"]) for b in blocks)
    eye = [["1" if r == c else "0" for c in range(m)] for r in range(m)]
    def place(mats, perm=blocks):       # row-block b holds mats[b] in column-block perm[b]
        return [["0"] * m * p + row + ["0"] * m * (copies - 1 - p) for p, mat in zip(perm, mats) for row in mat]

    # read on the unparsed strings: off-diagonal entries "0" and one repeated diagonal entry
    scalar = [g for g in base["generators"]
              if all(x == (g[0][0] if r == c else "0") for r, row in enumerate(g) for c, x in enumerate(row))]
    gens = [place([g if b == a else eye for b in blocks]) for a in blocks for g in base["generators"]
            if g not in scalar]
    swap, cycle = [1, 0, *blocks[2:]], [*blocks[1:], 0]
    gens += [place([eye] * copies, perm) for perm in ([swap, cycle] if copies >= 3 else [swap])]
    gens += [place([g if b == a else eye for b in blocks]) for a in blocks[:-1] for g in scalar]
    gens += [place([g] * copies) for g in scalar]
    return {"form": form, "generators": gens,
            "expected": {"aut_order": base["expected"]["aut_order"] ** copies * factorial(copies)}}


def fermat_row(n: int, d: int) -> dict:
    """The fields that load_entries gives the Fermat stub of (n, d) (see above)."""
    v = n + 2
    eye = [["1" if r == c else "0" for c in range(v)] for r in range(v)]
    return {"tier": "full-closure", "form": " + ".join("x%d^%d" % (i, d) for i in range(1, v + 1)),
            "generators": [[["z%d" % d, *eye[0][1:]], *eye[1:]], [eye[1], eye[0], *eye[2:]], [*eye[1:], eye[0]]],
            "expected": {"aut_order": fermat_order(v, d), "group_name": "C%d^%d:S%d" % (d, v - 1, v)}}


def _resolve(row: dict, rows: dict) -> dict:
    """A Fermat stub with fermat_row's fields filled in, or a sum row with direct_sum's."""
    if row.get("fermat"):
        made = fermat_row(row["n"], row["d"])
        if made.keys() & row.keys():
            raise CatalogError("Fermat row %s lists a field its rule provides" % row["label"])
        return {**row, **made}
    base, k = rows.get(row["sum_of"], {}), row.get("copies")
    why = ("lists its own generators, form or aut_order"
           if row.keys() & {"generators", "form"} or "aut_order" in row["expected"] else
           "names no row that lists its own generators" if "generators" not in base else
           "needs an integer number of copies >= 2" if type(k) is not int or k < 2 else
           "needs nvars equal to its base's nvars times copies" if (base["n"] + 2) * k != row["n"] + 2 else None)
    if why:
        raise CatalogError("sum row %s %s" % (row["label"], why))
    made = direct_sum(base, k)
    return {**row, **made, "expected": {**row["expected"], **made["expected"]}}


def load_entries():
    """All catalog entries, sorted by key; Fermat stubs and sum rows are resolved first."""
    root = resources.files(__package__) / "data"
    rows = [json.loads(item.read_text()) for item in root.iterdir() if item.name.endswith(".json")]
    by_label = {row["label"]: row for row in rows}
    entries = [CatalogEntry(_resolve(row, by_label) if "sum_of" in row or row.get("fermat") else row)
               for row in rows]
    return sorted(entries, key=lambda e: (e.n, e.d, e.key))


def get_entry(key_or_label: str) -> CatalogEntry:
    for e in load_entries():
        if e.key == key_or_label or e.label == key_or_label:
            return e
    raise CatalogError("no catalog entry %r" % key_or_label)


def verify_entry(entry: CatalogEntry, skip_smooth: bool = False) -> dict:
    """Run the per-entry pipeline; returns a check-by-check report."""
    t0 = time.time()
    checks = {}
    report = {"key": entry.key, "label": entry.label, "tier": entry.tier, "checks": checks}

    form = entry.form()
    checks["parse"] = {"ok": form.degree == entry.d, "terms": len(form.terms)}

    gens = entry.generators()

    if not skip_smooth:
        cert = is_smooth(form)
        checks["smooth"] = {"ok": cert.verdict == "smooth", "verdict": cert.verdict, "method": cert.method}

    expected_aut = entry.expected["aut_order"]
    expected_lin = entry.expected["lin_order"]
    struct = None
    try:
        if entry.tier == "full-closure":
            grp = MatGroup(gens)
            if not grp.close():
                checks["closure"] = {"ok": False, "reason": "cap exceeded or group infinite"}
            else:
                checks["closure"] = {"ok": grp.order == expected_aut,
                                     "order": grp.order, "expected": expected_aut}
                proj = grp.projective_order()
                checks["projective_order"] = {"ok": proj == expected_lin,
                                              "order": proj, "expected": expected_lin}
                struct = verify_certificate(grp, form)
        elif entry.tier == "compositional":
            struct = verify_compositional(gens, form)
            checks["compositional_order"] = {"ok": struct.group_order == expected_aut,
                                             "order": struct.group_order, "expected": expected_aut}
    except CertificateError as exc:
        checks["certificate"] = {"ok": False, "refused": str(exc)}
    if struct is not None:
        checks["certificate"] = {"ok": True, "report": struct.payload()}
    checks["preserves"] = {"ok": struct is not None or preserves(gens, form)}

    if entry.fermat:
        sp = semi_permutation_group(form)
        checks["semi_permutation"] = {"ok": sp.order == expected_aut, "order": sp.order}

    if entry.exceptional and entry.in_theorem_domain:
        fermat_count = fermat_order(entry.nvars, entry.d) // entry.d
        checks["beats_fermat"] = {"ok": expected_lin > fermat_count,
                                  "lin": expected_lin, "fermat": fermat_count}

    report["ok"] = all(c["ok"] for c in checks.values())
    report["seconds"] = round(time.time() - t0, 2)
    return report


def verify_all(labels=None, skip_smooth: bool = False):
    """Verify the whole catalog (or the rows whose label or key is in labels); returns (reports, ok)."""
    reports = [verify_entry(entry, skip_smooth=skip_smooth) for entry in load_entries()
               if not labels or entry.label in labels or entry.key in labels]
    return reports, all(r["ok"] for r in reports)
