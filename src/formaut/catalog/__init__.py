"""The classification catalog: every tabulated form with generators and
certificates, plus the end-to-end verification pipeline.

Each entry carries its defining form, a generating set for its linear
automorphism group, a decomposition certificate and the expected orders.
Generators are validated, never trusted: verify_entry re-derives everything
it can at the entry's tier.  The certificate verifier checks that the
generators preserve the form, so only rows it does not accept call
`preserves`; a verifier refusal fails the `certificate` check of its own row.

Tiers (each row names its own):
* full-closure: materialize the group under DEFAULT_CAP (checked when the
  row is loaded), check the order, the projective order and the
  certificate by exhaustive filtering.
* compositional: prove the order through the associated exact sequences
  with per-block closures (for groups beyond the enumeration cap).
* generators-only: check invariance and smoothness; the order is recorded
  catalog data (the full closure is beyond desk scale), so the row has no
  closure check.

Every check in a report is one the pipeline ran, and each can fail.  The
`parse` check holds when the form has the row's degree d.  The Fermat ratio
|G| / d^v·v! is the certificate report's `fermat_ratio`.  The `certificate`
check holds when the verifier accepts; the report's |G| is compared with the
row's order once, by `closure` (full-closure) or `compositional_order`.
"""

from __future__ import annotations

import json
import time
from functools import partial
from importlib import resources

from ..cyclotomic import parse_scalar
from ..diaglattice import semi_permutation_group
from ..forms import ExactMatrix, Form, act, parse
from ..matgroups import DEFAULT_CAP, MatGroup, closure, preserves
from ..sequences import fermat_order
from ..smoothness import is_smooth
from ..structure import CertificateError, DecompositionCertificate, verify_certificate, verify_compositional


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
        self.certificate_payload = payload["certificate"]
        self.expected = payload["expected"]
        self.exceptional = payload.get("exceptional", False)
        self.in_theorem_domain = payload.get("in_theorem_domain", True)
        self.fermat = payload.get("fermat", False)
        self.subgroup_only = payload.get("subgroup_only", False)
        self.provenance = payload.get("provenance", "")
        if not self.subgroup_only and self.expected["aut_order"] != self.d * self.expected["lin_order"]:
            raise CatalogError("%s: aut order must be d times the projective order" % self.key)
        if self.tier == "full-closure" and self.expected["aut_order"] > DEFAULT_CAP:
            raise CatalogError("%s: full-closure order exceeds the cap" % self.key)

    @property
    def nvars(self) -> int:
        return self.n + 2

    def form(self) -> Form:
        return parse(self.form_text, nvars=self.nvars)

    def generators(self):
        return [ExactMatrix([[parse_scalar(c) for c in row] for row in g])
                for g in self.generator_entries]

    def certificate(self) -> DecompositionCertificate | None:
        if self.certificate_payload is None:
            return None
        return DecompositionCertificate.from_json(json.dumps(self.certificate_payload))

    def __repr__(self):
        return "CatalogEntry(%s: %s)" % (self.key, self.label)


def load_entries():
    """All catalog entries, sorted by key."""
    entries = []
    root = resources.files(__package__) / "data"
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".json"):
            entries.append(CatalogEntry(json.loads(item.read_text())))
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
    checks["preserves"] = {}    # filled in once the verifier has accepted or refused

    if not skip_smooth:
        cert = is_smooth(form)
        checks["smooth"] = {"ok": cert.verdict == "smooth" and entry.expected["smooth"],
                            "verdict": cert.verdict, "method": cert.method}

    expected_aut = entry.expected["aut_order"]
    expected_lin = entry.expected["lin_order"]
    verify = None

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
            cert_obj = entry.certificate()
            if cert_obj is not None:
                verify = partial(verify_certificate, grp, cert_obj, form)
    elif entry.tier == "compositional":
        verify = partial(verify_compositional, gens, entry.certificate(), form)
    elif entry.tier != "generators-only":
        raise CatalogError("unknown tier %r" % entry.tier)

    struct = None
    if verify is not None:
        try:
            struct = verify()
        except CertificateError as exc:
            checks["certificate"] = {"ok": False, "refused": str(exc)}
    checks["preserves"]["ok"] = struct is not None or preserves(gens, form)

    if struct is not None:
        if entry.tier == "compositional":
            checks["compositional_order"] = {"ok": struct.group_order == expected_aut,
                                             "order": struct.group_order, "expected": expected_aut}
        checks["certificate"] = {"ok": True, "report": json.loads(struct.to_json())}

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
