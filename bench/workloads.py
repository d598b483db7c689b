"""The benchmark's three workloads: seeded inputs, jobs and reference verdicts.

Each workload is a list of jobs.  A job's run() returns a verdict and the job
carries the verdict it must equal; build() makes the list from the seed, so
the same seed gives the same inputs and job order.  The program only ever
sees the generated inputs.

All formaut functions are looked up as module attributes at call time, so
the tracer's wrappers (installed after import) see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from formaut import catalog, cli, forms, matgroups, sequences, smoothness

WORKLOADS = ("catalog-groups", "smooth-certs", "invariants-survivors")

# verify-catalog rows: the full-closure rows except pair-octahedral-sextic,
# wiman-sextic, quartic-1920 and icosahedral-binary-12ic (left out for run
# length, see records.json), plus the compositional pair-icosahedral-12ic and
# the generators-only todd-sextic (invariance of its 57-term sextic).
CATALOG_ROWS = [
    "tetrahedral-binary-quartic", "octahedral-binary-sextic", "fermat-1-3", "klein-quartic",
    "fermat-1-5", "hessian-sextic", "fermat-2-3", "fermat-3-3", "quintic-480",
    "pair-icosahedral-12ic", "todd-sextic",
]

# (catalog row, degree, invariant dimension measured by Reynolds = Molien)
INVARIANT_JOBS = [
    ("tetrahedral-binary-quartic", 12, 2),
    ("octahedral-binary-sextic", 12, 1),
    ("klein-quartic", 4, 1),
    ("hessian-sextic", 3, 0),
    ("fermat-1-3", 6, 2),
]

# Catalog forms under a unimodular change of variables: smooth by
# construction.  Cones over them in one more variable: singular.  Several
# draws per cone base give the characteristic-0 engine a share of the
# workload that one draw's cost does not decide.  (Twists of quintic-480 and
# cones over hessian-sextic cost 1-8 s depending on the draw; they are left
# out, see records.json.)
TWIST_ROWS = ["tetrahedral-binary-quartic", "klein-quartic", "hessian-sextic", "fermat-2-3",
              "quartic-1920"]
CONE_ROWS = ["fermat-1-5", "fermat-2-3", "klein-quartic"] * 2 + ["fermat-1-5"]

SURVIVOR_GRID = (range(1, 26), range(3, 18))
EMPTY_SCAN_TOTALS = range(28, 47)
GOLDEN_SURVIVORS = Path(__file__).parent / "data" / "survivors_n25_d17.tsv"


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    expected: Any


# -- seeded inputs -----------------------------------------------------------------


def unimodular(rng: random.Random, r: int) -> list[list[int]]:
    """Dense integer matrix L*U with unit triangular factors of +-1 entries."""
    lower = [[1 if i == j else rng.choice((1, -1)) if j < i else 0 for j in range(r)] for i in range(r)]
    upper = [[1 if i == j else rng.choice((1, -1)) if j > i else 0 for j in range(r)] for i in range(r)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(r)) for j in range(r)] for i in range(r)]


def twist(rng: random.Random, form):
    """A seeded unimodular twist whose variables form one component.

    With one component the split-variables route does not apply, so the
    certificate comes from the Groebner routes.
    """
    while True:
        twisted = forms.act(form, forms.ExactMatrix(unimodular(rng, form.nvars)))
        if len(smoothness.variable_components(twisted)) == 1:
            return twisted


def cone(rng: random.Random, form):
    """F(x1..xr) read in r+1 variables, under a seeded unimodular twist.

    The vertex M^-1 e_{r+1} is singular.  Retried until every variable is
    used, the variables form one component and the vertex is not a
    coordinate point: then no shortcut applies, every prime's mod-p run
    refuses, and the certificate must be the characteristic-0 Groebner one
    (the job checks that it is).
    """
    r = form.nvars
    wide = forms.Form(r + 1, {e + (0,): c for e, c in form.terms.items()}, form.degree)
    while True:
        m = forms.ExactMatrix(unimodular(rng, r + 1))
        coned = forms.act(wide, m)
        vertex = [row[-1] for row in m.inverse().entries]
        used = all(any(e[i] for e in coned.terms) for i in range(r + 1))
        if (used and len(smoothness.variable_components(coned)) == 1
                and sum(not v.is_zero() for v in vertex) >= 2):
            return coned


# -- jobs ------------------------------------------------------------------------


def _catalog_job(entry, out_dir: Path) -> Job:
    out = str(out_dir / ("%s.json" % entry.label))

    def run():
        code = cli.main(["verify-catalog", "--entry", entry.label, "--skip-smooth", "--out", out])
        with open(out) as fh:
            payload = json.load(fh)
        (report,) = payload["reports"]
        checks = report["checks"]
        order = checks.get("closure", checks.get("compositional_order", {})).get("order")
        return {"exit": code, "ok": payload["ok"] and report["ok"], "order": order,
                "lin": checks.get("projective_order", {}).get("order")}

    full = entry.tier == "full-closure"
    expected = {"exit": 0, "ok": True,
                "order": entry.expected["aut_order"] if entry.tier != "generators-only" else None,
                "lin": entry.expected["lin_order"] if full else None}
    return Job("verify-catalog:" + entry.label, run, expected)


def _smooth_job(name, form, expected, verdict, **kwargs) -> Job:
    return Job(name, lambda: verdict(smoothness.is_smooth(form, **kwargs)), expected)


def _invariant_job(entry, degree: int, expected: int) -> Job:
    gens = entry.generators()

    def run():
        grp = matgroups.MatGroup(gens)
        if not grp.close():
            raise matgroups.GroupError("closure cap exceeded")
        return matgroups.invariant_dimension(grp, degree, method="both")
    return Job("invdim:%s:%d" % (entry.label, degree), run, expected)


def _survivor_table() -> str:
    report = sequences.classification_search(*SURVIVOR_GRID)
    rows = ["n\td\tsequence\tratio_num\tratio_den"]
    for rec in report["survivors"]:
        rows.append("%d\t%d\t%s\t%d\t%d" % (rec["n"], rec["d"], rec["sequence"],
                                            rec["ratio"].numerator, rec["ratio"].denominator))
    return "\n".join(rows) + "\n"


def build(workload: str, seed: int, out_dir: Path):
    """(jobs, replay record) for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random(seed)
    entries = {e.label: e for e in catalog.load_entries()}
    record = {"workload": workload, "seed": seed}

    if workload == "catalog-groups":
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = [entries[label] for label in CATALOG_ROWS]
        for e in rows:          # the inputs must parse; verify-catalog parses them again
            e.form(), e.generators()
        jobs = [_catalog_job(e, out_dir) for e in rows]
    elif workload == "smooth-certs":
        todd = entries["todd-sextic"].form()
        (prime,) = smoothness.good_primes(3, 1, seed=seed)
        record["primes"] = [prime]
        jobs = [_smooth_job("todd-sextic:modp", todd, ("smooth", "groebner-modp", [prime]),
                            lambda c: (c.verdict, c.method, c.primes),
                            strategy="modp", primes=[prime])]
        jobs += [_smooth_job("twist:" + label, twist(rng, entries[label].form()), "smooth",
                             lambda c: c.verdict)
                 for label in TWIST_ROWS]
        jobs += [_smooth_job("cone%d:%s" % (i, label), cone(rng, entries[label].form()),
                             ("singular", "groebner-char0"), lambda c: (c.verdict, c.method))
                 for i, label in enumerate(CONE_ROWS)]
    else:
        # Invariant dimensions (cyclotomic, forms) and survivor scans
        # (sequences) share one workload: apart, each ran under 20 s and its
        # wall time moved with the host's load by a quarter.
        jobs = [_invariant_job(entries[label], degree, dim) for label, degree, dim in INVARIANT_JOBS]
        jobs += [Job("search:n1..25:d3..17", _survivor_table, GOLDEN_SURVIVORS.read_text())]
        jobs += [Job("survivors:%d:3" % v, lambda v=v: sequences.survivors_for(v, 3), [])
                 for v in EMPTY_SCAN_TOTALS]
    rng.shuffle(jobs)
    record["jobs"] = [job.name for job in jobs]
    return jobs, record
