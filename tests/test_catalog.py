from fractions import Fraction
from math import factorial

import pytest

from formaut import catalog
from formaut.catalog import CatalogError, get_entry, load_entries, verify_all, verify_entry
from formaut.matgroups import DEFAULT_CAP, preserves


def test_catalog_loads_and_invariants():
    entries = load_entries()
    labels = {e.label for e in entries}
    required = {"klein-quartic", "hessian-sextic", "wiman-sextic", "quartic-1920",
                "pair-octahedral-sextic", "pair-icosahedral-12ic", "todd-sextic",
                "triple-icosahedral-12ic", "fermat-1-3", "fermat-1-5", "fermat-2-3",
                "fermat-3-3"}
    assert required <= labels
    for e in entries:
        if not e.subgroup_only:
            assert e.expected["aut_order"] == e.d * e.expected["lin_order"]
        if e.tier == "full-closure":
            assert e.expected["aut_order"] <= DEFAULT_CAP


def test_every_entry_generators_preserve_form():
    for e in load_entries():
        assert preserves(e.generators(), e.form()), e.label


def test_expected_orders_table():
    expected = {
        "klein-quartic": (672, 168),
        "hessian-sextic": (1296, 216),
        "wiman-sextic": (2160, 360),
        "quartic-1920": (7680, 1920),
        "pair-octahedral-sextic": (41472, 6912),
        "pair-icosahedral-12ic": (1036800, 86400),
        "todd-sextic": (39191040, 6531840),
        "triple-icosahedral-12ic": (2239488000, 186624000),
    }
    for label, (aut, lin) in expected.items():
        e = get_entry(label)
        assert (e.expected["aut_order"], e.expected["lin_order"]) == (aut, lin)


def test_fermat_rows_order_formula():
    for label in ["fermat-1-3", "fermat-1-5", "fermat-2-3", "fermat-3-3"]:
        e = get_entry(label)
        r = e.n + 2
        assert e.expected["aut_order"] == e.d ** r * factorial(r)


def test_exceptional_rows_beat_fermat():
    for e in load_entries():
        if e.exceptional and e.in_theorem_domain:
            fermat_count = e.d ** (e.n + 1) * factorial(e.n + 2)
            assert e.expected["lin_order"] > fermat_count, e.label


def test_irreducible_ratio_bounds():
    # every irreducible catalog entry satisfies ratio = 5/2 or ratio <= 25/12,
    # with 5/2 exactly at the binary icosahedral row
    for e in load_entries():
        if e.subgroup_only or len(e.certificate().grouped_sizes) != 1:
            continue        # reducible entries are out of scope here
        r = e.n + 2
        ratio = Fraction(e.expected["aut_order"], e.d ** r * factorial(r))
        if ratio > 1:
            if ratio == Fraction(5, 2):
                assert e.label == "icosahedral-binary-12ic"
            else:
                assert ratio <= Fraction(25, 12), (e.label, ratio)


def test_max_ratio_is_the_exceptional_row():
    # among same-(n, d) rows, the exceptional one has the larger group
    by_nd = {}
    for e in load_entries():
        if e.subgroup_only:
            continue
        by_nd.setdefault((e.n, e.d), []).append(e)
    seen_competition = False
    for (n, d), group in by_nd.items():
        if len(group) < 2:
            continue
        seen_competition = True
        best = max(group, key=lambda e: e.expected["aut_order"])
        assert best.exceptional
    assert seen_competition      # the two (1,6) rows compete


def test_verify_entry_quick():
    rep = verify_entry(get_entry("fermat-1-3"), skip_smooth=True)
    assert rep["ok"]
    assert rep["checks"]["semi_permutation"]["ok"]
    rep = verify_entry(get_entry("tetrahedral-binary-quartic"), skip_smooth=True)
    assert rep["ok"]


def test_verify_entry_todd_generators_only():
    rep = verify_entry(get_entry("todd-sextic"), skip_smooth=True)
    assert rep["ok"]
    assert "skipped" in rep["checks"]["closure"]
    assert rep["checks"]["beats_fermat"]["ok"]


def test_refused_certificate_fails_only_its_own_row(monkeypatch):
    entries = load_entries()
    klein = next(e for e in entries if e.label == "klein-quartic")
    klein.certificate_payload = {"blocks": [{"i": 1, "j": 1, "size": 1}, {"i": 2, "j": 1, "size": 2}],
                                 "grouping": [1, 1]}
    monkeypatch.setattr(catalog, "load_entries", lambda: entries)
    reports, ok = verify_all(["klein-quartic", "fermat-1-3"], skip_smooth=True)
    assert not ok
    rows = {rep["label"]: rep for rep in reports}
    assert rows["fermat-1-3"]["ok"]
    checks = rows["klein-quartic"]["checks"]
    assert not rows["klein-quartic"]["ok"]
    assert checks["certificate"] == {"ok": False,
                                     "refused": "a generator does not permute the certificate blocks"}
    assert checks["preserves"] == {"ok": True}
    assert checks["closure"]["ok"] and checks["projective_order"]["ok"]


def test_get_entry_unknown():
    with pytest.raises(CatalogError):
        get_entry("no-such-entry")
