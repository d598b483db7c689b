import json
from fractions import Fraction
from importlib import resources
from math import factorial
from types import SimpleNamespace

import pytest

from formaut import catalog
from formaut.catalog import CatalogError, get_entry, load_entries, verify_all, verify_entry
from formaut.cli import generators_from_payload
from formaut.matgroups import DEFAULT_CAP, preserves
from formaut.sequences import fermat_order
from formaut.structure import DecompositionCertificate, finest_certificate


def raw_rows():
    """The catalog's JSON rows as written, by label: sum rows still unresolved."""
    root = resources.files("formaut.catalog") / "data"
    rows = (json.loads(item.read_text()) for item in root.iterdir() if item.name.endswith(".json"))
    return {row["label"]: row for row in rows}


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


def test_row_generators_read_as_a_generator_file():
    # a row's generator entries follow the generator-file rule (cli.generators_from_payload)
    for e in load_entries():
        assert e.generators() == generators_from_payload({"dim": e.nvars, "generators": e.generator_entries}), e.label


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


def test_fermat_rule_pins_the_fermat_1_3_row():
    # fermat_row's output for (1, 3), spelled out; the closure and semi_permutation checks prove the rows
    e = get_entry("fermat-1-3")
    assert (e.tier, e.form_text) == ("full-closure", "x1^3 + x2^3 + x3^3")
    assert e.generator_entries == [[["z3", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                                   [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
                                   [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]]]
    assert e.expected == {"aut_order": 162, "lin_order": 54, "group_name": "C3^2:S3"}


def test_exceptional_rows_beat_fermat():
    for e in load_entries():
        if e.exceptional and e.in_theorem_domain:
            fermat_count = e.d ** (e.n + 1) * factorial(e.n + 2)
            assert e.expected["lin_order"] > fermat_count, e.label


def test_irreducible_ratio_bounds():
    # every irreducible catalog entry satisfies ratio = 5/2 or ratio <= 25/12,
    # with 5/2 exactly at the binary icosahedral row
    for e in load_entries():
        if e.subgroup_only or len(finest_certificate(e.generators()).grouped_sizes) != 1:
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


@pytest.mark.parametrize("label, method", [("klein-quartic", "groebner-modp"), ("fermat-2-3", "split-variables")])
def test_verify_entry_checks_smoothness_by_default(label, method):
    rep = verify_entry(get_entry(label))
    assert rep["ok"]
    assert rep["checks"]["smooth"] == {"ok": True, "verdict": "smooth", "method": method}


def test_verify_entry_todd_generators_only():
    rep = verify_entry(get_entry("todd-sextic"), skip_smooth=True)
    assert rep["ok"]
    assert "closure" not in rep["checks"]
    assert rep["checks"]["beats_fermat"]["ok"]


def test_row_whose_degree_disagrees_with_its_form_fails_parse():
    entry = get_entry("fermat-1-3")
    entry.d = 4
    rep = verify_entry(entry, skip_smooth=True)
    assert rep["checks"]["parse"] == {"ok": False, "terms": 3}
    assert [name for name, check in rep["checks"].items() if not check["ok"]] == ["parse"]
    assert not rep["ok"]


def test_refused_certificate_fails_only_its_own_row(monkeypatch):
    klein = get_entry("klein-quartic").generators()

    def finder(gens):       # a wrong certificate for Klein's generators only
        return DecompositionCertificate([[1], [2]]) if gens == klein else finest_certificate(gens)

    monkeypatch.setattr(catalog, "finest_certificate", finder)
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


def test_no_row_lists_a_certificate():
    # the certificate is computed from the generators (structure.finest_certificate)
    rows = raw_rows()
    assert [label for label, row in rows.items() if "certificate" in row] == []
    made = [catalog.fermat_row(1, 3), catalog.direct_sum(rows["icosahedral-binary-12ic"], 3)]
    assert [row for row in made if "certificate" in row] == []


def test_get_entry_unknown():
    with pytest.raises(CatalogError):
        get_entry("no-such-entry")


def test_sums_of_rows_beat_fermat_exactly_at_the_sum_rows():
    # rho_k = |H|^k k! / fermat_order(m k, d) for k copies of a row in m >= 2 variables.  The ratio
    # rho_(k+1) / rho_k = |H| (k+1) / (d^m (mk+1)..(mk+m)) falls as k grows, so once rho_k < 1 and
    # rho_(k+1) < rho_k every later rho is below 1 too.
    rows = raw_rows()
    beats = {}
    for label, row in rows.items():
        m = row["n"] + 2
        if "sum_of" in row or m < 2:
            continue
        order = get_entry(label).expected["aut_order"]
        def rho(k):
            return Fraction(order ** k * factorial(k), fermat_order(m * k, row["d"]))
        k = 2
        while not (rho(k) < 1 and rho(k + 1) < rho(k)):
            if rho(k) > 1:
                beats[label, k] = rho(k)
            k += 1
    assert beats == {("octahedral-binary-sextic", 2): Fraction(4, 3),
                     ("icosahedral-binary-12ic", 2): Fraction(25, 12),
                     ("icosahedral-binary-12ic", 3): Fraction(25, 24)}
    assert set(beats) == {(row["sum_of"], row["copies"]) for row in rows.values() if "sum_of" in row}


def test_sum_rows_are_wreath_products_of_their_base():
    # direct_sum's form and order |H|^k k!, spelled out: the base text and its shifted copies
    pair = "x1^11*x2 + 11*x1^6*x2^6 - x1*x2^11 + x3^11*x4 + 11*x3^6*x4^6 - x3*x4^11"
    want = {
        "pair-octahedral-sextic": ("octahedral-binary-sextic", 2, 41472, "x1^5*x2 + x1*x2^5 + x3^5*x4 + x3*x4^5"),
        "pair-icosahedral-12ic": ("icosahedral-binary-12ic", 2, 1036800, pair),
        "triple-icosahedral-12ic": ("icosahedral-binary-12ic", 3, 2239488000,
                                    pair + " + x5^11*x6 + 11*x5^6*x6^6 - x5*x6^11"),
    }
    assert {label: (row["sum_of"], row["copies"]) for label, row in raw_rows().items() if "sum_of" in row} \
        == {label: w[:2] for label, w in want.items()}
    for label, (_, k, order, form) in want.items():
        entry = get_entry(label)
        assert (entry.expected["aut_order"], entry.form_text) == (order, form)
        assert finest_certificate(entry.generators()).grouped_sizes == [[2] * k]


def test_sum_row_generators_follow_the_rule():
    # triple-icosahedral-12ic: the two non-scalar base generators on each block, the swap,
    # the 3-cycle, the scalar on blocks 1 and 2, then on every block
    gens = get_entry("triple-icosahedral-12ic").generator_entries
    base = get_entry("icosahedral-binary-12ic").generator_entries
    assert len(gens) == 2 * 3 + 2 + 2 + 1
    assert [row[4:] for row in gens[5][4:]] == base[1]
    assert gens[6][0][2] == gens[6][2][0] == gens[6][4][4] == "1"
    assert [row.index("1") for row in gens[7]] == [2, 3, 4, 5, 0, 1]
    assert [row[r] for r, row in enumerate(gens[10])] == ["z12"] * 6


def write_rows(root, *rows):
    (root / "data").mkdir()
    for row in rows:
        (root / "data" / (row["label"] + ".json")).write_text(json.dumps(row))


@pytest.mark.parametrize("change, reason", [
    ({"sum_of": "no-such-row"}, "names no row"),
    ({"sum_of": "pair-octahedral-sextic", "n": 6}, "names no row"),
    ({"copies": 1, "n": 0}, "copies >= 2"),
    ({"copies": "2"}, "copies >= 2"),
    ({"copies": 3}, "nvars"),
    ({"generators": [[["1", "0"], ["0", "1"]]]}, "its own generators"),
    ({"form": "x1^6 + x2^6 + x3^6 + x4^6"}, "its own generators, form"),
    ({"expected": {"aut_order": 41472, "group_name": "C6^2.(S4^2:C2)"}}, "form or aut_order"),
])
def test_loader_refuses_a_malformed_sum_row(tmp_path, monkeypatch, change, reason):
    rows = raw_rows()
    bad = dict(rows["pair-octahedral-sextic"], label="bad-sum", **change)
    write_rows(tmp_path, rows["octahedral-binary-sextic"], rows["pair-octahedral-sextic"], bad)
    monkeypatch.setattr(catalog, "resources", SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(CatalogError, match=reason):
        load_entries()


@pytest.mark.parametrize("label, change, expected, reason", [
    ("fermat-1-3", {"form": "x1^3 + x2^3 + x3^3"}, None, "lists a field its rule provides"),
    ("klein-quartic", {}, {"lin_order": 168}, "lists lin_order if and only if it is subgroup_only"),
    ("quintic-480", {}, {"lin_order": None}, "lists lin_order if and only if it is subgroup_only"),
    ("pair-octahedral-sextic", {"sum_of": "fermat-1-3", "n": 4}, None, "names no row that lists its own generators"),
    ("klein-quartic", {"tier": "bogus"}, None, "unknown tier"),
])
def test_loader_refuses_a_malformed_row(tmp_path, monkeypatch, label, change, expected, reason):
    # expected: changes to the row's expected values, None removing a field
    rows = raw_rows()
    bad = dict(rows[label], label="bad-row", **change)
    if expected is not None:
        bad["expected"] = {k: v for k, v in {**bad["expected"], **expected}.items() if v is not None}
    write_rows(tmp_path, rows["fermat-1-3"], bad)
    monkeypatch.setattr(catalog, "resources", SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(CatalogError, match=reason):
        load_entries()


def test_loader_resolves_a_sum_row_outside_the_package(tmp_path, monkeypatch):
    rows = raw_rows()
    write_rows(tmp_path, rows["octahedral-binary-sextic"], rows["pair-octahedral-sextic"])
    monkeypatch.setattr(catalog, "resources", SimpleNamespace(files=lambda package: tmp_path))
    (base, pair) = load_entries()
    assert pair.generator_entries == get_entry("pair-octahedral-sextic").generator_entries
