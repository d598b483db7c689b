import json
import subprocess
import sys
from decimal import Decimal
from math import factorial
from pathlib import Path

import pytest

from formaut import cli
from formaut.cli import main
from formaut.sequences import ratio
from formaut.smoothness import good_primes

from oracles import mixed_sequence_scan

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_ratio_exact_output(capsys):
    for seq, d, value in [("2^13", "3", "16000000000/12649365729"), ("2^2", "12", "25/12")]:
        code, out = run_cli(["ratio", "--seq", seq, "--d", d], capsys)
        assert code == 0 and out.strip() == value


def test_jc_output(capsys):
    code, out = run_cli(["jc", "--r", "12"], capsys)
    assert code == 0 and out.strip() == "448345497600"


def test_search_empty_at_26(capsys):
    code, out = run_cli(["search", "--n", "26", "--d", "3", "--expect-empty"], capsys)
    assert code == 0
    assert out.splitlines() == ["n\td\tsequence\tratio_num\tratio_den"]


def test_search_expect_empty_fails_on_a_survivor(capsys):
    code, out = run_cli(["search", "--n", "1", "--d", "3", "--expect-empty"], capsys)
    assert code == 1
    assert out.splitlines() == ["n\td\tsequence\tratio_num\tratio_den", "1\t3\t3^1\t20\t3", "1\t3\t2^1 1^1\t10\t3"]


def test_bounds_scan_subcommand(capsys):
    code, out = run_cli(["bounds-scan", "--max-total", "12", "--max-d", "6"], capsys)
    payload = json.loads(out)
    assert code == 0 and (payload["max_total"], payload["max_d"]) == (12, 6)
    assert payload["uniform_bound_failures"] == [] and len(payload["mixed_hits"]) == 46
    assert payload["mixed_hits"][0] == {"d": 3, "ratio": "10/3", "sequence": "2^1 1^1"}


def test_bounds_scan_golden_file(tmp_path, capsys):
    out_path = tmp_path / "bounds_scan.json"
    code, _ = run_cli(["bounds-scan", "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / "bounds_scan.json").read_bytes()


@pytest.mark.parametrize("max_total, max_d", [(12, 8), (30, 20), (27, 40), (3, 3), (1, 20)])
def test_bounds_scan_mixed_hits_match_the_per_sequence_scan(capsys, max_total, max_d):
    code, out = run_cli(["bounds-scan", "--max-total", str(max_total), "--max-d", str(max_d)], capsys)
    want = [{"sequence": str(s), "d": d, "ratio": "%d/%d" % (r.numerator, r.denominator)}
            for s, d, r in mixed_sequence_scan(max_total, max_d)]
    assert code == 0 and json.loads(out)["mixed_hits"] == want


def test_bounds_scan_lists_a_planted_failure(capsys, monkeypatch):
    checked = []

    def planted(seq, d):
        checked.append((str(seq), d))
        return str(seq) != "2^2"

    monkeypatch.setattr(cli, "uniform_bounds_check", planted)
    code, out = run_cli(["bounds-scan", "--max-total", "12", "--max-d", "6"], capsys)
    assert code == 1 and json.loads(out)["uniform_bound_failures"] == ["2^2"]
    assert ("2^2", 3) in checked and {d for _, d in checked} == {3}


def test_exact_output_past_the_integer_digit_limit(capsys):
    code, out = run_cli(["jc", "--r", "2000"], capsys)
    assert code == 0 and len(out.strip()) == 5739 and Decimal(out.strip()) == factorial(2001)
    code, out = run_cli(["ratio", "--seq", "2^3000", "--d", "3"], capsys)
    r = ratio("2^3000", 3)
    assert code == 0 and [int(Decimal(x)) for x in out.strip().split("/")] == [r.numerator, r.denominator]


@pytest.mark.parametrize("entry", ["1" + "0" * 4999, '"1%s"' % ("0" * 4999)], ids=["integer", "string"])
def test_an_oversized_integer_in_a_generator_file_exits_2(tmp_path, capsys, entry):
    f = tmp_path / "gens.json"
    f.write_text('{"dim": 1, "generators": [[[%s]]]}' % entry)
    assert main(["closure", str(f)]) == 2
    assert "Exceeds the limit" in capsys.readouterr().err


def test_search_golden_file(tmp_path, capsys):
    out_path = tmp_path / "survivors.tsv"
    code, _ = run_cli(["search", "--n", "1..25", "--d", "3..17", "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text() == (GOLDEN / "survivors_n25_d17.tsv").read_text()


def test_search_deterministic(tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    run_cli(["search", "--n", "1..6", "--d", "3..6", "--out", str(a)], capsys)
    run_cli(["search", "--n", "1..6", "--d", "3..6", "--out", str(b)], capsys)
    assert a.read_text() == b.read_text()


def test_smooth_subcommand(tmp_path, capsys):
    f = tmp_path / "form.txt"
    f.write_text("x1^3*x2 + x2^3*x3 + x3^3*x1")
    code, out = run_cli(["smooth", str(f)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "smooth"
    f2 = tmp_path / "sing.txt"
    f2.write_text("x1^3*x2")
    code, out = run_cli(["smooth", str(f2)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "singular" and payload["witness"] == ["0", "1"]


def test_smooth_records_primes(tmp_path, capsys):
    f = tmp_path / "form.txt"
    f.write_text("x1^3*x2 + x2^3*x3 + x3^3*x1")
    code, out = run_cli(["smooth", str(f), "--strategy", "modp", "--seed", "3"], capsys)
    payload = json.loads(out)
    assert payload["method"] == "groebner-modp" and payload["primes"] == good_primes(1, 1, seed=3)
    code, out2 = run_cli(["smooth", str(f), "--strategy", "modp", "--seed", "3"], capsys)
    assert out == out2


# a file of each kind with one scalar left open: (the file text, %s for the scalar; the subcommand)
SCALAR_FILES = {
    "form": ('{"nvars": 2, "terms": [{"exps": [3, 0], "coeff": %s}, {"exps": [0, 3], "coeff": "1"}]}', ["smooth"]),
    "generator": ('{"dim": 2, "generators": [[["0", %s], ["1/2", "0"]]]}', ["closure"]),
}


@pytest.mark.parametrize("kind", SCALAR_FILES)
def test_an_integer_scalar_reads_as_its_text(tmp_path, capsys, kind):
    text, command = SCALAR_FILES[kind]
    f = tmp_path / "input.json"
    runs = []
    for scalar in ["2", '"2"']:
        f.write_text(text % scalar)
        runs.append(run_cli([*command, str(f)], capsys))
    assert runs[0] == runs[1] and runs[0][0] == 0


@pytest.mark.parametrize("scalar", ["0.5", "true", "[2]"], ids=["float", "boolean", "nested-list"])
@pytest.mark.parametrize("kind", SCALAR_FILES)
def test_a_scalar_that_is_neither_text_nor_an_integer_exits_2(tmp_path, capsys, kind, scalar):
    text, command = SCALAR_FILES[kind]
    f = tmp_path / "input.json"
    f.write_text(text % scalar)
    assert main([*command, str(f)]) == 2
    assert "is neither a string nor an integer" in capsys.readouterr().err


def test_closure_subcommand(tmp_path, capsys):
    from formaut.catalog import get_entry
    from formaut.cli import generators_to_json
    f = tmp_path / "gens.json"
    for label, orders in [("octahedral-binary-sextic", (144, 24, 6)), ("klein-quartic", (672, 168, 4))]:
        f.write_text(generators_to_json(get_entry(label).generators()))
        code, out = run_cli(["closure", str(f)], capsys)
        payload = json.loads(out)
        assert code == 0 and (payload["order"], payload["projective_order"], payload["center_order"]) == orders
    code, _ = run_cli(["closure", str(f), "--cap", "10"], capsys)
    assert code == 1


def test_invdim_subcommand(tmp_path, capsys):
    from formaut.catalog import get_entry
    from formaut.cli import generators_to_json
    f = tmp_path / "gens.json"
    f.write_text(generators_to_json(get_entry("icosahedral-binary-12ic").generators()[:2]))
    code, out = run_cli(["invdim", str(f), "--degree", "12", "--method", "both"], capsys)
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("method", ["reynolds", "both"])
def test_invdim_refuses_a_reynolds_degree_before_closing(tmp_path, capsys, monkeypatch, method):
    from formaut import matgroups
    from formaut.catalog import get_entry
    from formaut.cli import generators_to_json

    def no_close(self, cap=None):
        raise AssertionError("the group was closed before the degree was refused")

    f = tmp_path / "gens.json"
    f.write_text(generators_to_json(get_entry("klein-quartic").generators()))
    monkeypatch.setattr(matgroups.MatGroup, "close", no_close)
    assert main(["invdim", str(f), "--degree", "200", "--method", method]) == 1
    assert capsys.readouterr().err.startswith("error: Reynolds at degree 200")


@pytest.mark.parametrize("command", [["invdim", "gens.json", "--degree", "4"], ["structure", "gens.json"]])
def test_closure_cap_exceeded_exits_1(tmp_path, monkeypatch, capsys, command):
    from formaut.catalog import get_entry
    from formaut.cli import generators_to_json
    entry = get_entry("klein-quartic")
    (tmp_path / "gens.json").write_text(generators_to_json(entry.generators()))
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--cap", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "closure cap exceeded or the group is infinite\n"


def test_diag_group_subcommand(tmp_path, capsys):
    f = tmp_path / "form.txt"
    f.write_text("x1^3*x2 + x2^3*x3 + x3^3*x1")
    code, out = run_cli(["diag-group", str(f), "--blocks", "1,1,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 28
    f.write_text("x1^3 + x2^3 + x3^3")
    code, out = run_cli(["diag-group", str(f), "--blocks", "1,1,1"], capsys)
    payload = json.loads(out)
    assert code == 0 and (payload["order"], payload["divisors"], len(payload["generators"])) == (27, [3, 3, 3], 3)


def test_semiperm_subcommand(tmp_path, capsys):
    f = tmp_path / "form.txt"
    f.write_text("x1^3 + x2^3 + x3^3")
    code, out = run_cli(["semiperm-group", str(f)], capsys)
    payload = json.loads(out)
    assert code == 0 and (payload["order"], payload["diagonal_order"], payload["permutation_image_order"],
                          len(payload["generators"])) == (162, 27, 6, 5)


def test_semiperm_of_an_infinite_torus(tmp_path, capsys):
    f = tmp_path / "form.txt"
    f.write_text("x1^2*x2^2")        # (t, 1/t) fixes it for every t
    code, out = run_cli(["semiperm-group", str(f)], capsys)
    payload = json.loads(out)
    assert code == 0
    assert (payload["order"], payload["diagonal_order"], payload["generators"]) == (None, None, [])
    assert payload["permutation_image_order"] == 2      # the swap x1 <-> x2 preserves it


def test_semiperm_refuses_a_non_root_ratio(tmp_path, capsys):
    f = tmp_path / "form.txt"
    for text, ratio in [("x1^3 + 2*x2^3 + x3^3", "2 of x2^3 to x3^3"),
                        ("x1^2*x2^2 + x3^4 + 2*x4^4", "1/2 of x3^4 to x4^4")]:     # the second torus is infinite
        f.write_text(text)
        assert main(["semiperm-group", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: coefficient ratio %s is not a root of unity" % ratio)
        assert "root-of-unity ratios only" in err


def test_structure_subcommand(tmp_path, capsys):
    from formaut.catalog import get_entry
    from formaut.cli import generators_to_json
    golden = json.loads((GOLDEN / "structure_reports.json").read_text())
    gens, form = tmp_path / "gens.json", tmp_path / "form.txt"
    for label, tier in [("fermat-1-3", []), ("quintic-480", []), ("pair-icosahedral-12ic", ["--tier", "compositional"])]:
        entry = get_entry(label)
        gens.write_text(generators_to_json(entry.generators()))
        form.write_text(entry.form_text)
        code, out = run_cli(["structure", str(gens), "--form", str(form)] + tier, capsys)
        assert code == 0 and json.loads(out) == golden[label]
    assert golden["fermat-1-3"]["group_order"] == 162 and golden["fermat-1-3"]["identities_hold"]


def test_structure_refuses_a_form_the_generators_move(tmp_path, capsys):
    from formaut.catalog import get_entry
    from formaut.cli import generators_to_json
    entry = get_entry("klein-quartic")
    (tmp_path / "gens.json").write_text(generators_to_json(entry.generators()))
    (tmp_path / "wrong.txt").write_text("x1^4 + x2^4 + x3^4")
    code = main(["structure", str(tmp_path / "gens.json"), "--form", str(tmp_path / "wrong.txt")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "does not preserve the form" in captured.err


@pytest.mark.parametrize("generators, message", [
    ('{"dim": 3, "generators": [[["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]], '
     '[["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]}',
     "error: the finest blocks are not contiguous: reorder the coordinates as x1, x3, x2\n"),
    ('{"dim": 2, "generators": [[["-1", "-2"], ["0", "1"]]]}',
     "error: stabilizer restriction to block (1,1) is reducible\n"),
], ids=["blocks-not-contiguous", "reducible-block"])
def test_structure_refusal_is_a_failed_verification(tmp_path, capsys, generators, message):
    # <swap(1, 3), diag(-1, 1, 1)> is refused by the finder, the planted block [[-1, -2], [0, 1]] by the verifier
    (tmp_path / "gens.json").write_text(generators)
    assert main(["structure", str(tmp_path / "gens.json")]) == 1
    assert capsys.readouterr() == ("", message)


def test_verify_catalog_single_entry(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["verify-catalog", "--entry", "fermat-1-3", "--skip-smooth",
                       "--out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["ok"] and len(payload["reports"]) == 1


def test_verify_catalog_empty_selection_is_a_usage_error(capsys):
    for entry in ["no-such-row", ""]:   # an empty label selects no row, not the whole catalog
        code = main(["verify-catalog", "--skip-smooth", "--entry", entry])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: no catalog entry matches")


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "formaut.cli", "ratio"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [["search", "--n", "1..x", "--d", "3"],
                                  ["diag-group", "form.txt", "--blocks", "1,x"],
                                  ["invdim", "gens.json", "--degree", "-1"],
                                  ["smooth", "form.txt", "--strategy", "split"],
                                  ["search", "--n", "30..26", "--d", "3", "--expect-empty"],
                                  ["closure", "gens.json", "--cap", "0"],
                                  ["closure", "gens.json", "--cap", "-3"],
                                  ["search", "--n", "1", "--d", "2"],
                                  ["ratio", "--seq", "2^3", "--d", "2"],
                                  ["jc", "--r", "0"],
                                  ["bounds-scan", "--max-d", "2"],
                                  ["bounds-scan", "--max-total", "0"],
                                  ["smooth", "form.txt", "--prime", "0"],
                                  ["smooth", "form.txt", "--prime", "4"],
                                  ["smooth", "form.txt", "--prime", "9"],
                                  ["smooth", "form.txt", "--prime", "2"],
                                  ["smooth", "form.txt", "--budget", "-1"],
                                  ["diag-group", "f.txt", "--blocks=-1,4"],
                                  ["diag-group", "f.txt", "--blocks", "0,3"],
                                  ["ratio", "--seq", "0", "--d", "3"],
                                  ["ratio", "--seq", "abc", "--d", "3"],
                                  ["ratio", "--seq", "2^0", "--d", "3"],
                                  ["verify-catalog", "--tier", "compositional"],
                                  ["verify-catalog", "--cap", "5"]])
def test_bad_option_value_is_a_usage_error(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


def test_cap_environment_is_not_read(monkeypatch, capsys):
    monkeypatch.setenv("FORMAUT_CAP", "abc")
    assert run_cli(["jc", "--r", "2"], capsys) == (0, "60\n")


IDENTITY_2 = '{"dim": 2, "generators": [[["1", "0"], ["0", "1"]]]}'


@pytest.mark.parametrize("files, args", [
    ({"form.txt": "x1^3 + x2^2"}, ["smooth", "form.txt"]),
    ({"gens.json": '{"dim": 2, "generators": [[["1", "zz"], ["0", "1"]]]}'},
     ["closure", "gens.json"]),
    ({"gens.json": '{"dim": 2, "generators": '}, ["invdim", "gens.json", "--degree", "2"]),
    ({"gens.json": IDENTITY_2, "form.txt": "x1^3 + x2^3 + x3^3"}, ["structure", "gens.json", "--form", "form.txt"]),
    ({}, ["diag-group", "missing.txt", "--blocks", "1,1"]),
    ({"gens.json": '{"dim": 0, "generators": [[]]}'}, ["closure", "gens.json"]),
    ({"gens.json": '{"dim": 0, "generators": [[]]}'}, ["invdim", "gens.json", "--degree", "2"]),
    ({"form.txt": "2x1^3 + x2^3"}, ["smooth", "form.txt"]),
    ({"gens.json": '{"dim": 2, "generators": [[[0, 0.1], [10, 0]]]}'}, ["closure", "gens.json"]),
    ({"gens.json": '{"dim": 2, "generators": [[[true, 0], [0, true]]]}'}, ["closure", "gens.json"]),
    ({"form.json": '{"nvars": 2, "terms": [{"exps": [1.5, 1.5], "coeff": "1"}, {"exps": [2, 0], "coeff": "1"}]}'},
     ["smooth", "form.json"]),
    ({"form.json": '{"nvars": 2, "terms": [{"exps": [true, true], "coeff": "1"}, {"exps": [2, 0], "coeff": "1"}]}'},
     ["smooth", "form.json"]),
    ({"form.json": '{"nvars": 2.0, "terms": [{"exps": [3, 0], "coeff": "1"}, {"exps": [0, 3], "coeff": "1"}]}'},
     ["smooth", "form.json"]),
    ({"form.json": '{"nvars": 2, "degree": 3.0, "terms": [{"exps": [3, 0], "coeff": "1"}, '
                   '{"exps": [0, 3], "coeff": "1"}]}'},
     ["smooth", "form.json"]),
    ({"gens.json": '{"dim": 2.0, "generators": [[["0", "1"], ["1", "0"]]]}'}, ["closure", "gens.json"]),
    ({"gens.json": '{"dim": true, "generators": [[["1"]]]}'}, ["closure", "gens.json"]),
    ({"form.txt": "x1^3 + x2^3 + x3^3"}, ["diag-group", "form.txt", "--blocks", "1,1"]),
    ({"gens.json": IDENTITY_2}, ["structure", "gens.json", "--tier", "compositional"]),
    ({"form.txt": "(" * 3000 + "x1" + ")" * 3000 + "^3 + x2^3"}, ["smooth", "form.txt"]),
    ({"gens.json": "[" * 100000 + "]" * 100000}, ["closure", "gens.json"]),
], ids=["non-homogeneous-form", "bad-scalar", "bad-generator-json", "dimension-mismatch", "missing-file",
        "zero-dim-closure", "zero-dim-invdim", "juxtaposed-product", "float-generator-entry",
        "boolean-generator-entry", "float-exponent", "boolean-exponent", "float-nvars", "float-degree",
        "float-dim", "boolean-dim", "blocks-sum-mismatch", "compositional-without-form", "nested-form",
        "nested-generator-json"])
def test_malformed_input_is_a_usage_error(tmp_path, monkeypatch, capsys, files, args):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
