import json
import subprocess
import sys
from pathlib import Path

import pytest

from formaut.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_ratio_exact_output(capsys):
    code, out = run_cli(["ratio", "--seq", "2^13", "--d", "3"], capsys)
    assert code == 0 and out.strip() == "16000000000/12649365729"


def test_jc_output(capsys):
    code, out = run_cli(["jc", "--r", "12"], capsys)
    assert code == 0 and out.strip() == "448345497600"


def test_search_empty_at_26(capsys):
    code, out = run_cli(["search", "--n", "26", "--d", "3", "--expect-empty"], capsys)
    assert code == 0
    assert out.splitlines() == ["n\td\tsequence\tratio_num\tratio_den"]


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
    assert payload["method"] == "groebner-modp" and len(payload["primes"]) == 3
    code, out2 = run_cli(["smooth", str(f), "--strategy", "modp", "--seed", "3"], capsys)
    assert out == out2


def test_closure_subcommand(tmp_path, capsys):
    from formaut.catalog import get_entry
    from formaut.matgroups import generators_to_json
    f = tmp_path / "gens.json"
    f.write_text(generators_to_json(get_entry("klein-quartic").generators()))
    code, out = run_cli(["closure", str(f)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 672 and payload["projective_order"] == 168
    code, _ = run_cli(["closure", str(f), "--cap", "10"], capsys)
    assert code == 1


def test_invdim_subcommand(tmp_path, capsys):
    from formaut.catalog import get_entry
    from formaut.matgroups import generators_to_json
    f = tmp_path / "gens.json"
    f.write_text(generators_to_json(get_entry("icosahedral-binary-12ic").generators()[:2]))
    code, out = run_cli(["invdim", str(f), "--degree", "12", "--method", "both"], capsys)
    assert code == 0 and out.strip() == "1"


def test_diag_group_subcommand(tmp_path, capsys):
    f = tmp_path / "form.txt"
    f.write_text("x1^3*x2 + x2^3*x3 + x3^3*x1")
    code, out = run_cli(["diag-group", str(f), "--blocks", "1,1,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 28


def test_semiperm_subcommand(tmp_path, capsys):
    f = tmp_path / "form.txt"
    f.write_text("x1^3 + x2^3 + x3^3")
    code, out = run_cli(["semiperm-group", str(f)], capsys)
    assert code == 0
    assert json.loads(out)["order"] == 162


def test_structure_subcommand(tmp_path, capsys):
    from formaut.catalog import get_entry
    from formaut.matgroups import generators_to_json
    entry = get_entry("fermat-1-3")
    gens = tmp_path / "gens.json"
    gens.write_text(generators_to_json(entry.generators()))
    cert = tmp_path / "cert.json"
    cert.write_text(entry.certificate().to_json())
    form = tmp_path / "form.txt"
    form.write_text(entry.form_text)
    code, out = run_cli(["structure", str(gens), str(cert), "--form", str(form)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["group_order"] == 162 and payload["identities_hold"]


def test_verify_catalog_single_entry(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["verify-catalog", "--entry", "fermat-1-3", "--skip-smooth",
                       "--out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["ok"] and len(payload["reports"]) == 1


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "formaut.cli", "ratio"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [["search", "--n", "1..x", "--d", "3"],
                                  ["diag-group", "form.txt", "--blocks", "1,x"],
                                  ["invdim", "gens.json", "--degree", "-1"]])
def test_bad_option_value_is_a_usage_error(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


def test_bad_cap_environment_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("FORMAUT_CAP", "abc")
    assert main(["jc", "--r", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: FORMAUT_CAP")


IDENTITY_2 = '{"dim": 2, "generators": [[["1", "0"], ["0", "1"]]]}'
CERT_3 = '{"blocks": [{"i": 1, "j": 1, "size": 3}], "grouping": [1]}'


@pytest.mark.parametrize("files, args", [
    ({"form.txt": "x1^3 + x2^2"}, ["smooth", "form.txt"]),
    ({"gens.json": '{"dim": 2, "generators": [[["1", "zz"], ["0", "1"]]]}'},
     ["closure", "gens.json"]),
    ({"gens.json": '{"dim": 2, "generators": '}, ["invdim", "gens.json", "--degree", "2"]),
    ({"gens.json": IDENTITY_2, "cert.json": '{"blocks": [{"i": 1}]}'},
     ["structure", "gens.json", "cert.json"]),
    ({"gens.json": IDENTITY_2, "cert.json": CERT_3}, ["structure", "gens.json", "cert.json"]),
    ({}, ["diag-group", "missing.txt", "--blocks", "1,1"]),
    ({"gens.json": '{"dim": 2, "generators": [[["z4", "0"], ["0", "1"]]]}',
      "cert.json": '{"blocks": [{"i": 1, "j": 1, "size": -1}, {"i": 2, "j": 1, "size": 3}], '
                   '"grouping": [1, 1]}'},
     ["structure", "gens.json", "cert.json"]),
], ids=["non-homogeneous-form", "bad-scalar", "bad-generator-json", "bad-certificate-json",
        "dimension-mismatch", "missing-file", "non-positive-block-size"])
def test_malformed_input_is_a_usage_error(tmp_path, monkeypatch, capsys, files, args):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
