"""Command-line interface: output formats, exit codes, verify suites."""

import json

import pytest

from toric_correlator.cli import main, parse_rep


def test_parse_rep():
    assert parse_rep("triv") == ("triv",)
    assert parse_rep("ps:2") == ("ps", 2)
    assert parse_rep("cusp:11") == ("cusp", 11)
    with pytest.raises(ValueError):
        parse_rep("nonsense")
    with pytest.raises(ValueError):
        parse_rep("ps")


def test_correlate_text(capsys):
    assert main(["correlate", "--p", "5", "--f", "1"]) == 0
    out = capsys.readouterr().out
    assert "PGL2(F_5)" in out
    assert "cusp:1" in out


def test_correlate_json(capsys):
    assert main(["correlate", "--p", "5", "--f", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["group"]["q"] == 5
    assert len(payload["records"]) == 7
    rec = payload["records"][0]
    assert {"rep", "dim", "value", "epsilon", "vanishes"} <= set(rec)


def test_correlate_csv_single_rep(capsys):
    code = main(
        ["correlate", "--p", "7", "--f", "1", "--rep", "cusp:1", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("rep,dim,value")
    assert len(lines) == 2


def test_correlate_single_rep_json_matches_whole_table(capsys):
    # --rep and the whole-table path build each record by the same rule
    from toric_correlator import PGL2, correlate_all

    for rec in correlate_all(PGL2(5, 2)):
        name = ":".join(str(x) for x in rec.rep)
        code = main(
            ["correlate", "--p", "5", "--f", "2", "--rep", name, "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == [rec.to_json_dict()]


def test_correlate_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(
        ["correlate", "--p", "5", "--f", "1", "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["group"]["q"] == 5


def test_modp_text(capsys):
    assert main(["modp", "--p", "5", "--f", "1"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "MISMATCH" not in out


def test_modp_nonzero_constant_with_zero_residues(capsys, monkeypatch):
    # ps 38 at q = 343: c = 588/(342*344) is nonzero, yet every residue at
    # the primes above 7 is 0 as predicted, so the report passes
    assert main(["modp", "--p", "7", "--f", "3", "--rep", "ps:38"]) == 0
    out = capsys.readouterr().out
    assert "ok (nonzero, all residues 0)" in out and "MISMATCH" not in out
    # a residue that differs from its prediction still fails
    import toric_correlator.modp as modp

    real = modp.predicted_residue
    monkeypatch.setattr(modp, "predicted_residue", lambda g, d: (real(g, d) + 1) % g.p)
    assert main(["modp", "--p", "7", "--f", "3", "--rep", "ps:38"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_modp_json_single_rep(capsys):
    code = main(["modp", "--p", "7", "--f", "1", "--rep", "ps:1", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][0]["rep"] == ["ps", 1]


def test_chartable_with_check(capsys):
    assert main(["chartable", "--p", "3", "--f", "1", "--check"]) == 0
    assert "orthogonality verified" in capsys.readouterr().out


def test_chartable_csv(capsys):
    assert main(["chartable", "--p", "3", "--f", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("rep,")
    assert len(lines) == 6  # header + 5 irreducibles


def test_shintani_sweep(capsys):
    assert main(["shintani", "--p", "3", "--f-base", "1", "--ext", "2"]) == 0
    out = capsys.readouterr().out
    assert "cusp" in out


def test_shintani_specific_j_json(capsys):
    code = main(
        ["shintani", "--p", "3", "--f-base", "1", "--ext", "2", "--j", "4",
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][0]["kind"] == "split"


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "shintani"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_field_selector(capsys):
    assert main(["verify", "--suite", "regular", "--p", "7", "--f", "1"]) == 0
    out = capsys.readouterr().out
    assert "q = 7" in out and "q = 5" not in out


def test_verify_shintani_selector(capsys):
    code = main(
        ["verify", "--suite", "shintani", "--p", "3", "--f-base", "1", "--ext", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "operator and descent sign rule, F_3 -> F_9" in out
    assert "character-sum lemmas" in out


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--suite", "shintani", "--p", "5"], "--p"),
        (["--suite", "shintani", "--p", "3", "--f-base", "2"], "--f-base"),
        (["--suite", "shintani", "--p", "3", "--f", "2", "--ext", "2"], "--f"),
        (["--suite", "regular", "--f", "2"], "--f"),
        (["--suite", "chartable", "--p", "7", "--ext", "2"], "--ext"),
        (["--suite", "epsilon", "--p", "5", "--f-base", "1"], "--f-base"),
        (["--suite", "all", "--p", "5"], "--p"),
        (["--suite", "all", "--f", "1"], "--f"),
        (["--suite", "all", "--ext", "2"], "--ext"),
    ],
)
def test_verify_refuses_an_ignored_field_option(capsys, argv, option):
    # an option the suite would not read exits 2 before any check runs
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert f"would ignore {option}" in captured.err
    assert "PASS" not in captured.out


def test_verify_corollary_scan(capsys):
    assert main(["verify", "--suite", "corollary-scan", "--p", "3", "--f", "2"]) == 0
    out = capsys.readouterr().out
    assert "sign +1 vanishing at q = 9: steta" in out


def test_verify_reports_failures(capsys, monkeypatch):
    import toric_correlator.cli as cli

    def broken(sel=None):
        raise RuntimeError("synthetic failure")
        yield  # pragma: no cover

    monkeypatch.setitem(cli.SUITES, "regular", broken)
    assert main(["verify", "--suite", "regular"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "synthetic failure" in out


def test_failed_check_exits_1(capsys, monkeypatch):
    from toric_correlator import PGL2, ShintaniOperator
    from toric_correlator.fields import ConsistencyError

    def broken(self):
        raise ConsistencyError("injected failure")

    monkeypatch.setattr(PGL2, "orthogonality_check", broken)
    monkeypatch.setattr(ShintaniOperator, "check_all", broken)
    assert main(["chartable", "--p", "5", "--check"]) == 1
    assert "error: injected failure" in capsys.readouterr().err
    assert main(["shintani", "--p", "3", "--ext", "2", "--check-operator"]) == 1
    assert "error: injected failure" in capsys.readouterr().err
    assert main(["chartable", "--p", "6", "--check"]) == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    assert main(["correlate", "--p", "6", "--f", "1"]) == 2
    assert main(["correlate", "--p", "5", "--f", "1", "--rep", "bogus"]) == 2


def test_table_cap_exits_2(capsys):
    assert main(["correlate", "--p", "1031"]) == 2
    assert "exceeds table cap" in capsys.readouterr().err
