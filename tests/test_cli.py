"""End-to-end command tests: exit codes, formats, determinism."""

import json
import math

import pytest

from derangements import permgrp
from derangements.cli import main
from derangements.derange import analyze
from derangements.families import DEGREE_CAP, central_product_examples
from derangements.errors import CapExceeded
from derangements.fileio import dump_matrix_group, dump_perm_group, load_group
from derangements.gf import field
from derangements.matgrp import general_linear_gl2, scalar_matrix_group
from derangements.permgrp import symmetric_group
from derangements.suite import matrix_record


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.group"
    path.write_text(dump_perm_group(symmetric_group(3)))
    return path


def test_analyze_perm_table(s3_file, capsys):
    assert main(["analyze", str(s3_file)]) == 0
    out = capsys.readouterr().out
    assert "degree" in out and "quotient_name" in out
    assert "subgroup_transitive" in out and "pass" in out


def test_analyze_perm_json_round_trip(s3_file, capsys):
    assert main(["analyze", str(s3_file), "--json"]) == 0
    loaded = json.loads(capsys.readouterr().out)
    assert loaded == analyze(symmetric_group(3)).to_record()
    # a second run emits identical bytes
    main(["analyze", str(s3_file), "--json"])
    again = capsys.readouterr().out
    assert json.loads(again) == loaded


def test_analyze_matrix_file(tmp_path, capsys):
    path = tmp_path / "scalars.group"
    path.write_text(dump_matrix_group(scalar_matrix_group(field(5, 1), 2)))
    assert main(["analyze", str(path), "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["order"] == 4 and rec["index"] == 4
    assert rec["quotient_name"] == "C4"


def test_analyze_matrix_file_max_order(tmp_path, capsys):
    path = tmp_path / "klein.group"
    path.write_text(dump_matrix_group(central_product_examples("klein")))
    assert main(["analyze", str(path), "--max-order", "47"]) == 2
    assert "exceeds cap 47" in capsys.readouterr().err
    assert main(["analyze", str(path), "--max-order", "48", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 48


def test_max_order_above_the_enumeration_limit(tmp_path, capsys, monkeypatch):
    """With the limit lowered below GL(2,5)'s order 480, a --max-order (or
    an explicit digit_stack cap) at or above 480 admits the group and gives
    the uncapped record; without one, the lowered limit applies."""
    gl = general_linear_gl2(field(5, 1))
    uncapped = matrix_record(gl)
    path = tmp_path / "gl25.group"
    path.write_text(dump_matrix_group(gl))
    monkeypatch.setattr(permgrp, "ENUMERATION_CAP", 100)
    for max_order in ("480", "1000"):
        assert main(["analyze", str(path), "--json", "--max-order", max_order]) == 0
        assert json.loads(capsys.readouterr().out) == uncapped
    assert main(["analyze", str(path), "--max-order", "479"]) == 2
    assert "exceeds cap 479" in capsys.readouterr().err
    assert main(["analyze", str(path)]) == 2
    assert "exceeds cap 100" in capsys.readouterr().err
    group = load_group(path.read_text())
    group.digit_stack(cap=480)
    assert matrix_record(group) == uncapped
    with pytest.raises(CapExceeded, match="cap 100"):
        matrix_record(load_group(path.read_text()))


def test_construct_analyze_exits_2_past_the_chain_budget(tmp_path, capsys, monkeypatch):
    """With CHAIN_SLOTS below C_300's 90 000 transversal entries, construct
    cyclic 300 --analyze exits 2 with the budget message; at 90 000 it
    analyzes."""
    out = str(tmp_path / "c300.group")
    monkeypatch.setattr(permgrp, "CHAIN_SLOTS", 300 * 299)
    assert main(["construct", "cyclic", "300", "--analyze", "--output", out]) == 2
    assert "stabilizer chain of degree 300 exceeds 89700 transversal entries" in capsys.readouterr().err
    monkeypatch.setattr(permgrp, "CHAIN_SLOTS", 300 * 300)
    assert main(["construct", "cyclic", "300", "--analyze", "--output", out, "--json"]) == 0
    assert json.loads(capsys.readouterr().out.split("\n", 1)[1])["index"] == 1


def test_construct_past_the_degree_cap_exits_2_before_a_chain(tmp_path, capsys, monkeypatch):
    """DEGREE_CAP is the largest degree whose regular action's chain fits
    CHAIN_SLOTS, 8 192: construct cyclic 8193 --analyze exits 2 with the
    degree message before any chain is built (it used to build the group
    and then 0.5 GB of chain, 2.1 s, before the budget refused it)."""
    assert DEGREE_CAP == math.isqrt(permgrp.CHAIN_SLOTS) == 8192

    def no_chain(self):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(permgrp.PermGroup, "_chain", no_chain)
    out = tmp_path / "c8193.group"
    assert main(["construct", "cyclic", "8193", "--analyze", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: degree 8193 exceeds 8192\n"
    assert not out.exists()


def test_analyze_kind_mismatch(s3_file, capsys):
    assert main(["analyze", str(s3_file), "--kind", "mat"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_analyze_malformed_header(tmp_path, capsys):
    path = tmp_path / "broken.group"
    path.write_text("permgruop 3 1\n1 2 0\n")
    assert main(["analyze", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.group")]) == 2
    assert "error" in capsys.readouterr().err


def test_analyze_degree_limit(s3_file, capsys):
    assert main(["analyze", str(s3_file), "--max-degree", "2"]) == 2
    assert "--max-degree" in capsys.readouterr().err


def test_verify_paper_single_scenario(capsys):
    assert main(["verify", "paper", "--only", "agl1-5"]) == 0
    out = capsys.readouterr().out
    assert "PASS agl1-5" in out
    assert "1/1 scenarios passed" in out


def test_verify_paper_fault_injection_fails(capsys):
    assert main(["verify", "paper", "--only", "agl1-5", "--inject-fault"]) == 1
    out = capsys.readouterr().out
    assert "FAIL agl1-5" in out
    assert "0/1 scenarios passed" in out


def test_verify_paper_fault_injection_output_is_stable(capsys):
    """A missing field is reported as "<missing>" in the text output, and
    the pooled JSON run matches the serial one byte for byte."""
    args = ["verify", "paper", "--only", "coverage-s2", "--only", "coverage-a5", "--inject-fault"]
    assert main(args) == 1
    text = capsys.readouterr().out
    assert "<missing>" in text and "object at" not in text
    assert main(args + ["--json"]) == 1
    serial = capsys.readouterr().out
    assert main(args + ["--json", "--workers", "2"]) == 1
    assert capsys.readouterr().out == serial
    assert '"actual": "<missing>"' in serial


def test_verify_paper_json(capsys):
    assert main(["verify", "paper", "--only", "coverage-s2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "paper" and payload["pass"] is True
    (result,) = payload["results"]
    assert result["id"] == "coverage-s2"
    assert result["record"]["covered"] is False


def test_verify_corpus_filtered_deterministic(capsys):
    args = ["verify", "corpus", "--max-degree", "9", "--max-order", "100"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "SKIP pgammal28" in first
    assert "PASS cyclic-5" in first
    assert "groups passed" in first


@pytest.mark.parametrize(
    "args, named",
    [
        (["corpus", "--inject-fault"], "--inject-fault"),
        (["corpus", "--only", "agl1-5"], "--only"),
        (["paper", "--max-order", "100"], "--max-order"),
        (["paper", "--only", "agl1-5", "--max-degree", "9"], "--max-degree"),
        (["paper", "--only", "agl1-55"], "agl1-55"),
        (["paper", "--only", "agl1-5", "--only", "no-such-id"], "no-such-id"),
    ],
)
def test_verify_refuses_flags_it_would_ignore(args, named, capsys):
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("d", [10**9, 20_000, 2_000])
def test_analyze_matrix_header_past_spin_cap(tmp_path, capsys, d):
    path = tmp_path / "huge.group"
    path.write_text(f"matgroup 2 1 {d} 0\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and f"GF(2)^{d}" in err
    assert len(err) < 200


def test_construct_writes_canonical_file(tmp_path, capsys):
    out = tmp_path / "sl3.group"
    assert main(["construct", "semilinear", "3", "--output", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    text = out.read_text()
    group = load_group(text)
    assert group.degree == 9 and group.order() == 144
    # reconstruction is byte-identical
    assert main(["construct", "semilinear", "3", "--output", str(out)]) == 0
    assert out.read_text() == text


def test_construct_default_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "agl1", "5"]) == 0
    assert "wrote agl1-5.group" in capsys.readouterr().out
    assert (tmp_path / "agl1-5.group").exists()


def test_construct_chained_analysis(tmp_path, capsys):
    out = tmp_path / "k.group"
    code = main(["construct", "central-klein", "--output", str(out), "--analyze", "--json"])
    assert code == 0
    stdout = capsys.readouterr().out
    rec = json.loads(stdout.split("\n", 1)[1])
    assert rec["order"] == 48 and rec["index"] == 4
    assert rec["quotient_name"] == "C2xC2"
    assert load_group(out.read_text()).order() == 48


def test_construct_chained_analysis_max_order(tmp_path, capsys):
    out = tmp_path / "k.group"
    args = ["construct", "central-klein", "--output", str(out), "--analyze"]
    assert main(args + ["--max-order", "10"]) == 2
    assert "exceeds cap 10" in capsys.readouterr().err
    assert main(args + ["--max-order", "48"]) == 0


def test_construct_analysis_past_the_old_order_cap(tmp_path, capsys):
    """affine-gl2 13 has order 4 429 152, above the enumeration cap; only
    its point stabilizer GL(2,13), of order 26 208, is enumerated.  Its
    index matches GL(2,13)'s eigenvalue-1 index (the affine bridge)."""
    args = ["construct", "affine-gl2", "13", "--analyze", "--json", "--output", str(tmp_path / "a.group")]
    assert main(args) == 0
    rec = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert rec["order"] == 4_429_152 and rec["d_order"] == rec["order"]
    assert rec["index"] == 1 == matrix_record(general_linear_gl2(field(13, 1)))["index"]
    assert main(args + ["--max-order", "26207"]) == 2
    assert "exceeds cap 26207" in capsys.readouterr().err


def test_construct_analysis_caps_only_the_derangement_stabilizer(tmp_path, capsys):
    """AGL(1,5) has |D_0| = 1 and |G_0| = 4: a cap of 1 still analyzes it,
    with the same record as the uncapped run."""
    args = ["construct", "agl1", "5", "--analyze", "--json", "--output", str(tmp_path / "a.group")]
    assert main(args) == 0
    uncapped = capsys.readouterr().out.split("\n", 1)[1]
    assert main(args + ["--max-order", "1"]) == 0
    assert capsys.readouterr().out.split("\n", 1)[1] == uncapped
    assert json.loads(uncapped)["index"] == 4


def test_construct_rejections(tmp_path, capsys):
    assert main(["construct", "dihedral-family", "5"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["construct", "no-such-family"]) == 2
    capsys.readouterr()
    assert main(["construct", "agl1"]) == 2  # missing parameter
    capsys.readouterr()
    assert main(["construct", "agl1", "five"]) == 2  # not an integer
    capsys.readouterr()


@pytest.mark.parametrize(
    "params",
    [["dihedral", "2"], ["symmetric", "0"], ["agl1", "6"], ["wreath-sym", "1", "3"], ["alternating", "0"]],
    ids="-".join,
)
def test_construct_parameter_errors_exit_2(params, tmp_path, capsys):
    out = tmp_path / "g.group"
    assert main(["construct", *params, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("suite", ["paper", "corpus"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_refuses_workers_below_one(suite, workers, capsys):
    """--workers 0 and -3 ran serially and exited 0; they exit 2 with one
    error line, while --workers 1 still runs."""
    assert main(["verify", suite, "--workers", workers]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--workers" in errors[0] and "Traceback" not in err
    only = ["--only", "agl1-5"] if suite == "paper" else ["--max-order", "10"]
    assert main(["verify", suite, "--workers", "1", *only]) == 0
    capsys.readouterr()


def _assert_usage_error(argv, flag, value, capsys):
    """argv exits 2 with one argparse error naming flag and value."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "Traceback" not in err
    assert f"argument {flag}: expected an integer of at least 1, got '{value}'" in errors[0]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_order_below_one_is_a_usage_error(value, s3_file, tmp_path, capsys):
    """--max-order -1 used to run and report "point stabilizer order at
    least 2^0 exceeds cap -1"; on analyze, construct and verify corpus it
    is now refused by argparse, and construct writes no file."""
    out = tmp_path / "a5.group"
    for argv in (
        ["analyze", str(s3_file)],
        ["construct", "central-a5", "--analyze", "--output", str(out)],
        ["verify", "corpus"],
    ):
        _assert_usage_error([*argv, "--max-order", value], "--max-order", value, capsys)
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_max_degree_below_one_is_a_usage_error(value, s3_file, capsys):
    """--max-degree -5 used to report "degree 3 exceeds --max-degree -5";
    on analyze and verify corpus it is now refused by argparse."""
    for argv in (["analyze", str(s3_file)], ["verify", "corpus"]):
        _assert_usage_error([*argv, "--max-degree", value], "--max-degree", value, capsys)


def test_a_carried_order_past_max_order_closes_nothing(tmp_path, capsys, monkeypatch):
    """central-a5 carries its order 6 960, so --max-order 6959 refuses it
    before any closure under that cap begins, with the closure's message;
    6960 admits it."""
    real = permgrp.closure

    def closure(start, step, cap):
        assert cap != 6959, "a stack was closed past a carried order"
        return real(start, step, cap)

    monkeypatch.setattr(permgrp, "closure", closure)
    args = ["construct", "central-a5", "--analyze", "--output", str(tmp_path / "a5.group")]
    assert main(args + ["--max-order", "6959"]) == 2
    assert capsys.readouterr().err == "error: closure exceeds cap 6959\n"
    assert main(args + ["--max-order", "6960", "--json"]) == 0
    assert json.loads(capsys.readouterr().out.split("\n", 1)[1])["order"] == 6960


def test_usage_errors(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["verify", "bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "header",
    ["matgroup 3 0 2 1", "matgroup 3 100000000 1 0", "matgroup 1000000000000000009 1 1 0"],
)
def test_analyze_hostile_field_header_exits_2(header, tmp_path, capsys):
    """Degree 0, an order past the cap and a huge characteristic are refused
    before p**f is formed or p trial-divided."""
    path = tmp_path / "hostile.group"
    path.write_text(header + "\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "params",
    [
        ["agl1", "1000000000000000009"],
        ["semilinear", "1000000000000000009"],
        ["wreath-cyclic", "5", "1000000007"],
        ["frobenius-complement", "5", "2", "1000000007"],
    ],
    ids="-".join,
)
def test_construct_hostile_parameters_exit_2(params, tmp_path, capsys):
    """Field orders past the cap, and exponents past the degree cap's bit
    length, are refused before the trial division or the power."""
    out = tmp_path / "g.group"
    assert main(["construct", *params, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "params",
    [
        ["cyclic", "1000000000"],
        ["symmetric", "1000000000"],
        ["alternating", "1000000000"],
        ["dihedral", "1000000000"],
        ["frobenius-complement", "1000000007", "2", "3"],
        ["wreath-sym", "1000000000", "2"],
        ["affine-scalars", "2", "1000000000"],
        ["affine-gl2", "317"],
    ],
    ids="-".join,
)
def test_construct_hostile_degrees_exit_2(params, tmp_path, capsys):
    """A degree, a kernel order, or a field order and dimension whose
    domain passes the one degree cap is refused before a permutation, a
    matrix or a group of that size is built."""
    out = tmp_path / "g.group"
    assert main(["construct", *params, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"exceeds {DEGREE_CAP}" in err and not out.exists()
