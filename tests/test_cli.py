import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from shiftlab import __version__, algebra, cli, criteria, shifts
from shiftlab.algebra import PowerShift
from shiftlab.blocks import build_blocks, hypercyclicity_witness, norm_runs, verify_inequalities
from shiftlab.cli import EXIT_AUDIT, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from shiftlab.criteria import HorizonConfig, Verdict, VerdictKind, check_criterion, hierarchy_audit
from shiftlab.density import _rows, distributional_report
from shiftlab.reporting import canonical_json, csv_lines, emit
from shiftlab.shifts import (
    DualWeights,
    ShiftOperator,
    constant_weights,
    parse_weights,
    window_check,
)
from shiftlab.spaces import InvalidSpecError, ScaledMatrix, SpaceSpec, parse_space


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_ue_backward_doubling(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "check", "--space", "lp_Z:2", "--weights", "constant:2",
                         "--criterion", "ue", "--side", "backward",
                         "--n-max", "64", "--window", "32", "--m-grid", "1,2,4,16",
                         "--out", str(out_file), "--no-timestamp")
        assert code == EXIT_OK
        report = json.loads(out_file.read_text())
        assert report["report"]["property"] == "a"
        assert report["report"]["upe"] is True
        assert report["report"]["kind"] == "CertifiedUnbounded"
        assert report["config"]["space"]["p"] == 2
        assert "timestamp" not in report

    def test_ae_stdout(self, capsys):
        code, out, _ = run(capsys, "check", "--space", "c0_Z", "--weights", "constant:1",
                           "--criterion", "ae", "--n-max", "64", "--window", "16")
        assert code == EXIT_OK
        assert json.loads(out)["report"]["kind"] == "BoundedWitness"

    def test_byte_determinism(self, capsys):
        args = ("check", "--space", "c0_Z", "--weights", "constant:2", "--criterion", "ae",
                "--n-max", "64", "--window", "16", "--no-timestamp")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_internal_error_is_not_a_usage_error(self, capsys, monkeypatch):
        # an exception no handler expects is a defect: exit 3 with its traceback
        import shiftlab.criteria

        def broken(op, criterion, cfg):
            raise RuntimeError("checker broke")

        monkeypatch.setattr(shiftlab.criteria, "check_criterion", broken)
        code, out, err = run(capsys, "check", "--space", "lp_Z:2", "--weights", "constant:2",
                             "--criterion", "ue", "--n-max", "64", "--window", "16")
        assert (code, out) == (EXIT_INTERNAL, "")
        assert EXIT_INTERNAL == 3
        assert err.startswith("internal error:\nTraceback (most recent call last):\n")
        assert err.endswith("RuntimeError: checker broke\n")
        assert "in broken" in err

    def test_interrupt_is_not_an_internal_error(self, capsys, monkeypatch):
        import shiftlab.criteria

        def interrupted(op, criterion, cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(shiftlab.criteria, "check_criterion", interrupted)
        code, out, err = run(capsys, "check", "--space", "lp_Z:2", "--weights", "constant:2",
                             "--criterion", "ue", "--n-max", "64", "--window", "16")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("Aborted!\n")
        assert "Traceback" not in err

    def test_unknown_space_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--space", "nope", "--weights", "constant:2")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_table_space_with_missing_row_is_rejected(self, capsys, tmp_path):
        one = {"num": "1", "den": "1"}
        spec = tmp_path / "space.json"
        spec.write_text(json.dumps({"family": "table", "params": {
            "lo": 0, "hi": 2, "tail": "hold", "rows": {"0": [one], "2": [one]}}}))
        code, _, err = run(capsys, "check", "--space", f"@{spec}", "--weights", "constant:2",
                           "--criterion", "ae", "--n-max", "8", "--window", "4")
        assert code == EXIT_USAGE
        assert "no row for index 1" in err

    def test_malformed_scalar_in_space_file_is_rejected(self, capsys, tmp_path):
        spec = tmp_path / "space.json"
        spec.write_text(json.dumps({"family": "table", "params": {
            "lo": 0, "hi": 0, "rows": {"0": [1]}}}))
        code, _, err = run(capsys, "check", "--space", f"@{spec}", "--weights", "constant:2",
                           "--n-max", "8", "--window", "4")
        assert code == EXIT_USAGE
        assert "exact scalar must be" in err and "got 1" in err

    def test_scalar_without_den_in_weights_file_is_rejected(self, capsys, tmp_path):
        spec = tmp_path / "weights.json"
        spec.write_text(json.dumps({"family": "constant", "value": {"num": "1"}}))
        code, _, err = run(capsys, "check", "--space", "c0_Z", "--weights", f"@{spec}",
                           "--n-max", "8", "--window", "4")
        assert code == EXIT_USAGE
        assert "exact scalar must be" in err and "got {'num': '1'}" in err

    @pytest.mark.parametrize("spec, message", [
        ({"family": "table", "params": {"lo": 0, "hi": 0, "rows": {"0": 1}}},
         "space JSON params row 0 must be a list of scalars, got 1"),
        ({"family": "table", "params": {"lo": 0, "hi": 0}},
         "space JSON params has no 'rows' field"),
        ({"family": "table", "params": {"lo": 0, "hi": 0, "rows": [[1]]}},
         "space JSON params field 'rows' must be an object, got [[1]]"),
        ({"family": "table", "params": {"lo": "0", "hi": 0, "rows": {}}},
         "space JSON params field 'lo' must be an integer, got '0'"),
        ({"family": "table"}, "space JSON params has no 'rows' field"),
        ({"family": "constant", "params": 1}, "space JSON field 'params' must be an object, got 1"),
        ({"family": "power", "index_set": "Q"},
         "space JSON field 'index_set' must be 'Z' or 'N', got 'Q'"),
        ({"family": "power", "p": "1"}, "exponent p must be 0 or >= 1, got '1'"),
        ({"params": {}}, "space JSON has no 'family' field"),
        ([1], "space JSON must be an object, got [1]"),
    ])
    def test_malformed_space_file_names_the_field(self, capsys, tmp_path, spec, message):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "check", "--space", f"@{path}", "--weights", "constant:2",
                           "--n-max", "8", "--window", "4")
        assert code == EXIT_USAGE
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("value, message", [
        ({"num": "0", "den": "1"}, "constant matrix value must be > 0, got 0"),
        ({"num": "-3", "den": "1"}, "constant matrix value must be > 0, got -3"),
        ({}, 'exact scalar must be {"num": <int>, "den": <nonzero int>}, got {}'),
    ])
    def test_constant_space_value_must_be_positive(self, capsys, tmp_path, value, message):
        # rows must be eventually positive; {} is a malformed scalar, not 1
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"family": "constant", "params": {"value": value}}))
        code, _, err = run(capsys, "check", "--space", f"@{path}", "--weights", "constant:2",
                           "--criterion", "ue", "--n-max", "8", "--window", "4")
        assert code == EXIT_USAGE
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        ({"family": "table", "tail": "hold"}, "weight JSON has no 'table' field"),
        ({"family": "table", "table": [1]}, "weight JSON field 'table' must be an object, got [1]"),
        ({"family": "constant"}, "weight JSON has no 'value' field"),
        ({"family": "geometric", "coef": {"num": "1", "den": "1"}},
         "weight JSON has no 'ratio' field"),
        ({"family": "blocks", "j_max": "2"},
         "weight JSON field 'j_max' must be an integer, got '2'"),
        ({"family": 2}, "weight JSON field 'family' must be a string, got 2"),
        ({"family": "table", "tail": "hold",
          "table": {"0": {"num": "1", "den": "1"}, "2": {"num": "3", "den": "1"}}},
         "hold weight table has no weight at 1 in [0, 2]"),
        ({"family": "table", "tail": "wrap", "table": {"0": {"num": "1", "den": "1"}}},
         "weight table tail must be 'error' or 'hold', got 'wrap'"),
    ])
    def test_malformed_weights_file_names_the_field(self, capsys, tmp_path, spec, message):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "check", "--space", "c0_Z", "--weights", f"@{path}",
                           "--n-max", "8", "--window", "4")
        assert code == EXIT_USAGE
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("text, usage", [
        ("constant", "constant:<c>"),
        ("constant:", "constant:<c>"),
        ("constant:1/0", "constant:<c>"),
        ("geometric:2", "geometric:<coef>:<ratio>[:abs]"),
        ("geometric:1:x", "geometric:<coef>:<ratio>[:abs]"),
        ("blocks", "blocks:<J>"),
        ("blocks:x", "blocks:<J>"),
        # a field past the usage form used to be dropped
        ("constant:2:9", "constant:<c>"),
        ("blocks:3:1", "blocks:<J>"),
        ("geometric:1:2:bogus", "geometric:<coef>:<ratio>[:abs]"),
    ])
    def test_weight_shorthand_with_missing_fields(self, capsys, text, usage):
        code, _, err = run(capsys, "check", "--space", "c0_Z", "--weights", text,
                           "--n-max", "8", "--window", "4")
        assert code == EXIT_USAGE
        assert err == f"error: weight shorthand {text!r} needs {usage}\n"

    @pytest.mark.parametrize("args, message", [
        (("check", "--space", "c0_Z", "--weights", "constant:2", "--m-grid", "1,x"),
         "--m-grid needs comma-separated integers like 1,2,4, got '1,x'"),
        (("orbit", "--space", "c0_Z", "--weights", "constant:2", "--n", "1:x"),
         "--n needs <lo>:<hi> or <n> with integers, got '1:x'"),
        (("orbit", "--space", "c0_Z", "--weights", "constant:2", "--k", "x"),
         "--k needs <lo>:<hi> or <n> with integers, got 'x'"),
        (("orbit", "--space", "c0_Z", "--weights", "constant:2", "--vector", "e:x"),
         "--vector needs e:<index> with an integer index, got 'e:x'"),
        (("check", "--space", "lp_Z:x", "--weights", "constant:2"),
         "--space needs <preset>[:<p>] with a number p, got 'lp_Z:x'"),
    ])
    def test_malformed_number_names_the_option(self, capsys, args, message):
        code, out, err = run(capsys, *args)
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("space, p", [("c0_Z", "2"), ("c0_N", "2"), ("s_Z", "3")])
    def test_exponent_on_a_fixed_exponent_preset_is_rejected(self, capsys, space, p):
        # the exponent used to be dropped, and the report said p 0 or p 1
        code, out, err = run(capsys, "check", "--space", f"{space}:{p}", "--weights",
                             "constant:2", "--n-max", "8", "--window", "4")
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: preset {space} takes no exponent, got p = {p}\n"

    @pytest.mark.parametrize("criterion, j", [("ae", -50), ("ape", -50), ("e", -100),
                                              ("mixing", -50)])
    def test_horizon_past_an_error_tail_table_is_input_error(self, capsys, tmp_path,
                                                             criterion, j):
        spec = tmp_path / "tbl.json"
        rows = {str(i): [{"num": "1", "den": "1"}, {"num": "2", "den": "1"}]
                for i in range(-5, 6)}
        spec.write_text(json.dumps({"family": "table", "params": {
            "lo": -5, "hi": 5, "tail": "error", "rows": rows}}))
        args = ("check", "--space", f"@{spec}", "--weights", "constant:2", "--n-max", "50",
                "--window", "10", "--no-timestamp")
        code, out, err = run(capsys, *args, "--criterion", criterion)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: matrix entry at j={j} outside tabulated window [-5,5]\n"
        # no tail attestation, so ue sweeps nothing and stays inconclusive
        code, out, _ = run(capsys, *args, "--criterion", "ue")
        assert code == EXIT_OK
        assert json.loads(out)["report"]["kind"] == "Inconclusive"

    @pytest.mark.parametrize("args, message", [
        # an empty basis window would certify e with no evidence rows at all
        (("--space", "c0_N", "--weights", "constant:1/2", "--criterion", "e",
          "--side", "forward", "--basis-window", "0"), "basis_window must be >= 1, got 0"),
        (("--space", "lp_Z:2", "--weights", "constant:1/2", "--criterion", "e",
          "--side", "forward", "--basis-window", "-3"), "basis_window must be >= 1, got -3"),
        # thresholds are compared in log2
        (("--space", "c0_Z", "--weights", "constant:2", "--m-grid", "0,2,4"),
         "m_grid entries must be > 0, got 0"),
        (("--space", "c0_Z", "--weights", "constant:2", "--m-grid", "-4,2"),
         "m_grid entries must be > 0, got -4"),
        # no threshold above 1 shows growth: ue and hierarchy used to certify
        # all three regimes at once on constant weights 1 and exit 3
        (("--space", "lp_Z:2", "--weights", "constant:1", "--criterion", "ue", "--m-grid", "1"),
         "m_grid needs a threshold above 1, got [1]"),
        (("--space", "lp_Z:2", "--weights", "constant:1", "--criterion", "hierarchy",
          "--m-grid", "1"), "m_grid needs a threshold above 1, got [1]"),
    ])
    def test_horizon_out_of_range_names_the_field(self, capsys, args, message):
        code, out, err = run(capsys, "check", *args, "--n-max", "8", "--window", "4")
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (("--space", "c0_N", "--criterion", "ae"),
         "criterion 'ae' needs a bilateral backward or forward shift"),
        (("--space", "c0_N", "--criterion", "ue"),
         "criterion 'ue' needs a bilateral backward or forward shift"),
        (("--space", "c0_Z", "--side", "forward", "--criterion", "mixing"),
         "criterion 'mixing' needs a bilateral backward shift"),
        (("--space", "c0_N", "--criterion", "hierarchy"),
         "criterion 'hierarchy' needs a bilateral backward or forward shift"),
    ])
    def test_shift_outside_the_criterion_names_it(self, capsys, args, message):
        code, out, err = run(capsys, "check", "--weights", "constant:2", *args,
                             "--n-max", "8", "--window", "4")
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("criterion", ["ue", "upe", "hierarchy"])
    def test_weight_table_inside_the_window_leaves_ue_inconclusive(self, capsys, criterion):
        # blocks:2 spans [-172, 173], inside the default window of 1000; the
        # pair is unattested, so the uniform rows need no curve and no n_eff
        code, out, _ = run(capsys, "check", "--space", "c0_Z", "--weights", "blocks:2",
                           "--criterion", criterion, "--no-timestamp")
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        ue = report["ue"] if criterion == "hierarchy" else report
        assert ue["kind"] == "Inconclusive"
        assert ue["evidence"] and all(ev["n_eff"] is None for ev in ue["evidence"])

    def test_weight_table_inside_the_basis_window_is_input_error(self, capsys):
        # the basis diagnostic reads weights that far out, so it still rejects
        code, out, err = run(capsys, "check", "--space", "c0_Z", "--weights", "blocks:1",
                             "--criterion", "e")
        assert code == EXIT_USAGE
        assert out == "" and err == "error: weight table too small for a window of radius 50\n"

    def test_weight_table_past_the_window_cuts_n_eff(self, capsys):
        code, out, _ = run(capsys, "check", "--space", "c0_Z", "--weights", "blocks:2",
                           "--criterion", "ue", "--window", "100", "--no-timestamp")
        assert code == EXIT_OK
        # the dual of blocks:2 has weights on [-173, 172]: forward walks of
        # 73 steps from [-100, 100] read w(-173..172)
        assert {ev["n_eff"] for ev in json.loads(out)["report"]["evidence"]} == {73}

    def test_missing_option_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", "--space", "c0_Z")
        assert code == EXIT_USAGE

    def test_wellposed_report(self, capsys):
        code, out, _ = run(capsys, "check", "--space", "c0_Z", "--weights", "constant:2",
                           "--criterion", "wellposed", "--window", "32", "--n-max", "4")
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert rep["wellposed"][0]["status"] == "holds"
        assert rep["invertible"][0]["window_sup"] == "1/2"

    def test_mixing_criterion(self, capsys):
        code, out, _ = run(capsys, "check", "--space", "c0_Z", "--weights", "constant:1/2",
                           "--criterion", "mixing", "--n-max", "64", "--window", "16",
                           "--m-grid", "1,2,4,16")
        assert code == EXIT_OK
        assert json.loads(out)["report"]["property"] == "not-mixing"

    def test_ape_sides(self, capsys):
        base = ("check", "--space", "c0_Z", "--weights", "constant:2",
                "--n-max", "64", "--window", "16", "--m-grid", "1,2,4,16")
        code, out, _ = run(capsys, *base, "--criterion", "ape")
        assert code == EXIT_OK and json.loads(out)["report"]["kind"] == "CertifiedUnbounded"
        code, out, _ = run(capsys, *base, "--criterion", "ape-inverse")
        # inverse branch terms 2^{-j} are attested nonincreasing: bounded
        assert code == EXIT_OK and json.loads(out)["report"]["kind"] == "BoundedWitness"


CRITERIA = ["ae", "ape", "ape-inverse", "ue", "upe", "e", "mixing", "hierarchy", "wellposed"]
PARITY_CFG = HorizonConfig(n_max=64, window=16, m_grid=(1, 2, 4))


_SMALL_CHECK = ("check", "--space", "lp_Z:2", "--weights", "constant:2", "--n-max", "40",
                "--window", "8", "--k-max", "2", "--basis-window", "3")
STREAMED = {**{f"check-{criterion}": (*_SMALL_CHECK, "--criterion", criterion)
               for criterion in CRITERIA},
            "orbit-json": ("orbit", "--space", "s_Z", "--weights", "constant:2", "--n", "-5:5",
                           "--format", "json"),
            "density-json": ("density", "--weights", "blocks:2", "--format", "json"),
            "props": ("props",)}


@pytest.mark.parametrize("args", STREAMED.values(), ids=STREAMED)
def test_streamed_report_is_the_canonical_text(capsys, monkeypatch, tmp_path, args):
    # a JSON report is written chunk by chunk as it is encoded; the file is
    # canonical_json of the same envelope
    envelopes = []
    real = cli.json_chunks
    monkeypatch.setattr(cli, "json_chunks", lambda obj: envelopes.append(obj) or real(obj))
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, *args, "--out", str(out), "--no-timestamp")
    assert (code, stdout, err) == (EXIT_OK, "", "") and len(envelopes) == 1
    assert out.read_text() == canonical_json(envelopes[0])


def test_unilateral_backward_basis_window_reads_weights_from_radius_2(capsys, tmp_path):
    # B e_1 = 0, so a window of radius 1 reads no weight; radius 2 reads w_2,
    # outside a table that starts at 3
    table = tmp_path / "weights.json"
    table.write_text(json.dumps({"family": "table", "tail": "error", "table": {
        str(j): {"num": "2", "den": "1"} for j in range(3, 40)}}))
    args = ("check", "--space", "lp_N:2", "--weights", f"@{table}", "--side", "backward",
            "--criterion", "e", "--n-max", "20", "--no-timestamp")
    assert run(capsys, *args, "--basis-window", "1")[0] == EXIT_OK
    assert run(capsys, *args, "--basis-window", "2") == (
        EXIT_USAGE, "", "error: weight table too small for a window of radius 2\n")


def _direct_report(op: ShiftOperator, criterion: str) -> dict:
    """The report of the library entry for one criterion, called directly."""
    cfg = PARITY_CFG
    if criterion == "wellposed":
        ks = range(1, cfg.k_max + 1)
        return {"wellposed": [window_check(op, "defined", k, cfg).to_json() for k in ks],
                "invertible": [window_check(op, "invertible", k, cfg).to_json() for k in ks]}
    if criterion == "hierarchy":
        return hierarchy_audit(op, cfg).to_json()
    report = check_criterion(op, criterion, cfg).to_json()
    if criterion == "ue":
        report["upe"] = report["property"] in ("A", "a")
    return report


@pytest.mark.parametrize("space", ["c0_Z", "c0_N"])
@pytest.mark.parametrize("side", ["backward", "forward"])
@pytest.mark.parametrize("criterion", CRITERIA)
def test_check_report_matches_public_checker(capsys, space, side, criterion):
    op = ShiftOperator(side, parse_weights("constant:2"), parse_space(space))
    try:
        want = json.loads(canonical_json(_direct_report(op, criterion)))
    except InvalidSpecError:  # the checker rejects op
        want = None
    code, out, _ = run(capsys, "check", "--space", space, "--weights", "constant:2",
                       "--side", side, "--criterion", criterion,
                       "--n-max", "64", "--window", "16", "--m-grid", "1,2,4", "--no-timestamp")
    if want is None:
        assert code == EXIT_USAGE
    else:
        assert code == EXIT_OK
        assert json.loads(out)["report"] == want


class TestSynthesize:
    def test_one_block_goldens(self, capsys, tmp_path):
        out_file = tmp_path / "synth.json"
        weights_file = tmp_path / "weights.json"
        code, _, _ = run(capsys, "synthesize", "--blocks", "1", "--out", str(out_file),
                         "--weights-out", str(weights_file), "--no-timestamp")
        # one block reaches no shift of the witness audit, which then certifies nothing
        assert code == EXIT_AUDIT
        rep = json.loads(out_file.read_text())
        window = rep["report"]["weights_window"]
        assert [window[str(j)] for j in range(-12, 0)] == [
            "1", "1", "1", "1/4", "1/2", "1/2", "1/2", "1", "2", "2", "2", "2"]
        assert [window[str(j)] for j in range(-17, -12)] == ["1/2", "1/2", "1", "2", "2"]
        assert [window[str(j)] for j in range(2, 14)] == [
            "1/2", "1/2", "1/2", "1/2", "1", "2", "2", "2", "4", "1", "1", "1"]
        layout = rep["report"]["layout"][0]
        assert (layout["a"], layout["b"], layout["s"], layout["t"]) == (12, 5, 12, 17)
        assert rep["report"]["all_passed"] is False
        assert rep["report"]["audits"]["hc"]["violations"] == [
            "no shift audited: each has fewer than two blocks in reach"]
        spec = json.loads(weights_file.read_text())
        assert spec["family"] == "blocks" and spec["j_max"] == 1

    def test_two_blocks_audit_values(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--blocks", "2", "--no-timestamp")
        assert code == EXIT_OK
        audits = json.loads(out)["report"]["audits"]
        assert audits["eq1"]["2"]["ratio"] == "64/105"
        assert audits["oracle_equivalence"] and audits["symmetry"]
        build = build_blocks(2)
        want = verify_inequalities(build).to_json() | {"hc": hypercyclicity_witness(build).to_json()}
        assert audits == json.loads(canonical_json(want))

    @pytest.mark.parametrize("j_max", ["0", "6"])
    def test_blocks_outside_one_to_five_is_usage_error(self, capsys, j_max):
        # blocks 6 and 7 build in the library, but the report writes
        # 2 t_J + 2 weights one by one (t_6 = 52 142 520)
        code, out, err = run(capsys, "synthesize", "--blocks", j_max, "--no-timestamp")
        assert code == EXIT_USAGE and out == ""
        assert f"argument --blocks: invalid choice: {j_max} (choose from 1, 2, 3, 4, 5)" in err

    def test_negative_t_range_is_usage_error(self, capsys):
        # a negative range would audit no shift and pass
        code, out, err = run(capsys, "synthesize", "--blocks", "1", "--t-range", "-3",
                             "--no-timestamp")
        assert code == EXIT_USAGE and out == ""
        assert "--t-range needs a range of at least 0, got -3" in err


class TestOrbit:
    def test_polynomial_growth_csv(self, capsys):
        code, out, _ = run(capsys, "orbit", "--space", "s_Z", "--weights", "constant:1",
                           "--side", "forward", "--vector", "e:0", "--n", "-50:50",
                           "--k", "1:3", "--format", "csv")
        assert code == EXIT_OK
        lines = out.split("\r\n")
        assert lines[0] == "n,log2_norm_k1,log2_norm_k2,log2_norm_k3"
        rows = [line.split(",") for line in lines[1:] if line]
        assert len(rows) == 101
        for row in rows:
            n = int(row[0])
            for k in (1, 2, 3):
                # unit weights: ||F^n e_0||_k = (|n|+1)^k, the growth envelope
                assert float(row[k]) == pytest.approx(k * math.log2(abs(n) + 1), abs=1e-9)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "orbit", "--space", "c0_Z", "--weights", "constant:2",
                           "--vector", "e:0", "--n", "0:4", "--k", "1:1",
                           "--format", "json", "--no-timestamp")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["report"]["rows"][4] == [4, repr(4.0)]

    def test_orbit_past_table_reach_is_input_error(self, capsys):
        code, _, err = run(capsys, "orbit", "--space", "c0_Z", "--weights", "blocks:1",
                           "--vector", "e:0", "--n", "-30:30", "--k", "1:1")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_undefined_weight_message_is_unquoted(self, capsys):
        code, out, err = run(capsys, "orbit", "--space", "c0_Z", "--weights", "blocks:2",
                             "--n", "0:400", "--k", "1:1")
        assert code == EXIT_USAGE
        assert out == "" and err == "error: weight table spans [-172, 173], got 174\n"

    @pytest.mark.parametrize("option, value, message", [
        ("--n", "5:1", "--n needs lo <= hi, got '5:1'"),
        ("--k", "3:1", "--k needs lo <= hi, got '3:1'"),
        ("--k", "0:2", "--k needs seminorm levels of at least 1, got '0:2'"),
    ])
    def test_empty_or_out_of_range_is_input_error(self, capsys, option, value, message):
        # each printed a bare header (or, at k 0, an error naming no option)
        code, out, err = run(capsys, "orbit", "--space", "c0_Z", "--weights", "constant:2",
                             option, value)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


class TestDensity:
    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "density", "--weights", "blocks:1", "--vector", "e:-1",
                           "--n", "17", "--format", "csv")
        assert code == EXIT_OK
        lines = out.split("\r\n")
        header = lines[0].split(",")
        assert header[:3] == ["n", "norm_log2", "running_average"]
        assert any(c.startswith("ratio_small(") for c in header)
        assert any(c.startswith("ratio_large(") for c in header)
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == 1.0  # ||B e_{-1}|| = 2

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "density", "--weights", "blocks:2", "--vector", "e:1",
                           "--format", "json", "--no-timestamp")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["report"]["irregularity_levels"]["2"]["evidence"] is True

    @pytest.mark.parametrize("vector, name", [("e:-1", "e-1-forward"), ("e:1", "e1-backward")])
    def test_routes_agree_with_library(self, capsys, vector, name):
        # the CSV keeps its own running sum and the JSON branch calls the
        # library report; both must stay what the library and the per-index
        # route compute
        from block_oracle import cesaro_values

        build = build_blocks(2)
        code, out, _ = run(capsys, "density", "--weights", "blocks:2", "--vector", vector,
                           "--format", "csv")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.split("\r\n")[1:] if line]
        assert [row[2] for row in rows] == [repr(float(v)) for v in cesaro_values(build, name)]
        code, out, _ = run(capsys, "density", "--weights", "blocks:2", "--vector", vector,
                           "--format", "json", "--no-timestamp")
        assert code == EXIT_OK
        want = json.loads(canonical_json(distributional_report(build, name, [2, 3],
                                                               [Fraction(1, 2), Fraction(1, 3)])))
        assert json.loads(out)["report"] == want

    def test_horizon_past_table_reach_is_input_error(self, capsys, tmp_path):
        # rejected before any output: no CSV header on stdout, no --out file
        out_file = tmp_path / "rows.csv"
        message = "error: --n needs a horizon of at most the table reach 172, got 999\n"
        for fmt in ("csv", "json"):
            for extra in ((), ("--out", str(out_file))):
                code, out, err = run(capsys, "density", "--weights", "blocks:2", "--n", "999",
                                     "--format", fmt, *extra)
                assert code == EXIT_USAGE
                assert (out, err) == ("", message)
                assert not out_file.exists()


    @pytest.mark.parametrize("option", ["--tau-grid", "--k-grid"])
    @pytest.mark.parametrize("grid", ["1/0", "1/2,x"])
    def test_malformed_grid_is_input_error(self, capsys, option, grid):
        code, out, err = run(capsys, "density", "--weights", "blocks:2", option, grid)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {option} needs fractions like 1/2,3, got {grid!r}\n"

    def test_fractional_large_threshold_is_kept(self, capsys):
        # K = 5/2 is reported as 5/2, as the CSV header names it, not cut to 2
        code, out, _ = run(capsys, "density", "--weights", "blocks:2", "--format", "json",
                           "--k-grid", "5/2", "--no-timestamp")
        assert code == EXIT_OK
        large = json.loads(out)["report"]["large"]
        want = distributional_report(build_blocks(2), "e-1-forward", [Fraction(5, 2)])["large"]
        assert list(large) == ["5/2"] and large == json.loads(canonical_json(want))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_horizon_below_one_is_input_error(self, capsys, fmt, n):
        code, out, err = run(capsys, "density", "--weights", "blocks:1", "--n", n,
                             "--format", fmt)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: --n needs a horizon of at least 1, "
                                                    f"got {n}\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n0", ["0", "18"])
    def test_base_outside_the_horizon_is_input_error(self, capsys, fmt, n0):
        # the horizon of blocks:1 is its table reach, 17
        code, out, err = run(capsys, "density", "--weights", "blocks:1", "--n0", n0,
                             "--format", fmt)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: --n0 needs 1 <= n0 <= the horizon "
                                                    f"17, got {n0}\n")

    def test_blocks_shorthand_error_names_the_form(self, capsys):
        code, _, err = run(capsys, "density", "--weights", "blocks:x")
        assert code == EXIT_USAGE
        assert "blocks:<J>" in err

    def test_non_block_weights_are_input_error(self, capsys):
        code, _, err = run(capsys, "density", "--weights", "constant:2")
        assert code == EXIT_USAGE
        assert "synthesized block weights" in err

    def test_blocks_weight_file_matches_shorthand(self, capsys, tmp_path):
        spec = tmp_path / "blocks.json"
        spec.write_text(json.dumps({"family": "blocks", "j_max": 2}))
        code, from_file, _ = run(capsys, "density", "--weights", f"@{spec}", "--format", "csv")
        assert code == EXIT_OK
        code, from_shorthand, _ = run(capsys, "density", "--weights", "blocks:2", "--format", "csv")
        assert code == EXIT_OK
        assert from_file == from_shorthand

    def test_builds_the_blocks_once(self, capsys, monkeypatch):
        import shiftlab.blocks

        calls = []
        real = shiftlab.blocks.build_blocks

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(shiftlab.blocks, "build_blocks", counted)
        for fmt in ("csv", "json"):
            code, _, _ = run(capsys, "density", "--weights", "blocks:2", "--format", fmt)
            assert code == EXIT_OK
        assert calls == [(2,), (2,)]

    def test_csv_rows_match_per_index_route(self, capsys):
        from block_oracle import density_csv_rows

        build = build_blocks(3)
        # a horizon in the middle of the longest norm run
        runs = norm_runs(build, "backward")
        longest = max(range(len(runs)), key=lambda i: runs[i][1])
        mid = sum(m for _, m in runs[:longest]) + runs[longest][1] // 2
        for vector, taus, kays, n in (("e:-1", None, None, None),
                                      ("e:1", "1/2,1/7,3/5", "2,9,100", 1000),
                                      ("e:-1", "1/2,1/3,1/4", "2,3,4", mid)):
            args = ["density", "--weights", "blocks:3", "--vector", vector, "--format", "csv"]
            args += ["--tau-grid", taus, "--k-grid", kays, "--n", str(n)] if n else []
            code, out, _ = run(capsys, *args)
            assert code == EXIT_OK
            rows = [line.split(",") for line in out.split("\r\n")[1:] if line]
            want = density_csv_rows(
                build, vector, n or build.layout.t_max,
                [Fraction(t) for t in taus.split(",")] if taus else [Fraction(1, j + 1)
                                                                      for j in range(1, 4)],
                [Fraction(K) for K in kays.split(",")] if kays else [Fraction(j + 1)
                                                                      for j in range(1, 4)])
            assert rows == [[str(c) for c in row] for row in want]

    @pytest.mark.parametrize("grids", [None, ("1/4,1/2,3/5", "4,1,5/2")],
                             ids=["default-grids", "thresholds-at-norms"])
    @pytest.mark.parametrize("vector", ["e:-1", "e:1"])
    @pytest.mark.parametrize("where", ["n1", "n2", "run-boundary", "in-longest-run", "t_max"])
    def test_csv_bytes_across_the_cut(self, tmp_path, vector, where, grids):
        # a forked worker makes the rows past n // 2; the file must hold the
        # bytes one process writes from the rows over all runs, and the
        # per-index route's rows
        from block_oracle import density_csv_rows

        build = build_blocks(3)
        t_max = build.layout.t_max
        direction = "backward" if vector == "e:-1" else "forward"
        runs = norm_runs(build, direction)
        ends = list(accumulate(m for _, m in runs))
        longest = max(range(len(runs)), key=lambda i: runs[i][1])
        first = ends[longest] - runs[longest][1] + 1  # the longest run's first n
        n = {"n1": 1, "n2": 2, "run-boundary": 2 * max(e for e in ends if 2 * e <= t_max),
             "in-longest-run": 2 * first + 1, "t_max": t_max}[where]
        if where == "run-boundary":
            assert n // 2 in ends and n // 2 + 1 <= t_max
        if where in ("in-longest-run", "t_max"):
            assert first <= n // 2 < ends[longest]
        taus, kays = grids or ("1/2,1/3,1/4", "2,3,4")
        taus, kays = [Fraction(t) for t in taus.split(",")], [Fraction(K) for K in kays.split(",")]
        assert set(taus + kays) & {v for v, _ in runs}  # a threshold at a norm
        out = tmp_path / "rows.csv"
        args = ["density", "--weights", "blocks:3", "--vector", vector, "--n", str(n),
                "--format", "csv", "--out", str(out)]
        args += ["--tau-grid", grids[0], "--k-grid", grids[1]] if grids else []
        assert main(args) == EXIT_OK
        header = (["n", "norm_log2", "running_average"]
                  + [f"ratio_small({t})" for t in taus] + [f"ratio_large({K})" for K in kays])
        rows = list(_rows(norm_runs(build, direction, n), taus, kays))
        emit(str(tmp_path / "one.csv"), csv_lines(header, rows))
        assert out.read_bytes() == (tmp_path / "one.csv").read_bytes()
        want = density_csv_rows(build, vector, n, taus, kays)
        assert rows == [",".join(map(str, row)) for row in want]


class TestCsvWorker:
    """The density CSV's forked worker never outlives the command: it is
    reaped on success, on a failure of either process and on Ctrl-C; on a
    closed output pipe see test_closed_output_pipe_returns_usage_status.  A
    fork that fails leaves no file open."""

    @staticmethod
    def no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_success(self, capsys):
        code, out, _ = run(capsys, "density", "--weights", "blocks:2", "--format", "csv")
        assert code == EXIT_OK and out.count("\r\n") == 173
        self.no_child_left()

    @pytest.mark.parametrize("side", ["worker", "parent"])
    @pytest.mark.parametrize("error, code, message", [
        (ZeroDivisionError, EXIT_INTERNAL, "internal error"),
        (KeyboardInterrupt, EXIT_USAGE, "Aborted!"),
    ])
    def test_failure(self, capsys, monkeypatch, side, error, code, message):
        # the rows raise only on one side of the cut, n // 2 = 86 at blocks:2
        import shiftlab.density

        real = shiftlab.density._rows

        def rows(runs, taus, kays, start=0):
            for row in real(runs, taus, kays, start):
                if (int(row.split(",")[0]) > 86) == (side == "worker"):
                    raise error
                yield row

        monkeypatch.setattr(shiftlab.density, "_rows", rows)
        got, _, err = run(capsys, "density", "--weights", "blocks:2", "--format", "csv")
        self.no_child_left()
        if side == "worker":  # any failure of the worker is a defect
            code, message = EXIT_INTERNAL, "internal error"
        assert got == code and message in err
        assert ("the CSV worker failed" in err) == (side == "worker")

    def test_fork_fails(self, capsys, monkeypatch):
        # a fork refused by the host is an internal error, not an input
        # error, and the worker's temporary file is closed
        import tempfile

        real, opened = tempfile.TemporaryFile, []

        def temporary_file(*args, **kwargs):
            opened.append(real(*args, **kwargs))
            return opened[-1]

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        monkeypatch.setattr(os, "fork", fork)
        code, out, err = run(capsys, "density", "--weights", "blocks:2", "--format", "csv")
        assert code == EXIT_INTERNAL and "could not fork the CSV worker" in err
        assert out == "" and len(opened) == 1 and opened[0].closed
        self.no_child_left()


class TestHierarchyExitCodes:
    def test_inconclusive_diagnostic_is_not_an_inversion(self, capsys):
        # ae is certified while the basis diagnostic is only Inconclusive at
        # this horizon: unconfirmed, not contradicted
        code, out, _ = run(capsys, "check", "--space", "c0_Z", "--weights", "blocks:2",
                           "--criterion", "hierarchy", "--n-max", "64", "--window", "16",
                           "--m-grid", "1,2,4", "--no-timestamp")
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert rep["ae"]["kind"] == "CertifiedUnbounded"
        assert rep["e_diag"]["kind"] == "Inconclusive"
        assert rep["consistent"] is True and rep["violations"] == []

    def test_bounded_witness_is_an_inversion(self, capsys, monkeypatch):
        # ue certified while ae has a BoundedWitness is a real contradiction;
        # no preset gives one, so the verdict pair is stubbed
        real = criteria.check_criterion

        def stubbed(op, criterion, cfg):
            if criterion == "ue":
                return Verdict("unif-expansive", VerdictKind.CERTIFIED_UNBOUNDED,
                               property_label="a", config=cfg)
            if criterion == "ae":
                return Verdict("avg-expansive", VerdictKind.BOUNDED_WITNESS, branch="none",
                               config=cfg)
            return real(op, criterion, cfg)

        monkeypatch.setattr(criteria, "check_criterion", stubbed)
        code, out, err = run(capsys, "check", "--space", "halfline_Z", "--weights", "constant:2",
                             "--criterion", "hierarchy", "--n-max", "64", "--window", "16",
                             "--m-grid", "1,2,4", "--no-timestamp")
        assert code == 2
        assert "hierarchy audit inconsistent" in err
        rep = json.loads(out)["report"]
        assert rep["ue"]["kind"] == "CertifiedUnbounded"
        assert rep["ae"]["kind"] == "BoundedWitness"
        assert rep["consistent"] is False
        assert rep["violations"] == ["uniform certified but average bounded"]


def _dual_off_by_one(op):
    # the inverse of B_w has weights 1/w_{j+1}; this one reads 1/w_j
    return ShiftOperator("forward", DualWeights(op.weights, 0), op.space)


_grouped_weight = PowerShift.grouped_weight


def _grouped_off_by_one(self, j):
    return _grouped_weight(self, j + 1)


def _conjugacy_missing_w1(op):
    # v_j = 1/(w_1 ... w_j) for j > 0, here with the factor w_1 dropped
    _, _, v = shifts.conjugate_to_unweighted(op)
    w1 = op.weights.value(1)

    def v_bad(j):
        return v(j) * w1 if j > 0 else v(j)

    space = SpaceSpec(ScaledMatrix(op.space.matrix, v_bad), op.space.p)
    return space, ShiftOperator("backward", constant_weights(1), space), v_bad


class TestProps:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "props", "--no-timestamp")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["config"] == {}
        assert sorted(rep["report"]) == ["all_passed", "conjugacy-invariance",
                                         "inversion-orbit-symmetry", "power-lattice"]
        assert rep["report"]["all_passed"] is True

    def test_takes_no_horizon_option(self, capsys):
        code, _, err = run(capsys, "props", "--n-max", "64")
        assert code == EXIT_USAGE
        assert "--n-max" in err

    @pytest.mark.parametrize("law, owner, attr, mutant", [
        ("inversion-orbit-symmetry", algebra, "dual_form", _dual_off_by_one),
        ("power-lattice", PowerShift, "grouped_weight", _grouped_off_by_one),
        ("conjugacy-invariance", algebra, "conjugate_to_unweighted", _conjugacy_missing_w1),
    ], ids=["inversion", "power", "conjugacy"])
    def test_each_law_can_fail(self, capsys, monkeypatch, law, owner, attr, mutant):
        monkeypatch.setattr(owner, attr, mutant)
        code, out, err = run(capsys, "props", "--no-timestamp")
        assert code == EXIT_AUDIT
        assert "closure-law suite failed" in err
        rep = json.loads(out)["report"]
        assert rep["all_passed"] is False
        assert not all(rep[law].values())
        assert all(all(section.values()) for name, section in rep.items()
                   if name not in (law, "all_passed"))


SRC = str(Path(__file__).resolve().parent.parent / "src")
# the console entry, which ends through run(), and main() in a fresh
# interpreter that exits with normal teardown
ENTRIES = {"run": ["-m", "shiftlab.cli"],
           "main": ["-c", "import sys; from shiftlab.cli import main; sys.exit(main())"]}


def _spawn(entry: str, *args, **kwargs):
    # stdout on a pipe block-buffered, as it is unless PYTHONUNBUFFERED is set
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.Popen([sys.executable, *ENTRIES[entry], *args],
                            env=env | {"PYTHONPATH": SRC}, **kwargs)


class TestRun:
    """python -m shiftlab.cli ends without interpreter teardown once its output
    is flushed; it must give what main() gives."""

    @staticmethod
    def console(*args):
        proc = _spawn("run", *args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        return proc.returncode, out.decode(), err.decode()

    @pytest.mark.parametrize("args, code", [
        # a report golden (tests/test_report_goldens.py)
        (("check", "--space", "c0_Z", "--weights", "blocks:2", "--side", "forward",
          "--criterion", "ue", "--n-max", "64", "--window", "16", "--m-grid", "1,2,4",
          "--no-timestamp"), EXIT_OK),
        (("check", "--space", "nowhere", "--weights", "constant:2"), EXIT_USAGE),
    ], ids=["golden", "input-error"])
    def test_stdout_stderr_and_exit(self, capsys, args, code):
        want = run(capsys, *args)
        assert want[0] == code
        assert self.console(*args) == want

    def test_files(self, capsys, tmp_path):
        written = []
        for side in ("console", "main"):
            paths = (tmp_path / f"{side}.json", tmp_path / f"{side}-weights.json")
            args = ("synthesize", "--blocks", "2", "--out", str(paths[0]),
                    "--weights-out", str(paths[1]), "--no-timestamp")
            code, out, err = self.console(*args) if side == "console" else run(capsys, *args)
            assert (code, out, err) == (EXIT_OK, "", "")
            written.append([path.read_bytes() for path in paths])
        assert written[0] == written[1]

    @pytest.mark.parametrize("args, read", [
        # a pipe holds 64 KiB, so a write inside main fails
        (("density", "--weights", "blocks:3", "--format", "csv"), 1),
        # the report fits the stdout buffer, so the flush inside main fails
        (("density", "--weights", "blocks:1", "--format", "csv"), 0),
        (("orbit", "--space", "c0_Z", "--weights", "constant:1", "--n", "0:3"), 0),
        # the closed pipe comes before the audit failure (exit 2)
        (("synthesize", "--blocks", "1"), 0),
        # argparse's text, flushed inside main as a report is
        (("--help",), 0),
        (("--version",), 0),
        (("density", "--help"), 0),
    ], ids=["report-over-64KiB", "report-in-the-buffer", "orbit-csv", "synthesize", "help",
            "version", "density-help"])
    def test_closed_stdout(self, args, read):
        # exit 1 and nothing on stderr, in every format and through both entries
        for entry in ENTRIES:
            # the with block closes stderr as well
            with _spawn(entry, *args, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
                proc.stdout.read(read)
                proc.stdout.close()
                err = proc.stderr.read()
                assert (proc.wait(timeout=120), err) == (EXIT_USAGE, b"")

    def test_closed_stdout_under_a_buffered_json_report(self):
        # the report is flushed inside main, which then drops what stdout
        # still holds, so the flush at exit cannot fail: exit 1, quietly
        args = ("orbit", "--space", "c0_Z", "--weights", "constant:1", "--n", "0:1",
                "--format", "json")
        for entry in ENTRIES:
            with _spawn(entry, *args, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
                proc.stdout.close()
                err = proc.stderr.read()
                assert (proc.wait(timeout=120), err) == (EXIT_USAGE, b"")


# the child runs a small check through the console entry and, as it ends,
# prints its thread count and its OPENBLAS_NUM_THREADS on stderr
THREADS_PROBE = """
import os, sys
import shiftlab.cli

def _exit(code, _exit=os._exit):
    status = open("/proc/self/status").read().splitlines()
    threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
    sys.stderr.write(f"{threads} {os.environ.get('OPENBLAS_NUM_THREADS')}")
    sys.stderr.flush()
    _exit(code)

os._exit = _exit
sys.argv[1:] = ["check", "--space", "lp_Z:2", "--weights", "constant:2", "--n-max", "20",
                "--k-max", "1", "--no-timestamp"]
shiftlab.cli.run()
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("setting", [None, "2"])
def test_console_entry_starts_no_blas_thread(setting):
    # run defaults numpy's BLAS to one thread, which the package never calls,
    # so a check is one thread; a value the user set is kept
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env |= {"PYTHONPATH": SRC} | ({} if setting is None else {"OPENBLAS_NUM_THREADS": setting})
    proc = subprocess.run([sys.executable, "-c", THREADS_PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == EXIT_OK
    threads, blas = proc.stderr.split()
    assert blas == (setting or "1")
    assert setting is not None or threads == "1"


def test_closed_output_pipe_returns_usage_status(monkeypatch):
    # main answers a closed output pipe (EPIPE) with exit 1
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def writelines(self, lines):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["density", "--weights", "blocks:2", "--format", "csv"]) == EXIT_USAGE
    TestCsvWorker.no_child_left()  # the CSV worker was killed and reaped


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == EXIT_OK


_ORBIT = ("orbit", "--space", "s_Z", "--weights", "constant:1", "--k", "1:1")


ARGV_CASES = [
    # a value that starts with '-' is a value, not an option
    ((*_ORBIT, "--n", "-50:50"), EXIT_OK, ()),
    ((*_ORBIT, "--n=-2:2"), EXIT_OK, ()),
    (("check", "--space", "lp_Z:2", "--weights", "constant:2", "--m-grid", "-4,2"),
     EXIT_USAGE, ("m_grid", "-4")),
    (("density", "--weights", "blocks:2", "--n", "-5"), EXIT_USAGE, ("--n", "-5")),
    (("synthesize", "--blocks", "0"), EXIT_USAGE, ("--blocks", "0")),
    (("synthesize", "--blocks", "6"), EXIT_USAGE, ("--blocks", "6")),
    (("synthesize", "--blocks", "x"), EXIT_USAGE, ("--blocks", "'x'")),
    (("synthesize", "--t-range", "-3"), EXIT_USAGE, ("--t-range", "-3")),
    (("check", "--space", "lp_Z:2", "--weights", "constant:2", "--n-max", "x"),
     EXIT_USAGE, ("--n-max", "'x'")),
    (("check", "--space", "lp_Z:2", "--weights", "constant:2", "--criterion", "be"),
     EXIT_USAGE, ("--criterion", "'be'")),
    (("check", "--weights", "constant:2"), EXIT_USAGE, ("--space",)),
    (("synthesize", "--blocks"), EXIT_USAGE, ("--blocks",)),
    # no abbreviations, no -h, no extra words
    (("synthesize", "--no-time"), EXIT_USAGE, ("--no-time",)),
    (("synthesize", "--bogus", "3"), EXIT_USAGE, ("--bogus 3",)),
    (("synthesize", "-h"), EXIT_USAGE, ("-h",)),
    (("props", "extra"), EXIT_USAGE, ("extra",)),
    (("nope",), EXIT_USAGE, ("'nope'",)),
    ((), EXIT_USAGE, ("check,synthesize,orbit,density,props",)),
    (("--help",), EXIT_OK, ("usage: shiftlab", "synthesize")),
    (("density", "--help"), EXIT_OK, ("usage: shiftlab density", "--tau-grid")),
    (("--version",), EXIT_OK, (__version__,)),
]


@pytest.mark.parametrize("args, code, needles", ARGV_CASES,
                         ids=[" ".join(args) or "(no words)" for args, _, _ in ARGV_CASES])
def test_argv_edge_cases(capsys, args, code, needles):
    # errors name the option and the value on stderr; --help and --version
    # write to stdout; a parse error is never argparse's own status 2,
    # which is EXIT_AUDIT here
    got, out, err = run(capsys, *args)
    assert got == code != EXIT_AUDIT
    if code == EXIT_OK:
        assert err == "" and all(needle in out for needle in needles)
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert all(needle in err for needle in needles)


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import shiftlab.cli
added = set(sys.modules) - before
print(sorted(name for name in added
             if name.partition(".")[0] not in sys.stdlib_module_names | {"shiftlab"}))
"""


def test_cli_import_loads_only_the_standard_library():
    # a diff, so that modules a site hook preloads (a .pth file) do not count
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                         check=True, env=os.environ | {"PYTHONPATH": SRC}).stdout
    assert out == "[]\n"
