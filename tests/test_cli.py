import json
import math
from fractions import Fraction

import pytest

from shiftlab.blocks import build_blocks, hypercyclicity_witness, norm_runs, verify_inequalities
from shiftlab.cli import EXIT_OK, EXIT_USAGE, main
from shiftlab.criteria import HorizonConfig, check_criterion, hierarchy_audit
from shiftlab.density import cesaro_trace, distributional_report
from shiftlab.reporting import canonical_json
from shiftlab.shifts import ShiftOperator, parse_weights, window_check
from shiftlab.spaces import parse_space


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

    @pytest.mark.parametrize("criterion, j", [("ae", -50), ("ape", -50), ("e", -101),
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
        assert {ev["n_eff"] for ev in json.loads(out)["report"]["evidence"]} == {70}

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
        report["upe"] = report["property"] == "a"
    return report


@pytest.mark.parametrize("space", ["c0_Z", "c0_N"])
@pytest.mark.parametrize("side", ["backward", "forward"])
@pytest.mark.parametrize("criterion", CRITERIA)
def test_check_report_matches_public_checker(capsys, space, side, criterion):
    op = ShiftOperator(side, parse_weights("constant:2"), parse_space(space))
    try:
        want = json.loads(canonical_json(_direct_report(op, criterion)))
    except ValueError:  # InvalidSpecError, NotInvertibleError: the checker rejects op
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
        assert code == EXIT_OK
        rep = json.loads(out_file.read_text())
        window = rep["report"]["weights_window"]
        assert [window[str(j)] for j in range(-12, 0)] == [
            "1", "1", "1", "1/4", "1/2", "1/2", "1/2", "1", "2", "2", "2", "2"]
        assert [window[str(j)] for j in range(-17, -12)] == ["1/2", "1/2", "1", "2", "2"]
        assert [window[str(j)] for j in range(2, 14)] == [
            "1/2", "1/2", "1/2", "1/2", "1", "2", "2", "2", "4", "1", "1", "1"]
        layout = rep["report"]["layout"][0]
        assert (layout["a"], layout["b"], layout["s"], layout["t"]) == (12, 5, 12, 17)
        assert rep["report"]["all_passed"] is True
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
        assert "is not in the range 1<=x<=5" in err


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
        # library report; both must stay what the library computes
        build = build_blocks(2)
        code, out, _ = run(capsys, "density", "--weights", "blocks:2", "--vector", vector,
                           "--format", "csv")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.split("\r\n")[1:] if line]
        trace = cesaro_trace(build, name, "op", build.layout.t_max)
        assert len(rows) == build.layout.t_max
        assert [row[2] for row in rows] == [repr(float(trace.value_at(n)))
                                            for n in range(1, len(rows) + 1)]
        code, out, _ = run(capsys, "density", "--weights", "blocks:2", "--vector", vector,
                           "--format", "json", "--no-timestamp")
        assert code == EXIT_OK
        want = json.loads(canonical_json(distributional_report(build, name, [2, 3],
                                                               [Fraction(1, 2), Fraction(1, 3)])))
        assert json.loads(out)["report"] == want

    def test_horizon_past_table_reach_is_input_error(self, capsys, tmp_path):
        # rejected before any output: no CSV header on stdout, no --out file
        out_file = tmp_path / "rows.csv"
        for fmt, message in (("csv", "error: weight table spans [-172, 173], got -173\n"),
                             ("json", "error: horizon 999 exceeds the table reach 172\n")):
            for extra in ((), ("--out", str(out_file))):
                code, out, err = run(capsys, "density", "--weights", "blocks:2", "--n", "999",
                                     "--format", fmt, *extra)
                assert code == EXIT_USAGE
                assert (out, err) == ("", message)
                assert not out_file.exists()


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
        import shiftlab.cli

        calls = []
        real = shiftlab.blocks.build_blocks

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(shiftlab.blocks, "build_blocks", counted)
        monkeypatch.setattr(shiftlab.cli, "build_blocks", counted)
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

    def test_bounded_witness_is_an_inversion(self, capsys):
        # ue certifies while ae has a BoundedWitness: a real contradiction
        code, out, err = run(capsys, "check", "--space", "halfline_Z", "--weights", "constant:2",
                             "--criterion", "hierarchy", "--m-grid", "1,2,4", "--no-timestamp")
        assert code == 2
        assert "hierarchy audit inconsistent" in err
        rep = json.loads(out)["report"]
        assert rep["ue"]["kind"] == "CertifiedUnbounded"
        assert rep["ae"]["kind"] == "BoundedWitness"
        assert rep["consistent"] is False


class TestProps:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "props", "--no-timestamp")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["report"]["all_passed"] is True


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == EXIT_OK
