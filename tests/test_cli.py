import json
from pathlib import Path

import jsonschema
import pytest

from limitseries import cli, horace
from limitseries.cli import main
from limitseries.errors import DivisionWitnessFailure
from limitseries.horace import build_nagata_plan

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "limitseries" / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


PLAN_OK = {
    "shapes": [[2, 1]],
    "speeds": [2],
    "levels": [3, 1],
    "model": {"degree": 4, "line_base_degrees": [4, 2]},
    "scene": {"divisor_base": [2, 2], "prime": 1000003, "seed": 11},
}


def replaced(plan, section, **fields):
    return dict(plan, **{section: dict(plan[section], **fields)})


MALFORMED_SHORT_BASE = replaced(PLAN_OK, "model", line_base_degrees=[4])

# plan files that break plan.schema.json
MALFORMED = {
    "top-level array": [PLAN_OK],
    "model list": dict(PLAN_OK, model=[4]),
    "scene list": dict(PLAN_OK, scene=[1]),
    "speeds integer": dict(PLAN_OK, speeds=2),
    "ambient_base nested": replaced(PLAN_OK, "scene", ambient_base=[[1]]),
    "ambient_base negative": replaced(PLAN_OK, "scene", ambient_base=[-2]),
    "divisor_base zero": replaced(PLAN_OK, "scene", divisor_base=[0]),
    "prime string": replaced(PLAN_OK, "scene", prime="7"),
    "seed float": replaced(PLAN_OK, "scene", seed=1.5),
    "degree string": replaced(PLAN_OK, "model", degree="4"),
    "degree float": replaced(PLAN_OK, "model", degree=4.5),
    "degree negative": replaced(PLAN_OK, "model", degree=-1),
    "shape without heights": dict(PLAN_OK, shapes=[{"dim": 2}]),
    "shape height float": dict(PLAN_OK, shapes=[{"dim": 2,
                                                 "heights": [[0, 2.7]]}]),
    "shape dim float": dict(PLAN_OK, shapes=[{"dim": 2.5,
                                              "heights": [[0, 2]]}]),
    "no shapes": dict(PLAN_OK, shapes=[]),
    "levels missing": {k: v for k, v in PLAN_OK.items() if k != "levels"},
}

MODES = [(), ("--verify-limit",), ("--oracle", "--verify-limit")]

PLAN_GAP = {
    "shapes": [[2, 1], [2, 1]],
    "speeds": [2, 3],
    "levels": [7, 5],
    "model": {"degree": 5, "line_base_degrees": [4, 2]},
}


class TestStaircaseCommand:
    def test_suppress(self, capsys):
        code, out, _ = run(capsys, "staircase", "suppress",
                           "--heights", "3,2,1", "--t", "1")
        assert code == 0
        assert out.strip() == "2,1,1"

    def test_collide(self, capsys):
        code, out, _ = run(capsys, "staircase", "collide",
                           "--a", "2,1", "--b", "1,1")
        assert code == 0
        assert out.strip() == "2,1,1,1"

    def test_monotonicity_error_exit_2(self, capsys):
        code, _, err = run(capsys, "staircase", "suppress",
                           "--heights", "1,2", "--t", "0")
        assert code == 2
        assert "exceeds" in err

    def test_json_output_validates(self, capsys):
        code, out, _ = run(capsys, "staircase", "suppress",
                           "--heights", "3,2,1", "--t", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload["result"], load_schema("staircase.schema.json"))

    def test_slice(self, capsys):
        code, out, _ = run(capsys, "staircase", "slice",
                           "--heights", "3,2,1", "--k", "0")
        assert code == 0
        assert out.strip() == "3"

    def test_check(self, capsys):
        code, out, _ = run(capsys, "staircase", "check",
                           "--heights", "3,2,1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["quasi_regular"] and data["right_specialized"]

    def test_file_input_text_format(self, tmp_path, capsys):
        f = tmp_path / "st.txt"
        f.write_text("0:3\n1:2\n2:1\n")
        code, out, _ = run(capsys, "staircase", "suppress",
                           "--file", str(f), "--t", "1")
        assert code == 0 and out.strip() == "2,1,1"

    def test_file_input_json_format(self, tmp_path, capsys):
        f = tmp_path / "st.json"
        f.write_text('{"dim": 2, "heights": [[0, 2], [1, 1]]}')
        code, out, _ = run(capsys, "staircase", "check", "--file", str(f),
                           "--json")
        assert code == 0
        assert json.loads(out)["degree"] == 3

    @pytest.mark.parametrize("text", [
        '{"dim": 2, "heights": [[0, 2.7], [1, 1]]}',
        '{"dim": 2.9, "heights": [[0, 2], [1, 1]]}',
        '{"dim": 2, "heights": [[0.5, 2], [1, 1]]}',
        '{"dim": 2, "heights": [[0, "2"], [1, 1]]}',
        '{"dim": 2, "heights": [[0, true], [1, 1]]}',
    ])
    def test_file_input_rejects_non_integers(self, tmp_path, capsys, text):
        f = tmp_path / "st.json"
        f.write_text(text)
        code, out, err = run(capsys, "staircase", "check", "--file", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "must be an integer" in err

    @pytest.mark.parametrize("text,field", [
        ('{"dim": 2}', "heights"),
        ('{"heights": []}', "dim"),
        ('{"dim": 2, "heights": 5}', "heights"),
        ('{"dim": 2, "heights": [5]}', "heights"),
        ("[[0, 2]]", "object"),
        ("0:2\n0:1", "line 2: index 0 repeated"),
        ("0:2:3", "line 1"),
        ("0:2\n\n5", "line 3"),
    ])
    def test_file_input_rejects_malformed_fields(self, tmp_path, capsys,
                                                 text, field):
        f = tmp_path / "st.txt"
        f.write_text(text)
        code, out, err = run(capsys, "staircase", "check", "--file", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and field in err

    def test_file_input_integral_floats(self, tmp_path, capsys):
        outs = []
        for text in ('{"dim": 2, "heights": [[0, 2], [1, 1]]}',
                     '{"dim": 2.0, "heights": [[0, 2.0], [1.0, 1]]}'):
            f = tmp_path / "st.json"
            f.write_text(text)
            outs.append(run(capsys, "staircase", "check", "--file", str(f),
                            "--json"))
        assert outs[0][0] == 0 and outs[1] == outs[0]

    def test_file_input_rejects_non_monotone(self, tmp_path, capsys):
        f = tmp_path / "st.json"
        f.write_text('{"dim": 2, "heights": [[0, 1], [1, 2]]}')
        code, _, err = run(capsys, "staircase", "check", "--file", str(f))
        assert code == 2

    def test_missing_heights_exit_2(self, capsys):
        code, _, err = run(capsys, "staircase", "check")
        assert code == 2 and "required" in err

    @pytest.mark.parametrize("argv", [("--a", "2,1"), ("--b", "1,1"), ()])
    def test_collide_needs_both_operands_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "staircase", "collide", *argv)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("op,flag", [("slice", "--k"), ("suppress", "--t")])
    def test_negative_index_exit_2(self, capsys, op, flag):
        with pytest.raises(SystemExit) as exc:
            main(["staircase", op, "--heights", "3,2", flag, "-1"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "must be >= 0" in err and "Traceback" not in err


class TestNagataCommand:
    def test_oracle_small(self, capsys):
        code, out, _ = run(capsys, "nagata", "--k", "2", "--m", "1",
                           "--oracle", "--trials", "2", "--seed", "3")
        assert code == 0
        assert "pass: true" in out

    def test_oracle_json_validates(self, capsys):
        code, out, _ = run(capsys, "nagata", "--k", "2", "--m", "2",
                           "--oracle", "--trials", "2", "--seed", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload["oracle"], load_schema("table.schema.json"))

    def test_certificate_json_validates(self, capsys):
        code, out, _ = run(capsys, "nagata", "--k", "4", "--m", "2",
                           "--certificate", "--seed", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload["certificate"],
                            load_schema("certificate.schema.json"))

    def test_certificate_with_refused_replay_validates(self, capsys):
        # the base case, 9 fat points of multiplicity 8, is beyond budget
        code, out, _ = run(capsys, "nagata", "--k", "4", "--m", "8",
                           "--certificate", "--seed", "1", "--json")
        assert code == 0
        cert = json.loads(out)["certificate"]
        jsonschema.validate(cert, load_schema("certificate.schema.json"))
        assert "refused" in cert["base_case"]["oracle_replay"]

    def test_resource_refusal_exit_3(self, capsys):
        code, _, err = run(capsys, "nagata", "--k", "12", "--m", "9",
                           "--oracle")
        assert code == 3
        assert "refusal" in err

    def test_golden_determinism(self, capsys):
        args = ("nagata", "--k", "2", "--m", "2", "--oracle",
                "--trials", "2", "--seed", "7", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_prime2_cross_check(self, capsys):
        code, out, _ = run(capsys, "nagata", "--k", "2", "--m", "1",
                           "--oracle", "--trials", "2", "--seed", "3",
                           "--prime2", str(2**31 - 1), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]["cross_check_agrees"] is True

    def test_invalid_prime_exit_2(self, capsys):
        code, _, err = run(capsys, "nagata", "--k", "2", "--m", "1",
                           "--prime", "91")
        assert code == 2
        assert "not prime" in err

    @pytest.mark.parametrize("argv", [
        ("--k", "0", "--m", "1"),
        ("--k", "2", "--m", "0"),
        ("--k", "2", "--m", "1", "--trials", "0"),
        ("--k", "1", "--m", "1", "--certificate"),
        ("--k", "2", "--m", "1", "--d-max", "-1"),
        ("--k", "2", "--m", "1", "--prime", "3"),
        ("--k", "3", "--m", "2", "--prime", "2"),
        ("--k", "3", "--m", "2", "--certificate", "--prime", "5"),
        ("--k", "4", "--m", "1", "--certificate", "--d-max", "3"),
        ("--k", "4", "--m", "1", "--certificate", "--trials", "2"),
        ("--k", "2", "--m", "1", "--oracle", "--prime2", str(2**62 + 135)),
        ("--k", "2", "--m", "1", "--oracle", "--prime", "1000003",
         "--prime2", "1000003"),
    ])
    def test_out_of_range_arguments_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "nagata", *argv)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("LIMITSERIES_SEED", "7")
        _, with_env, _ = run(capsys, "nagata", "--k", "2", "--m", "1",
                             "--oracle", "--trials", "2", "--json")
        monkeypatch.delenv("LIMITSERIES_SEED")
        _, explicit, _ = run(capsys, "nagata", "--k", "2", "--m", "1",
                             "--oracle", "--trials", "2", "--seed", "7",
                             "--json")
        assert with_env == explicit


class TestLimitCommand:
    def test_valid_plan(self, tmp_path, capsys):
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(PLAN_OK))
        jsonschema.validate(PLAN_OK, load_schema("plan.schema.json"))
        code, out, _ = run(capsys, "limit", str(f), "--verify-limit")
        assert code == 0
        assert "limit inclusion: True" in out

    def test_oracle_run_checks_hypotheses_once(self, tmp_path, capsys,
                                               monkeypatch):
        # a passing run reads its verdicts off the certificate; a refused
        # plan still reports them next to the error
        calls = []
        real = horace.hypothesis_check

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(horace, "hypothesis_check", counted)
        monkeypatch.setattr(cli, "hypothesis_check", counted)
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(PLAN_OK))
        code, out, _ = run(capsys, "limit", str(f), "--oracle",
                           "--verify-limit", "--json")
        assert code == 0 and len(calls) == 1
        payload = json.loads(out)
        assert list(payload) == ["plan", "findings", "verdicts",
                                 "certificate", "limit_inclusion"]
        assert payload["verdicts"] == payload["certificate"]["verdicts"]
        assert all(v["mode"] == "oracle" for v in payload["verdicts"])
        f.write_text(json.dumps(PLAN_GAP))
        code, out, _ = run(capsys, "limit", str(f), "--json")
        payload = json.loads(out)
        assert code == 1
        assert list(payload) == ["plan", "findings", "verdicts", "error"]
        assert [v["level"] for v in payload["verdicts"]] == [1, 2]

    def test_gap_violation_exit_1(self, tmp_path, capsys):
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(PLAN_GAP))
        code, out, _ = run(capsys, "limit", str(f))
        assert code == 1
        assert "GapViolation" in out

    def test_verify_limit_without_scene_exit_2(self, tmp_path, capsys):
        f = tmp_path / "plan.json"
        f.write_text(json.dumps({k: v for k, v in PLAN_OK.items()
                                 if k != "scene"}))
        code, out, err = run(capsys, "limit", str(f), "--verify-limit")
        assert code == 2 and out == ""
        assert err == "error: --verify-limit needs a scene in the plan file\n"

    def test_failed_containment_exit_1(self, tmp_path, capsys, monkeypatch):
        # the payload still carries the limit check's details
        details = {"dim_moving": 3, "dim_limit": 3, "dim_target": 2, "r": 2,
                   "residual": [], "contained": False}
        monkeypatch.setattr(cli, "limit_inclusion_check",
                            lambda *args, **kwargs: (False, details))
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(PLAN_OK))
        code, out, err = run(capsys, "limit", str(f), "--verify-limit",
                             "--json")
        assert code == 1 and err == ""
        assert json.loads(out)["limit_inclusion"] == details
        code, out, err = run(capsys, "limit", str(f), "--verify-limit")
        assert code == 1 and err == ""
        assert "limit inclusion: False (dim limit 3, target 2)" in out

    def test_other_library_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise DivisionWitnessFailure("t^0 coefficient 5 did not vanish")

        monkeypatch.setattr(cli, "limit_inclusion_check", fail)
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(PLAN_OK))
        code, out, err = run(capsys, "limit", str(f), "--verify-limit")
        assert code == 1 and out == ""
        assert err == "check failed: t^0 coefficient 5 did not vanish\n"

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "limit", "/nonexistent/plan.json")
        assert code == 2

    def test_malformed_plan_exit_2(self, tmp_path, capsys):
        f = tmp_path / "plan.json"
        f.write_text("{\"shapes\": [[1, 2]]}")  # non-monotone + missing keys
        code, _, _ = run(capsys, "limit", str(f))
        assert code == 2

    def test_oracle_mode(self, tmp_path, capsys):
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(PLAN_OK))
        code, out, _ = run(capsys, "limit", str(f), "--oracle")
        assert code == 0
        assert "(oracle)" in out

    @pytest.mark.parametrize("divisor_base", [[2, 2], []])
    def test_prime_below_degree_exit_2(self, tmp_path, capsys, divisor_base):
        # with two divisor points F_3 has too few coordinates for the scene;
        # without them the degree-4 conditions need a prime above 4
        plan = dict(PLAN_OK, scene={"divisor_base": divisor_base,
                                    "prime": 3, "seed": 11})
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(plan))
        code, _, err = run(capsys, "limit", str(f), "--verify-limit")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_strong_pseudoprime_scene_exit_2(self, tmp_path, capsys):
        # 399165290221 * 798330580441, a strong pseudoprime to every base
        # up to 37, is below the primality test's bound
        plan = replaced(PLAN_OK, "scene", prime=318665857834031151167461)
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(plan))
        code, _, err = run(capsys, "limit", str(f), "--oracle",
                           "--verify-limit")
        assert code == 2
        assert err.startswith("error: ") and "not prime" in err

    def test_non_prime_scene_refused_in_degree_count_mode(self, tmp_path,
                                                          capsys):
        # the scene checks its prime when it is read, so a plan whose
        # degree count fails before any use of the scene is refused as
        # invalid input too (it used to exit 1 on the failed hypothesis)
        plan = {"shapes": [[2, 1]], "speeds": [1], "levels": [3],
                "model": {"degree": 3, "line_base_degrees": [0]},
                "scene": {"divisor_base": [1], "prime": 91, "seed": 1}}
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(plan))
        code, out, err = run(capsys, "limit", str(f))
        assert (code, out) == (2, "")
        assert err == "error: 91 is not prime\n"

    def test_t_prec_flag_removed(self, tmp_path, capsys):
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(PLAN_OK))
        with pytest.raises(SystemExit) as exc:
            main(["limit", str(f), "--t-prec", "4"])
        assert exc.value.code == 2
        assert "--t-prec" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case,entries", [((6, 4, 1), 126360),
                                              (300, 45451 * 45451)])
    def test_scene_beyond_budget_exit_3(self, tmp_path, capsys, mode, case,
                                        entries):
        if isinstance(case, tuple):
            # a Nagata plan: 360 cells x 351 sections of degree 25
            plan, model = build_nagata_plan(*case)
            data = {"shapes": [E.to_json() for E in plan.shapes],
                    "speeds": list(plan.speeds),
                    "levels": list(plan.levels), "model": model.to_json(),
                    "scene": {"divisor_base": [4] * 6,
                              "ambient_base": [4] * 25,
                              "prime": 1000003, "seed": 1}}
        else:
            # one cell, no scene points: bounded by its kernel basis, ker B
            data = {"shapes": [[1]], "speeds": [1], "levels": [],
                    "model": {"degree": case, "line_base_degrees": []},
                    "scene": {"prime": 1000003, "seed": 1}}
        jsonschema.validate(data, load_schema("plan.schema.json"))
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(data))
        code, out, err = run(capsys, "limit", str(f), *mode)
        assert code == 3
        assert err.startswith("resource refusal: ") and f"{entries}" in err
        assert out == ""

    def test_integral_floats_read_as_integers(self, tmp_path, capsys):
        # draft-07 counts 4.0 as an integer, so the plan file does too
        floats = replaced(PLAN_OK, "model", degree=4.0)
        floats = replaced(floats, "scene", seed=11.0, prime=1000003.0)
        jsonschema.validate(floats, load_schema("plan.schema.json"))
        outs = []
        for data in (PLAN_OK, floats):
            f = tmp_path / "plan.json"
            f.write_text(json.dumps(data))
            outs.append(run(capsys, "limit", str(f), "--oracle",
                            "--verify-limit", "--json"))
        assert outs[0][0] == 0 and outs[1] == outs[0]

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    @pytest.mark.parametrize("mode", MODES)
    def test_malformed_plan_file_exit_2(self, tmp_path, capsys, name, mode):
        data = MALFORMED[name]
        assert not jsonschema.Draft7Validator(
            load_schema("plan.schema.json")).is_valid(data)
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(data))
        code, out, err = run(capsys, "limit", str(f), *mode)
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    def test_short_base_degrees_in_oracle_mode(self, tmp_path, capsys):
        # oracle mode compares dimensions and never reads line_base_degrees
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(MALFORMED_SHORT_BASE))
        code, _, err = run(capsys, "limit", str(f), "--oracle",
                           "--verify-limit")
        assert code == 0, err
        code, _, err = run(capsys, "limit", str(f), "--verify-limit")
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("limit", "plan.json", "--x-cap", "24"),
        ("limit", "plan.json", "--prime", "5"),
        ("limit", "plan.json", "--force"),
        ("staircase", "check", "--heights", "3,2,1", "--prime", "5"),
        ("staircase", "check", "--heights", "3,2,1", "--seed", "1"),
    ])
    def test_unread_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(PLAN_OK))
        target = tmp_path / "out.json"
        code, _, _ = run(capsys, "limit", str(f), "--json",
                         "--output", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["certificate"]["r"] == 2
