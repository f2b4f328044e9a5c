import json
from pathlib import Path

import pytest

from manlp import engine, uniqueness
from manlp.cli import main
from conftest import PROGRAMS

EX1 = str(PROGRAMS / "unit_basic.mnlp")
EX3 = str(PROGRAMS / "unit_two_stable.mnlp")
CERT = str(PROGRAMS / "interval_certified.mnlp")


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def interp_ex1(tmp_path):
    return write_json(tmp_path / "I.json", {"p": 0.5, "q": 0.7, "r": 0.4})


@pytest.fixture
def interp_m(tmp_path):
    return write_json(tmp_path / "M.json", {"p": 0.4, "q": 0.4, "s": 0.5, "t": 0.6})


class TestCheckModel:
    def test_model_yes(self, capsys, interp_ex1):
        assert main(["check-model", EX1, "--interp", interp_ex1]) == 0
        out = capsys.readouterr().out
        assert "model: yes" in out
        assert "0.8333333333" in out

    def test_model_no(self, capsys, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"p": 0.5, "q": 0.5, "r": 0.4})
        assert main(["check-model", EX1, "--interp", bad]) == 1
        assert "model: no" in capsys.readouterr().out

    def test_json_report(self, tmp_path, interp_ex1):
        out = tmp_path / "report.json"
        main(["check-model", EX1, "--interp", interp_ex1, "--json", str(out)])
        doc = json.loads(out.read_text())
        assert doc["verdict"] is True
        assert doc["command"] == "check-model"
        assert len(doc["rules"]) == 3


class TestTp:
    def test_single_application(self, capsys, tmp_path):
        bot = write_json(tmp_path / "bot.json", {"p": 0, "q": 0, "r": 0})
        assert main(["tp", EX1, "--interp", bot]) == 0
        out = capsys.readouterr().out
        assert "q" in out and "0.6" in out  # the fact fires from bottom

    def test_iterate_trace(self, capsys, tmp_path):
        bot = write_json(tmp_path / "bot.json", {"p": 0, "q": 0, "s": 0, "t": 0})
        ret = main(["tp", EX3, "--iterate", "--interp", bot])
        out = capsys.readouterr().out
        assert "iter" in out
        assert ret in (0, 3)

    def test_iterate_on_certified(self, capsys, tmp_path):
        bot = write_json(
            tmp_path / "bot.json", {s: [0, 0] for s in ("p", "q", "s", "t")}
        )
        assert main(["tp", CERT, "--iterate", "--interp", bot]) == 0
        assert "converged: yes" in capsys.readouterr().out


class TestReduct:
    def test_rendered_reduct_reparses(self, capsys, interp_m, tmp_path):
        assert main(["reduct", EX3, "--interp", interp_m]) == 0
        text = capsys.readouterr().out
        from manlp import LatticeKind, parse_program

        prog = parse_program(text, LatticeKind.UNIT)
        assert prog.is_positive()
        assert len(prog.rules) == 6


class TestStable:
    def test_check_yes(self, capsys, interp_m):
        assert main(["stable", EX3, "--check", interp_m]) == 0
        assert "stable: yes" in capsys.readouterr().out

    def test_check_keeps_no_trace(self, capsys, interp_m, monkeypatch):
        # the verdict needs only the last iterate of lfp(P_I), so no iterate
        # becomes an Interpretation
        build, built = engine._interpretation, []
        monkeypatch.setattr(engine, "_interpretation", lambda *args: built.append(args) or build(*args))
        assert main(["stable", EX3, "--check", interp_m]) == 0
        assert built == []

    def test_check_no(self, capsys, tmp_path):
        bot = write_json(tmp_path / "bot.json", {"p": 0, "q": 0, "s": 0, "t": 0})
        assert main(["stable", EX3, "--check", bot]) == 1
        assert "stable: no" in capsys.readouterr().out

    def test_search_finds_models(self, capsys):
        assert main(["stable", EX3, "--search"]) == 0
        out = capsys.readouterr().out
        assert "stable model(s)" in out

    def test_search_roundtrips_through_check(self, tmp_path, capsys):
        report = tmp_path / "search.json"
        assert main(["stable", EX3, "--search", "--json", str(report)]) == 0
        capsys.readouterr()
        doc = json.loads(report.read_text())
        assert doc["models"]
        for i, model in enumerate(doc["models"]):
            interp = write_json(tmp_path / f"m{i}.json", model)
            assert main(["stable", EX3, "--check", interp]) == 0
            capsys.readouterr()

    def test_search_reports_rejected_limits(self, tmp_path, capsys):
        # a coarse tolerance lets every start settle on a point that is not
        # within the stability check's 1e-7 of its reduct's fixpoint
        report = tmp_path / "r.json"
        assert main(["stable", EX3, "--search", "--tol", "0.5", "--json", str(report)]) == 3
        assert "0 start(s) did not converge; 10 limit(s) failed the stability check" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["rejected_limits"] == 10
        assert doc["nonconverged_starts"] == 0

    def test_search_budget_counts_as_nonconverged(self, tmp_path, capsys):
        # with a one-step budget no lfp(P_I) converges, so no start does
        report = tmp_path / "r.json"
        assert main(["stable", EX1, "--search", "--max", "1", "--json", str(report)]) == 3
        assert "10 start(s) did not converge; 0 limit(s) failed the stability check" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["nonconverged_starts"] == 10
        assert doc["rejected_limits"] == 0

    def test_brute_clusters(self, capsys):
        assert main(["stable", EX3, "--brute", "10"]) == 0
        out = capsys.readouterr().out
        assert "clusters at resolution 10: 1" in out

    def test_brute_budget_exit_code(self, capsys):
        assert main(["stable", EX3, "--brute", "200"]) == 3

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        report = tmp_path / "r.json"
        monkeypatch.setenv("MANLP_SEED", "17")
        main(["stable", EX3, "--search", "--seed", "3", "--json", str(report)])
        capsys.readouterr()
        assert json.loads(report.read_text())["seed"] == 17

    def test_byte_identical_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["stable", EX3, "--search", "--seed", "4", "--json", str(a)])
        main(["stable", EX3, "--search", "--seed", "4", "--json", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestCert:
    def test_certified_with_solve(self, capsys, tmp_path):
        report = tmp_path / "cert.json"
        assert main(["cert", CERT, "--solve", "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "unique stable model guaranteed" in out
        assert "[0.05488,0.405]" in out
        doc = json.loads(report.read_text())
        assert doc["certificate"]["verdict"] is True
        assert doc["certificate"]["global_lipschitz"] == pytest.approx(0.9)
        assert doc["model"]["p"] == [0.7, 0.9]

    def test_solve_certifies_once(self, capsys, monkeypatch):
        check = uniqueness.eligibility_violations
        calls = []

        def counting(program):
            calls.append(program)
            return check(program)

        monkeypatch.setattr(uniqueness, "eligibility_violations", counting)
        assert main(["cert", CERT, "--solve"]) == 0
        assert len(calls) == 1

    def test_ineligible_program(self, capsys):
        assert main(["cert", EX1]) == 1
        assert "does not apply" in capsys.readouterr().out

    def test_uncertified_interval_program(self, tmp_path, capsys):
        path = tmp_path / "loop.mnlp"
        path.write_text("p <-ei(1,1,1,1) not p ; [1,1]\n")
        assert main(["cert", str(path)]) == 1
        assert "not certified" in capsys.readouterr().out

    def test_solve_budget_exit_3(self, capsys):
        assert main(["cert", CERT, "--solve", "--max", "1"]) == 3
        err = capsys.readouterr().err
        assert "did not converge" in err


class TestErrors:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mnlp"
        bad.write_text("p <-G not q &G ; 0.5\n")
        assert main(["tp", str(bad), "--interp", "unused.json"]) == 2
        err = capsys.readouterr().err
        assert "1:" in err  # line:col position

    def test_missing_file_exit_2(self):
        assert main(["cert", "no_such_file.mnlp"]) == 2

    def test_usage_error_exit_2(self):
        assert main(["no-such-command"]) == 2

    def test_deep_body_exit_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.mnlp"
        body = " &P ".join(f"a{i}" for i in range(1500))
        deep.write_text(f"h <-P {body} ; 0.5\n")
        assert main(["tp", str(deep), "--interp", "unused.json"]) == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        ["p <-G \u00e9 ; 0.5\n", "p <-G q ; \u00b2\n", "p <-G q ; \u0660.5\n"],
        ids=["letter", "superscript", "arabic_indic_zero"],
    )
    def test_non_ascii_exit_2(self, tmp_path, capsys, text):
        # exit 1 would read as "not stable" or "not certified"
        path = tmp_path / "bad.mnlp"
        path.write_text(text, encoding="utf-8")
        for command in (["stable", str(path)], ["cert", str(path)]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "parse error: 1:" in err
            assert "Traceback" not in err

    def test_overlong_exponent_exit_2(self, tmp_path, capsys):
        path = tmp_path / "long.mnlp"
        path.write_text(f"p <-ei({'1' * 5000},1,1,1) q ; [0.1,0.2]\n")
        assert main(["cert", str(path)]) == 2
        err = capsys.readouterr().err
        assert "parse error: 1:" in err
        assert "Traceback" not in err

    def test_interp_mismatch_exit_2(self, tmp_path):
        bad = write_json(tmp_path / "short.json", {"p": 0.5})
        assert main(["check-model", EX1, "--interp", bad]) == 2

    @pytest.mark.parametrize("data", [["p", "q", "r"], 5])
    @pytest.mark.parametrize("command", [["check-model", EX1, "--interp"], ["stable", EX1, "--check"]])
    def test_non_object_interp_exit_2(self, tmp_path, capsys, command, data):
        # exit 1 would read as a verdict ("not a model", "not stable")
        path = write_json(tmp_path / "I.json", data)
        assert main(command + [path]) == 2
        err = capsys.readouterr().err
        assert "must be a JSON object" in err
