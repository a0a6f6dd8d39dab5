"""CLI (`lotos-pg`) tests."""

import pytest

from repro.cli import main

SERVICE = """SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit) END
ENDSPEC
"""


@pytest.fixture()
def service_file(tmp_path):
    path = tmp_path / "service.lotos"
    path.write_text(SERVICE)
    return str(path)


class TestCli:
    def test_derive_all_places(self, service_file, capsys):
        assert main([service_file]) == 0
        out = capsys.readouterr().out
        assert "place 1" in out and "place 2" in out and "place 3" in out
        assert "PROC S" in out

    def test_single_place(self, service_file, capsys):
        assert main([service_file, "--place", "2"]) == 0
        out = capsys.readouterr().out
        assert "place 2" in out and "place 1" not in out

    def test_unknown_place_fails(self, service_file, capsys):
        assert main([service_file, "--place", "7"]) == 1

    def test_attributes(self, service_file, capsys):
        assert main([service_file, "--attributes"]) == 0
        out = capsys.readouterr().out
        assert "ALL = [1, 2, 3]" in out
        assert "process S: SP=[1] EP=[3] AP=[1, 2, 3]" in out

    def test_complexity(self, service_file, capsys):
        assert main([service_file, "--complexity"]) == 0
        out = capsys.readouterr().out
        assert "Message complexity" in out

    def test_runs(self, service_file, capsys):
        assert main([service_file, "--run", "2"]) == 0
        out = capsys.readouterr().out
        assert "seed 0" in out and "seed 1" in out

    def test_verify_finite(self, tmp_path, capsys):
        path = tmp_path / "finite.lotos"
        path.write_text("SPEC a1; exit >> b2; exit ENDSPEC")
        assert main([str(path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out

    def test_raw_output_contains_empty(self, service_file, capsys):
        assert main([service_file, "--raw", "--place", "1"]) == 0
        out = capsys.readouterr().out
        assert "empty" in out

    def test_full_messages(self, tmp_path, capsys):
        path = tmp_path / "finite.lotos"
        path.write_text("SPEC a1; exit >> b2; exit ENDSPEC")
        assert main([str(path), "--full-messages"]) == 0
        out = capsys.readouterr().out
        assert "s2(s," in out

    def test_restriction_violation_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.lotos"
        path.write_text("SPEC a1; b2; exit [] c2; b2; exit ENDSPEC")
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "R1" in err

    def test_lenient_mode_warns(self, tmp_path, capsys):
        path = tmp_path / "bad.lotos"
        path.write_text("SPEC a1; b2; exit [] c2; b2; exit ENDSPEC")
        assert main([str(path), "--lenient"]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "place 1" in captured.out

    def test_naive_mode(self, tmp_path, capsys):
        path = tmp_path / "finite.lotos"
        path.write_text("SPEC a1; exit >> b2; exit ENDSPEC")
        assert main([str(path), "--naive"]) == 0
        out = capsys.readouterr().out
        assert "s2(" not in out

    def test_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("SPEC a1; b2; exit ENDSPEC"))
        assert main(["-"]) == 0
        assert "place 2" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/spec.lotos"]) == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.lotos"
        path.write_text("SPEC a1 exit ENDSPEC")
        assert main([str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestCliExtensions:
    def test_msc(self, service_file, capsys):
        assert main([service_file, "--msc"]) == 0
        out = capsys.readouterr().out
        assert "Message sequence chart" in out

    def test_analyze(self, service_file, capsys):
        assert main([service_file, "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "deadlocks" in out

    def test_dot_tree(self, service_file, capsys):
        assert main([service_file, "--dot", "tree"]) == 0
        out = capsys.readouterr().out
        assert "digraph derivation_tree" in out
        assert "SP={1,3}" in out

    def test_dot_lts(self, tmp_path, capsys):
        path = tmp_path / "finite.lotos"
        path.write_text("SPEC a1; b2; exit ENDSPEC")
        assert main([str(path), "--dot", "lts"]) == 0
        out = capsys.readouterr().out
        assert "digraph lts" in out

    def test_mixed_choice_flag(self, tmp_path, capsys):
        path = tmp_path / "mixed.lotos"
        path.write_text("SPEC (a1; x3; exit) [] (b2; y3; exit) ENDSPEC")
        assert main([str(path)]) == 1  # rejected without the flag
        capsys.readouterr()
        assert main([str(path), "--mixed-choice"]) == 0
        out = capsys.readouterr().out
        assert "grant" in out

    def test_raw_output_honours_mixed_choice(self, tmp_path, capsys):
        path = tmp_path / "mixed.lotos"
        path.write_text("SPEC (a1; b3; exit) [] (c2; d3; exit) ENDSPEC")
        argv = [str(path), "--mixed-choice", "--place", "1"]
        assert main(argv + ["--raw"]) == 0
        raw = capsys.readouterr().out
        # the arbiter protocol, not the rule-14 notifications s2(2)/r2(5)
        for message in ("r2(req,1)", "s2(deny,1)", "s2(grant,1)", "empty"):
            assert message in raw
        assert "s2(2)" not in raw and "r2(5)" not in raw
        assert main(argv) == 0
        simplified = capsys.readouterr().out
        assert "s2(grant,1)" in simplified and "empty" not in simplified

    def test_parameters_flag(self, tmp_path, capsys):
        path = tmp_path / "params.lotos"
        path.write_text("SPEC read1(rec); push2(rec); exit ENDSPEC")
        assert main([str(path), "--parameters"]) == 0
        out = capsys.readouterr().out
        assert "carries [rec]" in out
