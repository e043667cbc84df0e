import json

from gotzmann import cli
from gotzmann.cli import main
from gotzmann.core import poly_ring
from support import read_ideal_stanzas


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_gotzmann_in_R(self, capsys):
        code, out, _ = run(capsys, "check", "--ring", "R", "--n", "4", "ab,ac,bd,cd")
        assert code == 0 and "true" in out

    def test_not_gotzmann_in_S(self, capsys):
        code, out, _ = run(capsys, "check", "--ring", "S", "--n", "4", "ab,ac,bd,cd")
        assert code == 0 and "false" in out

    def test_quiet_encodes_boolean(self, capsys):
        code, out, _ = run(capsys, "check", "--ring", "R", "--quiet", "ab,ac,bd,cd")
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "check", "--ring", "S", "--quiet", "ab,ac,bd,cd")
        assert code == 1 and out == ""

    def test_square_in_sixteen_variables(self, capsys):
        # principal, so Gotzmann; S_12 on 16 variables has 17.4M monomials, too many to list
        code, out, _ = run(capsys, "check", "--ring", "S", "--n", "16", "bbbbbbbbbbbb")
        assert code == 0 and out == "Gotzmann: true\n"

    def test_ring_flag_required(self, capsys):
        code, _, _ = run(capsys, "check", "ab,ac")
        assert code == 2

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "check", "--ring", "R", "--json", "ab,ac,bd,cd")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"gens", "ring", "n", "result", "diagnostics"}
        assert payload["ring"] == "R" and payload["n"] == 4
        assert payload["result"] is True

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "check", "--ring", "R", "ab,,zz")
        assert code == 2 and "error" in err

    def test_empty_ideal_is_usage_error(self, capsys):
        for text in ("", " ", "()"):
            code, out, err = run(capsys, "check", "--ring", "R", text)
            assert code == 2 and out == ""
            assert "write 0 for the zero ideal" in err
        code, out, _ = run(capsys, "check", "--ring", "R", "(0)")
        assert code == 0 and "true" in out

    def test_unknown_indexed_variable_named_whole(self, capsys):
        for token in ("x0", "x01", "x17"):
            code, out, err = run(capsys, "check", "--ring", "S", token)
            assert code == 2 and out == ""
            assert f"unknown variable {token!r}" in err

    def test_indexed_variables_without_star(self, capsys):
        for argv, token, fix in [(("--n", "3", "x1x2"), "x1x2", "x1*x2"),
                                 (("x1x12x3,ab",), "x1x12x3", "x1*x12*x3")]:
            code, out, err = run(capsys, "check", "--ring", "S", *argv)
            assert code == 2 and out == ""
            assert f"unknown variable {token!r}" in err
            assert "joined by '*'" in err and fix in err
        code, out, _ = run(capsys, "check", "--ring", "S", "--n", "3", "x1*x2")
        assert code == 0 and "true" in out


class TestClassify:
    def test_star(self, capsys):
        code, out, _ = run(capsys, "classify", "ab,ac,ad")
        assert code == 0 and out.strip() == "a*(b,c,d)"

    def test_strip_and_recurse(self, capsys):
        code, out, _ = run(capsys, "classify", "a,bc")
        assert code == 0 and out.strip() == "(a) + b*(c)"

    def test_not_gotzmann(self, capsys):
        code, out, _ = run(capsys, "classify", "ab,ac,bc")
        assert code == 1 and "not a supernova" in out
        code, out, _ = run(capsys, "classify", "--quiet", "ab,ac,bc")
        assert code == 1 and out == ""
        code, out, _ = run(capsys, "classify", "--quiet", "a,bc")
        assert code == 0 and out == ""

    def test_not_gotzmann_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--json", "ab,ac,bc")
        assert code == 1
        payload = json.loads(out)
        assert set(payload) == {"gens", "ring", "n", "result", "diagnostics"}
        assert payload["gens"] == ["ab", "ac", "bc"] and payload["result"] is None


class TestSquareInInput:
    """A monomial with a square where the command needs a squarefree one exits 2,
    and the message names the input as written."""

    def test_square_named_as_written(self, capsys):
        cases = [(("check", "--ring", "R", "aa"), "aa"),
                 (("check", "--ring", "R", "ab, x1*x1"), "x1*x1"),
                 (("dual", "b,cc"), "cc"),
                 (("lexify", "a*a"), "a*a"),
                 (("decompose", "--var", "a", "--n", "2", "aa"), "aa"),
                 (("compress", "--var", "a", "ab,bb"), "bb")]
        for argv, token in cases:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: monomial {token!r} is not squarefree\n", argv

    def test_lexify_in_S_needs_a_squarefree_ideal(self, capsys):
        code, out, err = run(capsys, "lexify", "--ring", "S", "a*a")
        assert (code, out) == (2, "")
        assert err == "error: lexification needs a squarefree ideal\n"


class TestLexifyAndDual:
    def test_lexify(self, capsys):
        code, out, _ = run(capsys, "lexify", "--n", "4", "ab,ac,bd,cd")
        assert code == 0 and out.strip() == "ab, ac, ad, bc"

    def test_dual(self, capsys):
        code, out, _ = run(capsys, "dual", "--n", "4", "ab,ac,bd,cd")
        assert code == 0 and out.strip() == "ad, bc"


class TestDecomposeAndCompress:
    def test_decompose_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "--var", "a", "--n", "4", "ab,ac,bd,cd")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["vhat"] == ["bd", "cd"]
        assert payload["result"]["vxi"] == ["b", "c"]
        assert payload["diagnostics"]["dim_vhat"] == 2

    def test_compress_reports_growth(self, capsys):
        code, out, _ = run(capsys, "compress", "--var", "a", "--order", "bcd",
                           "--n", "4", "ab,ac,bd,cd")
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["result"]) == ["ab", "ac", "bc", "bd"]
        assert payload["diagnostics"]["growth_equality_holds"] is True

    def test_empty_order(self, capsys):
        code, out, err = run(capsys, "compress", "--var", "a", "--order", "", "--n", "3", "b,c")
        assert code == 2 and out == ""
        assert "order '' is not a permutation of all variables" in err
        # with no variable left besides a, the empty order is the only order
        code, out, _ = run(capsys, "compress", "--var", "a", "--order", "", "--n", "1", "a")
        assert code == 0
        assert json.loads(out)["result"] == ["a"]

    def test_mixed_degrees_rejected(self, capsys):
        code, _, err = run(capsys, "decompose", "--var", "a", "--n", "3", "a,bc")
        assert code == 2
        # ab divides abc: no monomial may be dropped before the degree check
        for command in ("decompose", "compress"):
            code, out, err = run(capsys, command, "--var", "a", "ab,abc")
            assert code == 2 and out == ""
            assert "expected monomials of a single degree" in err

    def test_variable_by_name_position_or_index(self, capsys):
        for command, extra in (("decompose", ()), ("compress", ("--order", "bcd"))):
            reports = set()
            for var in ("a", "x1", "0"):
                code, out, err = run(capsys, command, "--var", var, *extra,
                                     "--n", "4", "x1*x2,x1*x3,x2*x4,x3*x4")
                assert code == 0 and err == ""
                reports.add(out)
            assert len(reports) == 1
        code, out, _ = run(capsys, "decompose", "--var", "x1", "--n", "3", "x1*x2,x2*x3")
        assert code == 0 and json.loads(out)["result"] == {"vhat": ["bc"], "vxi": ["b"]}

    def test_variable_count_inferred_from_var_name(self, capsys):
        self.assert_as_with_n4(capsys, "decompose", "--var", "d", "ab,ac")

    def test_variable_count_inferred_from_var_index(self, capsys):
        self.assert_as_with_n4(capsys, "decompose", "--var", "3", "ab,ac")

    def test_variable_count_inferred_from_order(self, capsys):
        self.assert_as_with_n4(capsys, "compress", "--var", "a", "--order", "bcd", "ab,ac")
        # the order is read in the ring without --var: x3 there is d
        self.assert_as_with_n4(capsys, "compress", "--var", "a", "--order", "x1,x2,x3", "ab,ac")

    @staticmethod
    def assert_as_with_n4(capsys, *argv):
        want = run(capsys, *argv, "--n", "4")
        assert want[0] == 0 and want[2] == ""
        assert run(capsys, *argv) == want

    def test_degree_zero_and_unreadable_order_rejected(self, capsys):
        for argv, message in (
                (("decompose", "--var", "a", "--n", "3", "1"),
                 "decomposition needs degree at least one"),
                (("compress", "--var", "a", "--n", "4", "--order", "bcx", "ab,ac"),
                 "cannot read order 'bcx'")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert message in err

    def test_unknown_variable_rejected(self, capsys):
        for command in ("decompose", "compress"):
            code, out, err = run(capsys, command, "--var", "q", "--n", "3", "ab")
            assert code == 2 and out == ""
            assert "unknown variable 'q'" in err


class TestEnumerateAndCount:
    def test_enumerate_round_trip(self, capsys, tmp_path):
        target = tmp_path / "ideals.txt"
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--output", str(target))
        assert code == 0
        back = read_ideal_stanzas(target.read_text(), poly_ring(3))
        assert len(back) == 19
        assert len({I.gens for I in back}) == 19

    def test_count_table(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "3")
        assert code == 0
        assert [int(line.split()[1]) for line in out.splitlines()[1:]] == [2, 3, 6, 19]

    def test_count_json(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "2", "--format", "json")
        rows = json.loads(out)
        assert [r["egf"] for r in rows] == [2, 3, 6]

    def test_count_csv(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "2", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,")
        assert lines[1].split(",")[1] == "2"

    def test_negative_max_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "count", "--max-n", "-1")
        assert code == 2 and out == "" and "--max-n" in err

    def test_negative_variable_count_is_usage_error(self, capsys):
        for argv in (("check", "--ring", "R", "ab"), ("classify", "ab"), ("lexify", "ab"),
                     ("dual", "ab"), ("decompose", "--var", "a", "ab"),
                     ("compress", "--var", "a", "ab"), ("enumerate",)):
            code, out, err = run(capsys, *argv, "--n", "-1")
            assert code == 2 and out == "" and "argument --n" in err

    def test_count_without_variables(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "0")
        assert code == 0
        assert out == ("  n   ideals      egf    brute     full\n"
                       "  0        2        2        2        2\n")
        code, out, _ = run(capsys, "count", "--max-n", "0", "--format", "csv")
        assert out == "n,enumerated,egf,brute,full_support,full_support_egf\n0,2,2,2,2,2\n"

    def test_size_limit(self, capsys):
        for argv in (("enumerate", "--n", "7"), ("count", "--max-n", "7")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "limited to 6 variables" in err


class TestSeriesAndSelftest:
    def test_series_output(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "gotzmann", "--terms", "5")
        values = [int(line.split()[1]) for line in out.strip().splitlines()]
        assert values == [2, 3, 6, 19, 96, 669]

    def test_series_sized_to_the_terms_asked(self, capsys):
        for name, first in (("osp", 1), ("fullsupport", 2), ("gotzmann", 2)):
            code, out, _ = run(capsys, "series", "--name", name, "--terms", "0")
            assert code == 0 and out == f"0 {first}\n"
            _, full, _ = run(capsys, "series", "--name", name, "--terms", "12")
            for terms in range(10):
                code, out, _ = run(capsys, "series", "--name", name, "--terms", str(terms))
                assert code == 0 and out.splitlines() == full.splitlines()[:terms + 1]

    def test_negative_terms_is_usage_error(self, capsys):
        code, out, err = run(capsys, "series", "--name", "gotzmann", "--terms", "-3")
        assert code == 2 and out == "" and "--terms" in err

    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out


class TestOutOfMemory:
    def test_memory_error_is_one_line_exit_3(self, capsys, monkeypatch):
        # a stand-in command raises MemoryError; no memory is really exhausted
        def exhausted(args):
            raise MemoryError

        for name, argv in (("cmd_check", ("check", "--ring", "S", "a^30,b^60")),
                           ("cmd_count", ("count",))):
            monkeypatch.setattr(cli, name, exhausted)
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and "memory" in err
