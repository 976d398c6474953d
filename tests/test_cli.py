"""The command-line front end: commands, exit codes, corpus regression."""

import json
import os
import shlex
import subprocess
import sys
import time

import pytest

from diffalg import is_hereditary, is_integrable_wnl, is_recursion_for, parse_function
from diffalg.cli import main
from diffalg.corpus import ENTRIES, builtin_names, load_operator
from diffalg.grammar import format_poly
from diffalg.schema import operator_to_json

from helpers import ref_lie_bracket


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestParseCommand:
    def test_kdv(self, capsys):
        code, data, _ = run_json(capsys, "parse", "--expr", "u''' + 3*u*u'")
        assert code == 0 and data["canonical"] == "u''' + 3*u*u'"

    def test_laurent(self, capsys):
        code, data, _ = run_json(capsys, "parse", "--expr", "u^-1*u'")
        assert code == 0 and data["canonical"] == "u^-1*u'"

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "--expr", "u +")
        assert code == 2 and "error" in err

    def test_expansion_past_bound_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "--expr", "(u+u'+u''+u''')^10000")
        assert code == 2 and "past 10000 terms" in json.loads(err)["error"]


    def test_power_work_past_bound_exit_2(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "parse", "--expr", "(u+u')^9999")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "term pairs" in json.loads(err)["error"]

    def test_exponent_past_bound_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "--expr", "((u^10000)^10000)^10000")
        assert code == 2 and "past the bound 10000" in json.loads(err)["error"]


class TestBracketCommand:
    def test_commuting_pair(self, capsys):
        code, data, _ = run_json(
            capsys, "bracket", "--left", "u''' + 3*u*u'",
            "--right", "u(5) + 5*u*u''' + 10*u'*u'' + 15/2*u^2*u'")
        assert code == 0 and data["zero"] is True

    def test_noncommuting_pair(self, capsys):
        code, data, _ = run_json(capsys, "bracket", "--left", "u",
                                 "--right", "u^2")
        assert code == 0 and data["zero"] is False and data["bracket"] == "u^2"


class TestVerdictCommands:
    def test_check_hereditary_kdv(self, capsys):
        code, data, _ = run_json(capsys, "check-hereditary", "--op", "kdv")
        assert code == 0 and data == {"hereditary": True}

    def test_check_integrable_counterexample(self, capsys):
        code, data, _ = run_json(capsys, "check-integrable", "--op",
                                 "counterexample")
        assert code == 1
        assert data["integrable"] is False
        assert data["reason"] == "q = u''' not a variational derivative"
        assert data["residual"] == "DiffOp((2)*d^3)"

    def test_check_hereditary_refutation_carries_residual(self, capsys, tmp_path):
        path = tmp_path / "u_d.json"
        path.write_text(json.dumps({"local": [["u", 1]]}))
        code, data, _ = run_json(capsys, "check-hereditary", "--op", str(path))
        assert code == 1 and data["hereditary"] is False
        assert data["reason"] == "hereditary identity residual is nonzero"
        assert data["residual"] == "NonlocalOp((-F*u)*d^2 + u*F'')"

    def test_check_recursion(self, capsys):
        code, data, _ = run_json(capsys, "check-recursion", "--op",
                                 "counterexample", "--seed", "u'")
        assert code == 0 and data["recursion"] is True
        assert "lie_derivative" not in data
        code, data, _ = run_json(capsys, "check-recursion", "--op",
                                 "counterexample", "--seed", "u''")
        assert code == 1 and data["recursion"] is False
        assert data["lie_derivative"] == (
            "NonlocalOp((-2*u''')*d + 2*u(4) + (-2)*d^-1*(u(5)))")

    def test_missing_operator_exit_2(self, capsys):
        code, _, err = run(capsys, "check-hereditary", "--op", "nonsense")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("spec", ["/no/such/dir/kdv.json", "kdv.json", "corpus/kdv", "."],
                             ids=["missing-directory", "missing-file", "path-to-a-name",
                                  "a-directory"])
    def test_path_never_falls_back_to_a_builtin(self, capsys, tmp_path, monkeypatch, spec):
        # only a bare name resolves to a builtin; a path that does not load exits 2
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "check-hereditary", "--op", spec)
        assert code == 2 and not out and repr(spec) in json.loads(err)["error"]

    def test_schema_not_an_object_exit_2(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "check-hereditary", "--op", str(path))
        assert code == 2 and "must be a JSON object" in json.loads(err)["error"]

    @pytest.mark.parametrize("schema, field", [
        ({"local": [[1, 2]]}, "local[0] must be [expression string"),
        ({"local": [["u", "x"]]}, "local[0] must be [expression string"),
        ({"local": [["u", 0], ["u", "x"]]}, "local[1] must be [expression string"),
        ({"local": [["u", -1]]}, "local[0] must be"),
        ({"local": [["u", 1.5]]}, "local[0] must be [expression string"),
        ({"local": [["u", "1.5"]]}, "local[0] must be [expression string"),
        ({"local": [["u", True]]}, "local[0] must be [expression string"),
        ({"local": [["1", 10000000000]]}, "local[0] must be [expression string, "
                                           "integer power 0..10000]"),
        ({"local": [["u", 0], ["1", 10001]]}, "local[1] must be [expression string"),
        ({"local": "u"}, "local must be a list"),
        ({"nonlocal": [["u"]]}, "nonlocal[0] must be [p string, q string]"),
        ({"grading": "even"}, "grading must be an object"),
        ({"grading": {"u": "neither"}}, "grading['u'] must be 'even' or 'odd'"),
        ({"grading": {"v": "even"}}, "grading does not assign a parity to 'u'"),
        ({"grading": {"u": "even", "F": "odd"}}, "grading['F'] names no indeterminate"),
        ({"local": [["u", 0]], "grading": {"u": "even", "": "odd"}},
         "grading[''] names no indeterminate"),
        ({"locl": [["2*u", 0], ["1", 2]], "nonlocal": [["u'", "1"]]},
         "unknown operator schema key 'locl'"),
    ], ids=["expr-not-string", "power-not-integer", "second-entry", "negative-power",
            "power-fractional", "power-fractional-string", "power-boolean",
            "power-past-the-bound", "power-just-past-the-bound", "local-not-list",
            "nonlocal-short", "grading-not-object", "bad-parity", "grading-without-u",
            "grading-formal-slot", "grading-empty-name",
            "unknown-key"])
    def test_schema_errors_name_the_field(self, capsys, tmp_path, schema, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(schema))
        code, _, err = run(capsys, "check-hereditary", "--op", str(path))
        assert code == 2 and field in json.loads(err)["error"]

    @pytest.mark.parametrize("schema, message", [
        ({"local": [["u", 0], ["u+", 0]]}, "local[1]: expected an integer (at position 2)"),
        ({"nonlocal": [["u+", "1"]]}, "nonlocal[0] p: expected an integer (at position 2)"),
        ({"nonlocal": [["u", "1"], ["1", "(u"]]},
         "nonlocal[1] q: expected ')' (at position 2)"),
        ({"local": [["u^10001", 0]]}, "local[0]: integer 10001 exceeds supported bounds"),
    ], ids=["local", "nonlocal-p", "nonlocal-q", "local-exponent-bound"])
    def test_schema_parse_errors_name_the_field(self, capsys, tmp_path, schema, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(schema))
        code, _, err = run(capsys, "check-hereditary", "--op", str(path))
        assert code == 2 and json.loads(err)["error"] == message

    def test_schema_accepts_integral_power_forms(self, capsys, tmp_path):
        # powers pass through int(), as they always have
        path = tmp_path / "kdv.json"
        path.write_text(json.dumps({"local": [["2*u", "0"], ["1", 2.0]],
                                    "nonlocal": [["u'", "1"]]}))
        code, data, _ = run_json(capsys, "check-hereditary", "--op", str(path))
        assert code == 0 and data["hereditary"] is True


class TestCrashIsNotAVerdict:
    def test_deep_nesting_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "--expr", "(" * 5000 + "u" + ")" * 5000)
        assert code == 2 and "nest deeper" in json.loads(err)["error"]

    def test_unexpected_exception_exit_4(self, capsys, monkeypatch):
        import diffalg.cli as cli

        # TypeError and KeyError are not usage errors: user input is
        # validated before it can raise them, so they signal a bug
        for error in (RuntimeError, TypeError, KeyError):
            def boom(args):
                raise error("boom")

            monkeypatch.setattr(cli, "cmd_parse", boom)
            code, _, err = run(capsys, "parse", "--expr", "u")
            assert code == cli.EXIT_INTERNAL == 4
            report = json.loads(err)
            assert report["internal_error"] == f"{error.__name__}: {error('boom')}"
            assert "boom" in report["traceback"]


class TestHierarchyCommand:
    def test_kdv_three_steps(self, capsys):
        code, data, _ = run_json(capsys, "hierarchy", "--op", "kdv",
                                 "--steps", "3", "--verify")
        assert code == 0
        assert len(data["chain"]) == 4
        assert data["orders"] == [1, 3, 5, 7]
        assert data["pairwise_zero"] is True
        assert data["violations"] == []

    @pytest.mark.parametrize("command", ["hierarchy", "densities"])
    def test_negative_steps_exit_2(self, capsys, command):
        code, out, err = run(capsys, command, "--op", "kdv", "--steps", "-1")
        assert code == 2 and out == ""
        assert "--steps" in err and "-1" in err

    def test_noncommuting_chain_exit_1(self, capsys, tmp_path):
        # L = d^2 + u^2 is no recursion operator: its chain from u' does not commute
        path = tmp_path / "noncommuting.json"
        path.write_text(json.dumps({"local": [["1", 2], ["u^2", 0]]}))
        code, data, _ = run_json(capsys, "hierarchy", "--op", str(path), "--seed", "u'",
                                 "--steps", "2", "--verify")
        assert code == 1 and data["pairwise_zero"] is False
        assert data["violations"] == ["{S_1, S_2} = -2*u*u'*u(5) + 2*u*u'''^2 "
                                      "- 12*u^2*u'^2*u'' - 4*u*u'^4"]
        s1, s2 = (parse_function(s) for s in data["chain"][1:])
        assert "{S_1, S_2} = " + format_poly(ref_lie_bracket(s1, s2)) == data["violations"][0]

    def test_hypothesis_violation_exit_3(self, capsys):
        code, _, err = run(capsys, "hierarchy", "--op", "counterexample",
                           "--seed", "u'", "--steps", "1")
        assert code == 3 and "hypothesis_violation" in err

    def test_rational_member_exit_2(self, capsys, tmp_path):
        # L = u^-1 d + 1 + u' d^-1 sends S0 = u' to a quotient by u
        path = tmp_path / "rational.json"
        path.write_text(json.dumps({"local": [["u^-1", 1], ["1", 0]],
                                    "nonlocal": [["u'", "1"]]}))
        code, out, err = run(capsys, "hierarchy", "--op", str(path), "--steps", "2")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": (
            "step 1: the chain member S_1 = (u'' + u^2*u' + u*u')/u is not a "
            "differential polynomial")}


    def test_seed_without_an_exact_product_exit_2(self, capsys):
        # Burgers' q = 1 times the seed u''^-1 is no polynomial to integrate
        code, out, err = run(capsys, "hierarchy", "--op", "burgers",
                             "--seed", "u''^-1", "--steps", "1")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "q_i * f has a nonconstant denominator; "
                                            "exact integration is polynomial-only"}

    def test_nonpolynomial_tail_refused_even_with_a_seed_exit_2(self, capsys, tmp_path):
        # the tail p = u^-1 is read, and refused, before the given seed is used
        path = tmp_path / "rational_tail.json"
        path.write_text(json.dumps({"local": [["1", 1]], "nonlocal": [["u^-1", "1"]]}))
        code, out, err = run(capsys, "hierarchy", "--op", str(path),
                             "--seed", "u'", "--steps", "1")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "seed is not polynomial; cannot start a chain"}


class TestPowerAndDensities:
    def test_power_two(self, capsys):
        code, data, _ = run_json(capsys, "power", "--op", "kdv",
                                 "--power", "2", "--verify")
        assert code == 0
        assert data["weakly_nonlocal"] and data["qs_variational"]
        pairs = data["operator"]["nonlocal"]
        assert ["u''' + 3*u*u'", "1"] in pairs and ["u'", "u"] in pairs

    def test_power_output_loads_through_op(self, capsys, tmp_path):
        # --op unwraps the {"power": ..., "operator": ...} that power prints
        code, out, _ = run(capsys, "power", "--op", "kdv", "--power", "1")
        assert code == 0
        path = tmp_path / "power.json"
        path.write_text(out)
        assert run(capsys, "check-hereditary", "--op", str(path))[0] == 0
        assert run(capsys, "check-recursion", "--op", str(path), "--seed", "u'")[0] == 0

    def test_op_unwraps_only_the_power_object(self, capsys, tmp_path):
        # a schema with an extra "operator" key is refused, not read as that key
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"local": [["u", 0]], "operator": {"local": [["1", 2]]}}))
        code, out, err = run(capsys, "power", "--op", str(path), "--power", "1")
        assert code == 2 and not out
        assert "unknown operator schema key 'operator'" in json.loads(err)["error"]

    def test_power_with_a_nonvariational_q_exit_1(self, capsys):
        code, data, _ = run_json(capsys, "power", "--op", "counterexample",
                                 "--power", "1", "--verify")
        assert code == 1
        assert data["qs_variational"] is False and data["failing_q_indices"] == [0]

    def test_power_overflow_exit_3(self, capsys):
        import diffalg.corpus as corpus
        from diffalg.corpus import CorpusEntry
        entry = CorpusEntry(name="qu", operator_json={
            "local": [], "nonlocal": [["1", "u"]], "grading": {"u": "even"}})
        corpus.ENTRIES["qu"] = entry
        try:
            code, _, err = run(capsys, "power", "--op", "qu", "--power", "2")
            assert code == 3 and "hypothesis_violation" in err
        finally:
            del corpus.ENTRIES["qu"]

    def test_densities_of_a_rational_q_exit_3(self, capsys, tmp_path):
        path = tmp_path / "rational_q.json"
        path.write_text(json.dumps({"local": [["1", 1]], "nonlocal": [["u'", "u^-1"]]}))
        code, out, err = run(capsys, "densities", "--op", str(path), "--power", "1")
        assert code == 3 and out == ""
        assert json.loads(err) == {"hypothesis_violation": "q_0 of the power is not polynomial"}

    def test_densities(self, capsys):
        code, data, _ = run_json(capsys, "densities", "--op", "kdv",
                                 "--power", "2", "--steps", "3")
        assert code == 0
        rhos = {d["rho"] for d in data["densities"]}
        assert rhos == {"u", "1/2*u^2"}
        assert all(d["verified_against"] == [0, 1, 2, 3]
                   for d in data["densities"])


class TestTextFormat:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "check-hereditary",
                           "--op", "kdv")
        assert code == 0 and "hereditary: True" in out


class TestCorpus:
    def test_files_match_builtins(self, tmp_path, capsys):
        for name in builtin_names():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(ENTRIES[name].operator_json))
            from_file, _ = load_operator(str(path))
            from_builtin, _ = ENTRIES[name].load()
            assert from_file == from_builtin

    def test_repo_corpus_directory_in_sync(self):
        import os
        for name, entry in ENTRIES.items():
            path = os.path.join(os.path.dirname(__file__), "..", "corpus",
                                f"{name}.json")
            with open(path) as fh:
                assert json.load(fh) == entry.operator_json

    def test_entries_round_trip(self):
        from diffalg.nonlocal_ops import operator_from_json
        for entry in ENTRIES.values():
            op, grading = entry.load()
            data = operator_to_json(op, grading)
            back, _ = operator_from_json(data)
            assert back == op

    def test_expected_verdicts(self):
        for entry in ENTRIES.values():
            op, _ = entry.load()
            assert is_hereditary(op).result == entry.expect_hereditary, entry.name
            assert is_integrable_wnl(op).result == entry.expect_integrable, \
                entry.name
            for text in entry.recursion_true:
                assert is_recursion_for(op, parse_function(text)), entry.name
            for text in entry.recursion_false:
                assert not is_recursion_for(op, parse_function(text)), entry.name

    def test_pair_metadata_loads(self):
        from diffalg import DiffOp, jet
        a, b = ENTRIES["burgers"].load_pair()
        assert b == DiffOp.d()
        assert a == DiffOp.d() * (DiffOp.d() + jet("u"))

    def test_pair_terms_of_one_power_add_up(self):
        from diffalg import DiffOp, jet
        from diffalg.corpus import CorpusEntry
        entry = CorpusEntry(name="repeated", operator_json={},
                            pair=([["u", 1], ["1", 1]], [["1", 1]]))
        a, b = entry.load_pair()
        assert a == DiffOp({1: jet("u") + 1}) and b == DiffOp.d()


class TestReadmeExamples:
    """Every example of the README's "Command line" section prints exactly
    the output recorded in cli_golden.json, with the recorded exit code, and
    its "Library example" block runs."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def readme_examples(self):
        with open(os.path.join(self.ROOT, "README.md")) as f:
            text = f.read()
        block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        return [shlex.split(line)[1:] for line in block.strip().splitlines()]

    def golden(self):
        with open(os.path.join(self.ROOT, "tests", "cli_golden.json")) as f:
            return json.load(f)

    def test_library_example_runs(self):
        with open(os.path.join(self.ROOT, "README.md")) as f:
            text = f.read()
        assert "## Library example" in text
        section = text.split("## Library example", 1)[1].split("\n## ", 1)[0]
        assert "```python" in section
        block = section.split("```python", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})

    def test_outputs_match_the_golden_file(self, capsys, monkeypatch):
        golden = self.golden()
        assert [case["argv"] for case in golden] == self.readme_examples()
        monkeypatch.chdir(self.ROOT)  # the examples name corpus/ files
        for case in golden:
            code, out, _ = run(capsys, *case["argv"])
            assert (code, out) == (case["exit"], case["stdout"]), case["argv"]

    def test_module_entry_point_matches_the_golden_file(self):
        # the same cases through `python -m diffalg.cli`, in a fresh process
        src = os.path.join(self.ROOT, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for case in self.golden():
            proc = subprocess.run([sys.executable, "-m", "diffalg.cli", *case["argv"]],
                                  cwd=self.ROOT, env=env, stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True, timeout=300)
            assert (proc.returncode, proc.stdout) == (case["exit"], case["stdout"]), \
                case["argv"]
