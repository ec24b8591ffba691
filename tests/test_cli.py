"""The cyclotome command line: parsing, output shape, determinism, exit codes.

Core claims:
    - describe/enumerate/lift/forms/verify/serre-dims run and exit 0 on good input
    - JSON output carries the schema version and passes; verify judges each
      check once, in JSON, text and Markdown
    - verify --json gives the bytes of json.dumps(indent=2, sort_keys=True) on
      a payload built in the test from the reports, planted failing and
      awkward reports included
    - identical invocations produce byte-identical output
    - the JSON writer gives the bytes of json.dumps(obj, indent=2,
      sort_keys=True) on seeded nested payloads, escapes included, and
      refuses a float, a set or a non-str key with TypeError
    - the documented literal grammar (numeric and named tokens) round-trips
    - malformed input exits 2 with a message, never a traceback (seeded fuzz
      of literals and of mutated quiver files);
      a malformed numeric token is named in it, and so is a piece whose
      multiplicity after "=" is missing or not an integer
    - a malformed quiver-file line exits 2 and is quoted in the message; a
      quiver file that starts with a UTF-8 byte-order mark loads
    - a verify that would run no case exits 2 instead of passing vacuously
    - a --mass-cap above the same-n bound exits 2 at once with one error line
    - a verify with a failing check exits 1 and shows the check in text, JSON
      and Markdown; in text a list of failing cases shows its count and first
      case, and a FormalSum its first differing term; ar-quiver without --dot
      prints one line per window slot
    - a reader that closes the output pipe early gets exit 1 and nothing on stderr
    - -h/--help, at the top and after a command, prints to stdout and exits 0;
      a command's help names every one of its options
    - --opt=value and --opt value parse alike
    - every usage error exits 2 with a usage line and "cyclotome: error:" on
      stderr, never a traceback; option names must be spelled in full
    - a seeded argv-level fuzz of valid command lines exits only 0, 1 or 2
    - every command line in README's "Command line" block exits 0, and
      README's "Quick start" Python block runs as written and prints what its
      comment says
"""

import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cyclotome.cli import main, parse_pair, parse_sparse, print_json
from cyclotome import FormalSum, HalfLaurent, build_index, cli, orient, iota, relations


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# == 1. subcommands ==================================================================

class TestSubcommands:
    def test_describe_a1(self, capsys):
        code, out = run(capsys, "describe", "--type", "A1")
        assert code == 0
        assert "h = 2" in out
        assert "|sigma-I-hat| = 2" in out
        for name in ("E1", "K1", "K'1", "F1"):
            assert name in out

    def test_describe_json(self, capsys):
        code, out = run(capsys, "describe", "--type", "A2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == 1
        assert payload["coxeter_number"] == 3
        assert payload["sigma_i_hat_size"] == 6

    def test_ar_quiver_dot(self, capsys):
        code, out = run(capsys, "ar-quiver", "--type", "A3", "--dot")
        assert code == 0
        assert out.startswith("digraph")
        assert "style=dashed" in out

    def test_ar_quiver_lists_every_slot(self, capsys):
        code, out = run(capsys, "ar-quiver", "--type", "A3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3 * 4  # n * h
        for line in lines:
            assert re.fullmatch(r"\(\d+, \d+\): \S+ class=\((-?\d+, ){2}-?\d+\)", line), line

    def test_rep_space_dot(self, capsys):
        code, out = run(capsys, "rep-space", "--type", "A2")
        assert code == 0
        assert out.startswith("digraph")
        assert "alpha1" in out and "beta1" in out

    def test_enumerate_a_large_multiplicity(self, capsys):
        # one Kostant multiset of 1500 copies of alpha_1, hence one solution
        code, out = run(capsys, "enumerate", "--type", "A3", "--w", "sigma(S1)=1500")
        assert code == 0
        assert "1 l-dominant v:" in out

    def test_enumerate_two_large_multiplicities(self, capsys):
        # one lift per multiplicity 0..700 of alpha_1 + alpha_2; the lifts
        # never walk a multiset that cannot be completed
        code, out = run(capsys, "enumerate", "--type", "A3", "--w",
                        "sigma(S1)=1000,sigma(S2)=700")
        assert code == 0
        assert "701 l-dominant v:" in out

    def test_enumerate(self, capsys):
        code, out = run(
            capsys, "enumerate", "--type", "A2", "--w", "sigma(S1)=1,sigma(S2)=1",
            "--verify", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 2

    def test_lift_example(self, capsys):
        code, out = run(capsys, "lift", "--type", "A2", "--wtilde", "sigma(P2)=1")
        assert code == 0
        assert out.strip() == "(e[S1], e[sigma(S1)] + e[sigma(S2)])"

    def test_forms(self, capsys):
        code, out = run(
            capsys,
            "forms",
            "--type",
            "A2",
            "--pair", "v=0;w=sigma(S1)=1",
            "--pair", "v=S1=1,P2=1;w=sigma(S1)=1,sigma(SigmaS1)=1",
            "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["d(m2,m1)"] == "1"

    def test_verify_all_exit_zero(self, capsys):
        code, out = run(capsys, "verify", "all", "--type", "A2")
        assert code == 0
        assert "overall: pass" in out

    def test_verify_json(self, capsys):
        code, out = run(capsys, "verify", "ek", "--type", "A2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["pass"] is True
        assert payload["schema"] == 1
        assert len(payload["reports"]) == 4

    def test_verify_json_judges_each_check_once(self, capsys, monkeypatch):
        judged = []
        passed = relations.Check.passed

        def counted(check):
            judged.append(check)
            return passed.fget(check)

        monkeypatch.setattr(relations.Check, "passed", property(counted))
        code, out = run(capsys, "verify", "all", "--type", "A3", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["pass"] is True
        # exponent-table judges its own inner ef reports, whose checks are not printed
        assert len(judged) == len({id(c) for c in judged}) >= 448
        assert sum(len(r["checks"]) for r in payload["reports"]) == 448

    @pytest.mark.parametrize("fmt", [[], ["--markdown"]], ids=["text", "md"])
    def test_verify_text_and_markdown_judge_each_check_once(self, fmt, capsys, monkeypatch):
        judged = []
        passed = relations.Check.passed

        def counted(check):
            judged.append(check)
            return passed.fget(check)

        monkeypatch.setattr(relations.Check, "passed", property(counted))
        code, out = run(capsys, "verify", "all", "--type", "A3", *fmt)
        assert code == 0 and out.endswith("overall: pass\n")
        # exponent-table judges its own inner ef reports, whose checks are not printed
        assert len(judged) == len({id(c) for c in judged}) >= 448

    @pytest.mark.parametrize(
        "relation", ["ef", "kk", "same-form", "same-n", "exponent-table"]
    )
    def test_verify_each_relation_path(self, relation, capsys):
        code, out = run(capsys, "verify", relation, "--type", "A2")
        assert code == 0
        assert "overall: pass" in out

    def test_verify_markdown(self, capsys):
        code, out = run(capsys, "verify", "serre", "--type", "A2", "--markdown")
        assert code == 0
        assert out.startswith("# relation suite")
        assert "| serre |" in out

    def test_verify_reports_a_failing_check(self, monkeypatch, capsys):
        honest = relations.verify_ef

        failing_cases = [((1, 0), (2, 1), 3, 4), ((2, 1), (1, 0), 5, 6)]
        one, t = HalfLaurent.from_int(1), HalfLaurent.t_pow(1)

        def planted(index, i, j):
            rep = honest(index, i, j)
            rep.add("planted check", 1, 2)
            rep.add("planted cases", failing_cases, [])
            # the labels "a" < "b" < "c" in repr order; "a" agrees, "b" differs
            rep.add("planted sum", FormalSum({"c": t, "b": one, "a": one}),
                    FormalSum({"a": one, "c": one}))
            return rep

        # relations.verify builds its dispatch per call, so it runs the plant
        monkeypatch.setattr(relations, "verify_ef", planted)
        code, out = run(capsys, "verify", "ef", "--type", "A2")
        assert code == 1
        lines = out.splitlines()
        assert "      planted check: computed 1 != 2" in lines
        # a list of failing cases shows its count and its first case only
        assert "      planted cases: 2 failing cases, first ((1, 0), (2, 1), 3, 4)" in lines
        # a FormalSum shows its first differing term, with both coefficients
        assert "      planted sum: at [b] computed 1 != 0" in lines
        assert out.endswith("overall: FAIL\n")
        code, out = run(capsys, "verify", "ef", "--type", "A2", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        # JSON keeps each value whole
        checks = {c["name"]: c for r in payload["reports"] for c in r["checks"]}
        assert checks["planted cases"]["computed"] == repr(failing_cases)
        assert checks["planted sum"]["expected"] == repr(FormalSum({"a": one, "c": one}))
        code, out = run(capsys, "verify", "ef", "--type", "A2", "--markdown")
        assert code == 1
        assert "| NO |" in out and out.endswith("overall: FAIL\n")

    @pytest.mark.parametrize(
        "relation, fmt",
        [(r, f) for r in ("serre", "same-form") for f in ([], ["--json"], ["--markdown"])],
        ids=["text", "json", "md", "same-form-text", "same-form-json", "same-form-md"],
    )
    def test_verify_with_no_cases_exits_two(self, relation, fmt, capsys):
        # A1 has no two distinct vertices, so serre has nothing to check, and
        # one module, so same-form has no pair of distinct modules
        assert main(["verify", relation, "--type", "A1", *fmt]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"cyclotome: error: {relation} has no cases on A1\n"
        assert captured.out == ""

    def test_verify_all_on_a1_passes(self, capsys):
        code, out = run(capsys, "verify", "all", "--type", "A1")
        assert code == 0
        assert out.endswith("overall: pass\n")

    def test_serre_dims(self, capsys):
        code, out = run(capsys, "serre-dims", "--type", "A2", "--maxdeg", "3")
        assert code == 0
        assert "overall: pass" in out

    def test_file_orientation(self, tmp_path, capsys):
        spec = tmp_path / "quiver.txt"
        spec.write_text("vertices: 3\narrow: 3 2\narrow: 2 1\n")
        code, out = run(
            capsys, "describe", "--orientation", f"file:{spec}", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["type"] == "A3"

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus", "--type", "A2"])
        assert exc.value.code == 2

    def test_bad_literal_exits_two(self, capsys):
        assert main(["enumerate", "--type", "A2", "--w", "Q9=1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1:2:3", "1:x", "x:1", "1:", ":"])
    def test_bad_numeric_token_is_named(self, token, capsys):
        assert main(["lift", "--type", "A2", "--wtilde", f"{token}=1"]) == 2
        assert capsys.readouterr().err == (
            f"cyclotome: error: numeric token {token!r} is not of the form i:a=m\n"
        )

    @pytest.mark.parametrize("piece", ["sigma(S1)=x", "1:0=2=3", "sigma(S1)="])
    def test_bad_multiplicity_is_named(self, piece, capsys):
        assert main(["lift", "--type", "A2", "--wtilde", piece]) == 2
        assert capsys.readouterr().err == (
            f"cyclotome: error: multiplicity in {piece!r} is not an integer\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--w", "=1"],
            ["enumerate", "--w", "Sigma=1"],
            ["enumerate", "--w", "S9=1"],
            ["enumerate", "--w", "S=1"],
            ["lift", "--wtilde", "sigma(P9)=1"],
            ["lift", "--wtilde", "sigma()=1"],
        ],
        ids=lambda argv: argv[-1],
    )
    def test_token_naming_nothing_exits_two(self, argv, capsys):
        assert main([*argv, "--type", "A2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cyclotome: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "same-n", "--mass-cap", "-1"],
            ["verify", "all", "--mass-cap", "0"],
            ["serre-dims", "--maxdeg", "-3"],
            ["serre-dims", "--maxdeg", "0"],
        ],
        ids=lambda argv: " ".join(argv[-2:]),
    )
    def test_cap_below_one_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--type", "A2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err
        assert "pass" not in captured.out

    def test_cap_above_the_bound_exits_two_at_once(self):
        # in a child with a timeout, so a count that the bound fails to stop
        # fails the test instead of hanging it
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        argv = ["verify", "same-n", "--type", "A2", "--mass-cap", "99999999999999999999"]
        child = subprocess.run(
            [sys.executable, "-m", "cyclotome.cli", *argv],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert (child.returncode, child.stdout) == (2, "")
        (line,) = child.stderr.splitlines()
        assert line.startswith("cyclotome: error:") and str(relations.MAX_MASS_CAP) in line
        assert "Traceback" not in child.stderr

    @pytest.mark.parametrize("dynkin_type", ["", "A", "Z3"])
    def test_bad_type_exits_two(self, dynkin_type, capsys):
        assert main(["describe", "--type", dynkin_type]) == 2
        assert capsys.readouterr().err.startswith("cyclotome: error:")

    @pytest.mark.parametrize("dynkin_type,code", [("D4", 2), ("Z3", 2), ("A3", 0), ("a3", 0)])
    def test_type_must_name_the_quiver_file(self, dynkin_type, code, tmp_path, capsys):
        spec = tmp_path / "quiver.txt"
        spec.write_text("vertices: 3\narrow: 3 2\narrow: 2 1\n")
        argv = ["describe", "--type", dynkin_type, "--orientation", f"file:{spec}"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("cyclotome: error:") if code else err == ""

    def test_second_vertices_line_exits_two(self, tmp_path, capsys):
        # the later line would otherwise win and load this file as A3
        spec = tmp_path / "quiver.txt"
        spec.write_text("vertices: 2\nvertices: 3\narrow: 1 2\narrow: 2 3\n")
        assert main(["describe", "--orientation", f"file:{spec}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cyclotome: error:")
        assert "vertices" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("line", ["vertices: x", "arrow: 1", "arrow: 1 2 3", "arrow: a b"])
    def test_malformed_quiver_line_exits_two_quoting_it(self, line, tmp_path, capsys):
        spec = tmp_path / "quiver.txt"
        text = f"vertices: 2\n{line}\n" if line.startswith("arrow") else f"{line}\narrow: 1 2\n"
        spec.write_text(text, encoding="utf-8")
        assert main(["describe", "--orientation", f"file:{spec}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cyclotome: error:")
        assert repr(line) in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_quiver_file_with_byte_order_mark_loads(self, tmp_path, capsys):
        spec = tmp_path / "quiver.txt"
        spec.write_text("\ufeffvertices: 3\narrow: 3 2\narrow: 2 1\n", encoding="utf-8")
        assert main(["describe", "--orientation", f"file:{spec}"]) == 0
        out = capsys.readouterr().out
        assert main(["describe", "--type", "A3"]) == 0
        assert out == capsys.readouterr().out

    def test_weight_outside_cone_exits_two(self, capsys):
        # sigma(P2) is not a W^S + W^SigmaS vertex
        assert main(["enumerate", "--type", "A2", "--w", "sigma(P2)=1"]) == 2
        capsys.readouterr()

    def test_missing_quiver_file_exits_two(self, capsys):
        assert main(["describe", "--orientation", "file:/nonexistent.txt"]) == 2
        capsys.readouterr()

    # With stdout buffered, the short output fails at the final flush and the
    # long one (about 78 kB) while the command is still printing.
    @pytest.mark.parametrize("argv", [
        ["describe", "--type", "A1"],
        ["verify", "all", "--type", "A3", "--json"],
    ], ids=["short", "long"])
    def test_closed_output_pipe_exits_one_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        try:
            child = subprocess.run(
                [sys.executable, "-m", "cyclotome.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE,
                env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (1, b"")


# == 2. determinism ====================================================================

def test_byte_identical_output(capsys):
    _, first = run(capsys, "verify", "all", "--type", "A2", "--json")
    _, second = run(capsys, "verify", "all", "--type", "A2", "--json")
    assert first == second


def verify_payload(index, reports) -> dict:
    """The verify --json payload built here from the reports' attributes,
    judging each check by == itself."""
    dicts = [{
        "relation": r.relation,
        "type": r.dynkin_type,
        "orientation": r.orientation,
        "args": list(r.args),
        "checks": [{"name": c.name, "computed": repr(c.computed), "expected": repr(c.expected),
                    "pass": c.computed == c.expected} for c in r.checks],
        "pass": all(c.computed == c.expected for c in r.checks),
    } for r in reports]
    return {"schema": 1, "type": index.quiver.dynkin_type,
            "orientation": index.quiver.orientation_label(), "reports": dicts,
            "pass": all(d["pass"] for d in dicts)}


@pytest.mark.parametrize("t", ["A1", "A2", "D4", "E6"])
@pytest.mark.parametrize("o", ["linear", "alternating"])
def test_verify_json_writer_matches_json_dumps(t, o, capsys):
    index = build_index(orient(t, o))
    payload = verify_payload(index, relations.verify_all(index, mass_cap=1))
    code, out = run(capsys, "verify", "all", "--type", t, "--orientation", o,
                    "--mass-cap", "1", "--json")
    assert code == 0
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_verify_json_writer_matches_json_dumps_on_planted_reports(capsys, monkeypatch):
    from cyclotome.relations import VerificationReport

    honest = relations.verify_ek(build_index(orient("A2", "linear")), 1, 2)
    failing = VerificationReport("ek", "A2", "2>1", (2, 1))
    failing.add("agrees", (1, 2), (1, 2))
    failing.add("doomed", 1, 2)
    bare = VerificationReport("same-form", "A2", "2>1", ())
    bare.add('a "quoted" \\ name, \u03a3 and \U0001d11e', {(1, 0): 1}, {(1, 0): 1})
    empty = VerificationReport("kk", "A2", "2>1", (1, 1))
    reports = [honest, failing, bare, empty]
    monkeypatch.setattr(cli, "verify_all", lambda index, mass_cap: reports)
    code, out = run(capsys, "verify", "all", "--type", "A2", "--json")
    payload = verify_payload(build_index(orient("A2", "linear")), reports)
    assert code == 1
    assert payload["pass"] is False and [d["pass"] for d in payload["reports"]] == [
        True, False, True, True]
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # the empty args and the empty checks are written as [] on the key's line
    assert '"args": [],' in out and '"checks": [],' in out


#: Strings that exercise every escape: a non-ASCII letter, an astral character
#: (a surrogate pair), control characters, a quote and a backslash.
AWKWARD = ["", "plain", "\u03a3", "\U0001d11e", "\x00\x1f\t\n\x7f", '"', "\\"]


def random_payload(rng, depth=0):
    """A nested payload of every kind the JSON writer takes."""
    kind = rng.randrange(6 if depth < 4 else 3)
    if kind == 0:
        return "".join(rng.choice(AWKWARD) for _ in range(rng.randint(0, 3)))
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.choice([0, 1, -7, 2**64 + 1, -(3**45), 10**30])
    items = [random_payload(rng, depth + 1) for _ in range(rng.choice([0, 1, 2, 4]))]
    if kind == 3:
        return {f"{rng.choice(AWKWARD)}{n}": item for n, item in enumerate(items)}
    return items if kind == 4 else tuple(items)


def test_json_writer_matches_json_dumps(capsys):
    rng = random.Random(2013)
    texts = []
    for _ in range(400):
        payload = random_payload(rng)
        print_json(payload)
        texts.append(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        assert capsys.readouterr().out == texts[-1], payload
    # the payloads reached every escape, empty container, constant and big int
    seen = "".join(texts)
    for piece in ("\\u03a3", "\\ud834\\udd1e", "\\u0000", "\\t", '\\"', "\\\\",
                  "{}", "[]", "true", "false", "null", str(2**64 + 1), str(-(3**45))):
        assert piece in seen, piece


@pytest.mark.parametrize("payload", [1.5, {1, 2}, {1: "a"}, {"a": [None, 0.5]}],
                         ids=["float", "set", "int-key", "nested-float"])
def test_json_writer_refuses_other_values(payload, capsys):
    with pytest.raises(TypeError):
        print_json(payload)
    assert capsys.readouterr().out == ""


# == 3. literals =======================================================================

class TestLiterals:
    def test_numeric_and_named_agree(self):
        idx = build_index(orient("A2", "linear"))
        named = parse_sparse(idx, "sigma(S1)=2,sigma(SigmaS2)=1")
        numeric = parse_sparse(idx, "1:0=2,2:5=1")
        assert named == numeric

    def test_pair_literal(self):
        idx = build_index(orient("A2", "linear"))
        pair = parse_pair(idx, "v=S1=1;w=sigma(S1)=1,sigma(S2)=1")
        assert pair == iota(idx, idx.ar.projective[2])

    def test_empty_vector(self):
        idx = build_index(orient("A2", "linear"))
        assert parse_sparse(idx, "0") == {}

    @pytest.mark.parametrize("first", ["v=S1=1;v=S2=1", "w=sigma(S1)=1;w=sigma(S2)=1"],
                             ids=["v", "w"])
    def test_pair_literal_naming_a_side_twice_exits_two(self, first, capsys):
        # read side by side, the first value would silently be dropped
        argv = ["forms", "--type", "A2", "--pair", first, "--pair", "v=;w="]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"names {first[0]} twice" in err and "Traceback" not in err


# == 4. fuzzed literals ================================================================

def random_token(rng):
    """A token that is often, but not always, well formed."""
    if rng.random() < 0.25:
        key = f"{rng.randint(-2, 9)}:{rng.randint(-7, 20)}"
    else:
        key = rng.choice(["S", "P", "I", "SigmaS", "SigmaP", "SigmaI", "Sigma", "Q", ""])
        key += rng.choice(["1", "2", "3", "9", "0", "", "x", "-1"])
        for _ in range(rng.choice([0, 0, 1, 2])):
            key = f"sigma({key})"
    return key + rng.choice(["", "=1", "=2", "=0", "=-1", "=x", "=", "==1"])


def random_literal(rng):
    pieces = [random_token(rng) for _ in range(rng.randint(0, 3))]
    return ",".join(pieces) if pieces else rng.choice(["", "0", ",", " ", ":"])


def random_argv(rng):
    argv = [rng.choice(["enumerate", "lift", "forms"]), "--type", rng.choice(["A2", "A3"])]
    if argv[0] == "enumerate":
        return [*argv, f"--w={random_literal(rng)}"]
    if argv[0] == "lift":
        return [*argv, f"--wtilde={random_literal(rng)}"]
    return [*argv, *(f"--pair=v={random_literal(rng)};w={random_literal(rng)}" for _ in range(2))]


def test_fuzzed_literals_exit_zero_or_two(capsys):
    rng = random.Random(2013)
    codes = {0: 0, 2: 0}
    for _ in range(300):
        argv = random_argv(rng)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in codes, argv
        assert code == 0 or err.startswith("cyclotome: error:"), argv
        codes[code] += 1
    # both outcomes occur, so the fuzz reaches the commands' bodies
    assert min(codes.values()) > 0


def quiver_file(t: str, o: str) -> list[str]:
    q = orient(t, o)
    return [f"vertices: {len(q.vertices)}", *(f"arrow: {a} {b}" for a, b in q.arrows)]


QUIVER_FILES = [quiver_file(t, o) for t in ("A3", "D4", "E6") for o in ("linear", "alternating")]


def mutate_quiver_file(rng, lines: list[str]) -> str:
    """Drop, duplicate or swap lines, change a character, add a blank, comment,
    junk or NUL line, upper-case a line, or add a byte-order mark."""
    lines, bom = list(lines), ""
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines)) if lines else 0
        how = rng.choice(["drop", "duplicate", "swap", "char", "add", "upper", "bom"])
        if not lines and how != "add":
            continue
        if how == "drop":
            del lines[k]
        elif how == "duplicate":
            lines.insert(k, lines[k])
        elif how == "swap" and k + 1 < len(lines):
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        elif how == "char" and lines[k]:
            j = rng.randrange(len(lines[k]))
            lines[k] = lines[k][:j] + rng.choice("0123456789 :#-x\u03a3\t") + lines[k][j + 1:]
        elif how == "add":
            lines.insert(k, rng.choice(["", "   ", "# a comment", "junk", "arrow 1 2", "\x00"]))
        elif how == "upper":
            lines[k] = lines[k].upper()
        elif how == "bom":
            bom = "\ufeff"
    return bom + "\n".join(lines) + "\n"


def test_fuzzed_quiver_files_exit_zero_or_two(tmp_path, capsys):
    rng = random.Random(31)
    codes = {0: 0, 2: 0}
    for n in range(300):
        spec = tmp_path / f"quiver{n}.txt"
        spec.write_text(mutate_quiver_file(rng, rng.choice(QUIVER_FILES)), encoding="utf-8")
        code = main(["describe", "--orientation", f"file:{spec}"])
        err = capsys.readouterr().err
        assert code in codes, spec.read_text(encoding="utf-8")
        assert code == 0 or err.startswith("cyclotome: error:"), err
        assert "Traceback" not in err
        codes[code] += 1
    # both outcomes occur, so the fuzz reaches both a loaded quiver and a refused file
    assert min(codes.values()) > 0


# == 5. the argument parser ============================================================

COMMON_OPTIONS = ["--type", "--orientation", "--json"]
OPTIONS = {
    "describe": [],
    "ar-quiver": ["--dot"],
    "rep-space": [],
    "enumerate": ["--w", "--verify"],
    "lift": ["--wtilde"],
    "forms": ["--pair"],
    "verify": ["--markdown", "--mass-cap", "relation"],
    "serre-dims": ["--maxdeg"],
}


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit it raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def listed_names(help_text: str) -> set[str]:
    """The first word of each indented line of a help text."""
    return {line.split()[0] for line in help_text.splitlines() if line.startswith("  ")}


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help_names_every_command(flag, capsys):
    assert exit_code([flag]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cyclotome") and captured.err == ""
    assert listed_names(captured.out) >= set(OPTIONS)


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_command_help_names_every_option(command, capsys):
    # help wins wherever it stands, even beside a missing required option
    assert exit_code([command, "--type", "A2", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: cyclotome {command}") and captured.err == ""
    assert listed_names(captured.out) == set(COMMON_OPTIONS + OPTIONS[command])


@pytest.mark.parametrize("argv", [
    ["enumerate", "--type", "A2", "--w", "sigma(S1)=1,sigma(S2)=1", "--json"],
    ["lift", "--type", "A2", "--wtilde", "sigma(P2)=1"],
    ["forms", "--type", "A2", "--pair", "v=0;w=sigma(S1)=1", "--pair", "v=0;w=0"],
    ["verify", "ek", "--type", "A2", "--mass-cap", "1"],
    ["serre-dims", "--type", "A2", "--maxdeg", "2", "--orientation", "alternating"],
], ids=lambda argv: argv[0])
def test_equals_sign_and_separate_value_agree(argv, capsys):
    joined = []
    for token in argv:
        if joined and joined[-1].startswith("--") and not token.startswith("--"):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    assert main(argv) == 0
    separate = capsys.readouterr().out
    assert main(joined) == 0
    assert capsys.readouterr().out == separate != ""


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["describe", "--foo"],
    ["describe", "--typ", "A2"],  # a prefix of --type: abbreviations are not accepted
    ["describe", "--json=1"],
    ["describe", "A2"],
    ["describe", "--type"],
    ["enumerate", "--w"],
    ["enumerate", "--w", "--json"],
    ["enumerate"],
    ["lift", "--type", "A2"],
    ["forms"],
    ["forms", "--pair", "v=0;w=0"],
    ["forms", "--pair", "v=0;w=0", "--pair", "v=0;w=0", "--pair", "v=0;w=0"],
    ["verify"],
    ["verify", "bogus"],
    ["verify", "all", "ek"],
    ["verify", "all", "--mass-cap", "x"],
    ["verify", "all", "--mass-cap", "1.5"],
    ["verify", "all", "--mass-cap", "0"],
    ["serre-dims", "--maxdeg", "-3"],
    ["serre-dims", "--maxdeg="],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_usage_errors_exit_two_with_a_usage_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: cyclotome")
    assert error.startswith("cyclotome: error: ")
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, message", [
    (["verify", "bogus"], "argument relation: invalid choice: 'bogus' (choose from 'all', 'ek',"),
    (["enumerate"], "the following arguments are required: --w"),
    (["lift", "--wtilde"], "argument --wtilde: expected one argument"),
    (["describe", "--typ", "A2"], "unrecognized arguments: --typ"),
    (["verify", "all", "--mass-cap", "x"], "argument --mass-cap: invalid int value: 'x'"),
    (["forms", "--pair", "v=0;w=0"], "forms needs exactly two --pair literals"),
], ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_usage_errors_keep_the_familiar_wording(argv, message, capsys):
    assert exit_code(argv) == 2
    assert capsys.readouterr().err.splitlines()[1].startswith(f"cyclotome: error: {message}")


FUZZ_LINES = [
    ["describe", "--type", "A2", "--json"],
    ["ar-quiver", "--type", "A2", "--dot"],
    ["rep-space", "--type", "A1"],
    ["enumerate", "--type", "A2", "--w", "sigma(S1)=1", "--verify"],
    ["lift", "--type", "A2", "--wtilde", "sigma(P2)=1", "--json"],
    ["forms", "--type", "A2", "--pair", "v=0;w=sigma(S1)=1", "--pair", "v=0;w=0"],
    ["verify", "ek", "--type", "A2", "--mass-cap", "1", "--markdown"],
    ["serre-dims", "--type", "A2", "--maxdeg", "2"],
]


def mutate(rng, argv):
    """Drop, duplicate, swap or misspell tokens; only the command and option
    names are misspelled, so no mutation asks for a large computation."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(argv))
        how = rng.choice(["drop", "duplicate", "swap", "misspell"])
        if how == "drop":
            del argv[k]
        elif how == "duplicate":
            argv.insert(k, argv[k])
        elif how == "swap" and k + 1 < len(argv):
            argv[k], argv[k + 1] = argv[k + 1], argv[k]
        elif how == "misspell" and (k == 0 or argv[k].startswith("-")):
            j = rng.randrange(len(argv[k]))
            argv[k] = argv[k][:j] + rng.choice(["", "x", "-", "=", argv[k][j] * 2]) + argv[k][j + 1:]
        if not argv:
            break
    return argv


def test_fuzzed_command_lines_exit_zero_one_or_two(capsys):
    rng = random.Random(14)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(400):
        argv = mutate(rng, rng.choice(FUZZ_LINES))
        code = exit_code(argv)
        captured = capsys.readouterr()
        assert code in codes, argv
        assert "Traceback" not in captured.err, argv
        assert code != 2 or "cyclotome: error:" in captured.err, argv
        codes[code] += 1
    # both a clean run and a usage error occur, so the fuzz reaches both paths
    assert codes[0] > 0 and codes[2] > 0


def readme_block(heading: str, language: str) -> str:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {heading}", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_command_lines() -> list[list[str]]:
    block = readme_block("Command line", "sh")
    lines = shlex.split(block.replace("\\\n", " "), comments=True)
    starts = [k for k, token in enumerate(lines) if token == "cyclotome"]
    return [lines[a + 1:b] for a, b in zip(starts, starts[1:] + [len(lines)])]


def test_readme_command_lines_exit_zero(capsys):
    lines = readme_command_lines()
    assert len(lines) >= 10
    for argv in lines:
        assert exit_code(argv) == 0, argv
        assert capsys.readouterr().out, argv


def test_readme_quick_start_runs(capsys):
    block = readme_block("Quick start", "python")
    exec(compile(block, "README.md", "exec"), {})
    printed = block.rstrip().splitlines()[-1].split("#", 1)[1].strip()
    assert capsys.readouterr().out == printed + "\n"
