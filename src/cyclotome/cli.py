"""The cyclotome command line: describe / ar-quiver / rep-space / enumerate /
lift / forms / verify / serre-dims.

Sparse-vector literals accept both numeric tokens ``i:a=m`` (vertex, height
residue, multiplicity) and named tokens such as ``sigma(P2)=1`` or ``S1=2``.
Identical inputs produce byte-identical output: every collection is emitted
in canonical sorted order.  Options take their value as ``--opt value`` or
``--opt=value`` and are spelled in full; ``cyclotome <command> --help`` lists
them.  Exit codes: 0 success, 1 verification failure or a closed output pipe,
2 usage error.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .cyclic import CycIndex, build_index, rep_space_dot
from .derived import ar_quiver_dot
from .dominance import (
    VWPair,
    enumerate_l_dominant,
    format_vector,
    kostant_partitions,
    solve_w_tilde,
    validate_pair,
)
from .forms import (
    d_form,
    leading_exponent,
    leading_exponent_tilde,
    n_phi,
    deg_phi,
    script_n,
    twist_exponent,
)
from .laurent import FormalSum
from .quiver import load_quiver, orient
from .relations import RELATIONS, chevalley_generators, verify, verify_all
from .serre import serre_quotient_dims

SCHEMA_VERSION = 1


def _build_index(args) -> CycIndex:
    if not args.orientation.startswith("file:"):
        return build_index(orient("A2" if args.type is None else args.type, args.orientation))
    path = args.orientation[5:]
    with open(path, encoding="utf-8-sig") as fh:
        quiver = load_quiver(fh.read())
    # orient() normalises the name the way the built-in trees do, so a3 is A3
    if args.type is not None and orient(args.type).dynkin_type != quiver.dynkin_type:
        raise ValueError(
            f"--type {args.type} does not match the {quiver.dynkin_type} quiver in {path}"
        )
    return build_index(quiver)


def _parse_token_name(index: CycIndex, name: str):
    """Resolve S1 / P2 / I3 / SigmaS1 / sigma(...) to a vertex."""
    name = name.strip()
    if name.startswith("sigma(") and name.endswith(")"):
        inner = _parse_token_name(index, name[6:-1])
        return index.sigma(inner)
    shift = False
    if name.startswith("Sigma"):
        shift = True
        name = name[5:]
    if not name:
        raise ValueError("empty object token")
    kind, label = name[0], name[1:]
    slots = {
        "S": index.ar.simple, "P": index.ar.projective, "I": index.ar.injective
    }.get(kind)
    if slots is None:
        raise ValueError(f"unknown object token {kind!r}")
    if not label.isdigit() or int(label) not in slots:
        raise ValueError(f"{name!r} names no vertex of {index.quiver.dynkin_type}")
    v = index.vertex_of_slot[slots[int(label)]]
    return index.shift_vertex(v) if shift else v


def parse_sparse(index: CycIndex, literal: str) -> dict:
    """Parse ``i:a=m,...`` and named tokens into a vertex-keyed dict."""
    out: dict = {}
    literal = literal.strip()
    if not literal or literal == "0":
        return out
    for piece in literal.split(","):
        key, eq, mult = piece.partition("=")
        try:
            mult = int(mult) if eq else 1
        except ValueError:
            raise ValueError(f"multiplicity in {piece.strip()!r} is not an integer") from None
        key = key.strip()
        if ":" in key:
            try:
                i, a = map(int, key.split(":"))
            except ValueError:  # a part that is no integer, or not two parts
                raise ValueError(f"numeric token {key!r} is not of the form i:a=m") from None
            vertex = (i, a % index.two_h)
        else:
            vertex = _parse_token_name(index, key)
        out[vertex] = out.get(vertex, 0) + mult
    return {k: c for k, c in out.items() if c}


def parse_pair(index: CycIndex, literal: str) -> VWPair:
    """Parse ``v=<sparse>;w=<sparse>`` into a pair (index discipline enforced)."""
    sides: dict = {}
    for part in literal.split(";"):
        side, _, body = part.partition("=")
        side = side.strip()
        if side not in ("v", "w"):
            raise ValueError(f"pair literal needs v=...;w=..., got {side!r}")
        if side in sides:
            raise ValueError(f"pair literal names {side} twice")
        sides[side] = parse_sparse(index, body)
    return validate_pair(index, VWPair(sides.get("v", {}), sides.get("w", {})))


def _vector_json(vec: dict) -> list:
    return [[i, a, c] for (i, a), c in sorted(vec.items())]


def print_json(payload) -> None:
    """Print the bytes of ``json.dumps(payload, indent=2, sort_keys=True)``
    without importing json, which loads re and enum.  Strings go through the
    C quoting that json.dumps itself uses; a payload holds only str, int,
    True, False, None, lists, tuples and str-keyed dicts, and anything else
    raises TypeError before a byte is printed."""
    from _json import encode_basestring_ascii as quote  # only JSON output pays for it

    def text(obj, indent: str) -> str:
        if isinstance(obj, str):
            return quote(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        inner = indent + "  "
        if isinstance(obj, (list, tuple)):
            items = [text(item, inner) for item in obj]
            return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
        if not isinstance(obj, dict):
            raise TypeError(f"a {type(obj).__name__} has no JSON form here")
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be str")
        items = [f"{quote(key)}: {text(value, inner)}" for key, value in sorted(obj.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"

    print(text(payload, "\n"))


# -- subcommands -----------------------------------------------------------------

def cmd_describe(index: CycIndex, args) -> int:
    q = index.quiver
    gens = chevalley_generators(index)
    if args.json:
        print_json({
            "schema": SCHEMA_VERSION,
            "type": q.dynkin_type,
            "orientation": q.orientation_label(),
            "coxeter_number": q.coxeter_number,
            "heights_mod": index.two_h,
            "xi": {str(i): index.xi[i] for i in q.vertices},
            "sigma_i_hat_size": len(index.sigma_i_hat),
            "i_hat_size": len(index.i_hat),
            "window": [
                {
                    "slot": list(slot),
                    "object": index.ar.object_name(index.ar.object_of_slot(slot)),
                    "class": list(index.ar.class_of[slot]),
                    "vertex": list(index.vertex_of_slot[slot]),
                }
                for slot in index.ar.window_slots()
            ],
            "generators": {
                name: {"v": _vector_json(p.v), "w": _vector_json(p.w)}
                for name, p in sorted(gens.items())
            },
        })
        return 0
    print(f"quiver {q} with Coxeter number h = {q.coxeter_number}")
    print(f"heights live mod 2h = {index.two_h}")
    print(f"|I-hat| = {len(index.i_hat)}, |sigma-I-hat| = {len(index.sigma_i_hat)}")
    print("window objects (slot -> object @ vertex):")
    for slot in index.ar.window_slots():
        obj = index.ar.object_of_slot(slot)
        print(f"  {slot} -> {index.ar.object_name(obj)} @ {index.vertex_of_slot[slot]}")
    print("Chevalley generators:")
    for name in sorted(gens):
        print(f"  {name} = L{gens[name].pretty(index)}")
    return 0


def cmd_ar_quiver(index: CycIndex, args) -> int:
    if args.dot:
        sys.stdout.write(ar_quiver_dot(index.ar))
        return 0
    for slot in index.ar.window_slots():
        obj = index.ar.object_of_slot(slot)
        print(f"{slot}: {index.ar.object_name(obj)} class={index.ar.class_of[slot]}")
    return 0


def cmd_rep_space(index: CycIndex, args) -> int:
    sys.stdout.write(rep_space_dot(index))
    return 0


def cmd_enumerate(index: CycIndex, args) -> int:
    w = parse_sparse(index, args.w)
    solutions = enumerate_l_dominant(index, w, verify=args.verify)
    if args.json:
        print_json({
            "schema": SCHEMA_VERSION,
            "w": _vector_json(w),
            "count": len(solutions),
            "solutions": [_vector_json(v) for v in solutions],
        })
        return 0
    print(f"w = {format_vector(index, w)}")
    print(f"{len(solutions)} l-dominant v:")
    for v in solutions:
        print(f"  {format_vector(index, v)}")
    return 0


def cmd_lift(index: CycIndex, args) -> int:
    wtilde = parse_sparse(index, args.wtilde)
    pair = solve_w_tilde(index, wtilde)
    if args.json:
        print_json({
            "schema": SCHEMA_VERSION,
            "wtilde": _vector_json(wtilde),
            "v": _vector_json(pair.v),
            "w": _vector_json(pair.w),
        })
        return 0
    print(pair.pretty(index))
    return 0


def cmd_forms(index: CycIndex, args) -> int:
    m1, m2 = (parse_pair(index, literal) for literal in args.pair)
    values = {
        "d(m1,m2)": d_form(index, m1, m2),
        "d(m2,m1)": d_form(index, m2, m1),
        "leading_exponent_tilde(m1,m2)": leading_exponent_tilde(index, m1, m2),
        "twist_exponent(w1,w2)": twist_exponent(index, m1.w, m2.w),
        "leading_exponent(m1,m2)": leading_exponent(index, m1, m2),
        "script_N(m1,m2)": script_n(index, m1, m2),
        "N_phi(w1)": n_phi(index, m1.w),
        "N_phi(w2)": n_phi(index, m2.w),
        "deg_phi(w1)": deg_phi(index, m1.w),
        "deg_phi(w2)": deg_phi(index, m2.w),
    }
    if args.json:
        print_json({"schema": SCHEMA_VERSION, **{k: repr(v) for k, v in values.items()}})
        return 0
    for name, value in values.items():
        print(f"{name} = {value}")
    return 0


def cmd_verify(index: CycIndex, args) -> int:
    if args.relation == "all":
        reports = verify_all(index, mass_cap=args.mass_cap)
    else:
        reports = verify(index, args.relation, args.mass_cap)
        if not reports:
            # a report list that checked nothing is no pass
            raise ValueError(f"{args.relation} has no cases on {index.quiver.dynkin_type}")
    # each check is judged once, and every output form reads these verdicts
    verdicts = [[c.passed for c in r.checks] for r in reports]
    passes = [all(v) for v in verdicts]
    all_pass = all(passes)
    if args.json:
        _print_verify_json(index, reports, verdicts, passes, all_pass)
    elif args.markdown:
        print(f"# relation suite: {index.quiver}")
        print("| relation | args | checks | pass |")
        print("|---|---|---|---|")
        for r, ok in zip(reports, passes):
            print(f"| {r.relation} | {r.args} | {len(r.checks)} | {'yes' if ok else 'NO'} |")
        print(f"\noverall: {'pass' if all_pass else 'FAIL'}")
    else:
        for r, verdict, ok in zip(reports, verdicts, passes):
            print(f"{'pass' if ok else 'FAIL'}  {r.relation}{r.args} [{len(r.checks)} checks]")
            for c, c_ok in zip(r.checks, verdict):
                if not c_ok:
                    print(f"      {c.name}: {_first_failure(c.computed, c.expected)}")
        print(f"overall: {'pass' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def _print_verify_json(index: CycIndex, reports, verdicts, passes, all_pass) -> None:
    """Print the bytes that print_json gives for the verify payload, written
    straight from the reports: each check from one template and each report
    from another, their keys already in sorted order.  As in print_json, the
    whole text is built before a byte is printed."""
    from _json import encode_basestring_ascii as quote  # only JSON output pays for it

    def listed(items: list, indent: str) -> str:
        return f"[{','.join(items)}{indent}]" if items else "[]"

    check = ('\n        {\n          "computed": %s,\n          "expected": %s,'
             '\n          "name": %s,\n          "pass": %s\n        }')
    report = ('\n    {\n      "args": %s,\n      "checks": %s,\n      "orientation": %s,'
              '\n      "pass": %s,\n      "relation": %s,\n      "type": %s\n    }')
    out = []
    for r, verdict, ok in zip(reports, verdicts, passes):
        checks = [check % (quote(repr(c.computed)), quote(repr(c.expected)), quote(c.name),
                           "true" if c_ok else "false") for c, c_ok in zip(r.checks, verdict)]
        args = ["\n        " + int.__repr__(a) for a in r.args]
        out.append(report % (listed(args, "\n      "), listed(checks, "\n      "),
                             quote(r.orientation), "true" if ok else "false",
                             quote(r.relation), quote(r.dynkin_type)))
    q = index.quiver
    print('{\n  "orientation": %s,\n  "pass": %s,\n  "reports": %s,\n  "schema": %s,'
          '\n  "type": %s\n}' % (quote(q.orientation_label()), "true" if all_pass else "false",
                                 listed(out, "\n  "), int.__repr__(SCHEMA_VERSION),
                                 quote(q.dynkin_type)))


def _first_failure(computed, expected) -> str:
    """What a failing check shows in text: the count and first entry of a list
    of failing cases, the first differing term of a FormalSum, else both."""
    if expected == [] and isinstance(computed, list):
        return f"{len(computed)} failing cases, first {computed[0]!r}"
    if isinstance(computed, FormalSum) and isinstance(expected, FormalSum):
        ours, theirs = computed.terms, expected.terms
        label = min((k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k)),
                    key=repr)
        return f"at [{label}] computed {ours.get(label, 0)!r} != {theirs.get(label, 0)!r}"
    return f"computed {computed!r} != {expected!r}"


def cmd_serre_dims(index: CycIndex, args) -> int:
    dims = serre_quotient_dims(index.quiver, args.maxdeg)
    rows = [(beta, d, kostant_partitions(index, beta)) for beta, d in sorted(dims.items())]
    all_ok = all(d == k for _, d, k in rows)
    if args.json:
        print_json({
            "schema": SCHEMA_VERSION,
            "maxdeg": args.maxdeg,
            "rows": [{"degree": list(beta), "dim": d, "kostant": k, "pass": d == k}
                     for beta, d, k in rows],
            "pass": all_ok,
        })
    else:
        for beta, d, k in rows:
            print(f"degree {beta}: dim {d}, kostant {k} {'ok' if d == k else 'MISMATCH'}")
        print(f"overall: {'pass' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


REQUIRED = object()  # the default of an entry that must be given

# Each entry is (name, kind, default, help).  An option's kind is "flag" (no
# value), "str", "int" (at least 1: a report that checked zero cases is no
# pass) or "two" (a string given exactly twice); a positional argument's kind
# is its tuple of choices.
COMMON = (
    ("--type", "str", None, "Dynkin type, e.g. A3, D4, E6 (default A2; with file: its type)"),
    ("--orientation", "str", "linear", "linear | alternating | file:<path>"),
    ("--json", "flag", False, "emit JSON"),
)
COMMANDS = {  # command -> (handler, help, entries besides COMMON)
    "describe": (cmd_describe, "heights, index sets, window, generators", ()),
    "ar-quiver": (cmd_ar_quiver, "the derived window and its arrows",
                  (("--dot", "flag", False, "emit a DOT digraph"),)),
    "rep-space": (cmd_rep_space, "the framed ladder diagram as DOT", ()),
    "enumerate": (cmd_enumerate, "all l-dominant v for a given w",
                  (("--w", "str", REQUIRED, "sparse vector literal"),
                   ("--verify", "flag", False, "cross-check by brute force"))),
    "lift": (cmd_lift, "the unique dominant lift of a W+ weight",
             (("--wtilde", "str", REQUIRED, "sparse vector literal in W+"),)),
    "forms": (cmd_forms, "all form values for a pair of pairs",
              (("--pair", "two", REQUIRED, "pair literal 'v=<sparse>;w=<sparse>' (give twice)"),)),
    "verify": (cmd_verify, "run the relation suite",
               (("--markdown", "flag", False, "emit a Markdown table"),
                ("--mass-cap", "int", 3, "largest weight mass to check (default 3)"),
                ("relation", ("all", *RELATIONS), REQUIRED, "the relation to check, or all"))),
    "serre-dims": (cmd_serre_dims, "graded dimensions vs Kostant counts",
                   (("--maxdeg", "int", 4, "largest total degree (default 4)"),)),
}


def _usage(command=None) -> str:
    if command is None:
        return f"usage: cyclotome [-h] {{{','.join(COMMANDS)}}} ..."
    words = [f"usage: cyclotome {command} [-h]"]
    for name, kind, default, _ in COMMON + COMMANDS[command][2]:
        word = name if kind == "flag" else f"{name} {name[2:].upper().replace('-', '_')}"
        word = word if name[0] == "-" else f"{{{','.join(kind)}}}"
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def _usage_error(command, message: str):
    print(f"{_usage(command)}\ncyclotome: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _help(command=None):
    if command is None:
        lines = ["", __doc__ or "", "commands:", *(f"  {c:<14}{s[1]}" for c, s in COMMANDS.items())]
    else:
        _, text, entries = COMMANDS[command]
        lines = ["", text, "", "arguments:", *(f"  {e[0]:<16}{e[3]}" for e in COMMON + entries)]
    print(_usage(command), *lines, sep="\n")
    raise SystemExit(0)


def _choice(command, name: str, token: str, choices) -> str:
    if token not in choices:
        choices = f"(choose from {', '.join(map(repr, choices))})"
        _usage_error(command, f"argument {name}: invalid choice: {token!r} {choices}")
    return token


def parse_args(argv: list[str]):
    """The handler and the arguments of a command line.  -h or --help prints
    help and exits 0; a usage error exits 2."""
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        _help()
    command, tokens = _choice(None, "command", argv[0], COMMANDS), iter(argv[1:])
    handler, entries = COMMANDS[command][0], COMMON + COMMANDS[command][2]
    options = {name: kind for name, kind, _, _ in entries if name[0] == "-"}
    positional = [(name, kind) for name, kind, _, _ in entries if name[0] != "-"]
    values = {}
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        if not token.startswith("-") and positional:
            name, choices = positional.pop(0)
            values[name] = _choice(command, name, token, choices)
            continue
        name, eq, value = token.partition("=")
        kind = options.get(name)
        if kind is None or kind == "flag" and eq:
            _usage_error(command, f"unrecognized arguments: {token}")
        if kind == "flag":
            values[name] = True
            continue
        if not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                _usage_error(command, f"argument {name}: expected one argument")
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"argument {name}: invalid int value: {value!r}")
            if value < 1:
                _usage_error(command, f"argument {name}: must be at least 1, got {value}")
        values[name] = (values.get(name, []) + [value]) if kind == "two" else value
    missing = [e[0] for e in entries if e[2] is REQUIRED and e[0] not in values]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    for name, kind in options.items():
        if kind == "two" and len(values[name]) != 2:
            _usage_error(command, f"{command} needs exactly two {name} literals")
    return handler, SimpleNamespace(**{
        e[0].lstrip("-").replace("-", "_"): values.get(e[0], e[2]) for e in entries
    })


def main(argv=None) -> int:
    handler, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code = handler(_build_index(args), args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (`cyclotome ... | head`): point stdout at
        # devnull so the flush at exit cannot raise again, and exit quietly
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        # malformed literals, bad quiver files, weights outside the supported
        # cones: usage errors, with the exit code of the parser's own
        print(f"cyclotome: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
