"""The cyclotome command line: describe / ar-quiver / rep-space / enumerate /
lift / forms / verify / serre-dims.

Sparse-vector literals accept both numeric tokens ``i:a=m`` (vertex, height
residue, multiplicity) and named tokens such as ``sigma(P2)=1`` or ``S1=2``;
see --help.  Identical inputs produce byte-identical output: every collection
is emitted in canonical sorted order.  Exit codes: 0 success, 1 verification
failure or a closed output pipe, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
from .quiver import load_quiver, orient
from .relations import RELATIONS, chevalley_generators, verify, verify_all
from .serre import serre_quotient_dims

SCHEMA_VERSION = 1


def _build_index(args) -> CycIndex:
    if not args.orientation.startswith("file:"):
        return build_index(orient("A2" if args.type is None else args.type, args.orientation))
    path = args.orientation[5:]
    with open(path, encoding="utf-8") as fh:
        quiver = load_quiver(fh.read())
    # orient() normalises the name the way the built-in trees do, so a3 is A3
    if args.type is not None and orient(args.type).dynkin_type != quiver.dynkin_type:
        raise ValueError(
            f"--type {args.type} does not match the {quiver.dynkin_type} quiver in {path}"
        )
    return build_index(quiver)


def _positive_int(text: str) -> int:
    """argparse type for caps: a report that checked zero cases is no pass."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
        key, _, mult = piece.partition("=")
        mult = int(mult) if mult else 1
        key = key.strip()
        if ":" in key:
            i, a = key.split(":")
            vertex = (int(i), int(a) % index.two_h)
        else:
            vertex = _parse_token_name(index, key)
        out[vertex] = out.get(vertex, 0) + mult
    return {k: c for k, c in out.items() if c}


def parse_pair(index: CycIndex, literal: str) -> VWPair:
    """Parse ``v=<sparse>;w=<sparse>`` into a pair (index discipline enforced)."""
    v: dict = {}
    w: dict = {}
    for part in literal.split(";"):
        side, _, body = part.partition("=")
        side = side.strip()
        if side == "v":
            v = parse_sparse(index, body)
        elif side == "w":
            w = parse_sparse(index, body)
        else:
            raise ValueError(f"pair literal needs v=...;w=..., got {side!r}")
    return validate_pair(index, VWPair(v, w))


def _vector_json(vec: dict) -> list:
    return [[i, a, c] for (i, a), c in sorted(vec.items())]


# -- subcommands -----------------------------------------------------------------

def cmd_describe(args) -> int:
    index = _build_index(args)
    q = index.quiver
    gens = chevalley_generators(index)
    if args.json:
        payload = {
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
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"quiver {q} with Coxeter number h = {q.coxeter_number}")
    print(f"heights live mod 2h = {index.two_h}")
    print(f"|I-hat| = {len(index.i_hat)}, |sigma-I-hat| = {len(index.sigma_i_hat)}")
    print("window objects (slot -> object @ vertex):")
    for slot in index.ar.window_slots():
        obj = index.ar.object_of_slot(slot)
        print(
            f"  {slot} -> {index.ar.object_name(obj)} @ {index.vertex_of_slot[slot]}"
        )
    print("Chevalley generators:")
    for name in sorted(gens):
        print(f"  {name} = L{gens[name].pretty(index)}")
    return 0


def cmd_ar_quiver(args) -> int:
    index = _build_index(args)
    if args.dot:
        sys.stdout.write(ar_quiver_dot(index.ar))
        return 0
    for slot in index.ar.window_slots():
        obj = index.ar.object_of_slot(slot)
        print(f"{slot}: {index.ar.object_name(obj)} class={index.ar.class_of[slot]}")
    return 0


def cmd_rep_space(args) -> int:
    index = _build_index(args)
    sys.stdout.write(rep_space_dot(index))
    return 0


def cmd_enumerate(args) -> int:
    index = _build_index(args)
    w = parse_sparse(index, args.w)
    solutions = enumerate_l_dominant(index, w, verify=args.verify)
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "w": _vector_json(w),
            "count": len(solutions),
            "solutions": [_vector_json(v) for v in solutions],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"w = {format_vector(index, w)}")
    print(f"{len(solutions)} l-dominant v:")
    for v in solutions:
        print(f"  {format_vector(index, v)}")
    return 0


def cmd_lift(args) -> int:
    index = _build_index(args)
    wtilde = parse_sparse(index, args.wtilde)
    pair = solve_w_tilde(index, wtilde)
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "wtilde": _vector_json(wtilde),
            "v": _vector_json(pair.v),
            "w": _vector_json(pair.w),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(pair.pretty(index))
    return 0


def cmd_forms(args) -> int:
    index = _build_index(args)
    m1 = parse_pair(index, args.pair[0])
    m2 = parse_pair(index, args.pair[1])
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
        payload = {"schema": SCHEMA_VERSION}
        payload.update({k: repr(v) for k, v in values.items()})
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for name, value in values.items():
        print(f"{name} = {value}")
    return 0


def cmd_verify(args) -> int:
    index = _build_index(args)
    if args.relation == "all":
        reports = verify_all(index, mass_cap=args.mass_cap)
    else:
        reports = verify(index, args.relation, args.mass_cap)
        if not reports:
            # a report list that checked nothing is no pass
            raise ValueError(f"{args.relation} has no cases on {index.quiver.dynkin_type}")
    all_pass = all(r.passed for r in reports)
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "type": index.quiver.dynkin_type,
            "orientation": index.quiver.orientation_label(),
            "reports": [r.to_dict() for r in reports],
            "pass": all_pass,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.markdown:
        print(f"# relation suite: {index.quiver}")
        print("| relation | args | checks | pass |")
        print("|---|---|---|---|")
        for r in reports:
            print(
                f"| {r.relation} | {r.args} | {len(r.checks)} |"
                f" {'yes' if r.passed else 'NO'} |"
            )
        print(f"\noverall: {'pass' if all_pass else 'FAIL'}")
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"{status}  {r.relation}{r.args} [{len(r.checks)} checks]")
            if not r.passed:
                for c in r.checks:
                    if not c.passed:
                        print(f"      {c.name}: computed {c.computed!r} != {c.expected!r}")
        print(f"overall: {'pass' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def cmd_serre_dims(args) -> int:
    index = _build_index(args)
    dims = serre_quotient_dims(index.quiver, args.maxdeg)
    rows = []
    all_ok = True
    for beta in sorted(dims):
        kostant = kostant_partitions(index, beta)
        ok = dims[beta] == kostant
        all_ok = all_ok and ok
        rows.append((beta, dims[beta], kostant, ok))
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "maxdeg": args.maxdeg,
            "rows": [
                {"degree": list(beta), "dim": d, "kostant": k, "pass": ok}
                for beta, d, k, ok in rows
            ],
            "pass": all_ok,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for beta, d, k, ok in rows:
            print(f"degree {beta}: dim {d}, kostant {k} {'ok' if ok else 'MISMATCH'}")
        print(f"overall: {'pass' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotome",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--type",
            help="Dynkin type, e.g. A3, D4, E6 (default A2; with file: the file's type)",
        )
        p.add_argument(
            "--orientation",
            default="linear",
            help="linear | alternating | file:<path>",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("describe", help="heights, index sets, window, generators")
    common(p)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("ar-quiver", help="the derived window and its arrows")
    common(p)
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    p.set_defaults(fn=cmd_ar_quiver)

    p = sub.add_parser("rep-space", help="the framed ladder diagram as DOT")
    common(p)
    p.set_defaults(fn=cmd_rep_space)

    p = sub.add_parser("enumerate", help="all l-dominant v for a given w")
    common(p)
    p.add_argument("--w", required=True, help="sparse vector literal")
    p.add_argument("--verify", action="store_true", help="cross-check by brute force")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("lift", help="the unique dominant lift of a W+ weight")
    common(p)
    p.add_argument("--wtilde", required=True, help="sparse vector literal in W+")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("forms", help="all form values for a pair of pairs")
    common(p)
    p.add_argument(
        "--pair",
        action="append",
        required=True,
        help="pair literal 'v=<sparse>;w=<sparse>' (give twice)",
    )
    p.set_defaults(fn=cmd_forms)

    p = sub.add_parser("verify", help="run the relation suite")
    common(p)
    p.add_argument("relation", choices=["all", *RELATIONS])
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--mass-cap", type=_positive_int, default=3)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("serre-dims", help="graded dimensions vs Kostant counts")
    common(p)
    p.add_argument("--maxdeg", type=_positive_int, default=4)
    p.set_defaults(fn=cmd_serre_dims)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "forms" and len(args.pair) != 2:
        parser.error("forms needs exactly two --pair literals")
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (`cyclotome ... | head`): point stdout at
        # devnull so the flush at exit cannot raise again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        # malformed literals, bad quiver files, weights outside the supported
        # cones: usage errors, matching argparse's exit convention
        print(f"cyclotome: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
