"""The four benchmark workloads.

Each workload has three parts, run by ``worker.py`` in one fresh interpreter:

- ``setup(seed, out_dir)`` imports what it needs, builds indices and makes
  the inputs from the seed (``weight_mass`` in the state is the total mass
  of the weight vectors handed to the library);
- ``run(state)`` is the measured pass: it calls the library (or the command
  line) on the inputs and returns one ``Case`` per call, with its latency;
- ``check(state, cases)`` is the correctness gate, run after the pass and
  outside its timing.  It marks each case passed or failed by what the
  output means (counts, pass flags, parsed JSON), never by its bytes.

``runs_in_children`` is true when the pass runs the library in child
interpreters (``session``): their imports, memory and spans are the pass's.

The library is always reached through module attributes looked up at call
time, so that a traced pass sees the wrapped functions.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import product
from time import perf_counter

from tracer import check_pairs

HERE = os.path.dirname(os.path.abspath(__file__))

# verify all: (type, mass cap, checks, same-form pairs, same-n pairs).
RELATIONS_INPUTS = (
    ("A3", 3, 448, 17, 29 * 29),
    ("D4", 3, 789, 75, 53 * 53),
    ("E6", 1, 1753, 666, 7 * 7),
)

ENUM_TYPES = ("A3", "A4", "D4", "A5", "D5", "E6")
# Lift-work targets, one case each per type and pass.  The time of an
# enumeration is close to proportional to its lift work (the iota calls it
# makes), so drawing each weight until its work is within the tolerance of
# its target keeps the cost of a pass nearly independent of the seed.
ENUM_WORK_TARGETS = (2,) * 4 + (4,) * 4 + (8,) * 4 + (16,) * 4 + (32,) * 2 + (64,) * 2
ENUM_WORK_TOLERANCE = 0.1
ENUM_LIFTS_PER_TYPE = 2
# Brute-force cross-checks: mass-1 weights, whose search cost is nearly uniform.
ENUM_VERIFY_TYPE, ENUM_VERIFY_CASES, ENUM_VERIFY_MASS = "A3", 12, 1
ENUM_MAX_DRAWS = 20000

SERRE_DIMS_INPUTS = (("A4", 5), ("D4", 5), ("E6", 4))
SERRE_ORACLE_TYPES = ("D5", "E6")
# Oracle cases are chunks of 32 triples (32 divides 800 and 2592), dealt
# serpentine-wise from the triples sorted by the size of their intertwiner
# system, which sets their cost.  Every chunk then holds the same mix of small
# and large systems, so chunk latencies cluster and their percentiles do not
# depend on where a few very large systems land.
SERRE_ORACLE_CHUNK = 32

SESSION_TYPES = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8")
SESSION_VERIFY = {"ef": ("A1", "A2", "A3", "A4", "D4", "D5"), "ek": ("A1", "A2", "A3", "D4")}
SESSION_CALL_TIMEOUT_S = 120

ORIENTATIONS = ("linear", "alternating")


class Case:
    __slots__ = ("label", "seconds", "result", "ok", "why")

    def __init__(self, label, seconds, result):
        self.label = label
        self.seconds = seconds
        self.result = result
        self.ok = False
        self.why = "not checked"

    def judge(self, ok, why=""):
        self.ok, self.why = bool(ok), ("" if ok else why)


def _timed(label, fn, *args, **kwargs) -> Case:
    """Run one library call; an exception is the case's result, not a crash."""
    t0 = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the gate reports it as a failed case
        result = exc
    return Case(label, perf_counter() - t0, result)


def _raised(case: Case) -> bool:
    if isinstance(case.result, Exception):
        case.judge(False, f"raised {case.result!r}")
        return True
    return False


def _sparse(vec) -> tuple:
    return tuple(sorted((k, c) for k, c in vec.items() if c))


# -- the independent count -----------------------------------------------------------

def kostant_product_count(m, mp, kostant) -> int:
    """Number of l-dominant v for w = sum m_i sigma(S_i) + mp_i sigma(Sigma S_i).

    Sum over Cartan splits c <= min(m, mp) of K(m - c) K(mp - c) prod(c_i + 1),
    where ``kostant(beta)`` counts Kostant partitions of beta.
    """
    total = 0
    for c in product(*(range(min(a, b) + 1) for a, b in zip(m, mp))):
        factor = 1
        for ci in c:
            factor *= ci + 1
        plus = tuple(a - ci for a, ci in zip(m, c))
        minus = tuple(b - ci for b, ci in zip(mp, c))
        total += kostant(plus) * kostant(minus) * factor
    return total


class KostantTable:
    """Memoised ``kostant_partitions`` per index (it rebuilds its cache per call)."""

    def __init__(self, index):
        self.index = index
        self._memo: dict[tuple, int] = {}

    def __call__(self, beta) -> int:
        beta = tuple(beta)
        if beta not in self._memo:
            from cyclotome import dominance

            self._memo[beta] = dominance.kostant_partitions(self.index, beta)
        return self._memo[beta]


class LiftWork:
    """The lift work of enumerating a weight: the iota calls it makes.

    ``enumerate_l_dominant`` lifts every Kostant multiset of beta+ and beta-
    for every Cartan split, with one iota call per distinct root in the
    multiset.  The multisets of beta that contain the root r are those of
    beta - r, so lifting all of them costs sum_r K(beta - r).  Its own
    partition count shares one memo across all beta, which keeps drawing
    weights cheap; the correctness gate uses ``kostant_partitions`` instead.
    """

    def __init__(self, index):
        from cyclotome import dominance

        self.roots = tuple(dominance.positive_roots(index))
        self._count: dict[tuple, int] = {}
        self._work: dict[tuple, int] = {}

    def partitions(self, beta, start=0) -> int:
        key = (beta, start)
        if key not in self._count:
            if not any(beta):
                total = 1
            elif start == len(self.roots):
                total = 0
            else:
                total = self.partitions(beta, start + 1)
                r = self.roots[start]
                if all(b >= x for b, x in zip(beta, r)):
                    total += self.partitions(tuple(b - x for b, x in zip(beta, r)), start)
            self._count[key] = total
        return self._count[key]

    def lift(self, beta) -> int:
        if beta not in self._work:
            self._work[beta] = sum(
                self.partitions(tuple(b - x for b, x in zip(beta, r)))
                for r in self.roots
                if all(b >= x for b, x in zip(beta, r))
            )
        return self._work[beta]

    def __call__(self, m, mp) -> int:
        total = 0
        for c in product(*(range(min(a, b) + 1) for a, b in zip(m, mp))):
            total += self.lift(tuple(a - ci for a, ci in zip(m, c)))
            total += self.lift(tuple(b - ci for b, ci in zip(mp, c)))
        return total


def weight_vector(index, m, mp) -> dict:
    """w with multiplicity m_i on sigma(S_i) and mp_i on sigma(Sigma S_i)."""
    w = {}
    for i, (a, b) in enumerate(zip(m, mp), start=1):
        s = index.vertex_of_slot[index.ar.simple[i]]
        if a:
            w[index.sigma(s)] = a
        if b:
            w[index.sigma(index.shift_vertex(s))] = b
    return w


def _neighbours(quiver) -> dict[int, list[int]]:
    adj = {i: [] for i in quiver.vertices}
    for s, t in quiver.arrows:
        adj[s].append(t)
        adj[t].append(s)
    return adj


def _draw_multiplicities(rng, quiver, concentrated):
    n = quiver.n
    m, mp = [0] * n, [0] * n
    if concentrated:
        adj = _neighbours(quiver)
        size = rng.randint(2, min(4, n))
        support = [rng.randint(1, n)]
        while len(support) < size:
            support.append(rng.choice([j for i in support for j in adj[i] if j not in support]))
        for i in support:
            m[i - 1] = rng.randint(1, 2)
            mp[i - 1] = rng.randint(0, 2)
    else:
        for _ in range(rng.randint(1, n + 2)):
            side = m if rng.random() < 0.5 else mp
            side[rng.randrange(n)] += 1
    return m, mp


# -- relations ------------------------------------------------------------------------

class Relations:
    """cyclotome verify all --json through cli.main, in one interpreter."""

    runs_in_children = False

    def setup(self, seed, out_dir):
        import cyclotome.cli

        return {"cli": cyclotome.cli}

    def run(self, state):
        cli = state["cli"]
        cases = []
        for dynkin_type, mass_cap, *_ in RELATIONS_INPUTS:
            argv = ["verify", "all", "--type", dynkin_type, "--orientation", "alternating",
                    "--mass-cap", str(mass_cap), "--json"]
            buf = io.StringIO()
            with redirect_stdout(buf):
                case = _timed(f"verify all {dynkin_type}", cli.main, argv)
            case.result = (case.result, buf.getvalue())
            cases.append(case)
        return cases

    def check(self, state, cases):
        for case, (_, _, checks, form_pairs, n_pairs) in zip(cases, RELATIONS_INPUTS):
            rc, text = case.result
            if isinstance(rc, Exception) or rc != 0:
                case.judge(False, f"exit {rc!r}")
                continue
            try:
                payload = json.loads(text)
                found = [c for r in payload["reports"] for c in r["checks"]]
            except (ValueError, KeyError, TypeError) as exc:
                case.judge(False, f"unreadable report: {exc!r}")
                continue
            pairs = dict(filter(None, (check_pairs(c["name"]) for c in found)))
            failing = [c["name"] for c in found if c.get("pass") is not True]
            expected = {"same-form": form_pairs, "same-n": n_pairs}
            case.judge(
                payload.get("pass") is True and not failing and len(found) == checks
                and pairs == expected,
                f"{len(found)} checks (want {checks}), pairs {pairs} (want {expected}), "
                f"failing {failing[:3]}",
            )
            case.result = len(found)  # drop the text once judged


# -- enumerate -------------------------------------------------------------------------

class Enumerate:
    """enumerate_l_dominant and solve_w_tilde on indices built during set-up."""

    runs_in_children = False

    def setup(self, seed, out_dir):
        import cyclotome

        rng = random.Random(seed)
        inputs = []
        indices = {}
        for dynkin_type in ENUM_TYPES:
            index = cyclotome.build_index(cyclotome.orient(dynkin_type, "alternating"))
            indices[dynkin_type] = index
            work = LiftWork(index)
            for target in ENUM_WORK_TARGETS:
                m, mp = self._draw_with_work(rng, index.quiver, work, target)
                inputs.append(("enumerate", dynkin_type, m, mp))
            w_plus = sorted(cyclotome.cones(index).w_plus)
            for _ in range(ENUM_LIFTS_PER_TYPE):
                wtilde = {}
                for _ in range(rng.randint(1, 4)):
                    y = rng.choice(w_plus)
                    wtilde[y] = wtilde.get(y, 0) + 1
                inputs.append(("lift", dynkin_type, wtilde, None))
        n = indices[ENUM_VERIFY_TYPE].quiver.n
        for _ in range(ENUM_VERIFY_CASES):
            m, mp = [0] * n, [0] * n
            for _ in range(ENUM_VERIFY_MASS):
                (m if rng.random() < 0.5 else mp)[rng.randrange(n)] += 1
            inputs.append(("verify", ENUM_VERIFY_TYPE, m, mp))
        rng.shuffle(inputs)
        calls = [
            (kind, t, x if kind == "lift" else weight_vector(indices[t], x, y))
            for kind, t, x, y in inputs
        ]
        mass = sum(sum(vec.values()) for _, _, vec in calls)
        return {"lib": cyclotome, "indices": indices, "inputs": inputs, "calls": calls,
                "weight_mass": mass}

    @staticmethod
    def _draw_with_work(rng, quiver, work, target):
        lo, hi = target * (1 - ENUM_WORK_TOLERANCE), target * (1 + ENUM_WORK_TOLERANCE)
        for k in range(ENUM_MAX_DRAWS):
            m, mp = _draw_multiplicities(rng, quiver, concentrated=k % 2 == 1)
            if lo <= work(m, mp) <= hi:
                return m, mp
        raise RuntimeError(f"no {quiver.dynkin_type} weight with lift work near {target}")

    def run(self, state):
        lib, indices = state["lib"], state["indices"]
        cases = []
        for kind, dynkin_type, vec in state["calls"]:
            index = indices[dynkin_type]
            if kind == "lift":
                cases.append(_timed(f"lift {dynkin_type}", lib.solve_w_tilde, index, vec))
            else:
                cases.append(_timed(f"{kind} {dynkin_type}", lib.enumerate_l_dominant,
                                    index, vec, verify=kind == "verify"))
        return cases

    def check(self, state, cases):
        lib, indices = state["lib"], state["indices"]
        tables = {t: KostantTable(index) for t, index in indices.items()}
        for case, (kind, dynkin_type, x, y), (_, _, vec) in zip(cases, state["inputs"], state["calls"]):
            if _raised(case):
                continue
            index = indices[dynkin_type]
            if kind != "lift":
                expected = kostant_product_count(x, y, tables[dynkin_type])
                got = len(case.result)
                distinct = len({_sparse(v) for v in case.result})
                case.judge(got == expected == distinct and got > 0,
                           f"{got} solutions ({distinct} distinct), Kostant count {expected}")
            else:
                co = lib.cones(index)
                pair = case.result
                case.judge(
                    _sparse(lib.residual(index, pair)) == _sparse(vec)
                    and set(pair.v) <= co.v_plus and set(pair.w) <= co.w_s and pair.w,
                    f"lift {pair!r} does not solve w - C_q v = {vec}",
                )
            case.result = None


# -- serre_rank -------------------------------------------------------------------------

class SerreRank:
    """The exact-rank kernels: Bareiss over Z[t] and the Fraction-RREF Hom oracle."""

    runs_in_children = False

    def setup(self, seed, out_dir):
        import cyclotome

        types = {t for t, _ in SERRE_DIMS_INPUTS} | set(SERRE_ORACLE_TYPES)
        indices = {t: cyclotome.build_index(cyclotome.orient(t, "alternating")) for t in sorted(types)}
        rng = random.Random(seed)
        chunks = []
        for t in SERRE_ORACLE_TYPES:
            ar = indices[t].ar
            triples = [
                (cyclotome.DerivedObject(x, 0), cyclotome.DerivedObject(y, gap))
                for x in ar.modules for y in ar.modules for gap in (0, 1)
            ]
            rng.shuffle(triples)  # the seed orders triples of equal size
            triples.sort(key=lambda xy: sum(
                a * b for a, b in zip(ar.root_of[xy[0].slot], ar.root_of[xy[1].slot])))
            n_chunks = len(triples) // SERRE_ORACLE_CHUNK
            dealt = [[] for _ in range(n_chunks)]
            for k, triple in enumerate(triples):  # serpentine: n_chunks per round
                turn, seat = divmod(k, n_chunks)
                dealt[seat if turn % 2 == 0 else n_chunks - 1 - seat].append(triple)
            chunks += [(t, chunk) for chunk in dealt]
        return {"lib": cyclotome, "indices": indices, "chunks": chunks}

    def run(self, state):
        lib, indices = state["lib"], state["indices"]
        cases = [
            _timed(f"serre dims {t} to {d}", lib.serre_quotient_dims, indices[t].quiver, d)
            for t, d in SERRE_DIMS_INPUTS
        ]
        for k, (t, chunk) in enumerate(state["chunks"]):
            ar = indices[t].ar
            t0 = perf_counter()
            try:
                result = [(lib.hom_dim_bruteforce(ar, x, y), ar.hom_dim(x, y)) for x, y in chunk]
            except Exception as exc:
                result = exc
            cases.append(Case(f"hom chunk {k} of {t}", perf_counter() - t0, result))
        return cases

    def check(self, state, cases):
        indices = state["indices"]
        for case, (t, maxdeg) in zip(cases, SERRE_DIMS_INPUTS):
            if _raised(case):
                continue
            kostant = KostantTable(indices[t])
            n = indices[t].quiver.n
            degrees = {b for b in product(range(maxdeg + 1), repeat=n) if 1 <= sum(b) <= maxdeg}
            dims = case.result
            wrong = [b for b in sorted(degrees) if dims.get(b) != kostant(b)]
            case.judge(dims and set(dims) == degrees and not wrong,
                       f"{len(dims)} degrees, Kostant mismatch at {wrong[:3]}")
        for case in cases[len(SERRE_DIMS_INPUTS):]:
            if _raised(case):
                continue
            wrong = [(k, brute, closed) for k, (brute, closed) in enumerate(case.result) if brute != closed]
            case.judge(case.result and not wrong, f"oracle != closed formula at {wrong[:3]}")


# -- session ------------------------------------------------------------------------------

def _numeric_token(vertex, mult) -> str:
    return f"{vertex[0]}:{vertex[1]}={mult}"


def _sparse_literal(rng, vertices, most) -> str:
    vec = {}
    for _ in range(rng.randint(0, most)):
        v = rng.choice(vertices)
        vec[v] = vec.get(v, 0) + rng.randint(1, 2)
    return ",".join(_numeric_token(v, c) for v, c in sorted(vec.items())) or "0"


class Session:
    """Short command-line calls, each in a fresh child interpreter, one at a time."""

    runs_in_children = True

    def setup(self, seed, out_dir):
        import cyclotome

        rng = random.Random(seed)
        indices = {}

        def index_of(t, o):
            if (t, o) not in indices:
                indices[(t, o)] = cyclotome.build_index(cyclotome.orient(t, o))
            return indices[(t, o)]

        calls = []

        def add(command, t, o, extra, expect=None, json_flag=None):
            argv = [*command.split(), "--type", t, "--orientation", o, *extra]
            if json_flag is None:
                json_flag = rng.random() < 0.5
            if json_flag:
                argv.append("--json")
            calls.append({"argv": argv, "kind": argv[0], "type": t, "orientation": o,
                          "json": json_flag, "expect": expect})

        weight_mass = 0
        for t in SESSION_TYPES:
            o = rng.choice(ORIENTATIONS)
            index = index_of(t, o)
            add("describe", t, o, [])
            add("ar-quiver", t, rng.choice(ORIENTATIONS), ["--dot"], json_flag=False)
            add("rep-space", t, rng.choice(ORIENTATIONS), [], json_flag=False)
            w_plus = sorted(cyclotome.cones(index).w_plus)
            wtilde = {}
            for _ in range(rng.randint(1, 3)):
                y = rng.choice(w_plus)
                wtilde[y] = wtilde.get(y, 0) + 1
            weight_mass += sum(wtilde.values())
            add("lift", t, o, ["--wtilde", ",".join(_numeric_token(v, c) for v, c in sorted(wtilde.items()))],
                expect=_sparse(wtilde))
            pairs = []
            for _ in range(2):
                v_lit = _sparse_literal(rng, sorted(index.sigma_i_hat), 2)
                w_lit = _sparse_literal(rng, sorted(index.i_hat), 2)
                pairs += ["--pair", f"v={v_lit};w={w_lit}"]
            add("forms", t, o, pairs)
            table = KostantTable(index)
            for json_flag in (False, True):
                n = index.quiver.n
                m, mp = [0] * n, [0] * n
                for _ in range(rng.randint(1, 3)):
                    (m if rng.random() < 0.5 else mp)[rng.randrange(n)] += 1
                weight_mass += sum(m) + sum(mp)
                tokens = [f"sigma(S{i})={a}" for i, a in enumerate(m, 1) if a]
                tokens += [f"sigma(SigmaS{i})={b}" for i, b in enumerate(mp, 1) if b]
                add("enumerate", t, o, ["--w", ",".join(tokens)],
                    expect=kostant_product_count(m, mp, table), json_flag=json_flag)
            degrees = sum(1 for b in product(range(4), repeat=index.quiver.n) if 1 <= sum(b) <= 3)
            add("serre-dims", t, rng.choice(ORIENTATIONS), ["--maxdeg", "3"], expect=degrees)
        for relation, types in sorted(SESSION_VERIFY.items()):
            for t in types:
                for o in ORIENTATIONS:
                    add(f"verify {relation}", t, o, [])
        rng.shuffle(calls)
        return {"lib": cyclotome, "calls": calls, "index_of": index_of, "out_dir": out_dir,
                "trace": False, "weight_mass": weight_mass}

    def run(self, state):
        env = child_env()
        cases = []
        child = os.path.join(HERE, "cli_child.py")
        for k, call in enumerate(state["calls"]):
            cmd = [sys.executable, "-S", child]
            if state["trace"]:
                cmd += ["--trace-out", os.path.join(state["out_dir"], f"session-child-{k}.spans")]
            cmd += ["--", *call["argv"]]
            t0 = perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, env=env,
                                      timeout=SESSION_CALL_TIMEOUT_S)
                result = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
            except subprocess.TimeoutExpired as exc:
                result = exc
            cases.append(Case(" ".join(call["argv"][:3]), perf_counter() - t0, result))
        return cases

    def check(self, state, cases):
        lib = state["lib"]
        for case, call in zip(cases, state["calls"]):
            if _raised(case):
                continue
            rc, out, err = case.result
            case.result = None
            if rc != 0 or not out.strip():
                case.judge(False, f"exit {rc}, {len(out)} bytes out, stderr {err.strip()[-200:]!r}")
                continue
            try:
                ok, why = self._meaning(lib, state["index_of"], call, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                ok, why = False, f"unreadable output: {exc!r}"
            case.judge(ok, why)

    @staticmethod
    def _meaning(lib, index_of, call, out):
        kind, expect, as_json = call["kind"], call["expect"], call["json"]
        payload = json.loads(out) if as_json else None
        lines = out.splitlines()
        if kind == "enumerate":
            if as_json:
                got = payload["count"]
                ok = got == len(payload["solutions"]) == expect
            else:
                got = int(lines[1].split()[0])
                ok = got == expect == sum(1 for line in lines[2:] if line.startswith("  "))
            return ok and got > 0, f"{got} solutions, Kostant count {expect}"
        if kind == "verify":
            if as_json:
                checks = [c for r in payload["reports"] for c in r["checks"]]
                ok = payload["pass"] is True and all(c["pass"] is True for c in checks)
            else:
                checks = [line for line in lines if line.startswith("pass ")]
                ok = lines[-1] == "overall: pass" and not any("FAIL" in line for line in lines)
            return ok and len(checks) > 0, "verification did not pass"
        if kind == "serre-dims":
            if as_json:
                rows = payload["rows"]
                ok = payload["pass"] is True and all(r["dim"] == r["kostant"] for r in rows)
            else:
                rows = [line for line in lines if line.startswith("degree ")]
                ok = lines[-1] == "overall: pass" and all(line.endswith(" ok") for line in rows)
            return ok and len(rows) == expect, f"{len(rows)} degrees (want {expect})"
        if kind == "lift" and as_json:
            index = index_of(call["type"], call["orientation"])
            pair = lib.VWPair({(i, a): c for i, a, c in payload["v"]},
                              {(i, a): c for i, a, c in payload["w"]})
            return _sparse(lib.residual(index, pair)) == expect, "lift misses its wtilde"
        if kind in ("ar-quiver", "rep-space"):
            return lines[0].startswith("digraph") and lines[-1] == "}", "not a DOT digraph"
        return True, ""


def child_env() -> dict:
    """Environment for child interpreters: the library comes from the checkout."""
    env = dict(os.environ)
    for key in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(key, None)
    env["PYTHONHASHSEED"] = "0"
    return env


WORKLOADS = {
    "relations": Relations,
    "enumerate": Enumerate,
    "session": Session,
    "serre_rank": SerreRank,
}
