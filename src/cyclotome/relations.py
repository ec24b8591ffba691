"""Machine verification of the Chevalley-generator relations.

Every check is an exact equality of integers, half-integers, or formal sums;
nothing is tolerance-based.  The products that appear are assembled from their
proven basis decompositions (leading-term exponents from the d form, the
product twist from the antisymmetrized Euler pairing), so each verifier both
recomputes the inputs of those decompositions and confirms the algebraic
identity they imply.
"""

from __future__ import annotations

from types import SimpleNamespace

from .cyclic import CycIndex
from .derived import DerivedObject
from .dominance import (
    VWPair,
    enumerate_l_dominant,
    iota,
    sigma_simples,
    v_f,
    v_sigma_f,
    w_f,
)
from .forms import (
    d_form,
    euler_a,
    hl_extension,
    leading_exponent,
    leading_exponent_tilde,
    pair_residual,
    phi,
    script_n,
    twist_exponent,
    window_height,
)
from .laurent import FormalSum, HalfInt, HalfLaurent, T, T_INV
from .quiver import cartan_entry, euler_form, unit_vector
from .vectors import add, canonical_order, scale


class CaseMismatchError(ValueError):
    pass


class SerreExpansionError(RuntimeError):
    """A product in the Serre expansion reached a label outside the three it
    tracks; signals an internal bug."""


class Check(SimpleNamespace):
    def __init__(self, name: str, computed: object, expected: object):
        super().__init__(name=name, computed=computed, expected=expected)

    def __reduce__(self):
        return type(self), (self.name, self.computed, self.expected)

    @property
    def passed(self) -> bool:
        return self.computed == self.expected


class VerificationReport(SimpleNamespace):
    def __init__(self, relation: str, dynkin_type: str, orientation: str, args: tuple,
                 checks: list[Check] | None = None):
        super().__init__(relation=relation, dynkin_type=dynkin_type, orientation=orientation,
                         args=args, checks=[] if checks is None else checks)

    def __reduce__(self):
        return type(self), (self.relation, self.dynkin_type, self.orientation, self.args,
                            self.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, computed, expected):
        self.checks.append(Check(name, computed, expected))


def _report(index: CycIndex, relation: str, args) -> VerificationReport:
    q = index.quiver
    return VerificationReport(relation, q.dynkin_type, q.orientation_label(), tuple(args))


# -- generator pairs ---------------------------------------------------------------
# E, F, K and K' are built once per index and kept on it under (name, i);
# the central pair, read once per i, is built on each call.

def e_pair(index: CycIndex, i: int) -> VWPair:
    return index.stored(("E", i), _w_unit_pair, index, i, 0)


def f_pair(index: CycIndex, i: int) -> VWPair:
    return index.stored(("F", i), _w_unit_pair, index, i, 1)


def k_prime_pair(index: CycIndex, i: int) -> VWPair:
    return index.stored(("K'", i), _cartan_pair, index, i, v_f)


def k_pair(index: CycIndex, i: int) -> VWPair:
    return index.stored(("K", i), _cartan_pair, index, i, v_sigma_f)


def central_pair(index: CycIndex, i: int) -> VWPair:
    return VWPair(add(v_f(index, i), v_sigma_f(index, i)), scale(w_f(index, i), 2))


def _w_unit_pair(index: CycIndex, i: int, k: int) -> VWPair:
    """(0, e_y) for y = sigma S_i (k = 0) or sigma Sigma S_i (k = 1)."""
    return VWPair({}, {sigma_simples(index, i)[k]: 1})


def _cartan_pair(index: CycIndex, i: int, v) -> VWPair:
    return VWPair(v(index, i), w_f(index, i))


def chevalley_generators(index: CycIndex) -> dict[str, VWPair]:
    out = {}
    for i in index.quiver.vertices:
        out[f"E{i}"] = e_pair(index, i)
        out[f"K'{i}"] = k_prime_pair(index, i)
        out[f"K{i}"] = k_pair(index, i)
        out[f"F{i}"] = f_pair(index, i)
    return out


def _simple_obj(index: CycIndex, i: int) -> DerivedObject:
    return DerivedObject(index.ar.simple[i], 0)


def _hom(index, i, j, gap=0) -> int:
    return index.ar.hom_dim(_simple_obj(index, i), DerivedObject(index.ar.simple[j], gap))


def _dominant_vs(index, w) -> list[dict]:
    """The l-dominant v for this w, enumerated once per index and kept on it
    (shared, not to be mutated: a report records a copy)."""
    return index.stored(("l-dominant", tuple(sorted(w.items()))), enumerate_l_dominant, index, w)


def _only_dominant_above(index, w, floor) -> bool:
    """True when the only l-dominant v >= floor for this w is floor itself."""
    above = [
        v for v in _dominant_vs(index, w)
        if all(v.get(k, 0) >= c for k, c in floor.items())
    ]
    return above == [dict(floor)]


def _commutator(index, m1: VWPair, m2: VWPair, w) -> FormalSum:
    """m1 x m2 - m2 x m1 on the label (0, w), from the two leading exponents."""
    t_pow = HalfLaurent.t_pow
    return FormalSum.of(VWPair({}, w), t_pow(leading_exponent(index, m1, m2))
                        - t_pow(leading_exponent(index, m2, m1)))


def _transport(index, m: VWPair) -> VWPair:
    """The shift transport of a pair: both vectors pulled back along the shift."""
    return VWPair(index.shift_pullback(m.v), index.shift_pullback(m.w))


# -- EK --------------------------------------------------------------------------

def verify_ek(index: CycIndex, i: int, j: int) -> VerificationReport:
    """The four relations between E_i/F_i and the Cartan generators K_j/K'_j."""
    rep = _report(index, "ek", (i, j))
    q = index.quiver
    eij = euler_form(q, unit_vector(q, i), unit_vector(q, j))
    eji = euler_form(q, unit_vector(q, j), unit_vector(q, i))
    aij = cartan_entry(q, i, j)

    relations = [
        ("E,K'", e_pair(index, i), k_prime_pair(index, j), 2 * eij, aij),
        ("E,K", e_pair(index, i), k_pair(index, j), -2 * eji, -aij),
        ("F,K'", f_pair(index, i), k_prime_pair(index, j), -2 * eji, -aij),
        ("F,K", f_pair(index, i), k_pair(index, j), 2 * eij, aij),
    ]
    for name, m1, m2, tilde_expected, twisted_expected in relations:
        w_total = add(m1.w, m2.w)
        rep.add(
            f"{name}: single leading term",
            _only_dominant_above(index, w_total, m2.v),
            True,
        )
        rep.add(
            f"{name}: tilde exponent",
            2 * leading_exponent_tilde(index, m1, m2),
            tilde_expected,
        )
        # X with m1 x m2 = t^X m2 x m1 on the leading terms: twice the
        # leading exponent of the twisted product
        rep.add(
            f"{name}: twisted exponent",
            2 * leading_exponent(index, m1, m2),
            HalfInt.of(twisted_expected),
        )

    # The d-value identities behind the first two relations.
    m_e, m_kp, m_k = e_pair(index, i), k_prime_pair(index, j), k_pair(index, j)
    rep.add("d(E,K') = hom(S_i, Sigma S_j)", d_form(index, m_e, m_kp), _hom(index, i, j, 1))
    rep.add("d(K',E) = hom(S_i, S_j)", d_form(index, m_kp, m_e), _hom(index, i, j, 0))
    rep.add("d(E,K) = hom(S_i, S_j)", d_form(index, m_e, m_k), _hom(index, i, j, 0))
    rep.add("d(K,E) = hom(S_j, Sigma S_i)", d_form(index, m_k, m_e), _hom(index, j, i, 1))

    # Shift symmetry: relations 3/4 are the shift transports of 2/1.
    rep.add(
        "F,K is the transport of E,K'",
        (_transport(index, e_pair(index, i)), _transport(index, k_prime_pair(index, j))),
        (f_pair(index, i), k_pair(index, j)),
    )
    rep.add(
        "d is shift-invariant on E,K'",
        d_form(index, _transport(index, m_e), _transport(index, m_kp)),
        d_form(index, m_e, m_kp),
    )
    return rep


# -- EF --------------------------------------------------------------------------

def verify_ef(index: CycIndex, i: int, j: int) -> VerificationReport:
    """[E_i, F_j] = delta_ij (t - t^-1)(K'_i-label - K_i-label)."""
    rep = _report(index, "ef", (i, j))
    m_e, m_f = e_pair(index, i), f_pair(index, j)
    w_total = add(m_e.w, m_f.w)
    rep.add(
        "twist vanishes between E and F weights",
        twist_exponent(index, m_e.w, m_f.w),
        HalfInt.of(0),
    )
    if i != j:
        rep.add("only l-dominant v is 0", [dict(v) for v in _dominant_vs(index, w_total)], [{}])
        rep.add("d(E,F) = 0", d_form(index, m_e, m_f), 0)
        rep.add("d(F,E) = 0", d_form(index, m_f, m_e), 0)
        rep.add("commutator vanishes", _commutator(index, m_e, m_f, w_total), FormalSum())
        return rep

    vf, vsf, wf = v_f(index, i), v_sigma_f(index, i), w_f(index, i)
    rep.add(
        "l-dominant v for w^f are 0, v^f, v^Sigma f",
        [dict(v) for v in _dominant_vs(index, wf)],
        canonical_order([{}, vf, vsf]),
    )
    # Leading shifts of the three restriction summands, recomputed from d.
    ef_vf, ef_vsf, ef_0 = (
        leading_exponent_tilde(index, VWPair(v, m_e.w), m_f) for v in (vf, vsf, {})
    )
    fe_vf, fe_vsf = (leading_exponent_tilde(index, VWPair(v, m_f.w), m_e) for v in (vf, vsf))
    rep.add("EF shifts at v^f, v^Sigma f, 0", (ef_vf, ef_vsf, ef_0), (1, -1, 0))
    rep.add("FE shifts at v^f, v^Sigma f", (fe_vf, fe_vsf), (-1, 1))

    l0, lkp, lk = VWPair({}, wf), VWPair(vf, wf), VWPair(vsf, wf)
    t_pow = HalfLaurent.t_pow
    ef_sum = FormalSum({l0: t_pow(ef_0), lkp: t_pow(ef_vf), lk: t_pow(ef_vsf)})
    fe_sum = FormalSum({l0: 1, lkp: t_pow(fe_vf), lk: t_pow(fe_vsf)})
    expected = (FormalSum.of(lkp) - FormalSum.of(lk)).scale(T - T_INV)
    rep.add("[E,F] = (t - t^-1)(K' - K) labels", ef_sum - fe_sum, expected)
    return rep


# -- KK --------------------------------------------------------------------------

def verify_kk(index: CycIndex, i: int, j: int) -> VerificationReport:
    """Products of Cartan generators: tilde exponents and trivialized twists."""
    rep = _report(index, "kk", (i, j))
    q = index.quiver
    eij = euler_form(q, unit_vector(q, i), unit_vector(q, j))
    eji = euler_form(q, unit_vector(q, j), unit_vector(q, i))

    kp_i, kp_j = k_prime_pair(index, i), k_prime_pair(index, j)
    k_i, k_j = k_pair(index, i), k_pair(index, j)
    w_total = add(kp_i.w, kp_j.w)

    leaders = [
        add(kp_i.v, kp_j.v),
        add(kp_i.v, k_j.v),
        add(k_i.v, kp_j.v),
        add(k_i.v, k_j.v),
    ]
    no_excess = True
    for v in _dominant_vs(index, w_total):
        for lead in leaders:
            if v != lead and all(v.get(k, 0) >= c for k, c in lead.items()):
                no_excess = False
    rep.add("no l-dominant v strictly above a leading vector", no_excess, True)

    rep.add(
        "d(K'_i,K'_j) = hom + ext",
        d_form(index, kp_i, kp_j),
        _hom(index, i, j, 0) + _hom(index, i, j, 1),
    )
    for name, m1, m2 in (
        ("K'K'", kp_i, kp_j),
        ("K'K", kp_i, k_j),
        ("KK", k_i, k_j),
    ):
        rep.add(
            f"{name}: tilde exponent",
            leading_exponent_tilde(index, m1, m2),
            eij - eji,
        )
        rep.add(
            f"{name}: twisted exponent", leading_exponent(index, m1, m2), HalfInt.of(0)
        )
    rep.add(
        "KK is the transport of K'K'",
        (_transport(index, kp_i), _transport(index, kp_j)),
        (k_i, k_j),
    )
    return rep


# -- quantum Serre ------------------------------------------------------------------

def verify_serre(index: CycIndex, i: int, j: int) -> VerificationReport:
    """The cubic Serre relation for adjacent i, j; commutation otherwise."""
    if i == j:
        raise CaseMismatchError("Serre relation needs i != j")
    rep = _report(index, "serre", (i, j))
    q = index.quiver
    adjacent = q.adjacent(i, j)

    m_ei, m_ej = e_pair(index, i), e_pair(index, j)
    w_prime = add(m_ei.w, m_ej.w)

    if not adjacent:
        rep.add("case", "commuting", "commuting")
        rep.add("only l-dominant v is 0", [dict(v) for v in _dominant_vs(index, w_prime)], [{}])
        rep.add("d(E_i,E_j) = 0", d_form(index, m_ei, m_ej), 0)
        rep.add("d(E_j,E_i) = 0", d_form(index, m_ej, m_ei), 0)
        rep.add(
            "twisted commutation exponent",
            2 * leading_exponent(index, m_ei, m_ej),
            HalfInt.of(0),
        )
        rep.add("commutator vanishes", _commutator(index, m_ei, m_ej, w_prime), FormalSum())
        return rep

    # delta = 1 precisely when tau S_j = S_i inside the module category.
    tau_sj = index.ar.tau(_simple_obj(index, j))
    delta = 1 if tau_sj == _simple_obj(index, i) else 0
    chi = euler_a(index, phi(index, m_ei.w), phi(index, m_ej.w))
    # chi is pinned by the case; delta = [tau S_j = S_i] additionally needs the
    # almost-split sequence ending at S_j to have simple middle term, which
    # holds in particular for A2 but is not orientation-universal.
    if _hom(index, j, i, 1) == 1:
        rep.add("case (i): chi", chi, 1)
        rep.add("case (i): delta is boolean", delta in (0, 1), True)
    elif _hom(index, i, j, 1) == 1:
        rep.add("case (ii): (delta, chi)", (delta, chi), (0, -1))
    else:
        raise CaseMismatchError(f"vertices {i}, {j} adjacent but no extension found")

    v_si = {index.vertex_of_slot[index.ar.simple[i]]: 1}
    w_full = add(scale(m_ei.w, 2), m_ej.w)
    p1 = VWPair(v_si, m_ei.w)
    p3 = VWPair({}, w_prime)
    p5 = VWPair(v_si, w_prime)
    for name, a, b, expected in (
        ("d((e_Si,e_sigmaSi),(0,e_sigmaSj))", p1, m_ej, 0),
        ("d((0,e_sigmaSj),(e_Si,e_sigmaSi))", m_ej, p1, delta),
        ("d((e_Si,e_sigmaSi),(0,w'))", p1, p3, 1),
        ("d((0,w'),(e_Si,e_sigmaSi))", p3, p1, delta),
        ("d((0,e_sigmaSi),(e_Si,w'))", m_ei, p5, 0),
        ("d((e_Si,w'),(0,e_sigmaSi))", p5, m_ei, 1),
    ):
        rep.add(name, d_form(index, a, b), expected)

    # Twist scalars for the five ordered weight pairs are all t^(-chi/2).
    half_neg_chi = HalfInt(-chi)
    for name, w1, w2 in (
        ("A", m_ei.w, m_ej.w),
        ("B", m_ei.w, m_ej.w),
        ("C", m_ei.w, w_prime),
        ("D", m_ei.w, w_prime),
        ("E", m_ei.w, w_prime),
    ):
        rep.add(f"twist scalar {name}", twist_exponent(index, w1, w2), half_neg_chi)

    # The six proven product decompositions of E_i times a label, on the left:
    # label -> ((label of a summand, its t-exponent), ...); on the right each
    # exponent changes sign.  Expand the Serre combination from them.
    products = {
        m_ej: ((p3, 0), (p5, delta)),
        p3: ((VWPair({}, w_full), 0), (VWPair(v_si, w_full), delta - 1)),
        p5: ((VWPair(v_si, w_full), 1),),
    }
    t_pow = HalfLaurent.t_pow

    def mul_u(fs: FormalSum, scalar: HalfLaurent, sign: int) -> FormalSum:
        """Multiply by E_i on the left (sign +1, scalar a) or right (-1, a^-1)."""
        out = FormalSum()
        for key, coeff in fs.terms.items():
            if key not in products:
                raise SerreExpansionError(f"unexpected label {key}")
            c = coeff * scalar
            for label, k in products[key]:
                out = out + FormalSum.of(label, c * t_pow(sign * k) if k else c)
        return out

    left, right = (t_pow(half_neg_chi), 1), (t_pow(HalfInt(chi)), -1)
    start = FormalSum.of(m_ej)
    uus = mul_u(mul_u(start, *left), *left)
    usu_a = mul_u(mul_u(start, *right), *left)
    usu_b = mul_u(mul_u(start, *left), *right)
    suu = mul_u(mul_u(start, *right), *right)
    rep.add("middle product is associative", usu_a, usu_b)
    combo = uus - usu_a.scale(T + T_INV) + suu
    rep.add("q-Serre combination vanishes", combo, FormalSum())
    return rep


# -- section 5 identities -------------------------------------------------------------

def verify_same_form(index: CycIndex) -> VerificationReport:
    """The comparison identity between the pair form on lifts and the
    height-signed symmetrized Euler form, over every eligible ordered pair."""
    ar = index.ar
    if len(ar.modules) < 2:
        raise CaseMismatchError("same-form needs two modules to compare")
    rep = _report(index, "same-form", ())
    lifts = {m: iota(index, m) for m in ar.modules}
    heights = {m: window_height(index, m) for m in ar.modules}
    failures, bad = [], []
    pairs = 0
    for m in ar.modules:
        for n in ar.modules:
            if m == n or heights[m] > heights[n]:
                continue
            pairs += 1
            im, in_ = lifts[m], lifts[n]
            mn, nm = ar.euler_pairing(m, n), ar.euler_pairing(n, m)
            if heights[m] == heights[n] and mn + nm != 0:
                bad.append((m, n))
            lhs = HalfInt(2 * (d_form(index, in_, im) - d_form(index, im, in_)) + (nm - mn))
            rhs = HalfInt(mn + nm)
            if lhs != rhs:
                failures.append((m, n, lhs, rhs))
    rep.add(f"identity holds on all {pairs} eligible ordered pairs", failures, [])
    rep.add("equal heights force (M,N) = 0", bad, [])
    return rep


#: The largest mass cap verify_same_n accepts: it counts N over a list of cap + 1
#: integers, so a cap of 10**9 would take gigabytes; E8 at this bound takes a few seconds.
MAX_MASS_CAP = 10**5


def verify_same_n(index: CycIndex, mass_cap: int = 3) -> VerificationReport:
    """The pair-level comparison form equals half its weight-level extension
    on all N l-dominant pairs in V+ x W^S of mass <= mass_cap.

    By the triangular decomposition each such pair is the sum of the lifts
    iota(M) over one Kostant multiset of its mass vector, so N counts the
    multisets of modules of total root height <= mass_cap, and the lifts of the
    modules of height <= mass_cap span the pool.  Both sides are bilinear in
    (v, w), so the identity holds on all N^2 ordered pairs exactly when it
    holds on the ordered pairs of those lifts, the only ones evaluated.  Each
    lift is a pool member, so a listed failure is a failing ordered pair of the
    pool.  A cap above MAX_MASS_CAP is refused."""
    if not 1 <= mass_cap <= MAX_MASS_CAP:
        raise CaseMismatchError(f"same-n mass cap must be from 1 to {MAX_MASS_CAP}, got {mass_cap}")
    rep = _report(index, "same-n", (mass_cap,))
    heights = {m: sum(index.ar.root_of[m]) for m in index.ar.modules}
    lifts = [iota(index, m) for m, h in heights.items() if h <= mass_cap]
    # the residuals d_form keeps on the index; hl_extension only reads them
    residuals = [pair_residual(index, m) for m in lifts]
    failures = []
    for m1, res1 in zip(lifts, residuals):
        for m2, res2 in zip(lifts, residuals):
            lhs = script_n(index, m1, m2)
            rhs = HalfInt(hl_extension(index, res1, res2))
            if lhs != rhs:
                failures.append((m1, m2, lhs, rhs))
    count = [1] + [0] * mass_cap  # count[k]: the multisets of modules of total height k
    for h in heights.values():
        for k in range(h, mass_cap + 1):
            count[k] += count[k - h]
    rep.add(f"identity holds on all {sum(count)}^2 ordered pairs", failures, [])
    return rep


# -- the exponent dictionary -----------------------------------------------------------

def chevalley_exponent_table(index: CycIndex) -> VerificationReport:
    """The generator dictionary and the fully twisted relation exponents.

    Confirms the EK rows reproduce t^(a_ij), the EF scalar bookkeeping closes,
    the KK rows commute exactly, and the Cartan products of weight 2w^f have
    vanishing twisted commutation exponents against every generator.
    """
    rep = _report(index, "exponent-table", ())
    q = index.quiver
    scalar_e = T_INV - T        # label = (t^-1 - t) E_i
    scalar_f = T - T_INV        # label = (t - t^-1) F_i
    one = HalfLaurent.from_int(1)
    rep.add("dictionary scalar on E: (1 - t^2)/t", scalar_e, (one - T * T) * T_INV)
    rep.add("dictionary scalar on F: (t^2 - 1)/t", scalar_f, (T * T - one) * T_INV)
    rep.add(
        "EF scalar identity: c_E c_F = -(t - t^-1)^2",
        scalar_e * scalar_f,
        -((T - T_INV) * (T - T_INV)),
    )
    for i in q.vertices:
        for j in q.vertices:
            aij = cartan_entry(q, i, j)
            # X(g, K) is the exponent in g x K = t^X K x g; the dictionary rows
            # state K x g = t^(-X) g x K.
            rows = [
                (f"K{i} E{j} = t^a_ij E{j} K{i}", e_pair(index, j), k_pair(index, i), aij),
                (f"K{i} F{j} = t^-a_ij F{j} K{i}", f_pair(index, j), k_pair(index, i), -aij),
                (f"K'{i} E{j} = t^-a_ij E{j} K'{i}", e_pair(index, j), k_prime_pair(index, i), -aij),
                (f"K'{i} F{j} = t^a_ij F{j} K'{i}", f_pair(index, j), k_prime_pair(index, i), aij),
            ]
            for name, g, kgen, expected in rows:
                rep.add(name, -2 * leading_exponent(index, g, kgen), HalfInt.of(expected))
            rep.add(
                f"[K{i}, K'{j}] = 0 exponent",
                2 * leading_exponent(index, k_pair(index, i), k_prime_pair(index, j)),
                HalfInt.of(0),
            )
        ef = verify_ef(index, i, i)
        rep.add(f"EF reduction at {i} passes", ef.passed, True)
    generators = chevalley_generators(index)
    for i in q.vertices:
        central = central_pair(index, i)
        for name, g in generators.items():
            rep.add(
                f"center {i} commutes with {name}",
                2 * leading_exponent(index, central, g),
                HalfInt.of(0),
            )
    return rep


# -- driver ------------------------------------------------------------------------------

#: The relation names, as the command line takes them.
RELATIONS = ("ek", "ef", "kk", "serre", "same-form", "same-n", "exponent-table")


def verify(index: CycIndex, relation: str, mass_cap: int = 3) -> list[VerificationReport]:
    """The reports of one relation: one per ordered vertex pair (distinct for
    serre) for ek, ef, kk and serre, a single report otherwise; none for
    same-form on a quiver with one module, which has no pair to compare."""
    verts = index.quiver.vertices
    if relation == "serre":
        return [verify_serre(index, i, j) for i in verts for j in verts if i != j]
    if relation in ("ek", "ef", "kk"):
        # built per call, so a verifier wrapped after import is the one that runs
        fn = {"ek": verify_ek, "ef": verify_ef, "kk": verify_kk}[relation]
        return [fn(index, i, j) for i in verts for j in verts]
    if relation == "same-form":
        return [verify_same_form(index)] if len(index.ar.modules) > 1 else []
    if relation == "same-n":
        return [verify_same_n(index, mass_cap)]
    if relation == "exponent-table":
        return [chevalley_exponent_table(index)]
    raise ValueError(f"unknown relation {relation!r}")


def verify_all(index: CycIndex, mass_cap: int = 3) -> list[VerificationReport]:
    return sorted(
        (rep for relation in RELATIONS for rep in verify(index, relation, mass_cap)),
        key=lambda r: (r.relation, r.args),
    )
