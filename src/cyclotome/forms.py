"""Bilinear forms and exponents: d, the antisymmetrized/symmetrized Euler
pairings on graded classes, the class map Phi with its degree and N(Phi), the
product twist, the comparison form, and the height order.

All values are exact integers or half-integers.
"""

from __future__ import annotations

from .cyclic import CycIndex, Vertex
from .dominance import VWPair, residual
from .derived import Slot
from .laurent import HalfInt
from .quiver import euler_form


class NotIndecomposableError(ValueError):
    pass


class GradedClass(tuple):
    """A K0-class split into a module part and a shifted part: the pair of them."""

    __slots__ = ()
    module_part = property(lambda self: self[0])
    shifted_part = property(lambda self: self[1])

    def __new__(cls, module_part, shifted_part):
        return tuple.__new__(cls, (module_part, shifted_part))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"GradedClass(module_part={self[0]!r}, shifted_part={self[1]!r})"


def phi(index: CycIndex, w: dict[Vertex, int]) -> GradedClass:
    """Phi(e_{sigma x}) = class of x, routed by whether x is shifted."""
    n = index.quiver.n
    mod = [0] * n
    sh = [0] * n
    for y, c in w.items():
        if y not in index.i_hat:
            raise ValueError(f"{y} is not an I-hat vertex")
        obj = index.object_at(index.sigma_inv(y))
        root = index.ar.root_of[obj.slot]
        target = mod if obj.shift % 2 == 0 else sh
        for k in range(n):
            target[k] += c * root[k]
    return GradedClass(tuple(mod), tuple(sh))


def deg_phi(index: CycIndex, w: dict[Vertex, int]) -> int:
    g = phi(index, w)
    return sum(g.module_part) + sum(g.shifted_part)


def _part_pairing(index: CycIndex, x: GradedClass, y: GradedClass, sign: int) -> int:
    """<x,y> + sign <y,x>, taken part by part."""
    q = index.quiver
    return sum(euler_form(q, a, b) + sign * euler_form(q, b, a) for a, b in zip(x, y))


def euler_a(index: CycIndex, x: GradedClass, y: GradedClass) -> int:
    """<x,y>_a: the antisymmetrized Euler pairing, part by part."""
    return _part_pairing(index, x, y, -1)


def euler_sym(index: CycIndex, x: GradedClass, y: GradedClass) -> int:
    """(x,y): the symmetrized Euler pairing, part by part."""
    return _part_pairing(index, x, y, 1)


def n_phi(index: CycIndex, w: dict[Vertex, int]) -> int:
    """N(Phi(w)) = (Phi w, Phi w) - deg Phi(w)."""
    g = phi(index, w)
    return euler_sym(index, g, g) - deg_phi(index, w)


# -- the d form -----------------------------------------------------------------

def _pair_phi(index: CycIndex, pair: VWPair) -> GradedClass:
    """Phi(w) of a pair, computed once per pair and index and kept on the index."""
    return index.stored(("phi", pair), phi, index, pair.w)


def pair_residual(index: CycIndex, pair: VWPair) -> dict[Vertex, int]:
    """w - C_q v of a pair, computed once per pair and index and kept on the
    index; the stored dict itself (dominance.residual returns a fresh one)."""
    return index.stored(("residual", pair), residual, index, pair)


def d_form(index: CycIndex, m1: VWPair, m2: VWPair) -> int:
    """d(m1, m2) = (w1 - C_q v1) . sigma* v2 + v1 . sigma* w2."""
    res = pair_residual(index, m1)
    total = 0
    for y, c in res.items():
        total += c * m2.v.get(index.sigma(y), 0)
    for y, c in m2.w.items():
        total += c * m1.v.get(index.sigma_inv(y), 0)
    return total


def leading_exponent_tilde(index: CycIndex, m1: VWPair, m2: VWPair) -> int:
    """t-power on the leading term of the untwisted product m1 * m2."""
    return d_form(index, m2, m1) - d_form(index, m1, m2)


def twist_exponent(index: CycIndex, w1: dict[Vertex, int], w2: dict[Vertex, int]) -> HalfInt:
    """-1/2 <Phi(w1), Phi(w2)>_a: the twist attached to the ordered product."""
    return HalfInt(-euler_a(index, phi(index, w1), phi(index, w2)))


def leading_exponent(index: CycIndex, m1: VWPair, m2: VWPair) -> HalfInt:
    """Leading t-power of the twisted product: tilde exponent plus the twist,
    d(m2,m1) - d(m1,m2) + 1/2 <Phi(w2), Phi(w1)>_a."""
    return HalfInt(
        2 * leading_exponent_tilde(index, m1, m2)
        + euler_a(index, _pair_phi(index, m2), _pair_phi(index, m1))
    )


def script_n(index: CycIndex, m1: VWPair, m2: VWPair) -> HalfInt:
    """The antisymmetrized comparison form on pairs.

    It equals leading_exponent, since <,>_a is antisymmetric; restricted to
    lifts of modules it computes half the symmetrized Euler form.
    """
    return leading_exponent(index, m1, m2)


# -- height order and the weight-level comparison form ----------------------------

def window_height(index: CycIndex, slot: Slot) -> int:
    """eta(tau^{-d} P_i) = xi(i) + 1 + 2d, as a plain integer."""
    if slot not in index.ar.root_of:
        raise NotIndecomposableError(f"{slot} is not a module slot")
    i, d = slot
    return index.xi[i] + 1 + 2 * d


def hl_form(index: CycIndex, m: Slot, n: Slot) -> int:
    """Height-signed symmetrized Euler form on module basis elements.

    0 on the diagonal; +(M,N) when eta(M) <= eta(N), -(M,N) when
    eta(M) > eta(N).  Equal heights force (M,N) = 0, so the sign convention
    is consistent.
    """
    if m not in index.ar.root_of or n not in index.ar.root_of:
        raise NotIndecomposableError("hl_form takes module slots")
    if m == n:
        return 0
    sym = index.ar.euler_pairing(m, n) + index.ar.euler_pairing(n, m)
    return sym if window_height(index, m) <= window_height(index, n) else -sym


def hl_extension(index: CycIndex, wt1: dict[Vertex, int], wt2: dict[Vertex, int]) -> int:
    """Bilinear extension of hl_form to weight vectors supported on W+."""
    total = 0
    for y1, c1 in wt1.items():
        m = index.section[index.sigma_inv(y1)]
        if m not in index.ar.root_of:
            raise NotIndecomposableError("weight vector leaves W+")
        for y2, c2 in wt2.items():
            n = index.section[index.sigma_inv(y2)]
            if n not in index.ar.root_of:
                raise NotIndecomposableError("weight vector leaves W+")
            total += c1 * c2 * hl_form(index, m, n)
    return total
