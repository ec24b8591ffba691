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
    """Phi(e_{sigma x}) = class of x, routed by the sign of x's window slot."""
    ar = index.ar
    mod = [0] * index.quiver.n
    sh = list(mod)
    for y, c in w.items():
        if y not in index.i_hat:
            raise ValueError(f"{y} is not an I-hat vertex")
        slot = index.section[index.sigma_inv(y)]
        # a module slot's class is its root, a shifted slot's minus the root
        target, c = (mod, c) if slot in ar.root_of else (sh, -c)
        for k, x in enumerate(ar.class_of[slot]):
            target[k] += c * x
    return GradedClass(tuple(mod), tuple(sh))


def deg_phi(index: CycIndex, w: dict[Vertex, int]) -> int:
    g = phi(index, w)
    return sum(g.module_part) + sum(g.shifted_part)


def euler_a(index: CycIndex, x: GradedClass, y: GradedClass) -> int:
    """<x,y>_a = <x,y> - <y,x>, part by part.  The diagonal terms cancel, so
    it is the sum over the parts and the arrows s->t of y_s x_t - x_s y_t."""
    arrows = index.quiver.arrows
    return sum(b[s - 1] * a[t - 1] - a[s - 1] * b[t - 1]
               for a, b in zip(x, y) for s, t in arrows)


def euler_sym(index: CycIndex, x: GradedClass, y: GradedClass) -> int:
    """(x,y) = <x,y> + <y,x>: the symmetrized Euler pairing, part by part."""
    q = index.quiver
    return sum(euler_form(q, a, b) + euler_form(q, b, a) for a, b in zip(x, y))


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
    # sigma(i, a) = (i, a - 1) and sigma^-1(i, a) = (i, a + 1), read inline
    two_h, v1, v2 = index.two_h, m1.v, m2.v
    total = 0
    for (i, a), c in pair_residual(index, m1).items():
        total += c * v2.get((i, (a - 1) % two_h), 0)
    for (i, a), c in m2.w.items():
        total += c * v1.get((i, (a + 1) % two_h), 0)
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
