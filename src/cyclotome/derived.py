"""Indecomposables of the bounded derived category of an ADE quiver.

For a Dynkin quiver the indecomposables of the derived category are the shifts
of the indecomposable modules, and the modules are classified by the positive
roots.  Everything is driven by the Coxeter transformation on K_0: the window
slot (i, d) with 0 <= d < h carries the integer class of tau^{-d} P_i, which
is the dimension vector of a module when positive and minus the dimension
vector of a shifted module when negative.  The closed Hom formula uses that
Hom and Ext^1 never coexist between indecomposables over a Dynkin quiver, so
hom = max(<, >, 0) and ext = max(-<, >, 0); an independent matrix-level oracle
lives in reflections.py.
"""

from __future__ import annotations

from .quiver import DynkinQuiver, Frozen, euler_matrix, euler_form


class MixedSignClassError(RuntimeError):
    """A window class came out with mixed signs; signals an internal bug."""


Slot = tuple[int, int]  # (vertex i, tau-exponent d): the object tau^{-d} P_i


class DerivedObject(Frozen):
    """Sigma^shift applied to the module sitting at a (module) window slot;
    ordered as the pair (slot, shift)."""

    __slots__ = _fields = ("slot", "shift")

    def __init__(self, slot: Slot, shift: int = 0):
        object.__setattr__(self, "slot", slot)
        object.__setattr__(self, "shift", shift)

    def __lt__(self, other):
        return self._values() < other._values() if type(other) is type(self) else NotImplemented

    def __le__(self, other):
        return self._values() <= other._values() if type(other) is type(self) else NotImplemented

    def __gt__(self, other):
        return self._values() > other._values() if type(other) is type(self) else NotImplemented

    def __ge__(self, other):
        return self._values() >= other._values() if type(other) is type(self) else NotImplemented


# -- integer matrix helpers (exact, plain tuples) ------------------------------

def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p))
        for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def mat_transpose(a):
    return tuple(zip(*a))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def unipotent_inverse(e):
    """Inverse of E = I - A with A nilpotent: I + A + A^2 + ... (exact)."""
    n = len(e)
    a = tuple(tuple((1 if i == j else 0) - e[i][j] for j in range(n)) for i in range(n))
    total = identity(n)
    power = a
    for _ in range(n):
        if all(all(x == 0 for x in row) for row in power):
            break
        total = tuple(
            tuple(total[i][j] + power[i][j] for j in range(n)) for i in range(n)
        )
        power = mat_mul(power, a)
    return total


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def matrix_order(a, cap: int = 64) -> int:
    """Smallest m >= 1 with a^m = 1 (brute-force powering, capped)."""
    n = len(a)
    power = a
    for m in range(1, cap + 1):
        if power == identity(n):
            return m
        power = mat_mul(power, a)
    raise RuntimeError(f"order exceeds cap {cap}")


# -- the AR window -------------------------------------------------------------

class ARQuiver:
    """The window {tau^{-d} P_i : i in I, 0 <= d < h} with its mesh structure.

    Exactly half of the nh window slots carry positive classes (the modules,
    one per positive root) and half carry negative classes (their shifts).
    The irreducible-map arrows follow the repetition-quiver pattern: for each
    quiver arrow s -> t there are slot arrows (t, d) -> (s, d) and
    (s, d) -> (t, d + 1).
    """

    def __init__(self, quiver: DynkinQuiver):
        self.quiver = quiver
        self.h = quiver.coxeter_number
        # Per-quiver invariants, each filled on first use: the Euler pairing
        # of two module slots under ("pairing", x, y) by euler_pairing, the
        # brute-force Hom oracle of reflections.py under "oracle", and the
        # Kostant counts of dominance.kostant_partitions under "kostant".
        self.tables: dict = {}
        n = quiver.n
        e = euler_matrix(quiver)
        # -E^{-T} E sends the class of a non-injective module M to the class
        # of tau^{-1} M (and the class of P_i to minus the class of I_i).
        inj = unipotent_inverse(e)  # column i-1 = dim I_i
        proj = mat_transpose(inj)  # column i-1 = dim P_i
        self.tau_inv_matrix = mat_neg(mat_mul(proj, e))

        self.class_of: dict[Slot, tuple[int, ...]] = {}
        for i in quiver.vertices:
            vec = tuple(proj[j][i - 1] for j in range(n))
            for d in range(self.h):
                self.class_of[(i, d)] = vec
                vec = mat_vec(self.tau_inv_matrix, vec)

        self.modules: list[Slot] = []
        self.root_of: dict[Slot, tuple[int, ...]] = {}
        self.slot_of_root: dict[tuple[int, ...], Slot] = {}
        for slot in sorted(self.class_of):
            c = self.class_of[slot]
            if all(x >= 0 for x in c) and any(x > 0 for x in c):
                self.modules.append(slot)
                self.root_of[slot] = c
                self.slot_of_root[c] = slot
            elif all(x <= 0 for x in c) and any(x < 0 for x in c):
                pass
            else:
                raise MixedSignClassError(f"slot {slot} has class {c}")
        if 2 * len(self.modules) != n * self.h:
            raise MixedSignClassError("module count is not nh/2")
        # Per row, module slots must be an initial segment in d.
        for i in quiver.vertices:
            ds = [d for (j, d) in self.modules if j == i]
            if ds != list(range(len(ds))):
                raise MixedSignClassError(f"row {i} modules not contiguous: {ds}")

        self.projective: dict[int, Slot] = {i: (i, 0) for i in quiver.vertices}
        self.simple: dict[int, Slot] = {
            i: self.slot_of_root[tuple(1 if j == i else 0 for j in quiver.vertices)]
            for i in quiver.vertices
        }
        self.injective: dict[int, Slot] = {
            i: self.slot_of_root[tuple(inj[j][i - 1] for j in range(n))]
            for i in quiver.vertices
        }
        self._injective_slots = set(self.injective.values())

        # Sigma on window slots: Sigma(tau^{-d} P_i) = tau^{-(d+1)} I_i, taken
        # mod h because tau^h acts trivially on slots.
        self.sigma_slot: dict[Slot, Slot] = {}
        for i in quiver.vertices:
            ji, ei = self.injective[i]
            for d in range(self.h):
                self.sigma_slot[(i, d)] = (ji, (d + 1 + ei) % self.h)
        for slot, image in self.sigma_slot.items():
            if self.sigma_slot[image] != slot:
                raise MixedSignClassError("slot-level shift is not an involution")

        # Irreducible-map arrows and mesh middle terms within the window.
        self.arrows: list[tuple[Slot, Slot]] = []
        for s, t in quiver.arrows:
            for d in range(self.h):
                self.arrows.append(((t, d), (s, d)))
                if d + 1 < self.h:
                    self.arrows.append(((s, d), (t, d + 1)))
        self.arrows.sort()
        self.mesh: dict[Slot, dict[Slot, int]] = {}  # y -> {middle term: multiplicity}
        for i in quiver.vertices:
            for d in range(1, self.h):
                middle = self.mesh[(i, d)] = {}
                for s, t in quiver.arrows:
                    if i in (s, t):
                        slot = (t, d) if s == i else (s, d - 1)
                        middle[slot] = middle.get(slot, 0) + 1

    # -- object bookkeeping --

    def window_slots(self) -> list[Slot]:
        return sorted(self.class_of)

    def is_module_slot(self, slot: Slot) -> bool:
        return slot in self.root_of

    def is_injective(self, slot: Slot) -> bool:
        return slot in self._injective_slots

    def object_of_slot(self, slot: Slot) -> DerivedObject:
        """The window object at a slot: a module, or the shift of one."""
        if self.is_module_slot(slot):
            return DerivedObject(slot, 0)
        neg = tuple(-x for x in self.class_of[slot])
        return DerivedObject(self.slot_of_root[neg], 1)

    def object_name(self, obj: DerivedObject) -> str:
        base = self.slot_name(obj.slot)
        if obj.shift == 0:
            return base
        if obj.shift == 1:
            return "Σ" + base
        return f"Σ^{obj.shift}{base}"

    def slot_name(self, slot: Slot) -> str:
        for prefix, slots in (("S", self.simple), ("P", self.projective), ("I", self.injective)):
            for i, s in slots.items():
                if s == slot:
                    return f"{prefix}{i}"
        return "M(" + ",".join(map(str, self.root_of[slot])) + ")"

    # -- functors --

    def sigma_shift(self, obj: DerivedObject, k: int = 1) -> DerivedObject:
        return DerivedObject(obj.slot, obj.shift + k)

    def tau(self, obj: DerivedObject) -> DerivedObject:
        i, d = obj.slot
        if d >= 1:
            return DerivedObject((i, d - 1), obj.shift)
        # tau P_i = Sigma^{-1} I_i
        return DerivedObject(self.injective[i], obj.shift - 1)

    def tau_inv(self, obj: DerivedObject) -> DerivedObject:
        slot = obj.slot
        if self.is_injective(slot):
            # tau^{-1} I_i = Sigma P_i
            i = next(i for i, s in self.injective.items() if s == slot)
            return DerivedObject(self.projective[i], obj.shift + 1)
        i, d = slot
        return DerivedObject((i, d + 1), obj.shift)

    def nu(self, obj: DerivedObject) -> DerivedObject:
        """The Serre functor: nu = tau o Sigma = Sigma o tau."""
        return self.tau(self.sigma_shift(obj))

    # -- Hom dimensions --

    def euler_pairing(self, m: Slot, n: Slot) -> int:
        """<dim M, dim N>, the Euler form on the roots of two module slots."""
        key = ("pairing", m, n)
        pairing = self.tables.get(key)
        if pairing is None:
            pairing = self.tables[key] = euler_form(self.quiver, self.root_of[m], self.root_of[n])
        return pairing

    def hom_dim(self, x: DerivedObject, y: DerivedObject) -> int:
        """dim Hom(x, y) by the directedness formula; exact for ADE."""
        gap = y.shift - x.shift
        if gap not in (0, 1):
            return 0
        pairing = self.euler_pairing(x.slot, y.slot)
        if gap == 0:
            return max(pairing, 0)
        return max(-pairing, 0)


def knit(quiver: DynkinQuiver) -> ARQuiver:
    """Build the derived window and its mesh data for a quiver."""
    return ARQuiver(quiver)


def slot_tau(ar: ARQuiver, slot: Slot) -> Slot:
    """tau on window slots, wrapping mod h (tau^h = 1 on slots)."""
    i, d = slot
    return (i, (d - 1) % ar.h)


def ar_quiver_dot(ar: ARQuiver) -> str:
    """DOT digraph of the window: solid = irreducible maps, dashed = tau."""
    lines = ["digraph ar_quiver {", "  rankdir=LR;"]
    for slot in ar.window_slots():
        obj = ar.object_of_slot(slot)
        i, d = slot
        lines.append(
            f'  "s{i}_{d}" [label="{ar.object_name(obj)}"];'
        )
    for (i1, d1), (i2, d2) in ar.arrows:
        lines.append(f'  "s{i1}_{d1}" -> "s{i2}_{d2}";')
    for i in ar.quiver.vertices:
        for d in range(1, ar.h):
            lines.append(f'  "s{i}_{d}" -> "s{i}_{d-1}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
