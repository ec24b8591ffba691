"""Indecomposables of the bounded derived category of an ADE quiver.

For a Dynkin quiver the indecomposables of the derived category are the shifts
of the indecomposable modules, and the modules are classified by the positive
roots.  The window slot (i, d) with 0 <= d < h carries the integer K_0-class
of tau^{-d} P_i, which is the dimension vector of a module when positive and
minus the dimension vector of a shifted module when negative.  The classes are
knitted along the meshes of the Auslander-Reiten quiver, the mesh category ZQ
(Happel): each is a sum over the arrows into its slot.  The closed Hom formula
uses that Hom and Ext^1 never coexist between indecomposables over a Dynkin
quiver, so hom = max(<, >, 0) and ext = max(-<, >, 0); an independent
matrix-level oracle lives in reflections.py.
"""

from __future__ import annotations

from .quiver import DynkinQuiver, Frozen, Tables, euler_form, height_function, unit_vector


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


# -- the AR window -------------------------------------------------------------

class ARQuiver(Tables):
    """The window {tau^{-d} P_i : i in I, 0 <= d < h} with its mesh structure.

    Exactly half of the nh window slots carry positive classes (the modules,
    one per positive root) and half carry negative classes (their shifts).
    The irreducible-map arrows follow the repetition-quiver pattern: for each
    quiver arrow s -> t there are slot arrows (t, d) -> (s, d) and
    (s, d) -> (t, d + 1).  The classes are knitted along these arrows: P_i is
    its top e_i plus its radical, the sum of the P_t over arrows i -> t, and
    each mesh tau y -> middle -> y gives class(y) = sum(middle) - class(tau y).
    """

    def __init__(self, quiver: DynkinQuiver):
        super().__init__()
        self.quiver = quiver
        self.h = h = quiver.coxeter_number
        n = quiver.n
        # into[y]: the slots with an irreducible map to y, one per quiver
        # arrow at i: (t, d) for an arrow i -> t, (s, d - 1) for s -> i.
        into: dict[Slot, list[Slot]] = {
            (i, d): [(t, d) if s == i else (s, d - 1)
                     for s, t in quiver.arrows if s == i or (t == i and d)]
            for i in quiver.vertices for d in range(h)
        }
        # Sinks first: an arrow into (i, d) from the same d comes from a
        # target of i, which sits one lower in height xi (kept for CycIndex).
        self.xi: dict[int, int] = height_function(quiver)
        rows = sorted(quiver.vertices, key=self.xi.__getitem__)
        knitted: dict[Slot, tuple[int, ...]] = {}
        for d in range(h):
            for i in rows:
                start = tuple(-x for x in knitted[(i, d - 1)]) if d else unit_vector(quiver, i)
                middle = (knitted[x] for x in into[(i, d)])
                knitted[(i, d)] = tuple(map(sum, zip(start, *middle)))
        self.class_of: dict[Slot, tuple[int, ...]] = dict(sorted(knitted.items()))

        self.modules: list[Slot] = []
        self.root_of: dict[Slot, tuple[int, ...]] = {}
        self.slot_of_root: dict[tuple[int, ...], Slot] = {}
        for slot, c in self.class_of.items():
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
            i: self.slot_of_root[tuple(self.class_of[(j, 0)][i - 1] for j in quiver.vertices)]
            for i in quiver.vertices  # dim I_i at j is dim P_j at i
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
        self.arrows: list[tuple[Slot, Slot]] = sorted(
            (x, y) for y, xs in into.items() for x in xs
        )
        self.mesh: dict[Slot, dict[Slot, int]] = {  # y -> {middle term: multiplicity}
            y: {x: xs.count(x) for x in xs} for y, xs in into.items() if y[1]
        }

    # -- object bookkeeping --

    def window_slots(self) -> list[Slot]:
        return sorted(self.class_of)

    def is_injective(self, slot: Slot) -> bool:
        return slot in self._injective_slots

    def object_of_slot(self, slot: Slot) -> DerivedObject:
        """The window object at a slot: a module, or the shift of one."""
        if slot in self.root_of:
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

    # -- functors (no tau^{-1}: the lifts read hom(N, x), not hom(tau^{-1} x, N)) --

    def sigma_shift(self, obj: DerivedObject, k: int = 1) -> DerivedObject:
        return DerivedObject(obj.slot, obj.shift + k)

    def tau(self, obj: DerivedObject) -> DerivedObject:
        i, d = obj.slot
        if d >= 1:
            return DerivedObject((i, d - 1), obj.shift)
        # tau P_i = Sigma^{-1} I_i
        return DerivedObject(self.injective[i], obj.shift - 1)

    # -- Hom dimensions --

    def euler_pairing(self, m: Slot, n: Slot) -> int:
        """<dim M, dim N>, the Euler form on the roots of two module slots."""
        return self.stored(("pairing", m, n), euler_form, self.quiver, self.root_of[m],
                           self.root_of[n])

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
