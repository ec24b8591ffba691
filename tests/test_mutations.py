"""A mutation slice: the relation suite must notice a perturbed library value.

Core claims:
    - adding 1 to any one Hom entry hom_into(m, y) that the lift and v^f
      builders read (a seeded sample of them, each on a fresh index) makes
      verify_all fail a check or raise a named error, on A3 (linear and
      alternating, cap 3) and on alternating D4 (cap 2); every perturbed
      entry is read again in its run
    - a Phi that routes the shifted classes into the module part fails
      verify_all on the same quivers

The checks read their Hom values through hom_dim, so the perturbation
leaves those reads alone: only what the builders see changes.
"""

import random

import pytest

from cyclotome import build_index, forms, orient, relations
from cyclotome.derived import ARQuiver
from cyclotome.forms import GradedClass
from cyclotome.relations import verify_all

CASES = [("A3", "linear", 3), ("A3", "alternating", 3), ("D4", "alternating", 2)]
IDS = [f"{t}-{o}-cap{cap}" for t, o, cap in CASES]
HOM_INTO, HOM_DIM = ARQuiver.hom_into, ARQuiver.hom_dim


def route_builder_reads(monkeypatch, edit):
    """Pass every value hom_into returns outside hom_dim, so to the lift and
    v^f builders, through edit(m, y, value)."""
    inside = []

    def hom_dim(self, x, y):
        inside.append(None)
        try:
            return HOM_DIM(self, x, y)
        finally:
            inside.pop()

    def hom_into(self, m, y):
        value = HOM_INTO(self, m, y)
        return value if inside else edit(m, y, value)

    monkeypatch.setattr(ARQuiver, "hom_dim", hom_dim)
    monkeypatch.setattr(ARQuiver, "hom_into", hom_into)


def caught(quiver, cap) -> bool:
    """Whether verify_all on a fresh index fails a check or raises one of the
    library's named errors."""
    try:
        reports = verify_all(build_index(quiver), cap)
    except (RuntimeError, ValueError) as err:
        assert type(err).__module__.startswith("cyclotome."), err
        return True
    return not all(r.passed for r in reports)


@pytest.mark.parametrize("t,orientation,cap", CASES, ids=IDS)
def test_a_perturbed_builder_hom_entry_is_caught(monkeypatch, t, orientation, cap):
    quiver = orient(t, orientation)
    read = set()
    route_builder_reads(monkeypatch, lambda m, y, value: read.add((m, y)) or value)
    assert not caught(quiver, cap)
    assert len(read) == {"A3": 54, "D4": 192}[t]

    escaped = []
    for entry in random.Random(32).sample(sorted(read), 24):
        fired = []

        def plus_one(m, y, value, entry=entry):
            if (m, y) != entry:
                return value
            fired.append(entry)
            return value + 1

        route_builder_reads(monkeypatch, plus_one)
        if not caught(quiver, cap) or not fired:
            escaped.append((entry, bool(fired)))
    assert escaped == []


@pytest.mark.parametrize("t,orientation,cap", CASES, ids=IDS)
def test_phi_routing_shifted_classes_to_the_module_part_is_caught(monkeypatch, t, orientation,
                                                                  cap):
    real = forms.phi

    def misrouted(index, w):
        module_part, shifted_part = real(index, w)
        return GradedClass(tuple(map(sum, zip(module_part, shifted_part))),
                           (0,) * len(shifted_part))

    for module in (forms, relations):
        monkeypatch.setattr(module, "phi", misrouted)
    assert caught(orient(t, orientation), cap)
