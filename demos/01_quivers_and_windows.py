"""Build oriented ADE quivers and knit their derived windows.

The window {tau^-d P_i : 0 <= d < h} lists every indecomposable of the bounded
derived category up to shift-by-two: half the slots are modules (one per
positive root), half are their shifts.  The signed K0-class at each slot is
knitted along the meshes: P_i is e_i plus the classes of its radical, and each
mesh tau y -> middle -> y gives class(y) = sum(middle) - class(tau y).
"""

from cyclotome import knit, load_quiver, orient
from cyclotome.derived import ar_quiver_dot

q = orient("A3", "linear")
print(f"quiver {q}: Coxeter number h = {q.coxeter_number}")

ar = knit(q)
print(f"\nwindow: {len(ar.window_slots())} slots, {len(ar.modules)} modules")
for slot in ar.window_slots():
    obj = ar.object_of_slot(slot)
    print(f"  slot {slot}: {ar.object_name(obj):6s} class {ar.class_of[slot]}")

print("\nmesh middle terms (tau y -> E -> y):")
for y, middle in sorted(ar.mesh.items()):
    names = ", ".join(
        ar.object_name(ar.object_of_slot(s)) for s in sorted(middle) for _ in range(middle[s])
    )
    print(f"  {ar.object_name(ar.object_of_slot(y)):6s} <- [{names}]")

# quivers also load from the plain-text format
text = """
vertices: 4
arrow: 1 2
arrow: 3 2
arrow: 4 2
"""
d4 = load_quiver(text)
print(f"\nloaded {d4} with h = {d4.coxeter_number}")

print("\nDOT output (render with graphviz):")
print(ar_quiver_dot(knit(orient("A2", "linear"))))
