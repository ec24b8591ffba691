"""Every bilinear form and exponent in one place.

d feeds the leading-term exponent of the untwisted product; the product twist
subtracts half the antisymmetrized Euler pairing of the weight classes; each
weight class Phi(w) has a degree and N(Phi) = (Phi, Phi) - deg(Phi); and the
comparison form script-N restricted to module lifts computes half the
symmetrized Euler form, signed by the height order.
"""

from cyclotome import (
    build_index,
    d_form,
    deg_phi,
    hl_form,
    iota,
    leading_exponent,
    leading_exponent_tilde,
    n_phi,
    orient,
    phi,
    script_n,
    twist_exponent,
    window_height,
)
from cyclotome.relations import e_pair, k_prime_pair

idx = build_index(orient("A2", "linear"))
ar = idx.ar

m_e = e_pair(idx, 1)
m_k = k_prime_pair(idx, 2)
print("pairs:")
print(f"  m1 = {m_e.pretty(idx)}")
print(f"  m2 = {m_k.pretty(idx)}")

print("\nexponent calculus:")
print(f"  d(m1, m2) = {d_form(idx, m_e, m_k)}")
print(f"  d(m2, m1) = {d_form(idx, m_k, m_e)}")
print(f"  tilde leading exponent = {leading_exponent_tilde(idx, m_e, m_k)}")
print(f"  twist = {twist_exponent(idx, m_e.w, m_k.w)}")
print(f"  twisted leading exponent = {leading_exponent(idx, m_e, m_k)}")
diff = leading_exponent(idx, m_e, m_k) - leading_exponent(idx, m_k, m_e)
print(f"  commutation exponent (should be a_12 = -1): {diff}")

print("\nweight classes, their degrees and N:")
for name, w in (("e[sigma S1]", m_e.w), ("w^f_2", m_k.w)):
    g = phi(idx, w)
    print(
        f"  Phi({name}) = {g.module_part} | {g.shifted_part},"
        f" deg = {deg_phi(idx, w)}, N = {n_phi(idx, w)}"
    )

print("\nheights and the signed comparison form:")
s1, p2 = ar.simple[1], ar.projective[2]
print(f"  eta(S1) = {window_height(idx, s1)}, eta(P2) = {window_height(idx, p2)}")
print(f"  hl(S1, P2) = {hl_form(idx, s1, p2)}  hl(P2, S1) = {hl_form(idx, p2, s1)}")
print(
    "  script-N on the lifts:",
    script_n(idx, iota(idx, s1), iota(idx, p2)),
    "= (S1, P2)/2",
)
