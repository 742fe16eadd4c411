"""Two ends of the spectrum: a transversal pair and a genuinely excess one.

When Y meets X transversally the defect module vanishes; that is the
content of the vanishing rule for pairs, checked here on a random complete
intersection against a disjoint coordinate plane.  At the other end sits a
model where the defect is strictly larger than deg Z times the excess
codimension, so no length-linear bound can explain it.  The script also
swaps the two arguments of a scenario to show the defect does not care
which side is called X.

Run:  python3 demos/excess_versus_transversal.py   (under a second)
"""

from qfiber import (
    FieldSpec,
    Ideal,
    PolyRing,
    Seed,
    gen_EI_model,
    gen_fatpoint_model,
    parse_ideal,
    q_affine_pair,
    q_module,
    symmetry_check,
)

# --- transversal: disjoint variable blocks force I cap L = I*L

R = PolyRing(FieldSpec(32003), ("x", "y", "u", "v"))
L = Ideal(R, parse_ideal("x, y", R))
I = Ideal(R, parse_ideal("u^2 + 3*v^2, u*v", R))
assert I.intersect(L).equals(I * L), "the pair is transversal by construction"
rep = q_affine_pair(R, L, I)
print("transversal pair: plane (x, y) against a quadric CI in (u, v)")
print(f"  deg Z = {rep.deg_z}, dim Q = {rep.dim_q}  (vanishes, as it must)")
print()

# --- excess: a 4-fold graph X and a 7-codimensional Y through a fat point

print("excess model: graph of 7 random quadrics over a 4-variable chart,")
print("meeting the axis plane in one length-8 point (takes ~10s)")
scen = gen_EI_model(Seed(0))
rep = q_module(scen)
bound = rep.deg_z * scen.c
print(f"  deg Z = {rep.deg_z}, c = {scen.c}, hilb_tangent_dim = "
      f"{rep.hilb_tangent_dim}")
print(f"  dim Q = {rep.dim_q} > deg Z * c = {bound}")
assert rep.dim_q > bound
print(f"  q = {rep.q}  (not an integer: the defect is not length-linear)")
print()

# --- symmetry: the defect of (X, Y) equals the defect of (Y, X)

print("argument swap on the fat-point scenario:")
sym = symmetry_check(gen_fatpoint_model(Seed(0)))
fwd, rev = sym.forward, sym.reverse
print(f"  forward  dim Q = {fwd.dim_q}, mu = {fwd.mu_q}")
print(f"  reversed dim Q = {rev.dim_q}, mu = {rev.mu_q}")
print(f"  agree: {sym.agree}")
