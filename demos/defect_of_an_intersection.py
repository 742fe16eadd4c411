"""Walk through the core computation on one small intersection.

A triple fat point in 3-space sits on a smooth 3-fold X (a graph over the
fat point's chart) and is cut out on X by a codimension-6 linear space Y.
The script builds that scenario, runs the defect-module computation, and
unpacks every field of the report.

Run:  python3 demos/defect_of_an_intersection.py
"""

from qfiber import Seed, gen_fatpoint_model, q_module, scenario_text

scen = gen_fatpoint_model(Seed(0))

print("The scenario, as session text the CLI would also accept:")
print()
print(scenario_text(scen))

dim_x, codim_y = scen.dims
print(f"dim X = {dim_x}, codim Y = {codim_y}, and Z is finite (dim Z = 0)")
print(f"excess codimension c = codim Y - dim X = {scen.c}")
print()

rep = q_module(scen)

print(f"deg Z = {rep.deg_z}")
print("  the intersection is a single triple-thickened point of length 4")
print(f"dim M_big = {rep.dim_m_big}, dim M_small = {rep.dim_m_small}")
print("  the two conormal-type modules whose duals get compared")
print(f"hilb_tangent_dim = {rep.hilb_tangent_dim}")
print("  embedded first-order deformations of Z; also the dual of M_small")
print(f"dim Q = {rep.dim_q}")
print("  the defect: dual of M_big minus dual of M_small")
print(f"q = dim Q / (c - dim Z) = {rep.q}")
print(f"mu Q = {rep.mu_q}  (minimal generators of the defect module)")
print()
print("per-component breakdown (length, local defect, local mu):")
for comp in rep.per_component:
    print(f"  {comp}")
print()

# the tangent-space formula gives the same defect without the big module:
# the graph's conormal restricted to Z is free, so its dual has dimension
# deg Z * codim Y and the defect is that number minus the tangent dimension
formula = rep.deg_z * codim_y - rep.hilb_tangent_dim
print(f"cross-check: deg Z * codim Y - hilb_tangent_dim = "
      f"{rep.deg_z}*{codim_y} - {rep.hilb_tangent_dim} = {formula}")
assert formula == rep.dim_q
print("both routes agree.")
