"""The full gluing pipeline on the two bundled worked examples.

Certifies the outer (co)tilting inputs, computes the glued cotorsion
pair on the middle category, runs the pushout construction for each
c-side summand, and assembles the glued module, comparing the
constructive route against the brute-force intersection of the glued
classes.

Run:  python demos/04_gluing_tilting_modules.py
"""

from quiverglue.bundled import load_workspace
from quiverglue.glue import glue_cotilting, glue_tilting, k_construction
from quiverglue.modcat import decompose
from quiverglue.tilting import verify_cotilting, verify_tilting

ws = load_workspace()
rec = ws.recollement

# --- the tilting example ------------------------------------------------------
kind, t1, n1, t3, n3, expected = ws.example_inputs("5-2")
print(f"tilting glue: T1 with n1={n1} on the a-side, T3 with n3={n3} on the c-side")
print(f"  T1 verifies: {verify_tilting(t1, n1).ok},  T3 verifies: {verify_tilting(t3, n3).ok}")

result = glue_tilting(rec, t1, n1, t3, n3, ws.universe_a, ws.universe_c, ws.universe_b)
print(f"  glued classes: |U2| = {len(result.glued.u2_names)}, |V2| = {len(result.glued.v2_names)}")
print(f"  core U2 & V2: {sorted(result.glued.t2_names)}")
print(f"  glued module decomposes as {sorted(result.decomposition.items())}")
print(f"  verified as {result.n2}-tilting; matches expected: {result.basic_names == expected}")

print("\n  per-summand pushout modules:")
for rep, _ in decompose(t3):
    kc = k_construction(result.glued, rep)
    name = ws.universe_b.find_member(kc.k) or f"dims {kc.k.dim_vector()}"
    print(f"    c-side summand {rep.dim_vector()} -> K = {name}")

# --- the cotilting example -----------------------------------------------------
kind, t1, n1, t3, n3, expected = ws.example_inputs("5-1")
print(f"\ncotilting glue: T1 with n1={n1}, T3 with n3={n3}")
print(f"  T1 verifies: {verify_cotilting(t1, n1).ok},  T3 verifies: {verify_cotilting(t3, n3).ok}")
result = glue_cotilting(rec, t1, n1, t3, n3, ws.universe_a, ws.universe_c, ws.universe_b)
print(f"  glued module decomposes as {sorted(result.decomposition.items())}")
print(f"  verified as {result.n2}-cotilting; matches expected: {result.basic_names == expected}")
