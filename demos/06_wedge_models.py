# Minimal models of a wedge of n circles: height two, a forced point count,
# and a forced edge count.  The model is unique exactly when n is a square.

from finito import (
    bipartite_model,
    check_wedge_model,
    emit,
    enumerate_wedge_minimal_models,
    first_betti,
    minimal_wedge_size,
    wedge_uniqueness_scan,
)

print("minimal sizes:", [(n, minimal_wedge_size(n)) for n in range(1, 10)])
print()

# complete bipartite posets realize b1 = (i-1)(j-1)
for i, j in [(2, 3), (2, 4), (3, 3)]:
    b = bipartite_model(i, j)
    print(f"bipartite({i},{j}): {b.n} points, {len(b.covers)} edges, b1 = {first_betti(b)}")
print()

# the three shapes of a triple circle wedge, all with 6 points and 8 edges
models = enumerate_wedge_minimal_models(3)
print(f"{len(models)} minimal models of a 3-circle wedge:")
for m in models:
    cert = check_wedge_model(m, 3)
    print(f"--- {m.n} points, {cert.edges} edges, b1 = {cert.b1}")
    print(emit(m), end="")
print()

# bipartite(3,3) has the right size but models four circles, not three
cert = check_wedge_model(bipartite_model(3, 3), 3)
print("bipartite(3,3) as a 3-wedge model:",
      f"size_ok={cert.size_ok} edges_ok={cert.edges_ok} (b1 = {cert.b1})")
print()

print(" n  models  (unique iff n is a square)")
for n, count in wedge_uniqueness_scan(6):
    print(f"{n:>2}  {count:>6}")
