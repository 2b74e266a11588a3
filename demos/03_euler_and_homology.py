# The order complex of a space has the nonempty chains as simplices; its
# homology and Euler characteristic are computed exactly over the integers.

from finito import (
    FinitePoset,
    bipartite_model,
    core,
    euler_characteristic,
    homology,
    order_complex,
    sphere_model,
)

# chains of a 3-chain = all nonempty subsets: a full triangle
full = order_complex(FinitePoset.chain(3))
print("3-chain f-vector:", full.f_vector)

# the 4-point circle model gives a 4-cycle graph
circle = sphere_model(1)
print("circle f-vector:", order_complex(circle).f_vector)
print("circle euler:", euler_characteristic(circle))
print(homology(order_complex(circle)))
print()

# sphere models have sphere homology
for n in range(1, 4):
    h = homology(order_complex(sphere_model(n)))
    print(f"dimension {n} sphere model: betti {h.betti}")
print()

# chain-sum Euler characteristic is a homotopy invariant; compare a space
# against its core
w = bipartite_model(2, 3)
print("wedge model euler:", euler_characteristic(w), "(b1 = 2 circles)")
print("euler of its core:", euler_characteristic(core(w).final))
print(homology(order_complex(w)))
