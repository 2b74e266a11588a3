# A finite T0 space is a finite poset: points ordered by specialization.
# This walks one 4-point space through the basic order-theoretic toolkit.

from finito import FinitePoset, emit, parse_poset

text = """\
# four points, a on top
d < b
b < a
c < a
"""

# parse_poset gives the labelled poset and the @base point (None here)
space, _ = parse_poset(text)
print("points:", [space.label(x) for x in range(space.n)])
print("height:", space.height)

# The minimal open set of a point is its down-set; the closure its up-set.
b = space.labels.index("b")
d = space.labels.index("d")
print("U_b =", sorted(space.label(x) for x in space.min_open(b)))
print("cl{d} =", sorted(space.label(x) for x in space.closure(d)))

# Covers (the Hasse diagram) are recovered by transitive reduction
print("covers:", sorted(
    (space.label(x), space.label(y)) for x, y in space.covers
))

# The opposite space reverses the order; doing it twice is a no-op.
op = space.opposite()
print("opposite covers:", sorted(
    (op.label(x), op.label(y)) for x, y in op.covers
))
assert op.opposite() == space

# Homeomorphism = order isomorphism, decided by canonical fingerprints.
shuffled = space.relabel([3, 0, 2, 1])
print("shuffled copy homeomorphic:", shuffled.is_homeomorphic(space))

# Graphviz rendering puts lower points below.
print()
print(emit(space, "dot"))
