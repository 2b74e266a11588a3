# A six-point space on which neither quotient reduction makes progress,
# even though a smaller weakly equivalent space exists one collapse away.

from finito import (
    FinitePoset,
    beat_points,
    euler_characteristic,
    mccord_check,
    nh_suspension,
    osaki,
    poset_homology,
)

x = FinitePoset.from_cover_pairs(
    6,
    [(3, 0), (4, 0), (3, 1), (4, 1), (5, 1), (4, 2), (5, 2)],
    labels=["a1", "b", "a2", "c", "d", "e"],
)
y = nh_suspension(FinitePoset.antichain(3))  # five points

print("X:", x)
print("beat points:", beat_points(x))

# open and closed reductions either do not apply or fail to shrink
show = lambda size: "n/a" if size is None else f"{size} points"
for point, (open_n, closed_n) in enumerate(osaki(x)):
    print(f"  {x.label(point)}: open {show(open_n)}, closed {show(closed_n)}")

# yet X is weakly equivalent to the 5-point suspension: the collapse of the
# two top points passes the basis-like cover criterion (in y the three
# minimal points are 0,1,2 and the tops 3,4)
collapse = [3, 4, 3, 0, 1, 2]
report = mccord_check(x, y, collapse)
print("collapse passes the cover criterion:", report.ok)
print("euler:", euler_characteristic(x), "=", euler_characteristic(y))
print("betti:", poset_homology(x).betti, "=", poset_homology(y).betti)
