# The smallest space behaving like an n-sphere has 2n+2 points: two new
# maximal points over the model one dimension down.  Exhaustive enumeration
# confirms there is nothing smaller and nothing else of that size.

from finito import (
    beat_points,
    emit,
    nh_suspension,
    poset_homology,
    sphere_model,
    verify_sphere_theorem,
)

for n in range(4):
    s = sphere_model(n)
    print(f"n={n}: {s.n} points, height {s.height}, "
          f"betti {poset_homology(s).betti}, beat points {len(beat_points(s))}")
print()
print("the 4-point circle model:")
print(emit(sphere_model(1)))

# suspension of anything adds two incomparable tops
print("suspending the 4-point model gives the 2-sphere model:")
print(emit(nh_suspension(sphere_model(1))))

# scan every class with at most 6 points (heights up to 3)
report = verify_sphere_theorem(3)
print(f"scanned {report.classes_scanned} classes with <= {report.points_scanned} points")
print("lower-bound violations:", len(report.lower_bound_violations))
for h, classes in sorted(report.equality_classes.items()):
    print(f"height {h}: {len(classes)} minimal class(es) with exactly {2*h} points")
print("confirmed:", report.confirmed)
