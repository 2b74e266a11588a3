# The fundamental group of a finite space can be read off its cover
# digraph: a loop is a tuple of points, each step along a cover edge, and
# the group is presented by the comparability edges outside a spanning tree.

from finito import (
    FinitePoset,
    close_move,
    core,
    edge_path_presentation,
    first_betti,
    loop_to_word,
    presentation_text,
    spanning_tree,
    sphere_model,
    tietze_simplify,
)

circle = sphere_model(1)  # minimal points 0,1 under maximal points 2,3
# loop words vanish on this tree, as loop_to_word builds it from the basepoint
print("spanning tree:", sorted(spanning_tree(circle, 0)))

loop = (0, 2, 1, 3, 0)
print("loop word:", loop_to_word(circle, 0, loop))
print("backtracking loop word:",
      loop_to_word(circle, 0, (0, 2, 0)))

# Inserting a monotonic out-and-back detour gives a close loop: the word
# image is unchanged.
detour = ((1, 2), (2, 1))
grown = close_move(circle, loop, 2, insert=detour)
print("after a close move:", loop_to_word(circle, 0, grown))
print()

print("circle:", presentation_text(edge_path_presentation(circle, 0)))

# A space whose complex is a full simplex has trivial group; the raw
# presentation still has generators, Tietze moves clean it up.
chain = FinitePoset.chain(4)
pres = edge_path_presentation(chain, 0)
print("4-chain raw:", presentation_text(pres))
print("4-chain simplified:", presentation_text(tietze_simplify(pres)))

# The core is a strong deformation retract, so the group can be presented
# on it instead, at the point the basepoint retracts to; `finito pi1` does
# this.  The chain's core is one point, with nothing to simplify.
trace = core(chain)
print("4-chain on its core:",
      presentation_text(edge_path_presentation(trace.final, trace.retract(0))))
print()

# first Betti number = rank of the abelianized group
stubborn = FinitePoset.from_cover_pairs(
    6, [(3, 0), (4, 0), (3, 1), (4, 1), (5, 1), (4, 2), (5, 2)]
)
print("six-point space:", presentation_text(edge_path_presentation(stubborn, 0)))
print("b1 =", first_betti(stubborn))
