"""
The bracket polynomial as a knot-type oracle
============================================

An exact Laurent polynomial, computed by one bottom-to-top sweep whose
cost follows the word's trunk.  Two words presenting the same
knot must agree on the writhe-normalized value, so search and rewrite
results can be checked instead of trusted.
"""

from morsewidth import (
    catalog,
    connected_sum,
    jones_normalized,
    kauffman_bracket,
    pad_with_fingers,
    writhe,
)

trefoil = catalog("trefoil_plat")
print("trefoil bracket:", kauffman_bracket(trefoil))
print("writhe:", writhe(trefoil))
print("normalized:", jones_normalized(trefoil))

# The figure-eight is amphichiral; its normalized polynomial is
# palindromic in the exponent.
fig8 = catalog("figure8_plat")
poly = jones_normalized(fig8)
print("figure-eight:", poly)
print("palindromic:", dict(poly.coefficients())
      == {-e: c for e, c in poly.coefficients().items()})

# Padding a word with fingers changes the diagram, not the knot.
fat = pad_with_fingers(trefoil, 3)
print("padded trefoil agrees:", jones_normalized(fat) == jones_normalized(trefoil))

# Connected sum multiplies normalized polynomials.
granny = connected_sum(trefoil, trefoil)
print("granny knot is the product:",
      jones_normalized(granny) == jones_normalized(trefoil) * jones_normalized(trefoil))

# The mirror (all crossing signs flipped) is a different knot here,
# with the mirrored polynomial.
mirror = catalog("torus_plat(2,3)")
from morsewidth import MorseWord, cross
flipped = MorseWord(
    cross(e.index, -e.sign) if e.sign else e for e in mirror.events
)
print("mirror differs:", jones_normalized(flipped) != jones_normalized(trefoil))
