"""
Filling a border to an inner-harmonic matrix
============================================

Fix arbitrary rational values on the border of a square matrix.  Forcing the
stencil to vanish at every inner site is a discrete Dirichlet problem, and by
the discrete maximum principle its solution is unique.  The stencil at an
inner site gives the entry above it from the entry itself, the entry below
and its two side neighbours, so the bottom two rows and the side columns
already determine the whole matrix.  Completion therefore needs only the
L - 2 inner values of the second-lowest row as unknowns: march the stencil
upward and match the top border.  Every step is exact rational arithmetic.
"""

from fractions import Fraction

from dhpoly import BorderSpec, complete, extract_border, is_inner_harmonic

# Border values are listed clockwise from the top-left display corner.
L = 5
border = BorderSpec(L, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, Fraction(-1, 2)))

M = complete(border)
print("completed matrix:")
for row in M.rows:
    print("  ", [str(v) for v in row])
print("inner-harmonic?", is_inner_harmonic(M))
print()

# The L - 2 unknowns the completion solves for: the inner values of the
# second-lowest display row.
unknowns = M.rows[L - 2][1:-1]
print(f"the {L - 2} unknowns (inner values of row {L - 1}):", [str(v) for v in unknowns])

# Keep only the bottom two rows and the side columns, then march the stencil
# upward: h[i-1][j] = 4 h[i][j] - h[i+1][j] - h[i][j-1] - h[i][j+1].
rows = [list(M.rows[L - 1]), list(M.rows[L - 2])]
for i in range(L - 2, 0, -1):
    below, here = rows[-2], rows[-1]
    above = [M.rows[i - 1][0]]
    above += [4 * here[j] - below[j] - here[j - 1] - here[j + 1] for j in range(1, L - 1)]
    above.append(M.rows[i - 1][L - 1])
    rows.append(above)
rows.reverse()
print("bottom two rows + side columns rebuild the matrix?", tuple(map(tuple, rows)) == M.rows)
print()

# Completion is exact and idempotent: stripping the interior and refilling
# reproduces the matrix.
print("refill reproduces it?", complete(extract_border(M)) == M)

# The all-zero border forces the all-zero matrix.
print("zero border completes to zero?", complete(BorderSpec(5, (0,) * 16)).rows == tuple((Fraction(0),) * 5 for _ in range(5)))
