"""Shared generators for randomized tests.  Every caller passes its own
seeded random.Random so the suite is deterministic."""

import math
from fractions import Fraction

from dhpoly import (
    BiPoly,
    BorderSpec,
    RatMatrix,
    SandConfig,
    border_positions,
    build_impulse_set,
    complete,
    discrete_laplacian_poly,
    extension_coefficients,
    generate_basis,
    interpolates,
    is_discrete_harmonic,
    is_inner_harmonic,
)
from dhpoly.errors import InvariantError, PreconditionError
from dhpoly.grid import _common_denominator, _count, _fraction
from dhpoly.interpolate import (
    _BASE_BASIS,
    _BASIS_4,
    ImpulseSet,
    _base_cardinals,
    _block_border_sites,
    _cardinals,
    _extend,
    _from_coordinates,
    _interpolant,
    _verify_impulse,
)
from dhpoly.poly import DHBasis, _linear_combination, _primitive_poly


def random_rational(rng, max_num=9, max_den=5):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_matrix(rng, L, max_num=9, max_den=5):
    return RatMatrix(
        [[random_rational(rng, max_num, max_den) for _ in range(L)] for _ in range(L)]
    )


def random_border(rng, L, max_num=9, max_den=5):
    return BorderSpec(
        L, tuple(random_rational(rng, max_num, max_den) for _ in range(4 * L - 4))
    )


def random_inner_harmonic(rng, L):
    """Random inner-harmonic matrix via completion of a random border."""
    return complete(random_border(rng, L))


def affine_march(border):
    """The affine forms of affine_complete, in the L - 2 unknowns (integer
    coefficients, then a rational constant), marched upward.  Returns
    (value, rows, top): the border by display position, rows[k] holding
    display row L - k up to row 2, and the L - 2 inner forms of the top row,
    whose coefficient parts are the matrix that is matched with the top
    border."""
    L = border.size
    n = L - 2
    value = dict(zip(border_positions(L), border.values))

    def known(v):
        return [0] * n + [v]

    def side(i, row):
        return [known(value[(i, 1)]), *row, known(value[(i, L)])]

    unknowns = [[int(k == m) for m in range(n)] + [0] for k in range(n)]
    # rows[k] holds display row L - k as forms; the top row is matched, not kept
    rows = [[known(value[(L, j)]) for j in range(1, L + 1)], side(L - 1, unknowns)]
    for i in range(L - 1, 1, -1):
        below, here = rows[-2], rows[-1]
        above = [
            [4 * c - b - w - e for c, b, w, e in zip(here[j], below[j], here[j - 1], here[j + 1])]
            for j in range(1, L - 1)
        ]
        rows.append(side(i - 1, above) if i > 2 else above)
    top = rows.pop()
    return value, rows, top


def affine_complete(border):
    """Completion with every entry carried as an affine form (see
    affine_march) and read off as Fraction dot products with the solution:
    the reference that completion.complete's integer marches are checked
    against."""
    L = border.size
    n = L - 2
    value, rows, top = affine_march(border)
    x = solve([f[:n] for f in top], [value[(1, j)] - f[n] for j, f in enumerate(top, 2)])
    x = [*x, 1]
    grid = [[value[(1, j)] for j in range(1, L + 1)]]
    grid += [[sum(c * v for c, v in zip(f, x)) for f in row] for row in reversed(rows)]
    return RatMatrix(grid)


def solve_3x3(A):
    """The base-case interpolant by evaluating the eight base-basis elements
    at the eight border sites and solving that 8x8 system: the reference
    that the combination of the cached base cardinals, _base_cardinals(), is
    checked against."""
    sites = _block_border_sites(3)
    rows = [[p.evaluate(x, y) for p in _BASE_BASIS] for x, y in sites]
    rhs = [A.at(x, y) for x, y in sites]
    coeffs = solve(rows, rhs)
    return sum((c * p for c, p in zip(coeffs, _BASE_BASIS) if c), BiPoly.zero())


def sum_extend(chi, A, impulses):
    """One enlargement step as chi plus each scaled impulse, added pairwise
    with BiPoly +: the reference that interpolate._extend's single
    combination is checked against."""
    z = extension_coefficients(chi, A, impulses)
    return sum((c * xi for c, xi in zip(z, impulses.polys) if c), chi)


def stage_telescopic(H):
    """telescopic as a loop of polynomial stages: the base combination, then
    one _extend per size, each forming the enlarged interpolant as a new
    polynomial, with telescopic's checks.  The reference that telescopic's
    steps in canonical coordinates are checked against."""
    if not is_inner_harmonic(H):
        raise PreconditionError("matrix is not inner-harmonic")
    chi = _linear_combination([H.at(x, y) for x, y in _block_border_sites(3)], _base_cardinals())
    for m in range(3, H.size):
        chi = _extend(chi, H, build_impulse_set(m))
    if not (is_discrete_harmonic(chi) and interpolates(chi, H)):
        raise InvariantError("telescopic result does not interpolate the matrix")
    return chi


def corrupt_dipole(impulses):
    """The impulse set built by hand with its dipole replaced by the dipole
    plus the corner impulse (nonzero at (m, m)), values kept: a step that
    scales the dipole by z != 0 leaves the interpolant wrong at (m, m), so
    the next step's paired border mismatches are not antisymmetric."""
    polys = impulses.polys
    return ImpulseSet(impulses.size, (*polys[:3], polys[3] + polys[1]), impulses.values)


def _poly_mul_int(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def lagrange_bilinear(H):
    """Tensor-product Lagrange interpolant with the cardinals multiplied out
    as integer coefficient lists and the terms summed in Fraction arithmetic:
    the reference that interpolate.bilinear's BiPoly construction is checked
    against."""
    L = H.size
    cardinals = []
    for u in range(L):
        num = [1]
        den = 1
        for j in range(L):
            if j != u:
                num = _poly_mul_int(num, [-j, 1])
                den *= u - j
        cardinals.append((num, den))

    terms = {}
    for u in range(L):
        for v in range(L):
            z = H.at(u, v)
            if not z:
                continue
            num_u, den_u = cardinals[u]
            num_v, den_v = cardinals[v]
            scale = z / (den_u * den_v)
            for a, cu in enumerate(num_u):
                if not cu:
                    continue
                for b, cv in enumerate(num_v):
                    if not cv:
                        continue
                    key = (a, b)
                    s = terms.get(key, Fraction(0)) + scale * cu * cv
                    if s:
                        terms[key] = s
                    else:
                        terms.pop(key, None)
    return BiPoly(terms)


def random_poly(rng, max_degree=6, n_terms=8, max_num=9, max_den=5):
    terms = {}
    for _ in range(n_terms):
        a = rng.randint(0, max_degree)
        b = rng.randint(0, max_degree - a)
        terms[(a, b)] = random_rational(rng, max_num, max_den)
    return BiPoly(terms)


def naive_evaluate(P, x, y):
    """Term-by-term Fraction sum of c * x**a * y**b: the reference that
    BiPoly.evaluate's integer Horner form is checked against."""
    acc = Fraction(0)
    for (a, b), c in P.terms():
        acc += c * x**a * y**b
    return acc


def naive_phi(f, config):
    """Entry-by-entry Fraction sum of weight times height, reduced mod L: the
    reference that sandpile.phi's integer dot product is checked against."""
    L = config.size
    total = Fraction(0)
    for frow, hrow in zip(f.rows, config.heights):
        for w, h in zip(frow, hrow):
            total += w * h
    return total % L


def naive_step(config):
    """One parallel toppling with explicit torus moduli, returned through the
    validating SandConfig constructor: the reference for sandpile.step."""
    L = config.size
    h = config.heights
    toppling = [[1 if h[r][c] >= 4 else 0 for c in range(L)] for r in range(L)]
    new = [
        [
            h[r][c]
            - 4 * toppling[r][c]
            + toppling[(r - 1) % L][c]
            + toppling[(r + 1) % L][c]
            + toppling[r][(c - 1) % L]
            + toppling[r][(c + 1) % L]
            for c in range(L)
        ]
        for r in range(L)
    ]
    return SandConfig(tuple(tuple(row) for row in new))


class SingularMatrixError(ArithmeticError):
    """Square system has no unique solution.  Carries the rank found."""

    def __init__(self, rank, message=None):
        super().__init__(message or f"singular system (rank {rank})")
        self.rank = rank


def _integer_rows(A):
    """Rows of A through the one exactness gate and scaled each by the lcm of
    its denominators, in one pass; row scaling preserves solution sets and row
    spaces.  int entries are taken as they are, anything else goes through
    grid._fraction, so strings, floats, Decimals, bools and int or Fraction
    subclasses raise TypeError.  Ragged rows raise ValueError."""
    out = []
    for row in A:
        out.append(_common_denominator([v if type(v) is int else _fraction(v) for v in row])[1])
    if any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def _ff_echelon(m, ncols):
    """Fraction-free row echelon over the integers, in place.

    Only the first ``ncols`` columns are eligible as pivots.  Returns the list
    of (row, col) pivots.  Below each pivot only the columns right of it are
    updated: left of it those rows are already zero, since every earlier
    column is either cleared below its pivot or was zero there when skipped.
    """
    nrows = len(m)
    width = len(m[0]) if m else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        top = m[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            mic = row[c]
            for j in range(c + 1, width):
                row[j] = (piv * row[j] - mic * top[j]) // prev
            row[c] = 0
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def _back_substitute(m, pivots, cols):
    """Integer back-substitution over the echelon form left by _ff_echelon.

    Returns (d, rows).  d is the last pivot, the Bareiss determinant of the
    pivot minor (1 when there are no pivots), and rows[k] lists
    d * R[k][j] for j in ``cols``, where R is the reduced row echelon form.
    By Cramer's rule every entry of d * R is an integer, so working from the
    last pivot up,

        row_k <- (d * row_k - sum_{s > k} row_k[c_s] * row_s) / row_k[c_k]

    divides exactly at every step.
    """
    if not pivots:
        return 1, []
    d = m[pivots[-1][0]][pivots[-1][1]]
    out = [None] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        row = m[pivots[k][0]]
        acc = [d * row[j] for j in cols]
        for s in range(k + 1, len(pivots)):
            f = row[pivots[s][1]]
            if f:
                acc = [a - f * v for a, v in zip(acc, out[s])]
        p = row[pivots[k][1]]
        out[k] = [a // p for a in acc]
    return d, out


def solve(A, b):
    """Exact solution of the square rational system A x = b, as Fractions,
    from the general elimination above (pivot lists, rank-deficient columns
    skipped): the reference that dhpoly.linalg._integer_solve, which shares
    no code with it, is checked against.  Entries pass the exactness gate
    (see _integer_rows).  Raises SingularMatrixError (carrying the rank of
    A) when A is singular, ValueError for a bad shape."""
    A, b = [list(row) for row in A], list(b)
    n = len(A)
    if len(b) != n:
        raise ValueError("right-hand side length must match the matrix size")
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("solve requires a square nonempty matrix")
    m = _integer_rows(row + [t] for row, t in zip(A, b))
    pivots = _ff_echelon(m, n)
    if len(pivots) < n:
        raise SingularMatrixError(len(pivots))
    d, X = _back_substitute(m, pivots, [n])
    return [Fraction(row[0], d) for row in X]


def rref(A, ncols=None):
    """Reduced row echelon form over the rationals, from the integer
    elimination and back-substitution above.

    Returns (rows, pivot_columns) where rows is a list of Fraction tuples with
    zero rows dropped.  The RREF of a row space is unique, so the output is a
    canonical form of the input's row space.
    """
    m = _integer_rows(A)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = _ff_echelon(m, ncols)
    d, reduced = _back_substitute(m, pivots, range(ncols))
    return [tuple(Fraction(v, d) for v in row) for row in reduced], [c for _, c in pivots]


def rank(A, ncols=None):
    """Exact rank."""
    m = _integer_rows(A)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    return len(_ff_echelon(m, ncols))


def _primitive_ints(ints):
    """Divide a nonzero integer vector by its gcd, signed so the first nonzero
    entry is positive."""
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def primitive(vec):
    """Scale a rational vector to coprime integers with positive first nonzero
    entry.  The zero vector is returned unchanged.  Entries pass the
    exactness gate: int or Fraction, else TypeError."""
    [ints] = _integer_rows([vec])
    if not any(ints):
        return tuple(Fraction(v) for v in ints)
    return _primitive_ints(ints)


def nullspace(A, ncols=None):
    """Exact basis of the right kernel of A.

    Basis vectors come from the RREF with free variables taken in column
    order, each scaled to primitive integers with positive first nonzero
    entry.  Returns an empty list iff A has full column rank.  ``ncols`` must
    be given when A has no rows.
    """
    m = _integer_rows(A)
    if ncols is None:
        if not m:
            raise ValueError("ncols is required for a matrix with no rows")
        ncols = len(m[0])
    pivots = _ff_echelon(m, ncols)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    # d * R gives each kernel vector in integers: d at its free column and
    # -d * R[r][f] at pivot column c_r.
    d, reduced = _back_substitute(m, pivots, free_cols)
    basis = []
    for i, f in enumerate(free_cols):
        v = [0] * ncols
        v[f] = d
        for (_, c), row in zip(pivots, reduced):
            v[c] = -row[i]
        basis.append(_primitive_ints(v))
    return basis


def fraction_rref(rows, ncols):
    """RREF by Fraction back-substitution over the fraction-free echelon form:
    the reference that rref's integer back-substitution is checked against.
    Returns (rows, pivot_columns) like rref."""
    m = _integer_rows(rows)
    pivots = _ff_echelon(m, ncols)
    reduced = [[Fraction(v) for v in row] for row in m]
    for r, c in reversed(pivots):
        piv = reduced[r][c]
        reduced[r] = [v / piv for v in reduced[r]]
        for rr in range(r):
            factor = reduced[rr][c]
            if factor:
                reduced[rr] = [u - factor * v for u, v in zip(reduced[rr], reduced[r])]
    return [tuple(reduced[r]) for r, _ in pivots], [c for _, c in pivots]


def kernel_from_rref(reduced, pivot_cols, ncols):
    """Kernel basis read off an RREF in Fraction arithmetic, free columns in
    order, each scaled to coprime integers with positive first nonzero entry."""
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_cols):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(reduced, pivot_cols):
            v[c] = -row[f]
        mult = math.lcm(*(x.denominator for x in v))
        ints = [int(x * mult) for x in v]
        g = math.gcd(*ints)
        if next(x for x in ints if x) < 0:
            g = -g
        basis.append(tuple(Fraction(x // g) for x in ints))
    return basis


def _monomials_desc(N):
    """Exponent pairs of degree <= N in descending graded-lex order (x first)."""
    return [(a, total - a) for total in range(N, -1, -1) for a in range(total, -1, -1)]


def nullspace_basis(N):
    """The canonical harmonic basis as the RREF of the nullspace of the
    Laplacian matrix on all monomials of degree <= N: the reference that
    generate_basis's closed form is checked against."""
    sources = _monomials_desc(N)
    targets = _monomials_desc(N - 2) if N >= 2 else []
    target_index = {m: i for i, m in enumerate(targets)}

    rows = [[Fraction(0)] * len(sources) for _ in targets]
    for col, (a, b) in enumerate(sources):
        image = discrete_laplacian_poly(BiPoly.monomial(a, b))
        for key, c in image.terms():
            rows[target_index[key]][col] = c

    kernel = nullspace(rows, ncols=len(sources))
    echelon, _ = rref(kernel, ncols=len(sources))

    elements = []
    for vec in echelon:
        vec = primitive(vec)
        elements.append(BiPoly({sources[i]: v for i, v in enumerate(vec) if v}))
    # ascending degree; within a degree, descending leading monomial (x first)
    elements.sort(key=lambda p: (p.degree, -p.leading_term()[0][0]))
    return DHBasis(max_degree=N, elements=tuple(elements))


def _search_impulse(pool, table, constraint_sets, m, k):
    for points in constraint_sets:
        rows = [table[point] for point in points]
        for vec in nullspace(rows, ncols=len(pool)):
            acc = {}
            for v, terms in zip(vec, pool):
                if v:
                    for key, c in terms.items():
                        acc[key] = acc.get(key, 0) + v.numerator * c
            xi = _primitive_poly(BiPoly({key: c for key, c in acc.items() if c}))
            value = _verify_impulse(xi, m, k)
            if value is not None:
                return xi, value
    raise InvariantError(f"no impulse polynomial found for size {m}, index {k}")


def search_impulse_set(L):
    """The impulse set found by search: for impulses 0, 1 and 3, a 4L x 4L
    nullspace (zero on the 4L - 4 border sites of the L-lattice and at four
    extra points), each kernel vector tried in turn, then two alternate
    fourth points; impulse 2 is impulse 0 with x and y swapped.  The
    reference that build_impulse_set's direct construction is checked
    against."""
    basis = [p for p in generate_basis(2 * L).elements if p.degree >= 1]
    border = _block_border_sites(L)
    extras = {
        0: ((L - 1, L), (L, L), (L, 0), (L + 1, L)),
        1: ((0, L), (L - 1, L), (L, 0), (L + 1, L)),
        3: ((0, L), (L, L), (L, 0), (L + 1, L)),
    }
    alternate_fourth = ((L, L + 1), (L + 1, L - 1))
    points = set(border).union(*extras.values(), alternate_fourth)
    table = {point: [p.evaluate(*point) for p in basis] for point in points}
    pool = [p._num for p in basis]

    polys = [None] * 4
    values = [None] * 4
    for k, extra in extras.items():
        constraint_sets = [border + extra]
        for alt in alternate_fourth:
            constraint_sets.append(border + extra[:3] + (alt,))
        polys[k], values[k] = _search_impulse(pool, table, constraint_sets, L, k)

    swapped = _primitive_poly(polys[0].swap_xy())
    value = _verify_impulse(swapped, L, 2)
    if value is None:
        raise InvariantError(f"swapped impulse polynomial failed verification for size {L}")
    polys[2], values[2] = swapped, value
    return ImpulseSet(size=L, polys=tuple(polys), values=tuple(values))


def residual_span(L):
    """The five residuals of size L as polynomials: each of the last five
    canonical elements of degree <= 2L minus its interpolant from the sets
    3..L-1, the interpolant formed from its canonical coordinates."""
    sets = [build_impulse_set(m) for m in range(3, L)]
    low = sets[-1]._elements if sets else _BASIS_4
    return [
        e - _from_coordinates(*_interpolant(e._numerator_at, e._den, sets), low)
        for e in generate_basis(2 * L).elements[-5:]
    ]


def residual_impulse_set(L):
    """The impulse set of size L from the residuals formed as polynomials:
    impulses 0, 1 and 3 the _cardinals of residual_span(L) at (0, L),
    (L, L) and (L-1, L) vanishing at (L, 0) and (L+1, L), each scaled by
    _primitive_poly, and impulse 2 impulse 0's mirror.  The reference that
    build_impulse_set, which reads the residuals at those sites from
    coordinates, is checked against."""
    sites, zeros = ((0, L), (L, L), (L - 1, L)), ((L, 0), (L + 1, L))
    polys = [_primitive_poly(c) for c in _cardinals(residual_span(L), sites, zeros)]
    polys.insert(2, _primitive_poly(polys[0].swap_xy()))
    values = [_verify_impulse(xi, L, k) for k, xi in enumerate(polys)]
    if None in values:
        raise InvariantError(f"impulse {values.index(None)} of size {L} failed verification")
    return ImpulseSet(L, tuple(polys), tuple(values))


_ZERO = Fraction(0)


class FractionPoly:
    """A map from exponent pairs to nonzero Fraction coefficients, with every
    operation done term by term in Fraction arithmetic: the reference that
    BiPoly's integer-numerator core is checked against."""

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (a, b), c in items:
            key = (_count(a, 0, ValueError), _count(b, 0, ValueError))
            acc[key] = acc.get(key, _ZERO) + _fraction(c)
        self._terms = {key: c for key, c in acc.items() if c}

    @classmethod
    def of(cls, P):
        """The oracle's copy of a BiPoly."""
        return cls(dict(P.terms()))

    def terms(self):
        return self._terms.items()

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))

    @property
    def degree(self):
        return max((a + b for a, b in self._terms), default=-1)

    def evaluate(self, x, y):
        return naive_evaluate(self, x, y)

    def swap_xy(self):
        return FractionPoly({(b, a): c for (a, b), c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, FractionPoly):
            other = FractionPoly({(0, 0): other})
        return FractionPoly(list(self._terms.items()) + list(other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, FractionPoly):
            return FractionPoly({key: c * other for key, c in self._terms.items()})
        acc = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                acc[key] = acc.get(key, _ZERO) + c1 * c2
        return FractionPoly(acc)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, n):
        result = FractionPoly({(0, 0): 1})
        for _ in range(n):
            result = result * self
        return result

    def laplacian(self):
        """4P(x,y) - P(x-1,y) - P(x+1,y) - P(x,y-1) - P(x,y+1), with each
        shifted term expanded by the binomial theorem."""
        acc = {}
        for (a, b), c in self._terms.items():
            acc[a, b] = acc.get((a, b), _ZERO) + 4 * c
            for s in (-1, 1):
                for k in range(a + 1):
                    acc[k, b] = acc.get((k, b), _ZERO) - c * math.comb(a, k) * s ** (a - k)
                for k in range(b + 1):
                    acc[a, k] = acc.get((a, k), _ZERO) - c * math.comb(b, k) * s ** (b - k)
        return FractionPoly(acc)

    def __eq__(self, other):
        if isinstance(other, FractionPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        if self.degree <= 0:
            return hash(self._terms.get((0, 0), _ZERO))
        return hash(frozenset(self._terms.items()))
