"""Sparse bivariate polynomials over exact rationals and the five-point
lattice Laplacian acting on them.

A polynomial is stored as one positive denominator D and a map from exponent
pairs to nonzero integer numerators, the coefficient of x^a y^b being
num[a, b] / D.  The gcd of D and all the numerators is 1, which makes
D the lcm of the reduced coefficient denominators and the form canonical:
equal polynomials store equal (D, numerators).  Arithmetic is therefore
integer arithmetic plus one gcd per result, and the public API still hands
out Fraction coefficients, built on request.  Every linear combination, from
P + Q, -P, c * P and P / c to a telescopic stage, is one _linear_combination:
one integer lcm of the denominators, one _combine of the numerator maps.

Both evaluators read one Horner table, built on first use: the numerators
by power of x, highest first, each power's by descending y.  evaluate runs
Horner in y inside Horner in x (_numerator_at, which the cardinal systems of
interpolate read as ints) and divides by D once; the restriction to the
lattice, _lattice_rows, does the same in integers one lattice row at a time.
The values on the lattice's frame (its rows y = 0 and 1 and its two side
columns), which grid's frame check reads, come from one pass over the
terms instead (_frame_numerators).  Every step is exact, so each value
equals the term-by-term sum.

Numbers meet polynomials through grid's one gate, ``type(v) in _RATIONAL``:
int or Fraction by exact type, so bool and subclasses fail by construction.
BiPoly(...) applies it through grid._fraction, and grid._count to the
exponents.  On failure + - * / and == return NotImplemented (a bool, float
or Decimal operand raises TypeError, and X == True is False) and evaluate
raises TypeError.

The Laplacian of a polynomial P is the polynomial identity
``4P(x,y) - P(x-1,y) - P(x+1,y) - P(x,y-1) - P(x,y+1)``, computed here
term-by-term through the one-variable monomial images, so no polynomial
shifting or expansion is ever needed.  Those images have integer
coefficients, so the Laplacian maps the numerators over the same D.
Polynomials annihilated by it are "discrete harmonic"; the kernel restricted
to degree <= N has dimension 2N + 1, with exactly two independent elements
of each exact degree >= 1.

A discrete harmonic polynomial is fixed by its y^0 and y^1 parts, as a
harmonic one is by its Cauchy data on y = 0: the Laplacian sends y^b to
y^(b-2) with coefficient -b(b-1), so each coefficient of x^m y^b, b >= 2,
is set by what the terms above it send to x^m y^(b-2).  The canonical basis
is the family whose y^0 and y^1 parts are single monomials, x^n or
x^(n-1) y, and generate_basis marches each element down from that pivot in
integers (see _basis_element), with no linear algebra on the Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .grid import _RATIONAL, _common_denominator, _count, _fraction

_ZERO = Fraction(0)


def _term_order(key):
    """Canonical order of an exponent pair: total degree, then x-exponent."""
    return key[0] + key[1], key[0]


def _horner(coeffs, points):
    """Values at each of ``points`` of the univariate polynomial with the
    integer coefficients ``coeffs``, lowest power first, by Horner."""
    coeffs = coeffs[::-1]
    out = []
    for p in points:
        acc = 0
        for c in coeffs:
            acc = acc * p + c
        out.append(acc)
    return out


class BiPoly:
    """Polynomial in x and y with exact rational coefficients, stored sparsely
    as integer numerators over one denominator.

    Invariant: ``_den`` > 0, no numerator in ``_num`` is zero, and
    gcd(_den, every numerator) = 1.  So the zero polynomial is D = 1 with no
    terms and reports degree -1, and ``==`` compares the stored form.
    Immutable; all arithmetic returns new objects.
    """

    __slots__ = ("_den", "_num", "_table")
    # Opts out of NumPy's operator dispatch, which unboxes NumPy ints past the gate.
    __array_ufunc__ = None

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (a, b), c in items:
            key = (_count(a, 0, ValueError), _count(b, 0, ValueError))
            acc[key] = acc.get(key, _ZERO) + _fraction(c)
        self._den, nums = _common_denominator(list(acc.values()))
        self._num = {key: n for key, n in zip(acc, nums) if n}
        self._table = None

    @classmethod
    def _from_ints(cls, den, num):
        """num / den for den > 0 and a fresh integer term map with no zero
        entry, reduced to the invariant by one gcd."""
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {key: n // g for key, n in num.items()}
        out = cls.__new__(cls)
        out._den = den
        out._num = num
        out._table = None
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, a, b, coeff=1):
        return cls({(a, b): coeff})

    def terms(self):
        """View of the term map (exponent pair -> Fraction coefficient),
        built on each call."""
        den = self._den
        return {key: Fraction(n, den) for key, n in self._num.items()}.items()

    def sorted_terms(self):
        """Terms in canonical order: total degree, then x-exponent, ascending."""
        return sorted(self.terms(), key=lambda kv: _term_order(kv[0]))

    def coefficient(self, a, b):
        n = self._num.get((a, b))
        return Fraction(n, self._den) if n else _ZERO

    @property
    def is_zero(self):
        return not self._num

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((a + b for a, b in self._num), default=-1)

    def leading_term(self):
        """Largest term under graded-lex order with x before y, or None."""
        if not self._num:
            return None
        key = max(self._num, key=_term_order)
        return key, Fraction(self._num[key], self._den)

    def evaluate(self, px, py):
        """Exact value at a rational point, as a Fraction.

        P(x, y) = (1/D) * sum_a x^a * sum_b num_ab y^b: the inner sums run
        Horner in y down the columns of the Horner table, the outer sum
        Horner in x, and D divides once at the end.  That only regroups the
        term-by-term sum in exact int or Fraction arithmetic, so the value is
        the same.  The operand gate is inlined (the hottest call); a failure
        raises TypeError.  The sum before the division is _numerator_at.
        """
        if not (type(px) in _RATIONAL and type(py) in _RATIONAL):
            raise TypeError("points must have int or Fraction coordinates")
        return Fraction(self._numerator_at(px, py), self._den)

    def _numerator_at(self, px, py):
        """D * P(px, py), the Horner sum that evaluate divides by D: an int
        at an integer point.  The points are not gated here."""
        table = self._table
        if table is None:
            table = self._horner_table()
        acc = 0
        for column in table:
            inner = 0
            for c in column:
                inner = inner * py + c
            acc = acc * px + inner
        return acc

    def _horner_table(self):
        """The Horner table, built on first use: column k holds the
        numerators of x^(d-k) y^b, d the top power of x, for b from its
        highest down to 0, with zeros in the gaps."""
        if self._table is None:
            height = {}
            for a, b in self._num:
                height[a] = max(height.get(a, 0), b + 1)
            top = max(height, default=-1)
            table = [[0] * height.get(a, 0) for a in range(top, -1, -1)]
            for (a, b), n in self._num.items():
                table[top - a][height[a] - 1 - b] = n
            self._table = table
        return self._table

    def _lattice_rows(self, L):
        """Yield the display rows of P on the size-L lattice, top row first,
        each a list of the integer numerators of the values over P's
        denominator.  For each lattice row y, P collapses once to a
        polynomial in x (an integer Horner sum in y per column of the table),
        and one Horner pass in x over the whole row gives its values."""
        table = self._horner_table()
        xs = range(L)
        for y in range(L - 1, -1, -1):
            row = [0] * L
            for column in table:
                c = 0
                for n in column:
                    c = c * y + n
                row = [v * x + c for v, x in zip(row, xs)]
            yield row

    def _frame_numerators(self, L):
        """The integer numerators of P's values over its denominator on the
        frame of the size-L lattice, L >= 2, as four lists: the lattice rows
        y = 0 and y = 1 for x = 0..L-1, then the columns x = 0 and x = L-1
        for y = 2..L-1.  One pass over the terms collapses P to the four
        univariate polynomials P(x, 0), P(x, 1), P(0, y) and P(L-1, y), and
        Horner evaluates each at its points: O(terms + degree * L) integer
        work, where the whole restriction is O(L * terms)."""
        top = self.degree
        powers = [1]
        for _ in range(top):
            powers.append(powers[-1] * (L - 1))
        row0, row1, left, right = ([0] * (top + 1) for _ in range(4))
        for (a, b), n in self._num.items():
            row1[a] += n
            right[b] += n * powers[a]
            if not b:
                row0[a] += n
            if not a:
                left[b] += n
        xs, ys = range(L), range(2, L)
        return _horner(row0, xs), _horner(row1, xs), _horner(left, ys), _horner(right, ys)

    def swap_xy(self):
        return BiPoly._from_ints(self._den, {(b, a): n for (a, b), n in self._num.items()})

    def _sum(self, other, a, b):
        """a * self + b * other for a polynomial or gated number other."""
        if type(other) in _RATIONAL:
            other = BiPoly.constant(other)
        elif not isinstance(other, BiPoly):
            return NotImplemented
        return _linear_combination((a, b), (self, other))

    def __add__(self, other):
        return self._sum(other, 1, 1)

    __radd__ = __add__

    def __neg__(self):
        return _linear_combination((-1,), (self,))

    def __sub__(self, other):
        return self._sum(other, 1, -1)

    def __rsub__(self, other):
        return self._sum(other, -1, 1)

    def __mul__(self, other):
        if type(other) in _RATIONAL:
            return _linear_combination((other,), (self,))
        if not isinstance(other, BiPoly):
            return NotImplemented
        acc = {}
        for (a1, b1), n1 in self._num.items():
            for (a2, b2), n2 in other._num.items():
                key = (a1 + a2, b1 + b2)
                acc[key] = acc.get(key, 0) + n1 * n2
        return BiPoly._from_ints(self._den * other._den, {k: v for k, v in acc.items() if v})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if type(scalar) not in _RATIONAL:
            return NotImplemented
        if not scalar:
            raise ZeroDivisionError("polynomial division by zero")
        return _linear_combination((Fraction(scalar.denominator, scalar.numerator),), (self,))

    def __pow__(self, n):
        n = _count(n, 0, ValueError)
        result = BiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if type(other) in _RATIONAL:
            other = BiPoly.constant(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # Constants equal the int or Fraction they hold, so hash like it.
        if self.degree <= 0:
            return hash(self.coefficient(0, 0))
        return hash((self._den, frozenset(self._num.items())))

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for (a, b), c in self.sorted_terms():
            piece = str(c)
            if a:
                piece += f"*x^{a}"
            if b:
                piece += f"*y^{b}"
            parts.append(piece)
        return " + ".join(parts)

    def __repr__(self):
        return f"BiPoly({self})"


#: Generator polynomials, handy for building expressions: X**2 - Y**2 etc.
X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)


@lru_cache(maxsize=None)
def _laplacian_table(n):
    """The terms of laplacian_monomial(n) as ((k, coefficient of v^k), ...),
    built once per n: the one place the stencil on monomials is written.
    Read by laplacian_monomial, by _add_laplacian (so by
    discrete_laplacian_poly, is_discrete_harmonic and generate_basis)."""
    return tuple((k, -2 * math.comb(n, k)) for k in range(n - 2, -1, -2))


def laplacian_monomial(n, variable="x"):
    """Image of v^n under the lattice Laplacian, as a polynomial in v.

    Equals 2v^n - (v-1)^n - (v+1)^n: the binomial terms of matching parity
    below degree n, doubled and negated.  Zero for n in {0, 1}.
    """
    if variable not in ("x", "y"):
        raise ValueError("variable must be 'x' or 'y'")
    table = _laplacian_table(_count(n, 0, ValueError))
    return BiPoly({((k, 0) if variable == "x" else (0, k)): d for k, d in table})


def _add_laplacian(acc, a, b, n):
    """Add n times the Laplacian image of x^a y^b, x^a L(y^b) + y^b L(x^a),
    to the integer term map acc."""
    for k, d in _laplacian_table(a):
        acc[k, b] = acc.get((k, b), 0) + n * d
    for k, d in _laplacian_table(b):
        acc[a, k] = acc.get((a, k), 0) + n * d


def _laplacian_ints(num):
    """Laplacian image of an integer term map, with no zero entry."""
    acc = {}
    for (a, b), n in num.items():
        _add_laplacian(acc, a, b, n)
    return {key: v for key, v in acc.items() if v}


def discrete_laplacian_poly(P):
    """Lattice Laplacian of a polynomial, as an exact polynomial identity.

    Computed term-by-term: the image of x^a y^b is
    x^a * L(y^b) + y^b * L(x^a), which drops total degree by at least 2.
    The images have integer coefficients, so this maps P's numerators and
    keeps its denominator.
    """
    return BiPoly._from_ints(P._den, _laplacian_ints(P._num))


def is_discrete_harmonic(P):
    """True iff the lattice Laplacian of P is identically zero."""
    return not _laplacian_ints(P._num)


@dataclass(frozen=True)
class DHBasis:
    """Graded basis of discrete harmonic polynomials up to ``max_degree``."""

    max_degree: int
    elements: tuple

    def of_degree(self, k):
        return tuple(p for p in self.elements if p.degree == k)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _combine(coeffs, maps):
    """Term map of sum c_k m_k for integer c_k and integer term maps m_k with
    no zero entry, dropping the terms that cancel.  Starts from a scaled copy
    of the first map with a nonzero coefficient."""
    out = None
    for c, m in zip(coeffs, maps):
        if not c:
            continue
        if out is None:
            out = {key: c * a for key, a in m.items()}
            continue
        for key, a in m.items():
            v = out.get(key, 0) + c * a
            if v:
                out[key] = v
            else:
                del out[key]
    return out or {}


def _primitive_poly(P):
    """Nonzero P scaled to coprime integer coefficients, signed so its first
    term in canonical order is positive."""
    num = P._num
    g = math.gcd(*num.values())
    if num[min(num, key=_term_order)] < 0:
        g = -g
    return BiPoly._from_ints(1, {key: n // g for key, n in num.items()})


def _linear_combination(coeffs, polys):
    """sum c_k P_k for int or Fraction c_k, the one place a combination of
    polynomials is formed.  In integers: D is the lcm of the products
    c_k.denominator * D_k, c_k P_k is c_k.numerator * (D // that product)
    times P_k's numerators over D, and one _combine sums those maps;
    _from_ints then reduces the result to canonical form."""
    dens = [c.denominator * p._den for c, p in zip(coeffs, polys)]
    den = math.lcm(*dens)
    scales = [c.numerator * (den // d) for c, d in zip(coeffs, dens)]
    return BiPoly._from_ints(den, _combine(scales, (p._num for p in polys)))


def _basis_element(pivot):
    """Primitive integer term map of the discrete harmonic polynomial whose
    y^0 and y^1 parts are the pivot monomial alone; n is its degree.

    A march from the pivot term: the total degrees d = n..0 and, within
    each, the x-exponents m = d..0.  For b = d - m >= 2 the coefficient of
    x^m y^b is set to cancel what has reached x^m y^(b-2) in the Laplacian
    image, then each nonzero term adds its own image.  Everything else that
    reaches x^m y^(b-2) has a higher total degree or, at degree d, the
    x-exponent m + 2, so it came earlier, and nothing later reaches it: the
    image ends zero.  When b(b-1) does not divide the value to cancel, the
    numerators and the image are scaled up first; one gcd ends the march.
    """
    n = sum(pivot)
    num = {pivot: 1}
    image = {}
    for d in range(n, -1, -1):
        for m in range(d, -1, -1):
            b = d - m
            if b >= 2:
                v = image.pop((m, b - 2), 0)
                if v:
                    w = b * (b - 1)
                    f = w // math.gcd(v, w)
                    if f != 1:
                        num = {key: c * f for key, c in num.items()}
                        image = {key: c * f for key, c in image.items()}
                    num[m, b] = v * f // w
            c = num.get((m, b))
            if c:
                _add_laplacian(image, m, b, c)
    g = math.gcd(*num.values())
    return {key: c // g for key, c in num.items()}


def generate_basis(N):
    """Canonical basis of the discrete harmonic polynomials of degree <= N:
    the reduced row echelon form of the kernel over the monomial coordinates
    in descending graded-lex order (x before y), each row scaled to
    primitive integer coefficients with positive leading coefficient.

    The pivots are the y^0 and y^1 monomials, so the element with pivot x^n
    or x^(n-1) y has that monomial as its whole y^0 and y^1 part, and
    _basis_element builds it with the pivot coefficient positive.  Returns
    2N + 1 elements by ascending degree, the x^n pivot before the x^(n-1) y
    one.  N passes the count gate with ValueError, like an exponent.
    """
    pivots = [(0, 0)]
    for n in range(1, _count(N, 0, ValueError) + 1):
        pivots += [(n, 0), (n - 1, 1)]
    elements = tuple(BiPoly._from_ints(1, _basis_element(p)) for p in pivots)
    return DHBasis(max_degree=N, elements=elements)


@lru_cache(maxsize=None)
def _build_tabulated():
    F = Fraction
    x, y = X, Y
    return (
        BiPoly.constant(1),
        y,
        x,
        x * y,
        x**2 - y**2,
        -3 * x**2 * y + y**3,
        x**3 - 3 * x * y**2,
        x**3 * y - x * y**3,
        x**4 - 2 * x**2 - 6 * x**2 * y**2 + y**4,
        5 * x**4 * y - 10 * x**2 * y**3 - 10 * x**2 * y + y**5,
        x**5 - 10 * x**3 * y**2 + 5 * x * y**4 - 10 * x * y**2,
        x**5 * y - F(10, 3) * x**3 * y**3 - F(10, 3) * x * y**3 + x * y**5,
        -15 * x**4 * y**2 - 10 * x**4 + 10 * x**2 + 15 * x**2 * y**4
        + 30 * x**2 * y**2 - y**6 + x**6,
        35 * x**4 * y**3 + 70 * x**4 * y - 21 * x**2 * y**5 - 70 * x**2 * y**3
        - 70 * x**2 * y + y**7 - 7 * x**6 * y,
        -21 * x**5 * y**2 - 70 * x**3 * y**2 + 35 * x**3 * y**4 - 7 * x * y**6
        + 70 * x * y**4 - 70 * x * y**2 + x**7,
        -7 * x**5 * y**3 + 7 * x**3 * y**5 - F(70, 3) * x**3 * y**3
        - F(70, 3) * x * y**3 - x * y**7 + 14 * x * y**5 + x**7 * y,
        -140 * x**4 * y**2 + 70 * x**4 * y**4 - 140 * x**4 + 166 * x**2
        - 28 * x**2 * y**6 + 280 * x**2 * y**4 + 560 * x**2 * y**2 + y**8
        - 28 * y**6 + x**8 - 28 * x**6 * y**2,
        126 * x**5 * y**4 - 252 * x**5 * y**2 - 84 * x**3 * y**6
        - 840 * x**3 * y**2 + 840 * x**3 * y**4 + 9 * x * y**8 - 252 * x * y**6
        + 1260 * x * y**4 - 1026 * x * y**2 + x**9 - 36 * x**7 * y**2,
        840 * x**4 * y**3 + 126 * x**4 * y**5 + 1260 * x**4 * y
        - 252 * x**2 * y**5 - 36 * x**2 * y**7 - 840 * x**2 * y**3
        - 1026 * x**2 * y + y**9 + 9 * x**8 * y - 84 * x**6 * y**3
        - 252 * x**6 * y,
    )


def tabulated_basis():
    """Fixed hand-tabulated basis of discrete harmonic polynomials up to
    degree 9: one constant plus two elements of each degree 1..9, built on
    first use."""
    return DHBasis(max_degree=9, elements=_build_tabulated())
