"""Shared generators for randomized tests.  Every caller passes its own
seeded random.Random so the suite is deterministic."""

from fractions import Fraction

from dhpoly import BiPoly, BorderSpec, RatMatrix, complete


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
