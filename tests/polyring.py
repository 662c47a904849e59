"""Ring arithmetic on polynomials, for the tests' reference routes.

squot's `QPolynomial` holds ints and has no arithmetic: its products
and quotients run through the integer kernels of `squot.exact`.
`Poly` is a polynomial over Q, with int or Fraction coefficients, and
adds +, - and * between polynomials (and numbers), so that references
can be written as plain algebra, independent of those kernels.  A
`Poly` equals the `QPolynomial` with the same coefficients, and a
`QPolynomial` operand on either side of an operator is accepted.  Its
constructor skips `QPolynomial`'s int check, so a `Poly` handed to
squot itself must hold ints, as a `QPolynomial` does.
`factored` builds a denominator from (1 - x^m) factors and cyclotomic
Psi_d, the two kinds the tests draw.
"""

from fractions import Fraction
from itertools import repeat
from operator import add, mul

from squot.exact import FactoredDenominator, QPolynomial, _strip


def _coeffs(x) -> tuple:
    return (x,) if isinstance(x, (int, Fraction)) else x.coeffs


class Poly(QPolynomial):
    __slots__ = ()

    def __init__(self, coeffs=()):
        self.coeffs = _strip(list(coeffs))

    @staticmethod
    def monomial(degree, coeff=1) -> "Poly":
        return Poly([0] * degree + [coeff])

    def __add__(self, other):
        a, b = self.coeffs, _coeffs(other)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -Poly(_coeffs(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self.coeffs, _coeffs(other)
        if sum(map(bool, a)) > sum(map(bool, b)):
            a, b = b, a  # one row of b per nonzero term of a
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            if x:
                out[i:i + len(b)] = map(add, out[i:i + len(b)],
                                        map(mul, repeat(x), b))
        return Poly(out)

    __rmul__ = __mul__

    def valuation(self) -> int:
        """Order of vanishing at 0 (0 for the zero polynomial)."""
        return next((i for i, c in enumerate(self.coeffs) if c), 0)


ONE = Poly([1])


def factored(pairs, psi=()) -> FactoredDenominator:
    """prod (1 - x^m)^e over the (m, e) pairs times prod Psi_d^e over
    the (d, e) in psi, as one list of passes (`from_psi`): 1 - x^m is
    the product of the Psi_d over the divisors d of m."""
    return FactoredDenominator.from_psi(
        [(d, e) for m, e in pairs for d in range(1, m + 1) if m % d == 0]
        + list(psi))
