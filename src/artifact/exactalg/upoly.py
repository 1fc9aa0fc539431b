"""Dense univariate polynomials with exact Q(sqrt d) coefficients.

Coefficients are stored ascending by degree with trailing zeros stripped;
the zero polynomial has an empty coefficient tuple and degree -inf.  All
classical operations are exact: ring arithmetic, Euclidean division,
monic gcd, inverses modulo a polynomial, derivatives, and Yun's
squarefree decomposition.  Every polynomial carries the field
discriminant d so that even the zero polynomial knows its coefficient
field.  Coefficients are canonical QuadExt values; a product is an
integer convolution over one denominator per operand, and each result
coefficient is built once by `field._make`, so it is the same canonical
triple as the QuadExt route.

`poly_gcd` first runs a one-sided modular test: it reduces both inputs
modulo the first prime p of `small_split_primes` (p = 3 mod 4, just
above 2^14, split in Q(sqrt d)) and returns 1 at once when their gcd
over F_p is 1.  The test only ever answers "coprime"; every other case,
including the ones where the reduction is not defined or drops a
degree, runs the exact Euclidean algorithm.  `proven_irreducible` runs
Musser's degree-set test on the same reduction at the primes of the
same table; it only ever answers "irreducible".  Both are sound for the
one reason argued in the docstring of `_reduce_mod_p`.  The reductions
use Python integers only, so no floating point enters the decision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import add, mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .field import QuadExt, _make

CoeffLike = Union[int, Fraction, QuadExt]

#: Degree of the zero polynomial: a sentinel below every integer, so that
#: degree comparisons remain total in degenerate cases.
NEG_INF = float("-inf")

Degree = Union[int, float]


def _coerce_coeff(c: CoeffLike, d: int) -> QuadExt:
    if isinstance(c, QuadExt):
        return c.in_field(d)
    return QuadExt(c, 0, d)


class UPoly:
    """A univariate polynomial over Q(sqrt d)."""

    __slots__ = ("coeffs", "d")

    coeffs: Tuple[QuadExt, ...]
    d: int

    def __new__(cls, coeffs: Iterable[CoeffLike] = (), d: int = 1):
        return _poly([_coerce_coeff(c, d) for c in coeffs], int(d))

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("UPoly is immutable")

    def __reduce__(self):
        return _poly, (list(self.coeffs), self.d)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(d: int) -> "UPoly":
        return UPoly((), d)

    @staticmethod
    def one(d: int) -> "UPoly":
        return UPoly((QuadExt(1, 0, d),), d)

    @staticmethod
    def x(d: int) -> "UPoly":
        return UPoly((QuadExt(0, 0, d), QuadExt(1, 0, d)), d)

    @staticmethod
    def constant(c: CoeffLike, d: int) -> "UPoly":
        return UPoly((c,), d)

    # -- structure -------------------------------------------------------------

    @property
    def degree(self) -> Degree:
        """Degree, with the zero polynomial at -inf (below every integer)."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 1

    def lc(self) -> QuadExt:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, n: int) -> QuadExt:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return QuadExt(0, 0, self.d)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other: "UPoly") -> None:
        if self.d != other.d:
            raise ValueError(f"mixing polynomials over d={self.d} and d={other.d}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            other = UPoly.constant(other, self.d)
        if not isinstance(other, UPoly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _poly([x + y for x, y in zip(a, b)] + list(a[len(b):]), self.d)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.coeffs], self.d)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, QuadExt, UPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product by integer convolution: with each operand over one
        denominator R as (P + Q*sqrt d)/R, the degree-k coefficient is
        (sum P1_i*P2_j + d*Q1_i*Q2_j + (P1_i*Q2_j + Q1_i*P2_j)*sqrt d)/(R1*R2)
        over i + j = k, which `_make` brings to its one canonical triple:
        the schoolbook QuadExt product exactly, with one `_make` per output
        coefficient.  No Q sums when neither operand has a surd."""
        if isinstance(other, (int, Fraction, QuadExt)):
            c = _coerce_coeff(other, self.d)
            return _poly([ci * c for ci in self.coeffs], self.d)
        if not isinstance(other, UPoly):
            return NotImplemented
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UPoly.zero(self.d)
        d = self.d
        p1, q1, r1 = _integer_parts(self.coeffs)
        p2, q2, r2 = _integer_parts(other.coeffs)
        out_p, r = _convolve(p1, p2), r1 * r2
        if not (any(q1) or any(q2)):
            return _poly([_make(p, 0, r, d) for p in out_p], d)
        out_p = [a + d * b for a, b in zip(out_p, _convolve(q1, q2))]
        out_q = map(add, _convolve(p1, q2), _convolve(q1, p2))
        return _poly([_make(p, q, r, d) for p, q in zip(out_p, out_q)], d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = UPoly.one(self.d)
        for bit in bin(n)[2:]:  # left to right: no square past the last bit
            result = result * result * self if bit == "1" else result * result
        return result

    def scale(self, c: CoeffLike) -> "UPoly":
        return self * _coerce_coeff(c, self.d)

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        lead = self.lc()
        if lead == 1:
            return self
        inv = lead.inverse()
        return _poly([c * inv for c in self.coeffs], self.d)

    def derivative(self) -> "UPoly":
        return _poly([c * i for i, c in enumerate(self.coeffs[1:], 1)], self.d)

    def antiderivative(self) -> "UPoly":
        """The antiderivative with zero constant term."""
        zero = QuadExt(0, 0, self.d)
        return _poly([zero] + [c / i for i, c in enumerate(self.coeffs, 1)],
                     self.d)

    # -- division ------------------------------------------------------------------

    def __divmod__(self, other: "UPoly") -> Tuple["UPoly", "UPoly"]:
        if not isinstance(other, UPoly):
            return NotImplemented
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return UPoly.zero(self.d), self
        rem = list(self.coeffs)
        dv = other.coeffs
        inv_lead = dv[-1].inverse()
        qdeg = len(rem) - len(dv)
        quo = [QuadExt(0, 0, self.d)] * (qdeg + 1)
        for i in range(qdeg, -1, -1):
            c = rem[i + len(dv) - 1] * inv_lead
            quo[i] = c
            if not c.is_zero():
                for j, b in enumerate(dv):
                    rem[i + j] = rem[i + j] - c * b
        return _poly(quo, self.d), _poly(rem[: len(dv) - 1], self.d)

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UPoly") -> "UPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    # -- dunder plumbing --------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            if self.degree > 0:
                return False
            return self.coeff(0) == other
        if isinstance(other, UPoly):
            return self.d == other.d and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def sort_key(self):
        return (self.degree, tuple(c.sort_key() for c in self.coeffs))

    def __repr__(self):
        from ..expr import format_poly

        return f"UPoly[{format_poly(self)}]"

    def __str__(self):
        from ..expr import format_poly

        return format_poly(self)


def _poly(cs: List[QuadExt], d: int) -> UPoly:
    """UPoly(cs, d) for coefficients that are already QuadExt of field d,
    without the coercion; strips trailing zeros off the list cs."""
    while cs and not (cs[-1].p or cs[-1].q):
        cs.pop()
    out = object.__new__(UPoly)
    object.__setattr__(out, "coeffs", tuple(cs))
    object.__setattr__(out, "d", d)
    return out


def _integer_parts(cs: Sequence[QuadExt]) -> Tuple[List[int], List[int], int]:
    """(P, Q, R) with cs[i] = (P[i] + Q[i]*sqrt d)/R, R the lcm of the c.r."""
    r = lcm(*[c.r for c in cs])
    return [c.p * (r // c.r) for c in cs], [c.q * (r // c.r) for c in cs], r


def _convolve(a: List[int], b: List[int]) -> List[int]:
    """The coefficients of the product of two nonempty integer polynomials.

    A plain double loop that skips zeros: at 2 to 55 coefficients it
    timed faster than one sum(map(mul, ...)) per output coefficient."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


# -- classical algorithms ------------------------------------------------------


@lru_cache(maxsize=16)
def small_split_primes(d: int) -> Tuple[Tuple[int, int], ...]:
    """(p, s) with s^2 = d mod p for the primes p = 3 (mod 4) in
    (2^14, 2^14 + 2^11) that split in Q(sqrt d), about 50; none for
    d = -1.  For p = 3 (mod 4), a square x mod p has the square root
    x^((p+1)/4).  A product of two residues is a one-digit Python int:
    with primes just below 2^61 the degree-set test ran 3-6 times slower
    and the gcd filter on a degree-32 pair 2.7 times slower."""
    return tuple((p, pow(d % p, (p + 1) // 4, p))
                 for p in range(2**14 + 3, 2**14 + 2**11, 4)
                 if all(p % q for q in range(3, isqrt(p) + 1, 2))
                 and pow(d % p, (p - 1) // 2, p) == 1)


def _reduce_mod_p(f: UPoly, p: int, s: int) -> Optional[List[int]]:
    """Coefficients of f mapped by (u + v*sqrt(d))/w -> (u + v*s)/w into
    F_p, ascending; None when p divides a denominator w or the leading
    coefficient maps to 0 (the image would lose degree).

    For an odd prime p with s^2 = d mod p, the map is a ring homomorphism
    from the local ring O of K = Q(sqrt d) at a prime above p onto F_p.
    When the image is defined, every monic factor of f over K has
    coefficients in O (Gauss's lemma in the discrete valuation ring O),
    so it maps to a factor of the image of the same degree.
    """
    out: List[int] = []
    for c in f.coeffs:
        x = c.p + c.q * s
        if c.r != 1:
            w = c.r % p
            if w == 0:
                return None
            x *= pow(w, -1, p)
        out.append(x % p)
    return out if out[-1] else None


def _strip(f: List[int]) -> List[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _rem_mod_p(f: List[int], g: List[int], p: int) -> List[int]:
    """Remainder of f by g over F_p, ascending lists, g[-1] != 0, the
    result stripped of leading zeros."""
    f = list(f)
    n = len(g) - 1
    inv = pow(g[-1], -1, p)
    for i in range(len(f) - 1, n - 1, -1):
        c = f[i] * inv % p
        if c:
            base = i - n
            for j in range(n):
                f[base + j] = (f[base + j] - c * g[j]) % p
    del f[n:]
    return _strip(f)


def _gcd_degree_mod_p(f: List[int], g: List[int], p: int) -> int:
    """Degree of gcd(f, g) over F_p, for stripped ascending lists, f != 0."""
    while len(g) > 1:
        f, g = g, _rem_mod_p(f, g, p)
    return 0 if g else len(f) - 1


def _coprime_mod_p(a: UPoly, b: UPoly) -> bool:
    """True only if gcd(a, b) = 1 is proven by the images mod the first
    prime of small_split_primes; False means "unknown", never "not
    coprime"."""
    primes = small_split_primes(a.d)
    if not primes:
        return False
    p, s = primes[0]
    f = _reduce_mod_p(a, p, s)
    g = _reduce_mod_p(b, p, s)
    if f is None or g is None:
        return False
    return _gcd_degree_mod_p(f, g, p) == 0


#: The degree-set test gives up after this many usable primes.
DEGREE_SET_PRIMES = 8


def _mulmod_p(a: List[int], b: List[int], f: List[int], p: int) -> List[int]:
    """a*b mod f over F_p, for nonzero ascending lists."""
    return _rem_mod_p([c % p for c in _convolve(a, b)], f, p)


def _factor_degrees_mod_p(f: List[int], p: int) -> List[int]:
    """Degrees of the irreducible factors of a monic squarefree f over F_p.

    Distinct-degree factorization without division: gcd(x^(p^i) - x, f)
    is the product of the factors whose degree divides i, so its degree,
    the sum of j*c_j over j | i for c_j factors of degree j, gives c_i.
    The Frobenius matrix, whose row j is x^(j*p) mod f, takes
    x^(p^(i-1)) mod f to x^(p^i) mod f.  A degree left over below 2*i is
    one factor.
    """
    n = len(f) - 1
    xp = [1]
    for bit in bin(p)[2:]:
        xp = _mulmod_p(xp, xp, f, p)
        if bit == "1":
            xp = _rem_mod_p([0] + xp, f, p)
    rows = [[1], xp]
    while len(rows) < n:
        rows.append(_mulmod_p(rows[-1], xp, f, p))
    cols = list(zip(*(row + [0] * (n - len(row)) for row in rows)))
    degrees: List[int] = []
    h, i = xp, 1
    while 2 * i <= n - sum(degrees):
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] -= 1
        found = _gcd_degree_mod_p(f, _strip([c % p for c in h_minus_x]), p)
        degrees += [i] * ((found - sum(j for j in degrees if i % j == 0)) // i)
        h = _strip([sum(map(mul, h, col)) % p for col in cols])
        i += 1
    if sum(degrees) < n:
        degrees.append(n - sum(degrees))
    return degrees


def proven_irreducible(g: UPoly) -> bool:
    """True only if Musser's degree-set test proves g irreducible over
    K = Q(sqrt d); False means "unknown", never "reducible".

    g has degree n >= 2.  Take a prime p of small_split_primes(d) at which
    the image f of g is defined and squarefree (gcd(f, f') = 1 over F_p,
    as the distinct-degree count needs).  A monic factor h of g over K
    maps to a factor of f of the same degree (see `_reduce_mod_p`), so
    deg h is a sum of the degrees of some irreducible factors of f.  The
    test intersects these sets of sums over up to DEGREE_SET_PRIMES such
    primes and proves g irreducible only when just {0, n} is left.  Other
    primes are skipped; d = -1 has none.
    """
    n = g.degree
    possible, used = (1 << (n + 1)) - 1, 0
    for p, s in small_split_primes(g.d):
        f = _reduce_mod_p(g, p, s)
        if f is None or _gcd_degree_mod_p(
                f, _strip([i * c % p for i, c in enumerate(f)][1:]), p):
            continue
        sums = 1
        for e in _factor_degrees_mod_p(f, p):
            sums |= sums << e
        possible &= sums
        used += 1
        if possible == 1 | 1 << n or used == DEGREE_SET_PRIMES:
            return possible == 1 | 1 << n
    return False


def poly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic greatest common divisor (gcd(0, 0) = 0).

    When both inputs have degree >= 1, a modular test runs first, at the
    first prime p of small_split_primes(d).  When both images mod p are
    defined, a monic common divisor of positive degree over K maps to a
    common divisor of the images of the same degree (see
    `_reduce_mod_p`).  Hence a gcd of 1 over F_p proves a gcd of 1 over
    K, and 1 is returned, exactly what the Euclidean algorithm returns
    for coprime inputs.  In every other case (no prime of the table
    splits, as for d = -1, a denominator divisible by p, a leading
    coefficient that vanishes mod p, or a nontrivial gcd mod p) the exact
    Euclidean algorithm below runs unchanged, so the test never turns a
    nontrivial gcd into 1.
    """
    if a.d != b.d:
        raise ValueError("gcd of polynomials over different fields")
    if a.degree >= 1 and b.degree >= 1 and _coprime_mod_p(a, b):
        return UPoly.one(a.d)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def inverse_mod(f: UPoly, p: UPoly) -> UPoly:
    """The inverse of f modulo p; raises ValueError if gcd(f, p) != 1.

    Euclid on (f % p, p) carries only f's cofactor s, with s*f = r mod p.
    The last nonzero r is the gcd up to a unit, so f is invertible when r
    is a constant c; then s/c, of degree < deg p, is the inverse."""
    r0, r1 = f % p, p
    s0, s1 = UPoly.one(p.d), UPoly.zero(p.d)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise ValueError("element is not invertible modulo p")
    return s0.scale(r0.coeffs[0].inverse())


def squarefree_decompose(f: UPoly) -> List[Tuple[UPoly, int]]:
    """Yun's algorithm: monic pairwise-coprime squarefree parts with multiplicities.

    Returns [(g_i, m_i)] with f = lc(f) * prod g_i^{m_i}, each g_i monic
    squarefree nonconstant, and the m_i strictly increasing.
    """
    if f.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    f = f.monic()
    if f.degree == 0:
        return []
    df = f.derivative()
    g = poly_gcd(f, df)
    parts: List[Tuple[UPoly, int]] = []
    c = f.exact_div(g)
    w = df.exact_div(g) - c.derivative()
    m = 1
    while not c.is_constant():
        p = poly_gcd(c, w)
        if p.degree > 0:
            parts.append((p, m))
            c = c.exact_div(p)
            w = w.exact_div(p)
        w = w - c.derivative()
        m += 1
    return parts


def strip_power_of_x(f: UPoly) -> Tuple[int, UPoly]:
    """Writes f = xi^v * g with g(0) != 0; returns (v, g)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    v = 0
    while v < len(f.coeffs) and f.coeffs[v].is_zero():
        v += 1
    return v, _poly(list(f.coeffs[v:]), f.d)
