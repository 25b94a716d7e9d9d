"""Exact integer / finite-field primitives.

Everything downstream is built on the additive convention: the usual
multiplicative symbols with values in {+1, -1} are mapped to F2 via
+1 -> 0, -1 -> 1, so that quadratic conditions become linear equations.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

OO = float("inf")  # the real place

MAX_BITS = 63


class ArithError(Exception):
    pass


class NotSquarefree(ArithError):
    def __init__(self, p: int):
        self.p = p
        super().__init__(f"not squarefree: divisible by {p}^2")


class Overflow(ArithError):
    pass


class NotCoprime(ArithError):
    pass


class NonResidue(ArithError):
    pass


class ZeroArgument(ArithError):
    pass


# ---------------------------------------------------------------------------
# primality and factorization
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit (simple sieve), not cached: the caller drops them."""
    if limit < 2:
        return ()
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if mark[i]:
            mark[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return tuple(itertools.compress(range(limit + 1), mark))


@lru_cache(maxsize=None)
def sieve_primes(limit: int) -> tuple[int, ...]:
    """primes_up_to(limit), cached, for the small bounds read again and again."""
    return primes_up_to(limit)


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    x = 2
    c = 1
    while True:
        y, d = x, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        x += 1
        c += 1


_TRIAL_LIMIT = 10**6


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ordered (p, exponent) pairs.

    Trial division by primes <= L = min(10^6, a power of two > sqrt(n)),
    then Pollard rho; inputs are capped at 63 bits upstream so this always
    terminates quickly.  A cofactor below L^2 has no prime factor <= L left,
    so it is prime: every n < 10^12 needs no primality test.
    """
    factors: dict[int, int] = {}
    if n <= 1:
        return []
    # round the sieve limit up to a power of two so the cache stays small
    lim = min(_TRIAL_LIMIT, 1 << (math.isqrt(n) + 1).bit_length())
    for p in sieve_primes(lim):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n < lim * lim:  # also when the walk stopped at p: then n < p^2 <= lim^2
        if n > 1:
            factors[n] = 1
        return sorted(factors.items())
    stack = [n]  # rho splits off proper divisors, so no entry is 1
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(factors.items())


# ---------------------------------------------------------------------------
# squarefree decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquarefreeInteger:
    """A nonzero squarefree n split as sign * 2^a * 3^b * p_1 ... p_t.

    ntilde = |n| / gcd(6, |n|) is the product of the odd primes >= 5,
    and eta = n / ntilde lies in {+-1, +-2, +-3, +-6}.
    """

    value: int
    sign: int
    has_two: bool
    has_three: bool
    odd_primes: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.odd_primes)

    @property
    def ntilde(self) -> int:
        return math.prod(self.odd_primes)

    @property
    def eta(self) -> int:
        return self.sign * (2 if self.has_two else 1) * (3 if self.has_three else 1)

    def __neg__(self) -> "SquarefreeInteger":
        return SquarefreeInteger(
            -self.value, -self.sign, self.has_two, self.has_three, self.odd_primes
        )


def factor_squarefree(n: int) -> SquarefreeInteger:
    """Decompose a nonzero squarefree integer; NotSquarefree(p) if p^2 | n."""
    if n == 0:
        raise ZeroArgument("n must be nonzero")
    if abs(n) >= 1 << MAX_BITS:
        raise Overflow(f"|n| must be < 2^{MAX_BITS}")
    sign = 1 if n > 0 else -1
    m = abs(n)
    has_two = m % 2 == 0
    if has_two:
        m //= 2
        if m % 2 == 0:
            raise NotSquarefree(2)
    has_three = m % 3 == 0
    if has_three:
        m //= 3
        if m % 3 == 0:
            raise NotSquarefree(3)
    primes = []
    for p, e in factorize(m):
        if e > 1:
            raise NotSquarefree(p)
        primes.append(p)
    return SquarefreeInteger(n, sign, has_two, has_three, tuple(primes))


def factor_range(limit: int):
    """Yield SquarefreeInteger(m) for every squarefree 1 <= m <= limit, ascending.

    One smallest-prime-factor sieve serves the whole range, so a scan
    factors each m exactly once.  A limit below 1 yields nothing.
    """
    if limit < 1:
        return
    # 8 bytes an entry, where a list would hold a pointer and an int object
    spf = array("l", range(limit + 1))
    squarefree = bytearray([1]) * (limit + 1)
    squarefree[0] = 0
    # largest prime first, so each entry ends with its smallest prime factor
    for p in reversed(sieve_primes(math.isqrt(limit))):
        spf[p * p :: p] = array("l", [p]) * ((limit - p * p) // p + 1)
        squarefree[p * p :: p * p] = bytes((limit - p * p) // (p * p) + 1)
    for m in itertools.compress(range(limit + 1), squarefree):
        k = m if m & 1 else m >> 1
        odd = []
        while k > 1:
            p = spf[k]
            odd.append(p)
            k //= p
        three = m % 3 == 0
        yield SquarefreeInteger(m, 1, m % 2 == 0, three, tuple(odd[three:]))


def is_squarefree(n: int) -> bool:
    try:
        factor_squarefree(n)
        return True
    except NotSquarefree:
        return False


# ---------------------------------------------------------------------------
# Legendre symbols
# ---------------------------------------------------------------------------


def legendre_symbol(a: int, p: int) -> int:
    """The usual (a/p) in {+1, -1} for an odd prime p with p ∤ a."""
    if a % p == 0:
        raise NotCoprime(f"{p} divides {a}")
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def legendre_additive(a: int, p: int) -> int:
    """[a/p] in F2: 0 iff a is a quadratic residue mod p."""
    return (1 - legendre_symbol(a, p)) // 2


def legendre_table(primes) -> list[int]:
    """Bit j of row i is [p_j/p_i] over distinct odd primes, bit i is 0: one
    Euler-criterion pow per unordered pair, modulo the earlier prime (the
    smaller, for ascending primes), the transposed entry by quadratic
    reciprocity, [p_j/p_i] = [p_i/p_j] + eps(p_i) eps(p_j)."""
    rows = [0] * len(primes)
    for i, p in enumerate(primes):
        row = 0
        for j in range(i):
            q = primes[j]
            s = pow(p, q >> 1, q) != 1  # [p/q]
            rows[j] |= s << i
            row |= (s ^ (p & q & 2) >> 1) << j
        rows[i] = row
    return rows


# ---------------------------------------------------------------------------
# modular square roots
# ---------------------------------------------------------------------------


def sqrt_mod(a: int, p: int) -> int:
    """Deterministic square root of a mod an odd prime p.

    Tonelli-Shanks; of the two roots the one in [1, (p-1)/2] is returned,
    so certificates are byte-for-byte reproducible.  Raises NonResidue
    when [a/p] = 1.
    """
    a %= p
    if legendre_symbol(a, p) != 1:
        raise NonResidue(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
        return min(x, p - x)
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    x = pow(a, (s + 1) // 2, p)
    b = pow(a, s, p)
    g = pow(z, s, p)
    r = e
    while b != 1:
        t, m = b, 0
        while t != 1:
            t = t * t % p
            m += 1
        gs = pow(g, 1 << (r - m - 1), p)
        g = gs * gs % p
        x = x * gs % p
        b = b * g % p
        r = m
    return min(x, p - x)


def sqrt_mod_prime_power(a: int, p: int, k: int) -> int:
    """A root of x^2 = a mod p^k for a a unit square.

    For odd p this is the unique lift of sqrt_mod(a, p), reached by Newton
    steps that double the precision: p -> ... -> p^ceil(k/2) -> p^k.
    """
    if p == 2:
        return _sqrt_mod_2k(a, k)
    x = sqrt_mod(a, p)
    precs = []
    j = k
    while j > 1:
        precs.append(j)
        j = (j + 1) // 2
    for j in reversed(precs):
        pj = p**j
        # x is a root mod p^ceil(j/2), so one Newton step makes it one mod p^j
        x = (x - (x * x - a) * pow(2 * x, -1, pj)) % pj
    return x % p**k


def _sqrt_mod_2k(a: int, k: int) -> int:
    # requires a = 1 mod 8; lift digit by digit
    if a % 8 != 1:
        raise NonResidue(f"{a} is not a 2-adic unit square")
    x = 1
    for j in range(3, k):
        if (x * x - a) % (1 << (j + 1)):
            x += 1 << (j - 1)
    return x % (1 << k)


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------


def eps(u: int) -> int:
    """epsilon(u) = (u - 1)/2 mod 2 for odd u, the [-1/p] of an odd prime p:
    bit 1 of u, for either sign of u."""
    return u >> 1 & 1


def omega(u: int) -> int:
    """omega(u) = (u^2 - 1)/8 mod 2 for odd u, the [2/p] of an odd prime p:
    1 iff u = 3 or 5 mod 8, that is bit 2 of u + 2, for either sign of u."""
    return (u + 2) >> 2 & 1


def split_valuation(a: int, p: int) -> tuple[int, int]:
    """(v, u) with a = p^v * u and p ∤ u."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def hilbert_additive(a: int, b: int, place) -> int:
    """Additive Hilbert symbol [a,b] at a place (OO, 2 or an odd prime).

    0 iff a x^2 + b y^2 = z^2 has a nontrivial solution over the completion.
    The p=2 case uses the closed form in eps/omega of the odd parts, which
    the test suite validates against exhaustive 2-adic search.
    """
    if a == 0 or b == 0:
        raise ZeroArgument("hilbert symbol needs nonzero arguments")
    if place == OO:
        return 1 if (a < 0 and b < 0) else 0
    p = place
    alpha, u = split_valuation(a, p)
    beta, w = split_valuation(b, p)
    if p == 2:
        return (eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)) % 2
    res = alpha * beta * eps(p)
    if beta % 2:
        res += legendre_additive(u, p)
    if alpha % 2:
        res += legendre_additive(w, p)
    return res % 2

