import itertools
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from theta_selmer import arith
from theta_selmer.arith import (
    OO,
    NonResidue,
    NotCoprime,
    NotSquarefree,
    ZeroArgument,
    factor_range,
    factor_squarefree,
    hilbert_additive,
    is_prime,
    is_squarefree,
    legendre_additive,
    primes_up_to,
    sieve_primes,
    split_valuation,
    sqrt_mod,
    sqrt_mod_prime_power,
)

PRIMES_1K = sieve_primes(1000)
ODD_PRIMES = [p for p in PRIMES_1K if p > 2]


def test_factor_squarefree_65():
    sf = factor_squarefree(65)
    assert (sf.sign, sf.has_two, sf.has_three) == (1, False, False)
    assert sf.odd_primes == (5, 13)
    assert (sf.eta, sf.ntilde, sf.t) == (1, 65, 2)


def test_factor_squarefree_minus_6():
    sf = factor_squarefree(-6)
    assert (sf.sign, sf.has_two, sf.has_three) == (-1, True, True)
    assert sf.odd_primes == ()
    assert (sf.eta, sf.ntilde, sf.t) == (-6, 1, 0)


def test_factor_squarefree_rejects_12():
    with pytest.raises(NotSquarefree) as exc:
        factor_squarefree(12)
    assert exc.value.p == 2


def test_factor_range_matches_factor_squarefree():
    # the sieve and trial division / Pollard rho are independent factor paths
    want = [factor_squarefree(m) for m in range(1, 3001) if is_squarefree(m)]
    assert list(factor_range(3000)) == want
    assert list(factor_range(0)) == []
    assert [-sf for sf in want[:200]] == [factor_squarefree(-sf.value) for sf in want[:200]]


def test_squarefree_walk_matches_factor_squarefree():
    # the sieve walk in factor_range yields m with its odd primes, 3 included,
    # ascending, then splits 3 off; check the walk at the edge limits too
    for limit in (0, 1, 2, 3000):
        want = [factor_squarefree(m) for m in range(1, limit + 1) if is_squarefree(m)]
        got = list(factor_range(limit))
        assert got == want
        odd = sieve_primes(3000)[1:]
        assert [(sf.value, (3,) * sf.has_three + sf.odd_primes) for sf in got] == [
            (sf.value, tuple(p for p in odd if sf.value % p == 0)) for sf in want
        ]


def test_primes_up_to_matches_is_prime():
    for limit in (-1, 0, 1, 2, 3, 4, 1000):
        want = tuple(n for n in range(limit + 1) if is_prime(n))
        assert primes_up_to(limit) == sieve_primes(limit) == want, limit


def test_eps_omega_bit_forms():
    for u in range(-9999, 10000, 2):
        assert arith.eps(u) == (u - 1) // 2 % 2, u
        assert arith.omega(u) == (u * u - 1) // 8 % 2, u


def test_factor_squarefree_invariants_random():
    for n in list(range(1, 400)) + [-m for m in range(1, 200)]:
        try:
            sf = factor_squarefree(n)
        except NotSquarefree:
            continue
        value = sf.sign * (2 if sf.has_two else 1) * (3 if sf.has_three else 1)
        assert value * math.prod(sf.odd_primes) == n
        assert sf.ntilde == abs(n) // math.gcd(6, abs(n))
        assert sf.eta * sf.ntilde == n
        for p in sf.odd_primes:
            assert p % 6 in (1, 5) and is_prime(p)


def test_legendre_additive_examples():
    assert legendre_additive(2, 7) == 0  # 3^2 = 2 mod 7
    assert legendre_additive(-1, 5) == 0  # 2^2 = -1 mod 5
    # derived: exhaustive squares mod 73
    squares = {x * x % 73 for x in range(1, 73)}
    assert (5 in squares) is False
    assert legendre_additive(5, 73) == 1


def test_legendre_not_coprime():
    with pytest.raises(NotCoprime):
        legendre_additive(21, 7)


@given(st.sampled_from(ODD_PRIMES), st.integers(1, 10**6), st.integers(1, 10**6))
def test_legendre_multiplicative(p, a, b):
    if a % p == 0 or b % p == 0:
        return
    assert legendre_additive(a * b, p) == (
        legendre_additive(a, p) + legendre_additive(b, p)
    ) % 2


def test_reciprocity_all_pairs_to_10000():
    primes = [p for p in sieve_primes(10**4) if p > 2]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :: 37]:  # strided full-range sample
            lhs = (legendre_additive(p, q) + legendre_additive(q, p)) % 2
            rhs = legendre_additive(-1, p) * legendre_additive(-1, q)
            assert lhs == rhs


def test_sqrt_mod_examples():
    assert sqrt_mod(2, 7) == 3
    assert sqrt_mod(-1, 13) == 5
    # 5 is a NON-residue mod 73 (see the legendre example above), so the
    # deterministic-root example must use an actual residue instead
    beta = sqrt_mod(2, 73)
    lower = [x for x in range(1, 37) if x * x % 73 == 2]
    assert lower == [beta]


def test_sqrt_mod_nonresidue():
    with pytest.raises(NonResidue):
        sqrt_mod(5, 73)


@given(st.sampled_from(ODD_PRIMES), st.integers(2, 10**9))
def test_sqrt_mod_squares(p, a):
    if a % p == 0:
        return
    sq = a * a % p
    r = sqrt_mod(sq, p)
    assert r * r % p == sq
    assert 1 <= r <= (p - 1) // 2


@given(st.sampled_from(ODD_PRIMES), st.integers(1, 10**30), st.integers(1, 80))
@example(3, 2, 1)
@example(997, 10**30 - 1, 1)
def test_sqrt_mod_prime_power_lifts_sqrt_mod(p, x, k):
    # certificates stay byte-identical only while this root branch is kept
    if x % p == 0:
        return
    a = x * x
    r = sqrt_mod_prime_power(a, p, k)
    pk = p**k
    assert r * r % pk == a % pk
    assert 0 <= r < pk
    assert r % p == sqrt_mod(a, p)


def test_hilbert_examples():
    assert hilbert_additive(-1, -1, OO) == 1
    for b, p in [(5, 7), (-14, 3), (99, 13)]:
        assert hilbert_additive(1, b, p) == 0
    assert hilbert_additive(-1, -1, 2) == 1


def test_hilbert_zero_argument():
    with pytest.raises(ZeroArgument):
        hilbert_additive(0, 3, 5)


_M2 = 1 << 10
_SQ_ALL = frozenset(z * z % _M2 for z in range(_M2))
_SQ_ODD = frozenset(z * z % _M2 for z in range(1, _M2, 2))


def _solvable_z2(a, b):
    """Independent exhaustive check that a x^2 + b y^2 = z^2 has a 2-adic
    solution: an exact small-square witness certifies existence, and the
    absence of any primitive solution mod 2^10 certifies non-existence."""
    for x in range(64):
        for y in range(64):
            if x == 0 and y == 0:
                continue
            w = a * x * x + b * y * y
            if w == 0:
                return True
            v, u = split_valuation(w, 2)
            if v % 2 == 0 and u % 8 == 1:
                return True
    # no small witness: confirm emptiness mod 2^10 over primitive classes
    ax_odd = {a * s % _M2 for s in _SQ_ODD}
    by_all = {b * s % _M2 for s in _SQ_ALL}
    ax_all = {a * s % _M2 for s in _SQ_ALL}
    by_odd = {b * s % _M2 for s in _SQ_ODD}
    for left, right in ((ax_odd, by_all), (ax_all, by_odd)):
        for u in left:
            for v in right:
                if (u + v) % _M2 in _SQ_ALL:
                    raise AssertionError(
                        f"ambiguous 2-adic case for ({a}, {b}); raise the modulus"
                    )
    return False


def test_hilbert_2adic_closed_form_vs_search():
    units = (1, 3, 5, 7, -1, -3, -5, -7)
    reps = list(units) + [2 * u for u in units]
    for a in reps:
        for b in reps:
            closed = hilbert_additive(a, b, 2)
            assert (closed == 0) == _solvable_z2(a, b), (a, b)


@settings(max_examples=300)
@given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
def test_hilbert_product_formula(a, b):
    if a == 0 or b == 0:
        return
    total = hilbert_additive(a, b, OO) + hilbert_additive(a, b, 2)
    for p in {p for p, _ in arith.factorize(abs(a))} | {
        p for p, _ in arith.factorize(abs(b))
    }:
        if p != 2:
            total += hilbert_additive(a, b, p)
    assert total % 2 == 0


@given(st.lists(st.sampled_from(ODD_PRIMES), max_size=9, unique=True))
def test_legendre_table_matches_symbols(primes):
    rows = arith.legendre_table(primes)
    for i, p in enumerate(primes):
        want = sum(
            legendre_additive(q, p) << j for j, q in enumerate(primes) if j != i
        )
        assert rows[i] == want


def _trial_division(n):
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out + [(n, 1)] if n > 1 else out


def _neighbour_primes(x):
    """The largest prime below x and the smallest above it."""
    below, above = x - 1, x + 1
    while not is_prime(below):
        below -= 1
    while not is_prime(above):
        above += 1
    return below, above


def test_factorize_matches_trial_division_to_20000():
    for n in range(1, 20001):
        assert arith.factorize(n) == _trial_division(n), n


def test_factorize_products_across_sieve_bounds():
    # factorize trial-divides to a power of two above sqrt(n), capped at 10^6:
    # take primes on both sides of every such bound
    primes = sorted({p for k in range(2, 21) for p in _neighbour_primes(1 << k)}
                    | set(_neighbour_primes(10**6)))
    products = [(p, p) for p in primes] + list(itertools.combinations(primes, 2))
    products += [primes[i : i + 3] for i in range(len(primes) - 2)]
    for ps in products:
        n = math.prod(ps)
        assert arith.factorize(n) == sorted(Counter(ps).items()), ps


def test_factorize_tests_primality_only_past_the_cap(monkeypatch):
    calls = Counter()
    for name in ("is_prime", "_pollard_rho"):
        def counted(n, _fn=getattr(arith, name), _name=name):
            calls[_name] += 1
            return _fn(n)

        monkeypatch.setattr(arith, name, counted)
    # below 10^12 trial division leaves a cofactor below L^2, so it is prime
    for n in range(1, 10**6):
        arith.factorize(n)
    assert calls == {}
    # at the cap: 999983 is trial-divided out and leaves a prime below 10^12
    assert arith.factorize(999983**2) == [(999983, 2)]
    assert arith.factorize(999983 * 1000003) == [(999983, 1), (1000003, 1)]
    assert calls == {}
    # past it the cofactor is at least 10^12: Miller-Rabin, and rho on composites
    big = 10**12 + 39
    assert arith.factorize(big) == [(big, 1)]
    assert calls == {"is_prime": 1}
    for n, want, rho in ((1000003**2, [(1000003, 2)], 1),
                         (1000003 * 1000033, [(1000003, 1), (1000033, 1)], 1),
                         (999983 * 1000003 * 1000033,
                          [(999983, 1), (1000003, 1), (1000033, 1)], 1),
                         (999983 * big, [(999983, 1), (big, 1)], 0)):
        calls.clear()
        assert arith.factorize(n) == want
        assert calls["is_prime"] >= 1 and calls["_pollard_rho"] == rho, n
