import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

from theta_selmer import descent, monsky, survey
from theta_selmer.arith import OO, factor_range, factor_squarefree, is_squarefree, sieve_primes
from theta_selmer.descent import (
    TooLarge,
    curve_for,
    everywhere_locally_solvable,
    find_local_point,
    is_square_in_qp,
    locally_solvable,
    oracle_selmer_dimension,
    place_set,
    selmer_group_oracle,
)
from theta_selmer.gf2 import BitVector
from theta_selmer.monsky import TwoCoverClass


def test_trivial_class_everywhere_solvable():
    for n in (5, -7, 30, -105):
        curve = curve_for(factor_squarefree(n), TwoCoverClass(1, 1))
        assert everywhere_locally_solvable(curve)


def test_real_place_sign_rule():
    # n > 0: solvable iff b1 b2 > 0;  n < 0: solvable iff b2 > 0
    sf_pos = factor_squarefree(5)
    sf_neg = factor_squarefree(-5)
    for b1 in (1, -1, 3, -3):
        for b2 in (1, -1, 5, -5):
            got = locally_solvable(curve_for(sf_pos, TwoCoverClass(b1, b2)), OO)
            assert got == (b1 * b2 > 0), (b1, b2)
            got = locally_solvable(curve_for(sf_neg, TwoCoverClass(b1, b2)), OO)
            assert got == (b2 > 0), (b1, b2)


def test_2adic_closed_form_table():
    # gcd(6,n)=1, ntilde = 1 mod 8: the printed table for the place 2
    sf = factor_squarefree(41)
    for bits in range(64):
        g = [(bits >> i) & 1 for i in range(6)]
        b1 = (-1) ** g[0] * 2 ** g[1] * 3 ** g[2]
        b2 = (-1) ** g[3] * 2 ** g[4] * 3 ** g[5]
        oracle = locally_solvable(curve_for(sf, TwoCoverClass(b1, b2)), 2)
        if b2 % 2:
            table = b1 % 2 == 1 and (b1 % 8, b2 % 4) in ((1, 1), (5, 3))
        else:
            table = b1 % 2 == 1 and (b1 % 8, b2 % 8) in ((7, 6), (3, 2))
        assert oracle == table, (b1, b2)


def test_oracle_dimensions_small():
    assert oracle_selmer_dimension(1) == 2
    assert oracle_selmer_dimension(5) == 2


def test_oracle_equals_monsky_to_50():
    for m in range(1, 51):
        if not is_squarefree(m):
            continue
        for n in (m, -m):
            sf = factor_squarefree(n)
            assert oracle_selmer_dimension(sf) == monsky.selmer_rank(sf), n


def test_oracle_subgroup_and_torsion():
    # closure and torsion containment are checked inside the oracle call
    members, vectors = selmer_group_oracle(factor_squarefree(30))
    bits = {v.bits for v in vectors}
    assert 0 in bits
    size = len(bits)
    assert size & (size - 1) == 0


def test_oracle_too_large():
    n = 5 * 7 * 11 * 13 * 17
    with pytest.raises(TooLarge):
        selmer_group_oracle(factor_squarefree(n))


def _signed(limit):
    return [x for m in factor_range(limit) for x in (m, -m)]


def test_local_class_is_the_square_class():
    # additive, and zero exactly on the squares: so equal keys mean
    # b / b' is a square in Q_v
    for place in (OO, 2, 3, 5, 7, 13):
        for b in range(-60, 61):
            if b == 0:
                continue
            assert (descent._local_class(b, place) == 0) == is_square_in_qp(b, place), (b, place)
            for c in (-3, -1, 2, 5, 6, 7, 10, 13, 15):
                assert descent._local_class(b * c, place) == (
                    descent._local_class(b, place) ^ descent._local_class(c, place)
                ), (b, c, place)


def test_oracle_memo_matches_direct_enumeration():
    extra = [factor_squarefree(n) for n in (385, 770, 1365, 5005)]
    for sf in _signed(150) + extra:
        dim = 2 * sf.t + 6
        direct = [
            BitVector(dim, bits)
            for bits in range(1 << dim)
            if everywhere_locally_solvable(
                curve_for(sf, monsky.decode_vector(BitVector(dim, bits), sf))
            )
        ]
        members, vectors = selmer_group_oracle(sf)
        assert vectors == direct, sf.value
        assert members == [monsky.decode_vector(v, sf) for v in direct], sf.value


def test_local_solvability_constant_on_local_classes(monkeypatch):
    # one verdict per (place, class of n, class key of (b1, b2)) across all
    # n: at oo, 2 and 3 for every n, at an odd p for the n that p divides
    signed = _signed(60)
    verdicts = {}
    for sf in signed:
        dim = 2 * sf.t + 6
        for place in place_set(sf):
            tab = descent._class_table(sf, place)
            ncls = descent._local_class(sf.value, place)
            for bits in range(1 << dim):
                lam = monsky.decode_vector(BitVector(dim, bits), sf)
                ok = locally_solvable(curve_for(sf, lam), place)
                key = (place, ncls, tab[bits])
                assert verdicts.setdefault(key, ok) == ok, (sf.value, place, lam)
    shared_primes = {p for p in (5, 7, 11, 13)
                     if sum(p in sf.odd_primes for sf in signed) > 2}
    assert shared_primes == {5, 7, 11, 13}
    # the oracle's shared table, filled afresh, holds these verdicts at
    # every place
    monkeypatch.setattr(descent, "_SHARED", {})
    for sf in signed:
        selmer_group_oracle(sf)
    for (place, ncls), table in descent._SHARED.items():
        for key, ok in table.items():
            assert verdicts[place, ncls, key] == ok, (place, ncls, key)


def _small_verdicts():
    return sum(len(table) for (p, _), table in descent._SHARED.items() if p in (OO, 2, 3))


def test_shared_verdicts_decided_once(monkeypatch):
    monkeypatch.setattr(descent, "_SHARED", {})
    calls = []
    solvable = descent.locally_solvable

    def counted(curve, place):
        calls.append(place)
        return solvable(curve, place)

    monkeypatch.setattr(descent, "locally_solvable", counted)
    signed = _signed(120)
    for sf in signed:
        selmer_group_oracle(sf)
    for place in {OO, 2, 3, *(p for sf in signed for p in sf.odd_primes)}:
        held = sum(len(table) for (p, _), table in descent._SHARED.items() if p == place)
        assert calls.count(place) == held, place
        if place not in (OO, 2, 3):
            assert held <= 2 * 16, place
    assert _small_verdicts() <= 2 * 4 + 8 * 64 + 4 * 16
    calls.clear()
    for sf in reversed(signed):
        selmer_group_oracle(sf)
    assert calls == []


def test_prime_tables_capped(monkeypatch):
    monkeypatch.setattr(descent, "_SHARED", {})
    monkeypatch.setattr(descent, "_MAX_PRIME_TABLES", 2)
    small, held, drops = 0, set(), 0
    for sf in _signed(120):
        members, vectors = selmer_group_oracle(sf)
        now = {key for key in descent._SHARED if key[0] not in (OO, 2, 3)}
        assert len(now) <= 2, (sf.value, now)
        drops += not held <= now
        held = now
        # a drop keeps the oo, 2 and 3 verdicts
        assert _small_verdicts() >= small, sf.value
        small = _small_verdicts()
        dim = 2 * sf.t + 6
        direct = [
            bits for bits in range(1 << dim)
            if everywhere_locally_solvable(
                curve_for(sf, monsky.decode_vector(BitVector(dim, bits), sf))
            )
        ]
        assert [v.bits for v in vectors] == direct, sf.value
        assert members == [monsky.decode_vector(v, sf) for v in vectors], sf.value
    assert drops > 10


# SHA-256 over n, then -n, for n in factor_range(300), of
# repr((n, [v.bits for v in selmer_group_oracle(n)[1]])) from an empty table
ORACLE_MEMBERS = "da917378761c0d898b63fac5e2f9fe0934302d259c1d6805c46f6be4e385861a"


def test_oracle_member_sets_frozen(monkeypatch):
    monkeypatch.setattr(descent, "_SHARED", {})
    h = hashlib.sha256()
    for sf in _signed(300):
        h.update(repr((sf.value, [v.bits for v in selmer_group_oracle(sf)[1]])).encode())
    assert h.hexdigest() == ORACLE_MEMBERS


_ORDER_SCRIPT = """
import json, random, sys
from theta_selmer.arith import factor_range
from theta_selmer.descent import selmer_group_oracle
ns = [x for m in factor_range(120) for x in (m.value, -m.value)]
if sys.argv[1] == "shuffled":
    random.Random(20).shuffle(ns)
else:
    ns.sort(reverse=True)
print(json.dumps({n: [v.bits for v in selmer_group_oracle(n)[1]] for n in ns}))
"""


def test_oracle_answers_do_not_depend_on_history():
    # fresh interpreters, so the shared table starts empty and fills in
    # another order than in this process
    src = os.path.dirname(os.path.dirname(descent.__file__))
    ascending = sorted(sf.value for sf in _signed(120))
    want = {n: [v.bits for v in selmer_group_oracle(n)[1]] for n in ascending}
    for order in ("shuffled", "descending"):
        proc = subprocess.run([sys.executable, "-c", _ORDER_SCRIPT, order],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = {int(n): bits for n, bits in json.loads(proc.stdout).items()}
        assert got == want, order
    # forked pool workers each fill their own copy of the table
    assert survey.scan_oracle(80, jobs=2) == survey.scan_oracle(80, jobs=1)


def test_good_prime_spot_checks():
    rng = random.Random(42)
    goods = [p for p in sieve_primes(3000) if p > 200]
    for n in (5, -14, 33):
        sf = factor_squarefree(n)
        curve = curve_for(sf, TwoCoverClass(1, 1))
        bad = set(place_set(sf)) - {OO}
        for p in rng.sample(goods, 20):
            if p in bad:
                continue
            assert locally_solvable(curve, p), (n, p)


def test_good_primes_for_nontrivial_classes():
    rng = random.Random(43)
    goods = [p for p in sieve_primes(2000) if p > 100]
    sf = factor_squarefree(35)
    _, vectors = selmer_group_oracle(sf, check_closure=False)
    for v in vectors[:6]:
        lam = monsky.decode_vector(v, sf)
        curve = curve_for(sf, lam)
        for p in rng.sample(goods, 5):
            if p in (5, 7):
                continue
            assert locally_solvable(curve, p), (lam, p)


# (n, Lambda, places): the last two inputs give root witnesses of the chart
# search, in the (1 : sigma) chart at 2 and at a large p where the good
# locus hugs a root of F2
LOCAL_POINT_CASES = [
    (221, TwoCoverClass(13, 1), (2, 3, 13, 17)),
    (-203, TwoCoverClass(1, 7), (2, 3, 7, 29)),
    (-10, TwoCoverClass(6, 1), (2, 5)),
    (-97355, TwoCoverClass(1, 19471), (19471,)),
]


def _assert_on_curve(curve, point, p, prec):
    T, U1, U2, U3 = point
    pk = p**prec
    ct, ca, cb = curve.h1
    assert (ct * T * T + ca * U2 * U2 + cb * U3 * U3) % pk == 0, (curve.lam, p)
    ct, ca, cb = curve.h2
    assert (ct * T * T + ca * U1 * U1 + cb * U3 * U3) % pk == 0, (curve.lam, p)


def test_find_local_point_on_curve():
    for n, lam, places in LOCAL_POINT_CASES:
        curve = curve_for(factor_squarefree(n), lam)
        for p in places:
            _assert_on_curve(curve, find_local_point(curve, p, 20), p, 20)


def test_find_local_point_randomised_still_on_curve():
    rng = random.Random(5)
    for n, lam, places in LOCAL_POINT_CASES:
        curve = curve_for(factor_squarefree(n), lam)
        for p in places:
            for _ in range(3):
                _assert_on_curve(curve, find_local_point(curve, p, 16, rng), p, 16)


def test_chart_search_visits_the_root_balls_first(monkeypatch):
    # the good locus hugs a root of F2: a walk of the children in residue
    # order makes 13,049 status calls here
    calls = 0
    status = descent._status

    def counted(*args):
        nonlocal calls
        calls += 1
        return status(*args)

    monkeypatch.setattr(descent, "_status", counted)
    assert locally_solvable(curve_for(-97355, TwoCoverClass(1, 19471)), 19471)
    assert calls < 100, calls


def _witness_sample():
    """(n, b1, b2, p, witness) over 150 seeded n = +-{1, 2, 3, 6} times one
    to three primes below 4000, six random classes each, every finite place."""
    rng = random.Random(26)
    primes = [p for p in sieve_primes(4000) if p > 3]
    for _ in range(150):
        m = rng.choice((1, 2, 3, 6)) * math.prod(rng.sample(primes, rng.randint(1, 3)))
        sf = factor_squarefree(rng.choice((1, -1)) * m)
        dim = 2 * sf.t + 6
        for _ in range(6):
            lam = monsky.decode_vector(BitVector(dim, rng.getrandbits(dim)), sf)
            curve = curve_for(sf, lam)
            for p in place_set(sf)[1:]:
                yield sf.value, lam.b1, lam.b2, p, descent._finite_witness(curve, p)


# SHA-256 over repr of each _witness_sample() tuple: 3,678 witnesses, 2,824
# of them None, 355 root witnesses and 35 zeros of a form
CHART_WITNESSES = "8fd89ecc1a40c33d789bc861792cc1c48f560bbb586763e5fd03844883e05cc2"


def test_chart_witnesses_frozen():
    h = hashlib.sha256()
    for rec in _witness_sample():
        h.update(repr(rec).encode())
    assert h.hexdigest() == CHART_WITNESSES


def test_local_no_costs_few_status_calls(monkeypatch):
    # every child of Z_p has odd valuation off the roots of F1 here: a walk
    # of all p children made 1,572,887 status calls
    calls = 0
    status = descent._status

    def counted(*args):
        nonlocal calls
        calls += 1
        return status(*args)

    monkeypatch.setattr(descent, "_status", counted)
    p = 1048589
    assert not locally_solvable(curve_for(p * 524309, TwoCoverClass(1, p)), p)
    assert calls < 100, calls


_LARGE_NO = """
from theta_selmer.descent import curve_for, locally_solvable
from theta_selmer.monsky import TwoCoverClass
p = 2147483693
print(locally_solvable(curve_for(p * 524309, TwoCoverClass(1, p)), p))
"""


def test_local_no_at_a_31_bit_prime_finishes():
    # in a child, so that a search over all p children fails on the timeout
    src = os.path.dirname(os.path.dirname(descent.__file__))
    proc = subprocess.run([sys.executable, "-c", _LARGE_NO],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

def test_witness_balls_hold_square_values():
    # every tau of a witness ball makes both forms squares (or zero)
    rng = random.Random(11)
    balls = 0
    for sf in rng.sample([sf for sf in _signed(300) if sf.t <= 2], 8):
        members, _ = selmer_group_oracle(sf)
        for lam in members:
            curve = curve_for(sf, lam)
            for p in place_set(sf)[1:]:
                swapped, (tau0, k, root_of) = descent._finite_witness(curve, p)
                if k is None or root_of is not None:
                    continue
                balls += 1
                for _ in range(4):
                    tau = tau0 + p**k * rng.randrange(p**6)
                    t, u3 = (1, tau) if swapped else (tau, 1)
                    for c, d in (curve.f1, curve.f2):
                        assert is_square_in_qp(c * t * t + d * u3 * u3, p), (sf.value, lam, p, tau)
    assert balls > 50


def test_real_point_data():
    sf = factor_squarefree(221)
    curve = curve_for(sf, TwoCoverClass(13, 1))
    t, u3, r1, r2, s1, s2 = descent.find_real_point(curve)
    from fractions import Fraction

    c1, d1 = curve.f1
    assert Fraction(c1) * t * t + Fraction(d1) * u3 * u3 == r1
    assert r1 >= 0 and r2 >= 0
