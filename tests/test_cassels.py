import hashlib
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_selmer import arith, cassels, classgroup, descent, gf2, monsky, survey
from theta_selmer.arith import (
    OO,
    factor_range,
    factor_squarefree,
    is_prime,
    legendre_additive,
    legendre_table,
)
from theta_selmer.cassels import (
    BOUND_SCHEDULE,
    FAMILY_F5,
    FAMILY_F11,
    KIND_CASSELS,
    KIND_PARITY,
    KIND_S2EQ2,
    KIND_THM71,
    KIND_UNKNOWN,
    ExcludedSmallN,
    HypothesisFailed,
    Insoluble,
    NotFound,
    certify,
    pairing_f19,
    pairing_pq,
    solve_ternary,
    split_pq,
    transform,
)


def test_transform_preserves_forms():
    rng = random.Random(1)
    for _ in range(50):
        p, q = rng.choice([(13, 17), (7, 59), (31, 11), (7, 29)])
        a, b = rng.randrange(1, 50), rng.randrange(1, 50)
        # minus form: feed an actual solution when available, else check
        # the identity p a'^2 - q b'^2 = ((p-q)^2/(p+q)^2-scaled) c^2 directly
        c2 = p * a * a - q * b * b
        if c2 >= 0 and math.isqrt(c2) ** 2 == c2:
            c = math.isqrt(c2)
            aa, bb, cc = transform(p, -q, a, b, c)
            assert p * aa * aa - q * bb * bb == cc * cc
        c2 = p * a * a + q * b * b
        if math.isqrt(c2) ** 2 == c2:
            c = math.isqrt(c2)
            aa, bb, cc = transform(p, q, a, b, c)
            assert p * aa * aa + q * bb * bb == cc * cc


def test_solve_ternary_f5_flags():
    # smallest qualifying F5 pair with [p/q] = 0 is (13, 17)
    sol = solve_ternary("px2-qy2=z2", (13, 17))
    a, b, c = sol.a, sol.b, sol.c
    assert 13 * a * a - 17 * b * b == c * c
    assert math.gcd(math.gcd(abs(a), abs(b)), abs(c)) == 1
    flags = dict(sol.flags)
    assert flags["a_odd"] and flags["b_odd"] and flags["c_even"]
    assert a % 4 == 1 and a % 3 == 0 and c % 3 == 1


def test_solve_ternary_f19():
    sol = solve_ternary("4c2=da2+(n/d)b2", (37, 259))
    a, b, c = sol.a, sol.b, sol.c
    assert 4 * c * c == 37 * a * a + 7 * b * b
    assert a % 4 == 1 and b % 4 == 1 and c > 0 and c % 2 == 1


def test_solve_ternary_unsolvable_pair():
    # 5 a^2 - 73 b^2 = c^2 has no primitive solution (fails 5-adically),
    # consistent with [p/q] = 1 where the construction is never needed;
    # the Hilbert symbols reject it before any shell is searched
    with pytest.raises(Insoluble) as exc:
        solve_ternary("px2-qy2=z2", (5, 73))
    assert isinstance(exc.value, NotFound)


# Reference searches for the shell stream: every pair (a, b) of each shell
# s = max(a, b) is tested, and each bound of BOUND_SCHEDULE restarts from
# s = 1.  They share no code with cassels._shells.


def _box_solutions(quad_a, quad_b, bound, want=None):
    out = []
    for s in range(1, bound + 1):
        pairs = [(s, b) for b in range(1, s + 1)] + [(a, s) for a in range(1, s)]
        for a, b in pairs:
            if math.gcd(a, b) != 1:
                continue
            rhs = quad_a * a * a + quad_b * b * b
            if rhs < 0:
                continue
            c = math.isqrt(rhs)
            if c * c == rhs:
                out.append((a, b, c))
                if len(out) == want:
                    return out
    return out


def _box_f19(d, nd, bound):
    out = []
    for s in range(1, bound + 1, 2):
        pairs = [(s, b) for b in range(1, s + 1, 2)] + [(a, s) for a in range(1, s, 2)]
        for a, b in pairs:
            if math.gcd(a, b) != 1:
                continue
            rhs = d * a * a + nd * b * b
            if rhs % 4:
                continue
            c = math.isqrt(rhs // 4)
            if 4 * c * c == rhs:
                out.append((a if a % 4 == 1 else -a, b if b % 4 == 1 else -b, c))
    return out


def _reference_pq(p, q, form_sign, skip, rng):
    want = skip + (rng.randrange(4) if rng else 0) + 1
    found = []
    for bound in BOUND_SCHEDULE:
        for raw in _box_solutions(p, form_sign * q, bound, 6 * want + 12):
            cand = cassels._normalise_pq(p, q, form_sign, *raw)
            if cand is not None and cand not in found:
                found.append(cand)
                if len(found) >= want:
                    break
        if len(found) >= want or (found and bound >= BOUND_SCHEDULE[4]):
            return found[min(want, len(found)) - 1]
    raise NotFound(BOUND_SCHEDULE[-1])


def _reference_f19(d, n, skip, rng):
    want = skip + (rng.randrange(4) if rng else 0) + 1
    for bound in BOUND_SCHEDULE:
        found = _box_f19(d, n // d, bound)
        if found:
            return found[min(want, len(found)) - 1]
    raise NotFound(BOUND_SCHEDULE[-1])


def _stream(f, g, primes, shells):
    return [sol for sols in itertools.islice(cassels._shells(f, g, primes), shells) for sol in sols]


SMALL_PRIMES = [p for p in range(2, 3000) if is_prime(p)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.sampled_from(SMALL_PRIMES), st.sampled_from((-1, 1)))
def test_shell_stream_matches_box_search(p, q, sign):
    shells = 60
    expected = _box_solutions(p, sign * q, shells)
    try:
        got = _stream(p, sign * q, (p, q), shells)
    except Insoluble:
        got = []  # no completion has a point, so neither may the box
    assert got == expected


def _f19_forms(limit):
    return [
        (classgroup.splitting_divisor(sf)[0], sf.value)
        for sf in factor_range(limit)
        if sf.value % 24 == 19 and classgroup.r4(-sf) == 1
    ]


def test_shell_stream_filtered_matches_f19_box():
    shells = 45
    forms = _f19_forms(99999)
    assert len(forms) > 1000
    for d, n in forms:
        primes = factor_squarefree(n).odd_primes  # n is prime to 6
        got = [
            (a if a % 4 == 1 else -a, b if b % 4 == 1 else -b, c // 2)
            for a, b, c in _stream(d, n // d, primes, shells)
            if a % 2 and b % 2 and c % 2 == 0
        ]
        assert got == _box_f19(d, n // d, shells), (d, n)


def _pq_pairs():
    primes = [p for p in SMALL_PRIMES if p > 3][:80]
    return [
        (p, q) for p in primes for q in primes
        if p != q and p % 3 == 1 and (p * q) % 24 in (5, 11) and legendre_additive(p, q) == 0
    ]


def test_searches_match_reference_choices():
    pairs = _pq_pairs()[::8]
    forms = _f19_forms(30000)[::10]
    assert len(pairs) >= 30 and len(forms) >= 30
    for skip, seed in itertools.product(range(4), (None, 1, 2)):
        for p, q in pairs:
            sign = -1 if (p * q) % 24 == 5 else 1
            form = "px2-qy2=z2" if sign < 0 else "px2+qy2=z2"
            rng_a, rng_b = (random.Random(seed), random.Random(seed)) if seed else (None, None)
            sol = solve_ternary(form, (p, q), rng=rng_a, skip=skip)
            assert (sol.a, sol.b, sol.c) == _reference_pq(p, q, sign, skip, rng_b), (p, q)
        for d, n in forms:
            rng_a, rng_b = (random.Random(seed), random.Random(seed)) if seed else (None, None)
            sol = solve_ternary("4c2=da2+(n/d)b2", (d, n), rng=rng_a, skip=skip)
            assert (sol.a, sol.b, sol.c) == _reference_f19(d, n, skip, rng_b), (d, n)


def test_pairing_pq_frozen_values():
    # frozen from the engine, cross-validated against rational points on
    # the 2-covers (n=581 etc. have visible points and pair to 0)
    assert pairing_pq(13, 17, FAMILY_F5)[0] == 1
    assert pairing_pq(31, 11, FAMILY_F5)[0] == 1
    assert pairing_pq(7, 83, FAMILY_F5)[0] == 0
    assert pairing_pq(7, 29, FAMILY_F11)[0] == 0
    assert pairing_pq(19, 17, FAMILY_F11)[0] == 1


def test_pairing_vanishes_when_cover_has_point():
    # n = 581 = 7*83: C_(1,7) has a rational point, so (1,7) comes from
    # E(Q) and every pairing against it vanishes
    val, ev = pairing_pq(7, 83, FAMILY_F5)
    assert val == 0


def test_pairing_pq_invariance():
    for (p, q, fam) in [(13, 17, FAMILY_F5), (7, 29, FAMILY_F11)]:
        base, _ = pairing_pq(p, q, fam)
        for seed in range(6):
            v, _ = pairing_pq(p, q, fam, rng=random.Random(seed), ternary_skip=seed % 3)
            assert v == base


def test_pairing_pq_q_place_identity():
    val, ev = pairing_pq(13, 17, FAMILY_F5)
    sol = ev["ternary"]
    beta = ev["beta"]
    assert (beta * beta - 13) % 17 == 0
    assert (sol["c"] + beta * sol["a"]) % 17 == 0
    assert ev["routes"]["q_place_closed_form"] == legendre_additive(
        beta * sol["a"], 17
    )


def test_pairing_pq_hypotheses():
    with pytest.raises(HypothesisFailed):
        pairing_pq(7, 11, FAMILY_F5)  # [p/q] = 1 branch
    with pytest.raises(HypothesisFailed):
        pairing_pq(5, 13, FAMILY_F5)  # 65 = 17 mod 24


def test_pq_torsion_checks():
    p, q = 13, 17
    sol = solve_ternary("px2-qy2=z2", (p, q))
    sf = factor_squarefree(221)
    curve, lines = cassels._tangents_pq(sf, p, q, sol)
    checks = cassels.torsion_pairing_checks(curve, lines, [OO, 2, 3, p, q], sf)
    assert [c["pairing"] for c in checks] == [0, 0]


def test_pairing_f19_values_and_routes():
    val, ev = pairing_f19(259, with_torsion_checks=True)
    assert val == 0
    assert ev["routes"]["closed_form"] == ev["routes"]["linear_system"]
    assert ev["closed_form_agrees"]
    assert [c["pairing"] for c in ev["torsion_pairings"]] == [0, 0]

    val, ev = pairing_f19(355)
    assert val == 1 and ev["closed_form_agrees"]


def test_pairing_f19_known_erratum_class():
    # {d, n/d} = {1,3} mod 8: the matrix closed form and the local sum
    # provably split; C_(89,1) at n=979 has the rational point
    # (t,u1,u2,u3) = (20,67,89,133), forcing the true pairing to be 0
    assert (89 * 89 - 89 * 133 * 133) == -3916 * 400  # the point checks out
    val, ev = pairing_f19(979)
    assert val == 0
    assert ev["routes"]["closed_form"] == 1  # the matrix closed form says 1
    assert not ev["closed_form_agrees"]
    assert ev["d_class_mod8"] == [1, 3]


def test_pairing_f19_invariance():
    for n in (259, 355):
        base, _ = pairing_f19(n)
        for seed in range(4):
            v, _ = pairing_f19(n, rng=random.Random(seed), ternary_skip=seed % 2)
            assert v == base, (n, seed)


def test_pairing_f19_hypotheses():
    with pytest.raises(HypothesisFailed):
        pairing_f19(43)  # 43 = 19 mod 24 but r4(-43) = 0
    with pytest.raises(HypothesisFailed):
        pairing_f19(65)


def test_certify_examples():
    cert = certify(7, "pi3")
    assert cert.kind == KIND_S2EQ2 and cert.s2 == 2
    cert = certify(65, "pi3")
    assert cert.kind == KIND_PARITY and cert.s2 % 2 == 1
    cert = certify(365, "pi3")
    assert cert.kind == KIND_THM71
    assert cert.evidence["p"] == 73 and cert.evidence["q"] == 5


def test_certify_cassels_kinds():
    cert = certify(221, "pi3")
    assert cert.kind == KIND_CASSELS
    assert cert.evidence["pairing"]["routes"]["local_sum"] == 1
    cert = certify(355, "pi3")
    assert cert.kind == KIND_CASSELS
    assert cert.evidence["sha"] == "(Z/2)^2"
    cert = certify(323, "2pi3")
    assert cert.kind == KIND_CASSELS


def test_certify_large_prime_memory():
    # 10000109 = 7 * 1428587: the local points at p = 1428587 must not
    # hold O(p) candidates in memory
    tracemalloc.start()
    try:
        cert = certify(10000109, "pi3")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.kind == KIND_UNKNOWN and cert.s2 == 4
    assert peak < 64 * 2**20


def test_certify_large_semiprimes():
    # F5 semiprimes whose pairing needs a ternary solution far out in the
    # shells: 2603392255554437 = 43996879 * 59172203, and 1323443747 * 1903400671
    # near 2^61
    cert = certify(2603392255554437, "pi3")
    assert cert.kind == KIND_CASSELS and cert.s2 == 4
    sol = cert.evidence["pairing"]["ternary"]
    assert (sol["a"], sol["b"], sol["c"]) == (
        59237081425525089, 49702795755633281, -90605391635275818074,
    )
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == (
        "f1bb1c9f5a877086c092b706b9c02595b2fbfa3f21a65bda16fe672764340b63"
    )
    cert = certify(2519043716070554237, "pi3")
    assert cert.kind == KIND_CASSELS and cert.s2 == 4


# The certified answers of the families scan in [9e4, 1e5): kinds, s2, the
# pairing value and the XOR of each place's local terms.  Transcripts may
# change (points, lines, precisions), these may not.
FAMILIES_PROJECTION = "d502603cccdcbd24a11397db5fd1dc71b8cf8edc1f6e6ddf24aaf2dad508e3a4"


def test_families_projection_unchanged():
    h = hashlib.sha256()
    for sf in factor_range(99999):
        m = sf.value
        if m < 90000:
            continue
        if m % 24 in (5, 11) and sf.t == 2:
            theta = "pi3" if m % 24 == 5 else "2pi3"
        elif m % 24 == 19:
            theta = "pi3"
        else:
            continue
        cert = certify(m, theta)
        pairing = cert.evidence.get("pairing")
        local_sum, places = None, ()
        if pairing is not None:
            local_sum = pairing["routes"]["local_sum"]
            places = tuple(
                (str(rec["place"]), sum(rec["terms"]) % 2) for rec in pairing["local_transcript"]
            )
        h.update(repr((m, theta, cert.kind, cert.s2, local_sum, places)).encode())
    assert h.hexdigest() == FAMILIES_PROJECTION


# one input per branch of certify, from the families range [9e4, 1e5)
ONE_PER_BRANCH = [
    (90007, "pi3", KIND_S2EQ2),  # s2 = 2
    (90029, "pi3", KIND_CASSELS),  # F5 pairing
    (90131, "2pi3", KIND_UNKNOWN),  # F11 pairing
    (90043, "pi3", KIND_UNKNOWN),  # F19 pairing
]


@pytest.mark.parametrize("m,theta,kind", ONE_PER_BRANCH)
def test_each_analysis_built_once(monkeypatch, m, theta, kind):
    calls = {}
    for mod, name in ((monsky, "build_monsky"), (monsky, "build_blocks"), (classgroup, "r4")):
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    tables = []

    def counted_table(primes, _fn=arith.legendre_table):
        tables.append(tuple(primes))
        return _fn(primes)

    for mod in (arith, cassels, classgroup, monsky):
        monkeypatch.setattr(mod, "legendre_table", counted_table)
    for run in (lambda: certify(m, theta).kind,
                lambda: certify(factor_squarefree(m), theta).kind,
                lambda: survey.analyze(m, theta, with_certificate=True).certificate_kind):
        calls.clear()
        tables.clear()
        assert run() == kind
        assert calls["build_monsky"] == calls["r4"] == 1, calls
        assert calls.get("build_blocks", 0) <= 1, calls
        if m % 24 == 19:  # F19: pairing_f19 reads the record's table
            assert len(tables) == 1, tables


def test_shared_legendre_table_gives_the_same_monsky_and_r4():
    # the record's one table: m's odd primes, 3 first; M_n reads it without 3
    for sf in factor_range(3000):
        table = legendre_table(((3,) if sf.has_three else ()) + sf.odd_primes)
        m_table = [r >> 1 for r in table[1:]] if sf.has_three else table
        before = (list(table), list(m_table))
        for n in (sf, -sf):
            assert monsky.build_monsky(n, m_table) == monsky.build_monsky(n), n.value
            if n.value != 1:
                assert classgroup.r4(n, table) == classgroup.r4(n), n.value
        assert (table, m_table) == before, sf.value


@pytest.mark.parametrize("m", [1, 2, 3, 6, 15, 105, 1155, 90043])
def test_each_analysis_builds_one_legendre_table(monkeypatch, m):
    tables = []

    def counted(primes, _fn=arith.legendre_table):
        tables.append(tuple(primes))
        return _fn(primes)

    for mod in (arith, cassels, classgroup, monsky):
        monkeypatch.setattr(mod, "legendre_table", counted)
    for theta in ("pi3", "2pi3"):
        tables.clear()
        cassels._Analysis.of(m, theta)
        assert len(tables) == 1, (theta, tables)


@pytest.mark.parametrize("m,theta,kind", ONE_PER_BRANCH)
def test_certify_same_from_int_factored_or_analysis(m, theta, kind):
    want = certify(m, theta).to_json()
    assert certify(factor_squarefree(m), theta).to_json() == want
    assert certify(cassels._Analysis.of(m, theta), theta).to_json() == want
    other = "2pi3" if theta == "pi3" else "pi3"
    with pytest.raises(ValueError):
        certify(cassels._Analysis.of(m, other), theta)


def test_certify_excluded_small():
    for m in (1, 2, 3, 6):
        with pytest.raises(ExcludedSmallN):
            certify(m, "pi3")


def test_certificate_json_roundtrip():
    cert = certify(221, "pi3")
    doc = json.loads(cert.to_json())
    assert doc["schema"] == 1
    assert doc["kind"] == KIND_CASSELS
    assert doc["evidence"]["pairing"]["n"] == 221
    # transcript must allow re-checking each local term
    rec = doc["evidence"]["pairing"]["local_transcript"]
    assert any(r["place"] == 17 for r in rec)


def test_certify_consistent_with_oracle():
    # RankZero claims match the descent oracle dimension
    for m, theta in [(7, "pi3"), (221, "pi3"), (355, "pi3")]:
        cert = certify(m, theta)
        n = monsky.curve_argument(m, theta)
        dim = descent.oracle_selmer_dimension(factor_squarefree(n))
        if cert.kind == KIND_S2EQ2:
            assert dim == 2
        elif cert.kind == KIND_CASSELS:
            assert dim == 4


def test_split_pq():
    assert split_pq(221) == (13, 17)
    assert split_pq(365) == (73, 5)
    assert split_pq(105) is None  # three primes
    assert split_pq(35) and split_pq(35)[0] % 3 == 1


def test_conic_point_generic():
    pt = cassels.conic_point((3, 1, -1))
    assert pt is not None
    x, y, z = pt
    assert 3 * x * x + y * y - z * z == 0
    assert math.gcd(math.gcd(x, y), z) == 1


def _on_conic(quad, pt):
    return sum(c * x * x for c, x in zip(quad, pt)) == 0


def test_conic_point_on_every_cover_conic():
    # every conic of a Selmer class's cover has points everywhere locally,
    # so the ternary stream must return a point on each one
    curves = conics = 0
    for sf in factor_range(3000):
        for theta in (monsky.THETA_PI3, monsky.THETA_2PI3):
            rec = cassels._Analysis.of(sf, theta)
            if rec.s2 < 4:
                continue
            curves += 1
            for kv in gf2.kernel_basis(rec.mm.matrix):
                cls = monsky.decode_vector(kv, rec.n)
                curve = descent.curve_for(rec.n, cls)
                for quad in (curve.h1, curve.h2, curve.h3):
                    pt = cassels.conic_point(quad)
                    assert min(pt) >= 0 and math.gcd(*pt) == 1, (rec.n.value, cls, quad, pt)
                    assert _on_conic(quad, pt), (rec.n.value, cls, quad, pt)
                    conics += 1
    assert curves > 800 and conics > 10000


def test_conic_point_edge_cases():
    # soluble, with a first point whose largest coordinate is near 8e7
    quad = (256446233, 383265919, -1)
    pt = cassels.conic_point(quad)
    assert _on_conic(quad, pt) and math.gcd(*pt) == 1
    # no point over Q_2
    with pytest.raises(Insoluble):
        cassels.conic_point((3, 1000003, -1))
    # f = -g: the stream's first solution (1, 1, 0) has c = 0
    assert cassels.conic_point((19501, 1, -19501)) == (1, 0, 1)


def _pq_members(family, count):
    theta = monsky.THETA_PI3 if family == FAMILY_F5 else monsky.THETA_2PI3
    out = []
    for sf in factor_range(10**5):
        rec = cassels._Analysis.of(sf, theta)
        if rec.family == family and legendre_additive(*rec.pq) == 0:
            out.append(rec)
            if len(out) == count:
                return out
    raise AssertionError(f"fewer than {count} {family} pairings")


@pytest.mark.parametrize("family", [FAMILY_F5, FAMILY_F11])
def test_pq_torsion_checks_first_pairings(family):
    form = "px2-qy2=z2" if family == FAMILY_F5 else "px2+qy2=z2"
    for rec in _pq_members(family, 20):
        p, q = rec.pq
        sol = solve_ternary(form, (p, q))
        curve, lines = cassels._tangents_pq(rec.n, p, q, sol)
        checks = cassels.torsion_pairing_checks(curve, lines, [OO, 2, 3, p, q], rec.n)
        assert [c["pairing"] for c in checks] == [0, 0], (p, q)


def test_ternary_solutions_keep_pairing_coordinates_prime_to_q_and_n():
    # in a primitive solution of p a^2 -+ q b^2 = c^2, q | a would force
    # q | c and then q | b; in one of 4 c^2 = d a^2 + (n/d) b^2 a prime of
    # n dividing c divides a or b and then the other one too
    pairs, forms = _pq_pairs(), _f19_forms(30000)
    for skip, seed in itertools.product(range(4), (None, 1, 2)):
        rng = random.Random(seed) if seed else None
        for p, q in pairs:
            form = "px2-qy2=z2" if (p * q) % 24 == 5 else "px2+qy2=z2"
            assert solve_ternary(form, (p, q), rng=rng, skip=skip).a % q, (p, q, skip, seed)
        for d, n in forms:
            sol = solve_ternary("4c2=da2+(n/d)b2", (d, n), rng=rng, skip=skip)
            assert math.gcd(sol.c, n) == 1, (d, n, skip, seed)


def _tangency_cases():
    # (quad, variables, point, line): H3 of F5's (13, 17) cover and H1 of
    # F19's n = 259 cover, each with the line the family pairing uses
    sol = solve_ternary("px2-qy2=z2", (13, 17))
    curve, lines = cassels._tangents_pq(factor_squarefree(221), 13, 17, sol)
    yield curve.h3, ("t", "u1", "u2"), (sol.b, 13 * sol.a, sol.c), lines[2]
    sf = factor_squarefree(259)
    d = classgroup.splitting_divisor(sf)[0]
    sol = solve_ternary("4c2=da2+(n/d)b2", (d, sf))
    curve, lines = cassels._tangents_f19(sf, d, sol)
    yield curve.h1, ("t", "u2", "u3"), (sol.b, -2 * sol.a * d, 4 * sol.c), lines[0]


@pytest.mark.parametrize("case", list(_tangency_cases()), ids=["F5-H3", "F19-H1"])
def test_check_tangency_rejects_wrong_lines(case):
    quad, variables, point, line = case
    for scale in (1, -1, 3):
        cassels._check_tangency(quad, variables, point, tuple(scale * x for x in line))
    i = next(i for i, x in enumerate(line) if x)
    flipped = tuple(-x if j == i else x for j, x in enumerate(line))
    bumped = tuple(x + (j == i) for j, x in enumerate(line))
    unused = next(j for j, v in enumerate(("t", "u1", "u2", "u3")) if v not in variables)
    stray = tuple(x + (j == unused) for j, x in enumerate(line))
    off = (point[0], point[1], point[2] + 1)
    for bad_point, bad_line in ((point, flipped), (point, bumped), (point, stray), (off, line)):
        with pytest.raises(AssertionError):
            cassels._check_tangency(quad, variables, bad_point, bad_line)


def test_check_tangency_holds_under_optimize():
    # python -O strips assert statements; the tangency check must still raise
    code = (
        "import sys\n"
        "from theta_selmer import cassels\n"
        "quad, var, pt = (3, 1, -1), ('t', 'u1', 'u2'), (1, 1, 2)\n"
        "line = cassels.tangent_from_point(quad, var, pt)\n"
        "flipped = (-line[0],) + line[1:]\n"
        "for point, bad in ((pt, flipped), ((1, 1, 3), line)):\n"
        "    try:\n"
        "        cassels._check_tangency(quad, var, point, bad)\n"
        "        print('accepted')\n"
        "    except cassels.InternalDisagreement as exc:\n"
        "        print(exc)\n"
        "print(sys.flags.optimize)\n"
    )
    src = str(pathlib.Path(cassels.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.splitlines() == [
        "line is not tangent at the point", "point is not on the conic", "1"
    ], proc.stderr


def test_pq_torsion_checks_f11():
    p, q = 7, 29
    rec = cassels._Analysis.of(p * q, monsky.THETA_2PI3)
    assert rec.family == FAMILY_F11 and rec.pq == (p, q)
    sol = solve_ternary("px2+qy2=z2", (p, q))
    curve, lines = cassels._tangents_pq(rec.n, p, q, sol)
    checks = cassels.torsion_pairing_checks(curve, lines, [OO, 2, 3, p, q], rec.n)
    assert [c["pairing"] for c in checks] == [0, 0]


@pytest.mark.parametrize("family, theta, residue", [
    ("F5", monsky.THETA_PI3, 5), ("F11", monsky.THETA_2PI3, 11), ("F19", monsky.THETA_PI3, 19),
])
def test_family_members_is_the_hand_walk(family, theta, residue):
    by_hand = [sf.value for sf in factor_range(5000) if sf.value % 24 == residue
               and cassels._Analysis.of(sf, theta).family == family]
    walked = list(cassels.family_members(family, 5000))
    assert [rec.m.value for rec in walked] == by_hand and len(by_hand) > 20
    assert all(rec.theta == theta and rec.family == family for rec in walked)


def test_family_members_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        cassels.family_members("F7", 100)


def test_conic_point_with_a_zero_coordinate():
    # f = 1 or g = 1 after the squares are stripped: the stream, which yields
    # only a, b >= 1, would search far past (0, 1, 1) here
    quad = (4001468, 1, -1)
    t0 = time.perf_counter()
    pt = cassels.conic_point(quad)
    assert time.perf_counter() - t0 < 0.1
    assert _on_conic(quad, pt) and math.gcd(*pt) == 1 and 0 in pt
    assert cassels.conic_point((256446233, 383265919, -1)) == (2101, 3668, 79300383)
    assert cassels.conic_point((19501, 1, -19501)) == (1, 0, 1)


def test_conic_point_rejects_a_zero_coefficient():
    # a zero coefficient once made the square stripping loop forever, so a
    # child with a timeout runs the calls and a regression fails, not hangs
    code = (
        "from theta_selmer import arith, cassels\n"
        "for quad in ((0, 2, -8), (3, 0, -12)):\n"
        "    try:\n"
        "        print('returned', cassels.conic_point(quad))\n"
        "    except arith.ZeroArgument:\n"
        "        print('ZeroArgument')\n"
    )
    src = str(pathlib.Path(cassels.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.splitlines() == ["ZeroArgument", "ZeroArgument"], proc.stderr
