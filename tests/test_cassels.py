import hashlib
import json
import math
import random
import tracemalloc

import pytest

from theta_selmer import cassels, classgroup, descent, monsky
from theta_selmer.arith import OO, factor_range, factor_squarefree, legendre_additive
from theta_selmer.cassels import (
    FAMILY_F5,
    FAMILY_F11,
    KIND_CASSELS,
    KIND_PARITY,
    KIND_S2EQ2,
    KIND_THM71,
    KIND_UNKNOWN,
    ExcludedSmallN,
    HypothesisFailed,
    certify,
    pairing_f19,
    pairing_pq,
    solve_ternary,
    split_pq,
    transform_minus,
    transform_plus,
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
            aa, bb, cc = transform_minus(p, q, a, b, c)
            assert p * aa * aa - q * bb * bb == cc * cc
        c2 = p * a * a + q * b * b
        if math.isqrt(c2) ** 2 == c2:
            c = math.isqrt(c2)
            aa, bb, cc = transform_plus(p, q, a, b, c)
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
    # consistent with [p/q] = 1 where the construction is never needed
    assert cassels._raw_solutions(5, -73, 400, 1) == []


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
