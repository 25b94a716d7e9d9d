import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_selmer import arith, classgroup, gf2, survey
from theta_selmer.arith import factor_squarefree, hilbert_additive, is_prime, is_squarefree
from theta_selmer.classgroup import (
    PositiveDiscriminant,
    RankMismatch,
    field_data,
    forms_class_group,
    is_fundamental,
    r2,
    r4,
    redei_matrix,
    reduce_form,
    reduced_forms,
    splitting_divisor,
)


def test_field_data():
    fd = field_data(-5)
    assert fd.discriminant == -20
    assert fd.ramified_primes == (2, 5)
    fd = field_data(-7)
    assert fd.discriminant == -7
    assert fd.ramified_primes == (7,)


def test_redei_matrix_minus5():
    m = redei_matrix(-5)
    want = [
        [hilbert_additive(2, -5, 2), hilbert_additive(5, -5, 2)],
        [hilbert_additive(2, -5, 5), hilbert_additive(5, -5, 5)],
    ]
    assert m.to_lists() == want
    assert m.to_lists() == [[1, 0], [1, 0]]


def hilbert_redei(d: int) -> list[list[int]]:
    """R(d) from its definition: entry (i, j) is [p_j, d]_{p_i}."""
    ps = field_data(d).ramified_primes
    return [[hilbert_additive(pj, d, pi) for pj in ps] for pi in ps]


def test_redei_matrix_matches_hilbert_definition():
    for m in range(2, 3001):
        if is_squarefree(m):
            for d in (m, -m):
                assert redei_matrix(d).to_lists() == hilbert_redei(d), d


def unpacked_rank(a: list[list[int]]) -> int:
    """Elimination on lists of 0/1 entries, sharing no code with gf2."""
    a = [row[:] for row in a]
    rank_ = 0
    for col in range(len(a)):
        piv = next((i for i in range(rank_, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank_], a[piv] = a[piv], a[rank_]
        for i in range(rank_ + 1, len(a)):
            if a[i][col]:
                a[i] = [x ^ y for x, y in zip(a[i], a[rank_])]
        rank_ += 1
    return rank_


def test_density_histograms_match_hilbert_definition():
    # both signs, D > 0 included: r4 = t_ram - 1 - rank R(d), with R(d) from
    # Hilbert symbols and the discriminants enumerated directly.  The bounds
    # cover the even-m cut at a quarter of the bound (m = 2 mod 4 gives
    # |D| = 4m) and m = 1, where D = -4 counts and D = 1 is no field.
    r4_of = {}
    for D in range(-3003, 3004):
        if abs(D) >= 3 and is_fundamental(D):
            a = hilbert_redei(D if D % 4 == 1 else D // 4)
            r4_of[D] = str(len(a) - 1 - unpacked_rank(a))
    for bound in [*range(65), 2999, 3000, 3001, 3002, 3003]:
        want: dict[int, dict[str, int]] = {-1: {}, 1: {}}
        for D, k in r4_of.items():
            if abs(D) <= bound:
                hist = want[1 if D > 0 else -1]
                hist[k] = hist.get(k, 0) + 1
        reports = survey.scan_r4_density(bound)
        assert [r.counts for r in reports] == [want[-1], want[-1], want[1], want[1]], bound
        assert [r.size for r in reports] == [sum(want[s].values()) for s in (-1, -1, 1, 1)]
        assert [r.empty for r in reports] == [not want[s] for s in (-1, -1, 1, 1)]
    assert [r.size for r in survey.scan_r4_density(4)] == [2, 2, 0, 0]  # -3, -4
    assert [r.size for r in survey.scan_r4_density(5)] == [2, 2, 1, 1]  # and 5


def test_density_scan_builds_no_objects_and_calls_no_symbols(monkeypatch):
    # the scan walks prime products and reads the kernel's own bit forms of
    # eps and omega: no SquarefreeInteger, no eps/omega call
    calls = {"SquarefreeInteger": 0, "eps": 0, "omega": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    want = [r.counts for r in survey.scan_r4_density(3000)]
    init = arith.SquarefreeInteger.__init__
    monkeypatch.setattr(arith.SquarefreeInteger, "__init__", counted("SquarefreeInteger", init))
    for name in ("eps", "omega"):
        wrapped = counted(name, getattr(arith, name))
        for mod in (arith, classgroup, survey):
            monkeypatch.setattr(mod, name, wrapped, raising=False)
    assert [r.counts for r in survey.scan_r4_density(3000)] == want
    assert calls == {"SquarefreeInteger": 0, "eps": 0, "omega": 0}
    arith.factor_squarefree(15)
    assert calls["SquarefreeInteger"] == 1  # the wrapper does count


def _prime_at_least(x: int) -> int:
    x = max(x, 5)
    while not is_prime(x):
        x += 1
    return x


_PRIMES_BELOW_2_31 = st.integers(2, 31).flatmap(
    lambda k: st.integers(1 << (k - 1), (1 << k) - 1).map(_prime_at_least)
).filter(lambda p: p < 1 << 31)


@settings(deadline=None)
@given(
    st.sampled_from((1, -1)),
    st.sampled_from((1, 2, 3, 6)),
    st.lists(_PRIMES_BELOW_2_31, max_size=8, unique=True),
)
def test_redei_matrix_matches_hilbert_definition_large(sign, eta, primes):
    d = sign * eta
    for p in primes:
        if abs(d) * p >= 1 << 63:
            break
        d *= p
    if d == 1:
        return
    assert redei_matrix(d).to_lists() == hilbert_redei(d)


def test_redei_matrix_minus1():
    m = redei_matrix(-1)
    assert (m.nrows, m.ncols) == (1, 1)


def test_r4_examples():
    assert r4(-5) == 0  # Cl(-20) = Z/2
    assert r4(-14) == 1  # Cl(-56) = Z/4
    assert r4(-7) == 0  # class number 1


def test_forms_groups():
    g = forms_class_group(-20)
    assert g.invariant_factors == (2,) and g.r4 == 0
    g = forms_class_group(-56)
    assert g.invariant_factors == (4,) and g.r4 == 1 and g.r8 == 0
    g = forms_class_group(-3)
    assert g.invariant_factors == () and g.order == 1
    assert forms_class_group(-23).invariant_factors == (3,)
    assert forms_class_group(-84).invariant_factors == (2, 2)


def test_forms_group_structure_consistency():
    import math

    for D in range(-3, -800, -1):
        if not is_fundamental(D):
            continue
        g = forms_class_group(D)
        assert math.prod(g.invariant_factors) == g.order
        for a, b in zip(g.invariant_factors, g.invariant_factors[1:]):
            assert b % a == 0
        two_part = sum(1 for f in g.invariant_factors if f % 2 == 0)
        assert two_part == g.r2


def test_forms_positive_disc_rejected():
    with pytest.raises(PositiveDiscriminant):
        reduced_forms(40)


def test_reduce_form_canonical():
    a, b, c = reduce_form(3, 10, 9)
    assert b * b - 4 * a * c == 10 * 10 - 4 * 27
    assert -a < b <= a <= c


def test_redei_vs_forms_oracle():
    for D in range(-3, -4000, -1):
        if not is_fundamental(D):
            continue
        d = D if D % 4 == 1 else D // 4
        g = forms_class_group(D)
        assert r2(d) == g.r2, D
        assert r4(d) == g.r4, D


def test_splitting_divisor():
    # n = 259 = 7*37, r4(-259) = 1
    sf = factor_squarefree(259)
    assert r4(-259) == 1
    d_star, x1 = splitting_divisor(sf)
    assert d_star in (7, 37) and 259 % d_star == 0
    from theta_selmer import monsky

    a = monsky.build_blocks(sf).a_matrix
    assert a.mul_vec(x1).is_zero()
    assert a.mul_vec(gf2.ones_vec(sf.t)).is_zero()


def test_splitting_divisor_class_is_a_square():
    # the ambiguous form of d* must lie in 2 Cl (that is the theorem's d)
    from theta_selmer.classgroup import compose

    for n in (259, 355, 667, 763):
        sf = factor_squarefree(n)
        d_star, _ = splitting_divisor(sf)
        c = (d_star + n // d_star) // 4
        amb = reduce_form(d_star, d_star, c)
        forms = reduced_forms(-n)
        squares = {compose(f, f) for f in forms}
        assert amb in squares, n


def test_splitting_divisor_rank_mismatch():
    with pytest.raises(RankMismatch):
        splitting_divisor(factor_squarefree(7))  # r4(-7) = 0


def test_splitting_divisor_and_r8_accept_blocks():
    from theta_selmer import monsky

    for n in (259, 355, 667, 763):
        sf = factor_squarefree(n)
        blocks = monsky.build_blocks(sf)
        d_star, x1 = splitting_divisor(blocks)
        assert (d_star, x1) == splitting_divisor(sf) == splitting_divisor(n)
        for c in (1, 2, 3):  # prime to n
            want = classgroup.r8_decision(sf, d_star, c)
            assert classgroup.r8_decision(blocks, d_star, c) == want
            assert classgroup.r8_decision(n, d_star, c) == want


def test_r8_trivial_case():
    # r_c = 0 makes A u = 0 solvable, so r8 = 1
    sf = factor_squarefree(259)
    d_star, _ = splitting_divisor(sf)
    assert classgroup.r8_decision(sf, d_star, 1) == 1  # [1/p] = 0 for all p


def test_r8_matches_forms_oracle():
    from theta_selmer import cassels

    import math

    hits = 0
    for n in range(19, 2200, 24):
        if not is_squarefree(n):
            continue
        sf = factor_squarefree(n)
        if sf.eta != 1 or r4(-n) != 1:
            continue
        d_star, _ = splitting_divisor(sf)
        sol = cassels.solve_ternary("4c2=da2+(n/d)b2", (d_star, n))
        if math.gcd(sol.c, n) != 1:
            continue
        r_c_dot_e = sum(
            classgroup.legendre_additive(sol.c, p) for p in sf.odd_primes
        ) % 2
        assert r_c_dot_e == 0, n  # r_c e^T = [c/n] = 0
        assert classgroup.r8_decision(sf, d_star, sol.c) == forms_class_group(-n).r8, n
        hits += 1
    assert hits >= 5


def test_fundamental_discriminants():
    assert is_fundamental(-20) and is_fundamental(-7) and is_fundamental(-56)
    assert not is_fundamental(-9) and not is_fundamental(-25)
    assert is_fundamental(5) and is_fundamental(8) and not is_fundamental(4)
