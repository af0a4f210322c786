import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critvar import ratmat
from critvar.arrangement import (
    ArrangementSpec,
    k_subsets,
    parse_rat,
    random_generic,
    rat_str,
    sample_z,
)
from critvar.errors import DomainError, GenerationError, UsageError


def master_gradient(spec, z, t):
    """Gradient in t of sum_j a_j log f_j; zero exactly at critical points."""
    ps = spec.momenta(z, t)
    return [sum(spec.b[j][m] * ps[j] for j in range(spec.n)) for m in range(spec.k)]


def plane_spec():
    # three lines in C^2, the standard small worked case
    return ArrangementSpec(n=3, k=2, b=((1, 0), (0, 1), (1, 1)), a=(1, 1, 1))


def test_validation():
    with pytest.raises(UsageError):
        ArrangementSpec(n=2, k=2, b=((1, 0), (0, 1)), a=(1, 1))
    with pytest.raises(UsageError):
        ArrangementSpec(n=2, k=1, b=((1,), (0,)), a=(1, 1))  # zero minor
    with pytest.raises(UsageError):
        ArrangementSpec(n=3, k=2, b=((1, 0), (0, 1), (2, 0)), a=(1, 1, 1))  # rows 1,3
    with pytest.raises(UsageError):
        ArrangementSpec(n=2, k=1, b=((1,), (1,)), a=(0, 1))
    with pytest.raises(UsageError):
        ArrangementSpec(n=2, k=1, b=((1,), (1,)), a=(1, -1))  # weights sum to zero


def test_a_boolean_weight_is_refused_like_a_boolean_entry_of_b():
    # bool subclasses int, so True would read as the weight 1; parse_rat refuses it in b too
    b = [[1], [2], [3]]
    for a in [(True, 2, 3), (1, False, 3), (True, 2j, 3)]:
        with pytest.raises(UsageError, match="cannot parse rational from"):
            ArrangementSpec(3, 1, b, a=a)
    with pytest.raises(UsageError, match="cannot parse rational from"):
        ArrangementSpec(3, 1, [[True], [2], [3]], a=(1, 2, 3))
    assert ArrangementSpec(3, 1, b, a=(1, Fraction(1, 2), 3)).a == (1, Fraction(1, 2), 3)
    assert not ArrangementSpec(3, 1, b, a=(1, 2j, 3)).rational_weights


def test_parse_rat():
    assert parse_rat("2/3") == Fraction(2, 3)
    assert parse_rat(-4) == Fraction(-4)
    assert rat_str(Fraction(2, 3)) == "2/3"
    assert rat_str(Fraction(5)) == "5"
    with pytest.raises(UsageError):
        parse_rat("x")
    with pytest.raises(UsageError):
        parse_rat(0.5)


def test_plucker_signs_and_cache():
    spec = plane_spec()
    assert spec.plucker((1, 2)) == 1
    assert spec.plucker((2, 1)) == -1
    assert spec.plucker((2, 3)) == -1
    assert spec.plucker((1, 1)) == 0
    rng = random.Random(2)
    for _ in range(10):
        sp = random_generic(4, 2, rng)
        for i, j in k_subsets(4, 2):
            assert sp.plucker((i, j)) == -sp.plucker((j, i))
            direct = sp.b[i - 1][0] * sp.b[j - 1][1] - sp.b[i - 1][1] * sp.b[j - 1][0]
            assert sp.plucker((i, j)) == direct


def _sort_sign(seq):
    """Sign of the permutation that sorts seq, by counting inversions."""
    inversions = sum(x > y for i, x in enumerate(seq) for y in seq[i + 1 :])
    return -1 if inversions % 2 else 1


def test_plucker_memo_is_exact_and_still_validates():
    spec = random_generic(5, 3, random.Random(53))
    # every ordered 3-sequence, repeats included, twice: a miss, then a hit
    for _ in range(2):
        for seq in itertools.product(range(1, 6), repeat=3):
            rows = [list(spec.b[i - 1]) for i in sorted(seq)]
            want = _sort_sign(seq) * ratmat.det(rows) if len(set(seq)) == 3 else 0
            assert spec.plucker(seq) == want
            assert spec.plucker(list(seq)) == want
    for jset in k_subsets(5, 4):
        coeffs = spec.discriminant_coeffs(jset)
        assert coeffs == spec.discriminant_coeffs(list(jset))
        assert [c for _, c in coeffs] == [
            (-1) ** m * spec.plucker(jset[:m] + jset[m + 1 :]) for m in range(4)]
    # the memo is warm: bad input still raises, repeats still give 0
    for bad in [(0, 1, 2), (1, 2, 6), (1, 2), (1, 2, 3, 4), ()]:
        with pytest.raises(UsageError):
            spec.plucker(bad)
    for bad in [(1, 2, 3), (2, 1, 3, 4), (1, 2, 2, 3), (0, 1, 2, 3), (2, 3, 4, 6)]:
        with pytest.raises(UsageError):
            spec.discriminant_coeffs(bad)
    assert spec.plucker((2, 2, 5)) == spec.plucker((4, 1, 4)) == 0
    # the memo is not part of the value
    cold = ArrangementSpec.from_config(spec.to_config())
    warm = ArrangementSpec.from_config(spec.to_config())
    warm.plucker((3, 1, 2))
    warm.discriminant_coeffs((1, 2, 3, 4))
    assert cold == warm == spec and hash(cold) == hash(warm) == hash(spec)
    assert len({cold, warm, spec}) == 1


def test_spec_is_an_immutable_value():
    spec = random_generic(5, 2, random.Random(52))
    for name in ("n", "k", "b", "a", "_minors", "_plucker_memo", "anything"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)
        with pytest.raises(AttributeError):
            delattr(spec, name)
    # equality, hashing and repr see n, k, b and a, never the memos
    cold = ArrangementSpec(n=spec.n, k=spec.k, b=spec.b, a=spec.a)
    z = [Fraction(j) for j in range(5)]
    spec.plucker((2, 1))
    spec.discriminant_coeffs((1, 2, 3))
    spec.tables(z), spec.tables([0.5] * 5)
    assert spec._plucker_memo and not cold._plucker_memo
    assert cold == spec and hash(cold) == hash(spec)
    assert cold != spec.to_config() and spec != (spec.n, spec.k, spec.b, spec.a)
    heavier = ArrangementSpec(n=5, k=2, b=spec.b, a=(spec.a[0] + 1, *spec.a[1:]))
    assert heavier != spec
    text = repr(spec)
    assert text.startswith("ArrangementSpec(n=5, k=2, b=((Fraction(")
    assert ", a=(Fraction(" in text and "_minors" not in text and "memo" not in text
    assert eval(text, {"ArrangementSpec": ArrangementSpec, "Fraction": Fraction}) == spec


def test_discriminant_form_small_case():
    spec = plane_spec()
    form = spec.discriminant_form((1, 2, 3))
    # d_23 z1 - d_13 z2 + d_12 z3 with d_12 = 1, d_13 = 1, d_23 = -1
    assert form.to_text() == "-1/1*z1 + -1/1*z2 + 1/1*z3"
    assert spec.discriminant_value((1, 2, 3), [0, 0, 1]) == 1
    with pytest.raises(UsageError):
        spec.discriminant_form((1, 2))
    with pytest.raises(UsageError):
        spec.discriminant_form((3, 2, 1))


def test_discriminant_form_vs_hyperplanes():
    # sum_m (-1)^(m-1) d_{I minus i_m} f_{i_m}(z,t) equals the form at z alone:
    # the t-dependent parts cancel, which is what makes the form well defined.
    rng = random.Random(31)
    for _ in range(12):
        n, k = rng.choice([(3, 1), (4, 2), (5, 2), (5, 3)])
        spec = random_generic(n, k, rng)
        z = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
        t = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)]
        fs = spec.hyperplane_values(z, t)
        for iseq in k_subsets(n, k + 1):
            acc = Fraction(0)
            for m, i in enumerate(iseq):
                rest = iseq[:m] + iseq[m + 1 :]
                acc += (-1) ** m * spec.plucker(rest) * fs[i - 1]
            assert acc == spec.discriminant_value(iseq, z)


def test_span_rank():
    rng = random.Random(41)
    for n, k in [(3, 1), (4, 2), (5, 2), (6, 3), (6, 5)]:
        spec = random_generic(n, k, rng)
        assert spec.span_rank() == n - k


def test_plucker_relation():
    rng = random.Random(43)
    for _ in range(8):
        n, k = rng.choice([(4, 2), (5, 2), (5, 3), (6, 3)])
        spec = random_generic(n, k, rng)
        for _ in range(30):
            jseq = tuple(rng.randint(1, n) for _ in range(k + 1))
            iseq = tuple(rng.randint(1, n) for _ in range(k - 1))
            assert spec.plucker_relation_residual(jseq, iseq) == 0


def test_off_discriminant():
    spec = plane_spec()
    assert spec.is_off_discriminant([0, 0, 1])
    assert not spec.is_off_discriminant([1, 1, 2])  # triple point: z3 = z1 + z2
    assert not spec.is_off_discriminant([1.0, 1.0, 2.0 + 1e-15])
    assert spec.is_off_discriminant([1.0, 1.0, 2.5])
    # the float test is relative to the terms' size: scaling z keeps the answer
    assert spec.is_off_discriminant([1e-13, 1e-13, 2.5e-13])
    assert not spec.is_off_discriminant([1e8, 1e8, 2e8 + 3e-8])  # one ulp off


def _solve(rows, rhs):
    """x with rows . x = rhs by Gauss-Jordan over Fraction; None when rows are singular."""
    m = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(rows, rhs)]
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        m = [row if r == c else [x - row[c] * y for x, y in zip(row, m[c])]
             for r, row in enumerate(m)]
    return [row[-1] for row in m]


def _reference_bounded_chambers(spec, z):
    """Sign vectors of the bounded chambers, by brute force over vertices and rays.

    Every chamber has a vertex, so the signs around the vertices (the 2^k
    orthants of the planes through v, the other planes' signs at v) give
    every chamber.  A chamber sigma is unbounded exactly when its recession
    cone {d : sigma_j b_j . d >= 0} has a ray, and an extreme ray of that
    pointed cone lies on k-1 of the planes b_j . d = 0.
    """
    n, k, b = spec.n, spec.k, spec.b
    sign = lambda v: (v > 0) - (v < 0)  # noqa: E731
    chambers = set()
    for rows in itertools.combinations(range(n), k):
        v = _solve([b[i] for i in rows], [-z[i] for i in rows])
        at = [sign(z[j] + sum(x * y for x, y in zip(b[j], v))) for j in range(n)]
        for orthant in itertools.product((-1, 1), repeat=k):
            signs = dict(zip(rows, orthant))
            chambers.add(tuple(signs.get(j, at[j]) for j in range(n)))
    rays = []
    for rows in itertools.combinations(range(n), k - 1):
        w = next(w for c in range(k) if (w := _solve(
            [b[i] for i in rows] + [[int(m == c) for m in range(k)]], [0] * (k - 1) + [1])))
        rays += [[sign(s * sum(x * y for x, y in zip(b[j], w))) for j in range(n)]
                 for s in (-1, 1)]
    return {sigma for sigma in chambers
            if not any(all(x * y >= 0 for x, y in zip(sigma, ray)) for ray in rays)}


# every (n, k) with n <= 9 and a fiber of dimension at most 20: k = 1 and k = n-1 among them
_CHAMBER_SHAPES = [(n, k) for n in range(2, 10) for k in range(1, n) if math.comb(n - 1, k) <= 20]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(shape=st.sampled_from(_CHAMBER_SHAPES), seed=st.integers(0, 10**6))
def test_the_sweep_lists_each_bounded_chamber_once_at_a_vertex(shape, seed):
    n, k = shape
    rng = random.Random(seed)
    spec = random_generic(n, k, rng, coeff_bound=rng.choice((2, 9)))
    z = sample_z(spec, rng)
    chambers = spec.bounded_chambers(z)
    assert len(chambers) == math.comb(n - 1, k)
    assert {sigma for _, sigma in chambers} == _reference_bounded_chambers(spec, z)
    for iset, sigma in chambers:  # v_I is a vertex of the chamber listed with it
        v = _solve([spec.b[i - 1] for i in iset], [-z[i - 1] for i in iset])
        for j, f in enumerate(spec.hyperplane_values(z, v), start=1):
            assert (j in iset and f == 0) or f * sigma[j - 1] > 0


def test_the_sweep_refuses_a_z_on_the_discriminant():
    spec = plane_spec()
    assert [iset for iset, _ in spec.bounded_chambers([0, 0, 1])] == [(1, 3)]
    with pytest.raises(DomainError, match="discriminant"):
        spec.bounded_chambers([1, 1, 2])  # triple point: no list, short or not


def test_momenta_and_gradient_at_known_critical_point():
    spec = plane_spec()
    z = [Fraction(0), Fraction(0), Fraction(1)]
    t = [Fraction(-1, 3), Fraction(-1, 3)]
    assert spec.hyperplane_values(z, t) == [Fraction(-1, 3), Fraction(-1, 3), Fraction(1, 3)]
    assert spec.momenta(z, t) == [-3, -3, 3]
    assert master_gradient(spec, z, t) == [0, 0]
    with pytest.raises(DomainError):
        spec.momenta([Fraction(0)] * 3, [Fraction(0), Fraction(0)])


def test_config_round_trip():
    spec = ArrangementSpec(
        n=3, k=1, b=((1,), (2,), (Fraction(1, 3),)), a=(1, Fraction(-1, 2), 2)
    )
    again = ArrangementSpec.from_config(spec.to_config())
    assert again == spec
    with pytest.raises(UsageError):
        ArrangementSpec.from_config({"n": 3, "k": 1})
    # sizes must be integers, not numbers that round or parse to one
    for n in (3.7, "3"):
        with pytest.raises(UsageError):
            ArrangementSpec.from_config(dict(spec.to_config(), n=n))


def test_sampling_determinism():
    s1 = random_generic(5, 2, random.Random(77))
    s2 = random_generic(5, 2, random.Random(77))
    assert s1 == s2
    z1 = sample_z(s1, random.Random(5))
    z2 = sample_z(s2, random.Random(5))
    assert z1 == z2 and s1.is_off_discriminant(z1)


def test_generation_budget():
    with pytest.raises(GenerationError):
        random_generic(4, 2, random.Random(1), coeff_bound=9, tries=0)


def test_an_accepted_draw_computes_each_minor_once(monkeypatch):
    # Random(1) accepts its first (6,3) draw: C(6,3) = 20 minors, none computed twice
    calls = []
    det = ratmat.det
    monkeypatch.setattr(ratmat, "det", lambda rows: calls.append(rows) or det(rows))
    spec = random_generic(6, 3, random.Random(1))
    assert len(calls) == 20
    monkeypatch.undo()
    again = ArrangementSpec(6, 3, spec.b, spec.a)
    assert spec == again and spec.tables() == again.tables()  # (a, b, minors)
