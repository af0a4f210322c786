import functools
import json
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critvar import quotient as qt
from critvar import ratmat
from critvar.arrangement import ArrangementSpec, k_subsets, random_generic, rat_str, sample_z
from critvar.cli import main
from critvar.errors import CritvarError, DomainError, UsageError
from critvar.quotient import (
    QuotientAlgebra,
    commutator_residual,
    eliminate_first_kind,
    euler_operator_residual,
    first_kind_operator_residual,
    second_kind_operator_residual,
    weighted_sum_operator_residual,
)
from critvar.relations import build_relations, euler_relation, g_comb
from ringref import add, mul, pvar, sub, zvar
from test_ratmat import (
    _charpoly_int,
    _inverse_by_rref,
    _nullspace_by_rref,
    _rref,
    _solve,
    identity,
    mat_mul,
    mat_vec,
    transpose,
    zeros,
)


def line_algebra():
    spec = ArrangementSpec(n=2, k=1, b=((1,), (1,)), a=(1, 1))
    return QuotientAlgebra(spec, [Fraction(0), Fraction(1)])


def plane_algebra():
    spec = ArrangementSpec(n=3, k=2, b=((1, 0), (0, 1), (1, 1)), a=(1, 1, 1))
    return QuotientAlgebra(spec, [Fraction(0), Fraction(0), Fraction(1)])


def random_algebra(n, k, seed, j1=1):
    rng = random.Random(seed)
    spec = random_generic(n, k, rng, coeff_bound=4)
    z = sample_z(spec, rng, bound=6)
    return QuotientAlgebra(spec, z, j1=j1)


def test_two_point_operators_in_closed_form():
    alg = line_algebra()
    assert alg.dim == 1 and alg.basis == ((2,),)
    assert alg.bethe_operator(1) == [[Fraction(-2)]]
    assert alg.bethe_operator(2) == [[Fraction(2)]]
    assert alg.reduce_monomial(()) == [Fraction(1, 2)]
    # p2^2 = 2 p2 and p1 p2 = -2 p2 in the fiber algebra
    assert alg.reduce_monomial((2, 2)) == [Fraction(2)]
    assert alg.reduce_monomial((1, 2)) == [Fraction(-2)]


def test_three_line_operators_match_momenta():
    # one critical point only, so each operator is the scalar p_j at it
    alg = plane_algebra()
    assert alg.dim == 1
    p = alg.spec.momenta(alg.z, [Fraction(-1, 3), Fraction(-1, 3)])
    for j in range(1, 4):
        assert alg.bethe_operator(j) == [[p[j - 1]]]


def test_dimension_formula():
    for n, k, seed in [(4, 2, 0), (5, 2, 1), (5, 3, 2), (6, 3, 3)]:
        alg = random_algebra(n, k, seed)
        assert alg.dim == math.comb(n - 1, k)
        assert all(alg.j1 not in mono for mono in alg.basis)


def test_basis_classes_reduce_to_unit_vectors():
    alg = random_algebra(4, 2, 11)
    for r, mono in enumerate(alg.basis):
        coords = alg.reduce_monomial(mono)
        assert coords == [Fraction(1) if i == r else Fraction(0) for i in range(alg.dim)]


def _reduce_by_worklist(alg, mono):
    """The rewrite as a worklist of (monomial, coefficient), popped until empty.

    The reference for the memoised recursion: each monomial popped is
    expanded by the same three moves, but nothing is shared between calls
    and coefficients merge in Fraction.  It raises degree by
    (1/|a|) sum_j z_j p_j over every j, not by the recursion's weighted sum
    over j outside one k-subset, so the two raising rules are compared too.
    """
    spec, k = alg.spec, alg.spec.k
    out = [Fraction(0)] * alg.dim
    work = {tuple(sorted(mono)): Fraction(1)}

    def bump(key, coeff):
        key = tuple(sorted(key))
        total = work.get(key, Fraction(0)) + coeff
        if total == 0:
            work.pop(key, None)
        else:
            work[key] = total

    def eliminate(key, i, forbidden):
        shorter = list(key)
        shorter.remove(i)
        for l, c in eliminate_first_kind(spec, i, forbidden).items():
            bump(shorter + [l], coeff * c)

    while work:
        key, coeff = work.popitem()
        support = sorted(set(key))
        if len(key) < k:
            for j in range(1, spec.n + 1):
                if alg.z[j - 1]:
                    bump(key + (j,), coeff * alg.z[j - 1] / spec.weight_total)
        elif len(support) > k:
            jset = tuple(support[: k + 1])
            rest = list(key)
            for j in jset:
                rest.remove(j)
            fj = spec.discriminant_value(jset, alg.z)
            for j, d in spec.discriminant_coeffs(jset):
                bump(rest + [v for v in jset if v != j], coeff * spec.a[j - 1] * d / fj)
        elif len(support) < len(key):
            i = next(v for v in support if key.count(v) > 1)
            eliminate(key, i, [s for s in support if s != i])
        elif alg.j1 in key:
            eliminate(key, alg.j1, [v for v in key if v != alg.j1])
        else:
            out[alg.index[key]] += coeff
    return out


def test_memoised_rewrite_matches_the_worklist():
    # k = 1, k = n - 1 (dim 1), (6,3) and (7,3), one with j1 other than 1
    for n, k, seed, j1 in [(5, 1, 101, 1), (5, 4, 102, 1), (6, 3, 103, 4), (7, 3, 104, 1)]:
        alg = random_algebra(n, k, seed, j1=j1)
        ops = [[_reduce_by_worklist(alg, mono + (j,)) for mono in alg.basis]
               for j in range(1, n + 1)]
        ops = [transpose(cols) for cols in ops]
        assert alg.operators() == ops
        assert alg.reduce_monomial(()) == _reduce_by_worklist(alg, ())
        for key in alg.all_subsets:
            assert alg.reduce_monomial(key) == _reduce_by_worklist(alg, key)


def _operator_by_columns(alg, j):
    """K_j from Fraction columns of reduce_monomial, and K_j^-1 by Fraction Gauss-Jordan."""
    op = transpose([alg.reduce_monomial(mono + (j,)) for mono in alg.basis])
    return op, _inverse_by_rref(op)


def _sparse_values(cols):
    """Each (den, {row: int}) column as {row: Fraction}, after checking it is in lowest terms."""
    for d, coords in cols:
        assert d > 0 and all(coords.values()) and math.gcd(d, *coords.values()) == 1
    return [{r: Fraction(x, d) for r, x in coords.items()} for d, coords in cols]


@pytest.mark.parametrize("n, k, seed", [(5, 1, 111), (5, 4, 112), (6, 3, 113), (7, 3, 114),
                                        (8, 3, 115)])
def test_integer_operators_match_the_cleared_fraction_columns(n, k, seed):
    # the stored columns are the normal forms in lowest terms, zeros left out:
    # as Fractions they are the columns of reduce_monomial, and K_j^-1's are
    # the columns of the Fraction inverse
    for j1 in (1, n):
        alg, ref = random_algebra(n, k, seed, j1=j1), random_algebra(n, k, seed, j1=j1)
        for j in range(1, n + 1):
            op, inv = _operator_by_columns(ref, j)
            for index, mat in ((j, op), (-j, inv)):
                assert _sparse_values(alg.columns(index)) == [
                    {r: x for r, x in enumerate(col) if x} for col in transpose(mat)]
            assert alg.bethe_operator(j) == op
    with pytest.raises(UsageError):
        alg.columns(0)
    with pytest.raises(UsageError):
        alg.bethe_operator(-1)


_ROWS = 6
_vectors = st.tuples(st.integers(1, 60),
                     st.dictionaries(st.integers(0, _ROWS - 1),
                                     st.integers(-40, 40).filter(bool), max_size=_ROWS))
_coefficients = st.integers(-6, 6) | st.fractions(max_denominator=12).filter(
    lambda x: abs(x) <= 6)


def _dense(vec):
    d, coords = vec
    return [Fraction(coords.get(r, 0), d) for r in range(_ROWS)]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(terms=st.lists(st.tuples(_coefficients, _vectors), max_size=5),
       den=st.integers(1, 30), cols=st.lists(_vectors, min_size=_ROWS, max_size=_ROWS),
       vec=_vectors)
@example(terms=[(2, (3, {0: 1, 4: -2})), (Fraction(-2, 3), (1, {0: 1, 4: -2}))], den=5,
         cols=[(1, {})] * _ROWS, vec=(1, {}))
def test_lincomb_and_apply_are_the_fraction_sums(terms, den, cols, vec):
    # every sparse sum of the algebra: the Fraction sum, in lowest terms with
    # no zero stored, and exactly (1, {}) when it cancels
    got = qt._lincomb(terms, den)
    want = [sum((c * _dense(v)[r] for c, v in terms), Fraction(0)) / den for r in range(_ROWS)]
    assert _sparse_values([got]) == [{r: x for r, x in enumerate(want) if x}]
    assert (got == (1, {})) == (not any(want))
    assert qt._lincomb([*terms, *((-c, v) for c, v in terms)], den) == (1, {})
    # K vec, K given by its columns
    dense = [_dense(col) for col in cols]
    want = [sum((dense[s][r] * x for s, x in enumerate(_dense(vec))), Fraction(0))
            for r in range(_ROWS)]
    got = qt._apply(cols, vec)
    assert _sparse_values([got]) == [{r: x for r, x in enumerate(want) if x}]


def test_reduce_monomial_returns_a_fresh_list():
    alg = random_algebra(5, 2, 105)
    key = alg.all_subsets[0]
    first = alg.reduce_monomial(key)
    want = list(first)
    first[0] += 1
    first[-1] = Fraction(7)
    assert alg.reduce_monomial(key) == want
    unit = alg.reduce_monomial(())  # the unit, whose key () is memoised the same way
    unit.append(Fraction(7))
    assert len(alg.reduce_monomial(())) == alg.dim


def _cycling_elimination(alg, pair):
    """A broken move: each monomial of the pair eliminates j1 onto the other."""
    honest = alg._eliminate

    def eliminate(key, i, support):
        return ([(Fraction(2), pair[1 - pair.index(key)])] if key in pair
                else honest(key, i, support))

    return eliminate


def test_a_cycling_rewrite_raises_naming_the_monomial(monkeypatch):
    alg = random_algebra(5, 2, 106)
    pair = ((1, 2), (1, 3))
    monkeypatch.setattr(alg, "_eliminate", _cycling_elimination(alg, pair))
    with pytest.raises(CritvarError, match=r"rewrite returns to p\[1, 2\]"):
        alg.reduce_monomial((1, 2))
    with pytest.raises(DomainError, match=r"p\[1, 3\]"):
        alg.reduce_monomial((3, 1))
    # a self-loop is caught as well, and nothing half-done stays in the memo
    monkeypatch.setattr(alg, "_eliminate", lambda key, i, support: [(Fraction(1), key)])
    with pytest.raises(DomainError, match=r"p\[1, 4\]"):
        alg.reduce_monomial((1, 4))
    monkeypatch.undo()
    assert all(v is not None for v in alg._nf.values())
    assert alg.operators() == random_algebra(5, 2, 106).operators()


def test_a_cycling_rewrite_exits_two_from_the_cli(tmp_path, capsys, monkeypatch):
    rng = random.Random(107)
    spec = random_generic(5, 2, rng, coeff_bound=4)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**spec.to_config(),
                                "z": [rat_str(v) for v in sample_z(spec, rng, bound=6)]}))
    move = QuotientAlgebra._eliminate
    monkeypatch.setattr(QuotientAlgebra, "_eliminate",
                        lambda self, key, i, support: [(Fraction(1), key)] if key == (1, 2)
                        else move(self, key, i, support))
    assert main(["verify", "--config", str(path)]) == 2
    assert "rewrite returns to p[1, 2]" in capsys.readouterr().err


def test_eliminate_first_kind():
    alg = plane_algebra()
    spec = alg.spec
    # p_1 expressed away from {3} goes through I' = {3}: p_1 = p_2 here
    assert eliminate_first_kind(spec, 1, [3]) == {2: Fraction(1)}
    with pytest.raises(UsageError):
        eliminate_first_kind(spec, 1, [1])
    with pytest.raises(UsageError):
        eliminate_first_kind(spec, 1, [2, 3])
    # substitution respects the defining relation coefficient by coefficient
    rng = random.Random(4)
    sp = random_generic(5, 2, rng)
    repl = eliminate_first_kind(sp, 2, [4])
    assert set(repl) == {1, 3, 5}
    iprime = (4,)
    for l, c in repl.items():
        assert c == -sp.plucker((l,) + iprime) / sp.plucker((2,) + iprime)


def _identity_families(alg):
    """name -> residual(on_unit) for every instance of every identity family."""
    n, k = alg.spec.n, alg.spec.k
    return {
        "first_kind": lambda on_unit: [first_kind_operator_residual(alg, iset, on_unit)
                                       for iset in k_subsets(n, k - 1)],
        "second_kind": lambda on_unit: [second_kind_operator_residual(alg, jset, on_unit)
                                        for jset in k_subsets(n, k + 1)],
        "euler": lambda on_unit: [euler_operator_residual(alg, on_unit)],
        "weighted_sum": lambda on_unit: [weighted_sum_operator_residual(alg, iset, on_unit)
                                         for iset in k_subsets(n, k)],
    }


def _unit_column(alg):
    """The unit as an m x 1 block, the vector the on_unit residuals are applied to."""
    return [[x] for x in alg.reduce_monomial(())]


def _unit_orbit(alg):
    """W, one column K_I u per basis monomial I, by Fraction products.

    Reads the stored operator columns, as the orbit table does, and checks
    the unit's table against it.  K_j is multiplication by p_j, so K_I u =
    [p_I] = e_I: on honest operators W is the identity, and u is cyclic.
    """
    ops = {j: qt._fractions(alg.columns(j), alg.dim) for j in range(1, alg.spec.n + 1)}
    cols = []
    for mono in alg.basis:
        vec = alg.reduce_monomial(())
        for i in mono:
            vec = mat_vec(ops[i], vec)
        cols.append(vec)
    table = qt._orbit_table(alg, True)
    entries = [qt._orbit_entry(alg, table, mono) for mono in alg.basis]
    assert cols == [[row[0] for row in qt._fractions(entry, alg.dim)] for entry in entries]
    return transpose(cols)


def test_operator_identities():
    for n, k, seed in [(3, 1, 1), (4, 2, 2), (5, 3, 3), (5, 2, 4)]:
        alg = random_algebra(n, k, seed + 40)
        zero = zeros(alg.dim, alg.dim)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert commutator_residual(alg, i, j) == zero
        # K_I u = [p_I] = e_I: the unit column is cyclic, with W the identity
        assert _unit_orbit(alg) == identity(alg.dim)
        for family in _identity_families(alg).values():
            assert all(res == zero for res in family(False))
            assert all(res == zeros(alg.dim, 1) for res in family(True))


def _bump_operator(alg, j, entry, delta):
    """Move entry (r, c) of the stored K_j by delta.

    Column c is replaced, never changed in place: the rewrite's memo holds
    the same (den, {row: int}), shared with other operators' columns.
    """
    r, c = entry
    cols = alg.columns(j)
    cols[c] = qt._lincomb([(1, cols[c]), (delta, (1, {r: 1}))])


def test_corrupted_operator_fails_on_the_unit_column():
    # the unit column comes from the rewrite, before the corruption
    for j, entry in [(1, (0, 0)), (1, (2, 3)), (3, (5, 1)), (3, (0, 4)), (5, (4, 2))]:
        alg = random_algebra(5, 2, 44)
        unit = _unit_column(alg)
        assert all(alg.z[i - 1] != 0 for i in (1, 3))
        _bump_operator(alg, j, entry, Fraction(1, 7))
        assert any(commutator_residual(alg, j, i) != zeros(alg.dim, alg.dim)
                   for i in range(1, 6) if i != j)
        for name, family in _identity_families(alg).items():
            on_unit = family(True)
            # the chain on the unit is the full residual applied to it
            assert on_unit == [mat_mul(res, unit) for res in family(False)], name
            if name != "euler" or alg.z[j - 1] != 0:  # z_j = 0 drops K_j from Euler
                assert any(x != 0 for res in on_unit for row in res for x in row), name


# every (n, k) with a fiber of dimension at most 20
_SMALL_SHAPES = [(n, k) for n in range(3, 8) for k in range(1, n) if math.comb(n - 1, k) <= 20]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(shape=st.sampled_from(_SMALL_SHAPES), seed=st.integers(0, 10**6),
       bump=st.none() | st.tuples(st.integers(1, 7), st.integers(0, 19), st.integers(0, 19)))
def test_cyclic_certificate_and_the_n_minus_one_verdict(shape, seed, bump):
    # a certified K_c has a full-rank Krylov matrix over Q, and the n - 1
    # commutators with it decide what all pairs decide, on exact operators
    # and on ones with an entry moved (bump: operator, row, column)
    n, k = shape
    alg = random_algebra(n, k, seed)
    if bump is not None:
        _bump_operator(alg, min(bump[0], n), (bump[1] % alg.dim, bump[2] % alg.dim), 1)
    ops = {j: alg.bethe_operator(j) for j in range(1, n + 1)}
    cyclic, prime = qt.cyclic_operator(alg)
    assert (cyclic is None) == (prime is None)
    if cyclic is not None:
        vec, krylov = alg.reduce_monomial(()), []
        for _ in range(alg.dim):
            krylov.append(vec)
            vec = [sum(x * y for x, y in zip(row, vec)) for row in ops[cyclic]]
        assert ratmat.rank(krylov) == alg.dim
    zero, verdict = zeros(alg.dim, alg.dim), {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = commutator_residual(alg, i, j)
            left, right = mat_mul(ops[i], ops[j]), mat_mul(ops[j], ops[i])
            assert got == [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(left, right)]
            verdict[i, j] = got == zero
    if cyclic is not None:
        assert all(verdict[cyclic, j] for j in range(1, n + 1)) == all(verdict.values())
    if bump is None:
        assert all(verdict.values())


def test_a_derogatory_operator_is_not_certified():
    # K_1 replaced by the identity, which has no cyclic vector: the certificate moves on
    alg = random_algebra(5, 2, 7)
    alg.columns(1)[:] = [(1, {c: 1}) for c in range(alg.dim)]
    assert qt.cyclic_operator(alg) == (2, 2**31 - 1)
    # diag(1, 1/2, .., 1/m) has distinct eigenvalues, and u has no zero
    # coordinate, so u is cyclic for it: the certificate reads K_1 with its
    # column denominators, not the bare numerators, which are the identity's
    assert len(alg._normal_form(())[1]) == alg.dim
    alg.columns(1)[:] = [(c + 1, {c: 1}) for c in range(alg.dim)]
    assert qt.cyclic_operator(alg) == (1, 2**31 - 1)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(shape=st.sampled_from(_SMALL_SHAPES), seed=st.integers(0, 10**6))
def test_weighted_sums_are_combinations_of_first_kind_relations(shape, seed):
    # (z_j - f_(j,I)(z) / d_I)_j = -(1/d_I) sum_m (-1)^m z_(i_m) coeffs(F_(I - i_m)),
    # m = 1..k, exactly: weighted_sum_operators passes whenever first_kind_operators does
    from critvar.relations import first_kind
    alg = random_algebra(*shape, seed)
    spec, z, n = alg.spec, alg.z, alg.spec.n
    for iset in alg.all_subsets:
        ws = {j: c for c, j in qt._weighted_sum(spec, iset, z)}
        combo = [Fraction(0)] * n
        for m, i in enumerate(iset, start=1):
            terms = first_kind(spec, iset[:m - 1] + iset[m:]).terms
            for j in range(1, n + 1):
                combo[j - 1] += (-1) ** m * z[i - 1] * terms.get(((n + j - 1, 1),), 0)
        assert [zj - ws.get(j, 0) for j, zj in enumerate(z, start=1)] == [
            -x / spec.plucker(iset) for x in combo]


def _certify_recording(alg):
    """cyclic_operator's (c, p), and the (sequence, polynomial) of each Berlekamp-Massey call."""
    calls, minimal = [], qt._minimal_polynomial

    def spy(seq, p):
        calls.append((seq, minimal(seq, p)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qt, "_minimal_polynomial", spy)
        return qt.cyclic_operator(alg), calls


@settings(derandomize=True, max_examples=30, deadline=None)
@given(shape=st.sampled_from(_SMALL_SHAPES), seed=st.integers(0, 10**6))
def test_a_full_degree_recurrence_is_the_characteristic_polynomial(shape, seed):
    # every polynomial Berlekamp-Massey returns annihilates its 2m terms and
    # has degree at most m; one of degree m is det(tI - A_c) mod p for the
    # certified c, A_c = D_c K_c, and no earlier c reached degree m
    alg = random_algebra(*shape, seed)
    (cyclic, prime), calls = _certify_recording(alg)
    p, m = 2**31 - 1, alg.dim
    for seq, poly in calls:
        deg = len(poly) - 1
        assert len(seq) == 2 * m and poly[0] == 1 and deg <= m
        assert all(sum(c * seq[i - j] for j, c in enumerate(poly)) % p == 0
                   for i in range(deg, 2 * m))
    assert [len(poly) - 1 == m for _, poly in calls] == [False] * (len(calls) - 1) + [
        cyclic is not None]
    if cyclic is not None:
        cols = alg.columns(cyclic)
        den = math.lcm(*(d for d, _ in cols))
        a_c = [[0] * m for _ in range(m)]
        for c, (d, coords) in enumerate(cols):
            for r, x in coords.items():
                a_c[r][c] = x * (den // d)
        assert prime == p and calls[-1][1] == [int(x) % p for x in _charpoly_int(a_c)]


def test_a_derogatory_operator_gives_a_short_recurrence():
    # K_1 the identity, then diag(1, 1, 2, .., m - 1): neither has a cyclic
    # vector, so no sequence w K_1^i u has a recurrence of degree m, and K_2
    # is certified instead
    alg = random_algebra(5, 2, 7)
    for diag in ([1] * alg.dim, [1] + list(range(1, alg.dim))):
        alg.columns(1)[:] = [(1, {c: x}) for c, x in enumerate(diag)]
        certified, calls = _certify_recording(alg)
        assert certified == (2, 2**31 - 1)
        assert [len(poly) - 1 < alg.dim for _, poly in calls] == [True, False]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(shape=st.sampled_from(_SMALL_SHAPES), seed=st.integers(0, 10**6), j1=st.integers(1, 7))
def test_inverse_operators_are_the_fraction_inverses(shape, seed, j1):
    # K_j^-1 comes from the rewrite's normal forms of p_j^-1 p_I, not from an
    # elimination: it must equal the Fraction Gauss-Jordan inverse of K_j
    n, k = shape
    alg = random_algebra(n, k, seed, j1=(j1 - 1) % n + 1)
    for j in range(1, n + 1):
        assert qt._fractions(alg.columns(-j), alg.dim) == _inverse_by_rref(alg.bethe_operator(j))


def test_all_inverse_operators_at_ten_four_in_two_seconds():
    # `critvar gen --n 10 --k 4 --seed 5`, dim 126: K_2^-1 by Gauss-Jordan on
    # [A | I] did not finish in 2.5 minutes; K_j (K_j^-1 u) = u, checked exactly
    rng = random.Random(5)
    spec = random_generic(10, 4, rng, coeff_bound=9)
    alg = QuotientAlgebra(spec, sample_z(spec, rng))
    start = time.perf_counter()
    inverses = {j: alg.columns(-j) for j in range(1, 11)}
    assert time.perf_counter() - start <= 2.0
    unit = alg._normal_form(())
    for j, inv in inverses.items():
        assert qt._apply(alg.columns(j), qt._apply(inv, unit)) == unit


def _combination_by_products(alg, terms, inverse=None):
    """sum of c K_{i_r}..K_{i_1} over (c, indices), by Fraction matrix products.

    K_j^-1 is inverse(j), by default the Fraction RREF inverse of K_j.
    """
    inverse = inverse or (lambda j: _inverse_by_rref(alg.bethe_operator(j)))
    total = zeros(alg.dim, alg.dim)
    for c, indices in terms:
        mat = identity(alg.dim)
        for i in indices:
            mat = mat_mul(alg.bethe_operator(i) if i > 0 else inverse(-i), mat)
        total = [[x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(total, mat)]
    return total


def test_table_residuals_match_full_matrices():
    # k = 1, k = n - 1 (dim 1), and two middle cases
    for n, k, seed in [(4, 1, 91), (4, 3, 92), (5, 2, 93), (6, 3, 94)]:
        alg = random_algebra(n, k, seed)
        unit = _unit_column(alg)
        zero = zeros(alg.dim, alg.dim)
        for name, family in _identity_families(alg).items():
            full = family(False)
            assert all(res == zero for res in full), name
            assert family(True) == [mat_mul(res, unit) for res in full], name
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                ki, kj = alg.bethe_operator(i), alg.bethe_operator(j)
                assert commutator_residual(alg, i, j) == zero == [
                    [x - y for x, y in zip(r1, r2)]
                    for r1, r2 in zip(mat_mul(ki, kj), mat_mul(kj, ki))]
        assert _unit_orbit(alg) == identity(alg.dim)
        # the relations as matrices, against Fraction products
        rels = build_relations(alg.spec)
        for poly in [*rels.first.values(), *rels.second.values(), euler_relation(alg.spec)]:
            assert alg.multiplication_matrix(poly) == _combination_by_products(
                alg, qt._poly_terms(alg, poly)) == zero


def test_table_follows_the_operators_not_the_rewrite():
    # corrupted, non-commuting operators: the table and the Fraction products
    # still agree entry for entry, and the unit's table never calls the rewrite;
    # every K_j^+-1 is built first, so the products read the stored K_4^-1 too
    alg = random_algebra(5, 2, 95)
    unit = _unit_column(alg)
    stored = {j: qt._fractions(alg.columns(j), alg.dim) for j in range(-5, 6) if j}
    _bump_operator(alg, 3, (1, 2), Fraction(2, 9))
    _bump_operator(alg, 4, (0, 5), -1)

    def no_rewrite(mono):
        raise AssertionError("the orbit table ran a rewrite move")

    alg._move = no_rewrite
    p = [pvar(5, j) for j in range(1, 6)]
    inv = pvar(5, 4, exp=-1)
    for poly in [sub(mul(p[2], p[3]), mul(p[3], p[4])), add(mul(p[2], inv, p[1]), 3),
                 mul(p[3], p[2], p[2])]:
        terms = qt._poly_terms(alg, poly)
        full = _combination_by_products(alg, terms, lambda j: stored[-j])
        assert alg.multiplication_matrix(poly) == full
        assert alg.normal_form(poly) == mat_vec(full, alg.reduce_monomial(()))
    assert _unit_orbit(alg) != identity(alg.dim)
    for name, family in _identity_families(alg).items():
        assert family(True) == [mat_mul(res, unit) for res in family(False)], name


def test_corrupted_integer_operator_makes_table_residuals_nonzero():
    # the table reads the stored operator columns: corrupting one of those,
    # with the rewrite intact, must show in every table check
    for j, entry in [(2, (0, 0)), (3, (4, 1)), (5, (2, 5))]:
        alg = random_algebra(5, 2, 96)
        _bump_operator(alg, j, entry, 1)
        zero = zeros(alg.dim, 1)
        assert any(commutator_residual(alg, j, i) != zeros(alg.dim, alg.dim)
                   for i in range(1, 6) if i != j)
        assert _unit_orbit(alg) != identity(alg.dim)
        for name, family in _identity_families(alg).items():
            if name != "euler" or alg.z[j - 1] != 0:  # z_j = 0 drops K_j from Euler
                assert any(res != zero for res in family(True)), name
        # the Fraction view shows the stored form; the rewrite is untouched
        honest = random_algebra(5, 2, 96)
        assert alg.bethe_operator(j) != honest.bethe_operator(j)
        assert ([alg.reduce_monomial(mono + (j,)) for mono in alg.basis]
                == [honest.reduce_monomial(mono + (j,)) for mono in alg.basis])


def _unit_by_solve(alg):
    """The unit as the solution u of (prod_{i in I} K_i) u = e_I, I the first basis class."""
    mat = identity(alg.dim)
    for i in alg.basis[0]:
        mat = mat_mul(mat, alg.bethe_operator(i))
    rhs = [Fraction(0)] * alg.dim
    rhs[0] = Fraction(1)
    return _solve(mat, rhs)


def test_unit_element_two_routes():
    # degree raising from the empty product against the solve route, with
    # k = n - 1 (dim 1) and k = n - 2 up to n = 11, and j1 other than 1
    for n, k, seed, j1 in [(3, 1, 1, 1), (5, 1, 4, 1), (4, 2, 2, 1), (5, 3, 3, 1),
                           (6, 2, 5, 1), (6, 2, 5, 4), (5, 4, 6, 1), (7, 6, 7, 7),
                           (9, 8, 8, 2), (11, 10, 9, 6), (6, 4, 10, 1), (8, 6, 11, 8),
                           (10, 8, 12, 3), (11, 9, 13, 1), (11, 9, 14, 11)]:
        alg = random_algebra(n, k, seed + 60, j1=j1)
        assert alg.reduce_monomial(()) == _unit_by_solve(alg)
        # and the unit actually multiplies like a unit
        for j in range(1, n + 1):
            lhs = mat_vec(alg.bethe_operator(j), alg.reduce_monomial(()))
            assert lhs == alg.reduce_monomial((j,))


@pytest.mark.parametrize("n, k, seed", [(10, 8, 108), (11, 10, 120)])
def test_the_unit_climbs_on_squarefree_monomials_without_j1(n, k, seed):
    # each raise multiplies by a fresh p_j, j not j1, so the unit's walk meets
    # only subsets of the other n - 1 indices of size at most k
    spec = random_generic(n, k, random.Random(seed))
    for j1 in (1, n):
        alg = QuotientAlgebra(spec, sample_z(spec, random.Random(1)), j1=j1)
        alg.reduce_monomial(())
        assert all(len(set(key)) == len(key) and j1 not in key for key in alg._nf)
        assert len(alg._nf) <= sum(math.comb(n - 1, d) for d in range(k + 1))


def is_zero_class(alg, poly):
    return all(c == 0 for c in alg.normal_form(poly))


def test_relations_die_in_the_quotient():
    for n, k, seed in [(4, 2, 5), (5, 3, 6)]:
        alg = random_algebra(n, k, seed)
        rel = build_relations(alg.spec)
        for poly in rel.first.values():
            assert is_zero_class(alg, poly)
        for poly in rel.second.values():
            assert is_zero_class(alg, poly)
        assert is_zero_class(alg, euler_relation(alg.spec))


def test_normal_form_with_negative_exponents():
    alg = line_algebra()
    # coordinates, not values: at the single critical point p_2 = 2, so the
    # class of 1/p_2 is (1/2) / 2 times the basis class p_2
    inv = pvar(2, 2, exp=-1)
    assert alg.normal_form(inv) == [Fraction(1, 4)]
    # the antisymmetrized G over {1,2} vanishes on the fiber, inverse powers and all
    assert is_zero_class(alg, g_comb(alg.spec, (1, 2)))
    # a single G_j does not: it is a coordinate on the fiber, not a relation
    g2 = sub(zvar(2, 2), pvar(2, 2, exp=-1))
    assert not is_zero_class(alg, g2)


def test_charpoly_ignores_excluded_index():
    for n, k, seed in [(4, 2, 21), (5, 2, 22)]:
        rng = random.Random(seed)
        spec = random_generic(n, k, rng, coeff_bound=4)
        z = sample_z(spec, rng, bound=6)
        algs = [QuotientAlgebra(spec, z, j1=j1) for j1 in (1, 2, n)]
        for j in range(1, n + 1):
            polys = {tuple(ratmat.charpoly(alg.bethe_operator(j))) for alg in algs}
            assert len(polys) == 1


def test_singular_subspace_and_mu():
    for n, k, seed, j1 in [(4, 2, 31, 1), (4, 2, 31, 3), (5, 2, 32, 1), (5, 3, 33, 2)]:
        alg = random_algebra(n, k, seed, j1=j1)
        assert len(_sing_basis(alg)) == alg.dim
        # projection is S-orthogonal: residual vector is killed by every row
        e = [Fraction(0)] * len(alg.all_subsets)
        e[0] = Fraction(1)
        proj = _s_perp_by_gram(alg, e)
        sdiag = _s_diagonal(alg)
        resid = [x - y for x, y in zip(e, proj)]
        for bvec in _sing_basis(alg):
            assert sum(b * s * r for b, s, r in zip(bvec, sdiag, resid)) == 0
        assert alg.mu_consistency() == []
        assert alg.mu_is_isomorphism()


def _axis(alg, key):
    e = [Fraction(0)] * len(alg.all_subsets)
    e[alg.all_subsets.index(key)] = Fraction(1)
    return e


def _iota_rows(alg):
    """iota_a, one row per (k-1)-subset: e_J -> sum_m (-1)^m a_(j_m) e_(J - j_m)."""
    rows = []
    for lower in k_subsets(alg.spec.n, alg.spec.k - 1):
        row = [0] * len(alg.all_subsets)
        for r, key in enumerate(alg.all_subsets):
            if set(lower) < set(key):
                m = next(m for m, j in enumerate(key) if j not in lower)
                row[r] = (-1) ** m * alg.spec.a[key[m] - 1]
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=None)
def _sing_basis(alg):
    """B, the reference basis of Sing V: the Fraction RREF kernel of iota_a; kept per algebra."""
    return _nullspace_by_rref(_iota_rows(alg))


def _s_diagonal(alg):
    """S, the reference form: prod_(i in I) a_i on the axis of each k-subset I."""
    return [math.prod(alg.spec.a[i - 1] for i in key) for key in alg.all_subsets]


def _gram(alg, basis):
    sdiag = _s_diagonal(alg)
    return [[sum(x * s * y for x, s, y in zip(br, sdiag, bc)) for bc in basis] for br in basis]


@functools.lru_cache(maxsize=None)
def _gram_inverse(alg):
    """G^-1 by Fraction rref, G = B^T S B entry by entry; kept per algebra."""
    return _inverse_by_rref(_gram(alg, _sing_basis(alg)))


def _s_perp_by_gram(alg, vec):
    """The projection one vector at a time: B c with c = G^-1 B^T S vec."""
    basis, sdiag = _sing_basis(alg), _s_diagonal(alg)
    rhs = [sum(x * s * v for x, s, v in zip(br, sdiag, vec)) for br in basis]
    coeffs = [sum(g * r for g, r in zip(row, rhs)) for row in _gram_inverse(alg)]
    return [sum(c * bvec[i] for c, bvec in zip(coeffs, basis)) for i in range(len(vec))]


@functools.lru_cache(maxsize=None)
def _scaled_axis(alg, key):
    return [x / alg.spec.plucker(key) for x in _s_perp_by_gram(alg, _axis(alg, key))]


def _mu_by_axes(alg):
    return transpose([_scaled_axis(alg, mono) for mono in alg.basis])


def _mu_consistency_per_subset(alg):
    """Subsets J whose reduced p_J maps elsewhere than s_perp(v_J) / d_J, one at a time."""
    mu = _mu_by_axes(alg)
    return [key for key in alg.all_subsets
            if mat_vec(mu, alg.reduce_monomial(key)) != _scaled_axis(alg, key)]


def test_special_vector_map_matches_the_per_vector_projection():
    # k = 1, k = n - 1 (dim 1), and excluded indices other than 1
    for n, k, seed, j1 in [(4, 1, 71, 1), (4, 3, 72, 1), (4, 2, 73, 3), (5, 2, 74, 5),
                           (5, 3, 75, 2)]:
        alg = random_algebra(n, k, seed, j1=j1)
        assert alg.mu_consistency() == _mu_consistency_per_subset(alg) == []
        assert alg.mu_is_isomorphism() and ratmat.rank(_mu_by_axes(alg)) == alg.dim


def _corrupt_normal_forms(alg, keys):
    """Add 1/7 to coordinate 0 of the stored normal form of each k-subset in keys.

    Every k-subset is reduced first, so no stored normal form is built on a
    corrupted one: reduce_monomial and mu_consistency both read the change.
    """
    for key in alg.all_subsets:
        den, coords = alg._normal_form(key)
        if key in keys:
            coords = {r: 7 * x for r, x in coords.items()}
            coords[0] = coords.get(0, 0) + den
            alg._nf[key] = 7 * den, coords


@st.composite
def _special_vector_case(draw):
    """(n, k, seed, weights, j1, corrupted subset positions) with C(n-1, k) <= 20."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1).filter(lambda k: math.comb(n - 1, k) <= 20))
    weights = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=n, max_size=n)
                   .filter(lambda a: sum(a) != 0))
    corrupt = draw(st.sets(st.integers(0, math.comb(n, k) - 1), max_size=3))
    return n, k, draw(st.integers(0, 10**6)), weights, draw(st.integers(1, n)), corrupt


def _weighted_algebra(case):
    """The algebra of a _special_vector_case: a random generic b with the drawn weights."""
    n, k, seed, weights, j1, _ = case
    rng = random.Random(seed)
    spec = random_generic(n, k, rng, coeff_bound=4)
    spec = ArrangementSpec(n=n, k=k, b=spec.b, a=tuple(Fraction(w) for w in weights))
    return QuotientAlgebra(spec, sample_z(spec, rng, bound=6), j1=j1)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_special_vector_case())
@example((5, 1, 1, [3, -2, 1, 4, -1], 2, {0, 3}))  # k = 1, j1 != 1, indefinite S
@example((5, 4, 2, [-1, 2, -3, 1, 2], 5, {1}))  # k = n - 1: dim 1
@example((6, 3, 3, [2, -1, 1, -3, 1, 2], 4, {0, 7, 19}))  # dim 10, indefinite S
def test_special_vector_map_on_the_rows_matches_the_gram_projection(case):
    # P x = 0 exactly when B^T S x = 0: deciding the map on Y = B^T S D^-1
    # gives the per-vector projection's verdict, honest or corrupted
    alg, corrupt = _weighted_algebra(case), case[-1]
    assert alg.mu_consistency() == _mu_consistency_per_subset(alg) == []
    assert alg.mu_is_isomorphism() and ratmat.rank(_mu_by_axes(alg)) == alg.dim
    keys = {alg.all_subsets[i] for i in corrupt}
    _corrupt_normal_forms(alg, keys)
    bad = [key for key in alg.all_subsets if key in keys]
    assert alg.mu_consistency() == _mu_consistency_per_subset(alg) == bad


def test_a_singular_vector_off_the_basis_axes_breaks_the_isomorphism():
    # a row of B^T S swapped for the axis e_J, J containing j1: G stays
    # invertible with b_I swapped for e_J, but Y_basis gains a zero row and
    # the map loses rank
    for n, k, seed, j1 in [(4, 2, 78, 1), (5, 2, 79, 3)]:
        alg = random_algebra(n, k, seed, j1=j1)
        key = next(key for key in alg.all_subsets if j1 in key)
        assert alg.mu_is_isomorphism()
        alg._special_rows()[-1] = {key: 1}
        assert not alg.mu_is_isomorphism()
        swapped = _sing_basis(alg)[:-1] + [_axis(alg, key)]
        assert len(_rref(_gram(alg, swapped))[1]) == alg.dim


def _rows_by_reference(alg, basis):
    """Row I of B^T S over S_I, on its nonzero axes, for each b_I in basis."""
    sdiag, rows = _s_diagonal(alg), []
    for bvec in basis:
        lead = next(r for r, (key, x) in enumerate(zip(alg.all_subsets, bvec))
                    if x and 1 not in key)  # b_I is e_I on the axes avoiding 1
        rows.append({key: x * s / sdiag[lead]
                     for key, x, s in zip(alg.all_subsets, bvec, sdiag) if x})
    return rows


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_special_vector_case())
@example((5, 1, 1, [3, -2, 1, 4, -1], 2, set()))  # k = 1, j1 != 1
@example((5, 4, 2, [-1, 2, -3, 1, 2], 5, set()))  # k = n - 1: dim 1
@example((7, 3, 3, [2, -1, 1, -3, 1, 2, -1], 4, set()))  # dim 20
def test_the_closed_form_singular_basis_is_the_rref_kernel(case):
    # row I of B^T S over S_I, B the Fraction RREF kernel of iota_a, is the
    # closed form's k+1 signed entries whatever j1 is, and G = B^T S B is
    # invertible once |a| != 0
    alg = _weighted_algebra(case)
    assert alg._special_rows() == _rows_by_reference(alg, _sing_basis(alg))
    assert all(len(row) == alg.spec.k + 1 for row in alg._special_rows())
    assert len(_gram_inverse(alg)) == alg.dim  # DomainError if G were singular


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_special_vector_case())
def test_a_sign_flipped_on_an_axis_holding_one_fails_that_subset_alone(case):
    # with j1 = 1 no basis axis holds 1, so an entry of B^T S on an axis J
    # holding 1 reaches column J of Y alone: flipping its sign fails J only
    n, k, seed, weights, _, _ = case
    alg = _weighted_algebra((n, k, seed, weights, 1, set()))
    row = alg._special_rows()[seed % alg.dim]
    key = sorted(axis for axis in row if 1 in axis)[seed // alg.dim % k]
    row[key] = -row[key]
    assert alg.mu_consistency() == [key]


def test_the_form_degenerates_on_the_singular_vectors_when_the_weights_sum_to_zero():
    # |a| != 0 is sharp: at weights summing to zero, which the spec refuses,
    # the same closed form spans ker iota_a but G = B^T S B is singular
    n, k, weights = 5, 2, tuple(map(Fraction, (3, -1, 2, -5, 1)))
    with pytest.raises(UsageError, match="sum to zero"):
        ArrangementSpec(n=n, k=k, b=random_generic(n, k, random.Random(0)).b, a=weights)
    alg = SimpleNamespace(spec=SimpleNamespace(n=n, k=k, a=weights),
                          all_subsets=tuple(k_subsets(n, k)), _rows=None)
    basis = _nullspace_by_rref(_iota_rows(alg))
    assert len(basis) == math.comb(n - 1, k)
    assert QuotientAlgebra._special_rows(alg) == _rows_by_reference(alg, basis)
    assert len(_rref(_gram(alg, basis))[1]) < len(basis)


def test_the_special_vector_stage_runs_one_exact_elimination(tmp_path, capsys, monkeypatch):
    # the singular basis is in closed form and G is invertible by theorem, so
    # the stage's only elimination is mu_is_isomorphism's rank of Y_basis
    calls, inside = [], []
    echelon = ratmat._echelon

    def spy(rows):
        if inside:
            calls.append((len(rows), len(rows[0])))
        return echelon(rows)

    def stage(method):
        def wrapper(self):
            inside.append(method.__name__)
            try:
                return method(self)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(ratmat, "_echelon", spy)
    for method in (QuotientAlgebra.mu_consistency, QuotientAlgebra.mu_is_isomorphism):
        monkeypatch.setattr(QuotientAlgebra, method.__name__, stage(method))
    alg = random_algebra(5, 2, 77)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**alg.spec.to_config(), "z": [rat_str(v) for v in alg.z]}))
    assert main(["verify", "--config", str(path)]) == 0
    capsys.readouterr()
    assert calls == [(alg.dim, alg.dim)]


def test_corrupted_reduction_gives_the_same_bad_subsets():
    alg = random_algebra(5, 2, 76)
    corrupt = {alg.all_subsets[0], alg.basis[2], alg.all_subsets[-1]}
    alg.operators()  # built from the honest rewrite
    _corrupt_normal_forms(alg, corrupt)
    bad = [key for key in alg.all_subsets if key in corrupt]
    assert alg.mu_consistency() == _mu_consistency_per_subset(alg) == bad


def test_normal_form_is_the_matrix_applied_to_the_unit():
    for n, k, seed in [(4, 1, 81), (4, 2, 82), (5, 2, 83)]:
        alg = random_algebra(n, k, seed)
        p = [pvar(n, j) for j in range(1, n + 1)]
        inv = [pvar(n, j, exp=-1) for j in range(1, n + 1)]
        polys = [
            inv[0],
            sub(mul(inv[1], inv[1], p[2]), Fraction(3, 5)),
            add(mul(zvar(n, 1), p[0], inv[2]), mul(2, pvar(n, n, exp=-3))),
            g_comb(alg.spec, tuple(range(1, k + 2))),
        ]
        for poly in polys:
            full = alg.multiplication_matrix(poly)
            assert alg.normal_form(poly) == mat_vec(full, alg.reduce_monomial(()))
        assert alg.multiplication_matrix(inv[0]) == _inverse_by_rref(alg.bethe_operator(1))
        assert alg.multiplication_matrix(mul(p[0], p[1])) == mat_mul(
            alg.bethe_operator(1), alg.bethe_operator(2))


def test_constructor_validation():
    spec = ArrangementSpec(n=3, k=2, b=((1, 0), (0, 1), (1, 1)), a=(1, 1, 1))
    with pytest.raises(DomainError):
        QuotientAlgebra(spec, [1, 1, 2])  # on the discriminant
    with pytest.raises(UsageError):
        QuotientAlgebra(spec, [0, 0])
    with pytest.raises(UsageError):
        QuotientAlgebra(spec, [0, 0, 1], j1=4)
    cspec = ArrangementSpec(n=2, k=1, b=((1,), (1,)), a=(1 + 0j, 1 + 0j))
    with pytest.raises(UsageError):
        QuotientAlgebra(cspec, [0, 1])
