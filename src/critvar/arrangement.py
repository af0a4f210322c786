"""Generic parallelly translated hyperplane arrangements.

An instance is n hyperplanes in C^k, the j-th cut out by

    f_j(z, t) = z_j + b^1_j t_1 + .. + b^k_j t_k,

where the rational n x k matrix b is fixed and the translation vector
z in C^n moves the planes in parallel.  Genericity means every k x k
minor of b is nonzero; the constructor enforces this eagerly, so any
ArrangementSpec in hand is safe to feed to the rest of the package.

Index convention: hyperplanes are numbered 1..n in every public
signature, matching the way the objects are usually written down.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import ratmat
from .errors import DomainError, GenerationError, UsageError

__all__ = [
    "ArrangementSpec",
    "k_subsets",
    "parse_rat",
    "rat_str",
    "random_generic",
    "sample_z",
]

_DISC_TOL = 1e-12  # relative size below which a float discriminant value counts as zero


def parse_rat(x):
    """Exact rational from an int or a 'p/q' / 'p' string; a bool is refused."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse rational {x!r}") from exc
    raise UsageError(f"cannot parse rational from {x!r}: give an int or a 'p/q' string")


def rat_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def k_subsets(n, k):
    """All k-element subsets of 1..n as increasing tuples, in lex order."""
    return itertools.combinations(range(1, n + 1), k)


def _perm_sign(seq):
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _signed_minor(minors, seq):
    """The minor on a sequence of distinct indices, from a table keyed by sorted subsets."""
    return _perm_sign(seq) * minors[tuple(sorted(seq))]


class ArrangementSpec:
    """Matrix b (n rows of k rationals), weights a, and the cached minor table
    of a generic instance.

    The weights are Fractions throughout the exact layer; complex ones are
    allowed numerically.  Immutable: equality, hashing and repr see n, k, b
    and a alone, never the tables and memos the constructor adds.  Next to
    the exact tables the constructor keeps one float image of a, b and the
    minors (a complex weight stays complex); tables() hands it to callers
    with float input.  A Fraction meeting a complex number is converted to
    complex(float(x)), so an image entry rounds exactly as that mixed
    arithmetic did, once per instance instead of once per operation.
    Arithmetic among entries alone (a product of two minors) rounds per
    operation on the image, and only at the end on the exact tables.
    """

    def __init__(self, n, k, b, a, *, _minors=None):
        if not 1 <= k < n:
            raise UsageError(f"need 1 <= k < n, got n={n}, k={k}")
        if len(b) != n or any(len(row) != k for row in b):
            raise UsageError(f"b must be {n}x{k}")
        if len(a) != n:
            raise UsageError(f"need {n} weights, got {len(a)}")
        b = tuple(tuple(parse_rat(x) for x in row) for row in b)
        fields = vars(self)  # written directly: __setattr__ refuses every name
        a = tuple(parse_rat(x) if isinstance(x, int) else x for x in a)  # a bool is refused
        rational = all(isinstance(x, Fraction) for x in a)
        fields.update(n=n, k=k, b=b, a=a, rational_weights=rational)
        if any(x == 0 for x in a):
            raise UsageError("every weight must be nonzero")
        if self.weight_total == 0:
            raise UsageError("the weights must not sum to zero")
        minors = _minors or _minor_table(n, k, b)  # random_generic passes the ones it checked
        # plucker and discriminant_coeffs per ordered sequence, lagrangian._chart
        # per chart; kept out of _key, so equality and hashing see n, k, b, a alone
        fields.update(_minors=minors, _plucker_memo={}, _coeffs_memo={}, _chart_memo={},
                      _exact=(a, b, minors), _image=(
                          tuple(x if isinstance(x, complex) else float(x) for x in a),
                          tuple(tuple(map(float, row)) for row in b),
                          {key: float(d) for key, d in minors.items()}))

    def __setattr__(self, name, *_):
        raise AttributeError(f"ArrangementSpec is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def _key(self):
        return (self.n, self.k, self.b, self.a)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key() == other._key() if same else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"ArrangementSpec(n={self.n!r}, k={self.k!r}, b={self.b!r}, a={self.a!r})"

    @property
    def weight_total(self):
        return sum(self.a)

    def tables(self, *values):
        """(a, b, minors) for arithmetic with these sequences of values.

        minors maps each increasing k-subset to its minor, in lex order.
        The float image when some value is a float or a complex (numpy's
        float64 and complex128 among them); otherwise the exact tables, so
        ints, Fractions and anything else built on them stay exact.
        """
        floats = any(isinstance(v, (float, complex)) for seq in values for v in seq)
        return self._image if floats else self._exact

    def require_rational_weights(self):
        if not self.rational_weights:
            raise UsageError("this operation runs exactly and needs rational weights")

    # -- minors and discriminant forms --------------------------------------

    def plucker(self, seq):
        """Signed minor d_{i_1..i_k}: det of rows i_1..i_k of b, in that order.

        Repeated indices give 0; otherwise the cached sorted minor carries
        the sign of the sorting permutation.  Each sequence is validated and
        signed once, then answered from the memo.
        """
        seq = tuple(seq)
        value = self._plucker_memo.get(seq)
        if value is None:
            if len(seq) != self.k:
                raise UsageError(f"minor wants {self.k} indices, got {len(seq)}")
            for i in seq:
                if not 1 <= i <= self.n:
                    raise UsageError(f"hyperplane index {i} out of range 1..{self.n}")
            value = self._plucker_memo[seq] = (Fraction(0) if len(set(seq)) < self.k
                                          else _signed_minor(self._minors, seq))
        return value

    def discriminant_coeffs(self, iseq):
        """(i_m, (-1)^(m-1) d_{iseq minus i_m}) for k+1 indices i_1 < .. < i_{k+1}."""
        iseq = tuple(iseq)
        coeffs = self._coeffs_memo.get(iseq)
        if coeffs is None:
            self._check_subset(iseq, self.k + 1)
            coeffs = self._coeffs_memo[iseq] = tuple(
                (i, (-1) ** m * self.plucker(iseq[:m] + iseq[m + 1 :]))
                for m, i in enumerate(iseq))
        return coeffs

    def discriminant_form(self, iseq):
        """The z-linear form attached to k+1 hyperplanes i_1 < .. < i_{k+1}.

        Its coefficient on z_{i_m} is (-1)^(m-1) times the minor on the other
        k indices; the arrangement has a nonempty intersection of the k+1
        planes exactly on the zero set of this form.
        """
        from .laurent import LaurentPoly
        return LaurentPoly(self.n, {((i - 1, 1),): c for i, c in self.discriminant_coeffs(iseq)})

    def discriminant_value(self, iseq, z):
        """discriminant_form evaluated at z, without building a polynomial."""
        return sum(c * z[i - 1] for i, c in self.discriminant_coeffs(iseq))

    def _check_subset(self, seq, size):
        seq = tuple(seq)
        if len(seq) != size or list(seq) != sorted(set(seq)):
            raise UsageError(f"expected {size} strictly increasing indices, got {seq}")
        if seq and (seq[0] < 1 or seq[-1] > self.n):
            raise UsageError(f"indices {seq} out of range 1..{self.n}")
        return seq

    def is_off_discriminant(self, z):
        """True when every (k+1)-fold intersection is empty at this z.

        Exact for rational z.  A float value v counts as zero when |v| <=
        _DISC_TOL * sum_m |d_{J minus j_m} z_{j_m}|, the size of the terms it sums.
        """
        if len(z) != self.n:
            raise UsageError("z has wrong length")
        exact = all(isinstance(v, (int, Fraction)) for v in z)
        for iseq in k_subsets(self.n, self.k + 1):
            terms = [c * z[i - 1] for i, c in self.discriminant_coeffs(iseq)]
            v = sum(terms)
            if (v == 0) if exact else abs(v) <= _DISC_TOL * sum(map(abs, terms)):
                return False
        return True

    def bounded_chambers(self, z):
        """(I, sigma) per bounded chamber at a rational z: sigma its f_j signs, v_I its lowest.

        Heights are l.t, l = sum_i x^(i-1) b_i; x > 1 + max|d| / min|d| (Cauchy's root
        bound) makes every det[l; b_S] = sum_i x^(i-1) d_(i,S) nonzero.  A region is
        bounded when it holds the up-cone of one vertex and the down-cone of another.
        Both cones of v_I have sign(f_j) = sign(f_J(z)) (-1)^pos(j in J) sign(d_I) off I,
        J = I + {j}; on I the up-cone has sign((-1)^pos(j in I) det[l; b_(I - j)] d_I),
        the down-cone the opposite.  DomainError on the discriminant.
        """
        n, k, sign = self.n, self.k, lambda v: (v > 0) - (v < 0)
        forms = {J: sign(self.discriminant_value(J, z)) for J in k_subsets(n, k + 1)}
        if 0 in forms.values():
            raise DomainError("z lies on the discriminant, so some k+1 planes meet")
        x = 2 + max(map(abs, self._minors.values())) // min(map(abs, self._minors.values()))
        height = {S: sign(sum(x**i * self.plucker((i + 1,) + S) for i in range(n)))
                  for S in k_subsets(n, k - 1)}
        up, down = {}, set()
        for I, d in self._minors.items():
            sigma = tuple(sign(d) * (-1) ** sum(i < j for i in I) * (
                height[tuple(i for i in I if i != j)] if j in I
                else forms[tuple(sorted(I + (j,)))]) for j in range(1, n + 1))
            up[sigma] = I
            down.add(tuple(-s if j in I else s for j, s in enumerate(sigma, start=1)))
        return [(I, sigma) for sigma, I in up.items() if sigma in down]

    def span_rank(self):
        """Exact rank of the span of all discriminant forms (equals n - k)."""
        rows = []
        for iseq in k_subsets(self.n, self.k + 1):
            row = [Fraction(0)] * self.n
            for i, c in self.discriminant_coeffs(iseq):
                row[i - 1] = c
            rows.append(row)
        return ratmat.rank(rows)

    def plucker_relation_residual(self, jseq, iseq):
        """sum_m (-1)^(m-1) d_{jseq minus j_m} d_{j_m, iseq}; zero for all sequences."""
        jseq, iseq = tuple(jseq), tuple(iseq)
        if len(jseq) != self.k + 1 or len(iseq) != self.k - 1:
            raise UsageError("sequence lengths must be k+1 and k-1")
        nums, dens = [], []  # summed in int over the products' lcm, 1 for integer b
        for m, j in enumerate(jseq):
            x, y = self.plucker(jseq[:m] + jseq[m + 1 :]), self.plucker((j,) + iseq)
            nums.append((-1) ** m * x.numerator * y.numerator)
            dens.append(x.denominator * y.denominator)
        den = math.lcm(*dens)
        return Fraction(sum(num * (den // d) for num, d in zip(nums, dens)), den)

    # -- the hyperplanes and the master function ----------------------------

    def hyperplane_values(self, z, t):
        """All f_j(z, t) = z_j + sum_m b^m_j t_m."""
        if len(z) != self.n or len(t) != self.k:
            raise UsageError("point dimensions do not match n, k")
        b = self.tables(z, t)[1]
        return [z[j] + sum(bm * tm for bm, tm in zip(b[j], t)) for j in range(self.n)]

    def momenta(self, z, t):
        """p_j = a_j / f_j(z, t); these are the natural coordinates on fibers."""
        fs = self.hyperplane_values(z, t)
        if any(f == 0 for f in fs):
            raise DomainError("point lies on a hyperplane")
        return [aj / fj for aj, fj in zip(self.a, fs)]

    # -- config round trip ---------------------------------------------------

    @classmethod
    def from_config(cls, cfg):
        """The instance a config's "n", "k", "b", "a" describe; UsageError if malformed."""
        for key in ("n", "k", "b", "a"):
            if key not in cfg:
                raise UsageError(f"config is missing required key {key!r}")
        n, k, b, a = cfg["n"], cfg["k"], cfg["b"], cfg["a"]
        if type(n) is not int or type(k) is not int:
            raise UsageError("n and k must be integers")
        seq = (list, tuple)
        if not (isinstance(b, seq) and all(isinstance(row, seq) for row in b)
                and isinstance(a, seq)):
            raise UsageError("b must be a list of rows and a a list of weights")
        return cls(n=n, k=k, b=b, a=tuple(parse_rat(x) for x in a))

    def to_config(self):
        return {
            "n": self.n,
            "k": self.k,
            "b": [[rat_str(x) for x in row] for row in self.b],
            "a": [rat_str(x) for x in self.a],
        }


def _minor_table(n, k, b):
    """{k-subset: minor} of the rows of b; UsageError at the first that vanishes."""
    minors = {}
    for key in k_subsets(n, k):
        d = ratmat.det([list(b[i - 1]) for i in key])
        if d == 0:
            raise UsageError(f"degenerate instance: minor on rows {key} vanishes")
        minors[key] = d
    return minors


def random_generic(n, k, rng, coeff_bound=9, tries=500):
    """Sample a generic instance with small integer data, retrying on collisions."""
    if not 1 <= k < n:
        raise UsageError(f"need 1 <= k < n, got n={n}, k={k}")
    if coeff_bound < 1:
        raise UsageError(f"need coeff_bound >= 1, got {coeff_bound}")
    for _ in range(tries):
        b = tuple(
            tuple(Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(k))
            for _ in range(n)
        )
        try:
            minors = _minor_table(n, k, b)
        except UsageError:
            continue
        a = tuple(Fraction(_nonzero_int(rng, coeff_bound)) for _ in range(n))
        if sum(a) == 0:
            continue
        return ArrangementSpec(n=n, k=k, b=b, a=a, _minors=minors)
    raise GenerationError(f"no generic instance found in {tries} draws (n={n}, k={k})")


def sample_z(spec, rng, bound=9, tries=500):
    """Rational translation vector off the discriminant."""
    for _ in range(tries):
        z = [Fraction(rng.randint(-bound, bound)) for _ in range(spec.n)]
        if spec.is_off_discriminant(z):
            return z
    raise GenerationError(f"no off-discriminant z found in {tries} draws")


def _nonzero_int(rng, bound):
    while True:
        v = rng.randint(-bound, bound)
        if v:
            return v
