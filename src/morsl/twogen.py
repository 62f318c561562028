"""Two-generator machinery for SL(d,p), d >= 5, p prime.

The pair C = 1 + e_{d-1,2} + e_{d,1} and
D = (-1)^d (e_{1,2} - e_{2,3} + sum_{i>=3} e_{i,i+1}) generates SL(d,p),
with the index convention e_{i,j} = e_{d+i,j} = e_{i,d+j} (indices wrap
modulo d into [1, d]).  The generation proof is constructive and this
module implements it as a rewriting procedure: every elementary
transvection 1 + lam*e_{i,j} is produced as a word over C, D and their
inverses.

Key algebra (all verified by the test suite):
  * conjugating a matrix unit by D shifts both indices by one and flips
    the sign each time an index passes position 2, because D is the
    cycle matrix with a -1 in row 2 (up to the global (-1)^d scalar,
    which conjugation cancels);
  * the commutator C (D^-1 C D) C^-1 (D^-1 C^-1 D) equals 1 + e_{d,2};
  * with C_k = D^-k C D^k, the product
    (1 + e_{d,k}) C_k (1 - e_{d,k}) C_k^-1 is a single bottom-row
    transvection 1 -/+ e_{d,k+1} for k <= d-3 (sign - at k = 2, + after,
    by the crossing rule above), which walks the bottom row out to
    column d-2.  At k = d-2 the product degenerates (C_{d-2} has a
    column-d component that no longer commutes past e_{d,k}), so the
    last two difference classes are reached by commutators instead:
    1 + e_{d,1} = [1 + e_{d,3}, 1 + e_{3,1}] and
    1 + e_{d,d-1} = [1 + e_{d,d-2}, 1 + e_{d-2,d-1}], with the inner
    entries transported from the bottom row by D-conjugation.
Repeating a word lam times scales the coefficient to lam.

The closed forms of C_1, C_k and C_k^-1 come from one builder: C_1 is
C_k at k = 1, and C_k = 1 + N with N^2 = 0, so C_k^-1 = 1 - N.
D^k has one builder too, d_power_closed: CDWord.evaluate applies each
C-run as two column updates and each D-run as the signed column
permutation d_power_closed gives, and since D^(2d) = 1 a run of any
length costs one permutation.

No attempt is made at short words: the word problem in these generators
has no known efficient algorithm, so correctness is the only goal.
"""

from __future__ import annotations

from functools import lru_cache

from .field import FieldSpec
from .matrix import Matrix, identity, sl_order

__all__ = [
    "CDWord",
    "UnsupportedParametersError",
    "albert_thompson_generators",
    "rewrite_transvection_in_cd",
    "c1_closed",
    "ck_closed",
    "ck_inv_closed",
    "d_power_closed",
]


class UnsupportedParametersError(ValueError):
    """The two-generator pair needs d >= 5 over a prime field."""


def _check_params(spec: FieldSpec, d: int) -> None:
    if d < 5:
        raise UnsupportedParametersError("two-generator pair requires d >= 5")
    if spec.gamma != 1:
        raise UnsupportedParametersError("two-generator pair requires a prime field")


def _wrap(d: int, x: int) -> int:
    return (x - 1) % d + 1


def albert_thompson_generators(spec: FieldSpec, d: int) -> tuple[Matrix, Matrix]:
    """The matrices C and D, exactly as defined, with wrapped indices."""
    _check_params(spec, d)
    one = spec.one()
    c = identity(spec, d)
    c = _add_unit(c, d - 1, 2, one)
    c = _add_unit(c, d, 1, one)
    scal = -one if d % 2 else one
    rows = [[spec.zero()] * d for _ in range(d)]
    rows[0][_wrap(d, 2) - 1] = scal
    rows[1][_wrap(d, 3) - 1] = -scal
    for i in range(3, d + 1):
        rows[i - 1][_wrap(d, i + 1) - 1] = scal
    return c, Matrix(spec, rows)


def _add_unit(m: Matrix, i: int, j: int, lam) -> Matrix:
    d = m.d
    i, j = _wrap(d, i), _wrap(d, j)
    vals = [list(r) for r in m.vals]
    vals[i - 1][j - 1] = m.spec._add_raw(vals[i - 1][j - 1], lam.val)
    return Matrix._from_vals(m.spec, tuple(map(tuple, vals)))


# -- printed closed forms (wrapped indices throughout) -----------------------


def _shift_sign(d: int, row: int, col: int, steps: int) -> int:
    """Sign picked up conjugating e_{row,col} by D^steps (index shift +steps).

    Each single conjugation moves (a, b) to (a+1, b+1) and flips the sign
    once per index currently sitting at position 2.
    """
    sign = 1
    a, b = row, col
    for _ in range(steps):
        if _wrap(d, a) == 2:
            sign = -sign
        if _wrap(d, b) == 2:
            sign = -sign
        a += 1
        b += 1
    return sign


def d_power_closed(spec: FieldSpec, d: int, k: int) -> Matrix:
    """D^k as a signed cycle matrix, any k.

    D is a signed d-cycle, so D^d = +/-1 and D^(2d) = 1: k is taken mod
    2d first, which also makes a negative k a positive one.  Entry
    (i, i+k) carries (-1)^{dk} times a sign that flips once per crossing
    of position 2.  (The flat sign pattern sometimes quoted for this
    power holds only at |k| <= 2; crossings accumulate after that.)
    """
    _check_params(spec, d)
    k %= 2 * d
    if k == 0:
        return identity(spec, d)
    one = spec.one()
    neg = (d * k) % 2 == 1
    rows = [[spec.zero()] * d for _ in range(d)]
    for i in range(1, d + 1):
        sign = 1
        for l in range(k):
            if _wrap(d, i + l) == 2:
                sign = -sign
        rows[i - 1][_wrap(d, i + k) - 1] = one if (sign == 1) != neg else -one
    return Matrix(spec, rows)


def c1_closed(spec: FieldSpec, d: int) -> Matrix:
    """D^-1 C D = 1 - e_{d,3} + e_{1,2}, the k = 1 case of ck_closed."""
    return ck_closed(spec, d, 1)


def ck_closed(spec: FieldSpec, d: int, k: int) -> Matrix:
    """C_k = D^-k C D^k = 1 +/- e_{k-1,k+2} +/- e_{k,k+1}, k >= 1.

    The component signs follow the position-2 crossing rule; at k = 2
    both are -1, which is the only k where the flat-sign version is
    exact.
    """
    return _ck_closed(spec, d, k, 1)


def ck_inv_closed(spec: FieldSpec, d: int, k: int) -> Matrix:
    """C_k^-1: same two components as C_k with negated coefficients."""
    return _ck_closed(spec, d, k, -1)


def _ck_closed(spec: FieldSpec, d: int, k: int, sign: int) -> Matrix:
    """1 + sign * N for C_k = 1 + N: N^2 = 0, so sign -1 gives C_k^-1."""
    _check_params(spec, d)
    if k < 1:
        raise ValueError("k must be positive")
    m = identity(spec, d)
    for row, col in ((d - 1, 2), (d, 1)):
        m = _add_unit(m, row + k, col + k, spec.scalar(sign * _shift_sign(d, row, col, k)))
    return m


# ---------------------------------------------------------------------------
# words over {C, C^-1, D, D^-1}
# ---------------------------------------------------------------------------


class CDWord:
    """Run-length word over the alphabet {C, C^-1, D, D^-1}."""

    __slots__ = ("spec", "d", "letters")

    def __init__(self, spec: FieldSpec, d: int, letters=()):
        _check_params(spec, d)
        cap = sl_order(d, spec.p)
        cleaned = []
        for sym, e in letters:
            if sym not in ("C", "D"):
                raise ValueError(f"unknown symbol {sym!r}")
            e = int(e)
            if e == 0:
                continue
            if abs(e) > cap:
                raise ValueError("exponent run exceeds the group order cap")
            if cleaned and cleaned[-1][0] == sym:
                merged = cleaned[-1][1] + e
                cleaned.pop()
                if merged:
                    if abs(merged) > cap:
                        raise ValueError("exponent run exceeds the group order cap")
                    cleaned.append((sym, merged))
            else:
                cleaned.append((sym, e))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "letters", tuple(cleaned))

    def __setattr__(self, *args):
        raise AttributeError("CDWord is immutable")

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, CDWord):
            return NotImplemented
        return (self.spec, self.d, self.letters) == (other.spec, other.d, other.letters)

    def __repr__(self):
        body = " ".join(f"{s}^{e}" if e != 1 else s for s, e in self.letters)
        return f"CDWord({body})"

    def inverse(self) -> "CDWord":
        return CDWord(self.spec, self.d, _inv_letters(self.letters))

    def evaluate(self) -> Matrix:
        """Multiply out the word; C-runs are two column updates, and a
        D-run D^e is the signed column permutation of d_power_closed(e),
        built once per distinct e in the word, so evaluation needs few
        multiplications and a run of any length one permutation."""
        spec, d = self.spec, self.d
        one, zero = spec.one(), spec.zero()
        grid = [[one if a == b else zero for b in range(d)] for a in range(d)]
        # e -> (source column, negate) for each column of grid * D^e
        perms = {}
        for sym, e in self.letters:
            if sym == "C":
                k = spec.scalar(e)
                if not k:
                    continue
                # right-multiply by C^e = 1 + k e_{d-1,2} + k e_{d,1}
                for a in range(d):
                    v = grid[a][d - 2]
                    if v:
                        grid[a][1] = grid[a][1] + k * v
                    v = grid[a][d - 1]
                    if v:
                        grid[a][0] = grid[a][0] + k * v
            else:
                perm = perms.get(e)
                if perm is None:
                    cols = zip(*d_power_closed(spec, d, e).vals)
                    perm = perms[e] = [
                        next((c, v != one.val) for c, v in enumerate(col) if v) for col in cols
                    ]
                grid = [[-row[c] if neg else row[c] for c, neg in perm] for row in grid]
        return Matrix(spec, grid)


# ---------------------------------------------------------------------------
# constructive rewriting
# ---------------------------------------------------------------------------


def _inv_letters(word):
    return tuple((s, -e) for s, e in reversed(word))


def _transported(d: int, word: tuple, m: int, s: int) -> tuple:
    """Letters for 1 + e_{d+s,m+s} from letters `word` for 1 + e_{d,m}.

    Conjugation by D^s shifts both indices by s and picks up the sign of
    their crossings of position 2; a minus sign inverts the word.
    """
    if _shift_sign(d, d, m, s) != 1:
        word = _inv_letters(word)
    return ((("D", -s),) + word + (("D", s),)) if s else word


@lru_cache(maxsize=None)
def _bottom_row_letters(d: int) -> tuple[tuple, ...]:
    """Letter tuples w[k] with evaluate(w[k]) = 1 + e_{d,k}, k = 1..d-1.

    Index 0 of the result is k = 1.  The step identity walks columns
    2..d-2; the remaining difference classes (columns 1 and d-1) come
    from commutators with entries transported off the bottom row, since
    D-conjugation preserves the difference j - i mod d.
    """
    w: dict[int, tuple] = {}

    def commutator(wa, wb):
        return wa + wb + _inv_letters(wa) + _inv_letters(wb)

    # commutator identity: C C_1 C^-1 C_1^-1 = 1 + e_{d,2}
    c1 = (("D", -1), ("C", 1), ("D", 1))
    c1_inv = (("D", -1), ("C", -1), ("D", 1))
    w[2] = (("C", 1),) + c1 + (("C", -1),) + c1_inv
    for k in range(2, d - 2):
        ck = (("D", -k), ("C", 1), ("D", k))
        ck_inv = (("D", -k), ("C", -1), ("D", k))
        step = w[k] + ck + _inv_letters(w[k]) + ck_inv
        # the step yields 1 - e_{d,k+1} at k = 2 and 1 + e_{d,k+1} after
        w[k + 1] = _inv_letters(step) if k == 2 else step
    w31 = _transported(d, w[d - 2], d - 2, 3)  # 1 + e_{3,1}
    w[1] = commutator(w[3], w31)  # 1 + e_{d,1}
    w_sub = _transported(d, w[1], 1, d - 2)  # 1 + e_{d-2,d-1}
    w[d - 1] = commutator(w[d - 2], w_sub)  # 1 + e_{d,d-1}
    return tuple(w[k] for k in range(1, d))


def rewrite_transvection_in_cd(spec: FieldSpec, d: int, i: int, j: int, lam) -> CDWord:
    """A word over {C, C^-1, D, D^-1} evaluating to 1 + lam*e_{i,j}."""
    _check_params(spec, d)
    if i == j or not (1 <= i <= d and 1 <= j <= d):
        raise ValueError("need 1 <= i, j <= d with i != j")
    if lam.spec != spec:
        raise ValueError("coefficient from the wrong field")
    if lam.is_zero():
        raise ValueError("coefficient must be nonzero")
    # conjugation by D^s moves (d, m) to (d+s, m+s); pick s, m hitting (i, j)
    s = i % d
    m = _wrap(d, j - s)
    unit = _transported(d, _bottom_row_letters(d)[m - 1], m, s)
    # repeating the unit word scales the coefficient: (1 + e)^c = 1 + c*e
    return CDWord(spec, d, unit * lam.val)
