"""Reference implementations that the tests compare the engine against.

These are the plain algorithms the package used before its
exponentiation engine and its rank-one conjugator recovery: matrix
square-and-multiply, right-to-left square-and-multiply on FqPoly
products and remainders, the gcd(f, x^(q^k) - x) irreducibility loop
with one pow_mod(q) per step, square-and-multiply over compose on
automorphisms (with the order-based inverse and the decryption built on
it), and conjugator recovery by solving the d^2-unknown linear system.
They call neither matrix.mat_pow nor FqPoly.pow_mod nor the Frobenius
matrix, and only the compose decrypt's final inversion calls
autos.recover_conjugator, so an agreement checks the engine against
independent code.  Two more are the FieldElement forms of code that now
runs on raw ints: the x^e loop of FqPoly.pow_mod, whose multiplications
are counted one by one, and the coefficient-by-coefficient hex format.
The field's own kernels have oracles too: the 4-bit windowed binary
multiply with its nibble reduction table, the multiplication and
inverse tables of a small field built from q^2 coefficient-tuple
products and an inverse search, and the odd-characteristic inverse with
its own long-division loop.  The eliminations that linalg.solve
replaced are here as well: Gauss-Jordan inversion, the lab's restriction
to an invariant subspace, and its polynomial expression through a
rescaled nullspace vector.  The v1 automorphism parse that sent every
image through Automorphism.__init__, one determinant per image, is the
oracle for the parse that factors first, and the monomial attack's
entry-by-entry reading of each image as 1 + lam*e_{a,b} is the oracle
for its reading of the rank-one factors.

The last group holds the FieldElement loops of the kernels that now run
on packed ints (Matrix.vals): mat_mul, det, the RowReducer with solve,
nullspace and mat_inv on top of it, Horner eval_matrix, and the
automorphism's from_conjugator, factor reading, conjugator recovery,
scaling, dot product and apply.  They take and return FieldElements and
count every product through FieldElement.__mul__, so a kernel must match
both their values and their cost_counter() deltas.
"""

import functools
import itertools

from morsl.autos import (
    Automorphism,
    InvalidAutomorphismError,
    conjugator_solution_space,
    generator_pairs,
)
from morsl.field import FieldElement, FieldSpec, _fp_mod, _fp_mul, _fp_trim, _gf2_mod, _zip_pad
from morsl.fqpoly import FqPoly
from morsl.matrix import Matrix, SingularMatrixError, identity, mat_inv, mat_mul, scalar_matrix
from morsl.words import decompose
from morsl.seclab import WrongAttackModelError


@functools.lru_cache(maxsize=None)
def _nibble_reduction_rows(gamma, mod):
    """Row k maps a nibble v to (v * x^(gamma + 4k)) mod f."""
    return tuple(
        tuple(_gf2_mod(v << (gamma + 4 * k), mod) for v in range(16))
        for k in range((gamma + 3) // 4)
    )


def mul_gf2_window(spec, a, b):
    """a * b in a binary field: 4-bit windowed carry-less product, then
    a nibble-at-a-time reduction of the part above x^gamma."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    t1 = b
    t2 = b << 1
    t3 = t2 ^ b
    table = (0, t1, t2, t3, t2 << 1, t2 << 1 ^ t1, t3 << 1, t3 << 1 ^ t1,
             t1 << 3, t1 << 3 ^ t1, t1 << 3 ^ t2, t1 << 3 ^ t3,
             t3 << 2, t3 << 2 ^ t1, t3 << 2 ^ t2, t3 << 2 ^ t3)
    acc = 0
    shift = a.bit_length()
    shift -= shift % 4
    while shift >= 0:
        acc = (acc << 4) ^ table[(a >> shift) & 0xF]
        shift -= 4
    gamma = spec.gamma
    lo = acc & ((1 << gamma) - 1)
    hi = acc >> gamma
    red = _nibble_reduction_rows(gamma, spec._mod_packed)
    k = 0
    while hi:
        lo ^= red[k][hi & 0xF]
        hi >>= 4
        k += 1
    return lo


def field_tables_by_products(spec):
    """(mul, inv) tables of a small extension field: every product by the
    coefficient-tuple multiply, every inverse by search."""
    q, p = spec.q, spec.p

    def pack(coeffs):
        v = 0
        for c in reversed(coeffs):
            v = v * p + c
        return v

    mul = tuple(
        tuple(
            pack(_fp_mod(_fp_mul(spec._coeffs(a), spec._coeffs(b), p), spec.modulus, p))
            for b in range(q)
        )
        for a in range(q)
    )
    inv = [0] * q
    for a in range(1, q):
        inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)
    return mul, tuple(inv)


def mat_pow_sqm(x, n):
    """x^n by square-and-multiply, d^3 multiplications per product."""
    if n < 0:
        return mat_pow_sqm(mat_inv(x), -n)
    result = identity(x.spec, x.d)
    base = x
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def pow_mod_sqm(base, n, modulus):
    """base^n mod modulus by right-to-left square-and-multiply."""
    result = FqPoly.one(base.spec)
    base = base % modulus
    while n:
        if n & 1:
            result = (result * base) % modulus
        n >>= 1
        if n:
            base = (base * base) % modulus
    return result


def pow_x_elementwise(e, f):
    """x^e mod a monic f of degree >= 2, e >= 1, by left-to-right
    square-and-shift on FieldElement coefficients: one multiplication
    per nonzero coefficient squared, one per nonzero f_i when a nonzero
    top coefficient is cleared."""
    spec, n = f.spec, f.degree()
    zero = spec.zero()

    def reduce(a):
        for top in range(len(a) - 1, n - 1, -1):
            c = a[top]
            if c:
                for i in range(n):
                    if f.coeffs[i]:
                        a[top - n + i] = a[top - n + i] - c * f.coeffs[i]
        return a[:n]

    acc = [zero, spec.one()] + [zero] * (n - 2)
    for bit in bin(e)[3:]:
        sq = [zero] * (2 * n - 1)
        for i, c in enumerate(acc):
            if c:
                sq[2 * i] = c * c
        acc = reduce(sq)
        if bit == "1":
            acc = reduce([zero, *acc])
    return FqPoly(spec, acc)


def to_hex_loop(a):
    """Coefficients, constant term first, in hex, ':'-joined."""
    return ":".join(format(c, "x") for c in a.coeffs)


def from_hex_loop(spec, s):
    """Inverse of to_hex_loop; raises ValueError on a malformed string."""
    coeffs = [int(part, 16) for part in s.split(":")]
    if len(coeffs) != spec.gamma:
        raise ValueError("wrong number of coefficients for this spec")
    if any(not 0 <= c < spec.p for c in coeffs):
        raise ValueError("coefficient out of range")
    return spec.from_coeffs(coeffs)


def is_irreducible_gcd(f):
    """gcd(f, x^(q^k) - x) = 1 for k = 1 .. deg f // 2."""
    n = f.degree()
    if n < 1:
        return False
    if n == 1:
        return True
    spec = f.spec
    f = f.monic()
    x = FqPoly.x(spec)
    h = x
    for _ in range(n // 2):
        h = pow_mod_sqm(h, spec.q, f)
        if not f.gcd(h - x).is_one():
            return False
    return True


def compose_power(phi, m):
    """phi^m by square-and-multiply over compose; m >= 0."""
    result = Automorphism.identity(phi.spec, phi.d)
    base = phi
    while m:
        if m & 1:
            result = result.compose(base)
        m >>= 1
        if m:
            base = base.compose(base)
    return result


def invert_via_order(phi, max_order=1 << 16):
    """phi^(t-1) where phi^t = 1, walking the cyclic group by compose."""
    ident = Automorphism.identity(phi.spec, phi.d)
    acc = phi
    t = 1
    while acc != ident:
        acc = acc.compose(phi)
        t += 1
        if t > max_order:
            raise InvalidAutomorphismError("order exceeds the search cap")
    return compose_power(phi, t - 1)


def decrypt_compose(sk, ct):
    """Power phi^r to m over compose, invert, apply to the payload."""
    return compose_power(ct.phi_r, sk.m).invert().apply(ct.payload)


def _satisfies_all(phi, b):
    d = phi.d
    for (i, j), n in phi.images.items():
        rhs = mat_mul(b, n)
        # (1 + e_{i,j}) B adds row j of B to row i
        for a in range(d):
            for c in range(d):
                lhs = b.rows[a][c]
                if a == i - 1:
                    lhs = lhs + b.rows[j - 1][c]
                if lhs != rhs.rows[a][c]:
                    return False
    return True


def automorphism_from_json_via_init(obj):
    """Every image parsed, then Automorphism.__init__: det for each SL check."""
    spec = FieldSpec.from_json(obj["spec"])
    images = {
        (int(item["i"]), int(item["j"])): Matrix.from_json(spec, item["matrix"])
        for item in obj["images"]
    }
    return Automorphism(spec, int(obj["d"]), images)


def read_transvection(img):
    """(a, b, lam) if img is exactly 1 + lam*e_{a,b}, else None."""
    spec, d = img.spec, img.d
    one = spec.one()
    found = None
    for a in range(d):
        for b in range(d):
            x = img.rows[a][b]
            if a == b:
                if x != one:
                    return None
            elif x:
                if found is not None:
                    return None
                found = (a + 1, b + 1, x)
    return found


def monomial_positions_by_entries(phi):
    """(positions, coefficients) of every image read entry by entry."""
    pos, coef = {}, {}
    for key, img in phi.images.items():
        t = read_transvection(img)
        if t is None:
            raise WrongAttackModelError("generator image is not a single transvection")
        pos[key] = t[:2]
        coef[key] = t[2]
    return pos, coef


def recover_conjugator_linalg(phi):
    """Nullspace of the d^2-unknown system, then a nonsingular point by
    scanning small basis combinations, then a check of every image."""
    spec = phi.spec
    basis = conjugator_solution_space(phi)
    if not basis:
        raise InvalidAutomorphismError("no conjugator: empty solution space")
    candidate = next((b for b in basis if b.is_gl()), None)
    if candidate is None and len(basis) > 1:
        scan_vals = [spec.from_val(v) for v in range(min(spec.q, 4))]
        for combo in itertools.product(scan_vals, repeat=len(basis)):
            if all(c.is_zero() for c in combo):
                continue
            acc = [[spec.zero()] * phi.d for _ in range(phi.d)]
            for c, mat in zip(combo, basis):
                if c:
                    acc = [[a + c * x for a, x in zip(r1, r2)] for r1, r2 in zip(acc, mat.rows)]
            point = Matrix(spec, acc)
            if point.is_gl():
                candidate = point
                break
    if candidate is None:
        raise InvalidAutomorphismError("no nonsingular solution")
    if not _satisfies_all(phi, candidate):
        raise InvalidAutomorphismError("presentation is not a conjugation")
    return candidate


def inv_fp_long_division(spec, a):
    """Inverse of a nonzero packed element of an odd-characteristic
    extension by the extended Euclidean algorithm, with each division
    step written out as its own long-division loop."""
    p = spec.p
    r0, r1 = spec.modulus, _fp_trim(spec._coeffs(a))
    s0, s1 = (), (1,)
    while r1:
        q_coeffs = [0] * (len(r0) - len(r1) + 1) if len(r0) >= len(r1) else []
        rem = list(r0)
        inv_lead = pow(r1[-1], p - 2, p)
        while len(rem) >= len(r1) and _fp_trim(tuple(rem)):
            rem_t = _fp_trim(tuple(rem))
            if len(rem_t) < len(r1):
                break
            rem = list(rem_t)
            f = rem[-1] * inv_lead % p
            shift = len(rem) - len(r1)
            q_coeffs[shift] = f
            for i, ci in enumerate(r1):
                rem[shift + i] = (rem[shift + i] - f * ci) % p
            rem.pop()
        qq = _fp_trim(tuple(q_coeffs))
        r0, r1 = r1, _fp_trim(tuple(rem))
        new_s = tuple((a0 - b0) % p for a0, b0 in _zip_pad(s0, _fp_mul(qq, s1, p)))
        s0, s1 = s1, _fp_trim(new_s)
    c_inv = pow(r0[0], p - 2, p)
    res = _fp_mod(tuple(c * c_inv % p for c in s0), spec.modulus, p)
    v = 0
    for c in reversed(res):
        v = v * p + c
    return v


def mat_inv_gauss_jordan(x):
    """x^(-1) by Gauss-Jordan on [x | 1], every entry of a pivot row
    scaled and every entry of an eliminated row updated."""
    spec, d = x.spec, x.d
    m = [list(r) for r in x.rows]
    aug = [list(r) for r in identity(spec, d).rows]
    for c in range(d):
        pivot_row = next((r for r in range(c, d) if m[r][c]), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        m[c], m[pivot_row] = m[pivot_row], m[c]
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        pinv = m[c][c].inv()
        m[c] = [v * pinv for v in m[c]]
        aug[c] = [v * pinv for v in aug[c]]
        for r in range(d):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return Matrix(spec, aug)


def restrict_to_subspace_gauss(a, basis):
    """Action of a on span(basis) in basis coordinates: the images a*w,
    then a column-by-column Gauss-Jordan solve of [basis | images] that
    never checks the image columns for consistency."""
    spec, n, k = a.spec, a.d, len(basis)
    zero = spec.zero()
    cols = []
    for w in basis:
        img = []
        for r in range(n):
            acc = zero
            for c in range(n):
                if a.rows[r][c] and w[c]:
                    acc = acc + a.rows[r][c] * w[c]
            img.append(acc)
        cols.append(img)
    rows = [[basis[j][r] for j in range(k)] + [col[r] for col in cols] for r in range(n)]
    rank = 0
    for col in range(k):
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            raise ValueError("basis vectors are dependent")
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pinv = rows[rank][col].inv()
        rows[rank] = [v * pinv for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return Matrix(spec, [rows[r][k:] for r in range(k)])


def express_as_polynomial_nullspace(base, target, deg):
    """Coefficients c with target = sum c_t base^t, t < deg: a nullspace
    vector of [powers | -target] with a nonzero last entry, rescaled."""
    spec, n = base.spec, base.d
    powers = [identity(spec, n)]
    for _ in range(deg - 1):
        powers.append(mat_mul(powers[-1], base))
    reducer = RowReducerElementwise(spec, deg + 1)
    for r in range(n):
        for c in range(n):
            row = [powers[t].rows[r][c] for t in range(deg)]
            row.append(-target.rows[r][c])
            reducer.add_row(row)
    for vec in reducer.nullspace_basis():
        if vec[deg]:
            scale = vec[deg].inv()
            return FqPoly(spec, [v * scale for v in vec[:deg]])
    raise ValueError("target is not a polynomial in the base matrix")


# ---------------------------------------------------------------------------
# FieldElement loops of the packed-int kernels
# ---------------------------------------------------------------------------


def mat_mul_elementwise(x, y):
    """Schoolbook product, d^3 multiplications."""
    d = x.d
    xr, yr = x.rows, y.rows
    out = []
    for i in range(d):
        xi = xr[i]
        row = []
        for j in range(d):
            acc = xi[0] * yr[0][j]
            for k in range(1, d):
                acc = acc + xi[k] * yr[k][j]
            row.append(acc)
        out.append(row)
    return Matrix(x.spec, out)


def det_elementwise(x):
    """Forward elimination; the product of the pivots."""
    spec, d = x.spec, x.d
    m = [list(r) for r in x.rows]
    sign_flip = False
    result = spec.one()
    for c in range(d):
        pivot_row = None
        for r in range(c, d):
            if m[r][c]:
                pivot_row = r
                break
        if pivot_row is None:
            return spec.zero()
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign_flip = not sign_flip
        pivot = m[c][c]
        result = result * pivot
        if c == d - 1:
            break
        pinv = pivot.inv()
        for r in range(c + 1, d):
            if m[r][c]:
                f = m[r][c] * pinv
                m[r][c] = spec.zero()
                for k in range(c + 1, d):
                    m[r][k] = m[r][k] - f * m[c][k]
    if sign_flip:
        result = -result
    return result


class RowReducerElementwise:
    """Incremental reduced row-echelon form over FieldElement rows."""

    def __init__(self, spec, ncols):
        self.spec = spec
        self.ncols = ncols
        self.pivot_rows = {}

    @property
    def rank(self):
        return len(self.pivot_rows)

    def add_row(self, row):
        row = list(row)
        for col in sorted(self.pivot_rows):
            if row[col]:
                f = row[col]
                prow = self.pivot_rows[col]
                for k in range(col, self.ncols):
                    if prow[k]:
                        row[k] = row[k] - f * prow[k]
        lead = None
        for k, v in enumerate(row):
            if v:
                lead = k
                break
        if lead is None:
            return False
        linv = row[lead].inv()
        row = [v * linv if v else v for v in row]
        for col, prow in self.pivot_rows.items():
            if prow[lead]:
                f = prow[lead]
                for k in range(lead, self.ncols):
                    if row[k]:
                        prow[k] = prow[k] - f * row[k]
        self.pivot_rows[lead] = row
        return True

    def nullspace_basis(self):
        zero, one = self.spec.zero(), self.spec.one()
        pivots = set(self.pivot_rows)
        basis = []
        for f in (c for c in range(self.ncols) if c not in pivots):
            vec = [zero] * self.ncols
            vec[f] = one
            for col, prow in self.pivot_rows.items():
                if prow[f]:
                    vec[col] = -prow[f]
            basis.append(tuple(vec))
        return basis


def nullspace_elementwise(spec, rows, ncols):
    red = RowReducerElementwise(spec, ncols)
    for row in rows:
        red.add_row(row)
    return red.nullspace_basis()


def solve_elementwise(spec, lhs, rhs):
    k = len(lhs[0])
    red = RowReducerElementwise(spec, k + len(rhs[0]))
    for a, b in zip(lhs, rhs):
        red.add_row([*a, *b])
    if sorted(red.pivot_rows) != list(range(k)):
        return None
    return [tuple(red.pivot_rows[c][k:]) for c in range(k)]


def mat_inv_elementwise(x):
    inv = solve_elementwise(x.spec, x.rows, identity(x.spec, x.d).rows)
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return Matrix(x.spec, inv)


def eval_matrix_elementwise(f, m):
    """Horner evaluation from c_n*M + c_(n-1)*1."""
    spec, d = m.spec, m.d
    cs = f.coeffs
    if len(cs) < 2:
        return scalar_matrix(spec, d, cs[0] if cs else spec.zero())

    def add_scalar(rows, c):
        return Matrix(
            spec, [[v + c if a == b else v for b, v in enumerate(r)] for a, r in enumerate(rows)]
        )

    acc = add_scalar([[cs[-1] * v for v in row] for row in m.rows], cs[-2])
    for c in reversed(cs[:-2]):
        acc = add_scalar(mat_mul_elementwise(acc, m).rows, c)
    return acc


def scaled_elementwise(s, vec):
    return tuple(s * x if x else x for x in vec)


def dot_elementwise(row, col, zero):
    acc = zero
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc


def from_conjugator_elementwise(a):
    """(images, factors) of conjugation by a, FieldElement factors."""
    spec, d = a.spec, a.d
    ainv = mat_inv_elementwise(a)
    one, zero = spec.one(), spec.zero()
    images, rank1 = {}, {}
    for i, j in generator_pairs(d):
        col = [ainv.rows[r][i - 1] for r in range(d)]
        row = a.rows[j - 1]
        rows = [[cr * x for x in row] if cr else [zero] * d for cr in col]
        k = next(k for k, cr in enumerate(col) if cr)
        rank1[(i, j)] = (scaled_elementwise(col[k].inv(), col), tuple(rows[k]))
        for r in range(d):
            rows[r][r] = rows[r][r] + one
        images[(i, j)] = Matrix(spec, rows)
    return images, rank1


def factor_rank1_elementwise(spec, d, img):
    """(u, v) with img - 1 = u v^T and u's first nonzero entry 1, or None."""
    one, zero = spec.one(), spec.zero()
    rows = []
    for a in range(d):
        row = list(img.rows[a])
        row[a] = row[a] - one
        rows.append(row)
    pivot = None
    for a in range(d):
        for b in range(d):
            if rows[a][b]:
                pivot = (a, b)
                break
        if pivot:
            break
    if pivot is None:
        return None
    pa, pb = pivot
    v = tuple(rows[pa])
    pinv = v[pb].inv()
    u = tuple(rows[a][pb] * pinv for a in range(d))
    for a in range(d):
        ua = u[a]
        for b in range(d):
            expect = ua * v[b] if (ua and v[b]) else zero
            if rows[a][b] != expect:
                return None
    return (u, v)


def factors_as_elements(phi):
    """phi's stored factors with FieldElement entries."""
    spec = phi.spec
    return {
        key: tuple(tuple(FieldElement(spec, x) for x in w) for w in uv)
        for key, uv in phi._rank1.items()
    }


def conjugator_from_rank1_elementwise(phi):
    """B read off the rank-one factors, then every image checked."""
    spec, d = phi.spec, phi.d
    zero = spec.zero()
    fac = factors_as_elements(phi)
    rows = [fac[(2, 1)][1]] + [fac[(1, j)][1] for j in range(2, d + 1)]
    scales = [spec.one()] + [dot_elementwise(fac[(1, j)][0], rows[0], zero) for j in range(2, d + 1)]
    last = next(x for x in reversed(rows[-1]) if x)
    if not all(scales):
        raise InvalidAutomorphismError("no nonsingular solution")
    lam = (scales[-1] * last).inv()
    b = Matrix(spec, [scaled_elementwise(lam * s, row) for s, row in zip(scales, rows)])
    try:
        cols = list(zip(*mat_inv_elementwise(b).rows))
    except SingularMatrixError:
        raise InvalidAutomorphismError("no nonsingular solution") from None
    for (i, j), (u, v) in fac.items():
        c = cols[i - 1]
        k = next(k for k, x in enumerate(u) if x)
        if v != scaled_elementwise(c[k], b.rows[j - 1]) or c != scaled_elementwise(c[k], u):
            raise InvalidAutomorphismError("presentation is not a conjugation")
    return b


def apply_elementwise(phi, x):
    """Image of x: one rank-one update per letter of its decomposition."""
    spec, d = phi.spec, phi.d
    fac = factors_as_elements(phi)
    one, zero = spec.one(), spec.zero()
    grid = [[one if a == b else zero for b in range(d)] for a in range(d)]
    for i, j, lam in decompose(x).letters:
        u, v = fac[(i, j)]
        for a in range(d):
            row = grid[a]
            acc = zero
            for k in range(d):
                rk = row[k]
                if rk and u[k]:
                    acc = acc + rk * u[k]
            if acc:
                w = lam * acc
                for b in range(d):
                    if v[b]:
                        row[b] = row[b] + w * v[b]
    return Matrix(spec, grid)
