"""Reference implementations that the tests compare the engine against.

These are the plain algorithms the package used before its
exponentiation engine and its rank-one conjugator recovery: matrix
square-and-multiply, right-to-left square-and-multiply on FqPoly
products and remainders, the gcd(f, x^(q^k) - x) irreducibility loop
with one pow_mod(q) per step, the characteristic polynomial by cofactor
expansion of det(x*1 - M), square-and-multiply over compose on
automorphisms (with the order-based inverse and the decryption built on
it), and conjugator recovery by solving the d^2-unknown linear system.
They call neither matrix.mat_pow nor FqPoly.pow_mod nor the Frobenius
matrix, and only the compose decrypt's final inversion calls
autos.recover_conjugator, so an agreement checks the engine against
independent code.  Two more are the FieldElement forms of code that now
runs on raw ints: the x^e loop of FqPoly.pow_mod through the squaring
rows, whose multiplications are counted one by one, the
coefficient-by-coefficient hex format, and the reversed bit string that
formatted a binary element before its byte table.
The field's own kernels have oracles too: the 4-bit windowed binary
multiply with its nibble reduction table, the multiplication and
inverse tables of a small field built from q^2 coefficient-tuple
products and an inverse search, the odd-characteristic inverse with
its own long-division loop, and the FieldElement square-and-multiply
loop of FieldElement.__pow__.  The coefficient-tuple arithmetic over
GF(p) that these use (_fp_trim, _fp_mul, _fp_divmod, _fp_mod and
_zip_pad) is the one field.py ran on odd-characteristic extensions
before they multiplied and inverted through fqpoly's kernels over GF(p).  The eliminations that linalg.solve
replaced are here as well: Gauss-Jordan inversion, the lab's restriction
to an invariant subspace, and its polynomial expression through a
rescaled nullspace vector.  The v1 automorphism parse that sent every
image through Automorphism.__init__, one determinant per image, is the
oracle for the parse that factors first, and the same route from the
transvections 1 + e_{i,j} is the oracle for Automorphism.identity,
which is conjugation by the identity matrix.  The monomial attack's
entry-by-entry reading of each image as 1 + lam*e_{a,b} is the oracle
for its reading of the rank-one factors.  Ben-Or's test on GF(p)
coefficient tuples that field.py ran on odd-characteristic moduli is the
oracle for the fqpoly test that replaced it, and random_sl's second
determinant and FieldElement rescaling are the oracle for the draw that
reuses its determinant.

The last group holds the FieldElement loops of the kernels that now run
on packed ints (Matrix.vals): mat_mul, det, the RowReducer with solve,
nullspace and mat_inv on top of it, Horner eval_matrix, the
automorphism's from_conjugator, factor reading, conjugator recovery,
scaling, dot product and apply, and at the end of the file
decompose_elementwise (words.decompose, NotInSLError included) and
char_poly_elementwise (the Hessenberg reduction with its recurrence in
FqPoly arithmetic, on PolyElementwise).  They take and return
FieldElements and count every product through FieldElement.__mul__, so a
kernel must match both their values and their cost_counter() deltas.
element_rows gives them the entries of a Matrix as FieldElement rows.
mat_pow_plan is no algorithm but mat_pow's documented choice of route,
for the tests that check which route ran and what it counted.

PolyElementwise, at the very end, is FqPoly as it was on FieldElement
coefficients: +, -, *, scale, divmod, monic, gcd, the coefficient loop of
pow_mod (squaring through the modulus's squaring rows in
characteristic 2, squaring and monic reduction otherwise), derivative
and evaluation, with the Frobenius map, squarefree part, distinct- and
equal-degree factorization, irreducible_factors, is_irreducible and
mod_inverse on top of it.  packed() turns its results back into FqPoly for comparison.
"""

import contextlib
import functools
import itertools
import random

from morsl.autos import (
    Automorphism,
    InvalidAutomorphismError,
    conjugator_solution_space,
    generator_pairs,
)
from morsl.field import FieldElement, FieldSpec, _gf2_mod, _uncounted
from morsl import fqpoly
from morsl.fqpoly import FqPoly
from morsl.matrix import (
    Matrix,
    SingularMatrixError,
    det,
    identity,
    mat_inv,
    mat_mul,
    random_gl,
    scalar_matrix,
    transvection,
)
from morsl.seclab import WrongAttackModelError
from morsl.words import NotInSLError, TransvectionWord


# ---------------------------------------------------------------------------
# polynomials over GF(p), coefficient tuples, constant term first
# ---------------------------------------------------------------------------


def _fp_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _fp_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(tuple(out))


def _fp_divmod(
    a: tuple[int, ...], m: tuple[int, ...], p: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(quotient, remainder) of a by m over GF(p), both trimmed."""
    a = list(a)
    dm = len(m) - 1
    quo = [0] * max(len(a) - dm, 0)
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        quo[shift] = f
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - f * mi) % p
        a.pop()
    return _fp_trim(tuple(quo)), _fp_trim(tuple(a))


def _fp_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    return _fp_divmod(a, m, p)[1]


def _zip_pad(a: tuple[int, ...], b: tuple[int, ...]):
    n = max(len(a), len(b))
    return zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b)))


def element_rows(m):
    """The entries of m as lists of FieldElements, for the loops below."""
    return [[FieldElement(m.spec, v) for v in r] for r in m.vals]


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


def mat_pow_plan(spec, d, n, unit):
    """The route matrix.KeyField's docstring gives for x^n, n >= 0, at a
    d x d x over spec that its KeyField knows, after the power, to be a
    unit of a field GF(q^d) (`unit`), or mat_pow's route when it does not:
    (k, s, route) with x^n = det(x)^k x^s, k = 0 unless the power splits
    at the norm N = (q^d - 1)/(q - 1), and route "identity", "scalar"
    (s = 0 after a split), "cayley-hamilton" or "square-and-multiply" for
    x^s.  A unit's exponent is first reduced mod q^d - 1.  A split is
    priced as Cayley-Hamilton at max(s, 1), det^k and d for the scaling,
    and taken only below both routes' prices at n."""
    bound = spec.q**d - 1
    if unit and n >= bound:
        n %= bound
    if not n:
        return 0, 0, "identity"
    cayley_hamilton = fqpoly.cayley_hamilton_cost(d, n, spec.p)
    square_and_multiply = d**3 * (n.bit_length() + n.bit_count() - 2)
    norm = bound // (spec.q - 1)
    if unit and n >= norm:
        k, s = divmod(n, norm)
        split = fqpoly.cayley_hamilton_cost(d, max(s, 1), spec.p)
        split += k.bit_length() + k.bit_count() - 2 + d
        if split < min(cayley_hamilton, square_and_multiply):
            return k, s, "cayley-hamilton" if s else "scalar"
    if cayley_hamilton < square_and_multiply:
        return 0, n, "cayley-hamilton"
    return 0, n, "square-and-multiply"


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


def squaring_rows_elementwise(fc, n):
    """The squaring rows x^(2i) mod a monic f of degree n,
    ceil(n/2) <= i < n, its coefficients fc as FieldElements: x^(n-1)
    times x again and again, a nonzero top coefficient c cleared by
    subtracting c f_i for every nonzero f_i below the top."""
    spec = fc[-1].spec
    v, rows = [spec.zero()] * (n - 1) + [spec.one()], []
    for k in range(n, 2 * n - 1):
        c, v = v[-1], [spec.zero(), *v[:-1]]
        if c:
            for i in range(n):
                if fc[i]:
                    v[i] = v[i] - c * fc[i]
        if k % 2 == 0:
            rows.append(v)
    return rows


def square_by_rows_elementwise(a, rows, n, spec):
    """a^2 mod a monic f of degree n over a binary field, for a reduced a,
    through f's squaring rows: a_i^2 lands in x^(2i) below x^n, and from
    i = ceil(n/2) up a_i^2 times row x^(2i) mod f is added."""
    out = [spec.zero()] * n
    for i, c in enumerate(a):
        if c:
            c2 = c * c
            if 2 * i < n:
                out[2 * i] = out[2 * i] + c2
            else:
                for j, r in enumerate(rows[i - (n + 1) // 2]):
                    if r:
                        out[j] = out[j] + c2 * r
    return out


def pow_x_elementwise(e, f, rows_built=False):
    """x^e mod a monic f of degree >= 2 over a binary field, e >= 1, by
    left-to-right square-and-shift on FieldElement coefficients, squaring
    through f's squaring rows (square_by_rows_elementwise): one
    multiplication per nonzero coefficient squared, one per nonzero row
    entry a nonzero a_i^2 multiplies, and one per nonzero f_i when a
    nonzero top coefficient is cleared, in the rows' build as in a shift.
    The rows are built before the first squaring; rows_built leaves that
    build uncounted, as for an f that keeps the rows it built before."""
    spec, n = f.spec, f.degree()
    zero = spec.zero()
    fc = [FieldElement(spec, c) for c in f.coeffs]

    def reduce(a):
        for top in range(len(a) - 1, n - 1, -1):
            c = a[top]
            if c:
                for i in range(n):
                    if fc[i]:
                        a[top - n + i] = a[top - n + i] - c * fc[i]
        return a[:n]

    acc = [zero, spec.one()] + [zero] * (n - 2)
    bits = bin(e)[3:]
    if bits:
        if rows_built:
            with _uncounted():
                rows = squaring_rows_elementwise(fc, n)
        else:
            rows = squaring_rows_elementwise(fc, n)
    for bit in bits:
        acc = square_by_rows_elementwise(acc, rows, n, spec)
        if bit == "1":
            acc = reduce([zero, *acc])
    return FqPoly(spec, [c.val for c in acc])


def pow_x_base_q_elementwise(e, f, rows_built=False, xq_built=False, frobenius_built=False,
                             table_digits=0):
    """x^e mod a monic f of degree n >= 2 over GF(2^gamma), e >= q, by
    Straus's walk over e's base-q digits on FieldElement coefficients,
    with pow_x_elementwise's loops: its squaring through f's squaring rows
    and its multiply by x, which here builds the rows x^j T mod f of each
    table entry T's multiplication matrix.  x^q is pow_x_elementwise(q,
    f), each further conjugate x^(q^i) the sum of the previous one's
    coefficients times the Frobenius rows x^(jq) mod f, and each other
    entry T_S the row T_(S - {i}) times the matrix of x^(q^i), i = max S,
    every product of the n^2 counted, zeros included, as is every product
    of the walk by an entry.  What f keeps is left uncounted: its squaring
    rows (rows_built), x^q (xq_built), its Frobenius rows
    (frobenius_built), and the table entries of the first table_digits
    digits."""
    spec, n, q = f.spec, f.degree(), f.spec.q
    zero, one = spec.zero(), spec.one()
    fc = [FieldElement(spec, c) for c in f.coeffs]
    digits = []
    while e:
        e, r = divmod(e, q)
        digits.append(r)
    k = len(digits)

    def kept(flag):
        return _uncounted() if flag else contextlib.nullcontext()

    def reduce(a):
        for top in range(len(a) - 1, n - 1, -1):
            c = a[top]
            if c:
                for i in range(n):
                    if fc[i]:
                        a[top - n + i] = a[top - n + i] - c * fc[i]
        return a[:n]

    def padded(poly_coeffs):
        return [*poly_coeffs, *[zero] * (n - len(poly_coeffs))]

    def times(row, matrix):
        return [sum((a * m[j] for a, m in zip(row, matrix)), zero) for j in range(n)]

    with kept(rows_built):
        rows = squaring_rows_elementwise(fc, n)
    with kept(xq_built or table_digits >= 2):
        xq = padded([FieldElement(spec, c) for c in pow_x_elementwise(q, f, rows_built=True).coeffs])
    conjugates = [padded([zero, one]), xq]
    if k > 2:
        with kept(frobenius_built or table_digits >= k):
            frob = [padded([one]), xq]
            while len(frob) < n:
                frob.append(reduce(list((PolyElementwise(spec, frob[-1]) * PolyElementwise(spec, xq)).coeffs)))
                frob[-1] = padded(frob[-1])
    for i in range(2, k):
        with kept(i < table_digits):
            out = [zero] * n
            for h, row in zip(conjugates[-1], frob):
                if h:
                    for j, r in enumerate(row):
                        if r:
                            out[j] = out[j] + h * r
            conjugates.append(out)
    entries, matrices = [None], [None]
    for s in range(1, 1 << k):
        with kept(s < 1 << table_digits):
            i = s.bit_length() - 1
            t = conjugates[i] if s == 1 << i else times(entries[s ^ 1 << i], matrices[1 << i])
            matrix = [t]
            while len(matrix) < n:
                matrix.append(reduce([zero, *matrix[-1]]))
        entries.append(t)
        matrices.append(matrix)
    top = max(digits).bit_length()
    columns = [sum((dg >> j & 1) << i for i, dg in enumerate(digits)) for j in range(top - 1, -1, -1)]
    acc = entries[columns[0]]
    for s in columns[1:]:
        acc = square_by_rows_elementwise(acc, rows, n, spec)
        if s:
            acc = times(acc, matrices[s])
    return FqPoly(spec, [c.val for c in acc])


def to_hex_loop(a):
    """Coefficients, constant term first, in hex, ':'-joined."""
    return ":".join(format(c, "x") for c in a.coeffs)


def to_hex_bits(a):
    """A binary element's to_hex as the bit string of its value, lowest
    bit first, ':'-joined."""
    return ":".join(format(a.val, f"0{a.spec.gamma}b")[::-1])


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


def fp_is_irreducible_tuples(coeffs, p):
    """Ben-Or's test on GF(p) coefficient tuples, constant term first:
    gcd(f, x^(p^i) - x) = 1 for i = 1 .. n//2."""
    n = len(coeffs) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    if coeffs[0] == 0:
        return False

    def powmod(a, e):
        result, a = (1,), _fp_mod(a, coeffs, p)
        while e:
            if e & 1:
                result = _fp_mod(_fp_mul(result, a, p), coeffs, p)
            a = _fp_mod(_fp_mul(a, a, p), coeffs, p)
            e >>= 1
        return result

    x = h = (0, 1)
    for _ in range(n // 2):
        h = powmod(h, p)
        a, b = coeffs, _fp_trim(tuple((hi - xi) % p for hi, xi in _zip_pad(h, x)))
        while b:
            a, b = b, _fp_mod(a, b, p)
        if len(a) != 1:
            return False
    return True


def random_sl_second_det(spec, d, rng):
    """random_gl, then a second det, and the last row divided by it
    through FieldElement products."""
    m = random_gl(spec, d, rng)
    dt = det(m)
    if dt == spec.one():
        return m
    dinv = dt.inv()
    rows = element_rows(m)
    rows[-1] = [v * dinv for v in rows[-1]]
    return Matrix(spec, rows)


def char_poly_cofactor(m: Matrix) -> FqPoly:
    """Independent cross-check: cofactor expansion of det(x*1 - M).

    Exponential in d; meant for d <= 5.
    """
    spec, n = m.spec, m.d
    x = FqPoly.x(spec)
    rows = m.vals
    grid = [
        [
            x - FqPoly(spec, (rows[a][b],)) if a == b else -FqPoly(spec, (rows[a][b],))
            for b in range(n)
        ]
        for a in range(n)
    ]

    def det_rec(rows, cols):
        if len(rows) == 1:
            return grid[rows[0]][cols[0]]
        total = FqPoly.zero(spec)
        r0 = rows[0]
        for idx, c in enumerate(cols):
            minor = det_rec(rows[1:], cols[:idx] + cols[idx + 1:])
            term = grid[r0][c] * minor
            total = total - term if idx % 2 else total + term
        return total

    return det_rec(list(range(n)), list(range(n)))


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
        br, rhs = element_rows(b), element_rows(mat_mul(b, n))
        # (1 + e_{i,j}) B adds row j of B to row i
        for a in range(d):
            for c in range(d):
                lhs = br[a][c]
                if a == i - 1:
                    lhs = lhs + br[j - 1][c]
                if lhs != rhs[a][c]:
                    return False
    return True


def identity_automorphism_via_init(spec, d):
    """The identity automorphism from the transvections 1 + e_{i,j}
    through Automorphism.__init__: a determinant and a factoring per
    image."""
    one = spec.one()
    return Automorphism(
        spec, d, {(i, j): transvection(spec, d, i, j, one) for i, j in generator_pairs(d)}
    )


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
    rows = element_rows(img)
    for a in range(d):
        for b in range(d):
            x = rows[a][b]
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
    candidate = next((b for b in basis if det(b)), None)
    if candidate is None and len(basis) > 1:
        scan_vals = [spec.from_val(v) for v in range(min(spec.q, 4))]
        for combo in itertools.product(scan_vals, repeat=len(basis)):
            if all(c.is_zero() for c in combo):
                continue
            acc = [[spec.zero()] * phi.d for _ in range(phi.d)]
            for c, mat in zip(combo, map(element_rows, basis)):
                if c:
                    acc = [[a + c * x for a, x in zip(r1, r2)] for r1, r2 in zip(acc, mat)]
            point = Matrix(spec, acc)
            if det(point):
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


def field_pow_elementwise(a, n):
    """a^n for a FieldElement, as FieldElement.__pow__ computed it before
    it called field._pow_raw: the inverse's power for n < 0, one for
    n = 0, else left-to-right square-and-multiply with each product
    counted by FieldElement.__mul__."""
    if n < 0:
        return field_pow_elementwise(a.inv(), -n)
    if n == 0:
        return a.spec.one()
    bit = 1 << (n.bit_length() - 1)
    acc = a
    bit >>= 1
    while bit:
        acc = acc * acc
        if n & bit:
            acc = acc * a
        bit >>= 1
    return acc


def mat_inv_gauss_jordan(x):
    """x^(-1) by Gauss-Jordan on [x | 1], every entry of a pivot row
    scaled and every entry of an eliminated row updated."""
    spec, d = x.spec, x.d
    m = element_rows(x)
    aug = element_rows(identity(spec, d))
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
    zero, ar = spec.zero(), element_rows(a)
    cols = []
    for w in basis:
        img = []
        for r in range(n):
            acc = zero
            for c in range(n):
                if ar[r][c] and w[c]:
                    acc = acc + ar[r][c] * w[c]
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
    powers, target = [element_rows(x) for x in powers], element_rows(target)
    for r in range(n):
        for c in range(n):
            row = [powers[t][r][c] for t in range(deg)]
            row.append(-target[r][c])
            reducer.add_row(row)
    for vec in reducer.nullspace_basis():
        if vec[deg]:
            scale = vec[deg].inv()
            return FqPoly(spec, [(v * scale).val for v in vec[:deg]])
    raise ValueError("target is not a polynomial in the base matrix")


# ---------------------------------------------------------------------------
# FieldElement loops of the packed-int kernels
# ---------------------------------------------------------------------------


def mat_mul_elementwise(x, y):
    """Schoolbook product, d^3 multiplications."""
    d = x.d
    xr, yr = element_rows(x), element_rows(y)
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
    m = element_rows(x)
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
    inv = solve_elementwise(x.spec, element_rows(x), element_rows(identity(x.spec, x.d)))
    if inv is None:
        raise SingularMatrixError("matrix is singular")
    return Matrix(x.spec, inv)


def eval_matrix_elementwise(f, m):
    """Horner evaluation from c_n*M + c_(n-1)*1."""
    spec, d = m.spec, m.d
    cs = [FieldElement(spec, c) for c in f.coeffs]
    if len(cs) < 2:
        return scalar_matrix(spec, d, cs[0] if cs else spec.zero())

    def add_scalar(rows, c):
        return Matrix(
            spec, [[v + c if a == b else v for b, v in enumerate(r)] for a, r in enumerate(rows)]
        )

    acc = add_scalar([[cs[-1] * v for v in row] for row in element_rows(m)], cs[-2])
    for c in reversed(cs[:-2]):
        acc = add_scalar(element_rows(mat_mul_elementwise(acc, m)), c)
    return acc


def scaled_elementwise(s, vec):
    return tuple(s * x if x else x for x in vec)


def outer_elementwise(col, row, zero):
    """The rows c * row for each c in col, one product per pair with c
    nonzero."""
    return [[c * x for x in row] if c else [zero] * len(row) for c in col]


def dot_elementwise(row, col, zero):
    acc = zero
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc


def from_conjugator_elementwise(a):
    """(images, factors) of conjugation by a, FieldElement factors."""
    spec, d = a.spec, a.d
    ainv, ar = element_rows(mat_inv_elementwise(a)), element_rows(a)
    one, zero = spec.one(), spec.zero()
    images, rank1 = {}, {}
    for i, j in generator_pairs(d):
        col = [ainv[r][i - 1] for r in range(d)]
        row = ar[j - 1]
        rows = outer_elementwise(col, row, zero)
        k = next(k for k, cr in enumerate(col) if cr)
        rank1[(i, j)] = (scaled_elementwise(col[k].inv(), col), tuple(rows[k]))
        for r in range(d):
            rows[r][r] = rows[r][r] + one
        images[(i, j)] = Matrix(spec, rows)
    return images, rank1


def factor_rank1_elementwise(spec, d, img):
    """(u, v) with img - 1 = u v^T and u's first nonzero entry 1, or None."""
    one, zero = spec.one(), spec.zero()
    rows = element_rows(img)
    for a, row in enumerate(rows):
        row[a] = row[a] - one
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
    br = element_rows(b)
    try:
        cols = list(zip(*element_rows(mat_inv_elementwise(b))))
    except SingularMatrixError:
        raise InvalidAutomorphismError("no nonsingular solution") from None
    for (i, j), (u, v) in fac.items():
        c = cols[i - 1]
        k = next(k for k, x in enumerate(u) if x)
        if v != scaled_elementwise(c[k], br[j - 1]) or c != scaled_elementwise(c[k], u):
            raise InvalidAutomorphismError("presentation is not a conjugation")
    return b


def apply_elementwise(phi, x):
    """Image of x: one rank-one update per letter of its decomposition."""
    spec, d = phi.spec, phi.d
    fac = factors_as_elements(phi)
    one, zero = spec.one(), spec.zero()
    grid = [[one if a == b else zero for b in range(d)] for a in range(d)]
    for i, j, lam in decompose_elementwise(x).letters:
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


def lift_operator_elementwise(a):
    """The d^2 x d^2 matrix of X -> A^(-1) X A: column (i, j) is the
    row-major vectorization of column i of A^(-1) times row j of A."""
    spec, d = a.spec, a.d
    ainv, arows = element_rows(mat_inv_elementwise(a)), element_rows(a)
    zero = spec.zero()
    cols = []
    for i in range(d):
        for j in range(d):
            col = []
            for r in range(d):
                ar = ainv[r][i]
                if ar:
                    col.extend(ar * arows[j][b] for b in range(d))
                else:
                    col.extend([zero] * d)
            cols.append(col)
    return Matrix(spec, [list(r) for r in zip(*cols)])


def apply_lifted_elementwise(lifted, x):
    """The lifted operator's matrix times the vectorization of x."""
    spec, d = x.spec, x.d
    vec = [v for row in element_rows(x) for v in row]
    out = []
    for row in element_rows(lifted):
        acc = spec.zero()
        for a, b in zip(row, vec):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return Matrix(spec, [out[a * d:(a + 1) * d] for a in range(d)])


def commutator_rows_elementwise(x):
    """Rows of X Y - Y X = 0 on the d^2 entries of Y, y_{a,c} at a*d + c."""
    spec, d = x.spec, x.d
    xr = element_rows(x)
    rows = []
    for a in range(d):
        for b in range(d):
            row = [spec.zero()] * (d * d)
            for c in range(d):
                if xr[a][c]:
                    row[c * d + b] = row[c * d + b] + xr[a][c]
                if xr[c][b]:
                    row[a * d + c] = row[a * d + c] - xr[c][b]
            rows.append(tuple(row))
    return rows


def conjugator_rows_elementwise(i, j, n):
    """Rows of (1 + e_{i,j}) B = B N on the d^2 entries of B, b_{a,c} at
    a*d + c: entry (a, b) is b_{a,b} + [a = i] b_{j,b} - sum_c b_{a,c} N_{c,b}."""
    spec, d = n.spec, n.d
    nr = element_rows(n)
    rows = []
    for a in range(d):
        for b in range(d):
            row = [spec.zero()] * (d * d)
            for c in range(d):
                row[a * d + c] = -nr[c][b]
            row[a * d + b] = row[a * d + b] + spec.one()
            if a == i - 1:
                row[(j - 1) * d + b] = row[(j - 1) * d + b] + spec.one()
            rows.append(tuple(row))
    return rows


def decompose_elementwise(m):
    """Row reduction of a determinant-1 matrix to 1 by row additions,
    each pivot first made 1 from a row below it."""
    spec, d = m.spec, m.d
    one = spec.one()
    grid = element_rows(m)
    ops = []

    def rowop(a, b, f):
        # row a += f * row b, recorded as left multiplication by 1 + f*e_{a,b}
        rb = grid[b]
        ra = grid[a]
        for k in range(d):
            v = rb[k]
            if v:
                ra[k] = ra[k] + f * v
        ops.append((a, b, f))

    for c in range(d - 1):
        pivot = grid[c][c]
        if pivot != one:
            helper = None
            for a in range(c + 1, d):
                if grid[a][c]:
                    helper = a
                    break
            if helper is not None:
                rowop(c, helper, (one - pivot) * grid[helper][c].inv())
            else:
                if pivot.is_zero():
                    raise NotInSLError("matrix is singular")
                # column is zero below a non-1 pivot: seed a helper first
                rowop(c + 1, c, one)
                rowop(c, c + 1, (one - pivot) * grid[c + 1][c].inv())
        for a in range(c + 1, d):
            if grid[a][c]:
                rowop(a, c, -grid[a][c])
    if grid[d - 1][d - 1] != one:
        raise NotInSLError("determinant is not 1")
    for c in range(d - 1, 0, -1):
        for a in range(c):
            if grid[a][c]:
                rowop(a, c, -grid[a][c])
    # T_k ... T_1 M = 1, hence M = inv(T_1) inv(T_2) ... inv(T_k)
    letters = [(a + 1, b + 1, -f) for a, b, f in ops]
    return TransvectionWord(spec, d, letters)


def char_poly_elementwise(m):
    """Hessenberg reduction by similarity, then the recurrence on the
    leading principal minors in FqPoly arithmetic."""
    spec, n = m.spec, m.d
    h = element_rows(m)
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if h[r][c]:
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for r in range(n):
                h[r][piv], h[r][c + 1] = h[r][c + 1], h[r][piv]
        pinv = h[c + 1][c].inv()
        for r in range(c + 2, n):
            if h[r][c]:
                f = h[r][c] * pinv
                for k in range(c, n):
                    if h[c + 1][k]:
                        h[r][k] = h[r][k] - f * h[c + 1][k]
                for a in range(n):
                    if h[a][r]:
                        h[a][c + 1] = h[a][c + 1] + f * h[a][r]
    # recurrence on leading principal minors of the Hessenberg form
    one = PolyElementwise.one(spec)
    x = PolyElementwise.x(spec)
    ps = [one]
    for k in range(1, n + 1):
        term = (x - PolyElementwise(spec, (h[k - 1][k - 1],))) * ps[k - 1]
        run = spec.one()
        for i in range(1, k):
            run = run * h[k - i][k - i - 1]
            coef = h[k - i - 1][k - 1] * run
            if coef:
                term = term - ps[k - i - 1].scale(coef)
        ps.append(term)
    return ps[n].packed()


# ---------------------------------------------------------------------------
# FieldElement loops of the FqPoly kernels
# ---------------------------------------------------------------------------


class PolyElementwise:
    """FqPoly as it was on FieldElement coefficients, constant term first:
    every product goes through FieldElement.__mul__ and is counted there.
    of() and packed() convert from and to an FqPoly."""

    def __init__(self, spec, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.spec, self.coeffs = spec, tuple(coeffs)

    @classmethod
    def of(cls, f):
        return cls(f.spec, [FieldElement(f.spec, c) for c in f.coeffs])

    def packed(self):
        return FqPoly(self.spec, [c.val for c in self.coeffs])

    @classmethod
    def one(cls, spec):
        return cls(spec, (spec.one(),))

    @classmethod
    def x(cls, spec):
        return cls(spec, (spec.zero(), spec.one()))

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == self.spec.one()

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.spec.one()

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return PolyElementwise(self.spec, out)

    def __neg__(self):
        return PolyElementwise(self.spec, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyElementwise(self.spec)
        zero = self.spec.zero()
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = out[i + j] + ai * bj
        return PolyElementwise(self.spec, out)

    def scale(self, c):
        return PolyElementwise(self.spec, [x * c for x in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        rem = list(self.coeffs)
        db = other.degree()
        binv = other.coeffs[-1].inv()
        if len(rem) - 1 < db:
            return PolyElementwise(spec), self
        quot = [spec.zero()] * (len(rem) - db)
        bc = other.coeffs
        for top in range(len(rem) - 1, db - 1, -1):
            c = rem[top]
            if c:
                f = c * binv
                quot[top - db] = f
                for i in range(db + 1):
                    if bc[i]:
                        rem[top - db + i] = rem[top - db + i] - f * bc[i]
        return PolyElementwise(spec, quot), PolyElementwise(spec, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.coeffs[-1].inv())

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        # a new polynomial even when it equals self, as FqPoly.gcd returns,
        # so it has no squaring rows yet
        return PolyElementwise(self.spec, a.coeffs).monic()

    def pow_mod(self, n, modulus):
        """The coefficient loop of FqPoly.pow_mod, squaring through the
        modulus's squaring rows in characteristic 2; for the base x over a
        large binary field it counts what the lane kernels count."""
        spec = self.spec
        if modulus.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if n == 0:
            return PolyElementwise.one(spec)
        f = modulus.monic()
        base = rem_monic_elementwise(list(self.coeffs), f)
        by_x = base.coeffs == (spec.zero(), spec.one())
        acc = base
        for bit in bin(n)[3:]:
            if spec.p == 2:
                # f keeps its squaring rows from its first squaring on
                deg = f.degree()
                if getattr(f, "sq_rows", None) is None:
                    f.sq_rows = squaring_rows_elementwise(f.coeffs, deg)
                coeffs = [*acc.coeffs, *[spec.zero()] * (deg - len(acc.coeffs))]
                acc = PolyElementwise(spec, square_by_rows_elementwise(coeffs, f.sq_rows, deg, spec))
            else:
                acc = rem_monic_elementwise(square_elementwise(acc.coeffs, spec), f)
            if bit == "1":
                prod = [spec.zero(), *acc.coeffs] if by_x else list((acc * base).coeffs)
                acc = rem_monic_elementwise(prod, f)
        return acc

    def derivative(self):
        spec = self.spec
        return PolyElementwise(
            spec, [spec.scalar(i) * self.coeffs[i] for i in range(1, len(self.coeffs))]
        )

    def __call__(self, v):
        acc = self.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc


def square_elementwise(a, spec):
    """Coefficient list of a(x)^2, cross terms computed once and doubled."""
    zero = spec.zero()
    out = [zero] * max(0, 2 * len(a) - 1)
    for i, c in enumerate(a):
        if c:
            out[2 * i] = out[2 * i] + c * c
            if spec.p != 2:
                for j in range(i + 1, len(a)):
                    if a[j]:
                        t = c * a[j]
                        out[i + j] = out[i + j] + t + t
    return out


def rem_monic_elementwise(a, f):
    """a mod a monic f; consumes the list a."""
    n, fc = f.degree(), f.coeffs
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top]
        if c:
            for i in range(n):
                if fc[i]:
                    a[top - n + i] = a[top - n + i] - c * fc[i]
    return PolyElementwise(f.spec, a[:n])


def frobenius_map_elementwise(f, steps):
    """x^q mod a monic f and the map h -> h^q mod g, for g = f or a monic
    divisor of f, by the Frobenius matrix when fqpoly's cost model picks
    it, as fqpoly._frobenius_map does.  f keeps x^q and the matrix's rows
    from their first build on, as fqpoly keeps them, and the model then
    leaves the rows' build out."""
    spec = f.spec
    n, q = f.degree(), spec.q
    if getattr(f, "xq", None) is None:
        f.xq = PolyElementwise.x(spec).pow_mod(q, f)
    xq = f.xq
    build = 0 if getattr(f, "frob_rows", None) else max(0, n - 2) * fqpoly._mulmod_cost(n)
    if build + steps * n * n >= steps * fqpoly._pow_mod_cost(q, n, spec.p, by_x=False):
        return xq, lambda h, g: h.pow_mod(q, g)

    def by_matrix(h, g):
        if not getattr(f, "frob_rows", None):
            rows = [PolyElementwise.one(spec), xq]
            while len(rows) < n:
                rows.append(rem_monic_elementwise(list((rows[-1] * xq).coeffs), f))
            f.frob_rows = rows
        out = [spec.zero()] * n
        for hi, row in zip(h.coeffs, f.frob_rows):
            if hi:
                for j, r in enumerate(row.coeffs):
                    if r:
                        out[j] = out[j] + hi * r
        return rem_monic_elementwise(out, g) if g.degree() < n else PolyElementwise(spec, out)

    return xq, by_matrix


def is_irreducible_elementwise(f):
    n = f.degree()
    if n < 1:
        return False
    if n == 1:
        return True
    spec = f.spec
    f = f.monic()
    if f.coeffs[0].is_zero() or f(spec.one()).is_zero():
        return False
    x = PolyElementwise.x(spec)
    h, frob = frobenius_map_elementwise(f, n // 2 - 1)
    for k in range(n // 2):
        if k:
            h = frob(h, f)
        if not f.gcd(h - x).is_one():
            return False
    return True


def squarefree_part_elementwise(f):
    spec = f.spec
    f = f.monic()
    d = f.derivative()
    if d.is_zero():
        root = [c ** (spec.q // spec.p) if c else c for c in f.coeffs[::spec.p]]
        return squarefree_part_elementwise(PolyElementwise(spec, root))
    g = f.gcd(d)
    if g.is_one():
        return f
    part = (f // g).monic()
    rest = squarefree_part_elementwise(g)
    return (part * (rest // part.gcd(rest))).monic()


def _distinct_degree_elementwise(f):
    x = PolyElementwise.x(f.spec)
    h, frob, i, out = x, None, 0, []
    while f.degree() >= 2 * (i + 1):
        i += 1
        if frob is None:
            h, frob = frobenius_map_elementwise(f, f.degree() // 2 - 1)
        else:
            h = frob(h, f)
        g = f.gcd(h - x)
        if not g.is_one():
            out.append((g, i))
            f = f // g
            h = h % f
    if f.degree() > 0:
        out.append((f, f.degree()))
    return out


def _equal_degree_split_elementwise(f, r, rng):
    spec, n, q = f.spec, f.degree(), f.spec.q
    if n == r:
        return [f]
    while True:
        h = PolyElementwise(spec, [spec.random(rng) for _ in range(n)])
        if h.degree() < 1:
            continue
        if q % 2 == 1:
            g = h.pow_mod((q**r - 1) // 2, f) - PolyElementwise.one(spec)
        else:
            t = h % f
            g = t
            for _ in range(r * spec.gamma - 1):
                t = t.pow_mod(2, f)
                g = g + t
        g = f.gcd(g)
        if 0 < g.degree() < n:
            return (_equal_degree_split_elementwise(g, r, rng)
                    + _equal_degree_split_elementwise(f // g, r, rng))


def irreducible_factors_elementwise(f):
    """Factors with multiplicities, sorted by degree, then by the
    coefficient value tuple."""
    rng = random.Random(0x5EED)
    f = f.monic()
    factors = []
    for part, r in _distinct_degree_elementwise(squarefree_part_elementwise(f)):
        factors.extend(_equal_degree_split_elementwise(part, r, rng))
    out = []
    for g in factors:
        mult, rem = 0, f
        while True:
            quot, rr = divmod(rem, g)
            if not rr.is_zero():
                break
            mult += 1
            rem = quot
        out.append((g, mult))
    out.sort(key=lambda t: (t[0].degree(), tuple(c.val for c in t[0].coeffs)))
    return out


def mod_inverse_elementwise(a, modulus):
    """Extended Euclid, stopped at the first nonzero constant remainder."""
    spec = a.spec
    r0, r1 = modulus, a % modulus
    s0, s1 = PolyElementwise(spec), PolyElementwise.one(spec)
    while r1.degree() > 0:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r1.is_zero():
        if r0.degree() == 0:  # modulo a unit, 0 inverts 0
            return PolyElementwise(spec)
        raise ZeroDivisionError("element is not invertible modulo this polynomial")
    return (s1.scale(r1.coeffs[0].inv())) % modulus


def packed(x):
    """x with every PolyElementwise in it, through tuples and lists, as
    an FqPoly."""
    if isinstance(x, PolyElementwise):
        return x.packed()
    if isinstance(x, (tuple, list)):
        return type(x)(packed(v) for v in x)
    return x
