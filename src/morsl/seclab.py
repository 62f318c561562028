"""Attack and parameter-analysis procedures at desk scale.

Covers the lift of a conjugation to a d^2-dimensional linear operator,
characteristic polynomials and irreducibility, the Menezes-Wu reduction
of a matrix discrete log to a field discrete log, the monomial cycle
attack on diagonal-times-permutation keys, generic baby-step giant-step,
centralizer computation, and a parameter validator that evaluates the
index-calculus cost formula for the target field F_{q^{d^2}}.

One fact shapes several interfaces here: conjugation fixes the identity
matrix, so the lifted operator always has eigenvalue 1 and its
characteristic polynomial is never irreducible (x - 1 divides it).  Its
irreducible factors in fact all have degree at most d when the
conjugator's own polynomial is irreducible, which is why mw_reduce can
optionally restrict to a single irreducible factor instead of requiring
an irreducible characteristic polynomial outright.

The lab has no elimination of its own.  Centralizers and the kernel
ker g(A) come from linalg.nullspace; the action of a matrix on that
kernel and the coefficients of A' as a polynomial in A come from
linalg.solve, which also rejects a kernel that A' does not preserve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .autos import Automorphism, generator_pairs
from .field import FieldElement, FieldSpec
from .fqpoly import (
    FqPoly,
    char_poly,
    irreducible_factors,
    is_irreducible,
    mod_inverse,
    multiplicative_order,
)
from .linalg import nullspace, solve
from .matrix import Matrix, Permutation, identity, mat_inv, mat_mul, mat_pow
from .protocol import MorPublicKey

__all__ = [
    "LiftedOperator",
    "SecurityEstimate",
    "MonomialAttackReport",
    "GroupOps",
    "WrongAttackModelError",
    "ReducibleCharPolyError",
    "IterationBudgetExceeded",
    "lift_operator",
    "char_poly",
    "is_irreducible",
    "validate_params",
    "monomial_cycle_attack",
    "bsgs_dlog",
    "centralizer_space",
    "mw_reduce",
    "field_group_ops",
    "matrix_group_ops",
    "automorphism_group_ops",
]

INDEX_CALCULUS_C = 1.923  # (64/9)^(1/3); the o(1) term is dropped
REFERENCE_FIELD_BITS = 160


class WrongAttackModelError(ValueError):
    """Key structure does not match the requested attack."""


class ReducibleCharPolyError(ValueError):
    """Menezes-Wu reduction needs an irreducible characteristic polynomial."""


class IterationBudgetExceeded(RuntimeError):
    """Cooperative cancellation: the search hit its iteration budget."""


# ---------------------------------------------------------------------------
# lifted operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftedOperator:
    """The linear action X -> A^(-1) X A on the d^2-dim matrix algebra.

    Column (i-1)*d + (j-1) is the row-major vectorization of the image of
    the matrix unit e_{i,j}.  Composition convention: the lift of A*B is
    lift(B) @ lift(A), matching left-to-right automorphism composition.
    """

    spec: FieldSpec
    d: int
    matrix: Matrix

    @property
    def dim(self) -> int:
        return self.d * self.d

    def apply_matrix(self, x: Matrix) -> Matrix:
        """Act on a d x d matrix through vectorization."""
        d = self.d
        vec = [x.rows[a][b] for a in range(d) for b in range(d)]
        zero = self.spec.zero()
        out = []
        for r in range(d * d):
            acc = zero
            row = self.matrix.rows[r]
            for c in range(d * d):
                if row[c] and vec[c]:
                    acc = acc + row[c] * vec[c]
            out.append(acc)
        return Matrix(self.spec, [out[a * d:(a + 1) * d] for a in range(d)])


def lift_operator(a: Matrix) -> LiftedOperator:
    spec, d = a.spec, a.d
    ainv = mat_inv(a)
    zero = spec.zero()
    n = d * d
    cols = []
    for i in range(d):
        for j in range(d):
            # A^(-1) e_{i,j} A = (column i of A^(-1)) x (row j of A)
            col = []
            for r in range(d):
                ar = ainv.rows[r][i]
                if ar:
                    col.extend(ar * a.rows[j][b] for b in range(d))
                else:
                    col.extend([zero] * d)
            cols.append(col)
    rows = [[cols[c][r] for c in range(n)] for r in range(n)]
    return LiftedOperator(spec, d, Matrix(spec, rows))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecurityEstimate:
    d: int
    q: int
    dlp_field_exponent: int
    index_calculus_log_cost: float  # bits
    index_calculus_regime: str  # "subexponential" | "exponential"
    sqrt_attack_bits: float
    log_base: int = 2
    lift_charpoly_irreducible: bool | None = None
    conjugator_charpoly_irreducible: bool | None = None
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "q": str(self.q),
            "dlp_field_exponent": self.dlp_field_exponent,
            "index_calculus_log_cost_bits": self.index_calculus_log_cost,
            "index_calculus_regime": self.index_calculus_regime,
            "sqrt_attack_bits": self.sqrt_attack_bits,
            "log_base": self.log_base,
            "lift_charpoly_irreducible": self.lift_charpoly_irreducible,
            "conjugator_charpoly_irreducible": self.conjugator_charpoly_irreducible,
            "warnings": list(self.warnings),
        }

    def table(self) -> str:
        lines = [
            f"degree d                 : {self.d}",
            f"field size q             : {self.q}",
            f"target field             : GF({self.q}^{self.dlp_field_exponent})"
            f" = GF(2^{self.dlp_field_exponent * math.log2(self.q):.0f})"
            if self.q == 2 ** int(math.log2(self.q))
            else f"target field             : GF({self.q}^{self.dlp_field_exponent})",
            f"dlp field exponent       : {self.dlp_field_exponent}",
            f"index calculus cost      : 2^{self.index_calculus_log_cost:.1f}",
            f"index calculus regime    : {self.index_calculus_regime}",
            f"sqrt attack cost         : 2^{self.sqrt_attack_bits:.1f}",
        ]
        if self.lift_charpoly_irreducible is not None:
            lines.append(
                f"lift charpoly irreducible: {self.lift_charpoly_irreducible}"
            )
        if self.conjugator_charpoly_irreducible is not None:
            lines.append(
                f"conjugator charpoly irred: {self.conjugator_charpoly_irreducible}"
            )
        for w in self.warnings:
            lines.append(f"warning                  : {w}")
        return "\n".join(lines)


def validate_params(d: int, spec: FieldSpec, a: Matrix | None = None) -> SecurityEstimate:
    """Evaluate the security picture for degree d over GF(p^gamma).

    The index-calculus cost uses exp((c+o(1)) (ln q^k)^(1/3)
    (ln ln q^k)^(2/3)) with k = d^2, c = 1.923 and o(1) dropped, reported
    in bits.  The regime is exponential when d exceeds log2(q).
    """
    q = spec.q
    k = d * d
    log2q = spec.gamma * math.log2(spec.p)
    ln_qk = k * log2q * math.log(2.0)
    cost_bits = (
        INDEX_CALCULUS_C * ln_qk ** (1.0 / 3.0) * math.log(ln_qk) ** (2.0 / 3.0)
    ) / math.log(2.0)
    regime = "exponential" if d > log2q else "subexponential"
    warnings = []
    if log2q < REFERENCE_FIELD_BITS:
        warnings.append(
            f"field size 2^{log2q:.0f} is below the 2^{REFERENCE_FIELD_BITS} reference"
        )
    lift_irr = None
    conj_irr = None
    if a is not None:
        if a.d != d or a.spec != spec:
            raise ValueError("conjugator does not match d and spec")
        conj_irr = is_irreducible(char_poly(a))
        lifted = lift_operator(a)
        lift_irr = is_irreducible(char_poly(lifted.matrix))
    return SecurityEstimate(
        d=d,
        q=q,
        dlp_field_exponent=k,
        index_calculus_log_cost=cost_bits,
        index_calculus_regime=regime,
        sqrt_attack_bits=k * log2q / 2.0,
        lift_charpoly_irreducible=lift_irr,
        conjugator_charpoly_irreducible=conj_irr,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# generic baby-step giant-step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupOps:
    """Black-box group interface for generic discrete-log search."""

    mul: callable
    inv: callable
    identity: object
    key: callable  # canonical serialization, used for hashing


def field_group_ops(spec: FieldSpec) -> GroupOps:
    return GroupOps(
        mul=lambda a, b: a * b,
        inv=lambda a: a.inv(),
        identity=spec.one(),
        key=lambda a: a.val,
    )


def matrix_group_ops(spec: FieldSpec, d: int) -> GroupOps:
    return GroupOps(
        mul=mat_mul,
        inv=mat_inv,
        identity=identity(spec, d),
        key=lambda m: tuple(x.val for row in m.rows for x in row),
    )


def automorphism_group_ops(spec: FieldSpec, d: int) -> GroupOps:
    return GroupOps(
        mul=lambda a, b: a.compose(b),
        inv=lambda a: a.invert(),
        identity=Automorphism.identity(spec, d),
        key=lambda phi: tuple(
            (i, j) + tuple(x.val for row in phi.images[(i, j)].rows for x in row)
            for i, j in generator_pairs(d)
        ),
    )


def _quotient_group_ops(g: FqPoly) -> GroupOps:
    spec = g.spec
    return GroupOps(
        mul=lambda a, b: (a * b) % g,
        inv=lambda a: mod_inverse(a, g),
        identity=FqPoly.one(spec),
        key=lambda a: tuple(c.val for c in a.coeffs),
    )


def bsgs_dlog(base, target, order_bound: int, ops: GroupOps, budget: int | None = None):
    """Least n in [0, order_bound] with base^n = target, or None.

    O(sqrt(order_bound)) group operations; hash keys are canonical
    serializations and hits are re-checked by exact comparison.  budget
    caps the number of group multiplications (cooperative cancellation).
    """
    if order_bound < 0:
        raise ValueError("order bound must be nonnegative")
    steps = 0

    def bump(k: int = 1):
        nonlocal steps
        steps += k
        if budget is not None and steps > budget:
            raise IterationBudgetExceeded(f"budget of {budget} group operations")

    m = math.isqrt(order_bound) + 1
    baby: dict = {}
    cur = ops.identity
    for j in range(m):
        baby.setdefault(ops.key(cur), (j, cur))
        bump()
        cur = ops.mul(cur, base)
    # cur is now base^m; giant steps multiply by its inverse
    giant = ops.inv(cur)
    cur = target
    for i in range(m + 1):
        hit = baby.get(ops.key(cur))
        if hit is not None:
            j, elem = hit
            if elem == cur:  # exact comparison guards against key collisions
                n = i * m + j
                if n <= order_bound:
                    return n
                return None
        bump()
        cur = ops.mul(cur, giant)
    return None


# ---------------------------------------------------------------------------
# centralizer
# ---------------------------------------------------------------------------


def centralizer_space(x: Matrix) -> list[Matrix]:
    """Basis of the linear space {Y : XY = YX}; always contains scalars."""
    spec, d = x.spec, x.d
    zero = spec.zero()
    rows = []
    for a in range(d):
        for b in range(d):
            row = [zero] * (d * d)
            # (XY)_{a,b} - (YX)_{a,b} = sum_c X[a][c] y_{c,b} - y_{a,c} X[c][b]
            for c in range(d):
                if x.rows[a][c]:
                    row[c * d + b] = row[c * d + b] + x.rows[a][c]
                if x.rows[c][b]:
                    row[a * d + c] = row[a * d + c] - x.rows[c][b]
            rows.append(row)
    return [
        Matrix(spec, [vec[r * d:(r + 1) * d] for r in range(d)])
        for vec in nullspace(spec, rows, d * d)
    ]


# ---------------------------------------------------------------------------
# monomial cycle attack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialAttackReport:
    beta: Permutation
    nu: int
    shift: int  # m mod nu
    orbits: tuple[tuple[tuple[int, int], ...], ...]
    dlp_instances: tuple[dict, ...]
    modulus: int
    residues: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "beta": self.beta.to_json(),
            "nu": self.nu,
            "shift": self.shift,
            "orbits": [[list(p) for p in orbit] for orbit in self.orbits],
            "dlp_instances": [dict(inst) for inst in self.dlp_instances],
            "modulus": self.modulus,
            "residues": list(self.residues),
        }


def _read_monomial(phi: Automorphism):
    """Positions and coefficients of a monomial presentation, or error.

    Image 1 + lam*e_{a,b} is the one whose factor is (e_a, lam*e_b)."""
    d = phi.d
    pos = {}
    coef = {}
    for key, (u, v) in phi._rank1.items():
        rows = [k for k, x in enumerate(u) if x]
        cols = [k for k, x in enumerate(v) if x]
        if len(rows) != 1 or len(cols) != 1:
            raise WrongAttackModelError(
                "generator image is not a single transvection; key is not monomial"
            )
        pos[key] = (rows[0] + 1, cols[0] + 1)
        coef[key] = FieldElement(phi.spec, v[cols[0]])
    beta_map = {}
    for (i, j), (a, b) in pos.items():
        if beta_map.setdefault(i, a) != a or beta_map.setdefault(j, b) != b:
            raise WrongAttackModelError("inconsistent position permutation")
    if sorted(beta_map) != list(range(1, d + 1)):
        raise WrongAttackModelError("positions do not determine a permutation")
    beta = Permutation([beta_map[i] for i in range(1, d + 1)])
    return beta, pos, coef


def monomial_cycle_attack(pk: MorPublicKey, dlog_budget: int | None = None) -> MonomialAttackReport:
    """Recover residues of the secret exponent from a monomial key pair.

    Reads the permutation beta off the image positions of phi; the
    position displacement of phi^m pins m mod ord(beta); coefficient
    products along beta-orbits of ordered pairs form discrete logs in
    GF(q)* whose solutions refine the residue.  Returns every residue
    consistent with all orbit constraints, modulo lcm(nu, l_i * ord_i).
    """
    spec, d = pk.params.spec, pk.params.d
    beta, _, coef = _read_monomial(pk.phi)
    beta_m, _, coef_m = _read_monomial(pk.phi_m)
    nu = beta.order()
    # m mod nu from the displacement: beta_m must be a power of beta
    shift = None
    acc = Permutation.identity(d)
    for s in range(nu):
        if acc == beta_m:
            shift = s
            break
        acc = acc.compose(beta)
    if shift is None:
        raise WrongAttackModelError("phi^m positions are not a power of phi positions")

    # orbits of beta on ordered pairs
    seen = set()
    orbits = []
    for i, j in generator_pairs(d):
        if (i, j) in seen:
            continue
        orbit = []
        a, b = i, j
        while (a, b) not in seen:
            seen.add((a, b))
            orbit.append((a, b))
            a, b = beta(a), beta(b)
        orbits.append(tuple(orbit))

    ops = field_group_ops(spec)
    instances = []
    constraints = []
    modulus = nu
    for orbit in orbits:
        ell = len(orbit)
        i0, j0 = orbit[0]
        cycle_prod = spec.one()
        for a, b in orbit:
            cycle_prod = cycle_prod * coef[(a, b)]
        s0 = shift % ell
        prefix = spec.one()
        a, b = i0, j0
        for _ in range(s0):
            prefix = prefix * coef[(a, b)]
            a, b = beta(a), beta(b)
        observed = coef_m[(i0, j0)]
        target = observed * prefix.inv()
        order = multiplicative_order(
            lambda n: cycle_prod**n, lambda v: v == spec.one(), spec.q - 1
        )
        a0 = bsgs_dlog(cycle_prod, target, order, ops, budget=dlog_budget)
        inst = {
            "orbit_representative": [i0, j0],
            "orbit_length": ell,
            "base": cycle_prod.to_hex(),
            "target": target.to_hex(),
            "base_order": order,
            "quotient_residue": a0,
        }
        instances.append(inst)
        if a0 is None:
            raise WrongAttackModelError("coefficient discrete log has no solution")
        constraints.append((ell, s0, order, a0))
        modulus = math.lcm(modulus, ell * order)

    residues = []
    for x in range(shift, modulus, nu):
        ok = True
        for ell, s0, order, a0 in constraints:
            if (x - s0) % ell != 0 or ((x - s0) // ell) % order != a0:
                ok = False
                break
        if ok:
            residues.append(x)
    return MonomialAttackReport(
        beta=beta,
        nu=nu,
        shift=shift,
        orbits=tuple(orbits),
        dlp_instances=tuple(instances),
        modulus=modulus,
        residues=tuple(residues),
    )


# ---------------------------------------------------------------------------
# Menezes-Wu reduction
# ---------------------------------------------------------------------------


def _restrict_to_subspace(a: Matrix, basis) -> Matrix:
    """Matrix of the action of a on span(basis), in basis coordinates.

    Solves basis * X = a * basis; raises ValueError when the basis
    vectors are dependent or their span is not a-invariant.
    """
    spec, n = a.spec, a.d
    zero = spec.zero()
    imgs = []
    for w in basis:
        img = []
        for r in range(n):
            acc = zero
            for c in range(n):
                if a.rows[r][c] and w[c]:
                    acc = acc + a.rows[r][c] * w[c]
            img.append(acc)
        imgs.append(img)
    coords = solve(spec, list(zip(*basis)), list(zip(*imgs)))
    if coords is None:
        raise ValueError("basis is dependent or does not span an invariant subspace")
    return Matrix(spec, coords)


def _express_as_polynomial(base: Matrix, target: Matrix, deg: int) -> FqPoly:
    """Coefficients c with target = sum c_t base^t, t < deg."""
    spec, n = base.spec, base.d
    powers = [identity(spec, n)]
    for _ in range(deg - 1):
        powers.append(mat_mul(powers[-1], base))
    coeffs = solve(
        spec,
        [[pw.rows[r][c] for pw in powers] for r in range(n) for c in range(n)],
        [[target.rows[r][c]] for r in range(n) for c in range(n)],
    )
    if coeffs is None:
        raise ValueError("target is not a polynomial in the base matrix")
    return FqPoly(spec, [row[0] for row in coeffs])


def mw_reduce(a: Matrix, a_prime: Matrix, allow_reducible: bool = False,
              dlog_budget: int | None = None):
    """Recover n with a^n = a_prime through the eigenvalue field.

    With chi_A irreducible of degree n the class of x in F_q[x]/chi_A is
    an eigenvalue of A; expressing A' as a polynomial in A maps it to the
    matching eigenvalue power and the discrete log moves to the extension
    field.  The result is the exponent modulo the eigenvalue's order;
    verification against A' happens before returning.

    allow_reducible restricts both matrices to ker g(A) for the largest
    irreducible factor g of chi_A first (single factor only; no CRT
    recombination across factors).  Returns None when no consistent
    exponent exists.
    """
    spec = a.spec
    f = char_poly(a)
    if is_irreducible(f):
        g = f
        a_res, ap_res = a, a_prime
    else:
        if not allow_reducible:
            raise ReducibleCharPolyError(
                "characteristic polynomial is reducible; "
                "pass allow_reducible=True to use its largest irreducible factor"
            )
        facs = irreducible_factors(f)
        g = max(facs, key=lambda t: t[0].degree())[0]
        basis = nullspace(spec, g.eval_matrix(a).rows, a.d)
        try:
            a_res = _restrict_to_subspace(a, basis)
            ap_res = _restrict_to_subspace(a_prime, basis)
        except ValueError:  # ker g(A) is not invariant under A'
            return None
    k = g.degree()
    try:
        c = _express_as_polynomial(a_res, ap_res, k)
    except ValueError:
        return None
    x = FqPoly.x(spec) % g
    lam_prime = c % g
    ops = _quotient_group_ops(g)
    order = multiplicative_order(
        lambda t: x.pow_mod(t, g), lambda v: v == FqPoly.one(spec), spec.q**k - 1
    )
    n = bsgs_dlog(x, lam_prime, order, ops, budget=dlog_budget)
    if n is None:
        return None
    if mat_pow(a, n) != a_prime:
        return None
    return n
