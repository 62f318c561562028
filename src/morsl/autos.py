"""Automorphisms of SL(d,q) presented by their action on generators.

An automorphism is stored as the map (i, j) -> image of 1 + e_{i,j}, one
matrix per ordered pair.  Conjugation is linear in the transvection
coefficient, so these d^2 - d images determine the image of every
1 + lam*e_{i,j}: the image of a letter is 1 + lam*(N - 1).  Every
automorphism of SL(d,q) is a product of inner, diagonal, field and graph
automorphisms, and each of these maps a transvection to a transvection,
so every image N of a genuine presentation is 1 + u v^T with v . u = 0.
That factor is an invariant of the type: every constructor stores the
canonical factor of each image, u's first nonzero entry equal to 1, and
refuses an image that has none (the identity, or rank 2 and up).  apply()
multiplies the letter images through their factors, O(d^2) field
multiplications per letter.  from_conjugator knows each factor from the
conjugator itself and writes it in closed form.  from_json, the parse of
key and ciphertext files, factors each image and checks SL by the matrix
determinant lemma, det(1 + u v^T) = 1 + v . u, in d multiplications; it
takes no determinant on any input.  __init__ keeps one determinant per
image before its factor check: compose and the composition count pinned
by the golden bench go through it.

The same factors solve the special conjugacy problem: for a conjugation
by B, the factor of image (i, j) is a column of B^(-1) times a row of B,
up to scalars, so recover_conjugator reads B off d of the factors, fixes
the row scales by dot products, inverts once and checks every image
exactly, in O(d^3) field multiplications.  The result is cached on the
automorphism, so a key pays for it once.  conjugator_solution_space
keeps the linear-algebra view: the d^2-unknown system the images pose.

Composition order is fixed artifact-wide as left-to-right application:
compose(phi, psi) maps X to psi(phi(X)).  Conjugations then satisfy
compose(conj_A, conj_B) = conj_{A·B}.

Graph (contragredient) and field (entrywise Frobenius) automorphisms are
kept in a separate type and never accepted as key material.
"""

from __future__ import annotations

from .field import FieldSpec, _count_muls, _json_dict, _json_int, _json_list
from .linalg import RowReducer
from .matrix import Matrix, SingularMatrixError, mat_inv, mat_pow
from .words import decompose

__all__ = [
    "Automorphism",
    "BAutomorphism",
    "InvalidAutomorphismError",
    "recover_conjugator",
    "conjugator_solution_space",
    "apply_graph",
    "apply_field",
]


class InvalidAutomorphismError(ValueError):
    """Generator images are not realizable as a single conjugation."""


def generator_pairs(d: int):
    """All ordered pairs (i, j), i != j, in lexicographic order."""
    return [(i, j) for i in range(1, d + 1) for j in range(1, d + 1) if i != j]


class Automorphism:
    # _rank1 maps each pair to the factor (u, v) of image - 1 = u v^T,
    # two tuples of packed ints; _conj caches recover_conjugator
    __slots__ = ("spec", "d", "images", "_rank1", "_conj")

    def __init__(self, spec: FieldSpec, d: int, images: dict):
        # SL by determinant: compose and the golden bench's composition
        # count come through here
        imgs = _checked_images(spec, d, images)
        for key, m in imgs.items():
            if not m.is_sl():
                raise InvalidAutomorphismError(f"image for {key} is not in SL")
        self._set_slots(spec, d, imgs, _factors(spec, d, imgs))

    def _set_slots(self, spec: FieldSpec, d: int, images: dict, rank1: dict):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_rank1", rank1)
        object.__setattr__(self, "_conj", None)

    def __setattr__(self, *args):
        raise AttributeError("Automorphism is immutable")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def identity(cls, spec: FieldSpec, d: int) -> "Automorphism":
        from .matrix import transvection

        one = spec.one()
        return cls(
            spec, d,
            {(i, j): transvection(spec, d, i, j, one) for i, j in generator_pairs(d)},
        )

    @classmethod
    def from_conjugator(cls, a: Matrix) -> "Automorphism":
        """X -> A^(-1) X A, presented on the transvection generators.

        Image (i, j) is 1 + c r^T with c column i of A^(-1) and r row j of
        A.  As r . c = (A A^(-1))_{j,i} = 0 it lies in SL by construction,
        so no determinant is taken, and its rank-one factor is read off in
        closed form: (c / c_k, c_k r) for the first nonzero entry c_k of c,
        which is what _factor_rank1 finds in the image.
        """
        spec, d = a.spec, a.d
        ainv = mat_inv(a).vals  # raises SingularMatrixError for singular input
        mul, add = spec._mul_raw, spec._add_raw
        images, rank1, count = {}, {}, 0
        for i, j in generator_pairs(d):
            col = [r[i - 1] for r in ainv]
            row = a.vals[j - 1]
            rows = [[mul(cr, x) for x in row] if cr else [0] * d for cr in col]
            count += d * (d - col.count(0))
            k = next(k for k, cr in enumerate(col) if cr)
            rank1[(i, j)] = (_scaled(spec, spec._inv_raw(col[k]), col), tuple(rows[k]))
            for r in range(d):
                rows[r][r] = add(rows[r][r], 1)
            images[(i, j)] = Matrix._from_vals(spec, tuple(map(tuple, rows)))
        _count_muls(count)
        phi = object.__new__(cls)
        phi._set_slots(spec, d, images, rank1)
        return phi

    # -- application ------------------------------------------------------------

    def apply(self, x: Matrix) -> Matrix:
        """Image of a determinant-1 matrix.

        Decomposes x into transvection letters and multiplies the letter
        images 1 + lam*(N - 1) together.
        """
        spec, d = self.spec, self.d
        if x.spec != spec or x.d != d:
            raise ValueError("matrix has wrong spec or degree")
        word = decompose(x)
        mul, add = spec._mul_raw, spec._add_raw
        grid = [[int(a == b) for b in range(d)] for a in range(d)]
        count = 0
        for i, j, lam in word.letters:
            u, v = self._rank1[(i, j)]
            lam = lam.val
            u_nz = [(k, x) for k, x in enumerate(u) if x]
            v_nz = [(b, y) for b, y in enumerate(v) if y]
            for row in grid:
                acc = 0
                for k, x in u_nz:
                    if row[k]:
                        acc = add(acc, mul(row[k], x))
                        count += 1
                if acc:
                    w = mul(lam, acc)
                    for b, y in v_nz:
                        row[b] = add(row[b], mul(w, y))
                    count += 1 + len(v_nz)
        _count_muls(count)
        return Matrix._from_vals(spec, tuple(map(tuple, grid)))

    def __call__(self, x: Matrix) -> Matrix:
        return self.apply(x)

    # -- group structure ----------------------------------------------------------

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Left-to-right composition: X -> other(self(X))."""
        if self.spec != other.spec or self.d != other.d:
            raise ValueError("automorphisms over different groups")
        return Automorphism(
            self.spec, self.d,
            {key: other.apply(img) for key, img in self.images.items()},
        )

    def power(self, m: int) -> "Automorphism":
        """m-th power: conjugation by B^m for the recovered conjugator B.

        Conjugation by B^m is the m-fold composition of conjugation by B,
        and the scalar ambiguity of B cancels, so this equals
        square-and-multiply over compose image by image.
        """
        return Automorphism.from_conjugator(mat_pow(recover_conjugator(self), m))

    def invert(self) -> "Automorphism":
        return Automorphism.from_conjugator(mat_inv(recover_conjugator(self)))

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return (self.spec, self.d) == (other.spec, other.d) and self.images == other.images

    def __repr__(self):
        return f"Automorphism(d={self.d}, spec={self.spec!r})"

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "spec": self.spec.to_json(),
            "images": [
                {"i": i, "j": j, "matrix": self.images[(i, j)].to_json()}
                for i, j in generator_pairs(self.d)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Automorphism":
        """Parse a presentation written by to_json, factoring first.

        The image list must hold exactly d(d-1) distinct pairs before any
        matrix is read.  An image 1 + u v^T is in SL exactly when
        v . u = 0, as det(1 + u v^T) = 1 + v . u, so no determinant is
        taken.
        """
        obj = _json_dict(obj)
        spec = FieldSpec.from_json(obj["spec"])
        d = _json_int(obj["d"])
        _check_degree(d)
        items = [_json_dict(item) for item in _json_list(obj["images"], d * (d - 1))]
        keys = [(_json_int(item["i"]), _json_int(item["j"])) for item in items]
        if len(set(keys)) != len(keys):
            raise ValueError("an image pair (i, j) is listed twice")
        imgs = _checked_images(
            spec, d,
            {key: Matrix.from_json(spec, item["matrix"]) for key, item in zip(keys, items)},
        )
        rank1 = _factors(spec, d, imgs)
        for key, (u, v) in rank1.items():
            if _dot(spec, v, u):
                raise InvalidAutomorphismError(f"image for {key} is not in SL")
        phi = object.__new__(cls)
        phi._set_slots(spec, d, imgs, rank1)
        return phi


def _check_degree(d: int) -> None:
    if d < 2:
        raise ValueError(f"degree must be at least 2, got {d}")


def _checked_images(spec: FieldSpec, d: int, images: dict) -> dict:
    """images in generator-pair order, after the degree, count, pair and
    type checks."""
    # degree and count first: d comes from untrusted input, and the pairs
    # cost d^2
    _check_degree(d)
    if len(images) != d * (d - 1):
        raise ValueError(f"expected {d * (d - 1)} images for d = {d}, got {len(images)}")
    pairs = generator_pairs(d)
    if set(images) != set(pairs):
        raise ValueError("images must cover every ordered pair (i, j), i != j")
    for key in pairs:
        m = images[key]
        if not isinstance(m, Matrix) or m.spec != spec or m.d != d:
            raise ValueError(f"image for {key} has wrong spec or degree")
    return {key: images[key] for key in pairs}


def _dot(spec: FieldSpec, row, col) -> int:
    """row . col on packed ints, one multiplication per pair of nonzeros."""
    mul, add = spec._mul_raw, spec._add_raw
    acc, count = 0, 0
    for a, b in zip(row, col):
        if a and b:
            acc = add(acc, mul(a, b))
            count += 1
    _count_muls(count)
    return acc


def _factors(spec: FieldSpec, d: int, images: dict) -> dict:
    """The factor of every image; an image without one is refused."""
    rank1 = {}
    for key, m in images.items():
        rank1[key] = _factor_rank1(spec, d, m)
        if rank1[key] is None:
            raise InvalidAutomorphismError(f"image for {key} is not a transvection")
    return rank1


def _factor_rank1(spec: FieldSpec, d: int, img: Matrix):
    """Write img - 1 as an outer product u * v^T, or None if img is the
    identity or img - 1 has rank 2 or more.

    v is the first nonzero row of img - 1, so the first nonzero entry of
    u is 1.  Counted as the entrywise check counts: d multiplications for
    u, then one per entry whose u_a and v_b are both nonzero, up to the
    first entry that differs."""
    mul, sub = spec._mul_raw, spec._sub_raw
    rows = [list(r) for r in img.vals]
    for a in range(d):
        rows[a][a] = sub(rows[a][a], 1)
    pivot = next(((a, b) for a in range(d) for b in range(d) if rows[a][b]), None)
    if pivot is None:
        return None
    pa, pb = pivot
    v = tuple(rows[pa])
    pinv = spec._inv_raw(v[pb])
    u = tuple(mul(r[pb], pinv) for r in rows)
    count = d
    for ua, row in zip(u, rows):
        for vb, x in zip(v, row):
            if ua and vb:
                count += 1
                if x != mul(ua, vb):
                    _count_muls(count)
                    return None
            elif x:
                _count_muls(count)
                return None
    _count_muls(count)
    return (u, v)


# ---------------------------------------------------------------------------
# special conjugacy problem
# ---------------------------------------------------------------------------


def _constraint_rows(spec: FieldSpec, d: int, i: int, j: int, n: Matrix):
    """Linear constraints (1 + e_{i,j}) B = B N on the d^2 entries of B.

    Unknown b_{a,c} has column index a*d + c.  No multiplications are
    needed to build the rows; coefficients are copies or negations of
    entries of N.
    """
    neg, add = spec._neg_raw, spec._add_raw
    cols = list(zip(*n.vals))
    for a in range(d):
        for b in range(d):
            row = [0] * (d * d)
            row[a * d:(a + 1) * d] = [neg(x) for x in cols[b]]
            row[a * d + b] = add(row[a * d + b], 1)
            if a == i - 1:
                row[(j - 1) * d + b] = add(row[(j - 1) * d + b], 1)
            yield row


def conjugator_solution_space(phi: Automorphism) -> list[Matrix]:
    """Basis of the linear space of B with (1+e_{i,j}) B = B * image."""
    spec, d = phi.spec, phi.d
    reducer = RowReducer(spec, d * d)
    for (i, j) in generator_pairs(d):
        for row in _constraint_rows(spec, d, i, j, phi.images[(i, j)]):
            reducer.add_row(row)
        if reducer.rank >= d * d - 1:
            break
    return [
        Matrix._from_vals(spec, tuple(vec[a * d:(a + 1) * d] for a in range(d)))
        for vec in reducer.nullspace_basis()
    ]


def recover_conjugator(phi: Automorphism) -> Matrix:
    """Solve the special conjugacy problem for a generator presentation.

    Returns the invertible B with phi(X) = B^(-1) X B whose last nonzero
    entry in row-major order is 1; every other solution is a scalar
    multiple (the center of GL).  The result is cached on phi.
    """
    if phi._conj is None:
        object.__setattr__(phi, "_conj", _conjugator_from_rank1(phi))
    return phi._conj


def _conjugator_from_rank1(phi: Automorphism) -> Matrix:
    """B read off the rank-one factors of the images, O(d^3) in all.

    For a conjugation by B, image (i, j) is 1 + c_i r_j^T with c_i column
    i of B^(-1) and r_j row j of B, so its factor (u, v) has v
    proportional to r_j.  Rows v_{2,1}, v_{1,2}, ..., v_{1,d} give B up
    to one scale per row; row j >= 2 is scaled by u_{1,j} . v_{2,1},
    which is the ratio of the two row scales because r_1 . c_1 = 1.
    Each image is then checked exactly: u has first nonzero entry
    u_k = 1, and as r_j != 0, u v^T = c_i r_j^T holds exactly when
    v = c_{i,k} r_j and c_i = c_{i,k} u, 2d multiplications per image.
    """
    spec, d = phi.spec, phi.d
    mul = spec._mul_raw
    fac = phi._rank1
    rows = [fac[(2, 1)][1]] + [fac[(1, j)][1] for j in range(2, d + 1)]
    scales = [1] + [_dot(spec, fac[(1, j)][0], rows[0]) for j in range(2, d + 1)]
    last = next(x for x in reversed(rows[-1]) if x)
    if not all(scales):
        raise InvalidAutomorphismError("no nonsingular solution")
    lam = spec._inv_raw(mul(scales[-1], last))
    _count_muls(1 + d)  # scales[-1] * last, then lam * s for each row scale
    b = Matrix._from_vals(
        spec, tuple(_scaled(spec, mul(lam, s), row) for s, row in zip(scales, rows))
    )
    try:
        cols = list(zip(*mat_inv(b).vals))
    except SingularMatrixError:
        raise InvalidAutomorphismError("no nonsingular solution") from None
    for (i, j), (u, v) in fac.items():
        c = cols[i - 1]
        k = next(k for k, x in enumerate(u) if x)
        if v != _scaled(spec, c[k], b.vals[j - 1]) or c != _scaled(spec, c[k], u):
            raise InvalidAutomorphismError("presentation is not a conjugation")
    return b


def _scaled(spec: FieldSpec, s: int, vec) -> tuple:
    """s * vec on packed ints, one multiplication per nonzero entry."""
    mul = spec._mul_raw
    _count_muls(len(vec) - vec.count(0))
    return tuple(mul(s, x) if x else 0 for x in vec)


# ---------------------------------------------------------------------------
# graph and field automorphisms (the non-conjugation kind)
# ---------------------------------------------------------------------------


def apply_graph(x: Matrix) -> Matrix:
    """Contragredient map X -> (X^(-1))^T; an involution."""
    return mat_inv(x).transpose()


def apply_field(x: Matrix, i: int) -> Matrix:
    """Entrywise Frobenius power X -> X^(p^i)."""
    if not 0 <= i < x.spec.gamma:
        raise ValueError("Frobenius power out of range")
    if i == 0:
        return x
    return Matrix(x.spec, [[v.frobenius(i) for v in row] for row in x.rows])


class BAutomorphism:
    """Composition of a graph flip and a field automorphism power.

    These generate a group of order 2*gamma.  They are kept out of key
    material; the type exists for verification and the security lab.
    """

    __slots__ = ("spec", "graph_flag", "field_power")

    def __init__(self, spec: FieldSpec, graph_flag: bool, field_power: int):
        if not 0 <= field_power < spec.gamma:
            raise ValueError("field power out of range")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "graph_flag", bool(graph_flag))
        object.__setattr__(self, "field_power", field_power)

    def __setattr__(self, *args):
        raise AttributeError("BAutomorphism is immutable")

    def apply(self, x: Matrix) -> Matrix:
        out = apply_field(x, self.field_power)
        if self.graph_flag:
            out = apply_graph(out)
        return out

    def compose(self, other: "BAutomorphism") -> "BAutomorphism":
        if self.spec != other.spec:
            raise ValueError("different field specs")
        return BAutomorphism(
            self.spec,
            self.graph_flag ^ other.graph_flag,
            (self.field_power + other.field_power) % self.spec.gamma,
        )

    def order(self) -> int:
        from math import gcd

        g = self.spec.gamma
        field_order = g // gcd(g, self.field_power) if self.field_power else 1
        graph_order = 2 if self.graph_flag else 1
        return field_order * graph_order // gcd(field_order, graph_order)

    def __eq__(self, other):
        if not isinstance(other, BAutomorphism):
            return NotImplemented
        return (self.spec, self.graph_flag, self.field_power) == (
            other.spec, other.graph_flag, other.field_power,
        )

    def __repr__(self):
        return f"BAutomorphism(graph={self.graph_flag}, field_power={self.field_power})"
