"""The MOR public-key protocol over SL(d,q).

Keys are automorphisms presented on the transvection generators: public
key {phi, phi^m}, private key m.  Encryption picks a fresh r and sends
(phi^r, phi^{mr}(a)); decryption raises phi^r to m and applies the
inverse.

Exponents are sampled uniformly from [2, q^(d^2) - 2]: no proper divisor
of the order of <phi> is known to the key holder without factoring, and
q^(d^2) - 1 bounds the order of any lifted operator.

Large powers of an automorphism are computed through its conjugator:
recover B, raise B to the exponent, and rebuild the generator images.
Conjugation by B^m equals the m-fold composition of conjugation by B
and the scalar ambiguity of B cancels, so this is value-identical to
compose-based square-and-multiply (the test suite asserts it) while
staying polynomial in log m at full-size parameters.  B is recovered
once per automorphism.  Each key holds its conjugator's algebra as a
matrix.KeyField: the public key K_phi = F_q[B_phi] (field), and B_phim
handed K_phi's certificate as a member (field_m); the private key K_B
(field), which keygen seeds with the certificate it has paid for.  They
are cached properties, not fields, so a key's constructor, ==, hash and
files do not see them.  Every power is raised through one, and the
matrix module says how it reduces exponents and computes in K.

A ciphertext holds phi^r as its conjugator B_r, up to a scalar: encrypt
keeps the power of B_phi it raised, and decrypt raises it to m.  The v1
presentation, the d^2 - d images of phi^r, is built only when read, as
to_json does; a parsed ciphertext recovers B_r once from the images it
was given and keeps them as its presentation.  An in-memory message
therefore builds no images in encrypt and recovers no conjugator in
decrypt.

Plaintexts ride in a single elementary transvection at the fixed
position (1,2).  Its trace and determinant are always d and 1, and
conjugation keeps them, so those two invariants tell nothing.  The slot
is not hidden, though.  The payload is Y = C^(-1) a C with C in
F_q[B_phi], so C commutes with the public conjugator B_phi and
tr(Y B_phi^k) = tr(a B_phi^k) for every k: for a = 1 + lam e_12 that is
lam (B_phi^k)_21 + tr(B_phi^k), and lam can be read off the public key
and the ciphertext alone (ROADMAP item 10).

No key or ciphertext is degenerate.  A public key with phi^m = 1 or
phi^m = phi gives m away (mod the order of phi), so keygen draws again
and encrypt refuses such a key.  encrypt draws r again while phi^r is 1
or phi, which publish r, or phi^{mr} = 1, which would send the
plaintext as it is.  The key checks and the tests for 1 compare entries
or generator images and cost no field multiplication.  phi^r = phi is
B_r = c B_phi for a scalar c, tested against the normalized B_phi at one
multiplication per entry compared, up to the first that differs.  A run
that draws nothing degenerate consumes the same random stream as
without the checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .autos import Automorphism, InvalidAutomorphismError, recover_conjugator
from .field import FieldSpec, _count_muls, _json_dict, _json_int
from .matrix import KeyField, Matrix, mat_mul, random_gl, transvection
from .words import NotInSLError

__all__ = [
    "MorParams",
    "MorPublicKey",
    "MorPrivateKey",
    "MorCiphertext",
    "KeygenFailureError",
    "DegenerateKeyError",
    "InvalidCiphertextError",
    "CapacityError",
    "MessageFormatError",
    "keygen",
    "encrypt",
    "decrypt",
    "encode_message",
    "decode_message",
    "message_capacity",
]

FORMAT_VERSION = 1
KEYGEN_RETRY_CAP = 256
ENCRYPT_RETRY_CAP = 64


class KeygenFailureError(RuntimeError):
    """Keygen exhausted its retry budget without an acceptable key."""


class DegenerateKeyError(ValueError):
    """A public key with phi^m = 1 or phi^m = phi, whose ciphertexts
    would give the plaintext away."""


class InvalidCiphertextError(ValueError):
    pass


class CapacityError(ValueError):
    """Message longer than one field element can carry."""


class MessageFormatError(ValueError):
    """Decoded matrix is not a plaintext-bearing transvection."""


@dataclass(frozen=True)
class MorParams:
    spec: FieldSpec
    d: int
    require_irreducible_lift: bool = True

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("degree must be at least 2")

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "d": self.d,
            "require_irreducible_lift": self.require_irreducible_lift,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MorParams":
        obj = _json_dict(obj)
        lift = obj.get("require_irreducible_lift", True)
        if not isinstance(lift, bool):
            raise ValueError(f"require_irreducible_lift must be a JSON bool, got {lift!r}")
        return cls(FieldSpec.from_json(obj["spec"]), _json_int(obj["d"]), lift)


@dataclass(frozen=True)
class MorPublicKey:
    params: MorParams
    phi: Automorphism
    phi_m: Automorphism

    @cached_property
    def field(self) -> KeyField:
        """K_phi = F_q[B_phi]."""
        return KeyField(recover_conjugator(self.phi))

    @cached_property
    def field_m(self) -> KeyField:
        """F_q[B_phim], B_phim handed K_phi's certificate when it is a
        member of K_phi (KeyField.member); a foreign phi_m fails the test
        and keeps a certificate of its own."""
        return self.field.member(recover_conjugator(self.phi_m))

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "params": self.params.to_json(),
            "phi": self.phi.to_json(),
            "phi_m": self.phi_m.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MorPublicKey":
        _check_version(obj)
        params = MorParams.from_json(obj["params"])
        phi = Automorphism.from_json(obj["phi"])
        phi_m = Automorphism.from_json(obj["phi_m"])
        _check_same_group("phi", phi, "params", params)
        _check_same_group("phi_m", phi_m, "params", params)
        return cls(params, phi, phi_m)


@dataclass(frozen=True)
class MorPrivateKey:
    m: int
    conjugator: Matrix

    @cached_property
    def field(self) -> KeyField:
        """K_B = F_q[B] for the conjugator B.  keygen seeds it with the
        certificate it has decided; a key built otherwise, a parsed one
        among them, holds an undecided one, which decrypt never decides."""
        return KeyField(self.conjugator)

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "m": str(self.m),
            "conjugator": self.conjugator.to_json(),
        }

    @classmethod
    def from_json(cls, spec: FieldSpec, obj: dict) -> "MorPrivateKey":
        """Refuses an exponent outside keygen's range [2, q^(d^2) - 2],
        which would decrypt without error to a wrong matrix: m = 0 hands
        the payload back as it is."""
        _check_version(obj)
        m = _json_int(obj["m"])
        conjugator = Matrix.from_json(spec, obj["conjugator"])
        if not 2 <= m <= spec.q ** (conjugator.d * conjugator.d) - 2:
            raise ValueError("private exponent outside [2, q^(d^2) - 2]")
        return cls(m, conjugator)


@dataclass(frozen=True, eq=False)
class MorCiphertext:
    """(phi^r, phi^{mr}(a)) with phi^r held as its conjugator B_r, up to a
    scalar; phi_r, the v1 presentation, is built on first read.  encrypt
    keeps the power of B_phi it raised, from_json the normalized B_r it
    recovers, so == compares the conjugators up to a scalar: two
    ciphertexts are equal when their payloads are and their B_r are
    multiples of each other (nonzero ones, as conjugators are invertible),
    a ciphertext and its own parse among them.  The hash reads the payload
    only, so equal ciphertexts hash alike."""

    conjugator: Matrix
    payload: Matrix

    def __eq__(self, other):
        if not isinstance(other, MorCiphertext):
            return NotImplemented
        return self.payload == other.payload and _is_multiple(other.conjugator, self.conjugator)

    def __hash__(self):
        return hash(self.payload)

    @cached_property
    def phi_r(self) -> Automorphism:
        return Automorphism.from_conjugator(self.conjugator)

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "phi_r": self.phi_r.to_json(),
            "payload": self.payload.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MorCiphertext":
        _check_version(obj)
        phi_r = Automorphism.from_json(obj["phi_r"])
        payload = Matrix.from_json(phi_r.spec, obj["payload"])
        _check_same_group("payload", payload, "phi_r", phi_r)
        try:
            ct = cls(recover_conjugator(phi_r), payload)
        except InvalidAutomorphismError as exc:
            raise InvalidCiphertextError(str(exc)) from exc
        ct.__dict__["phi_r"] = phi_r  # to_json writes the images it was given
        return ct


def _check_version(obj: dict) -> None:
    # the JSON integer 1 only: true and 1.0 compare equal to 1 in Python
    version = _json_dict(obj).get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError("unsupported or missing format_version")


def _check_same_group(name: str, part, ref_name: str, ref) -> None:
    """Parts of one key or ciphertext must live in one SL(d, q)."""
    if (part.spec, part.d) != (ref.spec, ref.d):
        # the repr of a field spec leaves out its modulus
        same_q = part.spec != ref.spec and part.spec.q == ref.spec.q
        modulus = " with another modulus" if same_q else ""
        raise ValueError(
            f"{name} is over SL({part.d}, {part.spec!r}){modulus} "
            f"but {ref_name} over SL({ref.d}, {ref.spec!r})"
        )


# ---------------------------------------------------------------------------
# key generation
# ---------------------------------------------------------------------------


def _is_scalar(x: Matrix) -> bool:
    """Whether x is a scalar matrix, so that conjugation by x is the
    identity; compares entries only."""
    c = x.vals[0][0]
    return all(
        v == (c if a == b else 0) for a, row in enumerate(x.vals) for b, v in enumerate(row)
    )


def keygen(params: MorParams, rng):
    """Sample a conjugator and secret exponent; returns (public, private).

    With require_irreducible_lift the conjugator must have an irreducible
    characteristic polynomial, which pins the Menezes-Wu target field for
    its powers at the full degree-d extension.  (The lifted operator's
    characteristic polynomial itself always carries the factor x - 1,
    conjugation fixing the identity, so irreducibility is demanded of the
    conjugator's own polynomial.)  A draw with phi^m = 1 or phi^m = phi
    is degenerate and drawn again, conjugator and exponent both, up to
    KEYGEN_RETRY_CAP draws in all.
    """
    spec, d = params.spec, params.d
    for _ in range(KEYGEN_RETRY_CAP):
        a = random_gl(spec, d, rng)
        field = KeyField(a)
        if params.require_irreducible_lift and not field.certificate:
            continue
        m = rng.randrange(2, spec.q ** (d * d) - 1)
        a_m = field.power(m)
        if _is_scalar(a_m):  # phi^m = 1
            continue
        phi = Automorphism.from_conjugator(a)
        phi_m = Automorphism.from_conjugator(a_m)  # = phi.power(m)
        if phi_m.images == phi.images:
            continue
        sk = MorPrivateKey(m, a)
        sk.__dict__["field"] = field  # the certificate keygen decided
        return MorPublicKey(params, phi, phi_m), sk
    raise KeygenFailureError(f"no acceptable key in {KEYGEN_RETRY_CAP} draws")


# ---------------------------------------------------------------------------
# encryption / decryption
# ---------------------------------------------------------------------------


def encrypt(pk: MorPublicKey, a: Matrix, rng) -> MorCiphertext:
    """Fresh-r encryption; the rng argument is mandatory by design.

    Refuses a degenerate public key with DegenerateKeyError, and draws r
    again while phi^r is 1 or phi or phi^{mr} = 1, up to
    ENCRYPT_RETRY_CAP draws.  B_phi^r is raised in K_phi and B_phim^r,
    with its inverse, in field_m.  Each call is one message served by
    both fields (KeyField.serve), before any power: from a key's second
    message on, their characteristic polynomials keep the base-q tables
    that pay over the messages to come.  field_m, built at the first
    call, decides K_phi's certificate to be handed it, so that no power
    decides one.
    """
    spec, d = pk.params.spec, pk.params.d
    if a.spec != spec or a.d != d:
        raise ValueError("plaintext matrix has wrong spec or degree")
    if not a.is_sl():
        raise NotInSLError("plaintext must have determinant 1")
    if _is_scalar(recover_conjugator(pk.phi_m)) or pk.phi_m.images == pk.phi.images:
        raise DegenerateKeyError("public key has phi^m = 1 or phi^m = phi")
    pk.field.serve()
    pk.field_m.serve()
    for _ in range(ENCRYPT_RETRY_CAP):
        r = rng.randrange(2, spec.q ** (d * d) - 1)
        b_r = pk.field.power(r)
        if _is_scalar(b_r) or _is_multiple(b_r, pk.field.b):  # phi^r = 1 or phi
            continue
        b_mr, b_mr_inv = pk.field_m.power_and_inverse(r)
        if _is_scalar(b_mr):  # phi^{mr} = 1
            continue
        return MorCiphertext(b_r, mat_mul(mat_mul(b_mr_inv, a), b_mr))  # payload phi^{mr}(a)
    raise DegenerateKeyError(f"no exponent r with phi^{{mr}} != 1 in {ENCRYPT_RETRY_CAP} draws")


def decrypt(sk: MorPrivateKey, ct: MorCiphertext) -> Matrix:
    """Invert phi^{mr} on the payload: raise the ciphertext's conjugator
    B_r to m and conjugate back, b * payload * b^(-1).

    B_r^m and its inverse come from K_B (KeyField.power_of): where keygen
    certified K_B and m >= q^d - 1, a B_r in K_B is handed its
    certificate, and from the second message on it is raised and the
    power inverted in K_B.  Any other key or ciphertext, a parsed key
    among them, raises B_r in a KeyField of its own, and a B_r outside
    K_B fails the test exactly.
    """
    payload, conj = ct.payload, sk.conjugator
    if conj.d != payload.d or conj.spec != payload.spec:
        raise InvalidCiphertextError("ciphertext does not match this key")
    if not payload.is_sl():
        raise InvalidCiphertextError("payload determinant is not 1")
    b, b_inv = sk.field.power_of(ct.conjugator, sk.m)
    return mat_mul(mat_mul(b, payload), b_inv)


def _is_multiple(x: Matrix, b: Matrix) -> bool:
    """Whether x = c b for a scalar c, so that conjugation by x is
    conjugation by b.  c is x's entry at b's last nonzero entry divided by
    b's; encrypt's b is normalized as recover_conjugator returns it, that
    entry 1, and the division costs nothing.  One multiplication per
    nonzero entry of b compared, up to the first entry that differs: a
    non-multiple usually costs one."""
    spec = b.spec
    if (x.spec, x.d) != (spec, b.d):
        return False
    mul = spec._mul_raw
    flat_b, flat_x = tuple(chain(*b.vals)), tuple(chain(*x.vals))
    k = max(k for k, v in enumerate(flat_b) if v)
    c, count, same = flat_x[k], 0, True
    if flat_b[k] != 1:
        c, count = mul(c, spec._inv_raw(flat_b[k])), 1
    for v, y in zip(flat_b, flat_x):
        count += bool(v)
        same = (mul(c, v) if v else 0) == y
        if not same:
            break
    _count_muls(count)
    return same


# ---------------------------------------------------------------------------
# plaintext encoding
# ---------------------------------------------------------------------------


def message_capacity(spec: FieldSpec) -> int:
    """Bytes one field element can carry with the leading pad byte.

    Largest k with 2^(8k+1) <= q, so the padded integer always stays
    below q; for p = 2 this is floor((gamma - 1) / 8).
    """
    return max(0, (spec.q.bit_length() - 2) // 8)


def encode_message(data: bytes, params: MorParams) -> Matrix:
    """Inject bytes into the transvection 1 + lam*e_{1,2}.

    A leading 0x01 byte keeps lam nonzero and makes decoding exact.
    """
    cap = message_capacity(params.spec)
    if len(data) > cap:
        raise CapacityError(f"message of {len(data)} bytes exceeds capacity {cap}")
    n = int.from_bytes(b"\x01" + data, "big")
    lam = params.spec.from_val(n)
    return transvection(params.spec, params.d, 1, 2, lam)


def decode_message(m: Matrix) -> bytes:
    n = m.vals[0][1] if m.d > 1 else 0
    rows = range(m.d)
    if m.vals != tuple(tuple(n if (a, b) == (0, 1) else int(a == b) for b in rows) for a in rows):
        raise MessageFormatError("matrix is not a plaintext transvection")
    if not n:
        raise MessageFormatError("empty coefficient slot")
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    if raw[0] != 1:
        raise MessageFormatError("missing pad byte")
    return raw[1:]
