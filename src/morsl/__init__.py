"""MOR public-key cryptosystem over the special linear group SL(d,q).

Key generation, encryption and decryption via automorphisms presented by
their images on the elementary transvections, plus a desk-scale security
lab: the monomial cycle attack, generic baby-step giant-step, the
Menezes-Wu matrix-to-field discrete-log reduction, centralizer and
conjugator recovery, and a parameter validator.
"""

from .autos import (
    Automorphism,
    BAutomorphism,
    InvalidAutomorphismError,
    apply_field,
    apply_graph,
    conjugator_solution_space,
    recover_conjugator,
)
from .field import (
    FieldElement,
    FieldMismatchError,
    FieldSpec,
    cost_counter,
    cost_reset,
    field_spec,
)
from .fqpoly import FqPoly, char_poly, companion_matrix, is_irreducible
from .matrix import (
    Matrix,
    Permutation,
    SingularMatrixError,
    conjugate,
    det,
    diagonal_matrix,
    identity,
    mat_inv,
    mat_mul,
    mat_pow,
    permutation_matrix,
    random_gl,
    random_sl,
    transvection,
)
from .protocol import (
    CapacityError,
    DegenerateKeyError,
    InvalidCiphertextError,
    KeygenFailureError,
    MessageFormatError,
    MorCiphertext,
    MorParams,
    MorPrivateKey,
    MorPublicKey,
    decode_message,
    decrypt,
    encode_message,
    encrypt,
    keygen,
    message_capacity,
)
from .seclab import (
    IterationBudgetExceeded,
    LiftedOperator,
    MonomialAttackReport,
    ReducibleCharPolyError,
    SecurityEstimate,
    WrongAttackModelError,
    bsgs_dlog,
    centralizer_space,
    lift_operator,
    monomial_cycle_attack,
    mw_reduce,
    validate_params,
)
from .twogen import (
    CDWord,
    UnsupportedParametersError,
    albert_thompson_generators,
    rewrite_transvection_in_cd,
)
from .words import NotInSLError, TransvectionWord, decompose, evaluate, simplify, split_ground

__version__ = "0.1.0"
