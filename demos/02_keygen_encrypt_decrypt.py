#!/usr/bin/env python3
"""The full public-key flow at desk scale.

Keys are automorphisms of SL(d,q) given by their images on the
generators 1 + e_{i,j}; the secret is the exponent linking the two
public automorphisms.  Plaintext bytes ride inside one transvection.
"""

import json
import random

from morsl import (
    MorParams,
    decode_message,
    decrypt,
    encode_message,
    encrypt,
    field_spec,
    keygen,
    message_capacity,
)

rng = random.Random(2024)

# A 64-bit binary field gives 7 bytes of capacity per ciphertext.
params = MorParams(field_spec(2, 64), d=3)
print("message capacity:", message_capacity(params.spec), "bytes")

pk, sk = keygen(params, rng)
print("secret exponent has", sk.m.bit_length(), "bits")
print("public key holds", len(pk.phi.images), "generator images of degree", params.d)

plaintext = b"attack!"
msg_matrix = encode_message(plaintext, params)
# The trace and determinant of the plaintext are fixed, but the slot is not
# hidden: tr(Y B_phi^k) = tr(a B_phi^k) for the payload Y and every k, which
# gives the plaintext away (ROADMAP item 10).
print("plaintext transvection trace:", msg_matrix.trace().val, "(always d mod p)")

ct = encrypt(pk, msg_matrix, rng)
print("ciphertext payload is again in SL:", ct.payload.is_sl())

recovered = decrypt(sk, ct)
print("decrypted bytes:", decode_message(recovered))

# Everything serializes to JSON; keys survive a round trip byte for byte.
blob = json.dumps(pk.to_json(), sort_keys=True)
print("public key JSON is", len(blob), "bytes")

# Fresh randomness per encryption: the same plaintext encrypts differently.
ct2 = encrypt(pk, msg_matrix, rng)
print("same plaintext, different ciphertext:", ct2.payload != ct.payload)
print("... but the same decryption:", decode_message(decrypt(sk, ct2)) == plaintext)
