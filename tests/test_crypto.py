import random

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from manetsec import crypto, encoding, keymgmt
from manetsec.crypto import (
    CiphertextAuthenticationError,
    DecryptionError,
    DeterministicProvider,
    MalformedCiphertextError,
    RealCryptoProvider,
    dh_contribute,
    is_prime,
    next_prime,
    zk_commit,
    zk_respond,
    zk_setup,
    zk_verify,
)

PROVIDERS = [DeterministicProvider, RealCryptoProvider]


@pytest.fixture(params=PROVIDERS, ids=["double", "real"])
def any_provider(request):
    return request.param()


# ---------------------------------------------------------------------------
# Provider contracts (both implementations)
# ---------------------------------------------------------------------------


def test_hash_deterministic(any_provider):
    assert any_provider.hash(b"abc") == any_provider.hash(b"abc")
    assert len(any_provider.hash(b"abc")) == any_provider.digest_size
    assert any_provider.digest_size >= 16


def test_hash_no_collisions_on_bitflip_probe(provider, rng):
    # Randomized probe: one-bit-different inputs never collide in 10^4 pairs.
    for _ in range(10_000):
        data = bytearray(rng.randbytes(24))
        flipped = bytearray(data)
        bit = rng.randrange(len(data) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert provider.hash(bytes(data)) != provider.hash(bytes(flipped))


def test_sign_verify_roundtrip(any_provider, rng):
    pair = any_provider.generate_keypair(rng)
    other = any_provider.generate_keypair(rng)
    sig = any_provider.sign(pair.private, b"message")
    assert any_provider.verify(pair.public, b"message", sig)
    assert not any_provider.verify(other.public, b"message", sig)
    assert not any_provider.verify(pair.public, b"other message", sig)


def test_verify_malformed_returns_false(any_provider, rng):
    pair = any_provider.generate_keypair(rng)
    assert not any_provider.verify(pair.public, b"m", b"short")
    assert not any_provider.verify(b"not a key", b"m", any_provider.sign(pair.private, b"m"))


@pytest.mark.parametrize("sig", [None, "text", 7, [b"x"]])
def test_verify_non_bytes_signature_returns_false(any_provider, rng, sig):
    pair = any_provider.generate_keypair(rng)
    assert not any_provider.verify(pair.public, b"m", sig)


def test_real_pk_decrypt_of_degenerate_ephemeral_key_is_a_decryption_error(rng):
    # An all-zero X25519 point has low order; the exchange refuses it.
    provider = RealCryptoProvider()
    pair = provider.generate_keypair(rng)
    with pytest.raises(crypto.DecryptionError):
        provider.pk_decrypt(pair.private, bytes(32 + 12 + 40))


def test_sign_malformed_key_raises(any_provider):
    with pytest.raises(crypto.MalformedKeyError):
        any_provider.sign(b"bogus", b"m")


def test_unforgeability_contract(provider, rng):
    # Every (message, signature) pair not produced by sign under the matching
    # key must fail verification.
    pairs = [provider.generate_keypair(rng) for _ in range(4)]
    messages = [b"m1", b"m2", b"m3"]
    signed = [(i, m, provider.sign(pairs[i].private, m)) for i in range(4) for m in messages]
    for key_index, message, sig in signed:
        for other_index in range(4):
            for other_message in messages:
                expected = other_index == key_index and other_message == message
                assert provider.verify(pairs[other_index].public, other_message, sig) == expected


def test_pk_roundtrip(any_provider, rng):
    pair = any_provider.generate_keypair(rng)
    other = any_provider.generate_keypair(rng)
    ct = any_provider.pk_encrypt(pair.public, b"secret payload", rng)
    assert any_provider.pk_decrypt(pair.private, ct) == b"secret payload"
    with pytest.raises(DecryptionError):
        any_provider.pk_decrypt(other.private, ct)


def test_pk_roundtrip_empty_and_large(any_provider, rng):
    pair = any_provider.generate_keypair(rng)
    assert any_provider.pk_decrypt(pair.private, any_provider.pk_encrypt(pair.public, b"", rng)) == b""
    big = rng.randbytes(4096)  # must exceed 1 KiB via the hybrid construction
    assert any_provider.pk_decrypt(pair.private, any_provider.pk_encrypt(pair.public, big, rng)) == big


def test_sym_roundtrip_and_tamper(any_provider, rng):
    key = any_provider.generate_symmetric_key(rng)
    wrong = any_provider.generate_symmetric_key(rng)
    ct = any_provider.sym_encrypt(key, b"group traffic", rng)
    assert any_provider.sym_decrypt(key, ct) == b"group traffic"
    with pytest.raises(CiphertextAuthenticationError):
        any_provider.sym_decrypt(wrong, ct)
    with pytest.raises(CiphertextAuthenticationError):  # a key of another size is a wrong key too
        any_provider.sym_decrypt(key[:5], ct)
    flipped = bytearray(ct)
    flipped[-1] ^= 0x01
    with pytest.raises(CiphertextAuthenticationError):
        any_provider.sym_decrypt(key, bytes(flipped))
    with pytest.raises(MalformedCiphertextError):
        any_provider.sym_decrypt(key, b"x")


def test_deterministic_provider_reproducible():
    a, b = DeterministicProvider(), DeterministicProvider()
    ra, rb = random.Random(42), random.Random(42)
    pa, pb = a.generate_keypair(ra), b.generate_keypair(rb)
    assert pa == pb
    assert a.sign(pa.private, b"x") == b.sign(pb.private, b"x")
    ka, kb = a.generate_symmetric_key(ra), b.generate_symmetric_key(rb)
    assert a.sym_encrypt(ka, b"m", ra) == b.sym_encrypt(kb, b"m", rb)


# (private key, public key, [(data, signature)]), computed before the
# provider kept each public key's MAC key.
SIGNATURE_VECTORS = [
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "5db36a84f49b524a5abaeec0b479007e8abce5b19eedcc3bf30e6d3092f06f9a",
        [
            ("", "0862c3571934d2b6287cda55de1bb78ecca5e7a6838b00c765199fe13334b002"),
            ("6d", "d2d394303ef1fabf8e5dbf2fb7f9e677a890b917b5fc1a29c3a3adb340099f5d"),
            (
                "020000000472726571020000000153020000000144010000000101020000000141",
                "36f1e721dde4c63346ae015cce5201f6594103de0b500f39b9a47c6372c10a7b",
            ),
        ],
    ),
    (
        "a5" * 32,
        "92ec918a170a0cf80d115ee586d3ce65157b64e46d801a966422cd160d355006",
        [
            ("", "7794e53140e149db00bce9893650a927be8bcdb77304b5ace780181e96bc2c14"),
            ("6d", "e569aaaee5b6510ad9a4e1e03d9b5df52619225816f5ba89e7f3b45cd846f9e1"),
            (
                "020000000472726571020000000153020000000144010000000101020000000141",
                "89959aaa334de1faf2618987cafadd4f295dded557863a4f4f85afd61afa60db",
            ),
        ],
    ),
]


@pytest.mark.parametrize("verify_first", [False, True])
def test_deterministic_signatures_match_pinned_vectors(verify_first):
    # Both orders: the MAC key a public key gets is the same whether a
    # verification or a signature derives it first.
    provider = DeterministicProvider()
    for private, public, pairs in SIGNATURE_VECTORS:
        private, public = bytes.fromhex(private), bytes.fromhex(public)
        for data, sig in pairs:
            data, sig = bytes.fromhex(data), bytes.fromhex(sig)
            if verify_first:
                assert provider.verify(public, data, sig)
            assert provider.sign(private, data) == sig
            assert provider.sign(private, bytearray(data)) == sig
            assert provider.verify(public, data, sig)
            assert not provider.verify(public, data + b"x", sig)
            assert not provider.verify(public, data, sig[:-1] + bytes([sig[-1] ^ 1]))
    # Each key's signatures verify under it alone.
    (_, _, [(_, sig), *_]), (_, other, _) = SIGNATURE_VECTORS
    assert not provider.verify(bytes.fromhex(other), b"", bytes.fromhex(sig))


def test_deterministic_memo_keeps_malformed_inputs_failing():
    provider = DeterministicProvider()
    private, public, [(data, sig), *_] = SIGNATURE_VECTORS[0]
    private, public, data, sig = (bytes.fromhex(v) for v in (private, public, data, sig))
    assert provider.verify(public, data, sig)  # the key's MAC key is now kept
    assert not provider.verify(public[:31], data, sig)
    for bad in (None, "text", 7, [sig], bytearray(sig)):
        assert not provider.verify(public, data, bad)
    for private_bad in (private[:31], private + b"\x00", b""):
        with pytest.raises(crypto.MalformedKeyError):
            provider.sign(private_bad, data)
    assert provider.sign(private, data) == sig


def test_deterministic_providers_share_no_memo():
    # No MAC key, public key or verdict one instance keeps is seen by another.
    a, b = crypto.make_provider("test_double"), crypto.make_provider("test_double")
    private, public, [(data, sig), *_] = SIGNATURE_VECTORS[0]
    private, public, data, sig = (bytes.fromhex(v) for v in (private, public, data, sig))
    assert a.sign(private, data) == sig and a.verify(public, data, sig)
    assert a._mac_keys and a._publics == {private: public} and a._verdicts == {(public, data, sig): True}
    assert not (b._mac_keys or b._publics or b._verdicts)
    assert b.verify(public, data, sig)
    assert a._mac_keys == b._mac_keys and a._mac_keys is not b._mac_keys
    assert a._verdicts == b._verdicts and a._verdicts is not b._verdicts
    assert not b._publics


def _flip(data: bytes, bit: int) -> bytes:
    """`data` with one bit flipped, chosen by `bit` modulo its length."""
    flipped = bytearray(data)
    bit %= len(data) * 8
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@given(
    data=st.binary(max_size=120),
    forged=st.binary(max_size=40),
    seed=st.integers(0, 2**32),
    bit=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_a_kept_verdict_answers_only_its_own_triple(data, forged, seed, bit):
    # After one triple verifies, the same instance still refuses a flipped
    # bit of its data or signature, another key and a forged signature, each
    # asked twice; a fresh instance agrees on every case.  The memo holds
    # bytes and bools alone.
    provider = DeterministicProvider()
    rng = random.Random(seed)
    pair, other = provider.generate_keypair(rng), provider.generate_keypair(rng)
    sig = provider.sign(pair.private, data)
    assert provider.verify(pair.public, data, sig)
    cases = [
        (pair.public, data, sig),
        (pair.public, _flip(data, bit) if data else b"\x00", sig),
        (pair.public, data, _flip(sig, bit)),
        (other.public, data, sig),
        (pair.public, data, forged),
        (pair.public, bytearray(data), sig),
    ]
    for public, signed, claimed in cases:
        expected = DeterministicProvider().verify(public, signed, claimed)
        assert expected == (public == pair.public and bytes(signed) == data and claimed == sig)
        assert provider.verify(public, signed, claimed) == expected
        assert provider.verify(public, signed, claimed) == expected
    assert all(type(part) is bytes for key in provider._verdicts for part in key)
    assert all(type(verdict) is bool for verdict in provider._verdicts.values())


@given(
    private=st.one_of(
        st.binary(max_size=64).filter(lambda key: len(key) != 32),
        st.binary(min_size=32, max_size=32).map(bytearray),
    ),
    data=st.binary(max_size=40),
)
@settings(max_examples=40, deadline=None)
def test_a_malformed_private_key_raises_on_every_use(private, data):
    # A seed that is not 32 octets of exact bytes is refused before the
    # public-key memo is asked, on the first call and on every later one,
    # and leaves nothing kept.
    provider = DeterministicProvider()
    ciphertext = provider.pk_encrypt(provider.generate_keypair(random.Random(1)).public, data, random.Random(2))
    for _ in range(3):
        with pytest.raises(crypto.MalformedKeyError):
            provider.sign(private, data)
        with pytest.raises(crypto.MalformedKeyError):
            provider.pk_decrypt(private, ciphertext)
    assert not provider._publics
    if len(private) == 32:  # the same seed as exact bytes signs
        assert provider.sign(bytes(private), data) == DeterministicProvider().sign(bytes(private), data)


@given(st.binary(max_size=200))
@settings(max_examples=30, deadline=None)
def test_sym_roundtrip_property(plaintext):
    provider = DeterministicProvider()
    rng = random.Random(1)
    key = provider.generate_symmetric_key(rng)
    assert provider.sym_decrypt(key, provider.sym_encrypt(key, plaintext, rng)) == plaintext


@given(st.binary(max_size=300).flatmap(lambda a: st.tuples(st.just(a), st.binary(min_size=len(a), max_size=len(a)))))
def test_integer_xor_equals_bytewise_xor(pair):
    # The reference is the byte loop the test provider once used; leading
    # zero bytes on either side must survive the trip through an integer.
    data, keystream = pair
    assert crypto._xor(data, keystream) == bytes(a ^ b for a, b in zip(data, keystream))


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 3410])
@pytest.mark.parametrize("key_size", [0, 16, 32, 64, 80])
def test_keystream_equals_its_per_block_definition(length, key_size):
    # Block i is keyed BLAKE2b over nonce || i; an 80-octet key checks that
    # only its first 64 octets count, as in `_b2`.
    key, nonce = bytes(range(key_size)), bytes(range(100, 116))
    blocks = [crypto._b2(nonce + i.to_bytes(8, "big"), key=key, size=64) for i in range((length + 63) // 64)]
    stream = DeterministicProvider()._keystream(key, nonce, length)
    assert stream == b"".join(blocks)[:length]
    assert stream == DeterministicProvider()._keystream(key[:64], nonce, length)


# ---------------------------------------------------------------------------
# Held seals: the sealing instance opens its own seal at the cost of its tag
# ---------------------------------------------------------------------------

# A 64-member directory as a founding leader seals it, about 4 KB.
DIRECTORY = encoding.encode([[f"n{i}", bytes([i]) * 32] for i in range(64)])


def _seal(provider, mode, plaintext, seed=1):
    """A `mode` seal of `plaintext`, with the key that opens it and a wrong one."""
    rng = random.Random(seed)
    if mode == "sym":
        key = provider.generate_symmetric_key(rng)
        return provider.sym_encrypt(key, plaintext, rng), key, bytes(32)
    pair = provider.generate_keypair(rng)
    return provider.pk_encrypt(pair.public, plaintext, rng), pair.private, provider.generate_keypair(rng).private


def _open(provider, mode, key, ciphertext):
    """The plaintext, or the class of the DecryptionError raised."""
    try:
        if mode == "sym":
            return provider.sym_decrypt(key, ciphertext)
        return provider.pk_decrypt(key, ciphertext)
    except DecryptionError as exc:
        return type(exc)


def _count_keystreams(provider) -> list:
    """A list that gains an entry for each keystream `provider` derives."""
    calls = []
    derive = provider._keystream
    provider._keystream = lambda *args: calls.append(args) or derive(*args)
    return calls


def _damaged(ciphertext, mode) -> dict:
    """Each damage the tag must catch, by name.  A public-key seal leads
    with the 16-octet ephemeral value ahead of its nonce."""
    start = 16 if mode == "pk" else 0

    def flip(at):
        return ciphertext[:at] + bytes([ciphertext[at] ^ 1]) + ciphertext[at + 1 :]

    damaged = {
        "nonce": flip(start),
        "tag": flip(len(ciphertext) - 1),
        "truncated": ciphertext[:-1],
        "shorter_than_nonce_and_tag": ciphertext[: start + 31],
    }
    if len(ciphertext) > start + 32:
        damaged["body"] = flip(start + 16)
    if mode == "pk":
        damaged["ephemeral"] = flip(0)
    return damaged


@given(mode=st.sampled_from(["sym", "pk"]), plaintext=st.binary(max_size=300))
@example(mode="sym", plaintext=DIRECTORY)
@example(mode="pk", plaintext=DIRECTORY)
@settings(max_examples=60, deadline=None)
def test_held_seal_opens_as_a_fresh_instance_does(mode, plaintext):
    sealer = DeterministicProvider()
    ciphertext, key, _ = _seal(sealer, mode, plaintext)
    calls = _count_keystreams(sealer)
    fresh = _open(DeterministicProvider(), mode, key, ciphertext)
    assert fresh == plaintext
    assert _open(sealer, mode, key, ciphertext) == fresh
    assert not calls and not sealer._held
    # A second open is computed, and gives the same plaintext.
    assert _open(sealer, mode, key, ciphertext) == fresh
    assert len(calls) == 1


@given(mode=st.sampled_from(["sym", "pk"]), plaintext=st.binary(max_size=300))
@example(mode="sym", plaintext=DIRECTORY)
@example(mode="pk", plaintext=DIRECTORY)
@settings(max_examples=40, deadline=None)
def test_held_seal_fails_damage_and_wrong_keys_as_a_fresh_instance_does(mode, plaintext):
    sealer = DeterministicProvider()
    ciphertext, key, wrong = _seal(sealer, mode, plaintext)
    attempts = [(key, damaged) for damaged in _damaged(ciphertext, mode).values()] + [(wrong, ciphertext)]
    expected = [_open(DeterministicProvider(), mode, *attempt) for attempt in attempts]
    assert all(isinstance(outcome, type) for outcome in expected) and MalformedCiphertextError in expected
    # Before the held seal's first open: every attempt fails, and none drops it.
    assert [_open(sealer, mode, *attempt) for attempt in attempts] == expected
    calls = _count_keystreams(sealer)
    assert _open(sealer, mode, key, ciphertext) == plaintext and not calls
    # After it: the same failures.
    assert [_open(sealer, mode, *attempt) for attempt in attempts] == expected


def test_deterministic_providers_share_no_held_seal():
    a, b = crypto.make_provider("test_double"), crypto.make_provider("test_double")
    ciphertext, key, _ = _seal(a, "sym", DIRECTORY)
    assert a._held and not b._held
    calls = _count_keystreams(b)
    assert b.sym_decrypt(key, ciphertext) == DIRECTORY and len(calls) == 1
    assert len(a._held) == 1


def test_held_seals_are_bounded_and_the_oldest_goes_first():
    provider = DeterministicProvider()
    provider.HELD_SEALS = 3
    rng, key = random.Random(2), bytes(range(32))
    sealed = [provider.sym_encrypt(key, bytes([i]) * 40, rng) for i in range(4)]
    assert len(provider._held) == 3
    calls = _count_keystreams(provider)
    assert [provider.sym_decrypt(key, ct) for ct in sealed] == [bytes([i]) * 40 for i in range(4)]
    assert len(calls) == 1 and calls[0][1] == sealed[0][:16]  # only the dropped seal is derived again


@given(
    mode=st.sampled_from(["sym", "pk"]),
    plaintext=st.binary(max_size=300),
    seed=st.integers(0, 2**16),
    key=st.binary(max_size=80),
)
@example(mode="sym", plaintext=DIRECTORY, seed=0, key=bytes(80))
@settings(max_examples=60, deadline=None)
def test_a_provider_with_warm_caches_answers_as_a_fresh_one(mode, plaintext, seed, key):
    # The warm instance has sealed, opened and failed to open under every
    # key in play, so whatever it keeps per key is filled in; each open still
    # gives a fresh instance's plaintext or failure class.  A drawn symmetric
    # key may be of any length, 64 octets and more included.
    warm = DeterministicProvider()
    ciphertext, right, wrong = _seal(warm, mode, plaintext, seed)
    if mode == "sym":
        if key:
            ciphertext, right = warm.sym_encrypt(key, plaintext, random.Random(seed)), key
        wrong = right[:-1] + bytes([right[-1] ^ 1])  # one octet off, past the 64th of a long key
    flipped = ciphertext[:-1] + bytes([ciphertext[-1] ^ 1])
    attempts = [(right, ciphertext), (wrong, ciphertext), (right, flipped), (right, ciphertext[:-1])]
    for attempt in attempts * 2:
        _open(warm, mode, *attempt)
    expected = [_open(DeterministicProvider(), mode, *attempt) for attempt in attempts]
    assert expected[0] == plaintext and all(isinstance(outcome, type) for outcome in expected[1:])
    assert [_open(warm, mode, *attempt) for attempt in attempts] == expected
    # A seal made by either instance opens in the other.
    rng = random.Random(seed + 1)
    for sealer, opener in ((warm, DeterministicProvider()), (DeterministicProvider(), warm)):
        if mode == "sym":
            sealed = sealer.sym_encrypt(right, plaintext, rng)
        else:
            sealed = sealer.pk_encrypt(sealer._public_of(right), plaintext, rng)
        assert _open(opener, mode, right, sealed) == plaintext

# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

def test_is_prime_agrees_with_sieve_below_200000():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    primes = [n for n in range(limit) if sieve[n]]
    assert [n for n in range(limit) if is_prime(n)] == primes
    assert all(next_prime(a) == b for a, b in zip(primes, primes[1:]))
    assert [next_prime(n) for n in range(-3, 12)] == [2, 2, 2, 2, 2, 3, 5, 5, 7, 7, 11, 11, 11, 11, 13]


# The least strong pseudoprime to bases 2, 7 and 61 (Jaeschke 1993): the
# bound of is_prime's exact range.
JAESCHKE = 4_759_123_141
# The largest prime below it.
LAST_PRIME = 4_759_123_129


def _strong_probable_prime(n, base):
    """Whether odd `n` passes the Miller-Rabin round to `base`."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_is_prime_at_the_small_base_boundary():
    assert JAESCHKE == 48_781 * 97_561
    assert all(_strong_probable_prime(JAESCHKE, base) for base in (2, 7, 61))
    # Each small base is 0 mod itself, which proves nothing and is skipped.
    assert all(is_prime(base) for base in (2, 7, 61))
    # Exact up to the bound.
    assert is_prime(LAST_PRIME) and not any(is_prime(n) for n in range(LAST_PRIME + 1, JAESCHKE))
    assert next_prime(LAST_PRIME - 1) == LAST_PRIME


def test_is_prime_refuses_from_the_small_base_bound():
    # From the bound on, a refusal and not an answer, also in what builds on it.
    for n in (JAESCHKE, JAESCHKE + 10, 2**64):
        with pytest.raises(ValueError):
            is_prime(n)
    with pytest.raises(ValueError):
        next_prime(LAST_PRIME)
    with pytest.raises(ValueError):
        zk_setup(sympy.nextprime(JAESCHKE), 3, 2)


def test_next_prime_matches_sympy_on_drawn_values():
    # Shaped like keymgmt._draw_prime's draws, then up to the bound.
    rng = random.Random(20)
    for _ in range(20_000):
        value = rng.getrandbits(32) | (1 << 31)
        assert next_prime(value) == sympy.nextprime(value)
    assert next_prime(2**32 - 1) == sympy.nextprime(2**32 - 1)
    for value in range(LAST_PRIME - 4_000, LAST_PRIME, 7):
        assert next_prime(value) == sympy.nextprime(value)


# The least strong pseudoprimes to the first one to eight prime bases (OEIS
# A014233, whose twelfth term is psi_12).  None is taken for a prime: below
# JAESCHKE is_prime answers False, and from there on it refuses to answer.
@pytest.mark.parametrize(
    "pseudoprime",
    [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051],
)
def test_is_prime_rejects_strong_pseudoprimes_below_psi_12(pseudoprime):
    if pseudoprime < JAESCHKE:
        assert not is_prime(pseudoprime)
    else:
        with pytest.raises(ValueError):
            is_prime(pseudoprime)


# ---------------------------------------------------------------------------
# Quadratic-residue identification
# ---------------------------------------------------------------------------


def test_zk_setup_hand_values():
    params, prover = zk_setup(3, 7, 2)
    assert params.modulus == 21
    assert params.square == 4
    assert prover.secret == 2


def test_zk_setup_rejects_bad_inputs():
    with pytest.raises(ValueError):
        zk_setup(7, 7, 2)  # equal primes
    with pytest.raises(ValueError):
        zk_setup(4, 7, 2)  # non-prime
    with pytest.raises(ValueError):
        zk_setup(3, 7, 1)  # secret at lower bound
    with pytest.raises(ValueError):
        zk_setup(3, 7, 21)  # secret at upper bound


def test_zk_commit_hand_values(rng):
    # Commitments are the square of the witness.
    assert pow(5, 2, 21) == 4
    assert pow(20, 2, 21) == 1  # 400 mod 21
    for _ in range(1000):
        commitment, witness = zk_commit(rng, 21)
        assert 1 < witness < 21
        assert commitment == pow(witness, 2, 21)


def test_zk_respond_hand_values():
    assert zk_respond(5, 2, 0, 21) == 5  # challenge 0 returns the witness
    assert zk_respond(5, 2, 1, 21) == 10
    assert zk_respond(5, 2, 3, 21) == 19  # 40 mod 21


def test_zk_verify_hand_values():
    assert zk_verify(4, 4, 1, 10, 21)  # 100 mod 21 == 16 == 4*4
    assert zk_verify(4, 4, 3, 19, 21)  # 361 mod 21 == 4 == 4*64 mod 21
    assert not zk_verify(4, 4, 1, 9, 21)  # 81 mod 21 == 18 != 16


def test_zk_completeness_exhaustive_small_scale():
    # For every prime pair in the pool, every valid secret, every challenge
    # 0..64: an honest exchange always verifies.
    pool = [(11, 13), (11, 17), (13, 17)]
    rng = random.Random(7)
    for p, q in pool:
        modulus = p * q
        for secret in range(2, modulus):
            params, prover = zk_setup(p, q, secret)
            commitment, witness = zk_commit(rng, modulus)
            for challenge in range(65):
                response = zk_respond(witness, secret, challenge, modulus)
                assert zk_verify(commitment, params.square, challenge, response, modulus)


def test_zk_soundness_random_answer_forger():
    # A forger that commits honestly but answers with random values wins a
    # 1-bit challenge with frequency well under the 0.6 bound.
    rng = random.Random(99)
    params, _ = zk_setup(1009, 1013, 12345)
    wins = 0
    trials = 10_000
    for _ in range(trials):
        commitment, _witness = zk_commit(rng, params.modulus)
        challenge = rng.getrandbits(1)
        response = rng.randrange(2, params.modulus)
        if zk_verify(commitment, params.square, challenge, response, params.modulus):
            wins += 1
    assert wins / trials <= 0.6


def test_zk_guessing_forger_wins_half_of_one_bit_challenges():
    # The classic cheat: guess the challenge, build the commitment backwards.
    rng = random.Random(5)
    p, q = 1009, 1013
    modulus = p * q
    secret = 2024  # gcd(secret, modulus) == 1 so the square is invertible
    params, _ = zk_setup(p, q, secret)
    wins = 0
    trials = 10_000
    for _ in range(trials):
        guess = rng.getrandbits(1)
        response = rng.randrange(2, modulus)
        commitment = (pow(response, 2, modulus) * pow(params.square, -guess, modulus)) % modulus
        challenge = rng.getrandbits(1)
        if zk_verify(commitment, params.square, challenge, response, modulus):
            wins += 1
    assert 0.4 <= wins / trials <= 0.6


# ---------------------------------------------------------------------------
# Ring key-agreement step
# ---------------------------------------------------------------------------


def test_dh_contribute_two_party_hand_values():
    # g=5, p=23, secrets 6 and 15: both orders land on 2.
    assert dh_contribute(5, 23, 6, 5) == 8  # 5^6 mod 23
    assert dh_contribute(5, 23, 15, 8) == 2
    assert dh_contribute(5, 23, 15, 5) == 19
    assert dh_contribute(5, 23, 6, 19) == 2


def test_dh_contribute_degenerate_rejected():
    with pytest.raises(ValueError):
        dh_contribute(5, 23, 6, 0)
    with pytest.raises(ValueError):
        dh_contribute(5, 23, 6, 1)
    with pytest.raises(ValueError):
        dh_contribute(1, 23, 6, 5)


def test_dh_three_party_equal_secrets():
    # All secrets equal s: everyone derives g^(s^3).
    g, p, s = 5, 23, 6
    via_ring = dh_contribute(g, p, s, dh_contribute(g, p, s, dh_contribute(g, p, s, g)))
    assert via_ring == pow(g, s * s * s, p)


# ---------------------------------------------------------------------------
# The ring's constants under dh_contribute
# ---------------------------------------------------------------------------

G, P = keymgmt.RING_GENERATOR, keymgmt.RING_MODULUS


def test_dh_checks_still_raise_for_the_table():
    # Every ring step is dh_contribute's: it accepts the ring's generator
    # and modulus, and its checks still reject a bad value.
    assert dh_contribute(G, P, 6, G) == pow(G, 6, P)
    for generator, modulus in ((1, 23), (0, 23), (23, 23), (30, 23)):
        with pytest.raises(ValueError):
            dh_contribute(generator, modulus, 6, generator)
    with pytest.raises(ValueError, match="degenerate"):
        dh_contribute(G, P, 6, 1)
    with pytest.raises(ValueError, match="degenerate"):
        dh_contribute(G, P, 6, 0)
    with pytest.raises(ValueError, match="generator"):
        dh_contribute(P, P, 6, 5)
