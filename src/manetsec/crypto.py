"""Cryptographic primitives behind a swappable provider interface.

Two providers implement the same surface:

* :class:`DeterministicProvider` -- a keyed-BLAKE2b construction used by the
  simulator.  Every operation is a pure function of its inputs and the
  explicit random source, so a seeded run is bit-reproducible.  It is NOT a
  real public-key scheme (anyone holding a public key could forge under it);
  it exists to make simulations fast and replayable while honouring the
  behavioural contracts (round trips, wrong-key failures, tamper detection).
* :class:`RealCryptoProvider` -- Ed25519 signatures, X25519+ChaCha20-Poly1305
  hybrid public-key encryption and ChaCha20-Poly1305 symmetric encryption,
  for runs where actual cryptographic strength matters.

A run shares one provider with every node and an audit makes its own, so each
instance carries the message layer's directory memo (``directories``) too.

The quadratic-residue identification arithmetic (``zk_*``), the primality
test behind it (``is_prime``, ``next_prime``) and the ring key-agreement step
(``dh_contribute``) are provider-independent integer math and live here.
The primality test is exact below 4,759,123,141, which covers a leader's
32-bit prime draws, and refuses anything larger with ``ValueError``.
"""

from __future__ import annotations

import hmac
import hashlib
import random
from dataclasses import dataclass


class CryptoError(Exception):
    """Base class for failures in this module."""


class MalformedKeyError(CryptoError):
    """Key material does not have the provider's expected shape."""


class DecryptionError(CryptoError):
    """Base class for decryption failures."""


class CiphertextAuthenticationError(DecryptionError):
    """Ciphertext failed its integrity check (wrong key or tampering)."""


class MalformedCiphertextError(DecryptionError):
    """Ciphertext is structurally invalid (too short, bad framing)."""


@dataclass(frozen=True)
class KeyPair:
    public: bytes
    private: bytes


# ---------------------------------------------------------------------------
# Deterministic simulation provider
# ---------------------------------------------------------------------------

_SEED_LEN = 32
_MAC_LEN = 16
_NONCE_LEN = 16


def _b2(data: bytes, key: bytes = b"", size: int = 32) -> bytes:
    return hashlib.blake2b(data, key=key[:64], digest_size=size).digest()


def _xor(data: bytes, keystream: bytes) -> bytes:
    """`data` XOR an equally long keystream, as one big-integer operation."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")).to_bytes(len(data), "big")


class DeterministicProvider:
    """Keyed-BLAKE2b stand-ins for hash/sign/encrypt; fully reproducible.

    Public keys are derived from private seeds by hashing, and signatures
    are MACs keyed off the public key, so a holder of the public key could
    compute valid signatures.  Simulated principals only ever use keys that
    are in their legitimate knowledge set, so the behavioural contracts the
    simulator relies on (verification, tamper detection, wrong-key failure)
    all hold.  Do not use outside simulation.

    Each instance keeps four memos, each filled on first use:
    a private seed's public key, so `sign` and `pk_decrypt` derive it once
    (a seed that is not 32 octets of exact `bytes` raises before any
    lookup, on every call); a public key's signature MAC key, for every
    later signature and verification under that key; each symmetric key's
    tag key (a public-key seal's content key counts), so an open under a
    wrong key costs one keyed hash, over the nonce and body; and the
    verdict of each (public key, data, signature) that `verify` has MACed.
    So `sign` MACs its full data on every call, and `verify` MACs it the
    first time an instance is asked about that exact triple and returns the
    kept verdict for it after that.  Memo keys and values are `bytes` and
    `bool` alone, so the cycle collector need not walk them.

    Each instance also holds the plaintext of every seal it makes (a held
    seal), keyed by the seal's key, nonce and tag, until that instance first
    opens the seal under the same key: the open still checks the length and
    the tag, then hands back the held plaintext instead of deriving the
    keystream again, and drops it.  A wrong key, a damaged ciphertext or
    another instance finds nothing held and fails or decrypts as before.  At
    most `HELD_SEALS` seals are held; a new seal drops the oldest.
    """

    name = "test_double"
    digest_size = 32
    sym_key_size = 32
    HELD_SEALS = 4096

    def __init__(self):
        self._publics: dict[bytes, bytes] = {}  # private seed -> its public key
        self._mac_keys: dict[bytes, bytes] = {}  # public key -> its signature MAC key
        self._verdicts: dict[tuple, bool] = {}  # (public key, data, signature) -> what verify returned
        self._held: dict[tuple, bytes] = {}  # (key, nonce, tag) -> plaintext, oldest first
        self._tag_keys: dict[bytes, bytes] = {}  # symmetric key -> its tag MAC key
        self.directories: dict = {}  # the message layer's directory memo; see messages._read

    def _mac_key(self, public: bytes) -> bytes:
        mac_key = self._mac_keys.get(public)
        if mac_key is None:
            mac_key = self._mac_keys[public] = _b2(public, key=b"manetsec.sig")
        return mac_key

    def _tag_key(self, key: bytes) -> bytes:
        key = bytes(key)
        tag_key = self._tag_keys.get(key)
        if tag_key is None:
            tag_key = self._tag_keys[key] = _b2(key, key=b"manetsec.tag")
        return tag_key

    def hash(self, data: bytes) -> bytes:
        return _b2(bytes(data))

    def generate_keypair(self, rng: random.Random) -> KeyPair:
        seed = rng.randbytes(_SEED_LEN)
        return KeyPair(public=_b2(seed, key=b"manetsec.pub"), private=seed)

    def _public_of(self, private: bytes) -> bytes:
        if type(private) is not bytes or len(private) != _SEED_LEN:
            raise MalformedKeyError("private key must be a 32-octet bytes seed")
        public = self._publics.get(private)
        if public is None:
            public = self._publics[private] = _b2(private, key=b"manetsec.pub")
        return public

    def sign(self, private: bytes, data: bytes) -> bytes:
        return _b2(bytes(data), key=self._mac_key(self._public_of(private)))

    def verify(self, public: bytes, data: bytes, sig: bytes) -> bool:
        if len(public) != 32 or not isinstance(sig, bytes):
            return False
        asked = (bytes(public), bytes(data), bytes(sig))
        verdict = self._verdicts.get(asked)
        if verdict is None:
            verdict = self._verdicts[asked] = hmac.compare_digest(_b2(asked[1], key=self._mac_key(asked[0])), sig)
        return verdict

    def pk_encrypt(self, public: bytes, plaintext: bytes, rng: random.Random) -> bytes:
        if len(public) != 32:
            raise MalformedKeyError("public key must be 32 octets")
        eph = rng.randbytes(_NONCE_LEN)
        content_key = _b2(public + eph, key=b"manetsec.pkwrap")
        return eph + self._seal(content_key, bytes(plaintext), rng)

    def pk_decrypt(self, private: bytes, ciphertext: bytes) -> bytes:
        ciphertext = bytes(ciphertext)
        if len(ciphertext) < _NONCE_LEN:
            raise MalformedCiphertextError("ciphertext shorter than header")
        eph, sealed = ciphertext[:_NONCE_LEN], ciphertext[_NONCE_LEN:]
        content_key = _b2(self._public_of(private) + eph, key=b"manetsec.pkwrap")
        return self._open(content_key, sealed)

    def generate_symmetric_key(self, rng: random.Random) -> bytes:
        return rng.randbytes(self.sym_key_size)

    def sym_encrypt(self, key: bytes, plaintext: bytes, rng: random.Random) -> bytes:
        return self._seal(key, bytes(plaintext), rng)

    def sym_decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        return self._open(key, bytes(ciphertext))

    def _keystream(self, key: bytes, nonce: bytes, length: int) -> bytes:
        """Block i is `_b2(nonce + i.to_bytes(8, "big"), key=key, size=64)`;
        BLAKE2b streams, so each block resumes one state that has hashed `nonce`."""
        state = hashlib.blake2b(nonce, key=key[:64], digest_size=64)
        blocks = []
        for counter in range((length + 63) // 64):
            block = state.copy()
            block.update(counter.to_bytes(8, "big"))
            blocks.append(block.digest())
        return b"".join(blocks)[:length]

    def _seal(self, key: bytes, plaintext: bytes, rng: random.Random) -> bytes:
        nonce = rng.randbytes(_NONCE_LEN)
        body = _xor(plaintext, self._keystream(key, nonce, len(plaintext)))
        tag = _b2(nonce + body, key=self._tag_key(key), size=_MAC_LEN)
        held = self._held
        if len(held) >= self.HELD_SEALS:
            del held[next(iter(held))]
        held[bytes(key), nonce, tag] = plaintext
        return nonce + body + tag

    def _open(self, key: bytes, ciphertext: bytes) -> bytes:
        if len(ciphertext) < _NONCE_LEN + _MAC_LEN:
            raise MalformedCiphertextError("ciphertext shorter than nonce plus tag")
        tag = ciphertext[-_MAC_LEN:]
        if not hmac.compare_digest(tag, _b2(ciphertext[:-_MAC_LEN], key=self._tag_key(key), size=_MAC_LEN)):
            raise CiphertextAuthenticationError("ciphertext failed authentication")
        # The tag binds the body to this key and nonce, so a held seal with
        # both and this tag has this body.
        nonce = ciphertext[:_NONCE_LEN]
        plaintext = self._held.pop((bytes(key), nonce, tag), None)
        if plaintext is not None:
            return plaintext
        body = ciphertext[_NONCE_LEN:-_MAC_LEN]
        return _xor(body, self._keystream(key, nonce, len(body)))


# ---------------------------------------------------------------------------
# Real provider (Ed25519 / X25519 / ChaCha20-Poly1305)
# ---------------------------------------------------------------------------


class RealCryptoProvider:
    """Actual cryptography via the ``cryptography`` package.

    Key pairs bundle an Ed25519 signing key with an X25519 key-agreement
    key (32+32 octets on each side).  Public-key encryption is a hybrid:
    an ephemeral X25519 exchange feeds HKDF, and the derived key seals the
    payload with ChaCha20-Poly1305, so arbitrarily long plaintexts work.
    Randomness still comes from the caller's explicit source so seeded
    runs remain reproducible.
    """

    name = "real_crypto"
    digest_size = 32
    sym_key_size = 32

    def __init__(self):
        from cryptography.hazmat.primitives.asymmetric import ed25519, x25519
        from cryptography.hazmat.primitives.ciphers import aead
        from cryptography.hazmat.primitives.kdf.hkdf import HKDF
        from cryptography.hazmat.primitives import hashes
        from cryptography import exceptions as crypto_exceptions

        self._ed25519 = ed25519
        self._x25519 = x25519
        self._aead = aead
        self._hkdf_cls = HKDF
        self._hashes = hashes
        self._invalid_sig = crypto_exceptions.InvalidSignature
        self._invalid_tag = crypto_exceptions.InvalidTag
        self.directories: dict = {}  # the message layer's directory memo; see messages._read

    def hash(self, data: bytes) -> bytes:
        return hashlib.sha256(bytes(data)).digest()

    def generate_keypair(self, rng: random.Random) -> KeyPair:
        sign_seed = rng.randbytes(32)
        kex_seed = rng.randbytes(32)
        sign_key = self._ed25519.Ed25519PrivateKey.from_private_bytes(sign_seed)
        kex_key = self._x25519.X25519PrivateKey.from_private_bytes(kex_seed)
        return KeyPair(
            public=self._raw_public(sign_key.public_key()) + self._raw_public(kex_key.public_key()),
            private=sign_seed + kex_seed,
        )

    def _raw_public(self, key) -> bytes:
        from cryptography.hazmat.primitives import serialization

        return key.public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )

    def _split_private(self, private: bytes):
        if len(private) != 64:
            raise MalformedKeyError("private key must be 64 octets (sign seed + kex seed)")
        return private[:32], private[32:]

    def sign(self, private: bytes, data: bytes) -> bytes:
        sign_seed, _ = self._split_private(private)
        key = self._ed25519.Ed25519PrivateKey.from_private_bytes(sign_seed)
        return key.sign(bytes(data))

    def verify(self, public: bytes, data: bytes, sig: bytes) -> bool:
        if len(public) != 64 or not isinstance(sig, bytes):
            return False
        try:
            pub = self._ed25519.Ed25519PublicKey.from_public_bytes(public[:32])
            pub.verify(sig, bytes(data))
        except (self._invalid_sig, ValueError):
            return False
        return True

    def _hybrid_key(self, shared: bytes, eph_public: bytes) -> bytes:
        hkdf = self._hkdf_cls(
            algorithm=self._hashes.SHA256(),
            length=32,
            salt=None,
            info=b"manetsec.hybrid" + eph_public,
        )
        return hkdf.derive(shared)

    def pk_encrypt(self, public: bytes, plaintext: bytes, rng: random.Random) -> bytes:
        if len(public) != 64:
            raise MalformedKeyError("public key must be 64 octets (sign + kex)")
        recipient = self._x25519.X25519PublicKey.from_public_bytes(public[32:])
        eph = self._x25519.X25519PrivateKey.from_private_bytes(rng.randbytes(32))
        eph_pub = self._raw_public(eph.public_key())
        key = self._hybrid_key(eph.exchange(recipient), eph_pub)
        nonce = rng.randbytes(12)
        sealed = self._aead.ChaCha20Poly1305(key).encrypt(nonce, bytes(plaintext), eph_pub)
        return eph_pub + nonce + sealed

    def pk_decrypt(self, private: bytes, ciphertext: bytes) -> bytes:
        ciphertext = bytes(ciphertext)
        if len(ciphertext) < 32 + 12 + 16:
            raise MalformedCiphertextError("hybrid ciphertext too short")
        _, kex_seed = self._split_private(private)
        eph_pub, nonce, sealed = ciphertext[:32], ciphertext[32:44], ciphertext[44:]
        own = self._x25519.X25519PrivateKey.from_private_bytes(kex_seed)
        peer = self._x25519.X25519PublicKey.from_public_bytes(eph_pub)
        try:
            shared = own.exchange(peer)
        except ValueError as exc:  # a low-order ephemeral key
            raise MalformedCiphertextError("hybrid ciphertext has a degenerate ephemeral key") from exc
        key = self._hybrid_key(shared, eph_pub)
        try:
            return self._aead.ChaCha20Poly1305(key).decrypt(nonce, sealed, eph_pub)
        except self._invalid_tag as exc:
            raise CiphertextAuthenticationError("hybrid ciphertext failed authentication") from exc

    def generate_symmetric_key(self, rng: random.Random) -> bytes:
        return rng.randbytes(self.sym_key_size)

    def sym_encrypt(self, key: bytes, plaintext: bytes, rng: random.Random) -> bytes:
        nonce = rng.randbytes(12)
        return nonce + self._aead.ChaCha20Poly1305(key).encrypt(
            nonce, bytes(plaintext), b""
        )

    def sym_decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        ciphertext = bytes(ciphertext)
        if len(ciphertext) < 12 + 16:
            raise MalformedCiphertextError("ciphertext shorter than nonce plus tag")
        if len(key) != self.sym_key_size:
            # A key of another length is a wrong key: nothing opens under it.
            raise CiphertextAuthenticationError(f"key is not {self.sym_key_size} bytes")
        try:
            return self._aead.ChaCha20Poly1305(key).decrypt(
                ciphertext[:12], ciphertext[12:], b""
            )
        except self._invalid_tag as exc:
            raise CiphertextAuthenticationError("ciphertext failed authentication") from exc


# Each provider name a scenario or the command line accepts, with the
# provider it makes; the provider's `name` is the canonical one.
PROVIDERS = {
    "test": DeterministicProvider,
    "test_double": DeterministicProvider,
    "real": RealCryptoProvider,
    "real_crypto": RealCryptoProvider,
}


def make_provider(name: str):
    if name not in PROVIDERS:
        raise ValueError(f"unknown crypto provider {name!r}")
    return PROVIDERS[name]()


# ---------------------------------------------------------------------------
# Integer arithmetic: primality, identification scheme, ring DH
# ---------------------------------------------------------------------------

# Miller-Rabin with the bases 2, 7 and 61 has no strong pseudoprime below
# 4,759,123,141 = 48,781 * 97,561 (Jaeschke, Math. Comp. 1993), so below
# that bound the test is exact.  The bound lies above every 32-bit number,
# so it covers every draw of a leader's identification primes.
_MR_BASES = (2, 7, 61)
_MR_BOUND = 4_759_123_141
# Trial division by the primes up to 37 rules out most candidates before a
# Miller-Rabin round; it halves the time a leader spends drawing its primes.
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for ``n`` below 4,759,123,141.

    Trial division by the primes up to 37, then Miller-Rabin with the bases
    2, 7 and 61.  A base that is 0 mod ``n`` proves nothing and is skipped
    (61 is prime but is its own witness).  Raises ``ValueError`` at or above
    4,759,123,141, where those bases no longer make the test exact.
    """
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is beyond the exact range of the primality test")
    for prime in _TRIAL_PRIMES:
        if n % prime == 0:
            return n == prime
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for base in _MR_BASES:
        if base % n == 0:
            continue
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The smallest prime strictly greater than ``n``; ``ValueError`` when
    the search reaches :func:`is_prime`'s bound."""
    if n < 2:
        return 2
    candidate = n + 1 + (n & 1)
    while not is_prime(candidate):
        candidate += 2
    return candidate


@dataclass(frozen=True)
class ZkPublicParams:
    """Announced identification parameters: composite modulus and the
    square of the prover's secret."""

    modulus: int
    square: int


@dataclass(frozen=True)
class ZkProverSecret:
    secret: int
    modulus: int


def zk_setup(p: int, q: int, secret: int) -> tuple[ZkPublicParams, ZkProverSecret]:
    """Build identification parameters from two distinct primes and a secret.

    The announced values are the composite modulus ``p*q`` and the secret's
    square modulo it; the prover keeps the secret.
    """
    if not is_prime(p) or not is_prime(q):
        raise ValueError("both factors must be prime")
    if p == q:
        raise ValueError("the two primes must be distinct")
    modulus = p * q
    if not 1 < secret < modulus:
        raise ValueError("secret must satisfy 1 < secret < modulus")
    params = ZkPublicParams(modulus=modulus, square=pow(secret, 2, modulus))
    return params, ZkProverSecret(secret=secret, modulus=modulus)


def zk_commit(rng: random.Random, modulus: int) -> tuple[int, int]:
    """Draw an ephemeral witness and return (commitment, witness).

    The witness is uniform in (1, modulus); the commitment is its square.
    """
    if modulus <= 3:
        raise ValueError("modulus too small to commit")
    witness = rng.randrange(2, modulus)
    return pow(witness, 2, modulus), witness


def zk_respond(witness: int, secret: int, challenge: int, modulus: int) -> int:
    """Prover's answer: witness * secret**challenge mod modulus."""
    return (witness * pow(secret, challenge, modulus)) % modulus


def zk_verify(commitment: int, square: int, challenge: int, response: int, modulus: int) -> bool:
    """Check response**2 == commitment * square**challenge (mod modulus)."""
    return pow(response, 2, modulus) == (commitment * pow(square, challenge, modulus)) % modulus


def dh_contribute(generator: int, modulus: int, own_secret: int, accumulated: int) -> int:
    """One ring key-agreement step: raise the accumulated value to own secret.

    ``accumulated`` starts life as the generator; values 0 and 1 are
    degenerate (they would collapse the whole exchange) and are rejected.
    """
    if accumulated in (0, 1):
        raise ValueError("degenerate accumulated value")
    if not 1 < generator < modulus:
        raise ValueError("generator must lie strictly between 1 and the modulus")
    return pow(accumulated, own_secret, modulus)
