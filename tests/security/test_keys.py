"""Tests for the simulated key pairs and signatures."""

import hashlib
import hmac
import random
import sys
import threading

import pytest

from repro.security import KeyPair, SignatureError, SignedBlob


class TestKeyPair:
    def test_deterministic_from_label_and_seed(self):
        a = KeyPair("alice", b"s")
        b = KeyPair("alice", b"s")
        assert a.public == b.public

    def test_distinct_labels_distinct_keys(self):
        assert KeyPair("alice").public != KeyPair("bob").public

    def test_distinct_seeds_distinct_keys(self):
        assert KeyPair("alice", b"1").public != KeyPair("alice", b"2").public

    def test_sign_verify_roundtrip(self):
        kp = KeyPair("alice")
        tag = kp.sign(b"message")
        assert KeyPair.verify(kp.public, b"message", tag)

    def test_verify_rejects_tampered_message(self):
        kp = KeyPair("alice")
        tag = kp.sign(b"message")
        assert not KeyPair.verify(kp.public, b"messagX", tag)

    def test_verify_rejects_wrong_key(self):
        alice, bob = KeyPair("alice"), KeyPair("bob")
        tag = alice.sign(b"message")
        assert not KeyPair.verify(bob.public, b"message", tag)

    def test_verify_rejects_unknown_public_key(self):
        kp = KeyPair("alice")
        assert not KeyPair.verify(b"\x00" * 32, b"m", kp.sign(b"m"))

    def test_signatures_differ_per_message(self):
        kp = KeyPair("alice")
        assert kp.sign(b"a") != kp.sign(b"b")


class TestTagsAreHmacSha256:
    """The key schedule runs once per pair; the tags must not know."""

    @staticmethod
    def secret_of(label: str, seed: bytes) -> bytes:
        return hashlib.sha256(b"secret|" + label.encode("utf-8") + b"|" + seed).digest()

    def test_tags_equal_the_standard_library_hmac(self):
        rng = random.Random(20)
        messages = [b"", b"m", rng.randbytes(63), rng.randbytes(64), rng.randbytes(65),
                    rng.randbytes(1 << 20)]
        for i in range(40):
            label, seed = f"owner-{rng.getrandbits(32)}", rng.randbytes(i % 7)
            kp = KeyPair(label, seed)
            secret = self.secret_of(label, seed)
            for message in messages + [rng.randbytes(rng.randrange(300))]:
                tag = kp.sign(message)
                assert tag == hmac.new(secret, message, hashlib.sha256).digest()
                assert KeyPair.verify(kp.public, message, tag)

    def test_verify_rejects_a_forged_or_truncated_tag(self):
        kp = KeyPair("alice", b"seed")
        message = bytes(range(200))
        tag = kp.sign(message)
        for i in (0, 31):
            forged = bytearray(tag)
            forged[i] ^= 0x80
            assert not KeyPair.verify(kp.public, message, bytes(forged))
        assert not KeyPair.verify(kp.public, message, tag[:-1])

    def test_threads_sharing_one_key_agree(self):
        """tcp_serve's executor threads sign and verify through one registry
        entry; nothing a signature touches may be left half-written."""
        kp = KeyPair("shared", b"key")
        messages = [b"message-%d" % i for i in range(2000)]
        expected = [kp.sign(m) for m in messages]
        wrong = []

        def work(offset: int) -> None:
            for i in range(len(messages)):
                j = (i + offset) % len(messages)
                tag = kp.sign(messages[j])
                if tag != expected[j] or not KeyPair.verify(kp.public, messages[j], tag):
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(250 * t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestSignedBlob:
    def test_check_passes(self):
        blob = SignedBlob(b"data", KeyPair("alice"))
        blob.check()  # no exception

    def test_check_rejects_tampered(self):
        blob = SignedBlob(b"data", KeyPair("alice"))
        blob.message = b"evil"
        with pytest.raises(SignatureError):
            blob.check()

    def test_check_rejects_substituted_signer(self):
        blob = SignedBlob(b"data", KeyPair("alice"))
        blob.public = KeyPair("eve").public
        with pytest.raises(SignatureError):
            blob.check()
