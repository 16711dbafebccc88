"""Unique ring signatures built from an OR-composition of equal-discrete-log
proofs, made non-interactive with the Fiat-Shamir transform.

A signature on message m under ring R = (y_1, ..., y_n) carries a tag
tau = x_i * H(m || R), where x_i is the signer's secret key and H hashes to
a curve point.  The tag is deterministic in (secret key, message, ring), so
two signatures by the same member over the same context expose the same tag
(that is the linkability feature), while the per-member challenge/response
pairs (c_j, t_j) stay randomized.

Every exponent-like quantity (x_i, r_i, c_j, t_j and all sums of them) is a
``Scalar``, reduced modulo n, the generator order.  Reducing any of them
modulo the base-field prime instead silently breaks verification whenever
p != n; the Scalar type and the regression tests both guard that edge.

Wire format (``encode_signature``): tau.x || tau.y, each base-field width,
followed by c_1 || t_1 || ... || c_n || t_n, each scalar width, everything
big-endian.  On secp256k1 both widths are 32, so a size-n ring signature is
exactly 64*(n+1) bytes.  Message and ring travel out of band.

Challenge transcript (H'): SHA-256 over the bytes 0x02 0x00 (the
to-scalar domain tag and a zero counter), then the 8 ASCII bytes
``urs-ring``, the 8-byte big-endian message length, the message, the
ring's canonical bytes (the members' compressed encodings in sorted
order), the tag tau, then the points a_1, b_1, a_2, b_2, ..., a_n, b_n,
where a_j = t_j*g + c_j*y_j and b_j = t_j*H(m || R) + c_j*tau.  The
digest, read as a big-endian integer, is reduced mod n.  A point in the
transcript is 1 + field_bytes wide (33 bytes on secp256k1): its compressed
encoding (0x02 or 0x03 by the parity of y, then x big-endian), or that
many zero bytes for infinity.  The whole statement (m, R, tau) is hashed,
so no signer can choose tau after seeing the challenge.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from .curve import (
    CurveParams,
    Point,
    RingmixError,
    Scalar,
    _Frozen,
    digest,
    dual_scalar_mul_batch,
)
from .hashing import HashVariant, ft_constants, hash_to_curve, hash_to_scalar


class UrsError(RingmixError):
    """Base class for signing-protocol failures."""


class InsecureVariantError(UrsError):
    """Insecure point hash requested without the explicit override."""


class RingError(UrsError):
    """Public key list cannot form a valid ring."""


class SignerNotInRingError(UrsError):
    """Signing key's public key is absent from the ring."""


class SignatureFormatError(UrsError):
    """Byte string is not a well-formed signature encoding."""


class RingSizeMismatchError(SignatureFormatError):
    """Encoded signature is for a ring of a different size."""


# ---------------------------------------------------------------------------
# Parameters and keys


class PublicParams(_Frozen):
    """Everything verifiers share: curve, point-hash choice, scalar hash."""

    __slots__ = ("security_bits", "curve", "h_variant", "insecure_override")

    def __init__(self, security_bits: int, curve: CurveParams,
                 h_variant: HashVariant, insecure_override: bool = False):
        super().__init__(security_bits, curve, h_variant, insecure_override)


def setup(security_bits: int, curve: CurveParams, h_variant: HashVariant,
          *, insecure_override: bool = False) -> PublicParams:
    """Refuse any curve but a built-in one, and fix the hash choices.

    The generator-multiple hash variant is refused unless the caller
    explicitly overrides; it exists only for the attack demonstrations.
    """
    curve.validate()
    if h_variant is HashVariant.INSECURE_MULT_G and not insecure_override:
        raise InsecureVariantError(
            "insecure generator-multiple hash requires insecure_override=True"
        )
    if h_variant is HashVariant.FT_DETERMINISTIC:
        ft_constants(curve)  # fails fast on unsupported curves
    return PublicParams(
        security_bits=security_bits,
        curve=curve,
        h_variant=h_variant,
        insecure_override=insecure_override,
    )


class KeyPair(_Frozen):
    __slots__ = ("sk", "pk")

    def __init__(self, sk: Scalar, pk: Point):
        super().__init__(sk, pk)


def ring_gen(pp: PublicParams, rng) -> KeyPair:
    """Fresh key pair: sk uniform in [1, n), pk = sk * g.

    ``rng`` is anything with ``randrange`` (``random.Random`` for seeded
    test runs, ``random.SystemRandom`` for real keys).
    """
    sk = pp.curve.scalar(rng.randrange(1, pp.curve.n))
    return KeyPair(sk=sk, pk=sk * pp.curve.g)


# ---------------------------------------------------------------------------
# Rings


class Ring(_Frozen):
    """Canonicalized ring: members sorted by compressed encoding, no dups.

    Any input ordering of the same keys yields the same Ring, the same
    canonical bytes, and therefore the same signatures and tags.
    """

    __slots__ = ("members", "canonical_bytes")

    def __init__(self, pks: Iterable[Point]):
        pks = list(pks)
        if len(pks) < 2:
            raise RingError("ring needs at least 2 members")
        encoded = []
        for pk in pks:  # pks[0] is checked before its curve is read
            if not isinstance(pk, Point):
                raise RingError(f"ring member is not a Point: {pk!r}")
            if pk.curve != pks[0].curve:
                raise RingError("ring members on different curves")
            if pk.is_infinity:
                raise RingError("identity point cannot be a ring member")
            encoded.append(pk.encode())
        if len(set(encoded)) != len(encoded):
            raise RingError("duplicate ring member")
        order = sorted(range(len(pks)), key=lambda i: encoded[i])
        super().__init__(tuple(pks[i] for i in order),
                         b"".join(encoded[i] for i in order))

    @property
    def curve(self) -> CurveParams:
        return self.members[0].curve

    @property
    def digest(self) -> bytes:
        return digest(self.canonical_bytes)

    def index_of(self, pk: Point) -> int:
        try:
            return self.members.index(pk)
        except ValueError:
            raise SignerNotInRingError("public key not in ring") from None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.members)

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return self.canonical_bytes == other.canonical_bytes

    def __hash__(self):
        return hash(self.canonical_bytes)

    def __repr__(self):
        return f"Ring({len(self.members)} members, {self.curve.curve_id})"


canonical_ring = Ring  # the alias that perfbench/tracing.py wraps


# ---------------------------------------------------------------------------
# Signatures


class Tag(_Frozen):
    """The linkability handle tau = sk * H(m || R); on curve, never infinity."""

    __slots__ = ("point",)

    def __init__(self, point: Point):
        if point.is_infinity:
            raise UrsError("tag cannot be the identity point")
        super().__init__(point)


class Signature(_Frozen):
    __slots__ = ("tau", "cs", "ts", "ring_hash", "msg_hash")

    def __init__(self, tau: Tag, cs: tuple[Scalar, ...], ts: tuple[Scalar, ...],
                 ring_hash: bytes, msg_hash: bytes):
        super().__init__(tau, cs, ts, ring_hash, msg_hash)


class LinkResult(enum.Enum):
    LINKED = "linked"
    UNLINKED = "unlinked"
    INCOMPARABLE = "incomparable"


def ring_message_bytes(msg: bytes, ring: Ring) -> bytes:
    """The H(m || R) preimage: length-prefixed message, canonical ring."""
    return len(msg).to_bytes(8, "big") + msg + ring.canonical_bytes


def ring_message_point(pp: PublicParams, msg: bytes, ring: Ring) -> Point:
    """H(m || R), the per-context base point the tag is built on."""
    return hash_to_curve(ring_message_bytes(msg, ring), pp.curve, pp.h_variant)


def _ring_challenge(g: Point, h: Point, msg: bytes, ring: Ring, tau: Point,
                    cs, ts) -> Scalar:
    """H' over urs-ring, the message and ring bytes, tau, then a_1, b_1,
    ..., a_n, b_n, where a_j = t_j*g + c_j*y_j and b_j = t_j*h + c_j*tau.

    One OR-composed equal-discrete-log commitment per member, all in one
    batch that returns them in transcript order; a slot with (c, t) =
    (0, r) is an honest commitment (r*g, r*h).  Every point takes the fixed
    transcript width (infinity pads), so boundaries cannot shift.
    """
    jobs = []
    for y, c, t in zip(ring, cs, ts):
        jobs.append((t, g, c, y))
        jobs.append((t, h, c, tau))
    pad = b"\x00" * (1 + g.curve.field_bytes)
    parts = [b"urs-ring", ring_message_bytes(msg, ring)]
    parts.extend(pad if P.is_infinity else P.encode()
                 for P in (tau, *dual_scalar_mul_batch(jobs)))
    return hash_to_scalar(b"".join(parts), g.curve)


def ring_sign(pp: PublicParams, sk: Scalar, ring: Ring, msg: bytes, rng) -> Signature:
    """Sign msg as the ring member holding sk.

    For every other member j the pair (c_j, t_j) is drawn at random and the
    commitments a_j = t_j*g + c_j*y_j, b_j = t_j*h + c_j*tau are simulated;
    for the signer the commitments are honest Schnorr-style a_i = r*g,
    b_i = r*h.  The challenge hash then pins the signer's c_i to the value
    that closes the ring, and t_i = r - c_i*sk completes the proof.
    """
    curve = pp.curve
    if sk.modulus != curve.n:
        raise UrsError("secret key scalar does not match the curve order")
    g = curve.g
    i = ring.index_of(sk * g)
    h = ring_message_point(pp, msg, ring)
    tau_point = sk * h
    if tau_point.is_infinity:
        # Only reachable when n is composite (tiny test curves): the hash
        # point's order divides sk.  Impossible on secp256k1, where n is
        # prime and sk is in [1, n).
        raise UrsError("degenerate tag: hash point order divides the secret key")

    zero = curve.scalar(0)
    cs = [zero] * len(ring)
    ts = [zero] * len(ring)
    for j in range(len(ring)):
        if j != i:
            ts[j] = curve.scalar(rng.randrange(curve.n))
            cs[j] = curve.scalar(rng.randrange(curve.n))
    r = ts[i] = curve.scalar(rng.randrange(curve.n))

    # cs[i] is still zero, so subtracting the sum leaves the closing c_i.
    c_i = _ring_challenge(g, h, msg, ring, tau_point, cs, ts) - sum(cs, zero)
    cs[i] = c_i
    ts[i] = r - c_i * sk

    return Signature(
        tau=Tag(tau_point),
        cs=tuple(cs),
        ts=tuple(ts),
        ring_hash=ring.digest,
        msg_hash=digest(msg),
    )


def ring_verify(pp: PublicParams, ring: Ring, msg: bytes, sig: Signature) -> bool:
    """Accept iff sum(c_j) equals the challenge over rebuilt commitments.

    Also requires the signature's ring and message digests to match the
    presented context.  Malformed structures reject rather than raise.
    """
    curve = pp.curve
    size = len(ring)
    if len(sig.cs) != size or len(sig.ts) != size:
        return False
    for s in (*sig.cs, *sig.ts):
        if not isinstance(s, Scalar) or s.modulus != curve.n:
            return False
    tau = sig.tau.point
    if tau.curve != curve or tau.is_infinity:
        return False
    if sig.ring_hash != ring.digest or sig.msg_hash != digest(msg):
        return False

    h = ring_message_point(pp, msg, ring)
    total = sum(sig.cs, curve.scalar(0))
    return total == _ring_challenge(curve.g, h, msg, ring, tau, sig.cs, sig.ts)


def link(s1: Signature, s2: Signature) -> LinkResult:
    """Compare two individually verified signatures.

    Tags are only meaningful within one (message, ring) context; across
    contexts the verdict is INCOMPARABLE regardless of the signers.
    """
    if s1.msg_hash != s2.msg_hash or s1.ring_hash != s2.ring_hash:
        return LinkResult.INCOMPARABLE
    if s1.tau == s2.tau:
        return LinkResult.LINKED
    return LinkResult.UNLINKED


# ---------------------------------------------------------------------------
# Wire format


def encode_signature(sig: Signature) -> bytes:
    """tau.x || tau.y || c_1 || t_1 || ... || c_n || t_n, big-endian.

    64*(n+1) bytes on secp256k1.  Message and ring are supplied by context
    on decode, so they are not serialized.
    """
    tau = sig.tau.point
    curve = tau.curve
    fb, sb = curve.field_bytes, curve.scalar_bytes
    parts = [tau.x.to_bytes(fb, "big"), tau.y.to_bytes(fb, "big")]
    for c, t in zip(sig.cs, sig.ts):
        parts.append(c.value.to_bytes(sb, "big"))
        parts.append(t.value.to_bytes(sb, "big"))
    return b"".join(parts)


def decode_signature(data: bytes, curve: CurveParams, msg: bytes,
                     ring: Ring) -> Signature:
    """Parse the wire form back into a Signature bound to (msg, ring).

    Rejects non-canonical scalars (>= n), off-curve tags, and a pair count
    other than the ring's size.
    """
    fb, sb = curve.field_bytes, curve.scalar_bytes
    body = len(data) - 2 * fb
    if body < 2 * sb:
        raise SignatureFormatError(
            f"{len(data)} bytes is shorter than a 1-member signature"
        )
    if body % (2 * sb) != 0:
        raise SignatureFormatError(f"{len(data)} bytes is not a valid length")
    count = body // (2 * sb)
    if count != len(ring):
        raise RingSizeMismatchError(
            f"signature covers {count} members, ring has {len(ring)}"
        )
    tx = int.from_bytes(data[:fb], "big")
    ty = int.from_bytes(data[fb:2 * fb], "big")
    if tx >= curve.p or ty >= curve.p:
        raise SignatureFormatError("tag coordinate out of field range")
    try:
        tau = Tag(Point(curve, tx, ty))
    except RingmixError as exc:
        raise SignatureFormatError(f"bad tag point: {exc}") from None
    cs = []
    ts = []
    off = 2 * fb
    for _ in range(count):
        c = int.from_bytes(data[off:off + sb], "big")
        t = int.from_bytes(data[off + sb:off + 2 * sb], "big")
        if c >= curve.n or t >= curve.n:
            raise SignatureFormatError("scalar out of range")
        cs.append(curve.scalar(c))
        ts.append(curve.scalar(t))
        off += 2 * sb
    return Signature(
        tau=tau,
        cs=tuple(cs),
        ts=tuple(ts),
        ring_hash=ring.digest,
        msg_hash=digest(msg),
    )
