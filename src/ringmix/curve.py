"""Finite field and curve arithmetic on y^2 = x^3 + b.

That is secp256k1's family, the one curve form ringmix runs, and the form
on which the GLV endomorphism below and the Fouque-Tibouchi map in
``hashing`` are defined.  Curve parameters are data, not module constants:
the exact same code paths run secp256k1 and the tiny desk-check curves
(p = 11 and p = 31) that the test suite enumerates exhaustively.

Point coordinates are plain ints mod the base-field prime p.  Everything
used as a scalar multiplier lives mod n, the order of the group generator,
and the one residue type, ``Scalar``, carries that modulus: arithmetic
between Scalars of different moduli, or a Scalar mod anything but n as a
multiplier, raises instead of silently producing garbage.

WARNING: nothing in this module is constant time.  Operation timing depends
on operand values, secrets included: key generation multiplies by the
secret key, and signing by the key and the nonce, so the digit count and
table lookups of ``multi_mul`` follow those scalars.  Verify, link and the
mixer's checks see only public inputs.  Do not run key generation or
signing where an attacker can time them.
"""

from __future__ import annotations

from collections import Counter
import hashlib

mpz = int  # read only by perfbench/run.py:132, to report the arithmetic


def _invert(a, m):
    return pow(a, -1, m)


class RingmixError(Exception):
    """Root of the package's own exceptions; the CLI maps them to exit 3."""


class CurveError(RingmixError):
    """Base class for field and curve arithmetic failures."""


class ModulusMismatchError(CurveError):
    """Arithmetic attempted between Scalars of different moduli."""


class NonResidueError(CurveError):
    """Square root of a quadratic non-residue requested."""


class OffCurveError(CurveError):
    """Coordinates do not satisfy the curve equation."""


class PointDecodeError(CurveError):
    """Byte string is not a valid point encoding."""


class _Frozen:
    """Immutable slotted value: built from its slots in order, and equal,
    hashed and shown by their values.  Subclasses give ``__init__`` its
    signature and override whatever else they need."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def __hash__(self):
        return hash(tuple(getattr(self, n) for n in self.__slots__))

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({shown})"


# ---------------------------------------------------------------------------
# Residues


class Scalar(_Frozen):
    """Residue modulo n, the order of the curve generator.

    Exponents and challenge values (the x_i, r_i, c_i, t_i of the signing
    protocol) are Scalars.  Reducing them mod p instead of mod n is the
    classic way to break verification, so arithmetic requires the same
    modulus on both sides and raises ModulusMismatchError otherwise.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "value", int(value) % modulus)
        object.__setattr__(self, "modulus", modulus)

    def _peer(self, other):
        # None means "not our kind of operand": the operator returns
        # NotImplemented so Python can try the other side (Point.__rmul__).
        if not isinstance(other, Scalar):
            return None
        if other.modulus != self.modulus:
            raise ModulusMismatchError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )
        return other.value

    def __add__(self, other):
        v = self._peer(other)
        if v is None:
            return NotImplemented
        return Scalar(self.value + v, self.modulus)

    def __sub__(self, other):
        v = self._peer(other)
        if v is None:
            return NotImplemented
        return Scalar(self.value - v, self.modulus)

    def __mul__(self, other):
        v = self._peer(other)
        if v is None:
            return NotImplemented
        return Scalar(self.value * v, self.modulus)

    # Equal, as every _Frozen value, only to a Scalar of the same value and
    # modulus, never to an int, so equal Scalars hash alike.
    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Scalar({self.value} mod {self.modulus})"


def chi(a: int, p: int) -> int:
    """Quadratic character: 0 for zero, +1 for a square, -1 otherwise.

    Euler's criterion, a^((p-1)/2) mod p, assuming a prime modulus p.
    """
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int) -> int:
    """Square root mod p for p = 3 mod 4 (Tonelli-Shanks closed form)."""
    if p % 4 != 3:
        raise ValueError(f"p = 3 mod 4 required, got p = {p}")
    a %= p
    if a == 0:
        return 0
    root = pow(a, (p + 1) // 4, p)
    if root * root % p != a:
        raise NonResidueError(f"{a} is not a square mod {p}")
    return root


# ---------------------------------------------------------------------------
# Curve parameters


class CurveParams(_Frozen):
    """Curve y^2 = x^3 + b over F_p with generator g; immutable.

    ringmix runs the curves in ``CURVES`` only: ``validate()``, which
    ``setup()`` calls, refuses any other parameter set.  On each of them
    n is the order of g and of the whole group (cofactor 1).  Equal and
    hashed by ``key``, whatever the curve_id.
    """

    __slots__ = ("curve_id", "p", "b", "gx", "gy", "n")

    def __init__(self, curve_id: str, p: int, b: int, gx: int, gy: int, n: int):
        super().__init__(curve_id, p, b, gx, gy, n)

    @property
    def key(self) -> tuple:
        """(p, b, gx, gy, n): equal keys are the same group and generator."""
        return (self.p, self.b, self.gx, self.gy, self.n)

    @property
    def g(self) -> "Point":
        return Point(self, self.gx, self.gy)

    @property
    def field_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @property
    def scalar_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def scalar(self, value: int) -> Scalar:
        return Scalar(value, self.n)

    def rhs(self, x: int) -> int:
        """x^3 + b mod p."""
        return (x * x * x + self.b) % self.p

    def validate(self) -> None:
        """Refuse any parameter set but the built-in curve of this name.

        The test suite checks the three pinned sets; a ledger records the
        curve by name, so a renamed copy is refused as well.
        """
        if CURVES.get(self.curve_id) != self:
            raise CurveError(f"{self.curve_id}: not a built-in curve")

    def __eq__(self, other):
        if not isinstance(other, CurveParams):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"CurveParams({self.curve_id!r})"


# ---------------------------------------------------------------------------
# Points

# The group law runs on bare tuples so the hot loops stay free of object
# construction: affine (x, y), and Jacobian (X, Y, Z) standing for
# (X/Z^2, Y/Z^3); None is infinity.


def _jdouble(J, p):
    if J is None or not J[1]:
        return None  # 2-torsion doubles to infinity
    X, Y, Z = J
    YY = Y * Y % p
    S = 4 * X * YY % p
    M = 3 * X * X % p
    X3 = (M * M - 2 * S) % p
    return (X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p)


def _jadd(J, Q, p):
    # Jacobian J plus affine Q; only Q's first two entries, x and y, are read.
    if Q is None:
        return J
    if J is None:
        return (Q[0], Q[1], 1)
    X1, Y1, Z1 = J
    ZZ = Z1 * Z1 % p
    H = (Q[0] * ZZ - X1) % p
    r = (Q[1] * ZZ * Z1 - Y1) % p
    if not H:
        return None if r else _jdouble(J, p)
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    return (X3, (r * (V - X3) - Y1 * HHH) % p, Z1 * H % p)


def _to_affine(Js, p):
    # Montgomery's trick: one field inversion plus 3(m-1) multiplications
    # invert the m live Z coordinates together.  Js is converted in place
    # and returned, so a large batch never holds both forms of its points.
    live = [i for i, J in enumerate(Js) if J is not None]
    prefix = []
    acc = 1
    for i in live:
        prefix.append(acc)
        acc = acc * Js[i][2] % p
    inv = _invert(acc, p)
    for i in reversed(live):
        X, Y, Z = Js[i]
        zi = prefix.pop() * inv % p
        inv = inv * Z % p
        zz = zi * zi % p
        Js[i] = (X * zz % p, Y * zz * zi % p)
    return Js


class Point(_Frozen):
    """Affine curve point, or the point at infinity (the group identity).

    Construction rejects off-curve coordinates, so any Point in circulation
    satisfies the curve equation.
    """

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: CurveParams, x: int, y: int):
        x %= curve.p
        y %= curve.p
        if (y * y - curve.rhs(x)) % curve.p != 0:
            raise OffCurveError(f"({x}, {y}) not on {curve.curve_id}")
        super().__init__(curve, int(x), int(y))

    @classmethod
    def infinity(cls, curve: CurveParams) -> "Point":
        pt = object.__new__(cls)
        _Frozen.__init__(pt, curve, None, None)
        return pt

    @classmethod
    def _wrap(cls, curve: CurveParams, xy) -> "Point":
        if xy is None:
            return cls.infinity(curve)
        return cls(curve, *xy)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __add__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            raise TypeError(f"expected Point, got {type(other).__name__}")
        if self.curve != other.curve:
            raise CurveError("points on different curves")
        p = self.curve.p
        J = None if self.is_infinity else (self.x, self.y, 1)
        Q = None if other.is_infinity else (other.x, other.y)
        return Point._wrap(self.curve, _to_affine([_jadd(J, Q, p)], p)[0])

    def __neg__(self) -> "Point":
        if self.is_infinity:
            return self
        return Point(self.curve, self.x, -self.y)

    def __rmul__(self, k) -> "Point":
        return multi_mul(self.curve, [[(k, self)]])[0]

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.curve == other.curve and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        if self.is_infinity:
            return f"Point(infinity, {self.curve.curve_id})"
        return f"Point({self.x:#x}, {self.y:#x}, {self.curve.curve_id})"

    # -- compressed encoding ------------------------------------------------

    def encode(self) -> bytes:
        """Compressed form: 0x00 for infinity, else parity prefix plus x.

        The prefix byte is 0x02 for even y and 0x03 for odd, followed by x
        as big-endian, (bit length of p rounded up to bytes) wide.  33 bytes
        on secp256k1.
        """
        if self.is_infinity:
            return b"\x00"
        prefix = 0x02 | (self.y & 1)
        return bytes([prefix]) + self.x.to_bytes(self.curve.field_bytes, "big")

    @classmethod
    def decode(cls, curve: CurveParams, data: bytes) -> "Point":
        if data == b"\x00":
            return cls.infinity(curve)
        if len(data) != 1 + curve.field_bytes:
            raise PointDecodeError(
                f"expected {1 + curve.field_bytes} bytes, got {len(data)}"
            )
        prefix = data[0]
        if prefix not in (0x02, 0x03):
            raise PointDecodeError(f"bad prefix byte {prefix:#x}")
        x = int.from_bytes(data[1:], "big")
        if x >= curve.p:
            raise PointDecodeError("x coordinate out of range")
        try:  # one exponentiation, and its square checked once
            y = sqrt_mod(curve.rhs(x), curve.p)
        except NonResidueError:
            raise PointDecodeError(f"x = {x} is not on {curve.curve_id}") from None
        want_odd = prefix == 0x03
        if y == 0 and want_odd:
            raise PointDecodeError("y = 0 point has no odd-parity encoding")
        if (y & 1) != want_odd:
            y = curve.p - y
        return cls(curve, x, y)


# ---------------------------------------------------------------------------
# Scalar multiplication
#
# One engine serves every k*P in the package: width-w NAF recoding, Jacobian
# accumulators with mixed affine additions, odd-multiple tables built for all
# bases of a batch together, one batch normalization at the end, and on
# curves with an efficient endomorphism (secp256k1) the GLV split of each
# scalar into two half-length ones (Gallant, Lambert, Vanstone, CRYPTO 2001;
# Hankerson, Menezes, Vanstone, Guide to ECC, sections 3.3 and 3.5).
#
# A base's levels are one odd-multiple table for each 2^(F*i)*P,
# i = 0, 1, ...; level 0 alone is the plain wNAF table.  The digits of a
# warm base (g, or one in the cache below) and of a base that enough jobs of
# the call share are folded: a digit at bit position q*S + r adds an entry
# of the table of 2^(q*S)*P at position r, one addition as before, and the
# job's doubling chain spans S bits instead of the whole scalar half (the
# fixed-base comb of Lim and Lee, CRYPTO 1994; Guide to ECC, section
# 3.3.2).  S is the smallest multiple of F above every digit of the job's
# other bases, so a job whose bases all fold doubles fewer than F times.
#
# Once the doublings fold away, a call's cost is its additions: at NAF
# width w, about one per w + 1 bits of each scalar half (Moller, SAC 2001;
# Guide to ECC, section 3.3).  So a folded base takes, in each call, the
# width that makes the fewest additions in all: one step wider adds 2^(w-2)
# entries to each of its _FOLDS levels, whether they are built now or later,
# as every level of a base has one width, and saves about
# bits/((w+1)(w+2)) additions for the bits of its scalar halves in the call.
# h = H(m || R) and tau reach width 6 in a ring verify or sign of 11 or more
# members, width 7 from 29 and width 8 from 74.  A ring member has one job
# per call and stays at width 5; an unfolded base always does.  Any base but
# g can be evicted, so it must pay back within the call.  g never is, so it
# counts the bits of every call since its levels were built, and widens as
# that lifetime use pays, up to _G_WIDTH: about 440 keygens' worth of g
# multiples take it to width 10, where a warm keygen adds 24 times, not 43
# as at width 5.  The count starts at 0, so a one-shot process's first call
# builds what it would without it.  A base never narrows: a table of width w
# is a prefix of one of width w + 1, so widening appends to each table in
# place, from its last entry plus 2P, and rebuilds nothing.
#
# Every base a call tables keeps its levels in _CACHE, keyed by
# (curve.key, x, y): an equal key is the same group, order and
# endomorphism, so the same levels.  A base's first call builds what it
# would without the cache, so a one-shot ``ringmix verify`` pays nothing
# new.  Its next call finds it warm and builds its missing levels, once: at
# n = 32 the first verify after a sign doubles 5040 times and adds 6065
# times, against 4830 and 5290 for the same verify on a cold cache.  From
# then on a ring verified again and again, as a mixing pool's is, doubles
# about 1020 times and adds 4260 once g is at width 10 (4540 with g at
# width 7, 5510 with every base at width 5).
#
# On a curve with the endomorphism a table holds (x, y, beta*x) triples, so
# the image (beta*x, y) of an entry costs no multiplication at use; images
# kept as separate points took 25% more memory, and computed at each use
# they made a keygen 4% slower.  A secp256k1 point held is then about
# 255 bytes (tracemalloc, stdlib ints): 8 levels take 16.7 KB at width 5,
# 32.8 KB at width 6, 65 KB at width 7 and 0.5 MB at g's cap, width 10.
# The cache holds at most _CACHE_POINTS points, about 1.8 MB with g's;
# past that it drops the least recently used base that is not a curve's g.
# A larger ring keeps warm the members it meets last.  g is never dropped,
# and at its cap takes 2048 of those points.  Width 11 would take 4096:
# under the 5376-point bound sized before g widened, a 32-member ring
# verified for one new message after another then lost its members'
# levels at each message and rebuilt them (84 tables in place of 16).

_W = 5  # the narrowest NAF width: a table of width w holds P, 3P, ...,
# (2^(w-1) - 1)P, 2^(w-2) points

# F is an eighth of a scalar half's bit length (129 on secp256k1, the whole
# 5 or 4 bits on the test curves), rounded up: 17 on secp256k1, so 8 levels
# cover a base, about 1.2 ms to build at width 5; 1 on the test curves.
_FOLDS = 8

# g's widest NAF width: 8 levels of 256 entries, 2048 points, 0.5 MB.
_G_WIDTH = 10

# A base that is not warm folds only when _SHARE jobs of the call use it.
# Its first sighting then costs 7 more levels of F doublings and 7 more
# tables (1 doubling, 7 additions each), about 126 doublings and 49
# additions on secp256k1.  At 6.1 us per doubling and 6.9 us per addition
# that is 1.1 ms, against 0.7 ms (112 doublings) saved per job that then
# folds; timed, with the batch normalization and the endomorphism images,
# it is nearer 1.6 ms.  The b_j = t_j*h + c_j*tau jobs of a ring verify
# fold two such bases.  Timed in alternating pairs against no sharing
# (CPython 3.11, stdlib ints), folding them is 3% slower at n = 4, even at
# n = 5 and 3.5% faster at n = 6: _SHARE = 5.
_SHARE = 5


def _odd_multiples(Js, tables, sizes, p):
    # Extends each affine table of odd multiples [P, 3P, ...] of the
    # Jacobian P in Js, which may still be empty, to its size in sizes, and
    # returns the new entries of each; two batch inversions in all.  New
    # entries follow the last one by 2P each.  P and any entry can be
    # infinity on the tiny curves.
    twos = _to_affine([_jdouble(J, p) for J in Js], p)
    flat = []
    for J, table, size, D in zip(Js, tables, sizes, twos):
        if table:
            J = None if table[-1] is None else (table[-1][0], table[-1][1], 1)
        else:
            flat.append(J)
        for _ in range(size - max(len(table), 1)):
            J = _jadd(J, D, p)
            flat.append(J)
    flat = _to_affine(flat, p)
    out, i = [], 0
    for table, size in zip(tables, sizes):
        out.append(flat[i:i + size - len(table)])
        i += size - len(table)
    return out


def _wnaf(k, w):
    # Nonzero digits of the width-w non-adjacent form of k >= 0, as
    # (bit position, odd digit) pairs, least significant first.
    out = []
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & ((1 << w) - 1)
        if d >> (w - 1):
            d -= 1 << w
        out.append((pos, d))
        k = (k - d) >> w  # the next w - 1 digits are zero
        pos += w
    return out


def _glv_split(k, glv, n):
    # k = k1 + k2*lam mod n with |k1|, |k2| about sqrt(n).
    _, _, a1, b1, a2, b2 = glv
    c1 = (2 * b2 * k + n) // (2 * n)
    c2 = (-2 * b1 * k + n) // (2 * n)
    return k - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2


# (curve.key, x, y) -> [table of 2^(F*i)*P for i = 0, 1, ...], least
# recently used first; every table of a base has the same width.
_CACHE: dict[tuple, list] = {}
# The _CACHE key of every curve's g, eviction passes them over, and the
# bits of the scalar halves that g has served since its levels were built.
_PINNED: dict[tuple, int] = {}
# A 64-member ring at width 5 (8 levels of 8 points each), g at width
# _G_WIDTH (8 levels of 256), the h and tau of its verify at width 7 (8
# levels of 32), and the h and tau of one more message: 7168 points.
_CACHE_POINTS = _FOLDS * (64 * 8 + 256 + 4 * 32)


def multi_mul(curve: CurveParams, jobs) -> list[Point]:
    """For each job, a sequence of (k, P) terms, the point sum(k*P).

    k is an int or a Scalar mod n (a Scalar of any other modulus raises
    ModulusMismatchError) and is reduced mod n, g's order.  That is sound
    because n is the order of the whole group on every curve that
    ``CurveParams.validate()`` accepts: n then kills every point, so
    k*P == (k mod n)*P.  Bases shared by several terms or jobs share one
    table.

    Digits on a warm base (g, or one already in the cache) and on any base
    used by at least _SHARE jobs of the call are folded onto shifted
    tables; a job whose bases all fold doubles fewer than F times (17 on
    secp256k1).  A folded base's NAF width is the one that makes fewest
    additions in this call, counting the entries it would add to all
    _FOLDS of its levels, never narrower than its cached tables; g's, in
    every call since its levels were built, up to _G_WIDTH.  Every
    base the call tables goes into the process-wide cache with its levels,
    at most _CACHE_POINTS points, least recently used out first, g never.
    The folds, widths and cache change which additions are made where,
    never the result.
    """
    p, n = curve.p, curve.n
    glv = _GLV.get(curve)
    bases: dict[tuple, int] = {(curve.gx, curve.gy): 0}  # (x, y) -> index
    halves = []  # per job, (base, endomorphism?, negative?, |scalar half|)
    for job in jobs:
        plan = []
        for k, P in job:
            if P.curve != curve:
                raise CurveError("batch mixes curves")
            if isinstance(k, Scalar):
                if k.modulus != n:
                    raise ModulusMismatchError(f"{k!r} cannot scale a point, n = {n}")
                k = k.value
            k = int(k) % n
            if P.is_infinity or not k:
                continue
            b = bases.setdefault((P.x, P.y), len(bases))
            for phi, kv in enumerate(_glv_split(k, glv, n) if glv else (k,)):
                if kv:
                    plan.append((b, phi, kv < 0, abs(kv)))
        halves.append(plan)

    # Taken out of the cache here and put back as the most recent below, so
    # that this call's own bases are the last to be evicted.
    key = curve.key
    g_key = (key, curve.gx, curve.gy)
    levels = [_CACHE.pop((key, *xy), []) for xy in bases]
    jobs_on = Counter(b for plan in halves for b in {t[0] for t in plan})
    folded = {0} | {b for b, lv in enumerate(levels)
                    if lv or jobs_on[b] >= _SHARE}

    # One step wider adds 2^(w-2) entries to each of a base's _FOLDS
    # levels, and saves about bits/(w+1) - bits/(w+2) of the additions its
    # digits cost, for the bits of its scalar halves in this call; for g,
    # in every call since its levels were built, up to width _G_WIDTH.
    bits = [0] * len(bases)
    bits[0] = _PINNED.get(g_key, 0) if levels[0] else 0
    for plan in halves:
        for b, _, _, kv in plan:
            bits[b] += kv.bit_length()
    _PINNED[g_key] = bits[0]
    widths = []
    for b, lv in enumerate(levels):
        w = len(lv[0]).bit_length() + 1 if lv else _W  # 2^(w-2) entries
        while (b in folded and (b or w < _G_WIDTH)
               and _FOLDS * (w + 1) * (w + 2) << (w - 2) < bits[b]):
            w += 1
        widths.append(w)
    plans = [[(b, phi, neg, _wnaf(kv, widths[b])) for b, phi, neg, kv in plan]
             for plan in halves]

    half = (n.bit_length() + 1) // 2 + 1 if glv else n.bit_length()
    F = -(-half // _FOLDS)  # bits per level
    spans = []  # per job, S
    need = [0] * len(bases)  # levels each base needs
    for plan in plans:
        top = max((t[3][-1][0] for t in plan if t[0] not in folded), default=0)
        S = (top // F + 1) * F
        spans.append(S)
        for b, _, _, digits in plan:
            need[b] = max(need[b], digits[-1][0] // S * (S // F) + 1)

    todo = []  # (Jacobian P, its table, the size it grows to)
    for (x, y), b in bases.items():
        lv, size = levels[b], 1 << (widths[b] - 2)
        if lv and len(lv[0]) < size:  # widened: every level grows in place
            todo += [(None if t[0] is None else (t[0][0], t[0][1], 1), t, size)
                     for t in lv]
        have = len(lv)
        last = lv[-1][0] if have else (x, y)
        J = None if last is None else (last[0], last[1], 1)
        for i in range(have, need[b]):
            if i:
                for _ in range(F):
                    J = _jdouble(J, p)
            lv.append([])
            todo.append((J, lv[-1], size))
    if todo:
        Js, tables, sizes = zip(*todo)
        for table, new in zip(tables, _odd_multiples(Js, tables, sizes, p)):
            if glv:  # (x, y, beta*x): the endomorphism image is (beta*x, y)
                new = [None if Q is None else (*Q, glv[0] * Q[0] % p)
                       for Q in new]
            table += new
    for xy, lv in zip(bases, levels):
        if lv:
            _CACHE[(key, *xy)] = lv
    if todo:  # the least recently used, other than any curve's g
        held = sum(len(lv) * len(lv[0]) for lv in _CACHE.values())
        for k in [k for k in _CACHE if k not in _PINNED]:
            if held <= _CACHE_POINTS:
                break
            lv = _CACHE.pop(k)
            held -= len(lv) * len(lv[0])

    out = []
    for plan, S in zip(plans, spans):
        step = S // F
        adds = []  # (bit position, affine point), for a Horner pass
        for b, phi, neg, digits in plan:
            lv = levels[b]
            table = lv[0]
            for pos, d in digits:
                if pos < S:
                    Q = table[abs(d) >> 1]
                else:  # 2^(q*S)*P's table, at position r
                    q, pos = divmod(pos, S)
                    Q = lv[q * step][abs(d) >> 1]
                if Q is not None:
                    if phi:
                        Q = (Q[2], Q[1])
                    if (d < 0) != neg:  # GLV halves can be negative
                        Q = (Q[0], -Q[1] % p)
                    adds.append((pos, Q))
        adds.sort(key=lambda e: e[0], reverse=True)
        J = None
        at = adds[0][0] if adds else 0
        for pos, Q in adds:
            for _ in range(at - pos):
                J = _jdouble(J, p)
            at = pos
            J = _jadd(J, Q, p)
        for _ in range(at):
            J = _jdouble(J, p)
        out.append(J)
    return [Point._wrap(curve, xy) for xy in _to_affine(out, p)]


def dual_scalar_mul_batch(pairs) -> list[Point]:
    """k1*P1 + k2*P2 for each (k1, P1, k2, P2), all on one curve.

    One ``multi_mul`` batch, under its scalar contract; P2 may be infinity.
    """
    jobs = [((k1, P1), (k2, P2)) for k1, P1, k2, P2 in pairs]
    return multi_mul(jobs[0][0][1].curve, jobs) if jobs else []


# ---------------------------------------------------------------------------
# Built-in curves

# secp256k1 as published by SEC 2: p = 2^256 - 2^32 - 977, y^2 = x^3 + 7.
SECP256K1 = CurveParams(
    curve_id="secp256k1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
    b=7,
    gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
)

# y^2 = x^3 + 7 over F_31: 21 points, cyclic, and 31 = 7 mod 12 puts it in
# secp256k1's congruence class, so the deterministic hash-to-curve map runs
# unchanged.  p != n here, which is what makes the wrong-modulus regression
# tests bite.
TEST_CURVE_31 = CurveParams(curve_id="test-31", p=31, b=7, gx=1, gy=16, n=21)

# y^2 = x^3 + 7 over F_11: 12 points, cyclic, small enough to enumerate the
# whole addition table in tests.
TEST_CURVE_11 = CurveParams(curve_id="test-11", p=11, b=7, gx=4, gy=4, n=12)

CURVES = {
    c.curve_id: c for c in (SECP256K1, TEST_CURVE_31, TEST_CURVE_11)
}

# secp256k1's endomorphism (x, y) -> (beta*x, y) is multiplication by lam;
# (a1, b1), (a2, b2) is a short basis of {(x, y): x + y*lam = 0 mod n}.
# tests/test_multi_mul.py derives all six (Guide to ECC, Algorithm 3.74).
_GLV: dict[CurveParams, tuple] = {SECP256K1: (
    0x851695D49A83F8EF919BB86153CBCB16630FB68AED0A766A3EC693D68E6AFA40,  # beta
    0xAC9C52B33FA3CF1F5AD9E3FD77ED9BA4A880B9FC8EC739C2E0CFC810B51283CE,  # lam
    0xE4437ED6010E88286F547FA90ABFE4C3,  # a1
    -0x3086D221A7D46BCDE86C90E49284EB15,  # b1
    0x3086D221A7D46BCDE86C90E49284EB15,  # a2
    0x114CA50F7A8E2F3F657C1108D9D44CFD8,  # b2
)}


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()
