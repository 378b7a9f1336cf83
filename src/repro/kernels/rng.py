"""The counter-based per-trial RNG stream shared by both backends.

The standalone matching model (:mod:`repro.sim.standalone`) used to
draw from one sequential ``random.Random``: the value of draw *k*
depended on every draw before it, across trials and across purposes.
That coupling is exactly what makes a batched backend impossible to
keep bit-identical -- a vectorized kernel cannot replay a Mersenne
Twister whose consumption pattern is data dependent.

This module replaces the sequential stream with a *keyed* stream:
every logical draw is addressed by a ``(trial, domain, a, b)`` counter
tuple and its value is a pure function of ``(seed, trial, domain, a,
b)``.  Consumption order is irrelevant -- the object path evaluates
keys lazily inside its branches, the vectorized path evaluates whole
key grids at once, and both obtain the same words.  The key schedule
(which draw site uses which key) is therefore the **draw-order
contract** between the backends; it is documented per call site in
docs/kernels.md and pinned by the seed-stability tests in
tests/sim/test_standalone.py.

The word function is a chained splitmix64 finalizer:

    seed_hash   = mix64(seed ^ SALT)
    trial_base  = mix64(seed_hash + trial * GAMMA)
    word        = mix64(trial_base + pack(domain, a, b) * GAMMA)

with ``pack(domain, a, b) = domain << 48 | a << 24 | b`` (so ``a`` and
``b`` must stay below 2**24 -- rows, outputs and PIM rounds do by
orders of magnitude, ``StandaloneConfig`` bounds the load, and
:func:`pack_key` and :func:`words` raise on anything else).  The word
step is :func:`keyed_word`, which holds the scalar finalizer inline;
``mix64(z)`` is ``keyed_word(z, 0)`` and runs once per trial (the trial
base) and once per seed.  The same arithmetic runs as Python ints
here and as ``uint64`` arrays in :mod:`repro.kernels` -- see
:func:`words` -- and tests/kernels/test_rng.py asserts the two agree
bit for bit.

Derived draws:

* ``randbelow(n) = word % n`` -- the tiny modulo bias is irrelevant at
  these moduli (<= 8) and buys an identical formula on both sides.
* ``uniform() = (word >> 11) * 2**-53`` -- the top 53 bits as a float
  in [0, 1), the same construction CPython uses.

Everything in this module is stdlib-only so the object path never
needs numpy; the array variant imports numpy lazily.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SALT = 0x5851F42D4C957F2D

#: key-packing field widths; ``a`` and ``b`` each get 24 bits.
_A_SHIFT = 24
_D_SHIFT = 48
KEY_FIELD_LIMIT = 1 << _A_SHIFT

# -- draw domains (the "what is this draw for" half of every key) -----------

#: input port of packet ``a`` (randbelow 8).
D_PORT = 1
#: local-vs-torus coin of packet ``a`` (uniform vs ``local_fraction``).
D_LOCAL_COIN = 2
#: local output pick of packet ``a`` (randbelow 3 over L0/L1/IO).
D_LOCAL_OUT = 3
#: first adaptive direction of packet ``a`` (randbelow 4).
D_FIRST_DIR = 4
#: two-direction coin of packet ``a`` (uniform vs ``two_direction_fraction``).
D_TWO_COIN = 5
#: second adaptive direction of packet ``a`` (randbelow 3 over the rest).
D_SECOND_DIR = 6
#: busy-output sample, swap-remove step ``a`` (randbelow 7 - a).
D_BUSY = 7
#: SPAA/OPF single-output pick of packet ``a`` (randbelow len(candidates)).
D_NOM_CHOICE = 8
#: PIM grant step, round ``a``, output ``b`` (randbelow len(rows)).
D_PIM_GRANT = 9
#: PIM accept step, round ``a``, row ``b`` (randbelow len(offers)).
D_PIM_ACCEPT = 10
#: sequential fallback for arbiters outside the keyed protocol
#: (draw index ``a`` within the trial); never used by the vectorized set.
D_SEQ = 11


def keyed_word(base: int, packed: int) -> int:
    """The word at *packed* key (see :func:`pack_key`) of a trial *base*.

    The one scalar copy of the word formula and of the splitmix64
    finalizer (Stafford's Mix13) it applies to ``base + packed *
    GAMMA``.  Hot loops that draw many keys of one trial take
    :meth:`TrialStream.trial_base` once and pack their keys inline;
    they own the field bounds that :func:`pack_key` would otherwise
    check.
    """
    z = (base + packed * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(z: int) -> int:
    """The splitmix64 finalizer, a 64-bit bijection of ``z mod 2**64``."""
    return keyed_word(z, 0)


def seed_hash(seed: int) -> int:
    """Pre-mixed seed, shared by the scalar and array word functions."""
    return mix64((seed & _MASK64) ^ _SALT)


def pack_key(domain: int, a: int, b: int) -> int:
    """``domain << 48 | a << 24 | b`` with bounds checking."""
    if not 0 <= a < KEY_FIELD_LIMIT or not 0 <= b < KEY_FIELD_LIMIT:
        raise ValueError(f"key fields out of range: a={a}, b={b}")
    return (domain << _D_SHIFT) | (a << _A_SHIFT) | b


class TrialStream:
    """Scalar (object-path) view of the keyed stream for one seed."""

    __slots__ = ("seed", "_hash", "_trial", "_base")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._hash = seed_hash(seed)
        self._trial = -1
        self._base = 0

    def trial_base(self, trial: int) -> int:
        """The per-trial base every word of *trial* is derived from."""
        if trial != self._trial:
            self._trial = trial
            self._base = mix64(self._hash + trial * _GAMMA)
        return self._base

    def word(self, trial: int, domain: int, a: int = 0, b: int = 0) -> int:
        """The 64-bit word at key ``(trial, domain, a, b)``."""
        return keyed_word(self.trial_base(trial), pack_key(domain, a, b))

    def randbelow(
        self, trial: int, domain: int, a: int, b: int, n: int
    ) -> int:
        """Keyed integer draw in ``[0, n)`` (``word % n``)."""
        if n < 1:
            raise ValueError("randbelow needs n >= 1")
        return self.word(trial, domain, a, b) % n

    def uniform(self, trial: int, domain: int, a: int = 0, b: int = 0) -> float:
        """Keyed float draw in ``[0, 1)`` (top 53 bits of the word)."""
        return (self.word(trial, domain, a, b) >> 11) * 2.0**-53


def words(seed: int, trial, domain: int, a=0, b=0):
    """Vectorized :meth:`TrialStream.word` over numpy broadcastables.

    ``trial``, ``a`` and ``b`` may be scalars or arrays; the result
    has their broadcast shape with dtype ``uint64`` and is bit-equal
    to the scalar path element by element.  Every ``a``/``b`` must lie
    in ``[0, KEY_FIELD_LIMIT)``, as for :func:`pack_key`; out-of-range
    fields raise ``ValueError`` instead of aliasing another key.
    Imported lazily so the object path never requires numpy.
    """
    import numpy as np

    gamma = np.uint64(_GAMMA)
    for name, field in (("a", a), ("b", b)):
        field = np.asarray(field)
        if field.size and (field.min() < 0 or field.max() >= KEY_FIELD_LIMIT):
            raise ValueError(f"key field {name} out of range [0, {KEY_FIELD_LIMIT})")
    trial = np.asarray(trial, dtype=np.uint64)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    packed = (
        (np.uint64(domain) << np.uint64(_D_SHIFT))
        | (a << np.uint64(_A_SHIFT))
        | b
    )
    # uint64 wraparound is the point of the construction; numpy warns
    # about it on 0-d operands, so silence overflow locally.
    with np.errstate(over="ignore"):
        base = _mix64_np(np.uint64(seed_hash(seed)) + trial * gamma)
        return _mix64_np(base + packed * gamma)


def uniforms(seed: int, trial, domain: int, a=0, b=0):
    """Vectorized :meth:`TrialStream.uniform` (float64 in [0, 1))."""
    import numpy as np

    w = words(seed, trial, domain, a, b)
    return (w >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _mix64_np(z):
    import numpy as np

    c1 = np.uint64(0xBF58476D1CE4E5B9)
    c2 = np.uint64(0x94D049BB133111EB)
    z = (z ^ (z >> np.uint64(30))) * c1
    z = (z ^ (z >> np.uint64(27))) * c2
    return z ^ (z >> np.uint64(31))


#: tag kinds accepted by :meth:`KeyedTrialRandom.keyed_draw`.
_TAG_DOMAINS = {
    "pim-grant": D_PIM_GRANT,
    "pim-accept": D_PIM_ACCEPT,
}


class KeyedTrialRandom:
    """The keyed stream behind a ``random.Random``-shaped facade.

    The standalone model hands this to :class:`~repro.core.registry.
    ArbiterContext` in place of a ``random.Random``.  Arbiters that
    implement the keyed protocol (PIM) call :meth:`keyed_draw` with an
    explicit ``(kind, a, b)`` tag; anything else falls back to the
    plain ``randrange``/``random`` methods, which burn sequential
    ``D_SEQ`` slots within the current trial -- still deterministic,
    but outside the vectorized contract (such arbiters run on the
    object backend only).
    """

    def __init__(self, stream: TrialStream) -> None:
        self._stream = stream
        self.trial = 0
        self._seq = 0

    def set_trial(self, trial: int) -> None:
        """Re-key to *trial* and reset the sequential-fallback counter."""
        self.trial = trial
        self._seq = 0

    def keyed_draw(self, tag: tuple, n: int) -> int:
        """Draw in ``[0, n)`` at the key named by ``(kind, a, b)``."""
        kind, a, b = tag
        domain = _TAG_DOMAINS.get(kind)
        if domain is None:
            raise ValueError(f"unknown keyed-draw tag kind {kind!r}")
        return self._stream.randbelow(self.trial, domain, a, b, n)

    # -- random.Random-compatible fallbacks --------------------------------

    def randrange(self, n: int) -> int:
        index = self._seq
        self._seq += 1
        return self._stream.randbelow(self.trial, D_SEQ, index, 0, n)

    def random(self) -> float:
        index = self._seq
        self._seq += 1
        return self._stream.uniform(self.trial, D_SEQ, index)
