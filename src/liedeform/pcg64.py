"""NumPy's ``default_rng(seed)`` stream in Python ints, with no NumPy: the
``SeedSequence`` pool mixing of a seed, the PCG64 generator it seeds and
that generator's 128-bit LCG step.  ``states`` gives the LCG states the
generator's ``next64`` outputs read, in draw order, for a whole band of
seeds at once; ``deformlab`` turns them into doubles as
``Generator.uniform`` does, with NumPy.

The seeds of a band run in lanes: one Python int holds a value of every
seed, each in its own 320-bit lane, so that each step of the seeding and
of the LCG is a few int operations on the whole band.  A lane is wide
enough that no step carries into the next lane: a 128-bit state times the
128-bit multiplier, plus the increment, is below 2^257.

Every constant here is NumPy's (``bit_generator.pyx``, ``pcg64.h``).  The
hash constants of ``SeedSequence`` do not depend on the data, so their
sequences are tables, made once.
"""

import operator

# 64-bit words per lane, and bytes
LANE_WORDS = 5
_LANE_BYTES = 8 * LANE_WORDS
_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# mix(x, y) = L x - R y mod 2^32, taken as L x + (2^32 - R) y: no borrow
# crosses a lane
_MIX_L, _MIX_R = 0xCA01F9DD, (1 << 32) - 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_pairs(init: int, mult: int, count: int) -> list:
    """(h_k, h_(k+1)) for k < count, where h_0 = init and h_(k+1) = h_k *
    mult mod 2^32: the k-th hashmix of a sequence xors its value with h_k
    and multiplies it by h_(k+1)."""
    out, h = [], init
    for _ in range(count):
        out.append((h, h * mult & _M32))
        h = out[-1][1]
    return out


# The pool has four words, each first a hashmix of its entropy word (0 past
# the last).  Each pool word is then mixed into every other one, in this
# order of (source, destination), and each entropy word past the fourth
# into every pool word: 16 hashmixes, and four more per word past the
# fourth.  PCG64's seed and increment are the first eight words
# generate_state draws, cycling through the pool.  A mix is (source,
# destination, h, m, the lanes it changes, None for all).
_POOL_HASHES = _hash_pairs(_INIT_A, _MULT_A, 16)
_CROSS = tuple((src, dst, *h, None) for (src, dst), h in zip(
    [(src, dst) for src in range(4) for dst in range(4) if src != dst],
    _POOL_HASHES[4:]))
_STATE_HASHES = [(i % 4, *h)
                 for i, h in enumerate(_hash_pairs(_INIT_B, _MULT_B, 8))]


def _entropy_words(seed) -> list:
    """The seed's 32-bit words, least significant first, with NumPy's
    refusal of a negative seed; a seed that is no integer (None, a float, a
    string) is refused with operator.index's TypeError."""
    n = operator.index(seed)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def entropy(seeds) -> tuple:
    """(entropies, refusal): the 32-bit words of each seed before the first
    one NumPy's ``default_rng`` refuses, and that refusal (a TypeError or
    ValueError) or None."""
    out = []
    for seed in seeds:
        try:
            out.append(_entropy_words(seed))
        except (TypeError, ValueError) as exc:
            return out, exc
    return out, None


def _lanes(values) -> int:
    """One int holding each value in its own lane, the first lowest (made
    from bytes: shifting in one lane at a time would copy the int each
    time)."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE_BYTES, "little")
                                   for v in values), "little")


def states(entropies: list, count: int) -> bytearray:
    """The LCG states of the first ``count`` draws of NumPy's PCG64, seeded
    from ``SeedSequence`` of each entropy: for each draw, one lane of
    ``LANE_WORDS`` 64-bit words per entropy, in order, holding its state in
    the low two, all little-endian.  Each draw steps the state, then
    outputs from the new one.  A hashmix of v with (h, m) is v' = (v ^ h) m
    mod 2^32, then v' ^ v' >> 16; a mix of y into x is x' = mix(x, y), then
    x' ^ x' >> 16."""
    n = len(entropies)
    size = max([4, *map(len, entropies)])
    ones = _lanes([1] * n)
    m32, m128 = _M32 * ones, _M128 * ones
    words = [_lanes([w[i] if i < len(w) else 0 for w in entropies])
             for i in range(size)]
    hashes = (_POOL_HASHES if size == 4 else
              _hash_pairs(_INIT_A, _MULT_A, 4 * size))
    # sources past the fourth are entropy words, mixed into the lanes of
    # the entropies that have them
    tail = []
    for i in range(4, size):
        keep = _lanes([_M32 if len(w) > i else 0 for w in entropies])
        tail += [(i, dst, *hashes[4 * i + dst], keep) for dst in range(4)]
    pool = []
    for w, (h, m) in zip(words, hashes[:4]):
        v = (w ^ h * ones) * m & m32
        pool.append((v ^ v >> 16) & m32)
    pool += words[4:]
    for src, dst, h, m, keep in (*_CROSS, *tail):
        y = (pool[src] ^ h * ones) * m & m32
        x = (_MIX_L * pool[dst] + _MIX_R * ((y ^ y >> 16) & m32)) & m32
        x = (x ^ x >> 16) & m32
        pool[dst] = x if keep is None else pool[dst] ^ (pool[dst] ^ x) & keep
    out = []
    for src, h, m in _STATE_HASHES:
        v = (pool[src] ^ h * ones) * m & m32
        out.append((v ^ v >> 16) & m32)
    # generate_state(4, uint64) reads the eight words as little-endian
    # 64-bit words; PCG64 takes (high, low) pairs as its seed and sequence
    seed = out[0] << 64 | out[1] << 96 | out[2] | out[3] << 32
    inc = ((out[4] << 64 | out[5] << 96 | out[6] | out[7] << 32) << 1
           | ones) & m128
    # pcg64_srandom: step from 0, add the seed, step again
    state = ((inc + seed) * _PCG_MULT + inc) & m128
    # grown in place, so that each draw's bytes are held once
    draws = bytearray()
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & m128
        draws += state.to_bytes(_LANE_BYTES * n, "little")
    return draws
