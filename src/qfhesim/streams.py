"""Seeded per-shot streams for a whole range of shots at once.

Shot ``k`` of input ``v`` under seed ``s`` draws its uniforms from
``np.random.default_rng([s, v, k])``, and a noisy shot reads the raw outputs
of ``np.random.PCG64(seed)``.  Those streams are three fixed, published
functions: numpy's ``SeedSequence`` hash (NEP 19 keeps it stable), O'Neill's
PCG64 (a 128-bit LCG with XSL-RR output, pcg-random.org) and ``random()``,
which is ``(next64 >> 11) * 2**-53``.  ``uniforms`` and ``raw_outputs``
evaluate them as array arithmetic over shots, so a chunk of shots costs a
fixed number of numpy calls instead of one generator per shot, and return
the same numbers bit for bit.  The 128-bit LCG runs on (high, low) uint64
limbs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants; its pool holds 4 words.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's default 128-bit multiplier.
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from an integer >= 0, low word first."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hash_consts(const: int, mult: int, count: int):
    """SeedSequence's running hash constant: ``count`` steps' (xor, multiply).

    Each is a (count, 1) uint32 column, so step k's constants act on row k.
    """
    consts = [const]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _M32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _pool(words: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix_entropy`` of (words, shots) uint32 to (4, shots).

    The scalar hash runs its constant through every ``hashmix`` call in
    order; a call that hashes one pool word into the other three, or one
    late word into all four, takes the next three or four constants at once.
    """
    extra = max(0, len(words) - _POOL)
    xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    pool = np.zeros((_POOL, words.shape[1]), dtype=np.uint32)
    pool[: len(words)] = words[:_POOL]
    pool = _hashmix(pool, xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k : k + 3], mul[k : k + 3]))
        k += 3
    for word in words[_POOL:]:
        pool = _mix(pool, _hashmix(word, xor[k : k + _POOL], mul[k : k + _POOL]))
        k += _POOL
    return pool


def _state_words(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, uint64)``: (4, shots) uint64, 8 words hashed in pairs."""
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mul).astype(np.uint64)
    return words[0::2] | (words[1::2] << np.uint64(32))


def _limbs(values) -> tuple[np.ndarray, np.ndarray]:
    """Python ints below 2**128 as (high, low) uint64 arrays."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _M64 for v in values], dtype=np.uint64),
    )


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products of uint64 arrays a and b."""
    m = np.uint64(_M32)
    s = np.uint64(32)
    a0, a1, b0, b1 = a & m, a >> s, b & m, b >> s
    p01, p10, mid = a0 * b1, a1 * b0, a0 * b0
    mid >>= s
    mid += p01 & m
    mid += p10 & m
    mid >>= s
    mid += p01 >> s
    mid += p10 >> s
    mid += np.multiply(a1, b1, out=p01)
    return mid


def _mul128(ah, al, bh, bl):
    """(a * b) mod 2**128 on (high, low) limbs."""
    hi = _mulhi64(al, bl)
    hi += ah * bl
    hi += al * bh
    return hi, al * bl


def uniforms(seed: int, value: int, start: int, stop: int, draws: int) -> np.ndarray:
    """``default_rng([seed, value, shot]).random(draws)`` for shots start..stop-1.

    Returns a (stop - start, draws) float array.  A shot index below 2**32
    is one entropy word and from 2**32 on two, so the range is split there.
    """
    out = np.empty((stop - start, draws))
    prefix = _words(seed) + _words(value)
    split = min(max(start, 1 << 32), stop)
    for lo, hi in ((start, split), (split, stop)):
        if lo < hi:
            shots = np.arange(lo, hi, dtype=np.uint64)
            words = [np.full(hi - lo, w) for w in prefix] + [shots & np.uint64(_M32)]
            if lo >> 32:
                words.append(shots >> np.uint64(32))
            state = _state_words(_pool(np.array(words, dtype=np.uint32)))
            out[lo - start : hi - start] = doubles(_pcg_raw(state, draws))
    return out


def doubles(raw: np.ndarray) -> np.ndarray:
    """``random()``'s doubles from raw outputs: ``(raw >> 11) * 2**-53``."""
    return (raw >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def raw_outputs(seeds, count: int) -> np.ndarray:
    """``PCG64(seed).random_raw(count)`` for every seed below 2**64.

    Returns a (len(seeds), count) uint64 array.  A seed below 2**32 is one
    entropy word and a larger one two; the pool pads a short entropy with
    words of 0, so hashing every seed as (low, high) gives both.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = np.array([seeds & np.uint64(_M32), seeds >> np.uint64(32)], dtype=np.uint32)
    return _pcg_raw(_state_words(_pool(words)), count)


@lru_cache(maxsize=None)
def _draw_constants(draws: int):
    """Limbs of M^(j+1) and of 1 + M + ... + M^(j+1) for draws j = 1..draws."""
    powers, sums = [], []
    power, total = 1, 0
    for _ in range(draws + 2):
        total = (total + power) & _M128
        power = (power * _PCG_MULT) & _M128
        powers.append(power)  # M^(k+1)
        sums.append(total)  # 1 + M + ... + M^k
    return (*_limbs(powers[1 : draws + 1]), *_limbs(sums[2 : draws + 2]))


def _pcg_raw(state: np.ndarray, draws: int) -> np.ndarray:
    """PCG64 seeded from ``generate_state(4, uint64)``: ``draws`` raw outputs per row.

    Seeding sets inc = (seq << 1) | 1 and state = (inc + init) * M + inc,
    with init = words 0-1 and seq = words 2-3 (high word first).  Draw j
    (from 1) steps the LCG j times and outputs the new state, so its state
    is M^(j+1) init + (M^(j+1) + ... + 1) inc, evaluated for every draw at
    once from constants shared by all rows.
    """
    init_h, init_l, seq_h, seq_l = state[:, :, None]
    inc_h = (seq_h << np.uint64(1)) | (seq_l >> np.uint64(63))
    inc_l = (seq_l << np.uint64(1)) | np.uint64(1)
    # The constants are cached at powers of two, so a process holds few
    # sets however many widths its circuits need.
    size = 1 << max(draws - 1, 0).bit_length()
    a_h, a_l, c_h, c_l = (c[:draws] for c in _draw_constants(size))
    hi, lo = _mul128(a_h, a_l, init_h, init_l)
    y_h, y_l = _mul128(c_h, c_l, inc_h, inc_l)
    lo += y_l
    hi += y_h
    hi += lo < y_l  # the carry
    del y_h, y_l
    # XSL-RR: xor the halves, rotate right by the top 6 bits.
    word = np.bitwise_xor(lo, hi, out=lo)
    rot = hi >> np.uint64(58)
    return (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))
