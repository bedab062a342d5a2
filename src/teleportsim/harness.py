"""Two-party protocol harness.

Both parties run in one process over a shared state vector. The only
thing that crosses from sender to receiver is the classical message, and
that boundary is teleport._finish, which every session and every
enumerated branch ends in: the receiver's correction is decoded from the
message bits and the resource alone (corrections_from_message), and
applying it rejects a factor outside the receiver's register, which is
all the walk leaves. Erasing the sender's side after the message is
emitted therefore cannot change the receiver's result.
"""
from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .bell import BellState
from .qstate import StateVector
from .teleport import MAX_PROTOCOL_WIDTH, ProtocolTranscript, _finish, _walk, check_width

# NumPy's SeedSequence hash and PCG64 seeding (numpy/random/bit_generator.pyx, pcg64.c).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_WORD, _STATE = 2 ** 32 - 1, 2 ** 128 - 1
# Sessions are seeded a block at a time, so memory holds one block whatever the trials.
SESSION_BLOCK = 256


def _words(x) -> list[int]:
    """An int or a sequence of ints as SeedSequence reads it: little-endian 32-bit words."""
    ints = [x] if isinstance(x, (int, np.integer)) else x
    return [(v >> s) & _WORD for v in map(int, ints) for s in range(0, max(v.bit_length(), 1), 32)]


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix and its running constant, on uint32 arrays, which wrap silently."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _WORD
        value = value * hash_const
        return value ^ value >> _XSHIFT
    return hashmix


def _seed_words(entropy: list[np.ndarray], pool_size: int) -> list[list[int]]:
    """generate_state(4, np.uint64) of the SeedSequence of each column of entropy
    words, as four lists of ints: mix_entropy, then the output hash."""
    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> _XSHIFT

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:pool_size]]
    for src, dst in itertools.permutations(range(pool_size), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w, dst in itertools.product(entropy[pool_size:], range(pool_size)):
        pool[dst] = mix(pool[dst], hashmix(w))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % pool_size]).astype(np.uint64) for i in range(8)]
    return [(out[i] | out[i + 1] << 32).tolist() for i in range(0, 8, 2)]


def session_generators(
    trials_ss: np.random.SeedSequence, count: int
) -> Iterator[np.random.Generator]:
    """For i < count, a generator in the state default_rng(trials_ss.spawn(count)[i])
    starts in, bit for bit, computed a block of sessions at a time. Keys count
    from trials_ss.n_children_spawned, which is not advanced. One Generator is
    reused: each yielded one is valid only until the next is drawn."""
    bitgen = np.random.PCG64(0)  # every state is replaced before it is yielded
    rng = np.random.Generator(bitgen)
    run = _words(trials_ss.entropy)
    # A child has a spawn key, so its run entropy is zero-padded to the pool size.
    prefix = run + [0] * (trials_ss.pool_size - len(run)) + _words(trials_ss.spawn_key)
    start, end = trials_ss.n_children_spawned, trials_ss.n_children_spawned + count
    while start < end:
        width = len(_words(start))  # every key in a block has this many words
        stop = min(start + SESSION_BLOCK, end, 1 << 32 * width)
        keys = np.arange(start, stop, dtype=np.uint64)
        entropy = [np.full(stop - start, w, np.uint32) for w in prefix]
        entropy += [(keys >> 32 * j).astype(np.uint32) for j in range(width)]
        s_his, s_los, q_his, q_los = _seed_words(entropy, trials_ss.pool_size)
        # pcg64_set_seed: one step from 0, add the initial state, one more step.
        incs = [((q_hi << 64 | q_lo) << 1 | 1) & _STATE for q_hi, q_lo in zip(q_his, q_los)]
        for inc, s_hi, s_lo in zip(incs, s_his, s_los):
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _STATE
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng
        del s_his, s_los, q_his, q_los, incs  # not held while the next block is hashed
        start = stop


def run_session(
    xi: StateVector, seed, resource: BellState = BellState.PSI_MINUS
) -> ProtocolTranscript:
    """One seeded end-to-end session between the two parties, at xi's width."""
    check_width(xi.n_qubits, MAX_PROTOCOL_WIDTH, "session")
    if seed is None:
        raise ValueError("a seed is required; sessions have no ambient randomness")
    rng = np.random.default_rng(seed)

    [branch] = _walk(xi, resource, rng)
    return _finish(xi, *branch, resource)
