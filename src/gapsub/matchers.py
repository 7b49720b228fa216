"""Decision procedure for embedding a gapped sequence in a word.

match answers whether the pattern embeds in the word with every gap
constraint satisfied, and returns a witness embedding or None.  It is one
left-to-right dynamic programme over bitmasks of word positions (bit i is
position i, 1-based).  The pattern is split into blocks at its non-zero
constraints; a block's end positions are one shifted AND of per-symbol
position masks.  D[t], the ends of block t reachable with every earlier
gap satisfied, follows from D[t-1] through one gap step:

    D[t] = (step.reach(D[t-1]) << (len(block t) - 1)) & ends(block t)

Every position mask comes from one position-mask table per Word object,
the index Word.position_masks: built on the first call that needs it and
kept, so calls that reuse one Word skip that work, and a one-shot call on
a fresh Word builds what it did before.  The index holds at most one
n-byte form of the word and one (n+1)-bit mask per symbol looked up.  The
memos of a GapStep stay per step.

gap_steps builds one GapStep per distinct constraint of a word (one
window and one DFA object), which every gap with that constraint shares
with its memos and tables; a step picks its case from the constraint alone:

- zero or length window   shift plus a doubling or-spread, O(1) once the
                          span covers the mask from its lowest set bit to
                          its highest (the spread is then one run of bits)
- DFA, vacuous window     one sweep over sets of DFA states, with subset
                          images memoised per symbol, O(n) per gap; it
                          stops once the set is every reachable state and
                          every symbol permutes those (a group DFA such as
                          parity), since the set can then no longer change
- DFA, real window, and   bit-parallel over every start at once: one
  (hi+1) * states *       mask of starts per DFA state, and about hi/b
  symbols at most         blocks of AND, OR and a b-bit shift over the
  _BIT_PARALLEL_MAX_COST  span of the starts plus hi+1 positions, all in C
                          big-int operations; a block reads b symbols
                          (Shift-And over a super-alphabet: Fredriksson,
                          IPL 2003), b = _BLOCK_SYMBOLS for small DFAs
                          and wide windows, else 1 (see GapStep)
- DFA, real window,       one sweep of merged DFA traces (_Traces),
  otherwise               giving each start's state after lo symbols, and
                          per state the latest such entry, O(n states) per
                          gap; it stops hi+1 symbols after the last start

The witness is canonical: the leftmost end of the last block, then for
each gap, right to left, the least feasible predecessor (a masked lowest
bit for length windows, a backward preimage sweep over the window for
DFA gaps).  This is exactly the embedding match_naive returns.

match_naive is the reference implementation match is tested against: a
per-symbol DP that streams the constraint DFA from every start; its one
other caller is the leaf of match_with_equalities.  The analyses in
analysis.py spread their frontiers with the same GapStep.
The empty pattern embeds in every word via the empty embedding.

GapStep.reach_counts is the count-valued twin of reach that all counting
in multiplicity.py goes through: it takes a batch of count vectors, and
lane i of each output sums lane j of its input over the positions j that
reach i.  A count vector is one int of fixed-width lanes, lane i (bits
i*width to (i+1)*width) holding the count at position i, with one width
for the batch, chosen by the caller so that no sum overflows a lane.
Zero and length windows add shifted copies of each vector by doubling,
the sum twin of the or-spread (Baeza-Yates & Gonnet, CACM 1992):
O(log(hi-lo+2)) shift-adds on an (n+1)*width-bit int.  A DFA gap takes
one sweep for the whole batch: the m vectors are interleaved into one
int per position, m lanes wide, with C-level array slices, and the sweep
carries one such int per DFA state, O(n states) big-int additions on
m*width bits, where under a real window a start's counts enter after lo
symbols and leave after hi+1, at the DFA states _Traces gives for it
then; the result is de-interleaved the same way.

match_with_equalities backtracks over the common lengths of gap-length
equality classes (NP-hard) in one explicit-stack search driven by forward
and backward masks built by the length gap step's or-spread: with the
classes fixed so far as exact windows, the lengths gap g can take in an
embedding that ignores the equalities are exactly the l for which the ends
of the first g symbols' matches, shifted by l+1, meet the starts of the
rest's matches.  The masks are updated, not rebuilt: a node that fixes
class c copies its parent's masks and recomputes the forward ones from c's
first gap on and the backward ones from c's last gap down, jumping to c's
next gap wherever a mask comes out unchanged, since each mask depends only
on its neighbour and the one window between them.  It re-tests only the
open classes that own a gap whose masks changed.  A leaf's witness is one
match_naive call.
"""

from __future__ import annotations

import functools
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

from .core import (
    Embedding,
    GappedSequence,
    InputError,
    LengthGap,
    UsageError,
    Word,
    ZeroGap,
    constraint_allows,
    constraint_dfa,
    constraint_window,
    is_zero_gap,
    normalize,
)


def pattern_blocks(gs: GappedSequence) -> tuple[list[tuple[int, ...]], list]:
    """Split the pattern at its non-zero constraints.

    Returns (blocks, joints): maximal runs of pattern symbols joined by
    zero gaps, and the non-zero constraints between consecutive blocks.
    Blocks are never empty because each constraint sits at its own gap.
    Each constraint object is tested for a zero gap once.
    """
    syms = gs.pattern.symbols
    if not syms:
        return [], []
    zero: dict[int, bool] = {}
    joints: list = []
    cuts = [0]
    for idx, c in enumerate(gs.constraints, start=1):
        z = zero.get(id(c))
        if z is None:
            z = zero[id(c)] = is_zero_gap(c)
        if not z:
            cuts.append(idx)
            joints.append(c)
    cuts.append(len(syms))
    return [syms[a:b] for a, b in zip(cuts, cuts[1:])], joints


# A DFA gap with a real window takes the bit-parallel step when
# (hi+1) * states * symbols is at most this, else the trace sweep.  On one
# gap with n = 50k (2-core Xeon, CPython 3.11) the bit-parallel step won at
# every measured cost up to 32k, and the sweep won from 48k on when 1% of
# the positions were starts.
_BIT_PARALLEL_MAX_COST = 32_000

# The bit-parallel step reads b = _BLOCK_SYMBOLS word symbols per block
# when states <= 4 * symbols and 2 * states**2 <= (hi - 4b) * symbols, else
# one per step.  A block costs one AND per state pair and one shift per
# state, against b ANDs per transition pair and b shifts per state.  Its
# tables cost about log2(b) * states**3 ANDs once per step, so a one-shot
# call gains from about hi = 4b + 2 * states**2 / symbols (measured on one
# gap, n = 50k, 2-core Xeon, CPython 3.11, 2 to 8 states, 2 to 4 symbols).
_BLOCK_SYMBOLS = 8


def _or_spread(x: int, span: int) -> int:
    """x | (x << 1) | ... | (x << span): one run of bits, in O(1) big-int
    operations, once span covers x from its lowest set bit to its highest,
    else by doubling."""
    if not x or not span:
        return x
    if span > 3:  # a smaller span takes at most two doubling steps, no more than the test
        low, top = _lowest_bit(x), x.bit_length()
        if span >= top - 1 - low:
            return (1 << (top + span)) - (1 << low)
    covered = 0  # x holds the shifts 0..covered
    while 2 * covered < span:
        x |= x << (covered + 1)
        covered += covered + 1
    if covered < span:
        x |= x << (span - covered)
    return x


def _add_spread(x: int, terms: int, width: int) -> int:
    """x + (x << width) + ... + (x << (terms-1)*width), by doubling: at
    most two shift-adds per bit of terms."""
    total, offset, step = 0, 0, width
    while True:
        if terms & 1:
            total += x << offset
            offset += step
        terms >>= 1
        if not terms:
            return total
        x += x << step
        step <<= 1


def _to_words(x: int, words: int) -> array:
    """The low 64*words bits of x as 64-bit words, least significant first."""
    out = array("Q", x.to_bytes(8 * words, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _from_words(words: array) -> int:
    """Inverse of _to_words."""
    if sys.byteorder == "big":
        words = array("Q", words)
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


@functools.lru_cache(maxsize=4)
def _low_bits(bits: int) -> int:
    """(1 << bits) - 1, kept for the few lane counts and widths in use:
    building it costs as much as a shift-add of the vector it masks."""
    return (1 << bits) - 1


def _unpack_lanes(x: int, lanes: int, width: int) -> list[int]:
    """Lanes 0..lanes-1 of x, lane i being bits i*width to (i+1)*width."""
    if width == 64:  # one C-level conversion
        return _to_words(x, lanes).tolist()
    size = width // 8
    raw = x.to_bytes(lanes * size, "little")
    return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]


def _pack_lanes(counts: list[int], width: int) -> int:
    """Inverse of _unpack_lanes: counts[i] in lane i; each count < 2**width."""
    if width == 64:
        return _from_words(array("Q", counts))
    size = width // 8
    return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in counts), "little")


def _interleave(vecs: list[int], lanes: int, width: int) -> list[int]:
    """The columns of a batch of lane vectors: column c is one int whose
    width-bit lane i is lane c of vecs[i], for c in 0..lanes-1."""
    if len(vecs) == 1:
        return _unpack_lanes(vecs[0], lanes, width)
    words = width // 64
    stride = len(vecs) * words
    batch = array("Q", bytes(8 * lanes * stride))
    for i, vec in enumerate(vecs):
        src = _to_words(vec, lanes * words)
        for t in range(words):
            batch[i * words + t :: stride] = src[t::words]
    return _unpack_lanes(_from_words(batch), lanes, 64 * stride)


def _deinterleave(columns: list[int], m: int, width: int) -> list[int]:
    """Inverse of _interleave for a batch of m vectors."""
    if m == 1:
        return [_pack_lanes(columns, width)]
    words = width // 64
    stride = m * words
    batch = _to_words(_pack_lanes(columns, 64 * stride), len(columns) * stride)
    if words == 1:
        return [_from_words(batch[i::m]) for i in range(m)]
    out = []
    for i in range(m):
        vec = array("Q", bytes(8 * len(columns) * words))
        for t in range(words):
            vec[t::words] = batch[i * words + t :: stride]
        out.append(_from_words(vec))
    return out


def _pairs(table: dict[int, dict[int, int]]) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """A table of transition masks, table[q2][q], as the pairs lists the
    bit-parallel step walks: per q2, the (q, mask) with a non-empty mask."""
    return [(q2, tuple((q, m) for q, m in src.items() if m)) for q2, src in table.items()]


def _compose(
    head: dict[int, dict[int, int]], span: int, tail: dict[int, dict[int, int]]
) -> dict[int, dict[int, int]]:
    """Transition masks of head's symbols followed by tail's.  Bit p of
    head[q1][q] is set when the span symbols from p move q to q1, and bit p
    of tail[q2][q1] when tail's symbols from p move q1 to q2; the result's
    [q2][q] has bit p when head's run from q at p and tail's run at p+span
    meet at some q1.  Every q1 of tail is a key of head."""
    out = {}
    for q2, mids in tail.items():
        acc: dict[int, int] = {}
        for q1, m2 in mids.items():
            m2 >>= span
            for q, m1 in head[q1].items():
                x = m1 & m2
                if x:
                    acc[q] = acc.get(q, 0) | x
        out[q2] = acc
    return out


def _iter_bits(x: int) -> Iterable[int]:
    # byte-wise walk keeps this linear in the mask width
    base = 0
    for byte in x.to_bytes((x.bit_length() + 7) // 8 or 1, "little"):
        while byte:
            low = byte & -byte
            yield base + low.bit_length() - 1
            byte ^= low
        base += 8


def _mask_from_positions(n: int, positions: Iterable[int]) -> int:
    buf = bytearray(n // 8 + 2)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _flags(x: int, width: int) -> bytes:
    """Byte i is 1 when bit i of x is set, else 0; at least width bytes."""
    return bin(x)[:1:-1].encode().translate(_TO_FLAGS).ljust(width, b"\0")


def _from_flags(flags: bytes | bytearray) -> int:
    """Inverse of _flags: bit i is set when byte i is 1."""
    return int(flags.translate(_TO_DIGITS)[::-1], 2) if flags else 0


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _dfa_sigma(w: Word, constraints: Iterable) -> int:
    """The alphabet size to normalize the constraints against.

    Only a DFA needs its symbols to cover the word's, so without one this
    is 0 and the word is not read.  Otherwise it is the fewest symbols of
    any DFA when the word holds no larger id, decided by C-level passes
    over its index (_PositionMasks.within), and the word's largest id,
    which normalize refuses with its usual message, when it does."""
    distinct = {id(c): c for c in constraints}.values()
    dfas = {id(d): d for d in map(constraint_dfa, distinct) if d is not None}
    if not dfas:
        return 0
    need = min(d.num_symbols for d in dfas.values())
    return need if w.position_masks.within(need) else max(w.symbols)


def match_naive(w: Word, gs: GappedSequence) -> Optional[Embedding]:
    """Reference matcher: position-by-position dynamic programming.

    D[t] is the set of word positions where the t-th pattern symbol can
    sit, given the first t-1 gaps are satisfied.  Gap feasibility is
    checked directly, streaming the constraint DFA from each candidate
    start for regular gaps.
    """
    if len(gs.pattern) == 0:
        return Embedding(())
    syms = w.symbols
    gs, infeasible = normalize(gs, len(w), _dfa_sigma(w, gs.constraints))
    if infeasible:
        return None
    n = len(syms)
    p = gs.pattern.symbols
    k = len(p)
    posmask = {
        a: _mask_from_positions(n, [i for i, s in enumerate(syms, 1) if s == a]) for a in set(p)
    }
    D = [0] * (k + 1)
    D[1] = posmask.get(p[0], 0)
    for t in range(1, k):
        if D[t] == 0:
            return None
        c = gs.constraints[t - 1]
        pm = posmask.get(p[t], 0)
        lo, hi = constraint_window(c, n)
        if isinstance(c, (ZeroGap, LengthGap)):
            allow = _or_spread(D[t] << (1 + lo), hi - lo)
        else:
            dfa = c.dfa
            table, finals, q0 = dfa.table, dfa.finals, dfa.initial
            allow_pos = []
            for j in _iter_bits(D[t]):
                if lo == 0 and q0 in finals:
                    allow_pos.append(j + 1)
                q = q0
                for e in range(j + 1, n + 1):
                    glen = e - j
                    if glen > hi:
                        break
                    q = table[q][syms[e - 1] - 1]
                    if glen >= lo and q in finals:
                        allow_pos.append(e + 1)
            allow = _mask_from_positions(n + 1, allow_pos)
        D[t + 1] = allow & pm
    if D[k] == 0:
        return None
    pos = [0] * k
    pos[k - 1] = next(_iter_bits(D[k]))
    for t in range(k - 1, 0, -1):
        i = pos[t]
        found = None
        for j in _iter_bits(D[t]):
            if j >= i:
                break
            if constraint_allows(gs.constraints[t - 1], syms[j : i - 1]):
                found = j
                break
        assert found is not None, "forward pass admitted an unreachable end"
        pos[t - 1] = found
    return Embedding(tuple(pos))


class _Traces:
    """Starts of one DFA gap merged by their traces, for the windowed sweeps.

    The trace of a start j is its DFA state after w[j+1..c], c the sweep's
    column.  Traces that meet stay together (the DFA is deterministic), so
    at most one live trace per state exists; union-find over the starts
    keeps which trace each start joined.
    """

    __slots__ = ("q0", "parent", "state", "live")

    def __init__(self, q0: int) -> None:
        self.q0 = q0
        self.parent: dict[int, int] = {}  # start -> start whose trace it joined
        self.state: dict[int, int] = {}  # root start -> its trace's current state
        self.live: dict[int, int] = {}  # state -> root start of the trace there

    def add(self, c: int) -> None:
        """Open a trace for start c, at the initial state."""
        root = self.live.get(self.q0)
        if root is None:
            self.live[self.q0] = self.parent[c] = c
            self.state[c] = self.q0
        else:
            self.parent[c] = root

    def state_of(self, j: int) -> int:
        """The current state of the trace start j joined."""
        parent = self.parent
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return self.state[j]

    def reset(self) -> None:
        """Drop every trace: no start added so far is asked about again."""
        self.parent.clear()
        self.state.clear()
        self.live = {}

    def advance(self, move: tuple[int, ...]) -> None:
        """Every live trace reads one symbol; move[q] is the state after q."""
        parent, state = self.parent, self.state
        nxt: dict[int, int] = {}
        for q, root in self.live.items():
            q2 = move[q]
            other = nxt.get(q2)
            if other is None:
                nxt[q2] = root
                state[root] = q2
            else:
                parent[root] = other
        self.live = nxt


class GapStep:
    """Which positions can follow which across one gap constraint, in one word.

    reach(mask) maps a mask of positions j to the mask of positions i in
    1..n such that the gap w[j+1..i-1] satisfies the constraint for some
    j in mask; pred(mask, i) is the least such j.  reach_counts(vecs, width)
    is its count-valued twin on a batch of ints of width-bit lanes, lane i
    from bit i*width up: lane i of each output is the sum of its vector's
    lanes j over those j.
    gap_steps builds one per distinct normalized constraint of a word, and
    every gap with that constraint reuses it for every mask.  DFA state
    sets are ints with bit q for state q.

    A DFA gap with a real window reaches through one of two engines, fixed
    at construction by one cost rule: the bit-parallel step (_bit_sweep)
    when (hi+1) * states * symbols is at most _BIT_PARALLEL_MAX_COST, else
    the trace sweep (_window_sweep).  The bit-parallel step reads
    self.block = b word symbols per step: b = _BLOCK_SYMBOLS when
    states <= 4 * symbols and 2 * states**2 <= (hi - 4b) * symbols, else 1,
    so that the block tables are built only where they pay on one call.
    Its tables are built on its first call, from posmask: the word's
    index (Word.position_masks), which it completes in place, so every
    step and every call on one Word builds each symbol's mask once.
    Beside the one-symbol masks (into, at most states * symbols masks of
    n+1 bits), b > 1 adds at most states**2 block masks and (b-1) * states
    end masks; under the rule's states <= 4 * symbols that is at most
    (4 + (b-1) / symbols) times into's bound.  pred and reach_counts do
    not depend on the engine.

    A DFA gap with a vacuous window reaches through one sweep over sets of
    DFA states (_sweep).  Its set always lies inside R, the states
    reachable from the initial one, and the only set that no later symbol
    or start can change is R itself, when every symbol maps R onto R (the
    DFA permutes R, as a parity or modular-counting DFA does).  On its
    first call the sweep settles which holds; when it does, the sweep
    stops at the first column whose set is R and fills the rest of the
    word from R alone.
    """

    def __init__(self, w: Word, c) -> None:
        self.syms = w.symbols
        self.n = n = len(w)
        self.full = (1 << (n + 1)) - 2
        self.lo, self.hi = constraint_window(c, n)
        self.dfa = dfa = constraint_dfa(c)
        if dfa is None:
            return
        self.windowed = self.lo > 0 or self.hi < n
        self.bit_parallel = self.windowed and (
            (self.hi + 1) * dfa.num_states * dfa.num_symbols <= _BIT_PARALLEL_MAX_COST
        )
        states, symbols = dfa.num_states, dfa.num_symbols
        self.block = (
            _BLOCK_SYMBOLS
            if self.bit_parallel
            and states <= 4 * symbols
            and 2 * states * states <= (self.hi - 4 * _BLOCK_SYMBOLS) * symbols
            else 1
        )
        self.posmask = w.position_masks
        # the tables of _bit_sweep, built on its first call
        self.into: Optional[list[tuple[int, tuple[tuple[int, int], ...]]]] = None
        self.blocks: list[tuple[int, tuple[tuple[int, int], ...]]] = []
        self.ends: list[tuple[tuple[int, int], ...]] = []
        self.settled: Optional[int] = None  # R, or -1 when R is not a fixpoint
        self.q0 = 1 << dfa.initial
        self.fin = sum(1 << q for q in dfa.finals)
        # moves[a][q]: the state reached from q on symbol a
        self.moves = [()] + [
            tuple(row[a] for row in dfa.table) for a in range(dfa.num_symbols)
        ]
        self.img: list[dict[int, int]] = [{} for _ in self.moves]
        self.pre: list[dict[int, int]] = [{} for _ in self.moves]

    def _image(self, a: int, states: int) -> int:
        got = self.img[a].get(states)
        if got is None:
            got = 0
            for q, q2 in enumerate(self.moves[a]):
                if states >> q & 1:
                    got |= 1 << q2
            self.img[a][states] = got
        return got

    def _preimage(self, a: int, states: int) -> int:
        got = self.pre[a].get(states)
        if got is None:
            got = 0
            for q, q2 in enumerate(self.moves[a]):
                if states >> q2 & 1:
                    got |= 1 << q
            self.pre[a][states] = got
        return got

    def reach(self, mask: int) -> int:
        if not mask:
            return 0
        if self.dfa is None:
            return _or_spread(mask << (1 + self.lo), self.hi - self.lo) & self.full
        if self.bit_parallel:
            return self._bit_sweep(mask)
        if self.windowed:
            return self._window_sweep(mask)
        return self._sweep(mask)

    def _settle(self) -> None:
        """settled := R, the states reachable from the initial one, if every
        symbol maps R onto R, else -1, which no state set equals.  A fixpoint
        R leaves the image memo and never enters it again, so _sweep looks
        for R only on a memo miss and a column that hits pays nothing."""
        symbols = range(1, len(self.moves))
        reached = 0
        grown = self.q0
        while grown != reached:
            reached = grown
            for a in symbols:
                grown |= self._image(a, reached)
        if all(self._image(a, reached) == reached for a in symbols):
            self.settled = reached
            for a in symbols:
                del self.img[a][reached]
        else:
            self.settled = -1

    def _sweep(self, mask: int) -> int:
        """Vacuous window: carry the set of DFA states over all open gaps,
        up to the first column whose set is the fixpoint self.settled."""
        if self.settled is None:
            self._settle()
        n, q0, fin, settled = self.n, self.q0, self.fin, self.settled
        first = _lowest_bit(mask)
        flags = _flags(mask, n + 1)
        img = self.img
        out = bytearray(n + 1)
        states = q0
        span = range(first + 1, n + 1)
        for i, a, f in zip(span, self.syms[first:], flags[first + 1 :]):
            if states & fin:
                out[i] = 1
            nxt = img[a].get(states)
            if nxt is None:
                if states == settled:  # no later column can change it
                    if states & fin:
                        out[i:] = b"\x01" * (n + 1 - i)
                    break
                nxt = self._image(a, states)
            states = nxt | q0 if f else nxt
        return _from_flags(out)

    def _bit_tables(self) -> None:
        """The tables of _bit_sweep.  Only pairs (q, q2) with q reachable from
        the initial state and a final state reachable from q2 are kept; L is
        the set of such q2, and a table of pairs lists, per q2 in L, the
        (q, m) with m not empty.

        into: bit p of m is set when the symbol at p moves q to q2.
        blocks: the same for the b symbols from p, composed from into by
        binary powering (_compose).  ends[s], 0 < s < b: the pairs (q, m)
        where bit p of m is set when the s symbols from p move q into a
        final state.  into and blocks hold at most states * |L| masks each,
        and ends (b-1) * |L|, all of n+1 bits; for b = 1 blocks is into."""
        symbols = range(1, len(self.moves))
        live = reached = 0
        grown, seen = self.fin, self.q0
        while grown != live or seen != reached:
            live, reached = grown, seen
            for a in symbols:
                grown |= self._preimage(a, live)
                seen |= self._image(a, reached)
        pos, b = self.posmask, self.block
        pos.fill(symbols)
        into: dict[int, dict[int, int]] = {q2: {} for q2 in _iter_bits(live)}
        for a in symbols:
            if pos[a]:
                for q, q2 in enumerate(self.moves[a]):
                    if q2 in into and reached >> q & 1:
                        into[q2][q] = into[q2].get(q, 0) | pos[a]
        self.into = _pairs(into)
        if b == 1:
            self.blocks = self.into
            return
        # binary powering: power holds the masks of span symbols, block
        # those of the width symbols taken so far
        power, span, block, width, e = into, 1, None, 0, b
        while e:
            if e & 1:
                block = power if block is None else _compose(block, width, power)
                width += span
            e >>= 1
            if e:
                power, span = _compose(power, span, power), 2 * span
        self.blocks = _pairs(block)
        # ends: one symbol into a final state, then one state further back
        # for each longer s
        end: dict[int, int] = {}
        for q2 in self.dfa.finals:
            for q, m in into[q2].items():
                end[q] = end.get(q, 0) | m
        self.ends = [()]
        for s in range(1, b):
            self.ends.append(tuple((q, m) for q, m in end.items() if m))
            if s + 1 < b:
                nxt: dict[int, int] = {}
                for mid, m2 in end.items():
                    m2 >>= 1
                    for q, m in into[mid].items():
                        nxt[q] = nxt.get(q, 0) | (m & m2)
                end = nxt

    def _bit_sweep(self, mask: int) -> int:
        """Real window [lo, hi], bit-parallel over every start at once.

        S[q] is the mask of the next positions j+t+1 of the starts j whose
        gap's first t symbols lead the DFA to q.  A block of b symbols ANDs
        S[q] with the mask of the positions whose b symbols move q to q2
        (blocks) and ORs the result into S[q2], shifted by b; states that
        cannot reach a final state are not kept.  For t in [lo, hi] the
        final states' masks are ends: a block at t ORs S[q] & ends[s][q]
        into accumulator s, the ends at t+s, and each accumulator is
        shifted by s once, after the last block.  The steps before lo take
        whole blocks, then single symbols (into); the last block stops at
        hi, and the steps stop early once every mask is empty.  Bits are
        counted from base: the first start when shifting every table down
        to it costs less than the bits it saves, else position 0.
        """
        if self.into is None:
            self._bit_tables()
        lo, hi, b, n = self.lo, self.hi, self.block, self.n
        first = _lowest_bit(mask)
        base = first if first * (hi + 1) > (n - first) * b else 0

        def shifted(pairs):
            return [(q, m >> base) for q, m in pairs] if base else pairs

        def rows(table):
            return [(q2, shifted(src)) for q2, src in table] if base else table

        def advance(S: list[int], table, width: int) -> list[int]:
            nxt = [0] * len(S)
            for q2, src in table:
                acc = 0
                for q, m in src:
                    acc |= S[q] & m
                nxt[q2] = acc << width
            return nxt

        S = [0] * self.dfa.num_states
        S[self.dfa.initial] = (mask >> base) << 1
        t = 0
        blocks = rows(self.blocks)
        while t + b <= lo:
            S = advance(S, blocks, b)
            t += b
            if not any(S):
                return 0
        if t < lo:
            one = rows(self.into)
            while t < lo:
                S = advance(S, one, 1)
                t += 1
                if not any(S):
                    return 0
        ends = [shifted(pairs) for pairs in self.ends]
        finals = self.dfa.finals
        acc = [0] * b
        while True:
            for q in finals:
                acc[0] |= S[q]
            for s in range(1, min(b, hi - t + 1)):
                got = acc[s]
                for q, m in ends[s]:
                    got |= S[q] & m
                acc[s] = got
            if t + b > hi:
                break
            S = advance(S, blocks, b)
            t += b
            if not any(S):
                break
        out = 0
        for s, got in enumerate(acc):
            out |= got << s
        return (out << base) & self.full

    def _window_sweep(self, mask: int) -> int:
        """Real window [lo, hi]: one sweep with two kinds of DFA traces.

        _Traces gives the state of each start j after exactly lo symbols;
        the traces only move while some start has not got there yet.  That
        state enters a second set of traces, where each state keeps only
        its latest entry: a later entry is never worse against hi.  No end
        lies past the last start plus hi+1, so the sweep stops there.
        """
        n, lo, span = self.n, self.lo, self.hi - self.lo
        fin = self.fin
        first = _lowest_bit(mask)
        flags = _flags(mask, n + 1)
        traces = _Traces(self.dfa.initial)
        add, state_of, advance = traces.add, traces.state_of, traces.advance
        due = -1  # the column where the latest start has read lo symbols
        entries: dict[int, int] = {}  # state -> latest column entering it
        out = bytearray(n + 1)
        # column c: every open gap has read w[..c]; the next symbol is at c+1
        for c in range(first, min(n, mask.bit_length() + self.hi)):
            if flags[c]:
                add(c)
                due = c + lo
            j = c - lo
            if j >= first and flags[j]:
                entries[state_of(j)] = c
            cut = c - span
            for q, t in entries.items():
                if t >= cut and fin >> q & 1:
                    out[c + 1] = 1
                    break
            move = self.moves[self.syms[c]]
            if c < due:
                advance(move)
            elif c == due:
                traces.reset()
            nxt: dict[int, int] = {}
            for q, t in entries.items():
                if t > cut and nxt.get(move[q], -1) < t:
                    nxt[move[q]] = t
            entries = nxt
        return _from_flags(out)

    def reach_counts(self, vecs: list[int], width: int) -> list[int]:
        """The spread of each vector of a batch: lane i of a result, for i
        in 1..n, is the sum of the lanes j < i of its vector whose gap
        w[j+1..i-1] satisfies the constraint; a vector holds lanes 0..n,
        its result lanes 1..n, and no sum may reach 2**width."""
        n, lo = self.n, self.lo
        if self.dfa is not None:
            columns = self._count_sweep(_interleave(vecs, n + 1, width))
            return _deinterleave(columns, len(vecs), width)
        # lane j moves to lanes j+lo+1 .. j+hi+1; lanes past n are cut
        shift, terms, lanes = (lo + 1) * width, self.hi - lo + 1, _low_bits((n + 1) * width)
        return [_add_spread(vec << shift, terms, width) & lanes for vec in vecs]

    def _count_sweep(self, vec: list[int]) -> list[int]:
        """DFA gaps: one left-to-right sweep carrying a count per DFA state.

        vec[j] is the column of start j: the counts of a whole batch, one
        lane per vector, which no sum below carries out of or borrows
        into, since each of its lanes stays within its vector's lane sum.
        cnt[q] sums vec[j] over the open starts j whose gap so far is at
        state q.  A start enters after lo symbols; under a real window it
        leaves again after hi+1 symbols.  Both moments need the start's
        DFA state then, which _Traces gives; the traces only move while
        some start is open.  The sweep stops when the last start leaves.
        """
        n, lo, hi, windowed = self.n, self.lo, self.hi, self.windowed
        q0 = self.dfa.initial
        finals = tuple(self.dfa.finals)
        moves, syms = self.moves, self.syms
        first = next((j for j, x in enumerate(vec) if x), n)
        last = next((j for j in range(n, first, -1) if vec[j]), first)
        traces = _Traces(q0)
        due = -1  # the column where the latest start leaves
        cnt = [0] * self.dfa.num_states
        out = [0] * (n + 1)
        # column c: every open gap has read w[..c]; the next symbol is at c+1
        for c in range(first, min(n, last + hi + 1)):
            if not windowed:
                cnt[q0] += vec[c]
            else:
                if vec[c]:
                    traces.add(c)
                    due = c + hi + 1
                j = c - lo
                if j >= first and vec[j]:
                    cnt[traces.state_of(j)] += vec[j]
                j = c - hi - 1
                if j >= first and vec[j]:
                    cnt[traces.state_of(j)] -= vec[j]
            out[c + 1] = sum([cnt[q] for q in finals])
            move = moves[syms[c]]
            nxt = [0] * len(cnt)
            for q, q2 in enumerate(move):
                nxt[q2] += cnt[q]
            cnt = nxt
            if c < due:
                traces.advance(move)
            elif c == due:
                traces.reset()
        return out

    def pred(self, mask: int, i: int) -> int:
        """Least j in mask whose gap up to position i satisfies the constraint."""
        lo, hi = self.lo, self.hi
        first = max(i - 1 - hi, 0)
        if self.dfa is None:
            window = mask >> first & ((1 << (i - lo - first)) - 1)
            return first + _lowest_bit(window) if window else -1
        # backward preimage sweep: states is the set of DFA states from which
        # the rest of the gap, w[j+1..i-1], ends in a final state
        flags = _flags(mask, i)
        q0, syms = self.q0, self.syms
        states = self.fin
        best = -1
        for j in range(i - 1, max(first, 1) - 1, -1):
            if not states:
                break
            if flags[j] and states & q0 and i - 1 - j >= lo:
                best = j
            a = syms[j - 1]
            prev = self.pre[a].get(states)
            states = prev if prev is not None else self._preimage(a, states)
        return best


def gap_steps(w: Word, constraints: Iterable) -> list[GapStep]:
    """One GapStep per constraint of the word w, built once per distinct
    constraint: gaps with the same window and the same DFA object share one
    step, with its memos and tables.  The DFA is keyed by identity, since
    hashing a Dfa hashes its whole table.  A step is looked up by the
    constraint object first: normalize_constraints returns one object per
    distinct constraint, so a repeated gap costs one dict lookup, and only
    a new object has its window computed.  Equal constraints held in
    distinct objects still share a step through the window key.  The steps
    share w's position masks (see GapStep)."""
    n = len(w)
    built: dict[tuple[tuple[int, int], int], GapStep] = {}
    by_object: dict[int, GapStep] = {}
    steps = []
    for c in constraints:
        step = by_object.get(id(c))
        if step is None:
            key = (constraint_window(c, n), id(constraint_dfa(c)))
            step = built.get(key)
            if step is None:
                step = built[key] = GapStep(w, c)
            by_object[id(c)] = step
        steps.append(step)
    return steps


def match(w: Word, gs: GappedSequence) -> Optional[Embedding]:
    """Embedding of gs in w with the canonical witness, or None.

    Position-mask DP over the pattern's blocks with one GapStep per
    distinct non-zero constraint; see the module docstring for the witness
    contract.
    """
    if len(gs.pattern) == 0:
        return Embedding(())
    posmask = w.position_masks
    gs, infeasible = normalize(gs, len(w), _dfa_sigma(w, gs.constraints))
    if infeasible:
        return None
    blocks, joints = pattern_blocks(gs)
    # one end mask per distinct block: a many-gap pattern repeats few blocks
    block_ends: dict[tuple[int, ...], int] = {}
    for block in blocks:
        if block not in block_ends:
            m = len(block)
            e = posmask[block[-1]]
            for idx in range(m - 1):
                e &= posmask[block[idx]] << (m - 1 - idx)
            block_ends[block] = e
    ends = [block_ends[block] for block in blocks]
    D = [ends[0]]
    steps = gap_steps(w, joints)
    for t, step in enumerate(steps):
        if not D[t]:
            return None
        D.append((step.reach(D[t]) << (len(blocks[t + 1]) - 1)) & ends[t + 1])
    if not D[-1]:
        return None
    # the witness is built right to left, one range per block, and reversed
    # once: prepending each block would copy the list k times
    end = _lowest_bit(D[-1])
    start = end - len(blocks[-1]) + 1
    pieces = [range(start, end + 1)]
    for t in range(len(joints) - 1, -1, -1):
        end = steps[t].pred(D[t], start)
        assert end >= 1, "forward pass admitted an unreachable end"
        start = end - len(blocks[t]) + 1
        pieces.append(range(start, end + 1))
    return Embedding(tuple(chain.from_iterable(reversed(pieces))))


@dataclass(frozen=True)
class EqualitySystem:
    """Symmetric relation on gap indices whose gaps must have equal lengths."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        canon = set()
        for a, b in self.pairs:
            if not (type(a) is int and type(b) is int and a >= 1 and b >= 1):
                raise InputError(f"gap indices are 1-based positive integers, got ({a!r}, {b!r})")
            canon.add((min(a, b), max(a, b)))
        object.__setattr__(self, "pairs", frozenset(canon))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "EqualitySystem":
        return cls(frozenset((a, b) for a, b in pairs))

    def classes(self, num_gaps: int) -> list[tuple[int, ...]]:
        """Partition of gap indices 1..num_gaps, sorted by smallest member."""
        parent = list(range(num_gaps + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.pairs:
            if a > num_gaps or b > num_gaps:
                raise InputError(f"equality pair ({a}, {b}) exceeds gap count {num_gaps}")
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        groups: dict[int, list[int]] = {}
        for g in range(1, num_gaps + 1):
            groups.setdefault(find(g), []).append(g)
        return [tuple(groups[r]) for r in sorted(groups)]

    def satisfied_by(self, w: Word, e: Embedding) -> bool:
        return all(len(e.gap(w, a)) == len(e.gap(w, b)) for a, b in self.pairs)


def _eq_update(
    posmask: dict[int, int], p: tuple[int, ...], windows: list, F: list[int], B: list[int], gaps
) -> Optional[set[int]]:
    """Bring F and B up to date, in place, after the windows of gaps (an
    increasing sequence) changed.  F[j] / B[j] is where symbol j (1-based)
    of p can sit in a match of the first j symbols / of symbols j..k under
    the length windows; index 0 is unused.  F[j+1] depends only on F[j] and
    gap j's window, and B[j] only on B[j+1] and that window, so a mask that
    comes out equal to its old value leaves every mask up to the next gap of
    gaps unchanged, and the walk jumps there.  Returns the gaps g whose
    window, F[g] or B[g+1] changed, or None when no match of p remains."""
    k = len(p)
    touched = set(gaps)
    g = gaps[0] if gaps else k
    while g < k:
        lo, hi = windows[g - 1]
        new = _or_spread(F[g] << (1 + lo), hi - lo) & posmask[p[g]]
        if not new:
            return None
        if new != F[g + 1]:
            F[g + 1] = new
            touched.add(g + 1)
            g += 1
        else:
            i = bisect_right(gaps, g)
            g = gaps[i] if i < len(gaps) else k
    if not F[-1]:
        return None
    g = gaps[-1] if gaps else 0
    while g >= 1:
        lo, hi = windows[g - 1]
        new = (_or_spread(B[g + 1], hi - lo) >> (1 + hi)) & posmask[p[g - 1]]
        if new != B[g]:
            B[g] = new
            touched.add(g - 1)
            g -= 1
        else:
            i = bisect_left(gaps, g)
            g = gaps[i - 1] if i else 0
    return touched


def _class_lengths(cl: tuple[int, ...], windows: list, F: list[int], B: list[int]) -> Iterator[int]:
    """Increasing lengths l that every gap g of cl can take in some match
    under the windows: those with (F[g] << (l+1)) & B[g+1] non-zero."""
    lo = max(windows[g - 1][0] for g in cl)
    hi = min(windows[g - 1][1] for g in cl)
    for g in cl:
        # gap g spans s - e - 1 for an end e in F[g] and a start s in B[g+1]
        lo = max(lo, _lowest_bit(B[g + 1]) - F[g].bit_length())
        hi = min(hi, B[g + 1].bit_length() - 2 - _lowest_bit(F[g]))
    return (ell for ell in range(lo, hi + 1) if all((F[g] << (ell + 1)) & B[g + 1] for g in cl))


def match_with_equalities(
    w: Word, gs: GappedSequence, eq: EqualitySystem
) -> Optional[Embedding]:
    """Embedding where equality-related gaps share a common length.

    The problem is NP-hard, so this backtracks over the common length of
    each equality class of two or more gaps, classes ordered by their
    smallest gap index and lengths tried in increasing order, in one
    explicit-stack search.  A node fixes the classes before it to exact
    (l, l) windows.  It takes its parent's windows and masks F and B and
    updates only what fixing its own class changed (_eq_update).  It is
    pruned when no match remains or some open class has no length that all
    its gaps can take (_class_lengths); both tests ignore only the open
    equalities, so no embedding is lost.  The parent found every open class
    a length, so only the classes with a gap whose masks changed are tested
    again.  Otherwise the node branches on the next class's lengths.

    The witness is canonical: the class lengths are the lexicographically
    least feasible tuple, and the embedding is the canonical witness with
    every class fixed to its length, from match_naive, which is no slower
    than match on these length-only leaves.
    """
    posmask = w.position_masks
    gs, infeasible = normalize(gs, len(w), _dfa_sigma(w, gs.constraints))
    for c in gs.constraints:
        if not isinstance(c, (ZeroGap, LengthGap)):
            raise UsageError("equality matching handles zero and length constraints only")
    if len(gs.pattern) == 0:
        return Embedding(())
    if infeasible:
        return None
    p = gs.pattern.symbols
    k = len(p)
    classes = [cl for cl in eq.classes(k - 1) if len(cl) >= 2]
    owner = {g: i for i, cl in enumerate(classes) for g in cl}
    root = [constraint_window(c, len(w)) for c in gs.constraints]
    F = [0, posmask[p[0]]] + [0] * (k - 1)
    B = [0] * k + [posmask[p[-1]]]
    # (classes fixed, the length of the last of them, the parent's windows, F, B)
    stack = [(0, 0, root, F, B)]
    while stack:
        d, ell, windows, F, B = stack.pop()
        if d:
            gaps = classes[d - 1]
            windows, F, B = list(windows), list(F), list(B)
            for g in gaps:
                windows[g - 1] = (ell, ell)
        else:
            gaps = range(1, k)
        touched = _eq_update(posmask, p, windows, F, B, gaps)
        if touched is None:
            continue
        if d == len(classes):
            cons = list(gs.constraints)
            for cl in classes:
                fixed = windows[cl[0] - 1][0]
                for g in cl:
                    cons[g - 1] = LengthGap(fixed, fixed) if fixed else ZeroGap()
            return match_naive(w, GappedSequence(gs.pattern, tuple(cons)))
        retest = sorted({owner[g] for g in touched if owner.get(g, -1) > d})
        for i in retest:
            if next(_class_lengths(classes[i], windows, F, B), None) is None:
                break  # a later class has no length left
        else:
            for ell in reversed(list(_class_lengths(classes[d], windows, F, B))):
                stack.append((d + 1, ell, windows, F, B))
    return None
