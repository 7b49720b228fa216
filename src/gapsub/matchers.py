"""Decision procedure for embedding a gapped sequence in a word.

match answers whether the pattern embeds in the word with every gap
constraint satisfied, and returns a witness embedding or None.  It is one
left-to-right dynamic programme over bitmasks of word positions (bit i is
position i, 1-based).  The pattern is split into blocks at its non-zero
constraints; a block's end positions are one shifted AND of per-symbol
position masks.  D[t], the ends of block t reachable with every earlier
gap satisfied, follows from D[t-1] through one gap step:

    D[t] = (step.reach(D[t-1]) << (len(block t) - 1)) & ends(block t)

A GapStep is built once per (word, constraint) and picks its case from
the constraint alone:

- zero or length window   shift plus a doubling or-spread
- DFA, vacuous window     one sweep over sets of DFA states, with subset
                          images memoised per symbol, O(n) per gap
- DFA with a real window  one sweep of merged DFA traces (_Traces),
                          giving each start's state after lo symbols, and
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
in multiplicity.py goes through: out[i] sums vec[j] over the positions j
that reach i.  Zero and length windows take one prefix-sum difference,
O(n); DFA gaps take one sweep carrying a count per DFA state, O(n states),
where under a real window a start's count enters after lo symbols and
leaves after hi+1, at the DFA states _Traces gives for it then.

match_with_equalities backtracks over the common lengths of gap-length
equality classes (NP-hard) in one explicit-stack search driven by forward
and backward masks built by the length gap step's or-spread: with the
classes fixed so far as exact windows, the lengths gap g can take in an
embedding that ignores the equalities are exactly the l for which the ends
of the first g symbols' matches, shifted by l+1, meet the starts of the
rest's matches.  A leaf's witness is one match_naive call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Iterable, Iterator, Optional

from .core import (
    Embedding,
    GappedSequence,
    InputError,
    LengthGap,
    UsageError,
    Word,
    ZeroGap,
    check_dfa_alphabet,
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
    """
    syms = gs.pattern.symbols
    if not syms:
        return [], []
    blocks: list[tuple[int, ...]] = []
    joints: list = []
    cur = [syms[0]]
    for idx, c in enumerate(gs.constraints):
        if is_zero_gap(c):
            cur.append(syms[idx + 1])
        else:
            blocks.append(tuple(cur))
            joints.append(c)
            cur = [syms[idx + 1]]
    blocks.append(tuple(cur))
    return blocks, joints


def _or_spread(x: int, span: int) -> int:
    """x | (x << 1) | ... | (x << span), by doubling."""
    covered = 0
    while covered < span:
        d = min(covered + 1, span - covered)
        x |= x << d
        covered += d
    return x


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


def position_masks(syms: tuple[int, ...], wanted: Iterable[int]) -> dict[int, int]:
    """Mask of the positions (1-based) holding symbol a, for each a in wanted."""
    wanted = set(wanted)
    if max(syms, default=0) < 256:
        # one C-level translate per symbol instead of a loop over positions
        top_first = bytes(syms)[::-1]
        out = {}
        for a in wanted:
            table = bytearray(b"0" * 256)
            if a < 256:
                table[a] = ord("1")
            out[a] = int(top_first.translate(table) or b"0", 2) << 1
        return out
    bufs = {a: bytearray(len(syms) // 8 + 2) for a in wanted}
    for i, a in enumerate(syms, start=1):
        b = bufs.get(a)
        if b is not None:
            b[i >> 3] |= 1 << (i & 7)
    return {a: int.from_bytes(b, "little") for a, b in bufs.items()}


def match_naive(w: Word, gs: GappedSequence) -> Optional[Embedding]:
    """Reference matcher: position-by-position dynamic programming.

    D[t] is the set of word positions where the t-th pattern symbol can
    sit, given the first t-1 gaps are satisfied.  Gap feasibility is
    checked directly, streaming the constraint DFA from each candidate
    start for regular gaps.
    """
    if len(gs.pattern) == 0:
        return Embedding(())
    check_dfa_alphabet(gs.constraints, max(w.symbols, default=0))
    gs, infeasible = normalize(gs, len(w))
    if infeasible:
        return None
    syms = w.symbols
    n = len(syms)
    p = gs.pattern.symbols
    k = len(p)
    bufs: dict[int, bytearray] = {}
    nb = n // 8 + 2
    for i, a in enumerate(syms, start=1):
        b = bufs.get(a)
        if b is None:
            b = bufs[a] = bytearray(nb)
        b[i >> 3] |= 1 << (i & 7)
    posmask = {a: int.from_bytes(b, "little") for a, b in bufs.items()}
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
    j in mask; pred(mask, i) is the least such j.  reach_counts(vec) is
    its count-valued twin: out[i] is the sum of vec[j] over those j.
    Built once per (word, normalized constraint) and reused for every
    mask.  DFA state sets are ints with bit q for state q.
    """

    def __init__(self, syms: tuple[int, ...], c) -> None:
        self.syms = syms
        self.n = n = len(syms)
        self.full = (1 << (n + 1)) - 2
        self.lo, self.hi = constraint_window(c, n)
        self.dfa = dfa = constraint_dfa(c)
        if dfa is None:
            return
        self.windowed = self.lo > 0 or self.hi < n
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
        if self.windowed:
            return self._window_sweep(mask)
        return self._sweep(mask)

    def _sweep(self, mask: int) -> int:
        """Vacuous window: carry the set of DFA states over all open gaps."""
        n, q0, fin = self.n, self.q0, self.fin
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
                nxt = self._image(a, states)
            states = nxt | q0 if f else nxt
        return _from_flags(out)

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

    def reach_counts(self, vec: list[int]) -> list[int]:
        """out[i] = sum of vec[j] over the j < i whose gap w[j+1..i-1] satisfies
        the constraint, for i in 1..n; vec and out are indexed 0..n, out[0] = 0."""
        n, lo = self.n, self.lo
        if self.dfa is not None:
            return self._count_sweep(vec)
        m = n - lo  # out[lo+1..n] can be non-zero
        if m <= 0:
            return [0] * (n + 1)
        span = self.hi - lo
        pre = list(accumulate(vec[:m], initial=0))  # pre[u] = vec[0] + ... + vec[u-1]
        # out[lo+u] = pre[u] - pre[max(u-span-1, 0)], for u in 1..m
        lower = [0] * min(span + 1, m) + pre[1 : m - span]
        return [0] * (lo + 1) + list(map(sub, pre[1:], lower))

    def _count_sweep(self, vec: list[int]) -> list[int]:
        """DFA gaps: one left-to-right sweep carrying a count per DFA state.

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


def match(w: Word, gs: GappedSequence) -> Optional[Embedding]:
    """Embedding of gs in w with the canonical witness, or None.

    Position-mask DP over the pattern's blocks with one GapStep per
    non-zero constraint; see the module docstring for the witness contract.
    """
    if len(gs.pattern) == 0:
        return Embedding(())
    check_dfa_alphabet(gs.constraints, max(w.symbols, default=0))
    gs, infeasible = normalize(gs, len(w))
    if infeasible:
        return None
    syms = w.symbols
    blocks, joints = pattern_blocks(gs)
    posmask = position_masks(syms, gs.pattern.symbols)
    ends = []
    for block in blocks:
        m = len(block)
        e = posmask[block[-1]]
        for idx in range(m - 1):
            e &= posmask[block[idx]] << (m - 1 - idx)
        ends.append(e)
    D = [ends[0]]
    steps = []
    for t, c in enumerate(joints):
        if not D[t]:
            return None
        step = GapStep(syms, c)
        steps.append(step)
        D.append((step.reach(D[t]) << (len(blocks[t + 1]) - 1)) & ends[t + 1])
    if not D[-1]:
        return None
    end = _lowest_bit(D[-1])
    positions = list(range(end - len(blocks[-1]) + 1, end + 1))
    for t in range(len(joints) - 1, -1, -1):
        end = steps[t].pred(D[t], positions[0])
        assert end >= 1, "forward pass admitted an unreachable end"
        positions[:0] = range(end - len(blocks[t]) + 1, end + 1)
    return Embedding(tuple(positions))


@dataclass(frozen=True)
class EqualitySystem:
    """Symmetric relation on gap indices whose gaps must have equal lengths."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        canon = set()
        for a, b in self.pairs:
            if a < 1 or b < 1:
                raise InputError("gap indices are 1-based positive integers")
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


def _eq_masks(posmask: dict[int, int], p: tuple[int, ...], windows: list) -> tuple[list[int], list[int]]:
    """F[j] / B[j]: where symbol j (1-based) of p can sit in a match of the
    first j symbols / of symbols j..k under the length windows; index 0 is
    unused.  A match of all of p exists exactly when F[k] is non-zero."""
    F = [0, posmask[p[0]]]
    for (lo, hi), a in zip(windows, p[1:]):
        F.append(_or_spread(F[-1] << (1 + lo), hi - lo) & posmask[a])
    B = [0] * len(p) + [posmask[p[-1]]]
    for j in range(len(p) - 1, 0, -1):
        lo, hi = windows[j - 1]
        B[j] = (_or_spread(B[j + 1], hi - lo) >> (1 + hi)) & posmask[p[j - 1]]
    return F, B


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
    (l, l) windows and rebuilds the masks F and B under them (see
    _eq_masks).  It is pruned when no match remains or some open class
    has no length that all its gaps can take (_class_lengths); both tests
    ignore only the open equalities, so no embedding is lost.  Otherwise
    it branches on the next class's lengths.

    The witness is canonical: the class lengths are the lexicographically
    least feasible tuple, and the embedding is the canonical witness with
    every class fixed to its length, from match_naive, which is no slower
    than match on these length-only leaves.
    """
    gs, infeasible = normalize(gs, len(w))
    for c in gs.constraints:
        if not isinstance(c, (ZeroGap, LengthGap)):
            raise UsageError("equality matching handles zero and length constraints only")
    if len(gs.pattern) == 0:
        return Embedding(())
    if infeasible:
        return None
    p = gs.pattern.symbols
    classes = [cl for cl in eq.classes(len(p) - 1) if len(cl) >= 2]
    base = [constraint_window(c, len(w)) for c in gs.constraints]
    posmask = position_masks(w.symbols, p)
    path = [0] * len(classes)  # path[i]: the length class i is fixed to
    stack = [(0, 0)]  # (classes fixed, the length of the last of them)
    while stack:
        d, ell = stack.pop()
        if d:
            path[d - 1] = ell
        windows = list(base)
        for cl, fixed in zip(classes, path[:d]):
            for g in cl:
                windows[g - 1] = (fixed, fixed)
        F, B = _eq_masks(posmask, p, windows)
        if not F[-1]:
            continue
        if d == len(classes):
            cons = list(gs.constraints)
            for cl, fixed in zip(classes, path):
                for g in cl:
                    cons[g - 1] = LengthGap(fixed, fixed) if fixed else ZeroGap()
            return match_naive(w, GappedSequence(gs.pattern, tuple(cons)))
        for cl in classes[d + 1 :]:
            if next(_class_lengths(cl, windows, F, B), None) is None:
                break  # a later class has no length left
        else:
            for ell in reversed(list(_class_lengths(classes[d], windows, F, B))):
                stack.append((d + 1, ell))
    return None
