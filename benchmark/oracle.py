"""Reference answers computed without calling the library.

The benchmark checks every library result against these.  Inputs are
plain tuples of symbol ids (1..sigma) and gap specs; nothing here imports
gapsub, so a defect in the library cannot hide by agreeing with itself.
The algorithms deliberately differ from the library's where that is
cheap: counting uses prefix sums and per-state count vectors instead of
walking every window, and the analyses memoise subtrees by frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Auto:
    """Complete DFA: table[q][a - 1] is the successor of state q on symbol a."""

    table: tuple[tuple[int, ...], ...]
    finals: frozenset
    initial: int = 0

    def run(self, syms) -> bool:
        q = self.initial
        for a in syms:
            q = self.table[q][a - 1]
        return q in self.finals


@dataclass(frozen=True)
class Gap:
    """Gap of length lo..hi (hi None: unbounded) whose content the DFA accepts."""

    lo: int = 0
    hi: Optional[int] = None
    dfa: Optional[Auto] = None

    def allows(self, gap) -> bool:
        if len(gap) < self.lo or (self.hi is not None and len(gap) > self.hi):
            return False
        return self.dfa is None or self.dfa.run(gap)


def embeds_at(word, pattern, gaps, positions) -> bool:
    """Do the 1-based positions embed pattern in word with every gap allowed?"""
    if len(positions) != len(pattern):
        return False
    if any(not 1 <= p <= len(word) for p in positions):
        return False
    if any(b <= a for a, b in zip(positions, positions[1:])):
        return False
    if any(word[p - 1] != a for p, a in zip(positions, pattern)):
        return False
    return all(
        g.allows(word[positions[t] : positions[t + 1] - 1]) for t, g in enumerate(gaps)
    )


# ---------------------------------------------------------------------------
# counting


def _counts_after_gap(word, cur, gap):
    """out[i] = sum of cur[j] over j whose gap w[j+1..i-1] the spec allows."""
    n = len(word)
    out = [0] * (n + 1)
    if gap.dfa is None:
        pre = [0] * (n + 2)
        for j in range(n + 1):
            pre[j + 1] = pre[j] + cur[j]
        for i in range(1, n + 1):
            top = i - 1 - gap.lo
            if top < 1:
                continue
            bot = 1 if gap.hi is None else max(1, i - 1 - gap.hi)
            if bot <= top:
                out[i] = pre[top + 1] - pre[bot]
        return out
    if gap.lo == 0 and gap.hi is None:
        # one count vector per DFA state: vec[q] sums cur[j] over the starts j
        # whose gap so far, w[j+1..i-1], drives the DFA to q
        table, finals, q0 = gap.dfa.table, gap.dfa.finals, gap.dfa.initial
        vec = [0] * len(table)
        for i in range(1, n + 1):
            vec[q0] += cur[i - 1]
            out[i] = sum(vec[q] for q in finals)
            a = word[i - 1] - 1
            nxt = [0] * len(table)
            for q, c in enumerate(vec):
                if c:
                    nxt[table[q][a]] += c
            vec = nxt
        return out
    table, finals = gap.dfa.table, gap.dfa.finals
    for j in range(1, n + 1):
        if cur[j]:
            q = gap.dfa.initial
            for i in range(j + 1, n + 1):
                glen = i - j - 1
                if gap.hi is not None and glen > gap.hi:
                    break
                if glen >= gap.lo and q in finals:
                    out[i] += cur[j]
                q = table[q][word[i - 1] - 1]
    return out


def count(word, pattern, gaps) -> int:
    """Number of embeddings of pattern in word."""
    if not pattern:
        return 1
    cur = [0] + [1 if a == pattern[0] else 0 for a in word]
    for t, gap in enumerate(gaps):
        spread = _counts_after_gap(word, cur, gap)
        want = pattern[t + 1]
        cur = [c if i and word[i - 1] == want else 0 for i, c in enumerate(spread)]
    return sum(cur)


def parikh(word, gaps, sigma: int) -> dict[tuple, int]:
    """Embedding count of every length-k string that has at least one."""
    k = len(gaps) + 1
    out: dict[tuple, int] = {}

    def rec(prefix, cur):
        if len(prefix) == k:
            total = sum(cur)
            if total:
                out[prefix] = total
            return
        spread = _counts_after_gap(word, cur, gaps[len(prefix) - 1])
        for a in range(1, sigma + 1):
            nxt = [c if i and word[i - 1] == a else 0 for i, c in enumerate(spread)]
            if any(nxt):
                rec(prefix + (a,), nxt)

    for a in range(1, sigma + 1):
        cur = [0] + [1 if x == a else 0 for x in word]
        if any(cur):
            rec((a,), cur)
    return out


# ---------------------------------------------------------------------------
# sets of constrained subsequences


class _Positions:
    """Bitmask frontiers of one word: bit i set means position i is live."""

    def __init__(self, word, gaps, sigma: int):
        self.word = word
        self.n = n = len(word)
        self.gaps = gaps
        self.mask = ((1 << (n + 1)) - 1) & ~1
        self.of = [0] * (sigma + 1)
        for i, a in enumerate(word, start=1):
            self.of[a] |= 1 << i
        ids: dict = {}
        self.gap_id = [ids.setdefault(g, len(ids)) for g in gaps]
        self._reach: dict[int, int] = {}

    def _from(self, t: int, j: int) -> int:
        """Positions after a DFA gap t that starts behind position j."""
        key = self.gap_id[t] * (self.n + 2) + j
        got = self._reach.get(key)
        if got is None:
            gap = self.gaps[t]
            table, finals = gap.dfa.table, gap.dfa.finals
            q = gap.dfa.initial
            got = 0
            for i in range(j + 1, self.n + 1):
                glen = i - j - 1
                if gap.hi is not None and glen > gap.hi:
                    break
                if glen >= gap.lo and q in finals:
                    got |= 1 << i
                q = table[q][self.word[i - 1] - 1]
            self._reach[key] = got
        return got

    def step(self, live: int, t: int) -> int:
        """Positions that can carry the next symbol after gap t from live."""
        gap = self.gaps[t]
        out = 0
        if gap.dfa is None:
            width = self.n if gap.hi is None else gap.hi
            width = min(width, self.n) - gap.lo + 1
            if width <= 0:
                return 0
            run = (1 << width) - 1
            while live:
                low = live & -live
                j = low.bit_length() - 1
                out |= run << (j + 1 + gap.lo)
                live ^= low
            return out & self.mask
        while live:
            low = live & -live
            out |= self._from(t, low.bit_length() - 1)
            live ^= low
        return out


def least_absent(word, gaps, sigma: int) -> Optional[tuple]:
    """Lexicographically least length-k string that does not embed, or None."""
    k = len(gaps) + 1
    pos = _Positions(word, gaps, sigma)
    full: set = set()

    def go(depth, live):
        if live == 0:
            return (1,) * (k - depth)
        if depth == k or (depth, live) in full:
            return None
        nxt = pos.step(live, depth - 1)
        for a in range(1, sigma + 1):
            got = go(depth + 1, nxt & pos.of[a])
            if got is not None:
                return (a,) + got
        full.add((depth, live))
        return None

    for a in range(1, sigma + 1):
        got = go(1, pos.of[a])
        if got is not None:
            return (a,) + got
    return None


def least_separating(word, word2, gaps, sigma: int) -> Optional[tuple]:
    """Least length-k string embedding in word but not in word2, or None."""
    k = len(gaps) + 1
    left = _Positions(word, gaps, sigma)
    right = _Positions(word2, gaps, sigma)
    empty: set = set()

    def go(depth, lv, rv):
        if lv == 0:
            return None
        if depth == k:
            return () if rv == 0 else None
        if (depth, lv, rv) in empty:
            return None
        ln = left.step(lv, depth - 1)
        rn = right.step(rv, depth - 1) if rv else 0
        for a in range(1, sigma + 1):
            got = go(depth + 1, ln & left.of[a], rn & right.of[a])
            if got is not None:
                return (a,) + got
        empty.add((depth, lv, rv))
        return None

    for a in range(1, sigma + 1):
        got = go(1, left.of[a], right.of[a])
        if got is not None:
            return (a,) + got
    return None


def classical(word, word2, k: int) -> tuple[bool, Optional[tuple]]:
    """Is every length-k subsequence of word one of word2?

    When not, the witness is the shortest string of length at most k that
    is a subsequence of word but not of word2, least among the shortest.
    Found level by level: each level keeps, per pair of greedy positions
    in the two words, the least string that reaches it.
    """
    if len(word) < k:
        return (True, None)
    sigma = max(max(word, default=1), max(word2, default=1))

    def nxt_table(w):
        sink = len(w) + 1
        rows = [None] * (len(w) + 1)
        cur = [sink] * (sigma + 1)
        for i in range(len(w), -1, -1):
            rows[i] = tuple(cur)
            if i:
                cur[w[i - 1]] = i
        return rows, sink

    na, sink_a = nxt_table(word)
    nb, sink_b = nxt_table(word2)
    best = {(0, 0): ()}
    seen = {(0, 0)}
    for _ in range(k):
        level: dict = {}
        for (i, j), s in best.items():
            if i == sink_a:
                continue
            for a in range(1, sigma + 1):
                i2 = na[i][a]
                j2 = sink_b if j == sink_b else nb[j][a]
                key = (i2, j2)
                if key in seen and key not in level:
                    continue
                cand = s + (a,)
                if key not in level or cand < level[key]:
                    level[key] = cand
        hits = [s for (i, j), s in level.items() if i != sink_a and j == sink_b]
        if hits:
            return (False, min(hits))
        seen.update(level)
        best = level
    return (True, None)

