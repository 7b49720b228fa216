"""Finite automata: complete DFAs, subsequence automata, products.

Dfa lives in core, next to the constraints that hold one.  It checks its
structure when it is built; normalize_constraints checks that it covers
the alphabet of a call, and the CLI's loader checks it against the session
alphabet.  This module builds and combines DFAs: states 0..num_states-1,
symbols 1..num_symbols, one dense table row per state, so every DFA here
is complete by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .core import Dfa, InputError, UsageError, Word


def sigma_star_dfa(sigma: int) -> Dfa:
    """Single accepting state looping on every symbol: accepts everything."""
    return Dfa(1, 0, frozenset({0}), (tuple([0] * sigma),))


def _subsequence_rows(w: Word, sigma: Optional[int]) -> tuple[tuple[int, ...], ...]:
    """Table of the subsequence automaton of w, states 0..n+1: state i means
    the shortest embedding so far ends at position i, n+1 is the error sink,
    and on symbol a state i moves to the next occurrence of a strictly after
    i, or to the sink."""
    n = len(w)
    if sigma is None:
        sigma = max(w.symbols, default=1)
    for s in w.symbols:
        if s > sigma:
            raise InputError(f"word symbol {s} outside alphabet 1..{sigma}")
    sink = n + 1
    # nxt[i][a-1] = least j > i with w[j] = a, else sink; filled right to left
    rows: list[tuple[int, ...]] = [tuple([sink] * sigma)] * (n + 2)
    cur = [sink] * sigma
    rows[sink] = tuple(cur)
    for i in range(n, -1, -1):
        rows[i] = tuple(cur)
        if i > 0:
            cur[w.symbols[i - 1] - 1] = i
    return tuple(rows)


def build_subsequence_automaton(w: Word, sigma: Optional[int] = None) -> Dfa:
    """DFA accepting exactly the non-empty subsequences of w.

    See _subsequence_rows for its states.  Finals are 1..n, so the empty
    word is rejected.
    """
    n = len(w)
    return Dfa(n + 2, 0, frozenset(range(1, n + 1)), _subsequence_rows(w, sigma))


def build_co_subsequence_automaton(w: Word, sigma: Optional[int] = None) -> Dfa:
    """DFA accepting exactly the non-empty words that are NOT subsequences of w.

    The subsequence automaton's table with the error sink as the one final.
    """
    n = len(w)
    return Dfa(n + 2, 0, frozenset({n + 1}), _subsequence_rows(w, sigma))


def product_shortest_accepted(a: Dfa, b: Dfa, maxlen: int) -> Optional[Word]:
    """Shortest word of length <= maxlen accepted by both DFAs, or None.

    Breadth-first search over the product; symbols are explored in
    increasing id order, so among shortest solutions the lexicographically
    least is returned.
    """
    if a.num_symbols != b.num_symbols:
        raise UsageError(
            f"product needs a common alphabet, got {a.num_symbols} vs {b.num_symbols}"
        )
    sigma = a.num_symbols
    start = (a.initial, b.initial)
    if a.initial in a.finals and b.initial in b.finals:
        return Word(())
    parent: dict[tuple[int, int], tuple[tuple[int, int], int]] = {start: None}
    frontier = deque([(start, 0)])
    while frontier:
        (qa, qb), depth = frontier.popleft()
        if depth == maxlen:
            continue
        for sym in range(1, sigma + 1):
            nxt = (a.step(qa, sym), b.step(qb, sym))
            if nxt in parent:
                continue
            parent[nxt] = ((qa, qb), sym)
            if nxt[0] in a.finals and nxt[1] in b.finals:
                out = []
                node = nxt
                while parent[node] is not None:
                    node, s = parent[node]
                    out.append(s)
                return Word(tuple(reversed(out)))
            frontier.append((nxt, depth + 1))
    return None

