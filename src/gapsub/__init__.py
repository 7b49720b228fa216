"""Matching and analysis of subsequences with gap constraints.

A pattern together with one constraint per gap (zero-length, length
bounds, a regular language given by a DFA, or both bounds and a DFA)
embeds into a word when the pattern symbols can be matched left to
right and every gap between consecutive matched positions satisfies
its constraint.  The package provides one matcher, match, that serves
every constraint class, embedding counting, universality / containment /
equivalence analysis of the induced sets of gapped subsequences,
equivalence with multiplicities, and instance generators that translate
orthogonal vectors, CNF satisfiability, and independent set into these
problems.
"""

from .analysis import (
    AnalysisReport,
    classical_containment,
    containment,
    equivalence,
    universality,
)
from .automata import sigma_star_dfa
from .core import (
    DEFAULT_BUDGET,
    INF,
    Alphabet,
    BudgetError,
    Dfa,
    Embedding,
    GapConstraint,
    GappedSequence,
    GapsubError,
    InputError,
    LengthGap,
    RegLenGap,
    RegularGap,
    UsageError,
    Word,
    ZeroGap,
    constraint_allows,
    constraint_window,
    is_zero_gap,
    normalize,
    normalize_constraints,
    verify_embedding,
)
from .matchers import (
    EqualitySystem,
    match,
    match_naive,
    match_with_equalities,
)
from .multiplicity import (
    build_counting_nfa,
    count_embeddings,
    equivalence_with_multiplicities,
    parikh_k,
    path_equivalent,
)
from .reductions import (
    CnfFormula,
    Graph,
    MetaNUniInstance,
    OvInstance,
    kis_to_metanuni,
    metanuni_holds_bruteforce,
    metanuni_to_nuni,
    nuni_universal_word,
    ov_to_match,
    random_cnf,
    random_graph,
    random_ov,
    sat_to_match_equalities,
    sat_to_metanuni,
    sat_to_nuni_binary,
    solve_kis_bruteforce,
    solve_ov_bruteforce,
    solve_sat_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "Alphabet",
    "AnalysisReport",
    "BudgetError",
    "CnfFormula",
    "DEFAULT_BUDGET",
    "Dfa",
    "Embedding",
    "EqualitySystem",
    "GapConstraint",
    "GappedSequence",
    "GapsubError",
    "Graph",
    "InputError",
    "LengthGap",
    "MetaNUniInstance",
    "OvInstance",
    "RegLenGap",
    "RegularGap",
    "UsageError",
    "Word",
    "ZeroGap",
    "build_counting_nfa",
    "classical_containment",
    "constraint_allows",
    "constraint_window",
    "containment",
    "count_embeddings",
    "equivalence",
    "equivalence_with_multiplicities",
    "is_zero_gap",
    "kis_to_metanuni",
    "match",
    "match_naive",
    "match_with_equalities",
    "metanuni_holds_bruteforce",
    "metanuni_to_nuni",
    "normalize",
    "normalize_constraints",
    "nuni_universal_word",
    "ov_to_match",
    "parikh_k",
    "path_equivalent",
    "random_cnf",
    "random_graph",
    "random_ov",
    "sat_to_match_equalities",
    "sat_to_metanuni",
    "sat_to_nuni_binary",
    "sigma_star_dfa",
    "solve_kis_bruteforce",
    "solve_ov_bruteforce",
    "solve_sat_bruteforce",
    "universality",
    "verify_embedding",
]
