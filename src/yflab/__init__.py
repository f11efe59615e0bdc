"""Exact computational laboratory for the Young-Fibonacci lattice.

Everything is computed in exact rational arithmetic: path counts, harmonic
functions, boundary measures, the dominating tables, and an exhaustive
suite of identities checked with no tolerances.
"""

from .boundary import (
    LevelDistribution,
    TailOnesWord,
    d1_prime,
    d_beta_prime,
    h_infinite,
    level_distribution,
    mu,
    mu_prelimit,
    suffix_of_infinite,
)
from .harmonic import BetaPolynomial, d_beta, d_beta_eval, f, g, g_all, pi, pi_k, pi_split, q
from .magic import MagicTable, build_table, magic_entry, symbolic_entry
from .pathcount import d_from_empty, d_paths_dp, d_paths_formula, descent_counts, plancherel
from .words import (
    EPSILON,
    Level,
    YFWord,
    common_suffix_len,
    common_suffix_rank,
    down_neighbors,
    enumerate_level,
    fibonacci,
    ones_word,
    parse,
    prefix,
    split_by_rank,
    suffix,
    suffix_ranks,
    up_neighbors,
)
from .experiments import (
    ConcentrationReport,
    SuiteReport,
    concentration_sweep,
    identity_suite,
    q_sets,
    r_sets,
    sweep_many,
)

__version__ = "0.1.0"
