"""Toolkit for sigma-divisor prime pairs: quasichain generation,
checkpointed big-integer pair searches, modular residue analysis,
brute-force lemma oracles and exact-rational inequality certificates."""

from .arith import (
    DEFAULT_ROUNDS,
    Primality,
    PrimalityVerdict,
    is_prime,
    sigma_power,
)
from .certify import (
    Certificate,
    Inequality,
    Infeasible,
    Lhs,
    Rhs,
    combine,
    entails,
    known_inequalities,
    optimize,
    verify_known_combinations,
)
from .chains import (
    ChainState,
    NonIntegralStep,
    chain_next,
    chain_terms,
    generate_s,
    generate_u,
    is_quasisolution,
)
from .oracles import ORACLES, OracleReport
from .residues import ResidueProfile, residue_profile
from .search import (
    PairRecord,
    SearchCheckpoint,
    enumerate_seeds,
    load_checkpoint,
    locate_pair_index,
    search_pairs,
    square_divisor_probe,
    write_checkpoint,
)

__version__ = "0.1.0"
