"""Exact cohomology of unordered configuration spaces of a punctured torus.

Two independent computations of the same numbers:

* a spectral engine (:mod:`conftorus.gcalg`, :mod:`conftorus.specseq`)
  building the bigraded algebra of n points with its differential, taking
  symmetric-group invariants and reading off the surviving page, and
* exact expansion of closed-form rational generating functions
  (:mod:`conftorus.series`) with Betti / mixed-Hodge decoders,

cross-verified against each other and against the auxiliary structures in
:mod:`conftorus.oracle`.  All arithmetic is exact: every coefficient is an
``int``, and there is no ``Fraction`` and no floating point anywhere.
"""

from .gcalg import (
    BidegreeSpace,
    Element,
    G,
    Generator,
    Monomial,
    X,
    Y,
    differential,
    free_basis,
    multiply,
    normalize,
    relation_span,
    sn_act,
    symmetrize,
)
from .oracle import (
    ArnoldAlgebra,
    arnold_conf_betti,
    check_left_inverse,
    phi,
    psi,
    run_selftest,
    v_basis,
)
from .series import (
    FactoredRatFun,
    MultiPoly,
    cheah_zeta,
    decode_betti,
    decode_hodge,
    expand,
    macdonald_zeta,
    vakil_wood_conf,
    w,
    w_inverse,
)
from .specseq import (
    SpectralEngine,
    SpectralReport,
    betti_and_hodge,
    e3_dims,
    invariant_basis,
    purity_check,
    verify_against_series,
)

__version__ = "0.1.0"
