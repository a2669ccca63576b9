"""Bad input, one table.

Each row of ``ROWS`` is a public callable of the package and the argument
under test, by kind:

* ``count``: an int >= 0, such as n, p, q or a series order;
* ``signed``: an int, where a negative value has an empty answer (a
  ``BidegreeSpace`` outside the algebra, a weight with no preimage);
* ``label``: a point label, an int >= 1;
* ``sigma``: a permutation of 1..k as a tuple of ints;
* ``report``: a :class:`SpectralReport` (``optional report``: or None).

Every row is tried with True, 2.0, '2', -1 and None, a label also with 0 and
a sigma also with (1, 1), which is not a permutation.  The test asserts the
exception and its exact text, so each kind is refused with one message
naming the argument, wherever it is taken.
"""

import re

import pytest

from conftorus import (
    ArnoldAlgebra,
    BidegreeSpace,
    Element,
    G,
    SpectralEngine,
    SpectralReport,
    X,
    Y,
    arnold_conf_betti,
    betti_and_hodge,
    check_left_inverse,
    cheah_zeta,
    decode_betti,
    decode_hodge,
    e3_dims,
    expand,
    free_basis,
    invariant_basis,
    macdonald_zeta,
    purity_check,
    relation_span,
    run_selftest,
    sn_act,
    symmetrize,
    v_basis,
    vakil_wood_conf,
    verify_against_series,
    w,
    w_inverse,
)
from conftorus.gcalg import Layout
from conftorus.series import (
    PUNCTURED_TORUS_HC,
    PUNCTURED_TORUS_HODGE,
    coefficient_json,
    conf_series_betti,
    conf_series_hodge,
    genus0_gf,
    genus0_weight_inverse,
    multiply_series,
    property_checks,
)
from conftorus.specseq import MatchingEngine, matching_words

_K2 = conf_series_betti(2)
_X1 = Element.from_generators(X(1))
_REPORT = SpectralReport(n=2)

ROWS = [
    # gcalg
    ("X", X, "i", "label"),
    ("Y", Y, "i", "label"),
    ("G-i", lambda v: G(v, 3), "i", "label"),
    ("G-j", lambda v: G(3, v), "j", "label"),
    ("Layout", Layout, "n", "count"),
    ("BidegreeSpace-n", lambda v: BidegreeSpace(v, 0, 0).dim, "n", "count"),
    ("BidegreeSpace-n-layout", lambda v: BidegreeSpace(v, 0, 0, layout=Layout(1)).dim, "n",
     "count"),
    ("BidegreeSpace-p", lambda v: BidegreeSpace(2, v, 0).dim, "p", "signed"),
    ("BidegreeSpace-q", lambda v: BidegreeSpace(2, 0, v).dim, "q", "signed"),
    ("free_basis-n", lambda v: free_basis(v, 0, 0), "n", "count"),
    ("free_basis-p", lambda v: free_basis(2, v, 0), "p", "count"),
    ("free_basis-q", lambda v: free_basis(2, 0, v), "q", "count"),
    ("relation_span-n", lambda v: relation_span(v, 1, 1), "n", "count"),
    ("relation_span-p", lambda v: relation_span(2, v, 1), "p", "signed"),
    ("relation_span-q", lambda v: relation_span(2, 1, v), "q", "signed"),
    ("sn_act", lambda v: sn_act(v, _X1), "sigma", "sigma"),
    ("symmetrize", lambda v: symmetrize(_X1, v), "n", "count"),
    # oracle
    ("ArnoldAlgebra", ArnoldAlgebra, "n", "count"),
    ("arnold_conf_betti", arnold_conf_betti, "n", "count"),
    ("ArnoldAlgebra.quotient_dim", lambda v: ArnoldAlgebra(4).quotient_dim(v), "q", "signed"),
    ("ArnoldAlgebra.invariant_dim", lambda v: ArnoldAlgebra(4).invariant_dim(v), "q", "signed"),
    ("v_basis", v_basis, "n", "count"),
    ("check_left_inverse", check_left_inverse, "n", "count"),
    ("run_selftest", run_selftest, "n_max", "count"),
    # series
    ("expand", lambda v: expand(genus0_gf(), v), "t_order", "count"),
    ("multiply_series", lambda v: multiply_series(_K2, _K2, v), "t_order", "count"),
    ("macdonald_zeta", lambda v: macdonald_zeta(PUNCTURED_TORUS_HC, v), "t_order", "count"),
    ("cheah_zeta", lambda v: cheah_zeta(PUNCTURED_TORUS_HODGE, v), "t_order", "count"),
    ("vakil_wood_conf", lambda v: vakil_wood_conf(_K2, v), "t_order", "count"),
    ("conf_series_betti", conf_series_betti, "t_order", "count"),
    ("conf_series_hodge", conf_series_hodge, "t_order", "count"),
    ("property_checks", property_checks, "t_order", "count"),
    ("decode_betti", lambda v: decode_betti(_K2[2], v), "n", "count"),
    ("decode_hodge", lambda v: decode_hodge(conf_series_hodge(2)[2], v), "n", "count"),
    ("coefficient_json", lambda v: coefficient_json(_K2[2], v), "n", "count"),
    ("w", w, "i", "count"),
    ("w_inverse", w_inverse, "v", "signed"),
    ("genus0_weight_inverse", genus0_weight_inverse, "v", "signed"),
    # specseq
    ("SpectralEngine", SpectralEngine, "n", "count"),
    ("MatchingEngine", MatchingEngine, "n", "count"),
    ("matching_words", matching_words, "n", "count"),
    ("e3_dims", e3_dims, "n", "count"),
    ("invariant_basis-n", lambda v: invariant_basis(v, 0, 0), "n", "count"),
    ("invariant_basis-p", lambda v: invariant_basis(2, v, 0).dim, "p", "signed"),
    ("invariant_basis-q", lambda v: invariant_basis(2, 0, v).dim, "q", "signed"),
    ("verify_against_series-n", lambda v: verify_against_series(v, _REPORT), "n", "count"),
    ("verify_against_series-report", lambda v: verify_against_series(2, v), "report",
     "optional report"),
    ("purity_check", purity_check, "report", "report"),
    ("betti_and_hodge", betti_and_hodge, "report", "report"),
]

BAD = (True, 2.0, "2", -1, None)
EXTRA = {"label": (0,), "sigma": ((1, 1),)}


def expected(kind, name, value):
    """``(exception, exact text)`` for a bad ``value`` of this kind, or None
    where the value is taken."""
    if kind == "sigma":
        if type(value) is tuple:
            return ValueError, f"sigma must be a permutation of 1..{len(value)}, got {value!r}"
        return TypeError, f"sigma must be a tuple of ints, got {value!r}"
    if kind.endswith("report"):
        if value is None and kind == "optional report":
            return None
        return TypeError, f"report must be a SpectralReport, got {value!r}"
    if type(value) is not int:
        return TypeError, f"{name} must be an int, got {value!r}"
    if kind == "label":
        return ValueError, f"{name} must be positive, got {value}"
    if kind == "count":
        return ValueError, f"{name} must be nonnegative, got {value}"
    return None


CASES = [
    pytest.param(call, name, kind, value, id=f"{row}-{value!r}")
    for row, call, name, kind in ROWS
    for value in BAD + EXTRA.get(kind, ())
]


@pytest.mark.parametrize("call, name, kind, value", CASES)
def test_bad_input_is_refused_with_one_text_naming_the_argument(call, name, kind, value):
    want = expected(kind, name, value)
    if want is None:
        # a negative p, q or weight has an empty answer; a None report
        # makes verify_against_series build its own
        result = call(value)
        assert (result["match"] if kind == "optional report" else not result), result
        return
    error, text = want
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(value)


@pytest.mark.parametrize("n, layout_n", [(3, 2), (1, 2), (0, 1)])
def test_bidegree_space_refuses_a_layout_for_another_n(n, layout_n):
    """A layout built for another n is refused, naming both, rather than
    counting the dim from n and building the blocks from the layout."""
    with pytest.raises(ValueError, match=f"^layout is for n={layout_n}, not n={n}$"):
        BidegreeSpace(n, 1, 0, layout=Layout(layout_n))
