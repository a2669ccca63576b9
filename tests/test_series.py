"""Series module: expansion, zeta constructors, decoders, serialization.

Derived expected values are frozen from an independent long-division oracle
(below), which divides by the fully expanded denominator instead of
inverting factors one at a time.
"""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from conftorus import series
from conftorus.series import (
    DecodeError,
    FactoredRatFun,
    MultiPoly,
    PUNCTURED_TORUS_HC,
    PUNCTURED_TORUS_HODGE,
    POINT_HC,
    POINT_HODGE,
    TORUS_HC,
    cheah_zeta,
    check_result,
    coefficient_json,
    conf_gf_betti,
    conf_gf_hodge,
    conf_series_betti,
    conf_series_hodge,
    decode_betti,
    decode_hodge,
    expand,
    genus0_gf,
    genus0_weight_inverse,
    macdonald_zeta,
    multiply_series,
    property_checks,
    sym_gf_betti,
    sym_gf_hodge,
    vakil_wood_conf,
    w,
    w_inverse,
)


def u_poly(**coeffs):
    """Shorthand: u_poly(u0=1, u2=-1) -> 1 - u^2."""
    terms = {}
    for key, c in coeffs.items():
        terms[(int(key[1:]), 0, 0, 0)] = c
    return MultiPoly(terms)


def long_division_oracle(f: FactoredRatFun, order):
    """Independent expansion: one polynomial division by the expanded
    denominator, coefficient by coefficient in t."""
    num = f.numerator.t_coefficients(order)
    den = f.denominator_poly().t_coefficients(order)
    assert den[0].is_one()
    out = []
    for k in range(order + 1):
        acc = num[k]
        for m in range(k):
            acc = acc - out[m] * den[k - m]
        out.append(acc)
    return out


# -- expand ------------------------------------------------------------------


def test_expand_genus0_matches_printed_series():
    got = expand(genus0_gf(), 3)
    assert got == [
        u_poly(u0=1),
        u_poly(u2=1),
        u_poly(u4=1, u2=-1),
        u_poly(u6=1, u4=-1),
    ]


def test_expand_order_zero_is_constant_term():
    for f in (sym_gf_betti(), sym_gf_hodge(), conf_gf_betti(),
              conf_gf_hodge(), genus0_gf()):
        assert expand(f, 0) == [MultiPoly.one()]


def test_expand_conf_matches_long_division_oracle():
    f = conf_gf_betti()
    got = expand(f, 8)
    assert got == long_division_oracle(f, 8)
    # frozen values computed with the oracle
    assert got[1] == u_poly(u2=1, u1=-2)
    assert got[2] == u_poly(u4=1, u3=-2, u1=2)
    assert got[3] == u_poly(u6=1, u5=-2, u3=4, u2=-4)


def test_expand_four_variable_matches_long_division_oracle():
    f = conf_gf_hodge()
    assert expand(f, 6) == long_division_oracle(f, 6)


def test_expand_rejects_non_unit_factor():
    with pytest.raises(ValueError):
        FactoredRatFun(MultiPoly.one(), [(MultiPoly.monomial(u=1), 1)])
    with pytest.raises(ValueError):
        FactoredRatFun(
            MultiPoly.one(), [(MultiPoly.one() - MultiPoly.monomial(t=1), 1)]
        )


def test_expand_round_trip_property():
    for f in (sym_gf_betti(), conf_gf_betti(), conf_gf_hodge(), genus0_gf()):
        coeffs = expand(f, 9)
        den = f.denominator_poly().t_coefficients(9)
        assert multiply_series(coeffs, den, 9) == f.numerator.t_coefficients(9)


# -- macdonald ---------------------------------------------------------------


def test_macdonald_punctured_torus_closed_form():
    assert macdonald_zeta(PUNCTURED_TORUS_HC, 8) == expand(sym_gf_betti(), 8)


def test_macdonald_point():
    assert macdonald_zeta(POINT_HC, 5) == [MultiPoly.one()] * 6


def symmetric_power_invariants_oracle(n):
    """Signed S_n-invariant dimensions of the n-th tensor power of the
    four-dimensional algebra {1, x, y, xy} (degrees 0,1,1,2), via the
    averaging projector.  Returns dims per total degree."""
    letters = [(0, "1"), (1, "x"), (1, "y"), (2, "xy")]
    words = [()]
    for _ in range(n):
        words = [wd + (l,) for wd in words for l in letters]
    index = {wd: k for k, wd in enumerate(words)}

    def permute(word, sigma):
        # permuting graded tensor factors, with the Koszul sign of the
        # induced reordering of odd slots
        arranged = [None] * n
        for src, dst in enumerate(sigma):
            arranged[dst - 1] = word[src]
        odd_positions = [i for i, l in enumerate(word) if l[0] % 2 == 1]
        moved = [sigma[i] - 1 for i in odd_positions]
        inv = sum(
            1
            for s in range(len(moved))
            for t in range(s + 1, len(moved))
            if moved[s] > moved[t]
        )
        return tuple(arranged), (-1) ** inv

    from itertools import permutations as perms

    sigmas = list(perms(range(1, n + 1)))
    dims = {}
    seen = set()
    for wd in words:
        if wd in seen:
            continue
        orbit = {}
        dead = False
        for sigma in sigmas:
            img, s = permute(wd, sigma)
            if img in orbit and orbit[img] != s:
                dead = True
            orbit[img] = s
        seen.update(orbit)
        if not dead:
            deg = sum(l[0] for l in wd)
            dims[deg] = dims.get(deg, 0) + 1
    return dims


def test_macdonald_full_torus_against_invariant_count():
    got = macdonald_zeta(TORUS_HC, 3)
    for n in range(4):
        dims = symmetric_power_invariants_oracle(n)
        expected = MultiPoly(
            {(i, 0, 0, 0): (-1) ** i * d for i, d in dims.items()}
        )
        assert got[n] == expected, f"n={n}"


# -- cheah -------------------------------------------------------------------


def test_cheah_punctured_torus_closed_form():
    want = expand(sym_gf_hodge(), 8)
    assert cheah_zeta(PUNCTURED_TORUS_HODGE, 8) == want
    # an entry of dimension 0 contributes nothing, in either parity
    assert cheah_zeta(PUNCTURED_TORUS_HODGE + ((2, 0, 0, 0), (1, 0, 0, 0)), 8) == want


def test_cheah_point():
    assert cheah_zeta(POINT_HODGE, 4) == [MultiPoly.one()] * 5


def test_cheah_specializes_to_macdonald():
    z4 = cheah_zeta(PUNCTURED_TORUS_HODGE, 7)
    z = macdonald_zeta(PUNCTURED_TORUS_HC, 7)
    assert [c.substitute_one("x").substitute_one("y") for c in z4] == z


@pytest.mark.parametrize(
    "zeta, data",
    [(cheah_zeta, PUNCTURED_TORUS_HODGE), (macdonald_zeta, PUNCTURED_TORUS_HC)],
    ids=["cheah", "macdonald"],
)
def test_zeta_calls_share_no_poly(zeta, data):
    """One factored form per table, but every call expands it into new
    polynomials: mutating one result leaves the next call's unchanged."""
    first = zeta(data, 6)
    want = [dict(c.terms) for c in first]
    for c in first:
        c.terms[0] = 99
    assert [c.terms for c in zeta(data, 6)] == want


def test_a_table_that_raises_caches_nothing_and_a_float_reads_no_int_form():
    size = series._zeta_form.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="negative Betti or Hodge"):
            cheah_zeta([(1, 1, 0, -1)], 3)
    assert series._zeta_form.cache_info().currsize == size
    cheah_zeta(PUNCTURED_TORUS_HODGE, 3)
    for table in (PUNCTURED_TORUS_HODGE[:2] + ((2, 1, 1, 1.0),), ((1, 1, 0, True),)):
        with pytest.raises(TypeError, match="holds a value that is not an int"):
            cheah_zeta(table, 3)


def test_import_builds_no_zeta_form():
    # the forms are built on first use, so importing the package (the
    # benchmark's setup) pays for none of them
    src = str(Path(series.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import conftorus; from conftorus import series; "
        "print(series._zeta_form.cache_info().currsize)"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0\n"


# -- vakil-wood --------------------------------------------------------------


def test_vakil_wood_punctured_torus():
    z = macdonald_zeta(PUNCTURED_TORUS_HC, 10)
    assert vakil_wood_conf(z, 10) == expand(conf_gf_betti(), 10)


def test_vakil_wood_trivial():
    z = [MultiPoly.one()] + [MultiPoly.zero()] * 5
    k = vakil_wood_conf(z, 5)
    assert k == [MultiPoly.one()] + [MultiPoly.zero()] * 5


def test_vakil_wood_rejects_bad_constant_term():
    z = [MultiPoly.monomial(2)] + [MultiPoly.zero()] * 3
    with pytest.raises(ValueError):
        vakil_wood_conf(z, 3)


def test_vakil_wood_matches_closed_forms_to_t40_and_decodes():
    order = 40
    k = vakil_wood_conf(macdonald_zeta(PUNCTURED_TORUS_HC, order), order)
    k4 = vakil_wood_conf(cheah_zeta(PUNCTURED_TORUS_HODGE, order), order)
    assert k == expand(conf_gf_betti(), order)
    assert k4 == expand(conf_gf_hodge(), order)
    for n in range(order + 1):
        betti = decode_betti(k[n], n)
        assert sum((-1) ** i * h for i, h in enumerate(betti)) == (-1) ** n
        collapsed = [0] * len(betti)
        for (i, _a, _b), dim in decode_hodge(k4[n], n).items():
            collapsed[i] += dim
        assert collapsed == betti, n


def test_vakil_wood_u_equal_one_gives_alternating_signs():
    # oracle: (1-t)/(1-t^2) = 1/(1+t)
    oracle = expand(
        FactoredRatFun(
            MultiPoly.one() - MultiPoly.monomial(t=1),
            [(MultiPoly.monomial(t=2), 1)],
        ),
        10,
    )
    k = vakil_wood_conf(macdonald_zeta(PUNCTURED_TORUS_HC, 10), 10)
    for n in range(11):
        val = k[n].substitute_one("u")
        assert val == oracle[n]
        assert val == MultiPoly.monomial((-1) ** n)


def random_zeta(seed, order):
    """A seeded series with constant term 1 and up to four terms in u, x and
    y per coefficient, so that 1/Z has dense coefficients."""
    rng = random.Random(seed)
    z = [MultiPoly.one()]
    for _ in range(order):
        terms = {}
        for _ in range(rng.randrange(5)):
            key = (rng.randrange(4), rng.randrange(3), rng.randrange(3), 0)
            terms[key] = rng.choice((-3, -2, -1, 1, 2, 3))
        z.append(MultiPoly(terms))
    return z


@pytest.mark.parametrize("order", [0, 1, 2, 7, 8])
def test_vakil_wood_satisfies_its_defining_identity_on_random_input(order):
    for seed in range(5):
        z = random_zeta(seed, order)
        before = [dict(c.terms) for c in z]
        k = vakil_wood_conf(z, order)
        z_of_t2 = [z[j // 2] if j % 2 == 0 else MultiPoly.zero() for j in range(order + 1)]
        assert multiply_series(k, z_of_t2, order) == z, seed
        assert [c.terms for c in z] == before, seed


def test_vakil_wood_operands_stay_small(monkeypatch):
    # K's own coefficients are never an operand: the largest is W_20, 41 terms
    z4 = cheah_zeta(PUNCTURED_TORUS_HODGE, 40)
    sizes = []
    accumulate = series._accumulate

    def recording(out, c, a, b):
        sizes.append(max(len(a), len(b)))
        accumulate(out, c, a, b)

    monkeypatch.setattr(series, "_accumulate", recording)
    k4 = vakil_wood_conf(z4, 40)
    assert max(sizes) == 41
    assert len(k4[40].terms) == 461


# -- packed exponent keys ------------------------------------------------------


def reference_product(a, b):
    """The product of two ``{(u, x, y, t): coefficient}`` dicts on tuple
    keys, the zeros of cancelled terms kept."""
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            out[k] = out.get(k, 0) + v1 * v2
    return out


def nonzero(terms):
    return {k: v for k, v in terms.items() if v}


def random_terms(rng, size, t_max):
    """Up to ``size`` terms with u, x and y exponents 0 or 1 (t up to
    ``t_max``) and coefficients +-1, +-2: few enough monomials that
    products cancel."""
    return {
        (rng.randrange(2), rng.randrange(2), rng.randrange(2), rng.randrange(t_max + 1)):
            rng.choice((-2, -1, 1, 2))
        for _ in range(rng.randrange(size + 1))
    }


def reference_expand(num, factors, order):
    """``num / prod (1 - m)^mult`` to t^order on tuple keys: the numerator
    times each factor's geometric series ``sum_j C(j + mult - 1, j) m^j``,
    terms above t^order dropped as they appear."""
    acc = dict(num)
    for m, mult in factors:
        ((key, _),) = m.items()
        geometric, power = {}, {(0, 0, 0, 0): 1}
        for j in range(order // key[3] + 1):
            for k, v in power.items():
                geometric[k] = geometric.get(k, 0) + comb(j + mult - 1, j) * v
            power = reference_product(power, m)
        acc = {k: v for k, v in reference_product(acc, geometric).items() if k[3] <= order}
    return [nonzero({k[:3] + (0,): v for k, v in acc.items() if k[3] == n})
            for n in range(order + 1)]


def test_packed_products_match_a_tuple_keyed_reference():
    """``*``, ``expand`` and ``vakil_wood_conf`` on seeded random input
    agree with products on tuple keys, cancelled terms included."""
    cancelled = 0
    for seed in range(40):
        rng = random.Random(seed)
        a, b = random_terms(rng, 8, 2), random_terms(rng, 8, 2)
        raw = reference_product(a, b)
        cancelled += sum(1 for v in raw.values() if not v)
        assert (MultiPoly(a) * MultiPoly(b)).unpacked() == nonzero(raw), seed

        num = random_terms(rng, 5, 3)
        factors = []
        for _ in range(rng.randrange(1, 4)):
            key = (rng.randrange(3), rng.randrange(3), rng.randrange(3), rng.randrange(1, 3))
            factors.append(({key: rng.choice((-2, -1, 1, 2))}, rng.randrange(1, 3)))
        f = FactoredRatFun(MultiPoly(num), [(MultiPoly(m), mult) for m, mult in factors])
        got = [c.unpacked() for c in expand(f, 6)]
        assert got == reference_expand(num, factors, 6), seed

        z = [{(0, 0, 0, 0): 1}] + [random_terms(rng, 4, 0) for _ in range(8)]
        k = [c.unpacked() for c in vakil_wood_conf([MultiPoly(c) for c in z], 8)]
        # K(t) Z(t^2) = Z(t) on tuple keys, which fixes K
        for j in range(9):
            acc = {}
            for r in range(j // 2 + 1):
                for key, v in reference_product(k[j - 2 * r], z[r]).items():
                    acc[key] = acc.get(key, 0) + v
            assert nonzero(acc) == nonzero(z[j]), (seed, j)
    assert cancelled == 11  # the seeds do exercise cancellation


@pytest.mark.parametrize("field", range(4))
def test_a_product_past_the_field_width_raises_and_never_carries(field):
    """Two monomials in one variable whose total degree crosses 65535
    raise an ``OverflowError`` naming the exponent; below it, the product
    key unpacks to the sum of the exponents."""

    def mono(e):
        return MultiPoly({tuple(e if i == field else 0 for i in range(4)): 1})

    for d1, d2 in ((40000, 25535), (65535, 0), (65535, 1), (40000, 30000), (32768, 32768)):
        e = tuple(d1 + d2 if i == field else 0 for i in range(4))
        if d1 + d2 <= 65535:
            assert (mono(d1) * mono(d2)).unpacked() == {e: 1}
            continue
        with pytest.raises(OverflowError, match=rf"{re.escape(str(e))} has total degree {d1 + d2}"):
            mono(d1) * mono(d2)
        with pytest.raises(OverflowError, match=re.escape(str(e))):
            multiply_series([mono(d1)], [mono(d2)], 0)


def test_expand_and_vakil_wood_raise_past_the_field_width():
    # u^65535 / (1 - u t): the coefficient of t^1 would be u^65536
    f = FactoredRatFun(MultiPoly.monomial(u=65535), [(MultiPoly.monomial(u=1, t=1), 1)])
    assert expand(f, 0) == [MultiPoly.monomial(u=65535)]
    with pytest.raises(OverflowError, match=r"\(65536, 0, 0, 0\) has total degree 65536"):
        expand(f, 1)
    # Z = 1 + u^40000 t: K_3 holds z_1 W_1 = -u^80000
    z = [MultiPoly.one(), MultiPoly.monomial(u=40000), MultiPoly.zero(), MultiPoly.zero()]
    assert vakil_wood_conf(z, 2)[1] == MultiPoly.monomial(u=40000)
    with pytest.raises(OverflowError, match=r"\(80000, 0, 0, 0\) has total degree 80000"):
        vakil_wood_conf(z, 3)


# -- weight function ---------------------------------------------------------


def test_w_small_values():
    assert [w(i) for i in range(5)] == [0, 1, 3, 4, 6]


def test_w_inverse_gaps():
    assert w_inverse(2) is None
    assert w_inverse(5) is None
    for i in range(40):
        assert w_inverse(w(i)) == i


@pytest.mark.parametrize("v", [True, 2.0, "2"])
def test_w_and_w_inverse_refuse_a_value_that_is_not_an_int(v):
    """``w(2.0)`` would be 3.0 and ``w(True)`` 1: a bool, a float or a str
    is refused by name, so no float leaves the module; the genus-zero
    inverse, which gave ``genus0_weight_inverse(2.0) == 1.0``, too."""
    with pytest.raises(TypeError, match=f"^i must be an int, got {re.escape(repr(v))}$"):
        w(v)
    with pytest.raises(TypeError, match=f"^v must be an int, got {re.escape(repr(v))}$"):
        w_inverse(v)
    with pytest.raises(TypeError, match=f"^v must be an int, got {re.escape(repr(v))}$"):
        genus0_weight_inverse(v)


def test_w_image_scan():
    image = {w(i) for i in range(10)}
    for v in range(15):
        assert (w_inverse(v) is not None) == (v in image)


# -- decoders ----------------------------------------------------------------


def test_decode_betti_small_n():
    assert decode_betti(u_poly(u2=1, u1=-2), 1) == [1, 2]
    assert decode_betti(u_poly(u4=1, u3=-2, u1=2), 2) == [1, 2, 2]
    assert decode_betti(u_poly(u0=1), 0) == [1]


def test_decode_betti_rejects_bad_exponent():
    with pytest.raises(DecodeError):
        decode_betti(u_poly(u1=1), 0)  # 2n - e = -1 has no preimage


def test_decode_betti_rejects_negative():
    with pytest.raises(DecodeError):
        decode_betti(u_poly(u5=1), 3)  # i = 1 odd, +1 would decode to -1


def test_decode_hodge_rejects_an_entry_off_the_weight_line():
    k4 = vakil_wood_conf(cheah_zeta(PUNCTURED_TORUS_HODGE, 1), 1)
    # u^2 at t^1 is H^0 (w = 0); x^0 y^1 puts it at (a, b) = (1, 0)
    off_line = k4[1] + MultiPoly({(2, 0, 1, 0): 1})
    with pytest.raises(DecodeError, match="off the weight line"):
        decode_hodge(off_line, 1)


def test_decode_hodge_small_n():
    k4 = vakil_wood_conf(cheah_zeta(PUNCTURED_TORUS_HODGE, 3), 3)
    assert decode_hodge(k4[0], 0) == {(0, 0, 0): 1}
    assert decode_hodge(k4[1], 1) == {
        (0, 0, 0): 1,
        (1, 1, 0): 1,
        (1, 0, 1): 1,
    }
    table2 = decode_hodge(k4[2], 2)
    assert table2[(2, 2, 1)] == 1 and table2[(2, 1, 2)] == 1
    # row sums reproduce the Betti numbers
    k = vakil_wood_conf(macdonald_zeta(PUNCTURED_TORUS_HC, 3), 3)
    for n in range(4):
        betti = decode_betti(k[n], n)
        table = decode_hodge(k4[n], n)
        sums = {}
        for (i, _, _), d in table.items():
            sums[i] = sums.get(i, 0) + d
        assert [sums.get(i, 0) for i in range(len(betti))] == betti


def test_decoders_invert_the_weight_once_per_u_exponent(monkeypatch):
    n = 12
    k, k4 = conf_series_betti(n), conf_series_hodge(n)
    calls = []

    def counting(v):
        calls.append(v)
        return w_inverse(v)

    monkeypatch.setattr(series, "w_inverse", counting)
    assert len(k4[n].terms) == 55  # over 13 distinct u-exponents
    for coeff, decode in ((k[n], decode_betti), (k4[n], decode_hodge)):
        calls.clear()
        decode(coeff, n)
        assert sorted(calls) == sorted({2 * n - key[0] for key in coeff.unpacked()})


@pytest.mark.parametrize("decode", [decode_betti, decode_hodge])
def test_decoders_raise_at_the_first_bad_term(decode):
    # at t^3, u^5 decodes to h^1 = -1 and u^1 has no weight preimage
    negative, unmatched = ((5, 0, 0, 0), 1), ((1, 0, 0, 0), 1)
    for first, message in ((negative, "= -1 is not a"), (unmatched, r"u-exponent 1 at t\^3")):
        second = unmatched if first is negative else negative
        with pytest.raises(DecodeError, match=message):
            decode(MultiPoly(dict((first, second))), 3)


def test_genus0_decode_reproduces_classical_table():
    for n, c in enumerate(expand(genus0_gf(), 8)):
        got = decode_betti(c, n, weight_inverse=genus0_weight_inverse)
        assert got == ([1] if n < 2 else [1, 1])


# -- serialization ------------------------------------------------------------


def test_coefficient_json_round_trip_and_sorting():
    poly = MultiPoly(
        {(4, 0, 0, 0): 1, (3, 0, 0, 0): -2, (1, 0, 0, 0): 2}
    )
    doc = coefficient_json(poly, 2)
    assert doc["n"] == 2
    assert [c["u"] for c in doc["coefficients"]] == [1, 3, 4]
    assert all(isinstance(c["value"], str) for c in doc["coefficients"])
    back = json.loads(json.dumps(doc))
    terms = {(c["u"], c["x"], c["y"], 0): int(c["value"]) for c in back["coefficients"]}
    assert back["n"] == 2 and MultiPoly(terms) == poly


def test_coefficient_json_rejects_a_term_holding_t():
    # u.t and u would both be written as {"u": 1, "x": 0, "y": 0}
    with pytest.raises(DecodeError, match="still involves t"):
        coefficient_json(MultiPoly.monomial(u=1, t=1) + MultiPoly.monomial(u=1), 0)


def test_display_and_truth_of_polys():
    p = MultiPoly({(0, 1, 0, 2): 3, (1, 0, 0, 0): -1})
    assert p and not MultiPoly() and not p - p
    assert p.as_string() == "3*x.t^2 - u"
    assert repr(p) == "MultiPoly(3*x.t^2 - u)"
    assert MultiPoly().as_string() == "0" and repr(MultiPoly()) == "MultiPoly(0)"


def test_property_checks_all_pass():
    results = property_checks()
    assert results and all(r["passed"] for r in results)


# -- negative controls: each property check fails under one planted fault --


def failed_property_checks():
    """{name: counterexample} of the failing property checks; all six run."""
    results = property_checks()
    assert len(results) == 6
    return {r["name"]: r["counterexample"] for r in results if not r["passed"]}


def test_denominator_without_multiplicity_fails_the_round_trip(monkeypatch):
    # each factor applied once: only conf has a squared factor, (1 - u t^2)^2
    def once(self):
        den = MultiPoly.one()
        for m, _ in self.denominator_factors:
            den = den * (MultiPoly.one() - m)
        return den

    monkeypatch.setattr(FactoredRatFun, "denominator_poly", once)
    assert failed_property_checks() == {"expand_round_trip": "conf"}


def test_u_set_to_minus_one_fails_the_euler_law(monkeypatch):
    original = MultiPoly.substitute_one

    def faulty(self, var):
        if var == "u":  # u = -1: odd u-exponents change sign first
            self = MultiPoly({k: -v if k[0] % 2 else v for k, v in self.unpacked().items()})
        return original(self, var)

    monkeypatch.setattr(MultiPoly, "substitute_one", faulty)
    assert failed_property_checks() == {"euler_characteristic_law": "t^1: 3"}


def test_symmetric_power_series_fails_the_genus_zero_decode(monkeypatch):
    # 1 / (1 - u^2 t), the numerator (1 - u^2 t^2) dropped: Z, not K
    monkeypatch.setattr(
        series,
        "genus0_gf",
        lambda: FactoredRatFun(MultiPoly.one(), [(MultiPoly.monomial(u=2, t=1), 1)]),
    )
    assert failed_property_checks() == {"genus_zero_table_decode": "n=2: [1]"}


def test_doubled_top_coefficient_fails_the_configuration_series_checks(monkeypatch):
    original = series.vakil_wood_conf

    def doubled_top(z, t_order):
        k = original(z, t_order)
        return k[:-1] + [k[-1] + k[-1]]

    monkeypatch.setattr(series, "vakil_wood_conf", doubled_top)
    assert failed_property_checks() == {
        "vakil_wood_identity": "t^10",
        "vakil_wood_identity_4var": "t^10",
        "euler_characteristic_law": "t^10: 2",
    }


def test_lost_h1_class_fails_the_refined_checks(monkeypatch):
    # the (0, 1) class of H^1 dropped: x = y = 1 no longer gives Z
    monkeypatch.setattr(series, "PUNCTURED_TORUS_HODGE", ((1, 1, 0, 1), (2, 1, 1, 1)))
    assert failed_property_checks() == {
        "vakil_wood_identity_4var": "t^1",
        "specialization_coherence": "t^1",
    }


def test_result_record_keeps_a_detail_only_on_a_pass():
    assert check_result("t", "n<=5", None, "note") == {
        "name": "t", "n_range": "n<=5", "passed": True, "detail": "note"
    }
    assert check_result("t", "n<=5", "cex", "note") == {
        "name": "t", "n_range": "n<=5", "passed": False, "counterexample": "cex"
    }


# -- integer coefficients -------------------------------------------------------


def test_series_coefficients_are_plain_ints():
    order = 40
    for coeffs in (
        conf_series_betti(order),
        conf_series_hodge(order),
        macdonald_zeta(PUNCTURED_TORUS_HC, order),
        cheah_zeta(PUNCTURED_TORUS_HODGE, order),
        expand(conf_gf_hodge(), order),
    ):
        assert len(coeffs) == order + 1
        assert all(type(v) is int for c in coeffs for v in c.terms.values())


def test_int_scalar_multiples():
    p = MultiPoly.monomial(2, x=1) - MultiPoly.monomial(u=1)
    want = MultiPoly({(0, 1, 0, 0): 6, (1, 0, 0, 0): -3})
    assert p.scale(3) == p * 3 == 3 * p == want
    assert not p.scale(0).terms


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiPoly({(0, 0, 0, 0): 0.1}),
        lambda: MultiPoly.one().scale(0.1),
        lambda: MultiPoly.one() * 0.5,
        lambda: MultiPoly({(0, 0, 0, 0): Fraction(1, 2)}),
        lambda: MultiPoly({(0, 0, 0, 0): Fraction(2)}),
        lambda: MultiPoly.one().scale(Fraction(4)),
        lambda: MultiPoly.one() * Fraction(1, 2),
        lambda: MultiPoly({(0, 0, 0, 0): True}),
        lambda: MultiPoly.one().scale(True),
        lambda: MultiPoly.one() * True,
    ],
    ids=["init", "scale", "mul", "init-fraction", "init-integral-fraction",
         "scale-fraction", "mul-fraction", "init-bool", "scale-bool", "mul-bool"],
)
def test_float_coefficients_are_rejected(build):
    """Coefficients live in Z: a float, a ``Fraction`` (even an integral
    one) or a ``bool`` is a ``TypeError``."""
    with pytest.raises(TypeError, match="is not an int"):
        build()


@pytest.mark.parametrize("order", [True, False, 2.0, "3"], ids=["true", "false", "float", "str"])
@pytest.mark.parametrize(
    "call",
    [
        conf_series_betti,
        conf_series_hodge,
        lambda order: expand(genus0_gf(), order),
        lambda order: vakil_wood_conf(macdonald_zeta(PUNCTURED_TORUS_HC, 4), order),
    ],
    ids=["betti", "hodge", "expand", "vakil-wood"],
)
def test_a_series_order_that_is_not_an_int_is_a_type_error(call, order):
    """A bool is not read as 0 or 1, a float is not truncated and a str is
    not compared: each is refused by name."""
    with pytest.raises(TypeError, match=f"^t_order must be an int, got {re.escape(repr(order))}$"):
        call(order)


@pytest.mark.parametrize("bad", [True, 2.0, "3", -1], ids=["true", "float", "str", "negative"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda n: decode_betti(conf_series_betti(2)[2], n), "n"),
        (lambda n: decode_hodge(conf_series_hodge(2)[2], n), "n"),
        (lambda n: coefficient_json(conf_series_hodge(2)[2], n), "n"),
        (lambda order: multiply_series(conf_series_betti(2), conf_series_betti(2), order),
         "t_order"),
    ],
    ids=["decode-betti", "decode-hodge", "coefficient-json", "multiply-series"],
)
def test_an_n_or_order_that_is_not_one_is_refused_by_name(call, name, bad):
    """``decode_betti(c, True)`` named a u-exponent at t^True, ``decode_hodge``
    blamed ``w_inverse``'s v, ``coefficient_json`` wrote ``"n": true`` and
    ``multiply_series(a, b, -1)`` returned []: each now names its argument."""
    if bad == -1:
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
            call(bad)
    else:
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {re.escape(repr(bad))}$"):
            call(bad)


# -- guards on reachable bad input ----------------------------------------------


def _k4(n):
    return conf_series_hodge(n)[n]


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        (lambda: MultiPoly({(1, -1, 0, 0): 1}), ValueError, "negative exponent"),
        (lambda: MultiPoly({(1, 2): 1}), ValueError, r"key \(1, 2\) is not four ints"),
        (lambda: MultiPoly({(1, 0, 0, 0, 0): 1}), ValueError,
         r"key \(1, 0, 0, 0, 0\) is not four ints"),
        (lambda: MultiPoly({0.5: 1}), ValueError, "key 0.5 is not four ints"),
        (lambda: MultiPoly({(1, 0, 0, 0.5): 1}), ValueError,
         r"key \(1, 0, 0, 0.5\) is not four ints"),
        (lambda: MultiPoly({(True, 0, 0, 0): 1}), ValueError,
         r"key \(True, 0, 0, 0\) is not four ints"),
        (lambda: MultiPoly({"uxyt": 1}), ValueError, "key 'uxyt' is not four ints"),
        (lambda: MultiPoly({(65536, 0, 0, 0): 1}), OverflowError,
         r"\(65536, 0, 0, 0\) has total degree 65536"),
        (lambda: MultiPoly.monomial(u=1).substitute_one("t"), ValueError,
         "must be 'u', 'x' or 'y'"),
        (lambda: FactoredRatFun(MultiPoly.one(), [(MultiPoly.monomial(t=1), 0)]),
         ValueError, "multiplicity must be positive"),
        (lambda: expand(genus0_gf(), -1), ValueError, "t_order must be nonnegative, got -1"),
        (lambda: cheah_zeta([(1, 1, 0, -1)], 3), ValueError, "negative Betti or Hodge"),
        (lambda: vakil_wood_conf(macdonald_zeta(PUNCTURED_TORUS_HC, 3), 4),
         ValueError, "too short"),
        # it used to return []
        (lambda: vakil_wood_conf([MultiPoly.one()], -1), ValueError,
         "t_order must be nonnegative, got -1"),
        (lambda: w(-1), ValueError, "i must be nonnegative, got -1"),
        (lambda: decode_betti(_k4(2), 2), DecodeError, "other than u"),
        (lambda: decode_betti(MultiPoly.monomial(u=2, t=1), 1), DecodeError, "other than u"),
        (lambda: decode_hodge(_k4(2) + MultiPoly.monomial(u=1, t=1), 2),
         DecodeError, "still involves t"),
        # x y at t^1: 2n - e = 2 is not a weight
        (lambda: decode_hodge(MultiPoly.monomial(x=1, y=1), 1),
         DecodeError, "no weight preimage"),
        # x^2 at t^1: a = n - 2 < 0
        (lambda: decode_hodge(MultiPoly.monomial(u=2, x=2), 1),
         DecodeError, "exceeds n"),
        # u^2 x y at t^1 is h^{0,0}(H^0); -1 is not a dimension
        (lambda: decode_hodge(MultiPoly.monomial(-1, u=2, x=1, y=1), 1),
         DecodeError, "is not a dimension"),
    ],
    ids=["negative-exponent", "key-pair", "key-five", "key-float", "key-float-entry",
         "key-bool", "key-str", "key-too-wide", "substitute-t", "multiplicity", "t-order",
         "negative-dimension", "short-series", "vakil-wood-t-order", "w-negative", "betti-holds-x", "betti-holds-t", "hodge-holds-t",
         "hodge-no-preimage", "hodge-exponent-above-n", "hodge-negative"],
)
def test_reachable_guards_name_the_problem(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()

