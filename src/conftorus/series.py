"""Exact expansion of the rational generating functions and coefficient
decoders for Betti and mixed Hodge numbers.

Everything lives in the polynomial ring Z[u, x, y] with an outer formal
variable t.  Arithmetic is exact: every coefficient is an ``int``, as every
coefficient of the paper's series is; anything else, a ``Fraction`` or a
float, is a ``TypeError``.  A truncated series is a plain list of
:class:`MultiPoly`, entry ``k`` being the coefficient of ``t^k``.  Rational
functions are kept in factored form: a polynomial numerator over a product
of binomial factors ``(1 - c * monomial)`` with positive t-degree, each
inverted order by order as a geometric series.

A :class:`MultiPoly` keys each term by one packed int: the total degree
u + x + y + t in the top field, then t, u, x and y, each field 16 bits
wide.  A monomial product is one integer add of two keys.  No field can
carry into the next: every product checks that the total degrees of its
operands sum to at most 65535 and otherwise raises an ``OverflowError``
that names the exponent.  The coefficient of t^n in K4 has total degree at
most 4n, so the limit sits far beyond any order the expansion reaches in
practice.

The two closed forms driving the whole artifact:

* symmetric-power side
    ``Z  = (1 - u t)^2 / (1 - u^2 t)``
    ``Z4 = (1 - x u t)(1 - y u t) / (1 - x y u^2 t)``
* configuration side, via ``K(t) = Z(t) / Z(t^2)``
    ``K  = (1 - u t)^2 (1 - u^2 t^2) / ((1 - u^2 t)(1 - u t^2)^2)``
    ``K4 = (1 - x u t)(1 - y u t)(1 - x y u^2 t^2)
           / ((1 - x y u^2 t)(1 - x u t^2)(1 - y u t^2))``

The coefficient of ``t^n`` in ``K`` encodes the Betti numbers of the space
of n unordered distinct points on a punctured torus through the weight
function :func:`w`; the four-variable ``K4`` refines this to the mixed
Hodge numbers.  A zeta's factored form is built once per Hodge-data
table, on first use, and each call expands it to the order asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

__all__ = [
    "MultiPoly",
    "FactoredRatFun",
    "DecodeError",
    "expand",
    "macdonald_zeta",
    "cheah_zeta",
    "vakil_wood_conf",
    "w",
    "w_inverse",
    "decode_betti",
    "decode_hodge",
    "coefficient_json",
    "PUNCTURED_TORUS_HC",
    "TORUS_HC",
    "POINT_HC",
    "PUNCTURED_TORUS_HODGE",
    "POINT_HODGE",
    "sym_gf_betti",
    "sym_gf_hodge",
    "conf_gf_betti",
    "conf_gf_hodge",
    "conf_series_betti",
    "conf_series_hodge",
    "genus0_gf",
    "genus0_weight_inverse",
    "multiply_series",
    "check_result",
    "property_checks",
]


class DecodeError(ValueError):
    """A series coefficient that cannot be a valid Betti/Hodge encoding."""


# Packed keys (Monagan and Pearce, "Polynomial division using dynamic arrays,
# heaps, and packed exponent vectors", 2007): every field is at most the
# total degree, so two keys whose totals sum to at most _MASK add field by
# field with no carry.  _Y .. _DEG are the shifts of the fields.
_WIDTH = 16
_MASK = (1 << _WIDTH) - 1
_Y, _X, _U, _T, _DEG = (i * _WIDTH for i in range(5))
_XYT = _MASK << _T | _MASK << _X | _MASK << _Y  # the fields other than u


def _too_wide(exponent):
    return OverflowError(
        f"exponent (u, x, y, t) = {exponent} has total degree {sum(exponent)}, "
        f"above the {_MASK} a packed key holds"
    )


def _pack(k):
    """The packed key of the exponent tuple ``k = (u, x, y, t)``.  A key
    that is not four nonnegative ints is a ``ValueError``, a total degree
    above ``_MASK`` an ``OverflowError``; each names the key."""
    if type(k) is not tuple or len(k) != 4 or any(type(e) is not int for e in k):
        raise ValueError(f"exponent key {k!r} is not four ints (u, x, y, t)")
    if min(k) < 0:
        raise ValueError(f"negative exponent in {k}")
    u, x, y, t = k
    if u + x + y + t > _MASK:
        raise _too_wide(k)
    return (u + x + y + t) << _DEG | t << _T | u << _U | x << _X | y << _Y


def _unpack(k):
    """The exponent tuple ``(u, x, y, t)`` of the packed key ``k``."""
    return (k >> _U & _MASK, k >> _X & _MASK, k >> _Y & _MASK, k >> _T & _MASK)


def _split(k, shift):
    """``(e, rest)``: the exponent ``e`` in the field at ``shift`` of the
    packed key ``k``, and the key with that field zeroed and the total
    lowered by ``e``."""
    e = k >> shift & _MASK
    return e, k - (e << shift) - (e << _DEG)


def _exact(v):
    """``v`` itself when it is an ``int``; anything else, a ``Fraction``, a
    float or a ``bool``, is a ``TypeError``, since every coefficient is an
    integer."""
    if type(v) is not int:
        raise TypeError(f"coefficient {v!r} is not an int")
    return v


def _accumulate(out, c, a, b):
    """``out[k1 + k2] += c * v1 * v2`` over the terms of ``a`` and ``b``.

    ``out``, ``a`` and ``b`` are term dicts; ``out`` may be left holding
    zeros, which :func:`_poly` drops.  The one product loop of the module:
    inline, not linalg.add_terms, as the series side shares no code with the
    engine.  The largest key of a term dict has its largest total degree;
    when those two sum above ``_MASK`` a field could carry into the next,
    and the product raises an ``OverflowError`` instead.
    """
    if a and b and (max(a) >> _DEG) + (max(b) >> _DEG) > _MASK:
        high = zip(_unpack(max(a)), _unpack(max(b)))
        raise _too_wide(tuple(e1 + e2 for e1, e2 in high))
    for k1, v1 in a.items():
        cv1 = c * v1
        for k2, v2 in b.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + cv1 * v2


def _poly(out):
    """A :class:`MultiPoly` owning the term dict ``out``, zeros dropped."""
    res = MultiPoly()
    res.terms = {k: v for k, v in out.items() if v}
    return res


class MultiPoly:
    """Polynomial in u, x, y, t with ``int`` coefficients: an element of
    Z[u, x, y, t].

    The constructor takes a dict from exponent tuples ``(u, x, y, t)`` to
    coefficients.  ``terms`` holds them sparsely, zero coefficients never
    stored, each exponent packed into one int: the total degree in the top
    field, then t, u, x and y, each field 16 bits wide, so a term's total
    degree is at most 65535.  :meth:`unpacked` reads the tuples back.  A
    coefficient that is not an ``int``, a ``Fraction`` or a float, is a
    ``TypeError``; an exponent key that is not four nonnegative ints is a
    ``ValueError``.  A key, or a product, whose total degree exceeds 65535
    is an ``OverflowError`` that names the exponent: a key never carries
    one field into the next.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                v = _exact(v)
                k = _pack(k)
                if v:
                    self.terms[k] = v

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0, 0, 0): 1})

    @classmethod
    def monomial(cls, coeff=1, u=0, x=0, y=0, t=0):
        return cls({(u, x, y, t): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return _poly(out)

    def __neg__(self):
        res = MultiPoly()
        res.terms = {k: -v for k, v in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        out = {}
        _accumulate(out, 1, self.terms, other.terms)
        return _poly(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = _exact(c)
        return _poly({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"MultiPoly({self.as_string()})"

    # -- structure ---------------------------------------------------------

    def is_one(self):
        return self.terms == {0: 1}

    def unpacked(self):
        """The terms as a new dict ``(u, x, y, t) -> coefficient``."""
        return {_unpack(k): v for k, v in self.terms.items()}

    def t_coefficients(self, order):
        """Split into coefficients of t^0 .. t^order (t-exponent zeroed)."""
        out = [MultiPoly() for _ in range(order + 1)]
        for k, v in self.terms.items():
            e, rest = _split(k, _T)
            if e <= order:
                out[e].terms[rest] = v
        return out

    def substitute_one(self, var):
        """Set the named variable ('u', 'x' or 'y') to 1."""
        shift = {"u": _U, "x": _X, "y": _Y}.get(var)
        if shift is None:
            raise ValueError(f"cannot set {var!r} to 1: the variable must be 'u', 'x' or 'y'")
        out = {}
        for k, v in self.terms.items():
            _, rest = _split(k, shift)
            out[rest] = out.get(rest, 0) + v
        return _poly(out)

    def as_string(self):
        if not self.terms:
            return "0"
        bits = []
        for k, v in sorted(self.unpacked().items()):
            names = "uxyt"
            mono = ".".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(k) if e
            )
            if not mono:
                bits.append(str(v))
            elif v == 1:
                bits.append(mono)
            elif v == -1:
                bits.append("-" + mono)
            else:
                bits.append(f"{v}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


@dataclass
class FactoredRatFun:
    """Rational function ``numerator / prod (1 - m_i)^{e_i}``.

    Every ``m_i`` must be a single monomial term of positive t-degree, so
    each factor is a unit in the ring of power series in t.
    """

    numerator: MultiPoly
    denominator_factors: list = field(default_factory=list)

    def __post_init__(self):
        for m, mult in self.denominator_factors:
            if len(m.terms) != 1:
                raise ValueError("denominator factor is not a monomial")
            ((k, _),) = m.terms.items()
            if not k >> _T & _MASK:
                raise ValueError(
                    "factor (1 - %s) has constant term != 1 as a t-series"
                    % m.as_string()
                )
            if mult < 1:
                raise ValueError("factor multiplicity must be positive")

    def denominator_poly(self):
        """The expanded denominator polynomial (for round-trip checks)."""
        den = MultiPoly.one()
        for m, mult in self.denominator_factors:
            factor = MultiPoly.one() - m
            for _ in range(mult):
                den = den * factor
        return den


def _check_order(value, name="t_order", negative_ok=False):
    """The series side's copy of :func:`conftorus.linalg.check_int`, with
    the same texts: this module imports nothing from the package."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 0 and not negative_ok:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def expand(f: FactoredRatFun, t_order: int):
    """Coefficients of t^0 .. t^{t_order} of ``f`` as exact polynomials.

    Each factor ``1/(1 - c*m*t^d)`` is applied through the recurrence
    ``s'_k = s_k + c*m * s'_{k-d}``.
    """
    _check_order(t_order)
    series = [p.terms for p in f.numerator.t_coefficients(t_order)]
    for m, mult in f.denominator_factors:
        ((k, c),) = m.terms.items()
        d, rest = _split(k, _T)
        step = {rest: c}
        for _ in range(mult):
            for j in range(d, t_order + 1):
                _accumulate(series[j], 1, step, series[j - d])
    return [_poly(terms) for terms in series]


def multiply_series(a, b, t_order):
    """Truncated product of two coefficient lists."""
    _check_order(t_order)
    out = [{} for _ in range(t_order + 1)]
    for i, ai in enumerate(a[: t_order + 1]):
        for j, bj in enumerate(b[: t_order + 1 - i]):
            _accumulate(out[i + j], 1, ai.terms, bj.terms)
    return [_poly(terms) for terms in out]


def macdonald_zeta(h_c, t_order):
    """Symmetric-power zeta series from compact-support Betti numbers.

    ``h_c`` lists pairs ``(i, dim)``; the series is
    ``prod_i (1 - u^i t)^{(-1)^{i+1} dim}``: :func:`cheah_zeta` with every
    Hodge type (0, 0).
    """
    return cheah_zeta(tuple((i, 0, 0, dim) for i, dim in h_c), t_order)


@cache
def _zeta_form(h):
    """The factored zeta of the Hodge data tuple ``h``, keyed by the data
    itself, never by a name; a table that raises caches nothing."""
    num = MultiPoly.one()
    dens = []
    for i, a, b, dim in h:
        if dim < 0:
            raise ValueError("negative Betti or Hodge number")
        if dim == 0:
            continue
        m = MultiPoly.monomial(u=i, x=a, y=b, t=1)
        if i % 2 == 1:
            factor = MultiPoly.one() - m
            for _ in range(dim):
                num = num * factor
        else:
            dens.append((m, dim))
    return FactoredRatFun(num, dens)


def cheah_zeta(h, t_order):
    """Four-variable refinement of :func:`macdonald_zeta`.

    ``h`` lists compact-support mixed Hodge data ``(i, a, b, dim)``; the
    series is ``prod (1 - x^a y^b u^i t)^{(-1)^{i+1} dim}``.  Each call
    expands the table's one factored form into new polynomials.  A value
    that is not an ``int`` is a ``TypeError``: 1.0 never reads 1's form.
    """
    h = tuple(map(tuple, h))
    if any(type(e) is not int for row in h for e in row):
        raise TypeError(f"Hodge data {h!r} holds a value that is not an int")
    return expand(_zeta_form(h), t_order)


def vakil_wood_conf(z, t_order):
    """Configuration series K with ``K(t) * Z(t^2) = Z(t)``.

    K is the product ``Z(t) * W(t^2)`` with ``W = 1/Z``, which needs
    ``z_0 = 1``.  First ``W_0 = 1`` and ``W_r = -sum_{i=1..r} z_i W_{r-i}``
    up to ``r = t_order // 2``; then ``K_j = sum_{r <= j/2} z_{j-2r} W_r``.
    Every operand is a coefficient of Z or of W, never of K, and those stay
    small: for the punctured torus z_j has at most four terms and W_r at most
    2r + 1, while K4's coefficient of t^56 has 869.  Solving for K directly
    would multiply each earlier K_m by a coefficient of Z.
    """
    _check_order(t_order)
    if len(z) <= t_order:
        raise ValueError("input series too short for requested order")
    if not z[0].is_one():
        raise ValueError("series must have constant term 1")
    inv = [z[0]]
    for r in range(1, t_order // 2 + 1):
        acc = {}
        for i in range(1, r + 1):
            _accumulate(acc, -1, z[i].terms, inv[r - i].terms)
        inv.append(_poly(acc))
    k = []
    for j in range(t_order + 1):
        acc = {}
        for r in range(j // 2 + 1):
            _accumulate(acc, 1, z[j - 2 * r].terms, inv[r].terms)
        k.append(_poly(acc))
    return k


# -- weight function -------------------------------------------------------


def w(i):
    """Weight of the i-th cohomology: 3i/2 for even i, (3i-1)/2 for odd."""
    _check_order(i, "i")
    return 3 * i // 2 if i % 2 == 0 else (3 * i - 1) // 2


def w_inverse(v):
    """The unique i with w(i) == v, or None."""
    _check_order(v, "v", negative_ok=True)
    for i in ((2 * v) // 3, (2 * v + 1) // 3):
        if i >= 0 and w(i) == v:
            return i
    return None


# -- decoders --------------------------------------------------------------


def _weight_preimages(coeff_n, n, weight_inverse):
    """u-exponent e -> the i with ``w(i) = 2n - e``, or None, for every
    exponent of ``coeff_n``: one weight inversion per distinct exponent."""
    return {e: weight_inverse(2 * n - e) for e in {k >> _U & _MASK for k in coeff_n.terms}}


def decode_betti(coeff_n, n, weight_inverse=None):
    """Betti numbers hidden in the t^n coefficient of the K series.

    The u-exponent e of each term must satisfy ``e = 2n - w(i)`` for some i,
    and then ``h^i = (-1)^i * coefficient``.  Any unmatched exponent or a
    negative decoded value is a hard error: it means the purity encoding was
    violated somewhere upstream.

    ``weight_inverse`` defaults to the punctured-torus weight; the genus-zero
    sanity series decodes with the pure weight 2i instead.
    """
    _check_order(n, "n")
    preimage = _weight_preimages(coeff_n, n, weight_inverse or w_inverse)
    h = {}
    for k, v in coeff_n.terms.items():
        if k & _XYT:
            raise DecodeError("coefficient involves variables other than u")
        e = k >> _U & _MASK
        i = preimage[e]
        if i is None:
            raise DecodeError(f"u-exponent {e} at t^{n} has no weight preimage")
        val = v if i % 2 == 0 else -v
        if val < 0:
            raise DecodeError(f"decoded h^{i} = {val} is not a Betti number")
        h[i] = val
    top = max(h, default=0)
    return [h.get(i, 0) for i in range(top + 1)]


def decode_hodge(coeff_n, n):
    """Mixed Hodge table {(i, a, b): dim} from the t^n coefficient of K4.

    A term ``c * x^p y^q u^e`` contributes ``(-1)^i c`` to
    ``h^{n-p, n-q}`` of the i-th cohomology, where ``e = 2n - w(i)``;
    every entry must sit on the weight line a + b = w(i) = 2n - e.
    """
    _check_order(n, "n")
    preimage = _weight_preimages(coeff_n, n, w_inverse)
    table = {}
    for k, v in coeff_n.terms.items():
        if k >> _T & _MASK:
            raise DecodeError("coefficient still involves t")
        e = k >> _U & _MASK
        i = preimage[e]
        if i is None:
            raise DecodeError(f"u-exponent {e} at t^{n} has no weight preimage")
        a, b = n - (k >> _X & _MASK), n - (k & _MASK)  # y is the low field
        if a < 0 or b < 0:
            raise DecodeError(f"x/y exponent exceeds n at t^{n}")
        val = v if i % 2 == 0 else -v
        if val < 0:
            raise DecodeError(
                f"decoded h^{{{a},{b}}}(H^{i}) = {val} is not a dimension"
            )
        if a + b != 2 * n - e:
            raise DecodeError(
                f"entry ({i},{a},{b}) off the weight line a+b=w(i)"
            )
        table[(i, a, b)] = val
    return table


# -- JSON interface --------------------------------------------------------


def coefficient_json(poly, n):
    """Serialize one series coefficient; values as exact integer strings.
    The coefficient of t^n holds no t, and a term that does is a
    :class:`DecodeError`, as in :func:`decode_hodge`."""
    _check_order(n, "n")
    coeffs = []
    for (u, x, y, t), v in sorted(poly.unpacked().items(), key=lambda kv: kv[0][:3]):
        if t:
            raise DecodeError("coefficient still involves t")
        coeffs.append({"x": x, "y": y, "u": u, "value": str(v)})
    return {"n": n, "coefficients": coeffs}


# -- the concrete varieties ------------------------------------------------

# compact-support Betti numbers, as (degree, dimension) pairs
PUNCTURED_TORUS_HC = ((1, 2), (2, 1))
TORUS_HC = ((0, 1), (1, 2), (2, 1))
POINT_HC = ((0, 1),)

# compact-support mixed Hodge data, as (degree, a, b, dimension)
PUNCTURED_TORUS_HODGE = ((1, 1, 0, 1), (1, 0, 1, 1), (2, 1, 1, 1))
POINT_HODGE = ((0, 0, 0, 1),)


def _one_minus(coeff=1, **exps):
    return MultiPoly.one() - MultiPoly.monomial(coeff, **exps)


def sym_gf_betti():
    """(1 - u t)^2 / (1 - u^2 t): symmetric powers of the punctured torus."""
    num = _one_minus(u=1, t=1) * _one_minus(u=1, t=1)
    return FactoredRatFun(num, [(MultiPoly.monomial(u=2, t=1), 1)])


def sym_gf_hodge():
    """(1 - x u t)(1 - y u t) / (1 - x y u^2 t)."""
    num = _one_minus(x=1, u=1, t=1) * _one_minus(y=1, u=1, t=1)
    return FactoredRatFun(num, [(MultiPoly.monomial(x=1, y=1, u=2, t=1), 1)])


def conf_gf_betti():
    """(1-ut)^2 (1-u^2 t^2) / ((1-u^2 t)(1-u t^2)^2): Betti generating fn."""
    num = (
        _one_minus(u=1, t=1)
        * _one_minus(u=1, t=1)
        * _one_minus(u=2, t=2)
    )
    return FactoredRatFun(
        num,
        [(MultiPoly.monomial(u=2, t=1), 1), (MultiPoly.monomial(u=1, t=2), 2)],
    )


def conf_gf_hodge():
    """Four-variable configuration generating function."""
    num = (
        _one_minus(x=1, u=1, t=1)
        * _one_minus(y=1, u=1, t=1)
        * _one_minus(x=1, y=1, u=2, t=2)
    )
    return FactoredRatFun(
        num,
        [
            (MultiPoly.monomial(x=1, y=1, u=2, t=1), 1),
            (MultiPoly.monomial(x=1, u=1, t=2), 1),
            (MultiPoly.monomial(y=1, u=1, t=2), 1),
        ],
    )


def conf_series_betti(t_order):
    """K to t^t_order, from the punctured torus's Macdonald zeta by Vakil-Wood."""
    return vakil_wood_conf(macdonald_zeta(PUNCTURED_TORUS_HC, t_order), t_order)


def conf_series_hodge(t_order):
    """K4 to t^t_order, from the punctured torus's Cheah zeta by Vakil-Wood."""
    return vakil_wood_conf(cheah_zeta(PUNCTURED_TORUS_HODGE, t_order), t_order)


def genus0_gf():
    """(1 - u^2 t^2) / (1 - u^2 t): the affine-line analogue."""
    return FactoredRatFun(
        _one_minus(u=2, t=2), [(MultiPoly.monomial(u=2, t=1), 1)]
    )


def genus0_weight_inverse(v):
    """Inverse of the genus-zero weight i -> 2i."""
    _check_order(v, "v", negative_ok=True)
    return v // 2 if v >= 0 and v % 2 == 0 else None


# -- module-level property checks ------------------------------------------


def check_result(name, n_range, counterexample, detail=None):
    """The JSON-ready record of one check.  It passed exactly when
    ``counterexample`` is None, and a failed record names the
    counterexample; ``detail`` is a note kept only on a pass."""
    entry = {"name": name, "n_range": n_range, "passed": counterexample is None}
    if counterexample is not None:
        entry["counterexample"] = counterexample
    elif detail:
        entry["detail"] = detail
    return entry


def _first_mismatch(cases):
    """The label of the first ``(label, got, want)`` case with got != want,
    or None; the cases are drawn one at a time."""
    return next((label for label, got, want in cases if got != want), None)


def _first_term_mismatch(got, want):
    """``t^k`` at the first coefficient where two series differ, or None."""
    return _first_mismatch((f"t^{k}", a, b) for k, (a, b) in enumerate(zip(got, want)))


def property_checks(t_order=10):
    """The series-side invariants, one :func:`check_result` record each; a
    failing check names its first counterexample."""
    gfs = {"sym": sym_gf_betti(), "sym4": sym_gf_hodge(), "conf": conf_gf_betti(),
           "conf4": conf_gf_hodge(), "genus0": genus0_gf()}
    z = macdonald_zeta(PUNCTURED_TORUS_HC, t_order)
    k = vakil_wood_conf(z, t_order)
    z4 = cheah_zeta(PUNCTURED_TORUS_HODGE, t_order)
    at_u1 = (c.substitute_one("u").substitute_one("x").substitute_one("y") for c in k)
    genus0 = (decode_betti(c, n, weight_inverse=genus0_weight_inverse)
              for n, c in enumerate(expand(gfs["genus0"], t_order)))
    checks = {
        # expansion times denominator reproduces the numerator
        "expand_round_trip": _first_mismatch(
            (name, multiply_series(expand(f, t_order),
                                   f.denominator_poly().t_coefficients(t_order), t_order),
             f.numerator.t_coefficients(t_order))
            for name, f in gfs.items()
        ),
        # the quotient identity: K built from Z equals its closed form
        "vakil_wood_identity": _first_term_mismatch(k, expand(gfs["conf"], t_order)),
        "vakil_wood_identity_4var": _first_term_mismatch(
            vakil_wood_conf(z4, t_order), expand(gfs["conf4"], t_order)
        ),
        # specialization x = y = 1 collapses the refined series
        "specialization_coherence": _first_term_mismatch(
            [c.substitute_one("x").substitute_one("y") for c in z4], z
        ),
        # u = 1 turns the configuration series into (-1)^n
        "euler_characteristic_law": _first_mismatch(
            (f"t^{n}: {val.as_string()}", val, MultiPoly.monomial(coeff=(-1) ** n))
            for n, val in enumerate(at_u1)
        ),
        # the genus-zero series decodes to the classical table
        "genus_zero_table_decode": _first_mismatch(
            (f"n={n}: {got}", got, [1] if n < 2 else [1, 1])
            for n, got in enumerate(genus0)
        ),
    }
    return [check_result(name, f"t<={t_order}", cex) for name, cex in checks.items()]
