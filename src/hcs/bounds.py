"""Edge-count bound functions and inequality certification.

Everything is computed exactly: rational data with Fractions, and the
irrational constants (square roots) as elements of Q(sqrt2, sqrt3,
sqrt5), whose comparisons are decided exactly. So every margin is the
exact minimum and a PASS is a proof, with no tolerance. Quadratic
inequalities on an interval are certified by their exact minimum: the
endpoints, and the vertex of a convex quadratic.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .extractor import SEPARABLE, extract
from .field import Surd, _exact, sqrt
from .graphs import AnticliqueProfile, SimpleGraph, _check_k, _is_int


# --- parameter alternatives ----------------------------------------------------

@dataclass(frozen=True)
class ParameterAlternative:
    """One admissible constant tuple (sigma, gamma, rho, delta).

    sigma scales the guaranteed subgraph size (more than (1+sigma)k
    vertices), delta the average-degree threshold (delta*k - 1); rho is
    the lower bound for the per-graph weight r(G) used in the proofs.
    """

    id: int
    sigma: Fraction | Surd
    gamma: Fraction | Surd
    rho: Fraction
    delta: Fraction | Surd

    def __post_init__(self) -> None:
        # delta >= 1 + gamma is what turns the edge bound into the
        # average-degree statement; certify it on construction.
        if not self.delta >= self.gamma + 1:
            raise ValueError("delta >= 1 + gamma must hold")

    @property
    def label(self) -> str:
        return f"alt{self.id}"


def _alt1_constants(sigma) -> tuple:
    """Alternative 1's (gamma, delta) at sigma: gamma = 1/(3 sigma), delta = 2 + sigma + gamma."""
    gamma = 1 / (3 * sigma)
    return gamma, 2 + sigma + gamma


def alternative_1(sigma=None) -> ParameterAlternative:
    """Family with sigma >= (sqrt(2)+1)/sqrt(3); defaults to the boundary value.

    A float sigma is read as the decimal it prints as, so 1.4 is 7/5.
    """
    smin = (sqrt(2) + 1) / sqrt(3)
    if sigma is None:
        sigma = smin
    s = _exact(sigma)
    if s < smin:
        raise ValueError("alternative 1 needs sigma >= (sqrt(2)+1)/sqrt(3)")
    gamma, delta = _alt1_constants(s)
    return ParameterAlternative(1, s, gamma, Fraction(1), delta)


def alternative_2() -> ParameterAlternative:
    sqrt10 = sqrt(10)
    sigma = sqrt10 / 6
    gamma = sqrt10 / 3
    delta = 2 + Fraction(11, 3) / sqrt10
    return ParameterAlternative(2, sigma, gamma, Fraction(2), delta)


def alternative_3() -> ParameterAlternative:
    return ParameterAlternative(
        3, Fraction(1, 5), Fraction(6, 5), Fraction(3), Fraction(3109, 1000)
    )


def _entry(alt_id: int) -> tuple:
    """The builder and the obligation table of an alternative id."""
    if not _is_int(alt_id):
        raise ValueError("alternative id must be an integer")
    if alt_id not in _ALTERNATIVES:
        raise ValueError(f"unknown alternative id {alt_id}")
    return _ALTERNATIVES[alt_id]


def get_alternative(alt_id: int) -> ParameterAlternative:
    # _entry checks the id before the cache sees it: 2.0 and True would find
    # the keys of 2 and 1, and an unhashable id would raise TypeError
    return _built(_entry(alt_id)[0])


@functools.cache  # the alternatives are frozen, so each is built once per process
def _built(builder) -> ParameterAlternative:
    return builder()


def density_threshold(alt: ParameterAlternative, k: int) -> Fraction | Surd:
    """The average-degree threshold delta*k - 1, exactly."""
    return alt.delta * k - 1


# --- split optimization ----------------------------------------------------------

@dataclass(frozen=True)
class OptimizationInstance:
    """Split a total z against a vector of masses zs, with floor tau on the cut."""

    z: float
    zs: tuple[float, ...]
    tau: float

    def __post_init__(self) -> None:
        if not self.z > 0:
            raise ValueError("z must be positive")
        if any(zi < 0 for zi in self.zs):
            raise ValueError("mass components must be non-negative")
        if sum(zi * zi for zi in self.zs) > self.z * self.z:
            raise ValueError("the mass vector must have norm at most z")
        if not (0 <= self.tau <= self.z / 2):
            raise ValueError("tau must lie in [0, z/2]")


def split_objective(inst: OptimizationInstance, x: float, xs: Sequence[float]) -> float:
    q = sum(v * v for v in xs)
    qz = sum((zi - v) * (zi - v) for zi, v in zip(inst.zs, xs))
    return x * x - q + (inst.z - x) * (inst.z - x) - qz


_SLACK = 1e-12  # float rounding allowed in each constraint of a split


def split_is_feasible(inst: OptimizationInstance, x: float, xs: Sequence[float]) -> bool:
    if not (inst.tau - _SLACK <= x <= inst.z / 2 + _SLACK):
        return False
    if math.sqrt(sum(v * v for v in xs)) > x + _SLACK:
        return False
    if math.sqrt(sum((z - v) ** 2 for z, v in zip(inst.zs, xs))) > inst.z - x + _SLACK:
        return False
    return True


def split_maximum(inst: OptimizationInstance) -> tuple[float, tuple[float, ...], float]:
    """Closed-form maximizer of the split objective.

    The maximum sits at x = tau; the vector part is zero when zs is zero
    and min(1/2, tau/||zs||) * zs otherwise.
    """
    norm = math.sqrt(sum(zi * zi for zi in inst.zs))
    x = inst.tau
    if norm == 0:
        xs: tuple[float, ...] = tuple(0.0 for _ in inst.zs)
    else:
        alpha = min(0.5, inst.tau / norm)
        xs = tuple(alpha * zi for zi in inst.zs)
    return x, xs, split_objective(inst, x, xs)


# --- edge bounds for separable views ---------------------------------------------

def _iterated_coeffs(sigma, r, square_sum, m: int) -> tuple:
    """Coefficients (c0, c1, c2) in g of the iterated bound at halving depth m.

    With t = 2^-(m-1), the halved sides g/2, ..., g/2^(m-1) contribute
    g^2 (1 - t^2)/3 and the last side (t g - sigma)^2 / r.
    """
    t, w = Fraction(1, 2 ** (m - 1)), Fraction(1) / r  # w = 1/r, exact for an int r too
    return (
        1 + sigma * sigma * (1 + w) - square_sum / (m + r),
        2 - 2 * t * sigma * w,
        (1 - t * t) / 3 + t * t * w,
    )


def basic_edge_bound(g, sigma):
    """Edge bound 2g + 1 + sigma^2 + (g - sigma)^2 for a separable view."""
    if g < 0:
        raise ValueError("g must be non-negative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return _poly_eval(_iterated_coeffs(sigma, 1, Fraction(0), 1), g)


def halving_depth(g, sigma) -> int:
    """Smallest m >= 1 with g/2^m <= sigma (exactly ceil(log2(g/sigma)) for g > sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    m = 1
    while sigma * 2**m < g:
        m += 1
    return m


def iterated_edge_bound(g, sigma, r, profile: AnticliqueProfile):
    """Edge bound obtained by repeatedly splitting off the smaller side.

    Valid for g >= sigma and r in (0, 1]; the anticlique discount comes
    with weight 1/(m + r) where m is the halving depth.
    """
    if g < sigma:
        raise ValueError("needs g >= sigma")
    if not (0 < r <= 1):
        raise ValueError("r must lie in (0, 1]")
    m = halving_depth(g, sigma)
    return _poly_eval(_iterated_coeffs(sigma, r, profile.square_sum, m), g)


def _core_side_coeffs(r, square_sum) -> tuple:
    """Coefficients (c0, c1, c2) in b of the core-side bound."""
    return ((r - square_sum) / (r + 1), 2, Fraction(1) / (r + 1))


def core_side_edge_bound(b, r, profile: AnticliqueProfile):
    """Edge bound for the separation side that carries the unit core anticlique."""
    if not (0 < r <= 1):
        raise ValueError("r must lie in (0, 1]")
    if b < 0:
        raise ValueError("b must be non-negative")
    return _poly_eval(_core_side_coeffs(r, profile.square_sum), b)


# --- certification -----------------------------------------------------------------

Poly = Sequence  # coefficients (c0, c1, c2), low degree first; int, Fraction or Surd


def _poly_eval(coeffs: Poly, x):
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * x + c
    return out


def _poly_sub(lhs: Poly, rhs: Poly) -> list:
    return [a - b for a, b in zip_longest(lhs, rhs, fillvalue=0)]


@dataclass(frozen=True)
class CertificateResult:
    passed: bool
    margin: Fraction | Surd    # the exact minimum of q on the interval
    at_point: Fraction | Surd  # where the minimum is attained
    method: str                # "endpoints+concavity" or "endpoints+vertex"


def certify_nonnegative_on_interval(coeffs: Poly, lo, hi) -> CertificateResult:
    """Certify q(x) >= 0 on [lo, hi] for a quadratic q.

    The minimum of q on an interval is at an endpoint, or, when q is
    convex, at its vertex v = -c1/(2 c2) if that lies inside; there q equals
    c0 + c1 v/2. Coefficients and endpoints are exact (int, Fraction
    or Surd), so the sign of c2 is always decided and the margin is the
    exact minimum.
    """
    coeffs = list(coeffs)
    if len(coeffs) > 3:
        raise ValueError("only polynomials of degree at most 2 are supported")
    if hi < lo:
        raise ValueError("degenerate interval: lo > hi")
    c0, c1, c2 = coeffs = coeffs + [0] * (3 - len(coeffs))
    candidates = [(_poly_eval(coeffs, lo), lo), (_poly_eval(coeffs, hi), hi)]
    if c2 > 0:
        method = "endpoints+vertex"
        # the Fraction factors keep the divisions exact when c1 and c2 are ints
        vertex = Fraction(-1, 2) * c1 / c2
        if lo <= vertex <= hi:
            candidates.append((c0 + c1 * vertex / 2, vertex))
    else:
        method = "endpoints+concavity"
    margin, at = min(candidates, key=lambda c: c[0])
    return CertificateResult(margin >= 0, margin, at, method)


@dataclass(frozen=True)
class BoundReport:
    """An evaluated proof obligation with its exact margin."""

    obligation_id: str
    params: dict
    lhs: str
    rhs: str
    margin: Fraction | Surd
    verdict: str  # PASS | FAIL | NOT_APPLICABLE


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _verdict(margin) -> str:
    return "PASS" if margin >= 0 else "FAIL"


def _interval_report(oid: str, params: dict, lhs_poly: Poly, rhs_poly: Poly, lo, hi) -> BoundReport:
    cert = certify_nonnegative_on_interval(_poly_sub(rhs_poly, lhs_poly), lo, hi)
    lhs_at = _poly_eval(lhs_poly, cert.at_point)
    rhs_at = lhs_at + cert.margin  # the margin is rhs - lhs at the same point, exactly
    return BoundReport(oid, params, _fmt(lhs_at), _fmt(rhs_at), cert.margin, _verdict(cert.margin))


def _point_report(oid: str, params: dict, lhs, rhs) -> BoundReport:
    margin = rhs - lhs
    return BoundReport(oid, params, _fmt(lhs), _fmt(rhs), margin, _verdict(margin))


def _identity_report(oid: str, params: dict, lhs_poly: Poly, rhs_poly: Poly) -> BoundReport:
    """Certify that two polynomials are equal, coefficient by coefficient."""
    worst = max(abs(d) for d in _poly_sub(lhs_poly, rhs_poly))
    return BoundReport(oid, params, _fmt(worst), _fmt(0), -worst, _verdict(-worst))


# --- obligation tables ---------------------------------------------------------------

def _basic_delta(sigma):
    """The basic bound's threshold at sigma: delta = 2 + sigma + 1/(2 sigma)."""
    return 2 + sigma + 1 / (2 * sigma)


def _basic_obligations_for(s, label: str) -> list[BoundReport]:
    delta = _basic_delta(s)
    b1 = delta - 2  # sigma + 1/(2 sigma)
    return [
        # basic_edge_bound, 2g + 1 + s^2 + (g-s)^2 <= delta*g on [s + 1/(2s), 2s]
        _interval_report(
            f"basic[s={label}]/base-range",
            {"sigma": label, "interval": "[s+1/(2s), 2s]"},
            _iterated_coeffs(s, 1, Fraction(0), 1),
            (0, delta, 0),
            b1,
            2 * s,
        ),
        # iterated_edge_bound at depth 2, r = 1:
        # 2g + 1 + s^2 + (g/2)^2 + (g/2 - s)^2 <= delta*g on [2s, 2s + 1/s]
        _interval_report(
            f"basic[s={label}]/mid-range",
            {"sigma": label, "interval": "[2s, 2s+1/s]"},
            _iterated_coeffs(s, 1, Fraction(0), 2),
            (0, delta, 0),
            2 * s,
            2 * s + 1 / s,
        ),
        # (2 + b) b <= delta*b for the small side b <= s + 1/(2s)
        _interval_report(
            f"basic[s={label}]/small-side",
            {"sigma": label, "interval": "[0, s+1/(2s)]"},
            (0, 2, 1),
            (0, delta, 0),
            0,
            b1,
        ),
    ]


def verify_basic_bounds() -> list[BoundReport]:
    """Certify basic_edge_bound <= delta*g at the sharp sigma and at sigma = 1."""
    return _basic_obligations_for(1 / sqrt(2), "1/sqrt2") + _basic_obligations_for(Fraction(1), "1")


def _alt1_obligations(alt: ParameterAlternative) -> list[BoundReport]:
    s, gamma, delta = alt.sigma, alt.gamma, alt.delta
    d2 = delta - 2
    return [
        # -g^2 + (delta-2) g - 1/3 = (g - gamma)(s - g): delta - 2 = s + gamma, 1/3 = s gamma
        _identity_report(
            "alt1/base/identity",
            {"coefficients": "g^0, g^1, g^2"},
            (-Fraction(1, 3), d2, -1),
            (-s * gamma, s + gamma, -1),
        ),
        # (g+1)^2 <= delta*g + 2/3 on [gamma, sigma]
        _interval_report(
            "alt1/base/nonneg",
            {"interval": "[1/(3s), s]", "r(G)": "1"},
            (1, 2, 1),
            (Fraction(2, 3), delta, 0),
            gamma,
            s,
        ),
        # sqrt(2/3) b + sqrt(2/3) b <= (delta - 2) b, per unit b
        _point_report(
            "alt1/induction/small-side",
            {"r(B)": "sqrt(3/2) b", "r(A)": ">=1"},
            2 * sqrt(Fraction(2, 3)),
            d2,
        ),
        # witness validity: r(B) = sqrt(3/2) b stays in (0,1] for b <= 1/(3s)
        _point_report(
            "alt1/induction/small-side-witness",
            {"b": "<= 1/(3s)"},
            sqrt(Fraction(3, 2)) * gamma,
            1,
        ),
    ]


def _alt2_obligations(alt: ParameterAlternative) -> list[BoundReport]:
    s, gamma, delta = alt.sigma, alt.gamma, alt.delta
    d2 = delta - 2
    up = 2 * sqrt(Fraction(2, 5))
    sqrt23 = sqrt(Fraction(2, 3))
    return [
        # 1 + 2 (g/2)^2 <= (delta-2) g + 1/3 on [gamma, 2 sqrt(2/5)], r(G) = 2
        _interval_report(
            "alt2/base/low",
            {"interval": "[gamma, 2*sqrt(2/5)]", "r(G)": "2"},
            (1, 0, Fraction(1, 2)),
            (Fraction(1, 3), d2, 0),
            gamma,
            up,
        ),
        # iterated_edge_bound at depth 2, r = 1, less its 2g:
        # 1 + (g/2)^2 + (g/2 - s)^2 + s^2 <= (delta-2) g + 2/9 on [2 sqrt(2/5), 2 gamma]
        _interval_report(
            "alt2/base/high",
            {"interval": "[2*sqrt(2/5), 2*gamma]", "r(G)": "3"},
            _poly_sub(_iterated_coeffs(s, 1, Fraction(0), 2), (0, 2)),
            (Fraction(2, 9), d2, 0),
            up,
            2 * gamma,
        ),
        # sqrt(2/3) (1/4 + 1) b <= (delta - 2) b, per unit b
        _point_report(
            "alt2/induction/small-side",
            {"r(B)": "sqrt(3/2) b", "r(A)": ">=2"},
            Fraction(5, 4) * sqrt23,
            d2,
        ),
        # r(B) = sqrt(3/2) b <= 1 for b <= sqrt(2/3)
        _point_report(
            "alt2/induction/small-side-witness",
            {"b": "<= sqrt(2/3)"},
            sqrt(Fraction(3, 2)) * sqrt23,
            1,
        ),
        # 1/9 + b^2 <= (delta-2) b on [sqrt(2/3), gamma]
        _interval_report(
            "alt2/induction/medium-side",
            {"interval": "[sqrt(2/3), gamma]", "r(B)": "1"},
            (Fraction(1, 9), 0, 1),
            (0, d2, 0),
            sqrt23,
            gamma,
        ),
    ]


def _core_split_coeffs(iterated: Poly, r, square_sum, s) -> tuple:
    """The depth-4 iterated bound with its first halved side on the core side.

    Takes the coefficients of ``_iterated_coeffs(sigma, r, square_sum, 4)``.
    The side (g/2)^2 becomes the core-side term (s + (g/2)^2)/(1+s), and
    the anticlique discount is weighted 1/(4 + r + s) instead of 1/(4 + r).
    """
    c0, c1, c2 = iterated
    k0, _, k2 = _core_side_coeffs(s, 0)  # in b = g/2
    return (
        c0 + k0 + square_sum / (4 + r) - square_sum / (4 + r + s),
        c1,
        c2 + (k2 - 1) / 4,
    )


def _alt3_obligations(alt: ParameterAlternative) -> list[BoundReport]:
    sigma, gamma, d2 = alt.sigma, alt.gamma, alt.delta - 2
    r, square_sum, s_low, s_high = Fraction(3, 10), Fraction(2, 3), Fraction(2, 5), Fraction(7, 10)
    # the base rows cover [gamma, 2.4], one row per pair of neighbouring breakpoints
    breakpoints = [gamma, Fraction(8, 5), Fraction(51, 25), Fraction(52, 25), Fraction(12, 5)]
    iterated = _iterated_coeffs(sigma, r, square_sum, 4)

    def less_2g(coeffs) -> list:
        return _poly_sub(coeffs, (0, 2))

    # each base row's left-hand side and the params that follow its interval
    base = [
        # stays data: 7/9 + (3/8) g^2 is 1 + (g/2)^2 + 2 (g/4)^2 less the
        # anticlique discount (2/3)/r(G) at r(G) = 3
        ((Fraction(7, 9), 0, Fraction(3, 8)), {"r(G)": "3"}),
        # iterated_edge_bound at depth 4, r = 3/10 (m + r = 4.3) and anticlique
        # square-sum 2/3, less its 2g
        (less_2g(iterated), {"r": _fmt(r), "r(G)": _fmt(4 + r)}),
    ] + [
        # the same with its first halved side on the core side of weight s, less its 2g
        (less_2g(_core_split_coeffs(iterated, r, square_sum, s)), {"s": _fmt(s), "r(G)": _fmt(4 + r + s)})
        for s in (s_low, s_high)
    ]
    reports = []
    for (lhs, params), lo, hi in zip(base, breakpoints, breakpoints[1:]):
        lo_s, hi_s = _fmt(lo), _fmt(hi)
        reports.append(_interval_report(
            f"alt3/base/g[{lo_s},{hi_s}]", {"interval": f"[{lo_s}, {hi_s}]", **params}, lhs, (0, d2, 0), lo, hi
        ))
    # derivative of the combined bound in a is negative on the worst corner,
    # so the maximum sits at a = g/2
    g, a = breakpoints[2], Fraction(6, 5)
    reports.append(_point_report(
        "alt3/base/derivative-sign",
        {"s": _fmt(s_high), "g": _fmt(g), "a": _fmt(a)},
        -(g - a) / (1 + s_high) + (a / 2) / 2 + (a / 4) / 4 + (a / 4 - sigma) / (4 * r),
        0,
    ))
    # core_side_edge_bound at r = 1 with an empty profile, (1 + b^2)/2 + 2b, less
    # its 2b, plus the constant 4/45 that the induction step adds on top of it
    medium = _poly_sub(_core_side_coeffs(1, Fraction(0)), (-Fraction(4, 45), 2))
    lo, hi = 1, gamma
    return reports + [
        # (2/27 + 1) b <= (delta-2) b, per unit b
        _point_report(
            "alt3/induction/small-side",
            {"r(B)": "b", "r(A)": ">=3"},
            Fraction(2, 27) + 1,
            d2,
        ),
        # 4/45 + (1 + b^2)/2 <= (delta-2) b on [1, gamma] and at both ends
        _interval_report(
            "alt3/induction/medium-side",
            {"interval": f"[{_fmt(lo)}, {_fmt(hi)}]", "r": "1"},
            medium,
            (0, d2, 0),
            lo,
            hi,
        ),
    ] + [
        _point_report(f"alt3/induction/medium-side@b={_fmt(b)}", {"b": _fmt(b)}, _poly_eval(medium, b), d2 * b)
        for b in (lo, hi)
    ]


# each alternative by id: its builder and its obligation table
_ALTERNATIVES = {
    1: (alternative_1, _alt1_obligations),
    2: (alternative_2, _alt2_obligations),
    3: (alternative_3, _alt3_obligations),
}


def verify_alternative(alt: ParameterAlternative) -> list[BoundReport]:
    """Certify every inequality instance backing the given alternative."""
    return _entry(alt.id)[1](alt)


def verify_all_bounds() -> list[BoundReport]:
    out = verify_basic_bounds()
    for alt_id in _ALTERNATIVES:
        out += verify_alternative(get_alternative(alt_id))
    return out


# --- consequence check on concrete graphs --------------------------------------------

def separable_density_check(g: SimpleGraph, k: int, alt: ParameterAlternative) -> BoundReport:
    """Check ebar <= delta*g + 2/3 on a graph whose extraction is SEPARABLE.

    Reports NOT_APPLICABLE when g < gamma or when the extractor finds a
    large highly connected subgraph instead.
    """
    _check_k(k)
    oid = "separable-density"
    params = {"n": str(g.n), "e": str(g.edge_count), "k": str(k), "alt": alt.label}
    not_applicable = BoundReport(oid, params, "-", "-", Fraction(0), "NOT_APPLICABLE")
    if g.n == 0:
        return not_applicable
    # the graph with every edge doubled and a loop per vertex: v/k vertices, (2e+v)/k^2 edges
    gg = Fraction(g.n, k) - 1
    if gg < alt.gamma:
        return not_applicable
    result = extract(g, k, alt.sigma)
    if result.outcome != SEPARABLE:
        return not_applicable
    bound = alt.delta * gg + Fraction(2, 3)
    ebar = Fraction(2 * g.edge_count + g.n, k * k)
    margin = bound - ebar
    return BoundReport(oid, params, _fmt(ebar), _fmt(bound), margin, _verdict(margin))


# --- serialization --------------------------------------------------------------------

def reports_to_csv(reports: Sequence[BoundReport]) -> str:
    lines = ["obligation_id,params,lhs,rhs,margin,verdict"]
    for r in reports:
        params = json.dumps(r.params, sort_keys=True).replace('"', "'")
        lines.append(
            f'{r.obligation_id},"{params}",{r.lhs},{r.rhs},{float(r.margin):.6g},{r.verdict}'
        )
    return "\n".join(lines) + "\n"


def reports_to_json(reports: Sequence[BoundReport]) -> list[dict]:
    return [
        {
            "obligation_id": r.obligation_id,
            "params": r.params,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "margin": float(r.margin),
            "margin_exact": str(r.margin),
            "tolerance": "0",  # every margin is exact
            "verdict": r.verdict,
        }
        for r in reports
    ]
