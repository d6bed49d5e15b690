"""Golden report floats: the circle-bundle sweep at m = 8 ... 128 and the
single report at m = 65536, pinned bit for bit as ``float.hex`` strings,
and the route values of three tables with lines outside their law.

A speed-up of the report's builders (the Euler-Maclaurin heat series, the
direct Hurwitz route, the law-backed table) must not move any of these
numbers.  A change that does move one on purpose re-pins the entry and lists
the moved value in CHANGES.md with its distance in ulps and its error
against the closed form.
"""

import pytest

from crtorsion.spectra import QuadraticTail, SpectrumTable, cp1_geometry, cp1_spectrum
from crtorsion.tails import QuadraticLaw
from crtorsion.torsion import (
    asympt_sweep,
    closed_form_bhat,
    theta_prime_zero_direct_result,
    theta_prime_zero_result,
    torsion_report,
)

FIELDS = (
    "theta_prime_0",
    "theta_prime_0_direct",
    "error_budget",
    "theta_tilde_0",
    "theta_tilde_prime_0",
    "theta_tilde_error",
)

GOLDEN = {
    8: {
        "theta_prime_0": "0x1.bc5f2e5d1bf00p+0",
        "theta_prime_0_direct": "0x1.bc5f2e5d1ca78p+0",
        "error_budget": "0x1.3bba544a8123cp-38",
        "theta_tilde_0": "-0x1.2aaaaaaaaaaabp-1",
        "theta_tilde_prime_0": "-0x1.fdf7884c175a2p-1",
        "theta_tilde_error": "0x1.3b7f19fbf7019p-41",
        "bhat": (
            "-0x1.0000000000000p+0",
            "0x0.0p+0",
            "0x1.2aaaaaaaaaaabp+2",
            "0x0.0p+0",
            "-0x1.aeeeeeeeeeeefp+2",
            "0x0.0p+0",
            "-0x1.58958958958ecp+0",
            "0x0.0p+0",
            "0x1.1437437437472p+3",
            "0x0.0p+0",
            "0x1.92363aa97c0f0p+2",
        ),
    },
    16: {
        "theta_prime_0": "0x1.15ec19ae2b67cp+3",
        "theta_prime_0_direct": "0x1.15ec19ae2b64cp+3",
        "error_budget": "0x1.76a7a2e259003p-38",
        "theta_tilde_0": "-0x1.1555555555555p-1",
        "theta_tilde_prime_0": "-0x1.eb024e2e61c5ep-1",
        "theta_tilde_error": "0x1.76091bbc11821p-42",
        "bhat": (
            "-0x1.0000000000000p+0",
            "0x0.0p+0",
            "0x1.1555555555555p+3",
            "0x0.0p+0",
            "-0x1.8111111111110p+4",
            "0x0.0p+0",
            "-0x1.3403403403404p+2",
            "0x0.0p+0",
            "0x1.c921521521523p+6",
            "0x0.0p+0",
            "0x1.48395509adb7dp+6",
        ),
    },
    32: {
        "theta_prime_0": "0x1.bb3e0e878ba68p+4",
        "theta_prime_0_direct": "0x1.bb3e0e878ba2ep+4",
        "error_budget": "0x1.eda059319d12bp-38",
        "theta_tilde_0": "-0x1.0aaaaaaaaaaabp-1",
        "theta_tilde_prime_0": "-0x1.e0f42e4dd91cep-1",
        "theta_tilde_error": "0x1.ec4ae3491bcc4p-43",
        "bhat": (
            "-0x1.0000000000000p+0",
            "0x0.0p+0",
            "0x1.0aaaaaaaaaaabp+4",
            "0x0.0p+0",
            "-0x1.6aeeeeeeeeeefp+6",
            "0x0.0p+0",
            "-0x1.225625625622cp+4",
            "0x0.0p+0",
            "0x1.9a286e86e86e5p+10",
            "0x0.0p+0",
            "0x1.255f030776306p+10",
        ),
    },
    64: {
        "theta_prime_0": "0x1.318a0a5ee0679p+6",
        "theta_prime_0_direct": "0x1.318a0a5ee067bp+6",
        "error_budget": "0x1.6fe92b5b450f3p-37",
        "theta_tilde_0": "-0x1.0555555555555p-1",
        "theta_tilde_prime_0": "-0x1.dbc6be1024476p-1",
        "theta_tilde_error": "0x1.6e123ff9eb9dap-43",
        "bhat": (
            "-0x1.0000000000000p+0",
            "0x0.0p+0",
            "0x1.0555555555555p+5",
            "0x0.0p+0",
            "-0x1.6011111111111p+8",
            "0x0.0p+0",
            "-0x1.19a69a69a69a7p+6",
            "0x0.0p+0",
            "0x1.82fd8c98c98cap+14",
            "0x0.0p+0",
            "0x1.1484df1f665d6p+14",
        ),
    },
    128: {
        "theta_prime_0": "0x1.86f45f471c78ap+7",
        "theta_prime_0_direct": "0x1.86f45f471c7b1p+7",
        "error_budget": "0x1.3e87445405ca8p-36",
        "theta_tilde_0": "-0x1.02aaaaaaaaaabp-1",
        "theta_tilde_prime_0": "-0x1.d9263af7eb079p-1",
        "theta_tilde_error": "0x1.3c89e63f51416p-43",
        "bhat": (
            "-0x1.0000000000000p+0",
            "0x0.0p+0",
            "0x1.02aaaaaaaaaabp+6",
            "0x0.0p+0",
            "-0x1.5aaeeeeeeeeefp+10",
            "0x0.0p+0",
            "-0x1.15589589588aep+8",
            "0x0.0p+0",
            "0x1.778103dc3dc44p+18",
            "0x0.0p+0",
            "0x1.0c3db6c883a0cp+18",
        ),
    },
    65536: {
        "theta_prime_0": "0x1.2815fae820af3p+18",
        "theta_prime_0_direct": "0x1.2815fae82159cp+18",
        "error_budget": "0x1.0938c249a9f62p-22",
        "theta_tilde_0": "-0x1.0001555555555p-1",
        "theta_tilde_prime_0": "-0x1.d68071be16cf8p-1",
        "theta_tilde_error": "0x1.090a93daade3fp-38",
        "bhat": (
            "-0x1.0000000000000p+0",
            "0x0.0p+0",
            "0x1.0001555555555p+15",
            "0x0.0p+0",
            "-0x1.5558000111111p+28",
            "0x0.0p+0",
            "-0x1.1113333403403p+26",
            "0x0.0p+0",
            "0x1.6c1c71c98c916p+54",
            "0x0.0p+0",
            "0x1.04145147f1da7p+54",
        ),
    },
}


def _assert_pinned(report):
    want = GOLDEN[report.m]
    got = {name: getattr(report, name).hex() for name in FIELDS}
    assert got == {name: want[name] for name in FIELDS}, report.m
    assert tuple(b.hex() for b in report.bhat) == want["bhat"], report.m


def test_sweep_reports_are_pinned():
    reports = asympt_sweep(cp1_geometry(), cp1_spectrum, [8, 16, 32, 64, 128])
    assert [r.m for r in reports] == [8, 16, 32, 64, 128]
    for report in reports:
        _assert_pinned(report)


@pytest.mark.parametrize("m", [65536])
def test_large_weight_report_is_pinned(m):
    _assert_pinned(torsion_report(cp1_spectrum(m), cp1_geometry(), m))


# Circle-bundle tables have no weighted line outside their law, so the pins
# above never reach the Taylor terms of closed_form_bhat or the log terms of
# the direct route.  These three tables do: the circle bundle at m = 5 with
# k_max = 40 plus rows off its law (weights -2, 0, and -1; a degree-1 zero
# mode), and a finite n = 2 table with weights of both signs.
_M, _K_MAX = 5, 40
_EXTRA = [(1, 7.5, 2), (0, 3.3, 4), (1, 0.0, 1), (1, 2.25, 1)]


def _law_tail() -> QuadraticTail:
    law = QuadraticLaw(a2=1.0, a1=_M + 1.0, a0=0.0, m1=2.0, m0=_M + 1.0)
    return QuadraticTail(_K_MAX + 1, law, (0, 1), covers_all_lines=True)


def _finite_mixed_signs() -> SpectrumTable:
    rows = [(0, 0.0, 2), (1, 0.5, 3), (2, 1.5, 2), (1, 2.0, 1), (2, 3.25, 4), (0, 1.0, 2)]
    rows.append((1, 7.0, 1))
    return SpectrumTable.from_lines(rows, n=2)


def _listed_law_and_extra_rows() -> SpectrumTable:
    k = range(1, _K_MAX + 1)
    law = [(q, float(i * (i + _M + 1)), _M + 2 * i + 1) for q in (0, 1) for i in k]
    return SpectrumTable.from_lines([(0, 0.0, _M + 1)] + law + _EXTRA, n=1, tail=_law_tail())


def _implied_law_and_extra_rows() -> SpectrumTable:
    return SpectrumTable.from_law([(0, 0.0, _M + 1)] + _EXTRA, n=1, tail=_law_tail())


_ZERO = "0x0.0p+0"
_LAW_BHAT = (
    "-0x1.0000000000000p+0",
    _ZERO,
    "-0x1.aaaaaaaaaaaacp-1",
    _ZERO,
    "0x1.c888888888888p+3",
    _ZERO,
    "-0x1.db04ac4ac4ac5p+5",
    _ZERO,
    "0x1.203898c98c98dp+7",
    _ZERO,
    "-0x1.078daba7a3345p+8",
)
_LAW_DIRECT = ("-0x1.3b615ec5f8b62p+2", "0x1.71b20db59bc90p-48")

#: closed_form_bhat, theta_prime_zero_direct_result (value, bound) and
#: theta_prime_zero_result (theta(0), theta'(0), error) per table.
OUTSIDE_LAW_GOLDEN = {
    "finite-mixed-signs": (
        _finite_mixed_signs,
        (_ZERO,) * 4
        + (
            "0x1.c000000000000p+2",
            _ZERO,
            "-0x1.5800000000000p+4",
            _ZERO,
            "0x1.3e00000000000p+4",
            _ZERO,
            "0x1.5155555555554p+3",
            _ZERO,
            "-0x1.f578000000001p+5",
        ),
        ("0x1.4fba3df19cdafp+3", "0x1.01ace6b57f4fep-46"),
        ("-0x1.c000000000000p+2", "0x1.4fba3df19cda3p+3", "0x1.f1f0c43fdc957p-42"),
    ),
    "listed-law-and-extra-rows": (
        _listed_law_and_extra_rows,
        _LAW_BHAT,
        _LAW_DIRECT,
        ("-0x1.5555555555550p-3", "-0x1.3b6155347f95ap+2", "0x1.078dabb1e9874p-14"),
    ),
    "implied-law-and-extra-rows": (
        _implied_law_and_extra_rows,
        _LAW_BHAT,
        _LAW_DIRECT,
        ("-0x1.5555555555550p-3", "-0x1.3b6155347f959p+2", "0x1.078dabb1e9874p-14"),
    ),
}


@pytest.mark.parametrize("name", sorted(OUTSIDE_LAW_GOLDEN))
def test_routes_with_lines_outside_the_law_are_pinned(name):
    build, bhat, direct, heat = OUTSIDE_LAW_GOLDEN[name]
    spec = build()
    assert spec._outside_law[1].size  # the path the circle bundle skips
    got = closed_form_bhat(spec)
    assert tuple(float(b).hex() for b in got) == bhat
    assert tuple(x.hex() for x in theta_prime_zero_direct_result(spec)) == direct
    assert tuple(float(x).hex() for x in theta_prime_zero_result(spec, got)) == heat
