"""Spectrum tables: CSV ingestion, heat super-traces with certified tail
bounds, spectral gaps, and the built-in circle-bundle model."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crtorsion.errors import DomainError, EmptyDegreeError, ParseError
from crtorsion.spectra import (
    CP1_VOLUME,
    FiniteTail,
    GeometryModel,
    QuadraticTail,
    SpectrumTable,
    cp1_geometry,
    cp1_spectrum,
    decay_certificate,
    dump_geometry,
    heat_supertrace_N,
    ingest_spectrum,
    load_geometry,
    spectral_gap,
    supertrace_trust_floor,
    trace_degree,
)
from crtorsion.tails import QuadraticLaw, tail_bound


class TestIngest:
    def test_roundtrip_single_row(self):
        spec = ingest_spectrum(b"q,lambda,mult\n1,3.0,4\n", n=1)
        assert spec.lines.tolist() == [(1, 3.0, 4)]
        assert isinstance(spec.tail, FiniteTail)

    def test_negative_eigenvalue_rejected_with_row(self):
        with pytest.raises(ParseError) as err:
            ingest_spectrum("q,lambda,mult\n0,-1.0,2\n", n=1)
        assert err.value.row == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_eigenvalue_rejected_with_row(self, bad):
        # nan passes a plain lam < 0 test; the sums would then drop the line
        with pytest.raises(ParseError) as err:
            ingest_spectrum(f"q,lambda,mult\n1,3.0,1\n1,{bad},2\n", n=1)
        assert err.value.row == 3

    def test_bad_mult_and_degree(self):
        with pytest.raises(ParseError):
            ingest_spectrum("q,lambda,mult\n0,1.0,0\n", n=1)
        with pytest.raises(ParseError):
            ingest_spectrum("q,lambda,mult\n2,1.0,1\n", n=1)

    def test_duplicates_merged(self):
        spec = ingest_spectrum("q,lambda,mult\n1,3.0,2\n1,3.0,3\n", n=1)
        assert spec.lines.tolist() == [(1, 3.0, 5)]

    def test_comments_and_blank_lines(self):
        text = "# a comment\nq,lambda,mult\n\n0,1.5,2\n# trailing\n"
        spec = ingest_spectrum(io.BytesIO(text.encode()), n=1)
        assert spec.lines.tolist() == [(0, 1.5, 2)]

    def test_missing_header(self):
        with pytest.raises(ParseError):
            ingest_spectrum("0,1.0,1\n", n=1)

    def test_sorted_by_degree_then_eigenvalue(self):
        spec = ingest_spectrum(
            "q,lambda,mult\n1,2.0,1\n0,5.0,1\n0,1.0,1\n", n=1
        )
        assert [(l.q, l.lam) for l in spec.lines] == [(0, 1.0), (0, 5.0), (1, 2.0)]


def _dict_merge(rows):
    """Reference table: merge duplicate (q, lam) keys in a dict, line by
    line, then sort the keys."""
    merged = {}
    for q, lam, mult in rows:
        merged[(q, lam)] = merged.get((q, lam), 0) + mult
    return [(q, lam, merged[(q, lam)]) for (q, lam) in sorted(merged)]


_ROWS = st.lists(
    st.tuples(
        st.integers(0, 2),
        # a small pool forces duplicate keys and zero eigenvalues
        st.one_of(st.sampled_from([0.0, 1.5, 2.0, 7.25]), st.floats(0.0, 1e6)),
        st.integers(1, 9),
    ),
    max_size=40,
)


class TestFromLines:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rows=_ROWS, data=st.data())
    def test_matches_dict_merge(self, rows, data):
        shuffled = data.draw(st.permutations(rows))
        want = _dict_merge(shuffled)
        assert SpectrumTable.from_lines(shuffled, n=2).lines.tolist() == want
        columns = np.array(shuffled, dtype=float).reshape(-1, 3)
        assert SpectrumTable.from_lines(columns, n=2).lines.tolist() == want

    def test_columns_are_read_only(self):
        spec = cp1_spectrum(3, 4)
        with pytest.raises(ValueError):
            spec.lines.lam[0] = 1.0
        with pytest.raises(ValueError):
            spec.lines["mult"][:] = 1
        with pytest.raises(ValueError):
            spec.lines.q = 0
        assert spec.lines.tolist() == cp1_spectrum(3, 4).lines.tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eigenvalue_rejected(self, bad):
        with pytest.raises(DomainError):
            SpectrumTable.from_lines([(1, 3.0, 1), (1, bad, 2)], n=1)

    def test_invalid_lines_rejected(self):
        for row in ((2, 1.0, 1), (-1, 1.0, 1), (1, -1.0, 1), (1, 1.0, 0)):
            with pytest.raises(DomainError):
                SpectrumTable.from_lines([(0, 1.0, 1), row], n=1)

    @pytest.mark.parametrize(
        "row, ok",
        [((1.5, 3.0, 2), False), ((1, 3.0, 2.7), False), ((1.0, 3.0, 2.0), True)],
    )
    def test_non_integer_degree_or_multiplicity_rejected(self, row, ok):
        if ok:
            spec = SpectrumTable.from_lines([row], n=1)
            assert spec.lines.tolist() == [(1, 3.0, 2)]
        else:
            with pytest.raises(DomainError, match="non-integer"):
                SpectrumTable.from_lines([(0, 1.0, 1), row], n=1)

    def test_empty_table(self):
        spec = SpectrumTable.from_lines([], n=1)
        assert spec.lines.tolist() == []
        assert spec.supertrace_N_kernel() == 0.0


class TestHeatSupertrace:
    def test_single_line_value(self):
        spec = SpectrumTable.from_lines([(1, 2.0, 3)], n=1)
        for t in (0.1, 1.0, 3.0):
            tv = heat_supertrace_N(spec, t, False)
            assert tv.value == pytest.approx(-3.0 * math.exp(-2.0 * t), rel=1e-15)
            assert tv.tail_bound == 0.0

    def test_degree_zero_only_vanishes(self):
        spec = SpectrumTable.from_lines([(0, 1.0, 2), (0, 0.0, 5)], n=1)
        assert heat_supertrace_N(spec, 0.7, False).value == 0.0

    def test_nonzero_only_differs_by_kernel_constant(self):
        # the difference is the t-independent zero-mode super trace, with the
        # sign fixed by the defining sum (-1)^q q mult e^{-lam t}
        spec = SpectrumTable.from_lines(
            [(1, 0.0, 2), (1, 3.0, 1), (0, 0.0, 7)], n=2
        )
        const = spec.supertrace_N_kernel()
        assert const == pytest.approx(-2.0)
        for t in (0.3, 2.0):
            full = heat_supertrace_N(spec, t, False).value
            perp = heat_supertrace_N(spec, t, True).value
            assert full - perp == pytest.approx(const, abs=1e-14)

    def test_invalid_t(self):
        # nan passes a plain t <= 0 test; it must raise, not return nan
        spec = SpectrumTable.from_lines([(1, 1.0, 1)], n=1)
        for t in (math.nan, math.inf, 0.0, -1.0):
            for nonzero_only in (False, True):
                with pytest.raises(DomainError):
                    heat_supertrace_N(spec, t, nonzero_only)
            with pytest.raises(DomainError):
                trace_degree(spec, 1, t)

    @pytest.mark.parametrize("name", ["cp1_m0", "cp1_m8", "cp1_m128", "random_n2"])
    def test_matches_fsum_reference(self, name):
        # reference: exactly rounded sum over *all* listed lines under the
        # lam t < 745 underflow mask; the tail bound is weight * tail_bound
        if name == "random_n2":
            rng = np.random.default_rng(41)
            lines = [
                (int(rng.integers(0, 3)), float(rng.uniform(0.3, 40.0)), int(rng.integers(1, 6)))
                for _ in range(60)
            ]
            lines += [(0, 0.0, 3), (1, 0.0, 2), (2, 0.0, 2)]
            spec = SpectrumTable.from_lines(lines, n=2)
            assert {l.q for l in spec.lines if l.lam > 0} == {0, 1, 2}
            assert spec.supertrace_N_kernel() == 2.0
        else:
            m = int(name[len("cp1_m"):])
            spec = cp1_spectrum(m, max(1024, m * m))
        lam_min = spec.min_nonzero_eigenvalue
        t_dead = 1000.0 / lam_min  # every term underflows
        rows = spec.lines.tolist()
        for t in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0, 1e2, 1e3, t_dead):
            if isinstance(spec.tail, QuadraticTail):
                weight = sum(q for q in spec.tail.degrees if q >= 1)
                want_bound = weight * tail_bound(spec.tail.law, spec.tail.k_next, t)
            else:
                want_bound = 0.0
            for nonzero_only in (False, True):
                terms = [
                    (-1) ** q * q * mult * math.exp(-lam * t)
                    for q, lam, mult in rows
                    if lam * t < 745.0 and not (nonzero_only and lam == 0.0)
                ]
                tv = heat_supertrace_N(spec, t, nonzero_only)
                assert tv.tail_bound == want_bound
                scale = math.fsum(abs(x) for x in terms)
                assert abs(tv.value - math.fsum(terms)) <= 1e-13 * scale
                if t == t_dead:
                    assert tv.value == (0.0 if nonzero_only else spec.supertrace_N_kernel())

    @pytest.mark.parametrize("name", ["cp1_m8", "cp1_m128", "random_n2"])
    def test_array_kernel_matches_fsum_reference(self, name):
        # one call on an unsorted array with repeats and an all-underflow
        # node: each node keeps its own lam t < 745 cut
        if name == "random_n2":
            rng = np.random.default_rng(41)
            lines = [
                (int(rng.integers(0, 3)), float(rng.uniform(0.3, 40.0)), int(rng.integers(1, 6)))
                for _ in range(60)
            ]
            spec = SpectrumTable.from_lines(lines + [(1, 0.0, 2)], n=2)
        else:
            m = int(name[len("cp1_m"):])
            spec = cp1_spectrum(m, max(1024, m * m))
        t_dead = 1000.0 / spec.min_nonzero_eigenvalue
        t = np.array([0.1, 1e-6, 10.0, t_dead, 1e-3, 0.1, 3e-5, 1.0, 1e-6, 2e-2])
        got = spec._supertrace_value(t)
        assert got.shape == t.shape and got.dtype == np.float64
        rows = spec.lines.tolist()
        for ti, value in zip(t.tolist(), got.tolist()):
            terms = [
                (-1) ** q * q * mult * math.exp(-lam * ti)
                for q, lam, mult in rows
                if lam > 0.0 and lam * ti < 745.0
            ]
            scale = math.fsum(abs(x) for x in terms)
            assert abs(value - math.fsum(terms)) <= 1e-13 * scale
        assert got[3] == 0.0
        assert got[0] == got[5] and got[1] == got[8]
        # a one-node call reads the same terms (its block may be narrower,
        # which moves the pairwise sum's rounding only)
        for ti, value in zip(t.tolist(), got.tolist()):
            assert heat_supertrace_N(spec, ti, True).value == pytest.approx(value, rel=1e-13, abs=0)

    def test_array_kernel_temporaries_stay_under_cap(self):
        # at m = 512 the floor nodes keep all 2^18 law lines; the kernel's
        # temporaries are one float64 block and its bool mask, <= _BLOCK
        # elements each, plus per-node arrays and numpy's 8192-element
        # casting buffer
        import tracemalloc

        from crtorsion.spectra import _BLOCK

        spec = cp1_spectrum(512, 512 * 512)
        spec._supertrace  # the cached line arrays are not temporaries
        t = np.geomspace(1e-9, 10.0, 200)
        tracemalloc.start()
        try:
            spec._supertrace_value(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * _BLOCK + (1 << 17)

    def test_tail_consistency_between_truncations(self):
        coarse = cp1_spectrum(10, 2000)
        fine = cp1_spectrum(10, 4000)
        for t in (2e-6, 1e-5, 1.0):
            v_coarse = heat_supertrace_N(coarse, t, True)
            v_fine = heat_supertrace_N(fine, t, True)
            assert abs(v_fine.value - v_coarse.value) <= v_coarse.tail_bound + 1e-13

    def test_long_time_decay_bound(self):
        # per-degree traces: Tr^{(q)}(t) <= e^{-lam_min t/2} Tr^{(q)}(delta/2)
        # for t >= delta; the supertrace inherits it for single-degree spectra
        rng = np.random.default_rng(9)
        for _ in range(10):
            lines = [
                (1, float(rng.uniform(0.5, 8.0)), int(rng.integers(1, 4)))
                for _ in range(12)
            ]
            spec = SpectrumTable.from_lines(lines, n=1)
            lam_min = spec.min_nonzero_eigenvalue
            delta = 0.5
            ref = abs(heat_supertrace_N(spec, delta / 2, True).value)
            for t in (0.5, 1.0, 3.0, 10.0):
                lhs = abs(heat_supertrace_N(spec, t, True).value)
                assert lhs <= ref * math.exp(-lam_min * t / 2) + 1e-300

    def test_decay_certificate_is_honest(self):
        spec = cp1_spectrum(6, 400)
        C, c = decay_certificate(spec)
        for t in (1.0, 2.5, 7.0):
            assert abs(heat_supertrace_N(spec, t, True).value) <= C * math.exp(-c * t)
        # the rescaled route certifies from t_min = 1/m
        for m in (8, 64):
            spec = cp1_spectrum(m, max(1024, m * m))
            C, c = decay_certificate(spec, t_min=1.0 / m)
            for t in (1.0 / m, 2.5 / m, 7.0 / m, 1.0, 3.0):
                assert abs(heat_supertrace_N(spec, t, True).value) <= C * math.exp(-c * t)

    def test_trust_floor_certifies(self):
        spec = cp1_spectrum(8, 500)
        floor = supertrace_trust_floor(spec, 1e-12)
        assert heat_supertrace_N(spec, floor, True).tail_bound <= 1e-12


class TestSpectralGap:
    def test_single_line(self):
        spec = SpectrumTable.from_lines([(1, 3.0, 4)], n=1)
        assert spectral_gap(spec, 1) == 3.0

    def test_empty_degree(self):
        spec = SpectrumTable.from_lines([(0, 1.0, 1)], n=1)
        with pytest.raises(EmptyDegreeError):
            spectral_gap(spec, 1)

    def test_cp1_gap_closed_form(self):
        for m in (1, 4, 16):
            spec = cp1_spectrum(m, 8)
            assert spectral_gap(spec, 1) == pytest.approx(m + 2.0)

    def test_gap_linear_lower_bound(self):
        ms = np.arange(4, 65)
        gaps = np.array([spectral_gap(cp1_spectrum(int(m), 4), 1) for m in ms])
        slope, intercept = np.polyfit(ms, gaps, 1)
        assert slope >= 0.9
        assert np.all(gaps >= slope * ms - (slope * ms - gaps).max() - 1e-9)


def _flat(views):
    """The arrays and scalars of ``views``, tuples unpacked."""
    return [x for v in views for x in (v if isinstance(v, tuple) else (v,))]


class TestCp1Model:
    def test_kernel_dimension_and_purity(self):
        for m in (0, 1, 5):
            spec = cp1_spectrum(m, 16)
            zero_lines = [l for l in spec.lines if l.lam == 0.0]
            assert len(zero_lines) == 1
            assert zero_lines[0].q == 0
            assert zero_lines[0].mult == m + 1
            assert spec.supertrace_N_kernel() == 0.0

    @pytest.mark.parametrize("m", [0, 3, 37])
    def test_rows_match_closed_form(self, m):
        k_max = 60
        law = [(float(k) * (k + m + 1), m + 2 * k + 1) for k in range(1, k_max + 1)]
        want = [(0, 0.0, m + 1)] + [(0, *row) for row in law] + [(1, *row) for row in law]
        assert cp1_spectrum(m, k_max).lines.tolist() == want

    def test_m0_is_round_sphere_law(self):
        spec = cp1_spectrum(0, 6)
        deg0 = [(l.lam, l.mult) for l in spec.lines if l.q == 0 and l.lam > 0]
        assert deg0 == [(float(k * (k + 1)), 2 * k + 1) for k in range(1, 7)]

    def test_degrees_mirror_nonzero_lines(self):
        spec = cp1_spectrum(3, 10)
        deg0 = {(l.lam, l.mult) for l in spec.lines if l.q == 0 and l.lam > 0}
        deg1 = {(l.lam, l.mult) for l in spec.lines if l.q == 1}
        assert deg0 == deg1

    def test_validation(self):
        with pytest.raises(DomainError):
            cp1_spectrum(-1, 4)
        with pytest.raises(DomainError):
            cp1_spectrum(3, 0)

    @pytest.mark.parametrize("k_max", [1, 4, 1024])
    @pytest.mark.parametrize("m", [0, 1, 8, 128])
    def test_law_backed_table_matches_stored_rows(self, m, k_max):
        # only the kernel row is stored; every view of the law block agrees
        # exactly with a table that stores all rows
        spec = cp1_spectrum(m, k_max)
        assert spec.stored.tolist() == [(0, 0.0, m + 1)]
        views = (
            spec._supertrace,
            spec._outside_law,
            decay_certificate(spec, 1.0),
            decay_certificate(spec, 1.0 / max(m, 1)),
            spec.min_nonzero_eigenvalue,
            spec.supertrace_N_kernel(),
        )
        assert "lines" not in vars(spec)
        stored = SpectrumTable.from_lines(spec.lines.tolist(), n=1, m=m, tail=spec.tail)
        assert stored.lines.dtype == spec.lines.dtype
        assert np.array_equal(stored.lines, spec.lines)
        want = (
            stored._supertrace,
            stored._outside_law,
            decay_certificate(stored, 1.0),
            decay_certificate(stored, 1.0 / max(m, 1)),
            stored.min_nonzero_eigenvalue,
            stored.supertrace_N_kernel(),
        )
        for got, ref in zip(_flat(views), _flat(want), strict=True):
            assert np.array_equal(got, ref)

    def test_from_law_validation(self):
        law = QuadraticLaw(a2=1.0, a1=3.0, a0=0.0, m1=2.0, m0=3.0)
        tail = QuadraticTail(k_next=5, law=law, degrees=(0, 1), covers_all_lines=True)
        assert SpectrumTable.from_law([], n=1, m=2, tail=tail).lines.size == 8
        bad_tails = (
            dataclasses.replace(tail, covers_all_lines=False),
            dataclasses.replace(tail, degrees=(0, 2)),
            dataclasses.replace(tail, law=dataclasses.replace(law, m0=2.5)),
            dataclasses.replace(tail, law=dataclasses.replace(law, m0=-3.0)),
            dataclasses.replace(tail, law=dataclasses.replace(law, a1=-3.0)),
        )
        for bad in bad_tails:
            with pytest.raises(DomainError):
                SpectrumTable.from_law([], n=1, m=2, tail=bad)
        with pytest.raises(DomainError):
            SpectrumTable.from_law([], n=1, m=2, tail=FiniteTail())
        # a stored line of the implied block would count twice
        with pytest.raises(DomainError, match="implied by the tail law"):
            SpectrumTable.from_law([(1, 10.0, 7)], n=1, m=2, tail=tail)

    def test_rescaled_trace_approaches_model_density(self):
        # m^{-1} Tr^(0)[e^{-(t/m) Box}] -> vol (2 pi)^{-2} / (1 - e^{-t})
        t = 0.8
        want = 1.0 / (1.0 - math.exp(-t))
        vals = []
        for m in (16, 64, 256):
            spec = cp1_spectrum(m, 2048)
            vals.append(trace_degree(spec, 0, t / m, nonzero_only=False).value / m)
        errs = [abs(v - want) for v in vals]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] / want < 2e-2


class TestGeometry:
    def test_cp1_geometry_convention(self):
        g = cp1_geometry()
        assert g.volume == pytest.approx(4.0 * math.pi ** 2)
        assert g.levi.eigenvalues == (1.0,)
        assert CP1_VOLUME == pytest.approx(39.478417, abs=1e-6)

    def test_json_roundtrip(self, tmp_path):
        g = GeometryModel(2, cp1_geometry().levi.__class__(2, (1.0, 2.0)), 10.0, 3)
        path = tmp_path / "geom.json"
        path.write_text(dump_geometry(g))
        back = load_geometry(path)
        assert back == g

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "volume": 1.0}))
        with pytest.raises(DomainError):
            load_geometry(path)

    def test_validation(self):
        levi = cp1_geometry().levi
        with pytest.raises(DomainError):
            GeometryModel(1, levi, -1.0, 1)
        with pytest.raises(DomainError):
            GeometryModel(1, levi, 1.0, 0)
